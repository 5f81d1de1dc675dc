"""Support-restricted CRB matrices, group downdates and oracle estimation.

For a candidate row set restricted to a known transform-domain support, the
covariance of any unbiased estimator is bounded below by the inverse of the
restricted Gram matrix.  The restricted rows are ``A Psi_S^H``, the encoding
applied to the S support atoms; :func:`restricted_matrix` builds them from 1D
atom spectra, with no atom image.  The layer passes plain arrays: a group
is its (C, S) restricted rows, and which groups a state holds is the caller's
bookkeeping.  A group enters only through its Gram, so every Gram and
downdate is taken from :func:`compressed_rows`: r <= min(C, S) rows B of
the same Gram, which for a readout line come from one SVD per coil of the
readout spectra shared by every line.

Groups are removed via the matrix inversion lemma, a rank-r "downdate"
that inverts an r x r system.  Removing B from the rows of Gram A leaves
the trace ``tr(A^-1) + tr(mid^-1 M2)``, ``mid = I - M1``, from the group's
downdate forms ``M1 = B A^-1 B^H`` and ``M2 = B A^-2 B^H``: built by
:func:`downdate_forms` at O(r S^2) per group and priced by
:func:`forms_traces`, elementwise for one-row groups and by batched r x r
solves otherwise.  :func:`smw_removal` commits a removal and returns the
``U`` and ``K`` from which :func:`update_forms` applies it to kept forms at
O(r^2 S + r^3) per group (Hager, SIAM Review 1989).  So every step of the
downdate forms (build, price, commit and update) lives here; the choice of
when to keep, trust or rebuild them is the caller's.  The module also
provides the support-aware least-squares estimator that attains the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingModel, _axis_phases, _group_locations
from .errors import InfeasibleDesignError
from .sparsity import SupportSet, TransformSpec, support_atoms

__all__ = [
    "COND_LIMIT",
    "CrbState",
    "SLICE_ENTRIES",
    "restricted_matrix",
    "restricted_block",
    "compressed_rows",
    "gram_trace",
    "restricted_gram",
    "state_from_gram",
    "build_full_crb",
    "smw_removal",
    "downdate_forms",
    "update_forms",
    "forms_traces",
    "downdate_traces",
    "downdate_trace",
    "image_domain_crb_trace",
    "oracle_lsq_estimate",
]

# Condition number beyond which a Gram matrix is treated as singular
# (double precision rule of thumb).
COND_LIMIT = 1e12

# Complex entries of (groups x r x S) that building downdate forms may hold
# per slice.  Keeps peak memory flat however large the candidate set.
SLICE_ENTRIES = 2**13
_TINY = np.finfo(float).tiny
# Largest matrix handed whole to one numpy call: a Gram's trace takes
# eigvalsh, which up to this size is no slower than the Cholesky route, and
# _lower_inverse inverts a triangular block with inv.
_DENSE_MAX = 48


@dataclass(frozen=True, eq=False)
class CrbState:
    """Inverse restricted Gram matrix of one row set.

    ``inv_gram`` is S x S Hermitian, ``trace`` its real trace and ``cond``
    the condition number of the Gram it was built from (a downdate keeps
    it).
    """

    inv_gram: np.ndarray
    trace: float
    cond: float


def _spectra(model: EncodingModel, support: SupportSet, spec: TransformSpec, t: int, groups):
    """Per-axis spectra of the support atoms under each coil of map set ``t``.

    With atom s ``a1_s (x) a2_s`` (``support_atoms``) and coil map c the SVD
    terms ``sigma_k u_k v_k^T`` within numpy's ``matrix_rank`` rule (one for
    the synthetic and single-channel maps), returns (j1, j2, terms): the axis
    indices of the locations of ``groups`` and, per coil, P1 (K, d1, S) and
    P2 (K, d2, S) with ``P1[k] = w1 F1 (a1_s * sigma_k u_k)`` and
    ``P2[k] = w2 ((a2_s * v_k)^T F2)``.  F1, F2, j1, j2 are from
    ``_axis_phases`` and w1, w2 the voxel basis weights of each axis offset,
    so row (p, c, s) of ``A Psi_S^H`` is ``sum_k P1[k, j1_p, s] P2[k, j2_p, s]``.
    """
    grid, locs = model.grid, _group_locations(model, groups, t)
    f1, f2, j1, j2 = _axis_phases(model, locs)
    m, ov = model.candidates.kidx[locs], model.candidates.oversampling
    w1, w2 = np.empty(len(f1)), np.empty(f2.shape[1])
    w1[j1] = model.basis.axis_weights(m[:, 0], ov * grid.dims[0])
    w2[j2] = model.basis.axis_weights(m[:, 1], ov * grid.dims[1])
    f1, f2 = w1[:, None] * f1, f2 * w2
    a1, a2 = support_atoms(support, spec, grid.dims)
    u, sv, vh = np.linalg.svd(model.coil_maps[t].reshape(model.n_coils, *grid.dims))
    ranks = (sv > sv[:, :1] * max(grid.dims) * np.finfo(float).eps).sum(axis=1)
    terms = [
        (np.stack([f1 @ (a1 * (sv[c, k] * u[c, :, k])).T for k in range(rank)]),
         np.stack([((a2 * vh[c, k]) @ f2).T for k in range(rank)]))
        for c, rank in enumerate(np.maximum(ranks, 1))
    ]
    return j1, j2, terms


def restricted_matrix(
    model: EncodingModel, support: SupportSet, spec: TransformSpec, t: int, groups
) -> np.ndarray:
    """Support-restricted rows of ``groups`` under map set ``t``, (len(groups), C, S).

    ``A Psi_S^H`` in closed form, for any coil map, oversampling and voxel
    basis: row (p, c, s) is ``sum_k P1[k, j1_p, s] P2[k, j2_p, s]`` from the
    per-axis spectra of :func:`_spectra`.
    """
    j1, j2, terms = _spectra(model, support, spec, t, groups)
    second = np.empty((j1.size, support.S), dtype=complex)  # reused by every term
    out = np.empty((j1.size, model.n_coils, support.S), dtype=complex)
    for c, (p1, p2) in enumerate(terms):
        for k in range(len(p1)):  # the first term is formed in place in ``out``
            term = np.take(p1[k], j1, axis=0, out=None if k else out[:, c], mode="clip")
            term *= np.take(p2[k], j2, axis=0, out=second, mode="clip")
            if k:
                out[:, c] += term
    return out.reshape(-1, model.candidates.C, support.S)


def restricted_block(
    model: EncodingModel, support: SupportSet, spec: TransformSpec, group_index: int, t: int
) -> np.ndarray:
    """Restricted rows of one group, (C, S): ``restricted_matrix`` of ``[group_index]``."""
    return restricted_matrix(model, support, spec, t, [group_index])[0]


def compressed_rows(
    model: EncodingModel, support: SupportSet, spec: TransformSpec, t: int, groups
) -> np.ndarray:
    """Rows (len(groups), r, S) with the Grams of the :func:`restricted_matrix`
    rows of ``groups``, r <= min(C, S).

    No groups keep C rows, and groups of one location do too when C <= S.
    The locations of a line share the index j of the undersampled axis and
    cover every offset of the readout axis, so by :func:`_spectra` the rows
    of coil c are ``X_c D_j``: ``X_c`` (n_read, K S) stacks the readout
    spectra ``P_read[k]`` of the K terms and is the same for every line, and
    ``D_j`` stacks ``diag(P_fixed[k, j])`` over k.  With one thin SVD
    ``X_c = U Sigma W^H`` per coil and its m_c terms within numpy's
    ``matrix_rank`` rule, the rows ``Sigma W^H D_j`` have the Gram of the
    raw rows up to rounding, so the traces and singularity of every
    downdate are theirs: r = sum_c m_c.  When that, or C, exceeds S, each
    group's rows B become the S rows of R in ``B = Q R`` (one batched thin
    QR), of the same Gram ``R^H R``.
    """
    cand = model.candidates
    n_read = cand.group_locs.shape[1]
    if len(groups) == 0:
        return restricted_matrix(model, support, spec, t, groups)
    if n_read == 1:
        rows = restricted_matrix(model, support, spec, t, groups)
    else:
        j1, j2, terms = _spectra(model, support, spec, t, groups)
        along0 = cand.undersample_axes == (0,)  # lines are grid rows, read out along axis 1
        j = (j1 if along0 else j2)[::n_read]
        out = []
        for p1, p2 in terms:
            fixed, read = (p1, p2) if along0 else (p2, p1)
            x = np.swapaxes(read, 0, 1).reshape(read.shape[1], -1)
            _, sv, wh = np.linalg.svd(x, full_matrices=False)
            m = int((sv > sv[:1] * max(x.shape) * np.finfo(float).eps).sum())
            y = (sv[:m, None] * wh[:m]).reshape(m, len(read), support.S)
            out.append(np.einsum("iks,kgs->gis", y, fixed[:, j]))
        rows = np.concatenate(out, axis=1)
    return np.linalg.qr(rows, mode="r") if rows.shape[1] > support.S else rows


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def _cond(w: np.ndarray) -> np.ndarray:
    """Condition numbers of Hermitian Grams with ascending eigenvalues w (..., S),
    ``+inf`` where the smallest is not positive.  A Gram whose condition number
    exceeds :data:`COND_LIMIT` is treated as singular."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w[..., 0] > 0, w[..., -1] / w[..., 0], np.inf)


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of lower-triangular matrices (..., n, n) by 2 x 2 block recursion,
    ``[[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]``, down to blocks
    of at most :data:`_DENSE_MAX` rows."""
    n = low.shape[-1]
    if n <= _DENSE_MAX:
        return np.linalg.inv(low)
    h = n // 2
    a, d = _lower_inverse(low[..., :h, :h]), _lower_inverse(low[..., h:, h:])
    out = np.zeros_like(low)
    out[..., :h, :h] = a
    out[..., h:, h:] = d
    out[..., h:, :h] = -(d @ low[..., h:, :h]) @ a
    return out


def _cholesky_trace(gram: np.ndarray):
    """Traces of the inverses of Hermitian Grams (..., S, S) when the Cholesky of
    every ``G - (tr G / COND_LIMIT) I`` succeeds, else None.

    Success proves ``lambda_min > tr G / COND_LIMIT >= lambda_max / COND_LIMIT``,
    so no Gram is singular by :func:`_cond`; the trace is then ``||L^-1||_F^2``
    from the Cholesky factor L of G.
    """
    shift = np.trace(gram, axis1=-2, axis2=-1).real / COND_LIMIT
    try:
        np.linalg.cholesky(gram - shift[..., None, None] * np.eye(gram.shape[-1]))
    except np.linalg.LinAlgError:
        return None
    inv = _lower_inverse(np.linalg.cholesky(gram))
    return (inv.real**2 + inv.imag**2).sum(axis=(-2, -1))


def gram_trace(gram: np.ndarray) -> np.ndarray:
    """Trace of the inverse of Hermitian Grams (..., S, S); ``+inf`` where
    singular by :func:`_cond`.

    Above :data:`_DENSE_MAX` rows the trace comes from :func:`_cholesky_trace`
    where that proves every Gram of the batch regular.  Otherwise it is
    ``sum 1/w`` of the eigenvalues w, with :func:`_cond`'s rule.
    """
    if gram.shape[-1] > _DENSE_MAX and (trace := _cholesky_trace(gram)) is not None:
        return trace
    w = np.linalg.eigvalsh(0.5 * (gram + _h(gram)))
    with np.errstate(divide="ignore", invalid="ignore"):
        trace = (1.0 / w).sum(axis=-1)
    return np.where(_cond(w) > COND_LIMIT, np.inf, trace)


def restricted_gram(rows: np.ndarray) -> np.ndarray:
    """Restricted Gram sum_g B_g^H B_g of stacked rows (groups, C, S), one GEMM."""
    b = rows.reshape(-1, rows.shape[-1])
    return b.conj().T @ b


def state_from_gram(gram: np.ndarray) -> CrbState:
    """CRB state of a restricted Gram matrix, inverted from its eigenpairs.

    Raises :class:`InfeasibleDesignError` when the support cannot be
    identified (rank deficiency or condition above :data:`COND_LIMIT`).
    """
    w, v = np.linalg.eigh(0.5 * (gram + _h(gram)))
    cond = float(_cond(w))
    if cond > COND_LIMIT:
        raise InfeasibleDesignError(
            f"restricted Gram is singular or near-singular (cond ~ {cond:.3g})",
            cond=cond,
        )
    inv = (v / w) @ _h(v)
    inv = 0.5 * (inv + _h(inv))
    return CrbState(inv_gram=inv, trace=float(np.trace(inv).real), cond=cond)


def build_full_crb(
    model: EncodingModel,
    support: SupportSet,
    spec: TransformSpec,
    t: int,
    groups=None,
) -> CrbState:
    """CRB state for the candidate rows of ``groups`` (default: all groups).

    Raises :class:`InfeasibleDesignError` when the support cannot be
    identified from the given rows (rank deficiency or condition above
    :data:`COND_LIMIT`).
    """
    groups = sorted(range(model.candidates.L) if groups is None else groups)
    n_rows = len(groups) * model.candidates.C
    if support.S > n_rows:
        raise InfeasibleDesignError(
            f"support size {support.S} exceeds candidate row count {n_rows}"
        )
    # no reference to the rows outlives the Gram: they are freed before the inversion
    gram = restricted_gram(compressed_rows(model, support, spec, t, groups))
    return state_from_gram(gram)


def _singular(mid: np.ndarray) -> np.ndarray:
    """Which middle matrices (g, r, r) have smallest eigenvalue <= 1/COND_LIMIT.

    A middle matrix has eigenvalues in [0, 1] in exact arithmetic, so
    near-singularity is tested on an absolute scale.  A 1 x 1 matrix is its
    own eigenvalue and is compared elementwise.  Otherwise a batched
    Cholesky of ``mid - I/COND_LIMIT`` clears a batch of regular groups at
    once; only a batch where it fails gets the eigenvalue test.
    """
    tau = 1.0 / COND_LIMIT
    if mid.shape[-1] == 1:
        return mid[:, 0, 0].real <= tau
    try:
        np.linalg.cholesky(mid - tau * np.eye(mid.shape[-1]))
        return np.zeros(len(mid), dtype=bool)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(mid)[:, 0] <= tau


def smw_removal(state: CrbState, rows: np.ndarray):
    """CRB state after removing the rows B (r, S) of one group, with
    ``U = A^-1 B^H`` and ``K = (I - B U)^-1``: the new inverse is
    ``A^-1 + U K U^H`` (matrix inversion lemma), equal to re-inversion of
    the reduced Gram.  Raises :class:`InfeasibleDesignError` when removing
    the rows destroys identifiability (``I - B U`` singular within tolerance).
    """
    u = state.inv_gram @ _h(rows)
    mid = np.eye(len(rows)) - rows @ u
    mid = 0.5 * (mid + _h(mid))
    if _singular(mid[None])[0]:
        raise InfeasibleDesignError("removing the group makes the design singular")
    k = np.linalg.inv(mid)
    k = 0.5 * (k + _h(k))
    inv = (u @ k) @ _h(u)  # updated in place: one S x S temporary besides it
    inv += state.inv_gram
    inv += _h(inv)
    inv *= 0.5
    return CrbState(inv_gram=inv, trace=float(np.trace(inv).real), cond=state.cond), u, k


def update_forms(forms, rows: np.ndarray, inv_gram: np.ndarray, c: int, u, k) -> float:
    """Update the forms (M1, M2) of every group of ``rows`` (g, r, S) in place
    for the removal of group ``c``, given ``inv_gram`` before it and the
    ``U``, ``K`` of :func:`smw_removal`; returns the relative drift of group
    c's stored forms from their exact values ``B_c U`` and ``U^H U``.  With
    ``X = B U``, ``Y = B A^-1 U`` and ``V = X K`` (K is Hermitian):
    ``M1 += V X^H`` and ``M2 += W V^H + (W V^H)^H`` with ``W = Y + V U^H U / 2``.
    """
    m1, m2 = forms
    g, r, s = rows.shape
    xy = rows.reshape(-1, s) @ np.concatenate([u, inv_gram @ u], axis=1)
    uhu = _h(u) @ u
    v = xy[:, :r] @ k
    w = xy[:, r:] + 0.5 * (v @ uhu)
    x, v, w = (a.reshape(g, r, r) for a in (xy[:, :r], v, w))
    exact = ((m1[c], x[c]), (m2[c], uhu))
    drift = max(np.abs(a - b).max() / max(np.abs(b).max(), _TINY) for a, b in exact)
    m1 += v @ _h(x)
    wv = w @ _h(v)
    m2 += wv + _h(wv)
    return float(drift)


def downdate_forms(inv_gram: np.ndarray, rows: np.ndarray):
    """Forms ``M1 = B A^-1 B^H`` and ``M2 = B A^-2 B^H`` (g, r, r) of each group
    B of ``rows`` (g, r, S), ``A^-1 = inv_gram``, built as many groups at a
    time as fit in :data:`SLICE_ENTRIES` entries of (g, r, S), at least one.
    """
    g, r, s = rows.shape
    m1 = np.empty((g, r, r), dtype=complex)
    m2 = np.empty_like(m1)
    step = max(1, SLICE_ENTRIES // (r * s))
    for i in range(0, g, step):
        b = rows[i : i + step]
        gh = (b.reshape(-1, s) @ inv_gram).reshape(b.shape)
        m1[i : i + step] = b @ _h(gh)
        m2[i : i + step] = gh @ _h(gh)
    return m1, m2


def forms_traces(trace: float, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Trace after removing each group alone, ``trace + tr(mid^-1 M2)`` with
    ``mid = I - M1`` from its forms (g, r, r), or ``+inf`` when the group is
    mandatory (``mid`` singular by :func:`_singular`): elementwise for one
    row, by batched r x r solves otherwise."""
    r = m1.shape[-1]
    if r == 1:  # a Hermitian 1 x 1 matrix is its real part
        mid = 1.0 - m1.real
        singular = _singular(mid)
        x = m2[:, 0, 0].real / np.where(singular, 1.0, mid[:, 0, 0])
    else:
        mid = np.eye(r) - m1
        mid = 0.5 * (mid + _h(mid))
        singular = _singular(mid)
        mid[singular] = np.eye(r)  # keeps the solve regular; priced +inf below
        x = np.trace(np.linalg.solve(mid, m2), axis1=-2, axis2=-1).real
    return np.where(singular, np.inf, trace + x)


def downdate_traces(state: CrbState, rows: np.ndarray) -> np.ndarray:
    """Trace of the CRB after removing each group of ``rows`` (g, r, S) alone:
    :func:`forms_traces` of freshly built :func:`downdate_forms`."""
    return forms_traces(state.trace, *downdate_forms(state.inv_gram, rows))


def downdate_trace(state: CrbState, rows: np.ndarray) -> float:
    """Trace after removing the rows (C, S) of one group, ``+inf`` if mandatory."""
    return float(downdate_traces(state, rows[None])[0])


def image_domain_crb_trace(
    state: CrbState,
    support: SupportSet,
    spec: TransformSpec,
    dims: tuple[int, int],
) -> float:
    """Trace of the voxel-domain CRB matrix, computed explicitly.

    Synthesizes each supported coefficient back to the voxel domain and
    contracts against ``inv_gram``.  For an orthonormal transform this
    equals ``state.trace``; the explicit route makes that a checkable
    dual computation rather than an identity.
    """
    basis = np.einsum("si,sj->sij", *support_atoms(support, spec, dims)).reshape(support.S, -1)
    # Trace[V^T C conj(V)] with V[j] the synthesized coefficient image.
    w = state.inv_gram @ np.conj(basis)
    return float(np.einsum("sn,sn->", basis, w).real)


def oracle_lsq_estimate(
    data: np.ndarray, rows: np.ndarray, support: SupportSet
) -> np.ndarray:
    """Least-squares coefficient estimate with known support, zero-filled.

    ``rows`` is the (M, S) stacked restricted row matrix actually used for
    acquisition.  ``data`` is one (M,) acquisition, giving a (q,) estimate,
    or k of them as the columns of an (M, k) array, giving (q, k).  The
    estimator is unbiased for data generated with the truth on the support,
    and its covariance attains the CRB.
    """
    rows = np.asarray(rows)
    if rows.shape[1] != support.S:
        raise ValueError(
            f"rows have {rows.shape[1]} columns, support has size {support.S}"
        )
    data = np.asarray(data)
    sol, _, rank, _ = np.linalg.lstsq(rows, data, rcond=None)
    if rank < support.S:
        raise InfeasibleDesignError(
            f"restricted row matrix is rank deficient ({rank} < {support.S})"
        )
    out = np.zeros((support.q, *data.shape[1:]), dtype=complex)
    out[support.indices] = sol
    return out
