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
readout spectra shared by every line; one-row 2D groups under a one-term
map stay per-axis factors, :class:`SeparableRows` (:func:`candidate_rows`).
Every Gram is formed by :func:`restricted_gram`, exactly Hermitian.

Groups are removed via the matrix inversion lemma, a rank-r "downdate"
that inverts an r x r system.  Removing B from the rows of Gram A leaves
the trace ``tr(A^-1) + tr(mid^-1 M2)``, ``mid = I - M1``, from the group's
downdate forms ``M1 = B A^-1 B^H`` and ``M2 = B A^-2 B^H``: built by
:func:`downdate_forms` at O(r S^2) per group and priced by
:func:`forms_traces`, elementwise for one-row groups and by batched r x r
solves otherwise.  :func:`smw_removal` commits a removal in one call: it
downdates the inverse and, when forms are kept, updates every group's forms
in place at O(r^2 S + r^3) per group (Hager, SIAM Review 1989), returning
how far the removed group's stored forms had drifted.  For one-row groups
the commit and the update are elementwise, with no LAPACK call or
symmetrization pass, on real (g,) forms; from factors all B u are one GEMM
on the k-space grid.  So every step of the downdate forms (build, price and
commit) lives here; when to keep, trust or rebuild them is the caller's.
The module also provides the support-aware least-squares estimator that
attains the bound.

One rule decides singularity: a Hermitian matrix is singular when its
smallest eigenvalue is <= a shift, ``tr G / COND_LIMIT`` for a Gram G and
``1 / COND_LIMIT`` for a middle matrix, whose eigenvalues lie in [0, 1]
(:func:`_singular`).  A regular Gram is inverted one way, through ``L^-1``
of its Cholesky factor L (:func:`_inverse_factor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import EncodingModel, _axis_phases, _group_locations
from .errors import InfeasibleDesignError
from .sparsity import SupportSet, TransformSpec, support_atoms

__all__ = [
    "COND_LIMIT",
    "CrbState",
    "SLICE_BYTES",
    "SeparableRows",
    "restricted_matrix",
    "restricted_block",
    "compressed_rows",
    "candidate_rows",
    "gram_trace",
    "restricted_gram",
    "state_from_gram",
    "build_full_crb",
    "smw_removal",
    "downdate_forms",
    "forms_traces",
    "downdate_traces",
    "downdate_trace",
    "image_domain_crb_trace",
    "oracle_lsq_estimate",
]

# A Gram G is singular when its smallest eigenvalue is <= tr G / COND_LIMIT,
# so a regular one has condition number below COND_LIMIT (double precision
# rule of thumb); a middle matrix, when its smallest eigenvalue is
# <= 1 / COND_LIMIT.
COND_LIMIT = 1e12

# Bytes of (groups x r x S) complex rows that building downdate forms may
# hold per slice.  Keeps peak memory flat however large the candidate set.
SLICE_BYTES = 2**20
_TINY = np.finfo(float).tiny
# Largest triangular block _lower_inverse hands whole to numpy's inv.
_DENSE_MAX = 48


@dataclass(frozen=True, eq=False)
class CrbState:
    """Inverse restricted Gram matrix of one row set: ``inv_gram`` is S x S
    Hermitian and ``trace`` its real trace."""

    inv_gram: np.ndarray
    trace: float


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


class SeparableRows:
    """One-row groups of one location each under a one-term coil map, held
    as the per-axis factors of :func:`_spectra`: group g's row is
    ``p1[j1[g]] * p2[j2[g]]``.  Indexing forms rows (n, 1, S) on demand."""

    def __init__(self, j1, j2, p1, p2):
        self.j1, self.j2, self.p1, self.p2 = j1, j2, p1, p2
        self.shape = (len(j1), 1, p1.shape[1])
        flat = j1 * len(p2) + j2  # the grid gather, None where it is a reshape
        self.flat = None if np.array_equal(flat, np.arange(len(p1) * len(p2))) else flat

    def __getitem__(self, idx) -> np.ndarray:
        return (self.p1[self.j1[idx]] * self.p2[self.j2[idx]])[..., None, :]

    def products(self, w: np.ndarray) -> np.ndarray:
        """``B_g w_i`` of every group g and vector w_i of w (n, S), as (n, g): the
        grid ``(p1 * w_i) p2^T`` of all locations, by one GEMM, at (j1, j2)."""
        grid = ((self.p1 * w[:, None]).reshape(-1, w.shape[1]) @ self.p2.T).reshape(len(w), -1)
        return grid if self.flat is None else grid[:, self.flat]


def candidate_rows(model: EncodingModel, support: SupportSet, spec: TransformSpec, t: int):
    """Rows of every candidate group: :class:`SeparableRows` for one-row 2D groups
    under a one-term map, else :func:`compressed_rows`."""
    cand = model.candidates
    if cand.C == 1 and cand.group_locs.shape[1] == 1:
        j1, j2, [(p1, p2)] = _spectra(model, support, spec, t, range(cand.L))
        if len(p1) == 1:
            return SeparableRows(j1, j2, p1[0], p2[0])
    return compressed_rows(model, support, spec, t, range(cand.L))


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def _singular(mats: np.ndarray, shift: float) -> np.ndarray:
    """Which Hermitian matrices (g, n, n) have smallest eigenvalue <= ``shift``.

    A 1 x 1 matrix is its own eigenvalue and is compared elementwise.
    Otherwise a batched Cholesky of ``mats - shift I`` clears a batch of
    regular matrices at once; only a batch where it fails gets the
    eigenvalue test.
    """
    if mats.shape[-1] == 1:
        return mats[:, 0, 0].real <= shift
    try:
        np.linalg.cholesky(mats - shift * np.eye(mats.shape[-1]))
        return np.zeros(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(mats)[:, 0] <= shift


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


def _inverse_factor(gram: np.ndarray):
    """``L^-1`` of the Cholesky factor L of a Hermitian Gram (S, S), so that
    ``G^-1 = L^-H L^-1``; None when the Gram is singular, with smallest
    eigenvalue <= ``tr G / COND_LIMIT`` by :func:`_singular`."""
    if _singular(gram[None], np.trace(gram).real / COND_LIMIT)[0]:
        return None
    return _lower_inverse(np.linalg.cholesky(gram))


def gram_trace(gram: np.ndarray) -> float:
    """Trace of the inverse of a Hermitian Gram (S, S), ``||L^-1||_F^2`` from
    :func:`_inverse_factor`; ``+inf`` where the Gram is singular."""
    inv = _inverse_factor(gram)
    return math.inf if inv is None else float((inv.real**2 + inv.imag**2).sum())


def restricted_gram(rows: np.ndarray) -> np.ndarray:
    """Restricted Gram sum_g B_g^H B_g of stacked rows (groups, C, S) or (M, S),
    exactly Hermitian: with ``B = X + iY``, ``X^T X + Y^T Y + i (X^T Y - Y^T X)``.
    Every block is in ``Z^T Z`` for the real (M, 2S) view Z of B, whose
    columns interleave X and Y: one SYRK, half a complex GEMM, and no copy.
    :class:`SeparableRows` of the whole grid give ``G1 * G2`` (elementwise), from
    the Grams of the two factors, exactly Hermitian too; others are formed."""
    if isinstance(rows, SeparableRows) and rows.flat is None:
        gram = restricted_gram(rows.p1)
        gram *= restricted_gram(rows.p2)
        return gram
    z = np.ascontiguousarray(rows[:], dtype=complex).reshape(-1, rows.shape[-1]).view(np.float64)
    p = z.T @ z  # numpy sends the product of a matrix with its transpose to SYRK
    gram = np.empty((rows.shape[-1],) * 2, dtype=complex)
    np.add(p[::2, ::2], p[1::2, 1::2], out=gram.real)
    np.subtract(p[::2, 1::2], p[1::2, ::2], out=gram.imag)
    return gram


def state_from_gram(gram: np.ndarray) -> CrbState:
    """CRB state of a restricted Gram matrix, ``L^-H L^-1`` from
    :func:`_inverse_factor`: the Gram of the rows of ``L^-1``, so exactly
    Hermitian by :func:`restricted_gram`.

    Raises :class:`InfeasibleDesignError` when the support cannot be
    identified: the Gram is singular.
    """
    low = _inverse_factor(gram)
    if low is None:
        raise InfeasibleDesignError("restricted Gram is singular or near-singular")
    inv = restricted_gram(low)
    return CrbState(inv_gram=inv, trace=float(np.trace(inv).real))


def build_full_crb(
    model: EncodingModel,
    support: SupportSet,
    spec: TransformSpec,
    t: int,
    groups=None,
) -> CrbState:
    """CRB state for the candidate rows of ``groups`` (default: all groups).

    Raises :class:`InfeasibleDesignError` when the support cannot be
    identified from the given rows: the Gram is singular.
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


def smw_removal(state: CrbState, rows: np.ndarray, c: int, forms=None):
    """Remove group ``c`` of ``rows`` (g, r, S): the new state and the relative
    drift of group c's kept ``forms`` from their exact values (0.0 without).

    With ``B = rows[c]``, ``U = A^-1 B^H`` and ``K = (I - B U)^-1`` the inverse
    becomes ``A^-1 + U K U^H`` (matrix inversion lemma).  Kept forms (M1, M2)
    are updated in place: with ``X = B_g U``, ``Y = B_g A^-1 U``, ``V = X K``
    and ``W = Y + V U^H U / 2``, ``M1 += V X^H`` and ``M2 += W V^H + (W V^H)^H``;
    group c's exact forms are ``X_c`` and ``U^H U``.  Raises
    :class:`InfeasibleDesignError`, updating nothing, when ``I - B U`` is singular.
    For one row the inverse gains ``q q^H``, ``q = sqrt(K) U``, with no symmetrization.
    """
    a, (g, r, s), drift = state.inv_gram, rows.shape, 0.0
    if r == 1:  # U is a vector and K a scalar: no LAPACK call
        b, w = rows[c][0], np.empty((2, s), dtype=complex)
        u = np.matmul(a, b.conj(), out=w[0])
        mid = 1.0 - (b @ u).real
        if mid <= 1.0 / COND_LIMIT:  # the 1 x 1 case of _singular
            raise InfeasibleDesignError("removing the group makes the design singular")
        k = 1.0 / mid
        if forms is not None:  # elementwise on the real (g,) forms
            m1, m2 = forms
            np.matmul(a, u, out=w[1])
            x, y = rows.products(w) if isinstance(rows, SeparableRows) else w @ rows[:, 0].T
            uhu = float(np.vdot(u, u).real)
            drift = abs(m1[c] - x[c]) / max(abs(x[c]), _TINY)
            drift = max(drift, abs(m2[c] - uhu) / max(uhu, _TINY))
            v = k * x
            m1 += (v * x.conj()).real
            m2 += 2.0 * ((y + 0.5 * uhu * v) * v.conj()).real
        q = math.sqrt(k) * u  # k > 0, and q q^H is Hermitian up to rounding: no pass
        inv = q[:, None] * q.conj()
        inv += a
    else:
        u = a @ _h(rows[c])
        mid = np.eye(r) - rows[c] @ u
        mid = 0.5 * (mid + _h(mid))
        if _singular(mid[None], 1.0 / COND_LIMIT)[0]:
            raise InfeasibleDesignError("removing the group makes the design singular")
        k = np.linalg.inv(mid)
        k = 0.5 * (k + _h(k))
        inv = (u @ k) @ _h(u)
        if forms is not None:
            m1, m2 = forms
            xy = rows.reshape(-1, s) @ np.concatenate([u, a @ u], axis=1)
            uhu = _h(u) @ u
            v = xy[:, :r] @ k
            w = xy[:, r:] + 0.5 * (v @ uhu)
            x, v, w = (t.reshape(g, r, r) for t in (xy[:, :r], v, w))
            exact = ((m1[c], x[c]), (m2[c], uhu))
            drift = float(max(np.abs(p - q).max() / max(np.abs(q).max(), _TINY) for p, q in exact))
            m1 += v @ _h(x)
            wv = w @ _h(v)
            m2 += wv + _h(wv)
        inv += a  # updated in place: one S x S temporary besides it
        inv += _h(inv)
        inv *= 0.5
    return CrbState(inv_gram=inv, trace=float(inv.trace().real)), drift


def downdate_forms(inv_gram: np.ndarray, rows: np.ndarray):
    """Forms ``M1 = B A^-1 B^H`` and ``M2 = B A^-2 B^H`` (g, r, r) of each group
    B of ``rows`` (g, r, S), ``A^-1 = inv_gram``, built as many groups at a
    time as fit in :data:`SLICE_BYTES` bytes of (g, r, S), at least one; real
    (g,) for one row, whose 1 x 1 forms are real.
    """
    g, r, s = rows.shape
    m1 = np.empty((g, r, r), dtype=complex)
    m2 = np.empty_like(m1)
    step = max(1, SLICE_BYTES // (16 * r * s))
    for i in range(0, g, step):
        b = rows[i : i + step]
        gh = (b.reshape(-1, s) @ inv_gram).reshape(b.shape)
        m1[i : i + step] = b @ _h(gh)
        m2[i : i + step] = gh @ _h(gh)
    return (m1[:, 0, 0].real.copy(), m2[:, 0, 0].real.copy()) if r == 1 else (m1, m2)


def forms_traces(trace: float, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Trace after removing each group alone, ``trace + tr(mid^-1 M2)`` with
    ``mid = I - M1`` from its forms (g, r, r) or (g,), or ``+inf`` when the group is
    mandatory (``mid`` singular by :func:`_singular`): elementwise for one
    row, by batched r x r solves otherwise."""
    if m1.ndim == 1:  # one-row forms are real
        mid = 1.0 - m1
        singular = _singular(mid[:, None, None], 1.0 / COND_LIMIT)
        x = m2 / np.where(singular, 1.0, mid)
    else:
        mid = np.eye(m1.shape[-1]) - m1
        mid = 0.5 * (mid + _h(mid))
        singular = _singular(mid, 1.0 / COND_LIMIT)
        mid[singular] = np.eye(m1.shape[-1])  # keeps the solve regular; priced +inf below
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
    and its covariance attains the CRB.  Raises
    :class:`InfeasibleDesignError` where :func:`state_from_gram` of the rows'
    Gram would: the Gram is singular.
    """
    rows = np.asarray(rows)
    if rows.shape[1] != support.S:
        raise ValueError(
            f"rows have {rows.shape[1]} columns, support has size {support.S}"
        )
    if _inverse_factor(restricted_gram(rows)) is None:
        raise InfeasibleDesignError("restricted row matrix has a singular Gram")
    data = np.asarray(data)
    sol = np.linalg.lstsq(rows, data, rcond=None)[0]
    out = np.zeros((support.q, *data.shape[1:]), dtype=complex)
    out[support.indices] = sol
    return out
