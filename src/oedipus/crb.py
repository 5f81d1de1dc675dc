"""Support-restricted CRB matrices, group downdates and oracle estimation.

For a candidate row set restricted to a known transform-domain support, the
covariance of any unbiased estimator is bounded below by the inverse of the
restricted Gram matrix.  The restricted rows are ``A Psi_S^H``: the
encoding operator that synthesizes and reconstructs the data, applied to the
voxel images of the S support atoms.  The layer passes plain arrays: a group
is its (C, S) restricted rows, and which groups a state holds is the caller's
bookkeeping.  A group enters only through its Gram, so :func:`compress_rows`
may first shrink each block to r <= C rows B of the same Gram.

Groups are removed via the matrix inversion lemma, a rank-r "downdate"
that inverts an r x r system.  Removing B from the rows of Gram A leaves
the trace ``tr(A^-1) + tr(mid^-1 M2)``, ``mid = I - M1``, from the group's
downdate forms ``M1 = B A^-1 B^H`` and ``M2 = B A^-2 B^H``: built by
:func:`downdate_forms` at O(r S^2) per group and priced by
:func:`forms_traces`, elementwise for one-row groups and by batched r x r
solves otherwise.  :func:`smw_removal` commits a removal and returns the
pieces that update kept forms at O(r^2 S + r^3) per group.  The module also
provides the support-aware least-squares estimator that attains the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import EncodingModel, EncodingOperator
from .errors import InfeasibleDesignError
from .sparsity import SupportSet, TransformSpec, support_atoms

__all__ = [
    "COND_LIMIT",
    "CrbState",
    "SLICE_ENTRIES",
    "restricted_matrix",
    "restricted_block",
    "compress_rows",
    "gram_inverse",
    "gram_trace",
    "restricted_gram",
    "state_from_gram",
    "build_full_crb",
    "smw_removal",
    "smw_downdate",
    "downdate_forms",
    "forms_traces",
    "downdate_traces",
    "downdate_trace",
    "image_domain_crb_trace",
    "oracle_lsq_estimate",
]

# Condition number beyond which a Gram matrix is treated as singular
# (double precision rule of thumb).
COND_LIMIT = 1e12

# Complex entries a temporary built per slice may hold: support atoms times
# coils during assembly, or (groups x C x S) while pricing deletions.  Keeps
# peak memory flat however large the support or the candidate set.
SLICE_ENTRIES = 2**13


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


def restricted_matrix(
    model: EncodingModel,
    support: SupportSet,
    spec: TransformSpec,
    t: int,
    groups,
) -> np.ndarray:
    """Support-restricted rows of ``groups`` under map set ``t``, (len(groups), C, S).

    This is ``A Psi_S^H``: the :class:`~oedipus.encoding.EncodingOperator`
    of ``groups`` applied to the voxel image of each support atom, so entry
    (p, s) is ``w_p sum_n c_p(r_n) psi_s(r_n) exp(-i 2 pi k_p . r_n)``.
    Atoms are synthesized a slice of support columns at a time: as many as
    fit in :data:`SLICE_ENTRIES` voxel entries times coils, and at least one.
    """
    op = EncodingOperator(model, groups, t)
    out = np.empty((op.n_rows, support.S), dtype=complex)
    step = max(1, SLICE_ENTRIES // (model.n_coils * model.N))
    for i in range(0, support.S, step):
        atoms = support_atoms(support, spec, model.grid.dims, slice(i, i + step))
        out[:, i : i + step] = op.forward(atoms.reshape(len(atoms), -1)).T
    return out.reshape(-1, model.candidates.C, support.S)


def restricted_block(
    model: EncodingModel, support: SupportSet, spec: TransformSpec, group_index: int, t: int
) -> np.ndarray:
    """Restricted rows of one group, (C, S): ``restricted_matrix`` of ``[group_index]``."""
    return restricted_matrix(model, support, spec, t, [group_index])[0]


def compress_rows(rows: np.ndarray) -> np.ndarray:
    """Rows (g, r, S) with the Grams ``B_g^H B_g`` of ``rows`` (g, C, S), r <= C.

    Row i of group g is ``sigma_i v_i^H`` from the group's thin SVD, so the
    Grams, the traces and singularity of every downdate, and every committed
    state are those of the raw rows up to rounding.  r is the largest
    numerical rank over the groups under numpy's ``matrix_rank`` rule
    (``sigma > sigma_max max(C, S) eps``), at least 1; groups of lower rank
    keep their tiny tail rows.  A one-row block, or one whose rank is C, is
    returned as it is.
    """
    c, s = rows.shape[1:]
    if c == 1:
        return rows
    _, sv, vh = np.linalg.svd(rows, full_matrices=False)
    tol = sv[:, :1] * max(c, s) * np.finfo(float).eps
    r = int((sv > tol).sum(axis=1).max(initial=1))
    return rows if r == c else sv[:, :r, None] * vh[:, :r]


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def _regular(w: np.ndarray, trace: np.ndarray):
    """``trace``, or ``+inf`` where a Gram with ascending eigenvalues w (..., S)
    is singular: its smallest eigenvalue is not positive or its condition
    number exceeds :data:`COND_LIMIT`; and the condition numbers."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(w[..., 0] > 0, w[..., -1] / w[..., 0], np.inf)
    return np.where(cond > COND_LIMIT, np.inf, trace), cond


def gram_inverse(gram: np.ndarray):
    """Inverse, trace and condition number of Hermitian Grams (..., S, S); a
    singular Gram (by :func:`_regular`) has trace ``+inf``, its inverse meaningless."""
    w, v = np.linalg.eigh(0.5 * (gram + _h(gram)))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = (v / w[..., None, :]) @ _h(v)
    inv = 0.5 * (inv + _h(inv))
    trace, cond = _regular(w, np.trace(inv, axis1=-2, axis2=-1).real)
    return inv, trace, cond


def gram_trace(gram: np.ndarray) -> np.ndarray:
    """Trace of the inverse of Hermitian Grams (..., S, S) from their
    eigenvalues w alone, ``sum 1/w``; ``+inf`` where singular by :func:`_regular`."""
    w = np.linalg.eigvalsh(0.5 * (gram + _h(gram)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _regular(w, (1.0 / w).sum(axis=-1))[0]


def restricted_gram(rows: np.ndarray) -> np.ndarray:
    """Restricted Gram sum_g B_g^H B_g of stacked rows (groups, C, S), one GEMM."""
    b = rows.reshape(-1, rows.shape[-1])
    return b.conj().T @ b


def state_from_gram(gram: np.ndarray) -> CrbState:
    """CRB state of a restricted Gram matrix.

    Raises :class:`InfeasibleDesignError` when the support cannot be
    identified (rank deficiency or condition above :data:`COND_LIMIT`).
    """
    inv, trace, cond = gram_inverse(gram)
    trace, cond = float(trace), float(cond)
    if math.isinf(trace):
        raise InfeasibleDesignError(
            f"restricted Gram is singular or near-singular (cond ~ {cond:.3g})",
            cond=cond,
        )
    return CrbState(inv_gram=inv, trace=trace, cond=cond)


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
    gram = restricted_gram(restricted_matrix(model, support, spec, t, groups))
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


def smw_downdate(state: CrbState, rows: np.ndarray) -> CrbState:
    """CRB state after removing the rows (C, S) of one group: the state of
    :func:`smw_removal`."""
    return smw_removal(state, rows)[0]


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
    basis = support_atoms(support, spec, dims).reshape(support.S, -1)
    # Trace[V^T C conj(V)] with V[j] the synthesized coefficient image.
    w = state.inv_gram @ np.conj(basis)
    return float(np.einsum("sn,sn->", basis, w).real)


def oracle_lsq_estimate(
    data: np.ndarray, rows: np.ndarray, support: SupportSet
) -> np.ndarray:
    """Least-squares coefficient estimate with known support, zero-filled.

    ``rows`` is the (M, S) stacked restricted row matrix actually used for
    acquisition.  The estimator is unbiased for data generated with the
    truth on the support, and its covariance attains the CRB.
    """
    rows = np.asarray(rows)
    if rows.shape[1] != support.S:
        raise ValueError(
            f"rows have {rows.shape[1]} columns, support has size {support.S}"
        )
    sol, _, rank, _ = np.linalg.lstsq(rows, np.asarray(data), rcond=None)
    if rank < support.S:
        raise InfeasibleDesignError(
            f"restricted row matrix is rank deficient ({rank} < {support.S})"
        )
    out = np.zeros(support.q, dtype=complex)
    out[support.indices] = sol
    return out
