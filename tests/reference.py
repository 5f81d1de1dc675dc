"""References that the tests compare production code against.

Each candidate row is built here entry by entry from its definition, and
restricted to a support by a forward transform of the conjugated row; the
package builds the same rows in closed form from 1D atom spectra instead.
:func:`direct_sbs` is the greedy backward selection rescored from scratch at
every deletion, with none of the SBS engine's downdates, forms or bounds, and
traces from eigenvalues (:func:`eigenvalue_traces`) rather than the
package's Cholesky factors.
:func:`reference_poisson_disc` throws darts by testing every position's
distance at each acceptance, with no grid or stencil.
:func:`tv_forward` and :func:`tv_adjoint` are the total-variation differences
and their adjoint with one zeroed array per axis; ``TvOperator`` writes them
into one buffer and runs axis 1 as one flat run.
"""

from __future__ import annotations

import math

import numpy as np

from oedipus import (
    GenerationFailureError,
    InfeasibleDesignError,
    forward_transform,
    pattern_from_groups,
)
from oedipus.crb import COND_LIMIT, restricted_matrix


def row_indices(cand, groups) -> np.ndarray:
    """Flat row indices ``loc * n_coils + coil`` of each group, (len(groups), C),
    location-major and coil-minor; the rows of all locations are
    ``range(cand.n_locations * cand.n_coils)``."""
    locs = cand.group_locs[np.asarray(groups, dtype=int)]
    return (locs[:, :, None] * cand.n_coils + np.arange(cand.n_coils)).reshape(len(locs), -1)


def kspace_locations(model, loc_indices) -> np.ndarray:
    """Physical coordinates in cycles/mm of the given locations, (n_loc, 2):
    the integer offset m times the candidate spacing ``1 / (ov * fov)``."""
    cand = model.candidates
    return cand.kidx[loc_indices] / (cand.oversampling * np.asarray(model.grid.fov))


def _physical_rows(model, loc_indices) -> tuple[np.ndarray, np.ndarray]:
    """Basis weights b_p (n_loc,) and phases ``exp(-i 2 pi k_p . r_n)`` (n_loc, N)
    of the given locations, from k_p in cycles/mm and the voxel centres
    ``r_n = (n1 * fov1 / N1, n2 * fov2 / N2)`` in mm; the package works in
    grid units, where the field of view cancels."""
    voxel = np.asarray(model.grid.fov) / np.asarray(model.grid.dims)  # mm
    k = kspace_locations(model, loc_indices)
    n1, n2 = model.grid.dims
    r = np.stack(np.divmod(np.arange(n1 * n2), n2), axis=1) * voxel  # row-major voxels
    if model.basis.kind == "rect":  # k-space footprint of a rectangular voxel
        b = np.prod(np.sinc(k * voxel), axis=1)
    else:
        b = np.ones(len(k))
    return b, np.exp(-2j * np.pi * (k @ r.T))


def candidate_row(model, p: int, t: int) -> np.ndarray:
    """Single candidate measurement row, shape (N,).

    Entry n is ``c_p(r_n) * b_p * exp(-i 2 pi k_p . r_n)`` where the coil
    profile is taken from map set ``t`` for coil ``p % n_coils``.  With a
    unit coil map and dirac basis this is a pure DFT row.
    """
    cand = model.candidates
    n_rows = cand.n_locations * cand.n_coils
    if not 0 <= p < n_rows:
        raise ValueError(f"row index {p} out of range [0, {n_rows})")
    if not 0 <= t < model.T:
        raise ValueError(f"map-set index {t} out of range [0, {model.T})")
    loc, coil = divmod(p, cand.n_coils)
    b, phases = _physical_rows(model, np.array([loc]))
    return model.coil_maps[t][coil] * b[0] * phases[0]


def group_rows(model, group_index: int, t: int) -> np.ndarray:
    """All rows of one group stacked in ascending row order, shape (C, N)."""
    cand = model.candidates
    if not 0 <= group_index < cand.L:
        raise ValueError(f"group index {group_index} out of range [0, {cand.L})")
    if not 0 <= t < model.T:
        raise ValueError(f"map-set index {t} out of range [0, {model.T})")
    b, phases = _physical_rows(model, cand.group_locs[group_index])  # (n_loc,), (n_loc, N)
    maps = model.coil_maps[t]  # (n_coils, N)
    # rows ordered location-major, coil-minor to match row index p ordering
    block = (b[:, None, None] * phases[:, None, :]) * maps[None, :, :]
    return block.reshape(-1, model.N)


def restricted_row(row: np.ndarray, support, spec, dims) -> np.ndarray:
    """(row . PsiH) gathered on the support, shape (S,).

    Computed as the conjugated forward transform of the conjugated row,
    which matches a dense transform-matrix multiplication to machine
    precision.
    """
    return restricted_rows(np.asarray(row)[None, :], support, spec, dims)[0]


def restricted_rows(rows, support, spec, dims):
    """Batched :func:`restricted_row`; rows (C, N) -> (C, S)."""
    rows = np.asarray(rows)
    n = dims[0] * dims[1]
    if rows.shape[-1] != n:
        raise ValueError(f"row length {rows.shape[-1]} != grid size {n}")
    if support.q != n:
        raise ValueError("support length does not match grid size")
    coeffs = forward_transform(
        np.conj(rows).reshape(rows.shape[0], dims[0], dims[1]), spec
    ).reshape(rows.shape[0], n)
    return np.conj(coeffs[:, support.indices])


def eigenvalue_traces(grams) -> np.ndarray:
    """Traces of the inverses of Hermitian Grams (..., S, S), ``sum 1/w`` of
    their eigenvalues w; ``+inf`` where the condition number w_max / w_min
    exceeds ``COND_LIMIT`` or w_min is not positive."""
    w = np.linalg.eigvalsh(0.5 * (grams + np.swapaxes(grams.conj(), -1, -2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = (w[..., 0] > 0) & (w[..., -1] <= COND_LIMIT * w[..., 0])
        return np.where(regular, (1.0 / w).sum(axis=-1), np.inf)


def direct_sbs(model, supports, objective, target_groups, spec):
    """Greedy backward selection by re-inverting every reduced Gram.

    Each (exemplar, map set) pair keeps the per-group Grams of its raw
    :func:`~oedipus.crb.restricted_matrix` rows.  Each deletion prices every
    kept group by the :func:`eigenvalue_traces` of the pair's Gram without
    it, not the package's Cholesky kernel, combines the pairs by
    ``objective`` and deletes the first group whose cost is within 1e-9
    (relative) of the minimum; the log holds that cost.
    """
    cand = model.candidates
    grams = []
    for support in supports:
        for t in range(model.T):
            rows = restricted_matrix(model, support, spec, t, range(cand.L))
            grams.append(np.swapaxes(rows.conj(), 1, 2) @ rows)  # (L, S, S)
    kept, log, deleted = list(range(cand.L)), [], []
    while len(kept) > target_groups:
        costs = objective.combine(
            [eigenvalue_traces(g[kept].sum(axis=0) - g[kept]) for g in grams]
        )
        best = costs.min()
        if math.isinf(best):
            raise InfeasibleDesignError("every remaining group is mandatory")
        i = int(np.argmax(costs <= best * (1.0 + 1e-9)))
        log.append(costs[i])
        deleted.append(kept.pop(i))
    return pattern_from_groups(
        cand, kept, mode=f"direct/{objective.mode}", log=log, deleted=deleted
    )


def reference_poisson_disc(candidates, target_groups, center_block, seed):
    """Poisson-disc pattern by the acceptance rule of
    :func:`~oedipus.poisson_disc_pattern`, pricing every free position's
    distance to each accepted group: O(L) per acceptance."""
    axes = list(candidates.undersample_axes)
    coords = candidates.kidx[candidates.group_locs[:, 0]][:, axes]
    b = center_block
    center = np.flatnonzero(((coords >= -(b // 2)) & (coords < (b + 1) // 2)).all(axis=1))
    outside = np.setdiff1d(np.arange(candidates.L), center)
    order = outside[np.random.default_rng(seed).permutation(outside.size)]
    pts = coords[order]
    tol = max(1, int(round(0.01 * target_groups)))
    budget = target_groups - center.size

    def throw(radius):
        free = np.ones(order.size, dtype=bool)
        accepted = []
        for _ in range(budget):
            i = int(np.argmax(free))
            if not free[i]:
                break
            accepted.append(i)
            free &= np.sum((pts - pts[i]) ** 2, axis=1) >= radius * radius
            free[i] = False
        return order[accepted]

    lo, hi = 0.0, float(np.hypot(*candidates.grid_dims)) + 1.0
    for _ in range(50):
        radius = 0.5 * (lo + hi)
        accepted = throw(radius)
        count = center.size + accepted.size
        if abs(count - target_groups) <= tol:
            kept = np.concatenate([center, accepted])
            return pattern_from_groups(
                candidates, kept, "poisson-reference", extra={"radius": radius}
            )
        if count > target_groups:
            lo = radius
        else:
            hi = radius
    raise GenerationFailureError("no radius hits the target")


def tv_forward(x, dims) -> np.ndarray:
    """Axis-0 then axis-1 forward differences of a flat image, replicate boundary."""
    img = np.asarray(x).reshape(dims)
    d1 = np.zeros_like(img)
    d2 = np.zeros_like(img)
    d1[:-1, :] = img[1:, :] - img[:-1, :]
    d2[:, :-1] = img[:, 1:] - img[:, :-1]
    return np.concatenate([d1.ravel(), d2.ravel()])


def tv_adjoint(y, dims) -> np.ndarray:
    """Adjoint of :func:`tv_forward`: the negative divergence of a (2N,) stack."""
    n = dims[0] * dims[1]
    y1 = np.asarray(y)[:n].reshape(dims)
    y2 = np.asarray(y)[n:].reshape(dims)
    out = np.zeros(dims, dtype=complex)
    out[1:, :] += y1[:-1, :]
    out[:-1, :] -= y1[:-1, :]
    out[:, 1:] += y2[:, :-1]
    out[:, :-1] -= y2[:, :-1]
    return out.ravel()
