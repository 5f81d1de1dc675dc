"""Classical sampling-pattern generators used as comparators.

Uniform lattice, sheared (CAIPI-style) lattice, and Poisson-disc random
sampling with a fully sampled centre block.  All generators operate on the
group structure of a candidate set so their output is directly comparable
to designed patterns.  Each takes the candidate set, the acceleration ``R``
(at least 1; it names the pattern) and its own parameters:

- :func:`uniform_pattern`: none;
- :func:`caipi_pattern`: the factors ``ry * rz == R`` over the two phase
  axes and the shear step ``shift``;
- :func:`poisson_disc_pattern`: the kept group count ``target_groups``,
  the fully sampled centre size ``center_block`` (lines for 1D grouping,
  square side for 2D) and the dart-throwing ``seed``.
"""

from __future__ import annotations

import numpy as np

from .design import SamplingPattern, pattern_from_groups
from .encoding import CandidateSet
from .errors import GenerationFailureError

__all__ = [
    "uniform_pattern",
    "caipi_pattern",
    "poisson_disc_pattern",
]


def _check_acceleration(R: float) -> None:
    if R < 1:
        raise ValueError(f"acceleration must be >= 1, got {R}")


def uniform_pattern(candidates: CandidateSet, R: float) -> SamplingPattern:
    """Every R-th group starting at group 0 (nearest spacing for odd R)."""
    _check_acceleration(R)
    n_groups = candidates.L
    if R > n_groups:
        raise ValueError(f"R={R} exceeds group count {n_groups}")
    n_keep = int(round(n_groups / R))
    kept = np.floor(np.arange(n_keep) * n_groups / n_keep).astype(int)  # distinct: spacing >= 1
    return pattern_from_groups(candidates, kept, mode=f"uniform/R{R:g}")


def caipi_pattern(
    candidates: CandidateSet, R: float, ry: int, rz: int, shift: int = 1
) -> SamplingPattern:
    """Sheared lattice over a 2D-undersampled candidate grid.

    ``R`` must be an integer equal to ``ry * rz``.  Rows with first phase
    index divisible by ``ry`` are retained; the j-th retained row keeps
    second-axis indices congruent to ``j * shift`` modulo ``rz``.
    ``shift = 0`` degenerates to the axis-aligned lattice.
    """
    _check_acceleration(R)
    if candidates.undersample_axes != (0, 1):
        raise ValueError("sheared lattice requires a 2D-undersampled candidate set")
    if ry * rz != int(round(R)) or R != int(R) or ry < 1:
        raise ValueError(f"R={R} does not factor as ry*rz = {ry}*{rz}")
    i1, i2 = (_offsets(candidates) + np.array(candidates.grid_dims) // 2).T
    keep = (i1 % ry == 0) & ((i2 - i1 // ry * shift) % rz == 0)
    return pattern_from_groups(
        candidates, np.flatnonzero(keep), mode=f"caipi/R{R:g}/shift{shift}"
    )


def _offsets(candidates: CandidateSet) -> np.ndarray:
    """Signed offset of every group from the k-space centre on the
    undersampled axes, shape (L, len(undersample_axes))."""
    return candidates.kidx[candidates.group_locs[:, 0]][:, list(candidates.undersample_axes)]


def poisson_disc_pattern(
    candidates: CandidateSet,
    R: float,
    target_groups: int,
    center_block: int = 16,
    seed: int = 0,
) -> SamplingPattern:
    """Fully sampled centre plus dart-throwing with a bisected radius.

    The ``center_block`` centre groups are always kept; ``target_groups``
    must lie between their count and the group count.  The other groups
    are visited in a random order drawn from ``seed`` and accepted when at
    least the current radius away (in grid-index units) from every
    previously accepted group, stopping once the remaining sample budget is
    spent.  A throw scans forward from the last accepted position for the
    next free one (cleared positions never free again) and, on accepting,
    clears only the positions on a disc stencil around it, looked up in a
    padded grid of visiting positions: O(L + accepted x stencil) per
    throw.  The radius is bisected until the total kept count lands within
    ``max(1, 0.01 * target)`` of the target, which converges to the largest
    radius whose packing still reaches the budget.  Deterministic given the
    seed; ``extra`` records the seed and the final radius.
    """
    _check_acceleration(R)
    n_groups = candidates.L
    if target_groups > n_groups:
        raise ValueError(f"target {target_groups} exceeds group count {n_groups}")
    coords = _offsets(candidates)
    b = center_block
    center = np.flatnonzero(((coords >= -(b // 2)) & (coords < (b + 1) // 2)).all(axis=1))
    if target_groups < center.size:
        raise ValueError(
            f"target {target_groups} below centre-block group count {center.size}"
        )
    outside = np.delete(np.arange(n_groups), center)
    rng = np.random.default_rng(seed)
    order = outside[rng.permutation(outside.size)]
    tol = max(1, int(round(0.01 * target_groups)))
    budget = target_groups - center.size

    # visiting position of each offset (order.size: none), padded so a disc fits
    ext = np.ptp(coords, axis=0) + 1
    strides = np.cumprod([1, *(3 * ext[:0:-1] - 2)])[::-1]
    spot = (coords[order] - coords.min(axis=0) + ext - 1) @ strides
    where = np.full(np.prod(3 * ext - 2), order.size)
    where[spot] = np.arange(order.size)

    def throw(radius: float) -> np.ndarray:
        reach = np.minimum(ext - 1, int(radius))
        disc = np.indices(2 * reach + 1).reshape(len(ext), -1).T - reach
        disc = disc[np.sum(disc**2, axis=1) < radius * radius] @ strides
        free = bytearray([1]) * (order.size + 1)
        view = np.frombuffer(free, dtype=np.uint8)
        accepted, i = [], -1
        while len(accepted) < budget and (i := free.find(1, i + 1, order.size)) >= 0:
            accepted.append(i)
            view[where[spot[i] + disc]] = 0
        return order[accepted]

    lo, hi = 0.0, float(np.hypot(*candidates.grid_dims)) + 1.0
    for _ in range(50):
        radius = 0.5 * (lo + hi)
        accepted = throw(radius)
        count = center.size + accepted.size
        if abs(count - target_groups) <= tol:
            return pattern_from_groups(
                candidates,
                np.concatenate([center, accepted]),
                mode=f"poisson/R{R:g}/seed{seed}",
                extra={"seed": seed, "radius": radius},
            )
        if count > target_groups:
            lo = radius
        else:
            hi = radius
    raise GenerationFailureError(
        f"could not hit target {target_groups} +/- {tol} in 50 bisections"
    )
