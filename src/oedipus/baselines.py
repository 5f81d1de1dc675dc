"""Classical sampling-pattern generators used as comparators.

Uniform lattice, sheared (CAIPI-style) lattice, and Poisson-disc random
sampling with a fully sampled centre block.  All generators operate on the
group structure of a candidate set so their output is directly comparable
to designed patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import SamplingPattern, pattern_from_groups
from .encoding import CandidateSet
from .errors import GenerationFailureError

__all__ = [
    "BaselineSpec",
    "uniform_pattern",
    "caipi_pattern",
    "poisson_disc_pattern",
]


@dataclass(frozen=True)
class BaselineSpec:
    """Parameters of one baseline pattern.

    ``center_block`` is the fully sampled centre size (lines for 1D
    grouping, square side for 2D).  ``ry``/``rz`` factor the acceleration
    over the two phase axes for the sheared lattice; ``caipi_shift`` is its
    shear step.  ``seed`` drives the Poisson-disc generator only.
    """

    kind: str
    R: float
    center_block: int = 16
    caipi_shift: int = 1
    ry: int = 1
    rz: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "caipi", "poisson"):
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.R < 1:
            raise ValueError(f"acceleration must be >= 1, got {self.R}")


def uniform_pattern(spec: BaselineSpec, candidates: CandidateSet) -> SamplingPattern:
    """Every R-th group starting at group 0 (nearest spacing for odd R)."""
    n_groups = candidates.L
    if spec.R > n_groups:
        raise ValueError(f"R={spec.R} exceeds group count {n_groups}")
    n_keep = int(round(n_groups / spec.R))
    kept = np.unique(np.floor(np.arange(n_keep) * n_groups / n_keep).astype(int))
    return pattern_from_groups(candidates, kept, mode=f"uniform/R{spec.R:g}")


def caipi_pattern(spec: BaselineSpec, candidates: CandidateSet) -> SamplingPattern:
    """Sheared lattice over a 2D-undersampled candidate grid.

    Rows with first phase index divisible by ``ry`` are retained; the j-th
    retained row keeps second-axis indices congruent to ``j * caipi_shift``
    modulo ``rz``.  ``caipi_shift = 0`` degenerates to the axis-aligned
    lattice.
    """
    if candidates.undersample_axes != (0, 1):
        raise ValueError("sheared lattice requires a 2D-undersampled candidate set")
    if spec.ry * spec.rz != int(round(spec.R)) or spec.R != int(spec.R):
        raise ValueError(
            f"R={spec.R} does not factor as ry*rz = {spec.ry}*{spec.rz}"
        )
    g1, g2 = candidates.grid_dims
    kept = []
    for i1 in range(0, g1, spec.ry):
        offset = (i1 // spec.ry) * spec.caipi_shift % spec.rz
        for i2 in range(offset, g2, spec.rz):
            kept.append(i1 * g2 + i2)
    return pattern_from_groups(
        candidates, kept, mode=f"caipi/R{spec.R:g}/shift{spec.caipi_shift}"
    )


def _group_coords(candidates: CandidateSet) -> np.ndarray:
    """Index-space coordinate of every group (1D scalar or 2D pair)."""
    g1, g2 = candidates.grid_dims
    if candidates.undersample_axes == (0, 1):
        ids = np.arange(candidates.L)
        return np.stack([ids // g2, ids % g2], axis=1).astype(float)
    # 1D grouping: one coordinate per line
    return np.arange(candidates.L, dtype=float)[:, None]


def _center_groups(candidates: CandidateSet, block: int) -> np.ndarray:
    """Group indices of the fully sampled centre region."""
    g1, g2 = candidates.grid_dims
    if candidates.undersample_axes == (0, 1):
        lo1, hi1 = g1 // 2 - block // 2, g1 // 2 + (block + 1) // 2
        lo2, hi2 = g2 // 2 - block // 2, g2 // 2 + (block + 1) // 2
        ids = np.arange(candidates.L)
        i1, i2 = ids // g2, ids % g2
        sel = (i1 >= lo1) & (i1 < hi1) & (i2 >= lo2) & (i2 < hi2)
        return ids[sel]
    n = candidates.L
    lo, hi = n // 2 - block // 2, n // 2 + (block + 1) // 2
    return np.arange(max(lo, 0), min(hi, n))


def poisson_disc_pattern(
    spec: BaselineSpec, candidates: CandidateSet, target_groups: int
) -> SamplingPattern:
    """Fully sampled centre plus dart-throwing with a bisected radius.

    The candidate groups outside the centre block are visited in a seeded
    random order and accepted when at least the current radius away (in
    grid-index units) from every previously accepted group, stopping once
    the remaining sample budget is spent.  The radius is bisected until the
    total kept count lands within ``max(1, 0.01 * target)`` of the target,
    which converges to the largest radius whose packing still reaches the
    budget.  Deterministic given the seed.
    """
    n_groups = candidates.L
    if target_groups > n_groups:
        raise ValueError(f"target {target_groups} exceeds group count {n_groups}")
    center = _center_groups(candidates, spec.center_block)
    if target_groups < center.size:
        raise ValueError(
            f"target {target_groups} below centre-block group count {center.size}"
        )
    coords = _group_coords(candidates)
    outside = np.setdiff1d(np.arange(n_groups), center)
    rng = np.random.default_rng(spec.seed)
    order = outside[rng.permutation(outside.size)]

    tol = max(1, int(round(0.01 * target_groups)))
    budget = target_groups - center.size

    def throw(radius: float):
        accepted: list[int] = []
        pts = np.empty((outside.size, coords.shape[1]))
        n_acc = 0
        r2 = radius * radius
        for g in order:
            if n_acc >= budget:
                break
            p = coords[g]
            if n_acc:
                d2 = np.sum((pts[:n_acc] - p) ** 2, axis=1)
                if d2.min() < r2:
                    continue
            pts[n_acc] = p
            n_acc += 1
            accepted.append(int(g))
        return accepted

    lo, hi = 0.0, float(np.hypot(*candidates.grid_dims)) + 1.0
    for _ in range(50):
        radius = 0.5 * (lo + hi)
        accepted = throw(radius)
        count = center.size + len(accepted)
        if abs(count - target_groups) <= tol:
            kept = np.concatenate([center, np.array(accepted, dtype=int)])
            return pattern_from_groups(
                candidates,
                kept,
                mode=f"poisson/R{spec.R:g}/seed{spec.seed}",
                extra={"seed": spec.seed, "radius": radius},
            )
        if count > target_groups:
            lo = radius
        else:
            hi = radius
    raise GenerationFailureError(
        f"could not hit target {target_groups} +/- {tol} in 50 bisections"
    )

