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
    if spec.ry * spec.rz != int(round(spec.R)) or spec.R != int(spec.R) or spec.ry < 1:
        raise ValueError(
            f"R={spec.R} does not factor as ry*rz = {spec.ry}*{spec.rz}"
        )
    i1, i2 = (_offsets(candidates) + np.array(candidates.grid_dims) // 2).T
    keep = (i1 % spec.ry == 0) & ((i2 - i1 // spec.ry * spec.caipi_shift) % spec.rz == 0)
    return pattern_from_groups(
        candidates, np.flatnonzero(keep), mode=f"caipi/R{spec.R:g}/shift{spec.caipi_shift}"
    )


def _offsets(candidates: CandidateSet) -> np.ndarray:
    """Signed offset of every group from the k-space centre on the
    undersampled axes, shape (L, len(undersample_axes))."""
    return candidates.kidx[candidates.group_locs[:, 0]][:, list(candidates.undersample_axes)]


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
    coords = _offsets(candidates)
    b = spec.center_block
    center = np.flatnonzero(((coords >= -(b // 2)) & (coords < (b + 1) // 2)).all(axis=1))
    if target_groups < center.size:
        raise ValueError(
            f"target {target_groups} below centre-block group count {center.size}"
        )
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

