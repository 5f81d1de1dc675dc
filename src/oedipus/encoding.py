"""Candidate measurement construction for Cartesian k-space sampling design.

The design machinery works on a finite candidate set of measurement rows.
Each row is a Fourier-encoding vector evaluated on the image voxel grid,
optionally weighted by a receiver-coil sensitivity profile.  Rows that can
only be acquired together (one readout line, or one k-space location seen
simultaneously by every coil) are collected into groups; groups are the
atomic unit that the design algorithms keep or delete.

Conventions fixed here and used package-wide, all in grid units:

* voxel ``n = n1 * N2 + n2`` (row-major) has integer coordinates ``(n1, n2)``;
* a k-space location is its signed integer offset ``m`` from the centre of
  a grid of ``ceil(ov * N)`` offsets per axis, and its row has phase
  ``-2 pi (m1 n1 / (ov N1) + m2 n2 / (ov N2))`` at voxel n.  The field of
  view cancels from ``k . r`` (``m / (ov fov)`` cycles/mm at ``n fov / N``
  mm), so no row, Gram or CRB depends on it;
* the rows of a group are ordered location-major, coil-minor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ImageGrid",
    "VoxelBasis",
    "CandidateSet",
    "EncodingModel",
    "EncodingOperator",
    "build_cartesian_candidates",
    "synthesize_coil_maps",
    "normalized_coords",
]


@dataclass(frozen=True)
class ImageGrid:
    """Rectilinear voxel grid.

    Parameters
    ----------
    dims : (int, int)
        Voxel counts ``(N1, N2)`` along the two image axes.
    fov : (float, float)
        Field of view in millimetres along the two axes.  It is validated
        but changes no output: k-space is in grid units.
    """

    dims: tuple[int, int]
    fov: tuple[float, float] = (200.0, 200.0)

    def __post_init__(self):
        n1, n2 = self.dims
        if n1 <= 0 or n2 <= 0:
            raise ValueError(f"zero-sized grid: dims={self.dims}")
        if self.fov[0] <= 0 or self.fov[1] <= 0:
            raise ValueError(f"field of view must be positive: fov={self.fov}")

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1]


@dataclass(frozen=True)
class VoxelBasis:
    """Voxel basis function selector.

    ``dirac`` gives unit weights; ``rect`` weights each candidate row by the
    separable sinc of its offset over the candidate period along both axes
    (the k-space footprint of a rectangular voxel).
    """

    kind: str = "dirac"

    def __post_init__(self):
        if self.kind not in ("dirac", "rect"):
            raise ValueError(f"unknown voxel basis {self.kind!r}")

    def axis_weights(self, m: np.ndarray, period: float) -> np.ndarray:
        """Weight factor of integer offsets ``m`` along one axis whose
        candidate grid has ``period = oversampling * N`` offsets."""
        if self.kind == "dirac":
            return np.ones(len(m))
        return np.sinc(m / period)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """All candidate k-space measurements plus their acquisition grouping.

    ``kidx[j]`` is the signed integer offset of the j-th location from the
    k-space centre.  ``group_locs`` is an (L, n_loc) int array: row ``l``
    holds the ascending location indices of group ``l``, each seen by all
    ``n_coils`` coils, so a group has ``C = n_loc * n_coils`` rows.
    """

    kidx: np.ndarray
    grid_dims: tuple[int, int]
    oversampling: float
    n_coils: int
    undersample_axes: tuple[int, ...]
    group_locs: np.ndarray

    @property
    def n_locations(self) -> int:
        return self.kidx.shape[0]

    @property
    def L(self) -> int:
        return self.group_locs.shape[0]

    @property
    def C(self) -> int:
        return self.group_locs.shape[1] * self.n_coils


def build_cartesian_candidates(
    grid: ImageGrid,
    oversampling: float = 1.0,
    undersample_axes: tuple[int, ...] = (0, 1),
    n_coils: int = 1,
) -> CandidateSet:
    """Enumerate a centred Cartesian candidate grid and group its rows.

    The candidate grid has ``ceil(oversampling * N)`` integer offsets per
    axis, centred on zero; a singleton axis stays singleton
    (its voxel coordinate is zero, so extra offsets would duplicate rows
    exactly).  With 2D undersampling every location forms its own group
    (times coils, ``C = n_coils``); with 1D undersampling along one axis
    each group is a full readout line along the other axis
    (``C = n_readout * n_coils``).
    """
    axes = tuple(sorted(set(undersample_axes)))
    if not axes:
        raise ValueError("undersample_axes must be nonempty")
    if any(a not in (0, 1) for a in axes):
        raise ValueError(f"undersample_axes must be within (0, 1), got {axes}")
    if oversampling < 1.0:
        raise ValueError(f"oversampling must be >= 1, got {oversampling}")
    if n_coils < 1:
        raise ValueError(f"n_coils must be >= 1, got {n_coils}")

    g1 = math.ceil(oversampling * grid.dims[0]) if grid.dims[0] > 1 else 1
    g2 = math.ceil(oversampling * grid.dims[1]) if grid.dims[1] > 1 else 1
    m1 = np.arange(g1) - g1 // 2
    m2 = np.arange(g2) - g2 // 2
    mm1, mm2 = np.meshgrid(m1, m2, indexing="ij")
    kidx = np.stack([mm1.ravel(), mm2.ravel()], axis=1)

    loc_ids = np.arange(g1 * g2).reshape(g1, g2)
    # one group per location (2D), per grid row (undersampled axis 0) or per
    # grid column (undersampled axis 1)
    by_axes = {(0, 1): loc_ids.reshape(-1, 1), (0,): loc_ids, (1,): loc_ids.T}
    group_locs = np.ascontiguousarray(by_axes[axes])

    return CandidateSet(
        kidx=kidx,
        grid_dims=(g1, g2),
        oversampling=float(oversampling),
        n_coils=n_coils,
        undersample_axes=axes,
        group_locs=group_locs,
    )


@dataclass(frozen=True, eq=False)
class EncodingModel:
    """Voxel grid, voxel basis, coil maps and candidate set in one bundle.

    ``coil_maps`` holds one map set per representative acquisition model
    (length T); each entry is an (n_coils, N) complex array of sensitivity
    values at the voxel centres.  Single-channel imaging uses one all-ones
    map.  Noise is assumed white with unit variance (pre-whitened data).
    """

    grid: ImageGrid
    candidates: CandidateSet
    coil_maps: tuple[np.ndarray, ...]
    basis: VoxelBasis = field(default_factory=VoxelBasis)

    def __post_init__(self):
        if len(self.coil_maps) < 1:
            raise ValueError("at least one coil map set is required")
        n = self.grid.n_voxels
        for maps in self.coil_maps:
            if maps.shape != (self.candidates.n_coils, n):
                raise ValueError(
                    f"coil map shape {maps.shape} does not match "
                    f"({self.candidates.n_coils}, {n})"
                )

    @property
    def T(self) -> int:
        return len(self.coil_maps)

    @property
    def n_coils(self) -> int:
        return self.candidates.n_coils

    @property
    def N(self) -> int:
        return self.grid.n_voxels


def normalized_coords(dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis coordinates centred on the grid, in units of the FOV.

    ``u = (index - (N - 1) / 2) / N`` spans roughly [-0.5, 0.5] and is
    symmetric under 180-degree rotation of the grid.
    """
    n1, n2 = dims
    u1 = (np.arange(n1) - (n1 - 1) / 2.0) / n1
    u2 = (np.arange(n2) - (n2 - 1) / 2.0) / n2
    return u1, u2


def synthesize_coil_maps(
    grid: ImageGrid, n_coils: int, decay: float = 5.0, seed: int = 0
) -> np.ndarray:
    """Smooth synthetic receiver sensitivities, shape (n_coils, N).

    Gaussian magnitude lobes sit at equispaced angles on a ring near the
    FOV boundary (ring orientation, phase ramps and offsets drawn from
    ``seed``), so different seeds emulate subject-to-subject variation.
    ``n_coils == 1`` returns the all-ones map used for single-channel
    imaging.  The sum-of-squares magnitude stays bounded away from zero
    over the grid for moderate ``decay``.
    """
    if n_coils < 1:
        raise ValueError(f"n_coils must be >= 1, got {n_coils}")
    if decay <= 0:
        raise ValueError(f"decay must be positive, got {decay}")
    n = grid.n_voxels
    if n_coils == 1:
        return np.ones((1, n), dtype=complex)

    rng = np.random.default_rng(seed)
    u1, u2 = normalized_coords(grid.dims)
    uu1, uu2 = np.meshgrid(u1, u2, indexing="ij")
    uu1 = uu1.ravel()
    uu2 = uu2.ravel()

    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    radius = 0.55
    maps = np.empty((n_coils, n), dtype=complex)
    for c in range(n_coils):
        theta = theta0 + 2.0 * np.pi * c / n_coils
        c1 = radius * np.cos(theta)
        c2 = radius * np.sin(theta)
        d2 = (uu1 - c1) ** 2 + (uu2 - c2) ** 2
        mag = np.exp(-decay * d2)
        a1, a2 = rng.uniform(-np.pi, np.pi, size=2)
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        phase = a1 * uu1 + a2 * uu2 + phi0
        maps[c] = mag * np.exp(1j * phase)
    return maps


def _axis_phases(model: EncodingModel, locs: np.ndarray):
    """Per-axis factors F1 (d1, N1), F2 (N2, d2) of the row phases
    ``exp(-i 2 pi (m1 n1 / (ov N1) + m2 n2 / (ov N2)))`` over the distinct
    offsets m of ``locs``, with the index (j1, j2) of each location:
    ``(F1 @ x @ F2)[j1, j2]`` is the spectrum of image x at each location,
    for any oversampling (np.unique would import numpy.ma)."""
    (n1, n2), (g1, g2) = model.grid.dims, model.candidates.grid_dims
    ov, m = model.candidates.oversampling, model.candidates.kidx[locs]
    u1 = np.flatnonzero(np.bincount(m[:, 0] + g1 // 2, minlength=g1)) - g1 // 2
    u2 = np.flatnonzero(np.bincount(m[:, 1] + g2 // 2, minlength=g2)) - g2 // 2
    j1, j2 = np.searchsorted(u1, m[:, 0]), np.searchsorted(u2, m[:, 1])
    f1 = np.exp(-2j * np.pi * (u1[:, None] * (np.arange(n1)[None, :] / (ov * n1))))
    f2 = np.exp(-2j * np.pi * ((np.arange(n2)[:, None] / (ov * n2)) * u2[None, :]))
    return f1, f2, j1, j2


def _group_locations(model: EncodingModel, groups, t: int) -> np.ndarray:
    """Locations of ``groups`` in order; ValueError on a bad group or map-set index."""
    cand = model.candidates
    groups = np.asarray(groups, dtype=int).reshape(-1)
    if groups.size and not (0 <= groups.min() and groups.max() < cand.L):
        raise ValueError(f"group index outside [0, {cand.L})")
    if not 0 <= t < model.T:
        raise ValueError(f"map-set index {t} out of range [0, {model.T})")
    return cand.group_locs[groups].ravel()


class EncodingOperator:
    """Applies the measurement matrix of the given groups and its adjoint.

    Rows follow the groups in the order given (callers pass the ascending
    ``kept_groups`` of a pattern), within a group by ascending row index;
    an empty group list gives an operator with no rows.  ``forward`` maps
    one flat image (N,) to data (M,) and ``adjoint`` data back to a flat
    image.  Both directions go through the spectra of the coil-weighted
    images on a grid: the group locations are gathered from it (or
    scattered into it) and weighted by the voxel basis.  When the
    candidate grid is the voxel grid (oversampling 1) the spectra are FFTs;
    otherwise they are taken with the separable DFT factors of the row
    phases, exact for any oversampling.  ``normal`` (A^H A) weights them twice.
    """

    def __init__(self, model: EncodingModel, groups, t: int = 0):
        cand = model.candidates
        self.model = model
        self._locs = _group_locations(model, groups, t)
        m, dims, ov = cand.kidx[self._locs], tuple(model.grid.dims), cand.oversampling
        w1 = model.basis.axis_weights(m[:, 0], ov * dims[0])
        self._b = w1 * model.basis.axis_weights(m[:, 1], ov * dims[1])
        self._maps = model.coil_maps[t].reshape(model.n_coils, *dims)
        self._maps_conj = self._maps.conj()
        self.n_rows = self._locs.size * cand.n_coils
        if cand.grid_dims == dims and ov == 1.0:
            self._factors = None  # spectra by FFT on the voxel grid
            self._j1, self._j2 = np.mod(m[:, 0], dims[0]), np.mod(m[:, 1], dims[1])
            self._weights = np.zeros(dims)  # b at each kept location, 0 elsewhere
        else:
            f1, f2, self._j1, self._j2 = _axis_phases(model, self._locs)
            self._factors = (f1, f2)
            self._weights = np.zeros((f1.shape[0], f2.shape[1]))
        self._weights[self._j1, self._j2] = self._b

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.model.N)

    def _spectra(self, x: np.ndarray) -> np.ndarray:
        images = self._maps * np.asarray(x).reshape(self.model.grid.dims)
        if self._factors is None:
            for axis in (-1, -2):  # the passes of fft2, in place
                np.fft.fft(images, axis=axis, out=images)
            return images
        return self._factors[0] @ images @ self._factors[1]

    def _image(self, spectra: np.ndarray) -> np.ndarray:
        """Coil-combined image of ``spectra``, which it may overwrite."""
        if self._factors is None:
            for axis in (-1, -2):  # the passes of ifft2, in place
                np.fft.ifft(spectra, axis=axis, out=spectra)
            spectra *= self.model.N
        else:
            spectra = self._factors[0].conj().T @ spectra @ self._factors[1].conj().T
        return (self._maps_conj * spectra).sum(axis=0).ravel()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a flat image (N,); returns (M,)."""
        return (self._spectra(x)[:, self._j1, self._j2].T * self._b[:, None]).reshape(self.n_rows)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^H @ y, returns a flat (N,) image vector."""
        vals = np.asarray(y).reshape(self._locs.size, self.model.n_coils) * self._b[:, None]
        spectra = np.zeros((self.model.n_coils, *self._weights.shape), dtype=complex)
        spectra[:, self._j1, self._j2] = vals.T
        return self._image(spectra)

    def normal(self, x: np.ndarray) -> np.ndarray:
        """A^H A @ x, bit for bit ``adjoint(forward(x))``; returns (N,)."""
        spectra = self._spectra(x)
        spectra *= self._weights
        spectra *= self._weights
        return self._image(spectra)
