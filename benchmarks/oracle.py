"""Dense-matrix reference for the support-restricted CRB.

Everything here is built from the definitions, with numpy only and without
calling ``oedipus``: the Cartesian candidate rows are explicit DFT rows
times coil sensitivities, and the wavelet is an explicit product of
periodic Haar or Daubechies-4 analysis matrices.  The benchmark checks the
program's designs and CRB scores against these matrices.

Conventions (the ones the program documents):

* voxels are row-major, ``n = n1 * N2 + n2``;
* candidate location ``j = i1 * N2 + i2`` has signed k-space index
  ``(i1 - N1 // 2, i2 - N2 // 2)``; rows are location-major, coil-minor;
* a group is one location (2D undersampling) or one line ``i1 = const``
  (1D undersampling along axis 0);
* the packed multi-level DWT filters rows then columns of the top-left
  band, low-pass half first, with periodic wrap-around.
"""

from __future__ import annotations

import math

import numpy as np

COND_LIMIT = 1e12

_S3 = math.sqrt(3.0)
FILTERS = {
    "haar": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "daub4": np.array([1.0 + _S3, 3.0 + _S3, 3.0 - _S3, 1.0 - _S3])
    / (4.0 * math.sqrt(2.0)),
}


def analysis_matrix(n: int, family: str) -> np.ndarray:
    """One periodic DWT step on length ``n``: low-pass rows, then high-pass."""
    h = FILTERS[family]
    taps = h.size
    g = np.array([(-1.0) ** k * h[taps - 1 - k] for k in range(taps)])
    w = np.zeros((n, n))
    half = n // 2
    for i in range(half):
        for k in range(taps):
            w[i, (2 * i + k) % n] += h[k]
            w[half + i, (2 * i + k) % n] += g[k]
    return w


def _level_matrices(dims, family: str, levels: int):
    """Per level, the analysis matrices of the top-left band's two axes."""
    n1, n2 = dims
    out = []
    for _ in range(levels):
        out.append((analysis_matrix(n1, family), analysis_matrix(n2, family)))
        n1 //= 2
        n2 //= 2
    return out


def dwt(images: np.ndarray, family: str, levels: int) -> np.ndarray:
    """Packed 2D DWT of a stack (..., N1, N2), level by level."""
    x = np.array(images, dtype=complex)
    for w1, w2 in _level_matrices(x.shape[-2:], family, levels):
        n1, n2 = w1.shape[0], w2.shape[0]
        x[..., :n1, :n2] = w1 @ x[..., :n1, :n2] @ w2.T
    return x


def atoms(dims, family: str, levels: int, indices) -> np.ndarray:
    """Synthesis atoms of the given coefficients, shape (S, N1 * N2).

    Row ``j`` is column ``indices[j]`` of the inverse transform, i.e. the
    image whose transform is the unit coefficient ``indices[j]``.  The
    analysis matrices are orthogonal, so the inverse uses their transposes.
    """
    indices = np.asarray(indices)
    n = dims[0] * dims[1]
    x = np.zeros((indices.size, n))
    x[np.arange(indices.size), indices] = 1.0
    x = x.reshape(indices.size, *dims)
    for w1, w2 in reversed(_level_matrices(dims, family, levels)):
        n1, n2 = w1.shape[0], w2.shape[0]
        x[:, :n1, :n2] = w1.T @ x[:, :n1, :n2] @ w2
    return x.reshape(indices.size, n)


def support(image: np.ndarray, family: str, levels: int, fraction: float):
    """Indices of the ``ceil(fraction * N)`` largest coefficients, ascending."""
    coeffs = dwt(image, family, levels).ravel()
    s = math.ceil(fraction * coeffs.size)
    order = np.argsort(-np.abs(coeffs), kind="stable")
    return np.sort(order[:s])


def group_locations(dims, axes, group: int) -> np.ndarray:
    """Candidate locations of one group (Nyquist grid, no oversampling)."""
    n1, n2 = dims
    if tuple(axes) == (0, 1):
        return np.array([group])
    if tuple(axes) == (0,):
        return group * n2 + np.arange(n2)
    return np.arange(n1) * n2 + group


def candidate_rows(dims, locations, maps: np.ndarray) -> np.ndarray:
    """DFT rows of the locations times each coil map, shape (n_loc * C, N)."""
    n1, n2 = dims
    loc = np.asarray(locations)
    m1 = loc // n2 - n1 // 2
    m2 = loc % n2 - n2 // 2
    v1, v2 = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    phase = np.outer(m1, v1.ravel() / n1) + np.outer(m2, v2.ravel() / n2)
    dft = np.exp(-2j * np.pi * phase)
    rows = dft[:, None, :] * np.asarray(maps)[None, :, :]
    return rows.reshape(-1, n1 * n2)


def inverse_gram_trace(gram: np.ndarray) -> float:
    """Trace of the inverse of a Hermitian Gram; +inf when near-singular."""
    w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    if w[0] <= 0 or w[-1] / w[0] > COND_LIMIT:
        return math.inf
    return float(np.sum(1.0 / w))


class Ensemble:
    """Restricted rows of every (exemplar, map set) pair of a design."""

    def __init__(self, dims, axes, maps, supports, family, levels):
        self.dims = tuple(dims)
        self.axes = tuple(axes)
        self.maps = [np.asarray(m) for m in maps]
        self.bases = [atoms(self.dims, family, levels, idx).T for idx in supports]

    def _blocks(self, groups):
        """Per pair, the restricted rows of ``groups``, shape (G, C, S)."""
        locs = np.concatenate(
            [group_locations(self.dims, self.axes, g) for g in groups]
        )
        for basis in self.bases:
            for maps in self.maps:
                b = candidate_rows(self.dims, locs, maps) @ basis
                yield b.reshape(len(groups), -1, basis.shape[1])

    def traces(self, groups) -> list[float]:
        """Per pair, the CRB trace of the rows of ``groups``."""
        out = []
        for b in self._blocks(sorted(groups)):
            flat = b.reshape(-1, b.shape[-1])
            out.append(inverse_gram_trace(flat.conj().T @ flat))
        return out

    def deletion_traces(self, groups) -> list[list[float]]:
        """For each group in ``groups``, the pair traces after deleting it."""
        per_pair = []
        for b in self._blocks(sorted(groups)):
            grams = np.einsum("gci,gcj->gij", b.conj(), b)
            total = grams.sum(axis=0)
            per_pair.append([inverse_gram_trace(total - g) for g in grams])
        return [list(t) for t in zip(*per_pair)]


def combine(traces, mode: str) -> float:
    return max(traces) if mode == "worst" else sum(traces)
