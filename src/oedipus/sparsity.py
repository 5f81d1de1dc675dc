"""Orthonormal 2D wavelet transforms and transform-domain support handling.

The transform is a multi-level separable 2D discrete wavelet transform with
periodic boundary handling, which keeps it exactly orthonormal: the inverse
equals the conjugate transpose and the coefficient count Q equals the voxel
count N.  Coefficients are stored packed in place, with the approximation
band recursively in the top-left corner, then flattened row-major.

A periodized level on a band of n1 x n2 is two real orthogonal analysis
matrices, one per axis, built once per (length, filter taps): low-pass
rows ``h``, then high-pass rows ``g``, each shifted by 2 with periodic
wrap.  The forward transform maps the band X to ``W1 @ X @ W2.T`` level by
level; the inverse maps it back with the transposes in reverse order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TransformSpec",
    "SupportSet",
    "check_dims",
    "forward_transform",
    "inverse_transform",
    "extract_support",
    "support_atoms",
]

_SQRT3 = math.sqrt(3.0)
_FILTERS = {
    "haar": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "daub4": np.array(
        [1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]
    )
    / (4.0 * math.sqrt(2.0)),
}
_FAMILIES = ("daub4", "haar", "identity")


@dataclass(frozen=True)
class TransformSpec:
    """Sparsifying transform selector.

    ``identity`` makes the transform a no-op (useful for toy problems with
    spatial-domain supports); the wavelet families require both grid
    dimensions to be divisible by ``2 ** levels``.  Boundary handling is
    always periodic.
    """

    family: str = "daub4"
    levels: int = 3

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown transform family {self.family!r}")
        if self.family != "identity" and self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Indices of the retained transform coefficients of one exemplar.

    ``indices`` is sorted ascending into the flattened coefficient vector
    of length ``q``; ``S`` is its cardinality.
    """

    indices: np.ndarray
    q: int

    def __post_init__(self):
        idx = np.sort(self.indices, axis=None)
        if idx.size == 0:
            raise ValueError("support must be nonempty")
        if idx[0] < 0 or idx[-1] >= self.q:
            raise ValueError("support indices out of range")
        if (idx[1:] == idx[:-1]).any():
            raise ValueError("support indices must be unique")
        object.__setattr__(self, "indices", idx.astype(int))

    @property
    def S(self) -> int:
        return int(self.indices.size)


def check_dims(dims, spec: TransformSpec):
    """Raise ``ValueError`` unless a grid of ``dims`` admits the wavelet levels."""
    step = 2 ** spec.levels
    if spec.family != "identity" and (dims[0] % step or dims[1] % step):
        raise ValueError(
            f"grid dims {dims} not divisible by 2**levels = {step}"
        )


@lru_cache(maxsize=None)
def _analysis_matrix(n: int, taps: tuple) -> np.ndarray:
    """One periodized DWT step on length ``n`` as a real orthogonal matrix:
    low-pass rows ``h``, then high-pass rows ``g``, each shifted by 2."""
    h = np.array(taps)
    g = (-1.0) ** np.arange(h.size) * h[::-1]
    half = n // 2
    rows = np.arange(half)[:, None]
    cols = (2 * rows + np.arange(h.size)) % n
    w = np.zeros((n, n))
    np.add.at(w, (rows, cols), h)
    np.add.at(w, (rows + half, cols), g)
    w.flags.writeable = False
    return w


def _levels(x, spec: TransformSpec, what: str):
    """A complex copy of ``x`` and, per level, the analysis matrices of the
    top-left band's two axes (none for ``identity``)."""
    out = np.array(x, dtype=complex)
    if spec.family == "identity":
        return out, []
    if out.ndim < 2:
        raise ValueError(f"{what} must be at least 2-dimensional")
    dims = out.shape[-2:]
    check_dims(dims, spec)
    # The filter taps are part of the key, so patching _FILTERS takes effect.
    taps = tuple(_FILTERS[spec.family].tolist())
    return out, [
        (_analysis_matrix(dims[0] >> k, taps), _analysis_matrix(dims[1] >> k, taps))
        for k in range(spec.levels)
    ]


def forward_transform(image: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Packed multi-level 2D DWT of ``image``.

    ``image`` has shape (..., N1, N2); the transform acts on the last two
    axes and the output has the same shape.  Parseval holds exactly:
    the l2 norm is preserved to machine precision.
    """
    out, levels = _levels(image, spec, "image")
    for w1, w2 in levels:
        n1, n2 = len(w1), len(w2)
        out[..., :n1, :n2] = w1 @ out[..., :n1, :n2] @ w2.T
    return out


def inverse_transform(coeffs: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Inverse of :func:`forward_transform` (equals its adjoint)."""
    out, levels = _levels(coeffs, spec, "coefficients")
    for w1, w2 in reversed(levels):
        n1, n2 = len(w1), len(w2)
        out[..., :n1, :n2] = w1.T @ out[..., :n1, :n2] @ w2
    return out


def extract_support(image: np.ndarray, spec: TransformSpec, fraction: float) -> SupportSet:
    """Support of the ``ceil(fraction * Q)`` largest-magnitude coefficients.

    Ties are broken towards the lower flattened index so the result is
    deterministic across platforms.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    coeffs = forward_transform(image, spec).ravel()
    q = coeffs.size
    s = math.ceil(fraction * q)
    order = np.argsort(-np.abs(coeffs), kind="stable")
    return SupportSet(indices=np.sort(order[:s]), q=q)


@lru_cache(maxsize=None)
def _synthesis_stack(n: int, taps: tuple, levels: int) -> np.ndarray:
    """(levels, n, n): entry d - 1 is the product of the d finest transposed
    analysis steps on length ``n``, each acting on the leading band."""
    phi = np.eye(n)
    out = np.empty((levels, n, n))
    for k in range(levels):
        phi[:, : n >> k] = phi[:, : n >> k] @ _analysis_matrix(n >> k, taps).T
        out[k] = phi
    out.flags.writeable = False
    return out


def support_atoms(support: SupportSet, spec: TransformSpec, dims):
    """Real 1D factors (S, N1) and (S, N2) of the support atoms: coefficient
    (i, j) of depth d (the module docstring's rule) has the voxel image
    ``inverse_transform(e_s) = Phi1_d[:, i] (x) Phi2_d[:, j]``."""
    if support.q != dims[0] * dims[1]:
        raise ValueError("support length does not match grid size")
    i, j = np.divmod(support.indices, dims[1])
    if spec.family == "identity":
        return np.eye(dims[0])[i], np.eye(dims[1])[j]
    check_dims(dims, spec)
    taps = tuple(_FILTERS[spec.family].tolist())
    k = np.arange(1, spec.levels)
    d = np.count_nonzero((i[:, None] < dims[0] >> k) & (j[:, None] < dims[1] >> k), axis=1)
    return tuple(_synthesis_stack(n, taps, spec.levels)[d, :, x] for n, x in zip(dims, (i, j)))
