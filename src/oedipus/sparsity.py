"""Orthonormal 2D wavelet transforms and transform-domain support handling.

The transform is a multi-level separable 2D discrete wavelet transform with
periodic boundary handling, which keeps it exactly orthonormal: the inverse
equals the conjugate transpose and the coefficient count Q equals the voxel
count N.  Coefficients are stored packed in place, with the approximation
band recursively in the top-left corner, then flattened row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransformSpec",
    "SupportSet",
    "check_dims",
    "forward_transform",
    "inverse_transform",
    "extract_support",
    "support_atoms",
    "restricted_row",
    "restricted_rows",
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
    source_label: str = ""

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size == 0:
            raise ValueError("support must be nonempty")
        if idx.min() < 0 or idx.max() >= self.q:
            raise ValueError("support indices out of range")
        if np.unique(idx).size != idx.size:
            raise ValueError("support indices must be unique")
        object.__setattr__(self, "indices", np.sort(idx.astype(int)))

    @property
    def S(self) -> int:
        return int(self.indices.size)


def _filters(spec: TransformSpec):
    h = _FILTERS[spec.family]
    taps = len(h)
    g = ((-1.0) ** np.arange(taps)) * h[::-1]
    return h, g


def check_dims(dims, spec: TransformSpec):
    """Raise ``ValueError`` unless a grid of ``dims`` admits the wavelet levels."""
    step = 2 ** spec.levels
    if spec.family != "identity" and (dims[0] % step or dims[1] % step):
        raise ValueError(
            f"grid dims {dims} not divisible by 2**levels = {step}"
        )


def _analysis_1d(x, h, g):
    """One periodized analysis step along the last axis (even length)."""
    n = x.shape[-1]
    taps = len(h)
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n
    xs = x[..., idx]
    return xs @ h, xs @ g


def _synthesis_1d(a, d, h, g):
    """Adjoint of :func:`_analysis_1d` (exact inverse, orthonormal filters)."""
    n = 2 * a.shape[-1]
    taps = len(h)
    y = np.zeros(a.shape[:-1] + (n,), dtype=complex)
    base = 2 * np.arange(n // 2)
    for k in range(taps):
        pos = (base + k) % n
        y[..., pos] += h[k] * a + g[k] * d
    return y


def _level_forward(sub, h, g):
    a, d = _analysis_1d(sub, h, g)
    tmp = np.concatenate([a, d], axis=-1)
    tmp = np.swapaxes(tmp, -1, -2)
    a2, d2 = _analysis_1d(tmp, h, g)
    return np.swapaxes(np.concatenate([a2, d2], axis=-1), -1, -2)


def _level_inverse(sub, h, g):
    n1 = sub.shape[-2]
    tmp = np.swapaxes(sub, -1, -2)
    rec = _synthesis_1d(tmp[..., : n1 // 2], tmp[..., n1 // 2 :], h, g)
    rec = np.swapaxes(rec, -1, -2)
    n2 = rec.shape[-1]
    return _synthesis_1d(rec[..., : n2 // 2], rec[..., n2 // 2 :], h, g)


def forward_transform(image: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Packed multi-level 2D DWT of ``image``.

    ``image`` has shape (..., N1, N2); the transform acts on the last two
    axes and the output has the same shape.  Parseval holds exactly:
    the l2 norm is preserved to machine precision.
    """
    out = np.asarray(image).astype(complex)
    if spec.family == "identity":
        return out.copy()
    if out.ndim < 2:
        raise ValueError("image must be at least 2-dimensional")
    dims = out.shape[-2:]
    check_dims(dims, spec)
    out = out.copy()
    h, g = _filters(spec)
    n1, n2 = dims
    for _ in range(spec.levels):
        out[..., :n1, :n2] = _level_forward(out[..., :n1, :n2], h, g)
        n1 //= 2
        n2 //= 2
    return out


def inverse_transform(coeffs: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Inverse of :func:`forward_transform` (equals its adjoint)."""
    out = np.asarray(coeffs).astype(complex)
    if spec.family == "identity":
        return out.copy()
    if out.ndim < 2:
        raise ValueError("coefficients must be at least 2-dimensional")
    dims = out.shape[-2:]
    check_dims(dims, spec)
    out = out.copy()
    h, g = _filters(spec)
    n1 = dims[0] >> spec.levels
    n2 = dims[1] >> spec.levels
    for _ in range(spec.levels):
        n1 *= 2
        n2 *= 2
        out[..., :n1, :n2] = _level_inverse(out[..., :n1, :n2], h, g)
    return out


def extract_support(
    image: np.ndarray,
    spec: TransformSpec,
    fraction: float,
    source_label: str = "",
) -> SupportSet:
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
    return SupportSet(indices=np.sort(order[:s]), q=q, source_label=source_label)


def support_atoms(support: SupportSet, spec: TransformSpec, dims, columns=slice(None)):
    """Voxel images ``inverse_transform(e_s)`` of the support atoms selected
    by ``columns`` (default: all), one batched transform, shape (s, N1, N2)."""
    if support.q != dims[0] * dims[1]:
        raise ValueError("support length does not match grid size")
    idx = support.indices[columns]
    units = np.zeros((idx.size, support.q), dtype=complex)
    units[np.arange(idx.size), idx] = 1.0
    return inverse_transform(units.reshape(-1, *dims), spec)


def restricted_row(
    row: np.ndarray,
    support: SupportSet,
    spec: TransformSpec,
    dims: tuple[int, int],
) -> np.ndarray:
    """(row . PsiH) gathered on the support, shape (S,).

    Computed as the conjugated forward transform of the conjugated row,
    which matches a dense transform-matrix multiplication to machine
    precision.
    """
    return restricted_rows(np.asarray(row)[None, :], support, spec, dims)[0]


def restricted_rows(rows, support: SupportSet, spec: TransformSpec, dims):
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
