"""Deterministic complex-valued test phantoms.

Piecewise-smooth ellipse compositions with a smooth phase map stand in for
measured gold-standard images.  A perturbation seed jitters the ellipse
parameters slightly, emulating subject-to-subject variation: images from
different seeds look alike and share most of their dominant wavelet
support, which is what lets a pattern designed on one exemplar generalize
to the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import ImageGrid, normalized_coords

__all__ = ["Ellipse", "PhantomSpec", "default_phantom_spec", "render_phantom"]


@dataclass(frozen=True)
class Ellipse:
    """One additive ellipse: centre/axes in FOV units, angle in degrees."""

    center: tuple[float, float]
    axes: tuple[float, float]
    angle: float
    intensity: float


# Head-like composition: bright rim, dimmer interior, two dark
# ventricle-like lobes and a few small bright structures.
_DEFAULT_ELLIPSES = (
    Ellipse((0.0, 0.0), (0.42, 0.36), 0.0, 0.85),
    Ellipse((0.0, 0.0), (0.37, 0.31), 0.0, -0.25),
    Ellipse((-0.05, -0.06), (0.14, 0.055), 108.0, -0.22),
    Ellipse((-0.05, 0.06), (0.14, 0.055), 72.0, -0.22),
    Ellipse((0.13, 0.0), (0.05, 0.05), 0.0, 0.35),
    Ellipse((-0.19, 0.0), (0.045, 0.035), 0.0, 0.3),
    Ellipse((0.06, -0.16), (0.035, 0.022), 30.0, 0.28),
    Ellipse((0.06, 0.16), (0.022, 0.035), -30.0, 0.28),
)

# Width of the ellipse boundary transition in voxels.  Sub-voxel parameter
# jitter then perturbs coefficient magnitudes smoothly instead of
# re-randomizing them, which keeps the dominant wavelet support stable
# across perturbation seeds (hard edges would make the support ranking
# hypersensitive to sub-voxel shifts).
_EDGE_SOFTNESS = 2.0


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one rendered phantom; ellipse edges are soft over
    ``_EDGE_SOFTNESS`` voxels."""

    grid: ImageGrid
    ellipses: tuple[Ellipse, ...] = _DEFAULT_ELLIPSES
    perturbation_seed: int = 0
    texture: float = 0.02
    jitter: float = 1.0

    def __post_init__(self):
        if not self.ellipses:
            raise ValueError("at least one ellipse is required")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")


def default_phantom_spec(grid: ImageGrid, perturbation_seed: int = 0) -> PhantomSpec:
    return PhantomSpec(grid=grid, perturbation_seed=perturbation_seed)


def _jittered(ellipses, rng, scale) -> list[Ellipse]:
    out = []
    for e in ellipses:
        out.append(
            Ellipse(
                center=(
                    e.center[0] + scale * rng.uniform(-0.008, 0.008),
                    e.center[1] + scale * rng.uniform(-0.008, 0.008),
                ),
                axes=(
                    e.axes[0] * (1.0 + scale * rng.uniform(-0.03, 0.03)),
                    e.axes[1] * (1.0 + scale * rng.uniform(-0.03, 0.03)),
                ),
                angle=e.angle + scale * rng.uniform(-2.0, 2.0),
                intensity=e.intensity * (1.0 + scale * rng.uniform(-0.03, 0.03)),
            )
        )
    return out


def _smooth_field(dims, rng) -> np.ndarray:
    """Smooth zero-mean random field, unit maximum magnitude."""
    noise = rng.standard_normal(dims)
    spec = np.fft.fft2(noise)
    f1 = np.fft.fftfreq(dims[0])[:, None]
    f2 = np.fft.fftfreq(dims[1])[None, :]
    spec *= np.exp(-((f1 * dims[0]) ** 2 + (f2 * dims[1]) ** 2) / (2 * 3.0**2))
    field = np.fft.ifft2(spec).real
    field -= field.mean()
    peak = np.abs(field).max()
    return field / peak if peak > 0 else field


def render_phantom(spec: PhantomSpec) -> np.ndarray:
    """Render to a flat complex (N,) vector with magnitude in [0, 1]."""
    dims = spec.grid.dims
    u1, u2 = normalized_coords(dims)
    uu1, uu2 = np.meshgrid(u1, u2, indexing="ij")

    rng = np.random.default_rng(spec.perturbation_seed)
    ellipses = _jittered(spec.ellipses, rng, spec.jitter)

    mag = np.zeros(dims)
    vox = 1.0 / min(dims)
    for e in ellipses:
        th = np.deg2rad(e.angle)
        d1 = uu1 - e.center[0]
        d2 = uu2 - e.center[1]
        x = (np.cos(th) * d1 + np.sin(th) * d2) / e.axes[0]
        y = (-np.sin(th) * d1 + np.cos(th) * d2) / e.axes[1]
        rho2 = x * x + y * y
        width = 2.0 * _EDGE_SOFTNESS * vox / min(e.axes)
        mag += e.intensity * 0.5 * (1.0 + np.tanh((1.0 - rho2) / width))
    mag = np.clip(mag, 0.0, 1.0)

    if spec.texture > 0:
        mag = mag * (1.0 + spec.texture * _smooth_field(dims, rng))
        mag = np.clip(mag, 0.0, 1.0)

    coeffs = np.array([0.8, -0.6, 1.7, 1.1, -0.9])
    coeffs = coeffs * (1.0 + spec.jitter * rng.uniform(-0.05, 0.05, size=5))
    phi = np.pi * (
        coeffs[0] * uu1
        + coeffs[1] * uu2
        + coeffs[2] * uu1 * uu2
        + coeffs[3] * (uu1**2 - uu2**2)
        + coeffs[4] * (uu1**2 + uu2**2)
    )
    return (mag * np.exp(1j * phi)).ravel()
