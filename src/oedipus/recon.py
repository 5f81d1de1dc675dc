"""Retrospective undersampling and regularized reconstruction.

Patterns are evaluated by synthesizing data from a gold-standard image
through the retained measurement rows, reconstructing with an l1-type
penalty (orthonormal wavelet coefficients or anisotropic total variation)
and scoring by NRMSE.  The solver is the multiplicative half-quadratic
scheme: each outer iteration reweights the penalty by the current
coefficient magnitudes and solves the resulting weighted normal equations
with warm-started conjugate gradients (A^H A by ``EncodingOperator.normal``).
The smoothed objective

    ||A f - d||^2 + lambda * sum_j rho_eps((T f)_j)

with the Huber-type rho_eps is monotone non-increasing across outer
iterations by the majorize-minimize construction, even when the inner
solve stops early.

The weight floor eps is ``_EPSILON_SCALE * max|T A^H d|``; each CG solve
must reach ``_INNER_TOL`` relative residual within ``_INNER_MAX_ITERS``
steps, over three times the longest solve of the tests and committed
configs (314 steps, two coils at 16x16), or the solver fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import SamplingPattern
from .encoding import EncodingModel, EncodingOperator
from .errors import SolverFailureError
from .sparsity import TransformSpec, forward_transform, inverse_transform

__all__ = [
    "ReconProblem",
    "ReconResult",
    "TvOperator",
    "WaveletOperator",
    "retrospective_undersample",
    "irls_solve",
    "nrmse",
]

_EPSILON_SCALE = 1e-6
_INNER_TOL = 1e-6
_INNER_MAX_ITERS = 1000


class TvOperator:
    """First-order forward differences along both axes, replicate boundary.

    Maps a flat (N,) image to a (2N,) stack of axis-0 and axis-1
    differences; the adjoint is the matching negative divergence.
    """

    def __init__(self, dims: tuple[int, int]):
        if dims[0] < 2 or dims[1] < 2:
            raise ValueError(f"grid must be at least 2x2, got {dims}")
        self.dims = dims

    def forward(self, x: np.ndarray) -> np.ndarray:
        img = np.asarray(x).reshape(self.dims)
        d = np.zeros((2, *self.dims), dtype=img.dtype)
        np.subtract(img[1:, :], img[:-1, :], out=d[0, :-1, :])
        np.subtract(img.ravel()[1:], img.ravel()[:-1], out=d[1].ravel()[:-1])
        d[1, :, -1] = 0  # axis 1 ran as one flat run: zero the differences across row ends
        return d.reshape(-1)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y1, y2 = np.asarray(y).reshape(2, *self.dims)
        out = np.zeros(self.dims, dtype=complex)
        out[1:, :] += y1[:-1, :]
        out[:-1, :] -= y1[:-1, :]
        z = y2.flatten()
        z[self.dims[1] - 1 :: self.dims[1]] = 0  # unused last column: the flat runs add and take 0
        out.ravel()[1:] += z[:-1]
        out.ravel()[:-1] -= z[:-1]
        return out.ravel()


class WaveletOperator:
    """Orthonormal wavelet analysis as a flat-vector linear operator."""

    def __init__(self, dims: tuple[int, int], spec: TransformSpec):
        self.dims = dims
        self.spec = spec

    def forward(self, x: np.ndarray) -> np.ndarray:
        return forward_transform(np.asarray(x).reshape(self.dims), self.spec).ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return inverse_transform(np.asarray(y).reshape(self.dims), self.spec).ravel()


@dataclass(frozen=True, eq=False)
class ReconProblem:
    """One reconstruction task.

    ``regularizer`` is ``"wavelet"`` (l1 on the transform of ``transform``)
    or ``"tv"``.  IRLS runs at most ``max_iters`` outer iterations and
    stops early when the relative change of the image falls below ``tol``.
    """

    data: np.ndarray
    pattern: SamplingPattern
    model: EncodingModel
    regularizer: str = "wavelet"
    transform: TransformSpec = field(default_factory=TransformSpec)
    lam: float = 0.01
    max_iters: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if self.regularizer not in ("wavelet", "tv"):
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        for name in ("lam", "tol", "max_iters"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if np.asarray(self.data).size != self.pattern.M:
            raise ValueError(
                f"data length {np.asarray(self.data).size} != pattern "
                f"measurement count {self.pattern.M}"
            )


@dataclass(frozen=True, eq=False)
class ReconResult:
    """``converged`` is set when the iterate-change test ended the loop, not
    ``max_iters``."""

    image: np.ndarray
    objective_log: tuple[float, ...]
    iterations: int
    converged: bool


def retrospective_undersample(
    full_image: np.ndarray,
    pattern: SamplingPattern,
    model: EncodingModel,
    noise_sigma: float = 0.0,
    seed: int | list[int] = 0,
) -> np.ndarray:
    """Synthesize measured data d = A f + n for the retained groups.

    The noise is one full acquisition's: an (L, C) circular complex Gaussian
    draw from ``seed``, variance ``noise_sigma ** 2`` per sample (``0`` gives
    noiseless data), of which the pattern keeps its groups' rows.
    """
    op = EncodingOperator(model, pattern.kept_groups)
    d = op.forward(np.asarray(full_image).ravel())
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        shape = (model.candidates.L, model.candidates.C)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        d = d + noise_sigma * noise[list(pattern.kept_groups)].ravel() / np.sqrt(2.0)
    return d


def _cg_solve(apply_h, b, x0, tol, max_iters):
    """CG for a Hermitian positive definite system; warm-startable.

    Returns (x, iterations, converged).  The quadratic form decreases
    monotonically from the starting point, which preserves outer-loop
    monotonicity even on early exit.
    """
    x = x0.copy()
    r = b - apply_h(x)
    p = r.copy()
    rs = np.vdot(r, r).real
    b_norm = np.linalg.norm(b)
    target = tol * b_norm if b_norm > 0 else 0.0
    if np.sqrt(rs) <= target:
        return x, 0, True
    for it in range(1, max_iters + 1):
        hp = apply_h(p)
        denom = np.vdot(p, hp).real
        if denom <= 0:
            return x, it, False
        alpha = rs / denom
        x += alpha * p
        r -= alpha * hp
        rs_new = np.vdot(r, r).real
        if np.sqrt(rs_new) <= target:
            return x, it, True
        p *= rs_new / rs
        p += r
        rs = rs_new
    return x, max_iters, False


def _smoothed_penalty(mags: np.ndarray, eps: float) -> float:
    """sum of rho_eps over coefficient magnitudes (Huber-type corner)."""
    return float(
        np.sum(np.where(mags >= eps, mags, 0.5 * (mags**2 / eps + eps)))
    )


def irls_solve(problem: ReconProblem) -> ReconResult:
    """Multiplicative half-quadratic (IRLS) reconstruction.

    Starts from the adjoint image A^H d, reweights the penalty by current
    transform-coefficient magnitudes floored at eps, and solves each
    weighted normal-equation system by warm-started CG.  Stops when the
    relative iterate change falls below ``tol`` (``converged``) or
    ``max_iters`` is reached.  Raises :class:`SolverFailureError` (carrying
    the objective log) if a CG solve misses ``_INNER_TOL`` within
    ``_INNER_MAX_ITERS`` steps.
    """
    model = problem.model
    a_op = EncodingOperator(model, problem.pattern.kept_groups)
    if problem.regularizer == "tv":
        t_op = TvOperator(model.grid.dims)
    else:
        t_op = WaveletOperator(model.grid.dims, problem.transform)

    d = np.asarray(problem.data).ravel()
    b = a_op.adjoint(d)
    f = b.copy()

    tmag = np.abs(t_op.forward(f))
    peak = tmag.max()
    eps = _EPSILON_SCALE * (peak if peak > 0 else 1.0)

    def objective(fv, tmags):
        resid = a_op.forward(fv) - d
        return float(np.vdot(resid, resid).real) + problem.lam * _smoothed_penalty(
            tmags, eps
        )

    log = [objective(f, tmag)]
    iterations = 0
    converged = False
    for _ in range(problem.max_iters):
        weights = 1.0 / np.maximum(tmag, eps)

        def apply_h(x):
            return a_op.normal(x) + (problem.lam / 2.0) * t_op.adjoint(
                weights * t_op.forward(x)
            )

        f_new, _, inner_converged = _cg_solve(apply_h, b, f, _INNER_TOL, _INNER_MAX_ITERS)
        if not inner_converged:
            raise SolverFailureError(
                f"inner CG did not reach {_INNER_TOL:g} within {_INNER_MAX_ITERS} iterations",
                objective_log=log,
            )
        iterations += 1
        tmag = np.abs(t_op.forward(f_new))
        log.append(objective(f_new, tmag))
        denom = np.linalg.norm(f)
        delta = np.linalg.norm(f_new - f)
        f = f_new
        if denom > 0 and delta / denom < problem.tol:
            converged = True
            break

    return ReconResult(
        image=f, objective_log=tuple(log), iterations=iterations, converged=converged
    )


def nrmse(estimate: np.ndarray, gold: np.ndarray) -> float:
    """l2 error of ``estimate`` relative to the l2 norm of ``gold``."""
    gold = np.asarray(gold).ravel()
    denom = np.linalg.norm(gold)
    if denom == 0:
        raise ValueError("gold standard has zero norm")
    return float(np.linalg.norm(np.asarray(estimate).ravel() - gold) / denom)
