import numpy as np
import pytest

from oedipus import (
    EncodingModel,
    ImageGrid,
    SupportSet,
    VoxelBasis,
    build_cartesian_candidates,
    design,
    synthesize_coil_maps,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_model(
    dims=(8, 8), n_coils=1, undersample_axes=(0, 1), seed=0, oversampling=1.0, basis=None
):
    """Small encoding model with synthetic coil maps (unit map for 1 coil)."""
    grid = ImageGrid(dims, (float(dims[0]) * 2, float(dims[1]) * 2))
    cand = build_cartesian_candidates(
        grid, oversampling=oversampling, undersample_axes=undersample_axes, n_coils=n_coils
    )
    basis = VoxelBasis(basis or "dirac")
    maps = (synthesize_coil_maps(grid, n_coils, seed=seed),)
    return EncodingModel(grid=grid, candidates=cand, coil_maps=maps, basis=basis)


def noise_map_model(rng, dims, n_coils, undersample_axes):
    """Model with one map set of random complex coil maps, each of full rank
    as a dims matrix, so every SVD term of every coil counts."""
    model = make_model(dims, n_coils, undersample_axes)
    shape = (n_coils, model.N)
    maps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return EncodingModel(model.grid, model.candidates, (maps,), model.basis)


def random_support(rng, q, s):
    return SupportSet(indices=rng.choice(q, size=s, replace=False), q=q)


def dense_candidate_matrix(model, t=0):
    """Stack every candidate row densely (test oracle only)."""
    from reference import candidate_row

    cand = model.candidates
    return np.stack(
        [candidate_row(model, p, t) for p in range(cand.n_locations * cand.n_coils)]
    )


def dense_transform_matrix(dims, spec):
    """Materialize the transform as an explicit Q x N matrix (oracle)."""
    from oedipus import forward_transform

    n = dims[0] * dims[1]
    cols = []
    unit = np.zeros(n, dtype=complex)
    for j in range(n):
        unit[:] = 0
        unit[j] = 1.0
        cols.append(forward_transform(unit.reshape(dims), spec).ravel())
    return np.stack(cols, axis=1)


def perturb_gram_traces(monkeypatch, seed):
    """Scale a random half of the ``gram_trace`` results that ``design``
    scores with by (1 + 1e-13), far below the tie slack, as a change of trace
    kernel might."""
    draw, trace = np.random.default_rng(seed).random, design.gram_trace
    monkeypatch.setattr(design, "gram_trace", lambda g: trace(g) * (1 + 1e-13 * (draw() < 0.5)))
