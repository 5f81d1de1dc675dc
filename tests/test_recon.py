import numpy as np
import pytest

from oedipus import (
    DesignObjective,
    EncodingModel,
    ImageGrid,
    ReconProblem,
    SolverFailureError,
    TransformSpec,
    build_cartesian_candidates,
    irls_solve,
    nrmse,
    pattern_from_groups,
    render_phantom,
    retrospective_undersample,
    synthesize_coil_maps,
    uniform_pattern,
)
from oedipus import recon
from oedipus.phantoms import PhantomSpec, default_phantom_spec
from oedipus.recon import TvOperator, WaveletOperator, _cg_solve

from conftest import make_model
from reference import tv_adjoint, tv_forward


def full_pattern(model):
    return pattern_from_groups(
        model.candidates, range(model.candidates.L), mode="full"
    )


def test_nrmse_basics(rng):
    gold = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert nrmse(gold, gold) == 0.0
    assert nrmse(np.zeros(16), gold) == pytest.approx(1.0)
    assert nrmse(2 * gold, gold) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nrmse(gold, np.zeros(16))


def test_tv_operator_constant_and_ramp():
    tv = TvOperator((4, 4))
    assert np.allclose(tv.forward(np.ones(16)), 0.0)
    ramp = np.arange(4.0)[None, :].repeat(4, axis=0)  # ramp along axis 1
    out = tv.forward(ramp.ravel())
    d1, d2 = out[:16].reshape(4, 4), out[16:].reshape(4, 4)
    assert np.allclose(d1, 0.0)
    assert np.allclose(d2[:, :-1], 1.0)
    assert np.allclose(d2[:, -1], 0.0)
    with pytest.raises(ValueError):
        TvOperator((1, 4))


def test_tv_adjoint_random_pairs(rng):
    tv = TvOperator((8, 6))
    for _ in range(100):
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        y = rng.standard_normal(96) + 1j * rng.standard_normal(96)
        lhs = np.vdot(y, tv.forward(x))
        rhs = np.vdot(tv.adjoint(y), x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("dims", [(2, 2), (8, 6), (5, 9)])
def test_tv_operator_equals_the_concatenated_differences(rng, dims):
    tv, n = TvOperator(dims), dims[0] * dims[1]
    zeros = rng.choice([0.0, -0.0, 1.0], n) + 1j * rng.choice([0.0, -0.0, 1.0], n)
    for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n), zeros):
        want = tv_forward(x, dims)  # bit for bit, signed zeros included
        assert tv.forward(x).dtype == want.dtype and tv.forward(x).tobytes() == want.tobytes()
        noise = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        for y in (want, np.where(rng.random(2 * n) < 0.3, -0.0, noise)):
            assert tv.adjoint(y).tobytes() == tv_adjoint(y, dims).tobytes()


def test_cg_solve_leaves_its_inputs_unchanged(rng):
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = h.conj().T @ h + np.eye(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b_in, x0_in = b.copy(), x0.copy()
    x, iters, converged = _cg_solve(lambda v: h @ v, b, x0, 1e-12, 50)
    assert converged and 0 < iters <= 50
    assert np.allclose(h @ x, b, atol=1e-9)
    assert np.array_equal(b, b_in) and np.array_equal(x0, x0_in)


def test_wavelet_operator_adjoint(rng):
    op = WaveletOperator((8, 8), TransformSpec("daub4", 2))
    for _ in range(25):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lhs = np.vdot(y, op.forward(x))
        rhs = np.vdot(op.adjoint(y), x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_retrospective_full_sampling_is_dft(rng):
    model = make_model((8, 8))
    pattern = full_pattern(model)
    img = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    d = retrospective_undersample(img, pattern, model)
    cand = model.candidates
    spec2d = np.fft.fft2(img.reshape(8, 8))
    expected = []
    for g in pattern.kept_groups:
        for loc in cand.group_locs[g]:
            m1, m2 = cand.kidx[loc]
            expected.append(spec2d[m1 % 8, m2 % 8])
    assert np.allclose(d, expected, atol=1e-10)
    assert np.allclose(retrospective_undersample(np.zeros(64), pattern, model), 0.0)


def test_retrospective_noise_statistics(rng):
    model = make_model((4, 4))
    pattern = full_pattern(model)
    img = np.zeros(16, dtype=complex)
    sigma = 0.7
    draws = []
    for seed in range(200):
        draws.append(
            retrospective_undersample(img, pattern, model, noise_sigma=sigma, seed=seed)
        )
    stacked = np.concatenate(draws)  # 200 * 16 = 3200 samples
    var = np.mean(np.abs(stacked) ** 2)
    assert var == pytest.approx(sigma**2, rel=0.05)
    a = retrospective_undersample(img, pattern, model, noise_sigma=sigma, seed=5)
    b = retrospective_undersample(img, pattern, model, noise_sigma=sigma, seed=5)
    assert np.array_equal(a, b)


def test_patterns_subsample_one_acquisition(rng):
    model = make_model((8, 8), n_coils=2, undersample_axes=(0,))
    cand = model.candidates
    img = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    sigma, seed = 0.3, [5, 11, 1]
    full = retrospective_undersample(img, full_pattern(model), model, sigma, seed)
    # the full pattern's noise is the first 2 L C normal draws, real parts first
    draws = np.random.default_rng(seed).standard_normal((2, cand.L * cand.C))
    clean = retrospective_undersample(img, full_pattern(model), model)
    assert np.array_equal(full, clean + sigma * (draws[0] + 1j * draws[1]) / np.sqrt(2.0))
    for kept in ([0, 2, 3, 5], [2, 5, 7]):
        pattern = pattern_from_groups(cand, kept, mode="subset")
        data = retrospective_undersample(img, pattern, model, sigma, seed)
        assert np.array_equal(data.reshape(len(kept), cand.C), full.reshape(cand.L, -1)[kept])


def _phantom_model(dims=(16, 16)):
    grid = ImageGrid(dims, (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0,), n_coils=1)
    model = EncodingModel(grid, cand, (synthesize_coil_maps(grid, 1),))
    gold = render_phantom(default_phantom_spec(grid, 0))
    return model, gold


def test_lambda_to_zero_full_sampling_recovers_image():
    model, gold = _phantom_model()
    pattern = full_pattern(model)
    d = retrospective_undersample(gold, pattern, model)
    problem = ReconProblem(
        data=d,
        pattern=pattern,
        model=model,
        regularizer="wavelet",
        transform=TransformSpec("daub4", 2),
        lam=1e-12,
        max_iters=10,
        tol=1e-10,
    )
    result = irls_solve(problem)
    assert nrmse(result.image, gold) < 1e-4


def test_irls_objective_monotone_random_problems(rng):
    model, _ = _phantom_model((8, 8))
    spec = TransformSpec("haar", 1)
    pattern = uniform_pattern(model.candidates, 2)
    for trial in range(20):
        img = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        d = retrospective_undersample(img, pattern, model, noise_sigma=0.5, seed=trial)
        problem = ReconProblem(
            data=d,
            pattern=pattern,
            model=model,
            regularizer="tv" if trial % 2 else "wavelet",
            transform=spec,
            lam=0.05,
            max_iters=8,
        )
        result = irls_solve(problem)
        log = np.array(result.objective_log)
        assert np.all(np.diff(log) <= 1e-9 + 1e-12 * np.abs(log[:-1]))


def test_tv_recon_beats_zero_fill_on_piecewise_constant():
    grid = ImageGrid((32, 32), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0,), n_coils=1)
    model = EncodingModel(grid, cand, (synthesize_coil_maps(grid, 1),))
    gold = np.abs(render_phantom(PhantomSpec(grid=grid, texture=0.0))).astype(complex)
    pattern = uniform_pattern(cand, 2)
    d = retrospective_undersample(gold, pattern, model)
    from oedipus import EncodingOperator

    op = EncodingOperator(model, pattern.kept_groups, 0)
    zero_fill = op.adjoint(d) / model.N * pattern.R  # density-scaled adjoint
    problem = ReconProblem(
        data=d,
        pattern=pattern,
        model=model,
        regularizer="tv",
        lam=0.01,
        max_iters=30,
    )
    result = irls_solve(problem)
    assert nrmse(result.image, gold) < nrmse(zero_fill, gold)


def test_solver_failure_carries_log(monkeypatch):
    monkeypatch.setattr(recon, "_INNER_MAX_ITERS", 1)  # the first solve takes 2
    model, gold = _phantom_model()
    pattern = uniform_pattern(model.candidates, 2)
    d = retrospective_undersample(gold, pattern, model)
    problem = ReconProblem(
        data=d,
        pattern=pattern,
        model=model,
        regularizer="wavelet",
        transform=TransformSpec("daub4", 2),
        lam=0.01,
        max_iters=5,
    )
    with pytest.raises(SolverFailureError) as exc:
        irls_solve(problem)
    assert len(exc.value.objective_log) >= 1


def test_problem_validation(rng):
    model, gold = _phantom_model()
    pattern = full_pattern(model)
    d = retrospective_undersample(gold, pattern, model)
    with pytest.raises(ValueError):
        ReconProblem(data=d, pattern=pattern, model=model, regularizer="tikhonov")
    for key in ("lam", "tol"):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{key} must be positive"):
                ReconProblem(data=d, pattern=pattern, model=model, **{key: value})
    with pytest.raises(ValueError):
        ReconProblem(data=d[:-1], pattern=pattern, model=model)
