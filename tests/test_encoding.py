import numpy as np
import pytest

from oedipus import (
    EncodingModel,
    EncodingOperator,
    ImageGrid,
    VoxelBasis,
    build_cartesian_candidates,
    synthesize_coil_maps,
)
from oedipus.encoding import _axis_phases

from conftest import dense_candidate_matrix, make_model
from reference import candidate_row, group_rows, kspace_locations, row_indices


def test_grid_validation():
    with pytest.raises(ValueError):
        ImageGrid((0, 4))
    with pytest.raises(ValueError):
        ImageGrid((4, 4), (0.0, 100.0))


def test_candidate_counts_2d_single_coil():
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0, 1), n_coils=1)
    assert (cand.n_locations, cand.L, cand.C) == (16, 16, 1)


def test_candidate_counts_1d_two_coils():
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0,), n_coils=2)
    assert cand.L == 4
    assert cand.C == 8  # 4 readout samples x 2 coils


def test_candidate_counts_paper_scale_lines():
    grid = ImageGrid((256, 160), (210.0, 131.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(1,), n_coils=1)
    assert cand.L == 160
    assert cand.C == 256


def test_groups_partition_rows():
    cand = make_model((4, 6), n_coils=3, undersample_axes=(0,)).candidates
    rows = row_indices(cand, range(cand.L))
    assert rows.shape == (cand.L, cand.C)
    assert np.array_equal(np.sort(rows.ravel()), np.arange(cand.n_locations * cand.n_coils))


def test_oversampling_grows_grid_and_shrinks_spacing():
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, oversampling=1.5, undersample_axes=(1,))
    assert cand.grid_dims == (6, 6)
    assert np.array_equal(np.unique(cand.kidx[:, 0]), np.arange(-3, 3))
    base = build_cartesian_candidates(grid, undersample_axes=(1,))

    def spacing(c):  # cycles/mm along axis 0
        model = EncodingModel(grid, c, (synthesize_coil_maps(grid, 1),))
        return np.diff(np.unique(kspace_locations(model, np.arange(c.n_locations))[:, 0]))[0]

    assert spacing(cand) == pytest.approx(spacing(base) / 1.5)
    with pytest.raises(ValueError):
        build_cartesian_candidates(grid, oversampling=0.5)
    with pytest.raises(ValueError):
        build_cartesian_candidates(grid, undersample_axes=())


def test_dc_row_is_all_ones():
    model = make_model((4, 4))
    cand = model.candidates
    dc = np.flatnonzero((cand.kidx == 0).all(axis=1))[0]
    row = candidate_row(model, int(dc) * cand.n_coils, 0)
    assert np.allclose(row, 1.0)


def test_1d_dft_rows_orthogonal():
    grid = ImageGrid((1, 4), (10.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(1,))
    model = EncodingModel(grid, cand, (synthesize_coil_maps(grid, 1),))
    rows = np.stack([candidate_row(model, p, 0) for p in range(4)])
    gram = rows @ rows.conj().T
    assert np.allclose(gram, 4 * np.eye(4), atol=1e-12)
    # row for k-index m has entries exp(-i 2 pi m n / 4)
    m = cand.kidx[2, 1]
    expected = np.exp(-2j * np.pi * m * np.arange(4) / 4)
    assert np.allclose(rows[2], expected)


def test_coil_row_at_dc_equals_profile():
    model = make_model((4, 4), n_coils=2, seed=11)
    cand = model.candidates
    dc = int(np.flatnonzero((cand.kidx == 0).all(axis=1))[0])
    row = candidate_row(model, dc * cand.n_coils + 1, 0)
    assert np.allclose(row, model.coil_maps[0][1])


def test_nyquist_gram_identity_up_to_8x8():
    for dims in [(4, 4), (8, 8), (8, 4)]:
        model = make_model(dims)
        a = dense_candidate_matrix(model)
        n = model.N
        assert np.allclose(a.conj().T @ a, n * np.eye(n), atol=1e-9)


def test_candidate_row_index_errors():
    model = make_model((4, 4))
    with pytest.raises(ValueError):
        candidate_row(model, -1, 0)
    with pytest.raises(ValueError):
        candidate_row(model, model.candidates.n_locations, 0)
    with pytest.raises(ValueError):
        candidate_row(model, 0, 1)


def test_rect_basis_weights():
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, oversampling=1.5)
    m, rect, period = cand.kidx, VoxelBasis("rect"), 1.5 * 4
    b = rect.axis_weights(m[:, 0], period) * rect.axis_weights(m[:, 1], period)
    dc = np.flatnonzero((cand.kidx == 0).all(axis=1))[0]
    assert b[dc] == pytest.approx(1.0)
    assert np.all(b <= 1.0) and np.all(b > 0.0)
    # sinc(k * voxel size) of k = m / (ov * fov) cycles/mm and 25 mm voxels
    k = m[0] / (1.5 * 100.0)
    expected = np.sinc(k[0] * 25.0) * np.sinc(k[1] * 25.0)
    assert b[0] == pytest.approx(expected)
    assert np.array_equal(VoxelBasis("dirac").axis_weights(m[:, 0], period), np.ones(len(m)))


def test_coil_maps_deterministic_and_covering():
    grid = ImageGrid((64, 64), (200.0, 200.0))
    m1 = synthesize_coil_maps(grid, 4, decay=5.0, seed=42)
    m2 = synthesize_coil_maps(grid, 4, decay=5.0, seed=42)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, synthesize_coil_maps(grid, 4, decay=5.0, seed=43))
    sos = np.sum(np.abs(m1) ** 2, axis=0)
    assert sos.min() >= 0.1 * sos.max()
    single = synthesize_coil_maps(grid, 1, seed=0)
    assert np.array_equal(single, np.ones((1, grid.n_voxels)))
    with pytest.raises(ValueError):
        synthesize_coil_maps(grid, 0)
    with pytest.raises(ValueError):
        synthesize_coil_maps(grid, 2, decay=-1.0)


def test_group_rows_match_candidate_rows():
    model = make_model((4, 6), n_coils=2, undersample_axes=(0,), seed=5)
    cand = model.candidates
    for g in range(cand.L):
        block = group_rows(model, g, 0)
        for i, p in enumerate(row_indices(cand, [g])[0]):
            assert np.allclose(block[i], candidate_row(model, int(p), 0))


def test_operator_matches_dense_rows(rng):
    model = make_model((8, 8), n_coils=2, undersample_axes=(0,), seed=2)
    kept = [0, 3, 5]
    op = EncodingOperator(model, kept, 0)
    dense = np.concatenate([group_rows(model, g, 0) for g in kept])
    x = rng.standard_normal(model.N) + 1j * rng.standard_normal(model.N)
    assert np.allclose(op.forward(x), dense @ x, atol=1e-10)
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    assert np.allclose(op.adjoint(y), dense.conj().T @ y, atol=1e-10)


def test_operator_adjoint_inner_product(rng):
    for n_coils, axes in [(1, (0, 1)), (3, (1,))]:
        model = make_model((8, 8), n_coils=n_coils, undersample_axes=axes, seed=7)
        kept = list(range(0, model.candidates.L, 2))
        op = EncodingOperator(model, kept, 0)
        for _ in range(20):
            x = rng.standard_normal(model.N) + 1j * rng.standard_normal(model.N)
            y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
            lhs = np.vdot(y, op.forward(x))
            rhs = np.vdot(op.adjoint(y), x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("n_coils", [1, 3])
@pytest.mark.parametrize("oversampling", [1.5, 2.0])
def test_oversampled_operator_matches_group_rows(rng, oversampling, n_coils):
    for axes in [(0, 1), (1,)]:
        model = make_model((6, 8), n_coils, axes, seed=4, oversampling=oversampling, basis="rect")
        kept = rng.permutation(model.candidates.L)[: model.candidates.L // 2 + 1]
        op = EncodingOperator(model, kept, 0)  # rows follow the given group order
        dense = np.concatenate([group_rows(model, g, 0) for g in kept])
        x = rng.standard_normal(model.N) + 1j * rng.standard_normal(model.N)
        y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
        for got, want in [(op.forward(x), dense @ x), (op.adjoint(y), dense.conj().T @ y)]:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_oversampled_operator_at_64x64(rng):
    # 8192 kept locations x 2 coils x 4096 voxels: 67M entries as dense rows
    grid = ImageGrid((64, 64), (200.0, 200.0))
    cand = build_cartesian_candidates(grid, oversampling=2.0, undersample_axes=(0,), n_coils=2)
    model = EncodingModel(grid=grid, candidates=cand, coil_maps=(synthesize_coil_maps(grid, 2),))
    op = EncodingOperator(model, range(0, cand.L, 2), 0)
    assert op.shape == (8192 * 2, 4096)
    x = rng.standard_normal(model.N) + 1j * rng.standard_normal(model.N)
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    lhs, rhs = np.vdot(y, op.forward(x)), np.vdot(op.adjoint(y), x)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@pytest.mark.parametrize("basis", ["dirac", "rect"])
@pytest.mark.parametrize("oversampling", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n_coils", [1, 2, 4])
@pytest.mark.parametrize("axes", [(0, 1), (0,), (1,)])
def test_normal_is_adjoint_of_forward_bit_for_bit(rng, basis, oversampling, n_coils, axes):
    model = make_model((6, 8), n_coils, axes, seed=3, oversampling=oversampling, basis=basis)
    for kept in (rng.permutation(model.candidates.L)[: model.candidates.L // 3 + 1], []):
        op = EncodingOperator(model, kept, 0)
        x = rng.standard_normal(model.N) + 1j * rng.standard_normal(model.N)
        assert np.array_equal(op.normal(x), op.adjoint(op.forward(x)))


@pytest.mark.parametrize("oversampling", [1.5, 2.0])
def test_axis_phases_run_over_the_sorted_distinct_offsets(rng, oversampling):
    model = make_model((6, 7), oversampling=oversampling)
    locs = rng.choice(model.candidates.n_locations, 9, replace=False)
    f1, f2, j1, j2 = _axis_phases(model, locs)
    m, n1, n2 = model.candidates.kidx[locs], np.arange(6), np.arange(7)
    for j, offsets in ((j1, m[:, 0]), (j2, m[:, 1])):
        inverse = np.unique(offsets, return_inverse=True)[1]
        assert j.dtype == inverse.dtype and np.array_equal(j, inverse)
    row1 = np.exp(-2j * np.pi * (m[:, :1] * (n1[None, :] / (oversampling * 6))))
    row2 = np.exp(-2j * np.pi * ((n2[:, None] / (oversampling * 7)) * m[:, 1][None, :]))
    assert np.array_equal(f1[j1], row1) and np.array_equal(f2[:, j2], row2)


def test_model_validates_map_shapes():
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, n_coils=2)
    with pytest.raises(ValueError):
        EncodingModel(grid=grid, candidates=cand, coil_maps=(np.ones((1, 16)),))
