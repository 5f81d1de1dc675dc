import numpy as np
import pytest

from oedipus import (
    ImageGrid,
    build_cartesian_candidates,
    caipi_pattern,
    poisson_disc_pattern,
    uniform_pattern,
)

from reference import reference_poisson_disc


def lines_candidates(n_lines, readout=4):
    grid = ImageGrid((readout, n_lines), (100.0, 100.0))
    return build_cartesian_candidates(grid, undersample_axes=(1,), n_coils=1)


def grid_candidates(n1, n2):
    grid = ImageGrid((n1, n2), (100.0, 100.0))
    return build_cartesian_candidates(grid, undersample_axes=(0, 1), n_coils=1)


def centre_groups(cand, block):
    """Centre block from group ids: the line index, or divmod of the row-major id."""
    g1, g2 = cand.grid_dims
    if cand.undersample_axes != (0, 1):
        n = cand.L
        return set(range(max(n // 2 - block // 2, 0), min(n // 2 + (block + 1) // 2, n)))
    rows = range(max(g1 // 2 - block // 2, 0), min(g1 // 2 + (block + 1) // 2, g1))
    cols = range(max(g2 // 2 - block // 2, 0), min(g2 // 2 + (block + 1) // 2, g2))
    return {i * g2 + j for i in rows for j in cols}


def group_coords(cand):
    """Grid-index coordinates of each group, (L, 1) for lines, (L, 2) in 2D."""
    if cand.undersample_axes != (0, 1):
        return np.arange(cand.L, dtype=float)[:, None]
    return np.array([divmod(g, cand.grid_dims[1]) for g in range(cand.L)], dtype=float)


def caipi_groups(cand, ry, rz, shift):
    g1, g2 = cand.grid_dims
    return {
        i * g2 + j for i in range(0, g1, ry) for j in range(g2) if j % rz == (i // ry) * shift % rz
    }


def assert_spaced(cand, pattern, centre):
    """Groups outside the centre are at least the pattern's radius apart."""
    outside = [g for g in pattern.kept_groups if g not in centre]
    pts = group_coords(cand)[outside]
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    assert np.sqrt(d2.min()) >= pattern.extra["radius"]


def test_uniform_paper_scale():
    cand = lines_candidates(160, readout=8)
    pattern = uniform_pattern(cand, 2)
    assert pattern.kept_groups == tuple(range(0, 160, 2))
    assert len(pattern.kept_groups) == 80


def test_uniform_r1_and_r4():
    cand = lines_candidates(8)
    assert uniform_pattern(cand, 1).kept_groups == tuple(range(8))
    assert uniform_pattern(cand, 4).kept_groups == (0, 4)
    with pytest.raises(ValueError):
        uniform_pattern(cand, 9)


@pytest.mark.parametrize("n_groups", [7, 16, 33])
@pytest.mark.parametrize("R", [1, 1.3, 2, 2.5, 3])
def test_uniform_keeps_round_l_over_r_distinct_groups(n_groups, R):
    kept = uniform_pattern(lines_candidates(n_groups), R).kept_groups
    assert len(kept) == round(n_groups / R) and list(kept) == sorted(set(kept))


def test_caipi_reduces_to_uniform_rows():
    cand = grid_candidates(8, 8)
    pattern = caipi_pattern(cand, 2, ry=2, rz=1, shift=0)
    kept = np.array(pattern.kept_groups)
    i1 = kept // 8
    assert np.all(i1 % 2 == 0)
    assert len(kept) == 32


def test_caipi_sheared_lattice_modular_oracle():
    cand = grid_candidates(8, 8)
    pattern = caipi_pattern(cand, 4, ry=2, rz=2, shift=1)
    kept = set(pattern.kept_groups)
    assert len(kept) == 16
    expected = set()
    for i1 in range(8):
        for i2 in range(8):
            if i1 % 2 == 0 and i2 % 2 == (i1 // 2) % 2:
                expected.add(i1 * 8 + i2)
    assert kept == expected
    # shifted rows differ: genuinely sheared, not axis-aligned
    offsets = {i1: sorted(i2 for i2 in range(8) if i1 * 8 + i2 in kept) for i1 in (0, 2)}
    assert offsets[0] != offsets[2]


def test_caipi_degenerate_shift_zero():
    cand = grid_candidates(8, 8)
    pattern = caipi_pattern(cand, 4, ry=2, rz=2, shift=0)
    kept = np.array(pattern.kept_groups)
    assert np.all(kept // 8 % 2 == 0)
    assert np.all(kept % 8 % 2 == 0)


def test_caipi_requires_2d_and_factorable_r():
    with pytest.raises(ValueError):
        caipi_pattern(lines_candidates(8), 2, ry=2, rz=1)
    with pytest.raises(ValueError):
        caipi_pattern(grid_candidates(8, 8), 3, ry=2, rz=2)


def test_poisson_full_sampling_any_seed():
    cand = lines_candidates(32)
    for seed in (0, 7):
        pattern = poisson_disc_pattern(cand, 1, 32, center_block=4, seed=seed)
        assert pattern.kept_groups == tuple(range(32))


def test_poisson_deterministic_per_seed():
    cand = lines_candidates(64)
    a = poisson_disc_pattern(cand, 2, 32, center_block=16, seed=3)
    b = poisson_disc_pattern(cand, 2, 32, center_block=16, seed=3)
    assert a.kept_groups == b.kept_groups
    c = poisson_disc_pattern(cand, 2, 32, center_block=16, seed=4)
    assert a.kept_groups != c.kept_groups


def test_poisson_center_block_fully_kept_and_budget():
    cand = lines_candidates(64)
    target = 32
    pattern = poisson_disc_pattern(cand, 2, target, center_block=16, seed=1)
    center = centre_groups(cand, 16)
    assert len(center) == 16
    assert center.issubset(set(pattern.kept_groups))
    tol = max(1, round(0.01 * target))
    assert abs(len(pattern.kept_groups) - target) <= tol


def test_poisson_min_distance_property_2d():
    cand = grid_candidates(64, 64)
    target = 64 * 64 // 4
    pattern = poisson_disc_pattern(cand, 4, target, center_block=16, seed=5)
    assert_spaced(cand, pattern, centre_groups(cand, 16))
    tol = max(1, round(0.01 * target))
    assert abs(len(pattern.kept_groups) - target) <= tol


@pytest.mark.parametrize("two_d, R, block", [(False, 2, 16), (True, 4, 8)])
def test_poisson_short_patterns_are_maximal_packings(two_d, R, block):
    """A pattern short of its target leaves no group outside the centre that
    is at least the radius from every kept group outside the centre."""
    cand = grid_candidates(32, 32) if two_d else lines_candidates(64)
    target = cand.L // R
    centre = centre_groups(cand, block)
    coords = group_coords(cand)
    short = 0
    for seed in range(10):
        pattern = poisson_disc_pattern(cand, R, target, center_block=block, seed=seed)
        if len(pattern.kept_groups) >= target:
            continue
        short += 1
        kept = sorted(set(pattern.kept_groups) - centre)
        unkept = sorted(set(range(cand.L)) - set(pattern.kept_groups) - centre)
        d2 = np.sum((coords[unkept][:, None, :] - coords[kept][None, :, :]) ** 2, axis=-1)
        assert np.all(d2.min(axis=1) < pattern.extra["radius"] ** 2)
    assert short  # some seeds fall short of the target at these settings


@pytest.mark.parametrize("two_d, blocks", [(False, (4, 16)), (True, (4, 8))])
def test_poisson_matches_the_reference_throw(two_d, blocks):
    cand = grid_candidates(32, 24) if two_d else lines_candidates(64)
    for R in (2, 3, 4):
        for seed in range(3):
            for block in blocks:
                pattern = poisson_disc_pattern(cand, R, cand.L // R, center_block=block, seed=seed)
                ref = reference_poisson_disc(cand, cand.L // R, block, seed)
                assert pattern.kept_groups == ref.kept_groups, (R, seed, block)
                assert pattern.extra["radius"] == ref.extra["radius"]


def test_poisson_target_validation():
    cand = lines_candidates(32)
    with pytest.raises(ValueError):
        poisson_disc_pattern(cand, 2, 8, center_block=16, seed=0)
    with pytest.raises(ValueError):
        poisson_disc_pattern(cand, 2, 64, center_block=16, seed=0)


def test_acceleration_validation():
    with pytest.raises(ValueError):
        uniform_pattern(lines_candidates(8), 0.5)
    with pytest.raises(ValueError):
        caipi_pattern(grid_candidates(8, 8), 0.5, ry=1, rz=1)
    with pytest.raises(ValueError):
        poisson_disc_pattern(lines_candidates(32), 0.5, 32, center_block=4)


@pytest.mark.parametrize(
    "dims, axes, oversampling",
    [((24, 8), (0,), 1.0), ((15, 9), (0, 1), 1.0), ((10, 12), (0, 1), 1.5)],
)
def test_baselines_follow_the_group_geometry(dims, axes, oversampling):
    grid = ImageGrid(dims, (100.0, 100.0))
    cand = build_cartesian_candidates(grid, oversampling, axes, n_coils=1)
    for block in (0, 3, 4):
        pattern = poisson_disc_pattern(cand, 3, cand.L // 3, center_block=block, seed=2)
        centre = centre_groups(cand, block)
        assert len(centre) == block ** len(axes)
        assert centre <= set(pattern.kept_groups)
        assert_spaced(cand, pattern, centre)
    if axes != (0, 1):
        with pytest.raises(ValueError):
            caipi_pattern(cand, 4, ry=2, rz=2, shift=1)
        return
    assert set(caipi_pattern(cand, 4, ry=2, rz=2, shift=1).kept_groups) == caipi_groups(
        cand, 2, 2, 1
    )
