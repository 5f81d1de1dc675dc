import itertools
import math

import numpy as np
import pytest

from oedipus import (
    DesignObjective,
    EncodingModel,
    InfeasibleDesignError,
    SupportSet,
    TransformSpec,
    VoxelBasis,
    build_cartesian_candidates,
    build_full_crb,
    default_phantom_spec,
    evaluate_pattern_crb,
    exhaustive_design,
    extract_support,
    ImageGrid,
    pattern_from_groups,
    render_phantom,
    sbs_design,
    synthesize_coil_maps,
)
from oedipus import design
from oedipus.design import _select

from conftest import make_model, noise_map_model, perturb_gram_traces, random_support
from reference import direct_sbs

IDENT = TransformSpec("identity", 0)


def toy_1d_model(n=4, oversampling=1.5):
    """1D candidate set with more locations than voxels (C=1 groups)."""
    grid = ImageGrid((1, n), (10.0, 100.0))
    cand = build_cartesian_candidates(
        grid, oversampling=oversampling, undersample_axes=(1,), n_coils=1
    )
    return EncodingModel(grid, cand, (synthesize_coil_maps(grid, 1),))


def brute_force_costs(model, support, active, objective, spec):
    """Objective of deleting each candidate group, by full re-inversion."""
    costs = []
    for g in active:
        groups = [x for x in active if x != g]
        traces = []
        for t in range(model.T):
            try:
                traces.append(build_full_crb(model, support, spec, t, groups=groups).trace)
            except InfeasibleDesignError:
                traces = None
                break
        costs.append(math.inf if traces is None else objective.combine(traces))
    return costs


def test_objective_modes():
    avg = DesignObjective("average")
    worst = DesignObjective("worst")
    assert avg.combine([1.0, 2.0, 3.0]) == 6.0
    assert worst.combine([1.0, 2.0, 3.0]) == 3.0
    with pytest.raises(ValueError):
        DesignObjective("median")


def test_select_tie_rule():
    assert _select(np.array([5.0, 5.0, 7.0])) == 0
    # near-tie within the relative guard resolves to the first position
    assert _select(np.array([5.0 + 1e-12, 5.0])) == 0
    assert _select(np.array([math.inf, math.inf])) == -1


def test_no_deletions_when_target_is_l():
    model = toy_1d_model()
    support = SupportSet(indices=np.array([0, 2]), q=4)
    pattern = sbs_design(
        model, [support], DesignObjective("average"), model.candidates.L, IDENT
    )
    assert pattern.kept_groups == tuple(range(model.candidates.L))
    assert pattern.log == ()
    assert pattern.R == pytest.approx(1.0)


def test_toy_greedy_vs_exhaustive():
    model = toy_1d_model()  # P = L = 6 candidates, C = 1
    assert model.candidates.L == 6
    support = SupportSet(indices=np.array([1, 3]), q=4)
    objective = DesignObjective("average")
    pattern = sbs_design(model, [support], objective, 3, IDENT)
    opt = exhaustive_design(model, [support], 3, IDENT)
    # enumeration covers C(6,3) = 20 subsets
    assert math.comb(6, 3) == 20
    assert opt.log[0] <= pattern.log[-1] * (1 + 1e-9)
    # first-step choice matches brute-force recomputation over all 6 groups
    costs = brute_force_costs(model, support, list(range(6)), objective, IDENT)
    best = min(costs)
    expected_first = next(
        g for g, c in zip(range(6), costs) if c <= best * (1 + 1e-9)
    )
    assert pattern.deleted[0] == expected_first


def test_greedy_stepwise_matches_brute_force(rng):
    objective = DesignObjective("average")
    for trial in range(5):
        model = toy_1d_model(n=4, oversampling=2.0)  # L = 8
        support = random_support(rng, 4, 3)
        pattern = sbs_design(model, [support], objective, 4, IDENT)
        active = list(range(model.candidates.L))
        for step, chosen in enumerate(pattern.deleted):
            costs = brute_force_costs(model, support, active, objective, IDENT)
            best = min(costs)
            expected = next(
                g for g, c in zip(active, costs) if c <= best * (1 + 1e-9)
            )
            assert chosen == expected, f"trial {trial} step {step}"
            assert pattern.log[step] == pytest.approx(best, rel=1e-7)
            active.remove(chosen)


def test_log_monotone_nondecreasing(rng):
    model = make_model((4, 4))
    support = random_support(rng, 16, 5)
    pattern = sbs_design(model, [support], DesignObjective("average"), 8, IDENT)
    log = np.array(pattern.log)
    assert np.all(np.diff(log) >= -1e-10 * np.abs(log[:-1]))


def test_smw_and_direct_methods_agree(rng):
    spec = TransformSpec("haar", 1)
    model = make_model((4, 8), n_coils=2, undersample_axes=(1,), seed=3)
    support = random_support(rng, 32, 6)
    objective = DesignObjective("average")
    a = sbs_design(model, [support], objective, 4, spec)
    b = direct_sbs(model, [support], objective, 4, spec)
    assert a.deleted == b.deleted
    assert a.kept_groups == b.kept_groups
    np.testing.assert_allclose(a.log, b.log, rtol=1e-7)


def aliasing_ensemble(dims, axes, voxels):
    """Single-coil model with two coil-map sets and one support per voxel list.

    Voxels N/2 apart along an undersampled axis alias on every group at an
    even k offset along it, so late in a design the last odd group turns
    mandatory.
    """
    grid = ImageGrid(dims, (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=axes, n_coils=1)
    maps = tuple(synthesize_coil_maps(grid, 1, seed=s) for s in (1, 2))
    model = EncodingModel(grid=grid, candidates=cand, coil_maps=maps)
    q = dims[0] * dims[1]
    supports = [
        SupportSet(indices=np.array([r0 * dims[1] + r1 for r0, r1 in vox]), q=q)
        for vox in voxels
    ]
    return model, supports


ALIASING_CASES = {
    "C1-2d": (
        (4, 4), (0, 1), 5,
        [[(0, 0), (0, 2), (1, 1), (2, 2)], [(0, 0), (2, 0), (1, 3), (3, 3), (2, 1)]],
    ),
    "C4-lt-S": (
        (4, 8), (1,), 2,
        [
            [(0, 0), (0, 4), (1, 1), (1, 5), (2, 2), (3, 3)],
            [(0, 1), (0, 5), (1, 2), (2, 6), (3, 0), (3, 7), (2, 3)],
        ],
    ),
    "C4-gt-S": ((4, 8), (1,), 2, [[(0, 0), (0, 4), (1, 2)], [(1, 1), (1, 5), (3, 3)]]),
}


@pytest.mark.parametrize("case", sorted(ALIASING_CASES))
def test_smw_and_direct_methods_agree_on_ensembles(case):
    # 2 supports x 2 map sets, worst case; the last deletion prices a
    # mandatory (+inf) group, found here by rebuilding without each group
    dims, axes, target, voxels = ALIASING_CASES[case]
    model, supports = aliasing_ensemble(dims, axes, voxels)
    objective = DesignObjective("worst")
    a = sbs_design(model, supports, objective, target, IDENT)
    b = direct_sbs(model, supports, objective, target, IDENT)
    assert a.deleted == b.deleted
    assert a.kept_groups == b.kept_groups
    np.testing.assert_allclose(a.log, b.log, rtol=1e-7)
    last = sorted(a.kept_groups + a.deleted[-1:])
    rebuilt = [
        evaluate_pattern_crb(
            pattern_from_groups(model.candidates, [x for x in last if x != g], mode="x"),
            model, supports, objective, IDENT,
        )
        for g in last
    ]
    assert math.inf in rebuilt and min(rebuilt) == pytest.approx(a.log[-1], rel=1e-7)


@pytest.mark.parametrize("mode", ["worst", "average"])
@pytest.mark.parametrize("case", sorted(ALIASING_CASES))
def test_lazy_pricing_matches_direct(case, mode):
    # the C4 cases price afresh, so only removals whose lower bound can
    # still win are priced; the C1 case keeps forms and prices every group
    dims, axes, target, voxels = ALIASING_CASES[case]
    model, supports = aliasing_ensemble(dims, axes, voxels)
    objective = DesignObjective(mode)
    a = sbs_design(model, supports, objective, target, IDENT)
    b = direct_sbs(model, supports, objective, target, IDENT)
    assert a.deleted == b.deleted
    np.testing.assert_allclose(a.log, b.log, rtol=1e-7)
    full = sum(4 * (model.candidates.L - i) for i in range(len(a.deleted)))
    assert a.extra["full_pricing"] == full
    assert a.extra["priced"] == full if case == "C1-2d" else a.extra["priced"] < full


@pytest.mark.parametrize("mode", ["worst", "average"])
def test_lazy_costs_select_what_full_pricing_selects(rng, mode):
    # exact removal traces of 3 pairs x 12 groups, with a group near the tie
    # slack of another and a mandatory one, against stale lower bounds: the
    # current trace 1, up to 2 % or up to 3e-9 below the exact value, or equal
    objective = DesignObjective(mode)
    for trial in range(300):
        exact = rng.uniform(1.0, 1.05, (3, 12))
        exact[:, rng.integers(12)] = exact[:, rng.integers(12)] * (1 + rng.uniform(0, 3e-9))
        exact[rng.integers(3), rng.integers(12)] = math.inf
        stale = rng.random((3, 12))
        below = np.where(
            stale < 0.5, rng.uniform(0.98, 1.0, (3, 12)), 1 - rng.uniform(0, 3e-9, (3, 12))
        )
        table = np.where(stale < 0.25, 1.0, exact * below)
        table[stale > 0.85] = exact[stale > 0.85]
        table[0] = exact[0]  # a pair whose bounds are tight
        seen = np.isinf(table)  # +inf bounds are exact and never priced
        full = objective.combine(exact)
        n_seen = np.count_nonzero(seen)

        def price(j, idx):
            assert idx.size and not seen[j, idx].any()
            seen[j, idx] = True
            return exact[j, idx]

        costs, n = design._lazy_costs(objective, table, [2, 1, 0], price)
        i = _select(costs)
        assert i == _select(full), trial
        assert costs[i] == full[i] and np.all(costs <= full)
        assert n == np.count_nonzero(seen) - n_seen
        np.testing.assert_array_equal(table[seen], exact[seen])


def test_lines_of_more_rows_than_support_columns_match_direct(rng):
    # 3 random full-rank coils on 12-point lines against a support of 11:
    # each line keeps 11 rows, priced afresh
    model = noise_map_model(rng, (8, 12), 3, (0,))
    supports = [random_support(rng, model.N, 11)]
    objective = DesignObjective("average")
    pattern = sbs_design(model, supports, objective, 2, IDENT)
    direct = direct_sbs(model, supports, objective, 2, IDENT)
    assert pattern.extra["rows_per_group"] == [11] and pattern.extra["form_pairs"] == []
    assert pattern.deleted == direct.deleted
    np.testing.assert_allclose(pattern.log, direct.log, rtol=1e-7)


def test_an_empty_ensemble_is_rejected():
    # with no pair every cost is 0, so a design would keep the highest groups
    model = make_model((8, 12), undersample_axes=(0,))
    pattern = pattern_from_groups(model.candidates, [4, 5, 6, 7], mode="x")
    objective = DesignObjective("average")
    calls = (
        lambda: sbs_design(model, [], objective, 4, IDENT),
        lambda: exhaustive_design(model, iter([]), 4, IDENT),
        lambda: evaluate_pattern_crb(pattern, model, [], objective, IDENT),
    )
    for call in calls:
        with pytest.raises(ValueError, match="exemplar support"):
            call()


def test_worst_case_pair_ensemble_prices_fewer_removals(rng):
    # two coil-map sets of 2-coil lines: each line compresses to r = 10 rows
    # of S = 10 columns, priced afresh and lazily
    grid = ImageGrid((8, 8), (16.0, 16.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0,), n_coils=2)
    maps = tuple(synthesize_coil_maps(grid, 2, seed=s) for s in (1, 2))
    model = EncodingModel(grid=grid, candidates=cand, coil_maps=maps)
    supports = [random_support(rng, 64, 10)]
    objective = DesignObjective("worst")
    lazy = sbs_design(model, supports, objective, 3, TransformSpec("daub4", 1))
    direct = direct_sbs(model, supports, objective, 3, TransformSpec("daub4", 1))
    assert lazy.extra["form_pairs"] == [] and lazy.extra["rows_per_group"] == [10, 10]
    assert lazy.deleted == direct.deleted
    assert lazy.extra["full_pricing"] == 2 * sum(range(4, 9))
    assert lazy.extra["priced"] < lazy.extra["full_pricing"]


def test_single_pair_kept_forms_prices_every_group_once_per_deletion(rng):
    model = make_model((8, 8))
    pattern = sbs_design(
        model, [random_support(rng, 64, 10)], DesignObjective("average"), 32, IDENT
    )
    assert pattern.extra["form_pairs"] == [(0, 0)]
    assert pattern.extra["priced"] == pattern.extra["full_pricing"] == sum(range(33, 65))


def recursion_case(case):
    """(model, supports, objective, target, spec) of a recursion test case."""
    if case in ALIASING_CASES:
        dims, axes, target, voxels = ALIASING_CASES[case]
        model, supports = aliasing_ensemble(dims, axes, voxels)
        return model, supports, DesignObjective("worst"), target, IDENT
    rng = np.random.default_rng(11)
    spec = TransformSpec("daub4", 2)
    if case == "12x12-C1-daub4":
        supports = [random_support(rng, 144, 22)]
        return make_model((12, 12)), supports, DesignObjective("average"), 72, spec
    model = make_model((8, 8), n_coils=3, seed=2)  # "8x8-C3": 3*16 + 4*9 < 16^2 / 2 keeps forms
    return model, [random_support(rng, 64, 16)], DesignObjective("average"), 32, spec


@pytest.mark.parametrize("case", sorted(ALIASING_CASES) + ["12x12-C1-daub4", "8x8-C3"])
def test_form_recursion_matches_rebuilding_the_forms(monkeypatch, case):
    # a drift limit of 0 rebuilds every pair's forms after each deletion,
    # one of inf never does
    model, supports, objective, target, spec = recursion_case(case)
    runs = {}
    for limit in (0.0, math.inf):
        monkeypatch.setattr(design, "_DRIFT_LIMIT", limit)
        runs[limit] = sbs_design(model, supports, objective, target, spec)
    rebuilt, recursive = runs[0.0], runs[math.inf]
    assert rebuilt.deleted == recursive.deleted
    np.testing.assert_allclose(recursive.log, rebuilt.log, rtol=1e-10)
    n_form_pairs = len(recursive.extra["form_pairs"])
    assert rebuilt.extra["rebuilds"] == n_form_pairs * len(rebuilt.deleted)
    assert recursive.extra["rebuilds"] == 0
    assert 0 <= recursive.extra["max_drift"] < 1e-12
    if case not in ALIASING_CASES:
        assert n_form_pairs == 1
    if case == "8x8-C3":
        direct = direct_sbs(model, supports, objective, target, spec)
        assert recursive.deleted == direct.deleted


def test_pairs_keep_forms_only_when_updating_them_is_cheaper():
    # 8 lines of 8 rows: a support of 4 compresses each line to r = 4 rows
    # (4*4 + 4*16 >= 4^2 / 2, priced afresh); one of 33 keeps r = 8 rows
    # (8*33 + 4*64 < 33^2 / 2), which keeps forms alone but not beside the
    # first; one of 32 sits on the boundary (8*32 + 4*64 = 32^2 / 2), priced afresh
    model = make_model((8, 8), undersample_axes=(0,))
    q = model.N
    rows = [8 * r0 + r1 for r0 in range(4) for r1 in range(8)]
    supports = [
        SupportSet(indices=np.array([0, 9, 18, 27]), q=q),
        SupportSet(indices=np.array(rows + [32]), q=q),
    ]
    objective = DesignObjective("average")
    assert sbs_design(model, supports[1:], objective, 5, IDENT).extra["form_pairs"] == [(0, 0)]
    boundary = [SupportSet(indices=np.array(rows), q=q)]
    assert sbs_design(model, boundary, objective, 5, IDENT).extra["form_pairs"] == []
    pattern = sbs_design(model, supports, objective, 5, IDENT)
    assert pattern.extra["form_pairs"] == [] and pattern.extra["rows_per_group"] == [4, 8]
    direct = direct_sbs(model, supports, objective, 5, IDENT)
    assert pattern.deleted == direct.deleted
    np.testing.assert_allclose(pattern.log, direct.log, rtol=1e-7)
    assert pattern.extra["full_pricing"] == 42


def test_line_groups_of_many_coils_price_lazily():
    # 32 lines of a 32 x 32 grid against a phantom support of S = 154 at daub4
    # 3 levels: 3 coils compress a line to r = 51 rows (51*154 + 4*51^2 >=
    # 154^2 / 2), priced lazily; 1 coil to r = 17 rows, whose forms are kept
    grid = ImageGrid((32, 32), (200.0, 200.0))
    spec = TransformSpec("daub4", 3)
    image = render_phantom(default_phantom_spec(grid, 0)).reshape(grid.dims)
    support = extract_support(image, spec, 0.15)
    assert support.S == 154
    for n_coils, r, form_pairs in ((3, 51, []), (1, 17, [(0, 0)])):
        cand = build_cartesian_candidates(grid, undersample_axes=(0,), n_coils=n_coils)
        maps = (synthesize_coil_maps(grid, n_coils, 5.0, 7),)
        model = EncodingModel(grid=grid, candidates=cand, coil_maps=maps)
        pattern = sbs_design(model, [support], DesignObjective("average"), 31, spec)
        assert pattern.extra["rows_per_group"] == [r]
        assert pattern.extra["form_pairs"] == form_pairs


def test_multi_ensemble_average_objective(rng):
    # K=2 supports x T=2 map sets: log equals the sum of the four traces
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0, 1), n_coils=2)
    from oedipus import EncodingModel, synthesize_coil_maps

    maps = tuple(synthesize_coil_maps(grid, 2, seed=s) for s in (1, 2))
    model = EncodingModel(grid=grid, candidates=cand, coil_maps=maps)
    supports = [random_support(rng, 16, 4), random_support(rng, 16, 5)]
    objective = DesignObjective("average")
    pattern = sbs_design(model, supports, objective, 10, IDENT)
    active = list(range(cand.L))
    for step, g in enumerate(pattern.deleted):
        active.remove(g)
        total = 0.0
        for sup in supports:
            for t in range(2):
                total += build_full_crb(model, sup, IDENT, t, groups=active).trace
        assert pattern.log[step] == pytest.approx(total, rel=1e-7)


@pytest.mark.parametrize("mode", ["worst", "average"])
@pytest.mark.parametrize(
    "oversampling, basis, n_supports",
    [
        pytest.param(1.0, "dirac", 1, id="1.0-dirac"),
        pytest.param(1.5, "rect", 1, id="1.5-rect"),
        pytest.param(1.0, "dirac", 2, id="1.0-dirac-2supports"),
        pytest.param(1.5, "rect", 2, id="1.5-rect-2supports"),
    ],
)
def test_direct_sbs_one_deletion_is_exhaustive(rng, mode, oversampling, basis, n_supports):
    # to L - 1 groups the one greedy deletion tries every subset; 2 map sets,
    # one or two supports.  On the full dirac grid every removal ties, so only
    # the objective is unique; oversampled rect-weighted candidates have one
    # best removal
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, oversampling, undersample_axes=(0, 1), n_coils=2)
    maps = tuple(synthesize_coil_maps(grid, 2, seed=s) for s in (1, 2))
    model = EncodingModel(grid=grid, candidates=cand, coil_maps=maps, basis=VoxelBasis(basis))
    supports = [random_support(rng, 16, 6) for _ in range(n_supports)]
    objective = DesignObjective(mode)
    direct = direct_sbs(model, supports, objective, cand.L - 1, IDENT)
    opt = exhaustive_design(model, supports, cand.L - 1, IDENT, objective)
    assert direct.log == pytest.approx(opt.log, rel=1e-9)
    if basis == "rect":
        active = list(range(cand.L))
        costs = sorted(objective.combine(
            [brute_force_costs(model, s, active, objective, IDENT) for s in supports]
        ))
        assert costs[1] > costs[0] * (1 + 1e-6)
        assert direct.kept_groups == opt.kept_groups


def toy_exhaustive_cases():
    """(model, supports, target, objective) of toy enumerations like those of
    the tests above: the 1D toy at 3 of 6 groups, and the 4 x 4 two-map grids
    at one deletion."""
    rng = np.random.default_rng(0)
    toy = toy_1d_model()
    cases = [(toy, [SupportSet(indices=np.array(ix), q=4)], 3, DesignObjective("average"))
             for ix in ([1, 3], [0, 3], [0, 2], [1, 2])]
    grid = ImageGrid((4, 4), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0, 1), n_coils=2)
    maps = tuple(synthesize_coil_maps(grid, 2, seed=s) for s in (1, 2))
    grid_cases = itertools.product(("dirac", "rect"), (1, 2), ("worst", "average"))
    for basis, n_supports, mode in grid_cases:
        model = EncodingModel(grid, cand, maps, VoxelBasis(basis))
        supports = [random_support(rng, 16, 6) for _ in range(n_supports)]
        cases.append((model, supports, cand.L - 1, DesignObjective(mode)))
    return cases


def test_exhaustive_ties_do_not_follow_rounding_noise(monkeypatch):
    # exact ties are common on these grids (every removal of the full dirac
    # grid ties); the first subset within the tie slack wins whatever the noise
    cases = toy_exhaustive_cases()
    want = [exhaustive_design(m, s, k, IDENT, o).kept_groups for m, s, k, o in cases]
    for seed in (1, 2):
        with monkeypatch.context() as patch:
            perturb_gram_traces(patch, seed)
            got = [exhaustive_design(m, s, k, IDENT, o).kept_groups for m, s, k, o in cases]
        assert got == want, seed


def test_worst_case_objective_uses_max(rng):
    model = make_model((4, 4))
    supports = [random_support(rng, 16, 4), random_support(rng, 16, 4)]
    pattern = sbs_design(model, supports, DesignObjective("worst"), 12, IDENT)
    kept = list(pattern.kept_groups)
    traces = [build_full_crb(model, s, IDENT, 0, groups=kept).trace for s in supports]
    assert pattern.log[-1] == pytest.approx(max(traces), rel=1e-7)


def test_infeasible_budget_detected():
    model = toy_1d_model()
    support = SupportSet(indices=np.arange(4), q=4)  # S=4 > target*C=2
    with pytest.raises(InfeasibleDesignError):
        sbs_design(model, [support], DesignObjective("average"), 2, IDENT)


def test_all_groups_mandatory_reported_with_iteration():
    # two identical coil maps double the budget without adding rank: the
    # precheck passes (target*C = 4 >= S = 3) but any deletion below three
    # distinct locations collapses the rank, so every group turns mandatory
    from oedipus import EncodingModel

    grid = ImageGrid((1, 4), (10.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(1,), n_coils=2)
    model = EncodingModel(
        grid=grid, candidates=cand, coil_maps=(np.ones((2, 4), dtype=complex),)
    )
    support = SupportSet(indices=np.array([0, 1, 2]), q=4)
    with pytest.raises(InfeasibleDesignError) as exc:
        sbs_design(model, [support], DesignObjective("average"), 2, IDENT)
    assert exc.value.iteration == 2


def test_exhaustive_design_toy_and_guards():
    model = toy_1d_model()
    support = SupportSet(indices=np.array([0, 3]), q=4)
    full = exhaustive_design(model, [support], model.candidates.L, IDENT)
    assert full.kept_groups == tuple(range(model.candidates.L))
    with pytest.raises(ValueError):
        big_model = make_model((8, 8))
        exhaustive_design(big_model, [support], 20, IDENT)
    # every subset singular: S exceeds subset row count
    support_big = SupportSet(indices=np.arange(4), q=4)
    with pytest.raises(InfeasibleDesignError):
        exhaustive_design(model, [support_big], 2, IDENT)


def test_exhaustive_matches_manual_enumeration(rng):
    model = toy_1d_model()
    support = random_support(rng, 4, 2)
    target = 3
    best_cost = math.inf
    best_subset = None
    from conftest import dense_candidate_matrix

    rows = dense_candidate_matrix(model)
    for subset in itertools.combinations(range(6), target):
        a = rows[list(subset)][:, support.indices]
        gram = a.conj().T @ a
        w = np.linalg.eigvalsh(gram)
        if w[0] <= 0 or w[-1] / w[0] > 1e12:
            continue
        cost = float(np.sum(1.0 / w))
        if cost < best_cost:
            best_cost = cost
            best_subset = subset
    opt = exhaustive_design(model, [support], target, IDENT)
    # cost ties at float noise make the argmin subset ambiguous; the
    # optimum value is the contract
    assert opt.log[0] == pytest.approx(best_cost, rel=1e-9)
    a = rows[list(opt.kept_groups)][:, support.indices]
    w = np.linalg.eigvalsh(a.conj().T @ a)
    assert float(np.sum(1.0 / w)) <= best_cost * (1 + 1e-9)


def test_evaluate_pattern_full_dft():
    model = make_model((1, 4))
    support = SupportSet(indices=np.arange(4), q=4)
    pattern = pattern_from_groups(
        model.candidates, range(model.candidates.L), mode="full"
    )
    val = evaluate_pattern_crb(
        pattern, model, [support], DesignObjective("average"), IDENT
    )
    assert val == pytest.approx(1.0)


def test_evaluate_matches_final_log(rng):
    model = make_model((4, 8), undersample_axes=(1,))
    support = random_support(rng, 32, 5)
    objective = DesignObjective("average")
    pattern = sbs_design(model, [support], objective, 5, IDENT)
    rescored = evaluate_pattern_crb(pattern, model, [support], objective, IDENT)
    assert rescored == pytest.approx(pattern.log[-1], rel=1e-8)


def test_evaluate_rejects_groups_outside_the_candidate_set(rng):
    # a pattern of 4x4 point groups (L = 16) against the line groups of the
    # same grid (L = 4): the grids match, group 9 does not exist
    points, lines = make_model((4, 4)), make_model((4, 4), undersample_axes=(1,))
    assert points.candidates.grid_dims == lines.candidates.grid_dims
    assert lines.candidates.L == 4
    pattern = pattern_from_groups(points.candidates, [0, 9], mode="x")
    with pytest.raises(ValueError, match=r"group index outside \[0, 4\)"):
        evaluate_pattern_crb(
            pattern, lines, [random_support(rng, 16, 2)], DesignObjective("average"), IDENT
        )


def test_uniform_lattice_aliasing_gives_infinite_objective():
    # keeping every 2nd k-location of an 8-point DFT makes voxels n and n+4
    # indistinguishable; a support containing such a pair is unidentifiable
    grid = ImageGrid((1, 8), (10.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(1,), n_coils=1)
    model = EncodingModel(grid, cand, (synthesize_coil_maps(grid, 1),))
    even_groups = [g for g in range(8) if cand.kidx[cand.group_locs[g][0], 1] % 2 == 0]
    pattern = pattern_from_groups(cand, even_groups, mode="uniform-R2")
    support = SupportSet(indices=np.array([0, 4]), q=8)
    val = evaluate_pattern_crb(
        pattern, model, [support], DesignObjective("average"), IDENT
    )
    assert val == math.inf


def test_pattern_metadata(rng):
    model = make_model((4, 4))
    pattern = pattern_from_groups(model.candidates, [0, 5, 9], mode="x")
    assert pattern.M == 3 * model.candidates.C
    assert pattern.R == pytest.approx(16 / 3)
    assert pattern.mask.sum() == 3
    with pytest.raises(ValueError):
        pattern_from_groups(model.candidates, [], mode="x")
    with pytest.raises(ValueError):
        pattern_from_groups(model.candidates, [99], mode="x")
    with pytest.raises(ValueError):
        evaluate_pattern_crb(
            pattern_from_groups(model.candidates, [0], mode="x"),
            make_model((8, 8)),
            [random_support(rng, 64, 3)],
            DesignObjective("average"),
            IDENT,
        )
