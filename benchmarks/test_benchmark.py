"""Tests of the benchmark's own code: the oracle, the tracer, the metric list.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import oedipus
import oracle
import tracer as tracer_mod
import worker
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _tiny_model(axes):
    grid = oedipus.ImageGrid((8, 8), (100.0, 100.0))
    cand = oedipus.build_cartesian_candidates(grid, undersample_axes=axes, n_coils=2)
    maps = oedipus.synthesize_coil_maps(grid, 2, seed=3)
    return oedipus.EncodingModel(grid=grid, candidates=cand, coil_maps=(maps,)), maps


@pytest.mark.parametrize("family,levels", [("haar", 2), ("daub4", 3)])
def test_oracle_dwt_matches_program(family, levels):
    rng = np.random.default_rng(0)
    image = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    program = oedipus.forward_transform(image, oedipus.TransformSpec(family, levels))
    assert np.allclose(oracle.dwt(image, family, levels), program, atol=1e-12)
    basis = oracle.atoms((8, 8), family, levels, np.arange(64))
    assert np.allclose(basis @ basis.T, np.eye(64), atol=1e-12)


@pytest.mark.parametrize("axes", [(0, 1), (0,)])
@pytest.mark.parametrize("family,levels", [("haar", 2), ("daub4", 3)])
def test_oracle_agrees_with_build_full_crb(axes, family, levels):
    rng = np.random.default_rng(7)
    model, maps = _tiny_model(axes)
    spec = oedipus.TransformSpec(family, levels)
    support = oedipus.SupportSet(indices=rng.choice(64, 12, replace=False), q=64)
    ens = oracle.Ensemble((8, 8), axes, [maps], [support.indices], family, levels)
    n_groups = model.candidates.L
    for groups in (range(n_groups), sorted(rng.choice(n_groups, 3 * n_groups // 4, replace=False))):
        state = oedipus.build_full_crb(model, support, spec, 0, groups=groups)
        (trace,) = ens.traces(groups)
        assert trace == pytest.approx(state.trace, rel=1e-10)


def test_oracle_deletion_traces_match_downdates():
    rng = np.random.default_rng(3)
    model, maps = _tiny_model((0, 1))
    spec = oedipus.TransformSpec("haar", 2)
    support = oedipus.SupportSet(indices=rng.choice(64, 12, replace=False), q=64)
    state = oedipus.build_full_crb(model, support, spec, 0)
    ens = oracle.Ensemble((8, 8), (0, 1), [maps], [support.indices], "haar", 2)
    want = [t[0] for t in ens.deletion_traces(range(model.candidates.L))]
    for g in (0, 17, 40):
        block = oedipus.restricted_block(model, support, spec, g, 0)
        assert oedipus.downdate_trace(state, block) == pytest.approx(want[g], rel=1e-9)


def _bindings():
    """Every attribute of every loaded oedipus module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("oedipus"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    out[(name, attr, meth)] = fn
    return out


def test_tracer_wraps_importers_and_restores_everything():
    import oedipus.cli  # noqa: F401  (imports crb and sparsity names)

    before = _bindings()
    t = tracer_mod.Tracer()
    t.install()
    try:
        import oedipus.design as design

        assert design.downdate_trace is not before[("oedipus.design", "downdate_trace")]
        assert oedipus.cli.build_full_crb is not before[("oedipus.cli", "build_full_crb")]
        assert oedipus.crb.restricted_block is design.restricted_block
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) >= len(tracer_mod.SPAN_NAMES)
    finally:
        t.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_self_time_per_thread_and_counts():
    model, _ = _tiny_model((0, 1))
    spec = oedipus.TransformSpec("haar", 2)
    support = oedipus.SupportSet(indices=np.arange(0, 64, 4), q=64)
    t = tracer_mod.Tracer()
    with t:
        pattern = oedipus.sbs_design(
            model, [support], oedipus.DesignObjective("average"), 48, spec, workers=2
        )
    calls, incl, own = t.stats["design.sbs_design"]
    assert calls == 1 and 0 < own <= incl
    assert t.stats["crb.downdate_trace"][0] > 0
    assert t.counts["deletions"] == len(pattern.deleted) == 16
    assert 0 <= t.counts["infinite"] < t.stats["crb.downdate_trace"][0]
    # sbs_design is the only outermost call on this thread; the downdates
    # its pool ran are self time of the layers below it.
    assert t.top_self_s == pytest.approx(own, rel=1e-9)
    assert t.stats["crb.downdate_trace"][2] > 0


def test_tracer_skips_functions_the_program_lacks(monkeypatch):
    monkeypatch.delattr(oedipus.baselines, "caipi_pattern")
    t = tracer_mod.Tracer()
    with t:
        pass
    assert t.stats["baselines.caipi_pattern"] == [0, 0.0, 0.0]


def test_quiet_median_drops_rounds_with_steal():
    rounds = worker.Times([3.0, 1.0, 2.0, 9.0, 8.0], [0.0] * 5, [0.0, 0.0, 0.5, 5.0, 1.0])
    assert rounds.quiet_median() == 2.0  # rounds 0 to 2 are the least-steal half
    rounds = worker.Times([3.0, 1.0, 2.0, 9.0, 8.0], [0.0] * 5, [0.0, 0.0, 0.5, 0.1, 0.1])
    assert rounds.quiet_median() == 5.5  # only round 2 saw more than 2 % steal
    assert worker.Times([4.0], [4.0], [1.0]).quiet_median() == 4.0


def test_benchmark_json_lists_what_the_worker_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    empty = {
        "stats": {s: [0, 0.0, 0.0] for s in tracer_mod.SPAN_NAMES},
        "counts": dict.fromkeys(tracer_mod.COUNTERS, 0),
        "top_self_s": 0.0,
    }
    times = worker.Times([1.0], [1.0], [0.0])
    metrics = worker.layer_metrics(WORKLOADS["evaluate_2d"], empty, empty, times, times)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {k: v["unit"] for k, v in metrics.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "total_s", "peak_rss_mb"}
