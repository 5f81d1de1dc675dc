import csv
import re
from pathlib import Path

import pytest
import yaml

from oedipus import cli, design, sbs_design
from oedipus import io as oio
from oedipus.errors import SolverFailureError

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))


def write_config(tmp_path, **overrides):
    """Tiny single-channel 2D experiment: 16x16, R=2, one test phantom."""
    doc = {
        "grid": {"dims": [16, 16]},
        "transform": {"family": "daub4", "levels": 2},
        "accelerations": [2],
        "test_phantoms": {"seeds": [3], "noise_sigma": 0.001},
        "baselines": {"caipi": {}, "poisson": {"seeds": [1, 2], "center_block": 4}},
        "recon": {"max_iters": 10},
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def read_csv(path, skip=0):
    lines = path.read_text().splitlines()[skip:]
    return list(csv.DictReader(lines))


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_baseline_then_evaluate_end_to_end(tmp_path):
    config = write_config(tmp_path)
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 0
    out = tmp_path / "out"
    report = read_csv(out / "report.csv", skip=2)
    seeds = read_csv(out / "poisson_seeds.csv")

    cells = [(r["pattern_id"].split("_")[0], r["phantom"], r["regularizer"]) for r in report]
    kinds, regs = ("uniform", "caipi", "poisson"), ("wavelet", "tv")
    assert sorted(cells) == sorted((k, "phantom3", reg) for k in kinds for reg in regs)
    # every cell ran; some stop at recon.max_iters: 10
    assert all(r["status"] in ("ok", "max_iters") for r in report + seeds)
    assert all(float(r["nrmse"]) > 0 for r in report + seeds)
    assert len(seeds) == 4 and {r["pattern_id"] for r in seeds} == {
        "poisson_R2_seed01",
        "poisson_R2_seed02",
    }
    for row in report:
        if row["pattern_id"].startswith("poisson"):
            same = [s for s in seeds if s["regularizer"] == row["regularizer"]]
            best = min(same, key=lambda s: float(s["nrmse"]))
            assert (row["pattern_id"], row["nrmse"], row["iters"]) == (
                best["pattern_id"],
                best["nrmse"],
                best["iters"],
            )


def test_solver_failures_are_rows_and_exit_5(tmp_path, capsys):
    config = write_config(tmp_path, recon={"max_iters": 10, "inner_max_iters": 1})
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 5
    out = tmp_path / "out"
    report = read_csv(out / "report.csv", skip=2)
    seeds = read_csv(out / "poisson_seeds.csv")
    assert len(report) == 6 and len(seeds) == 4
    for row in report + seeds:
        assert (row["status"], row["iters"], row["nrmse"]) == ("solver_failure", "", "")
    # every Poisson seed failed: the report keeps the first seed's row
    poisson = {r["pattern_id"] for r in report if r["pattern_id"].startswith("poisson")}
    assert poisson == {"poisson_R2_seed01"}
    assert "cells failed" in capsys.readouterr().err


def test_capped_cells_are_max_iters_rows_and_exit_0(tmp_path):
    config = write_config(tmp_path, recon={"max_iters": 1})
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 0
    out = tmp_path / "out"
    rows = read_csv(out / "report.csv", skip=2) + read_csv(out / "poisson_seeds.csv")
    assert len(rows) == 10
    for row in rows:
        assert (row["status"], row["iters"]) == ("max_iters", "1")
        assert float(row["nrmse"]) > 0
    assert len(list((out / "recon").iterdir())) == 8


def test_one_failing_pattern_leaves_the_other_cells(tmp_path, monkeypatch):
    solve = cli.irls_solve

    def failing_seed1(problem):
        if problem.pattern.mode == "poisson/R2/seed1":
            raise SolverFailureError("injected")
        return solve(problem)

    monkeypatch.setattr(cli, "irls_solve", failing_seed1)
    config = write_config(tmp_path)
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 5
    out = tmp_path / "out"
    report = read_csv(out / "report.csv", skip=2)
    seeds = read_csv(out / "poisson_seeds.csv")
    assert all(r["status"] in ("ok", "max_iters") for r in report)
    assert {r["pattern_id"] for r in report if r["pattern_id"].startswith("poisson")} == {
        "poisson_R2_seed02"
    }
    status = {(r["pattern_id"], r["regularizer"]): r["status"] for r in seeds}
    assert status[("poisson_R2_seed01", "tv")] == "solver_failure"
    assert status[("poisson_R2_seed02", "tv")] in ("ok", "max_iters")
    assert sorted(p.name for p in (out / "recon").iterdir()) == sorted(
        f"{stem}_single_phantom3_{reg}.pgm"
        for stem in ("uniform_R2", "caipi_R2", "poisson_R2_seed02")
        for reg in ("wavelet", "tv")
    )


@pytest.mark.parametrize(
    "command, override, key",
    [
        ("design", {"channels": "single"}, "channels"),
        ("baseline", {"baselines": {"caipi": True}}, "baselines.caipi"),
        ("evaluate", {"recon": {"lamda": 5.0}}, "recon.lamda"),
        ("design", {"transform": {"levels": 5}}, "transform.levels"),
        ("design", {"recon": {"lambda": 0.0}}, "recon.lambda"),
        ("design", {"accelerations": [0]}, "accelerations"),
        ("design", {"accelerations": [2, 0.5]}, "accelerations"),
        ("design", {"fraction": 0}, "fraction"),
        ("design", {"fraction": 1.5}, "fraction"),
        ("design", {"fraction": -0.1}, "fraction"),
        ("design", {"oversampling": 0.5}, "oversampling"),
        ("design", {"oversampling": 0}, "oversampling"),
        ("design", {"undersample_axes": [], "baselines": None}, "undersample_axes"),
        ("design", {"undersample_axes": [2], "baselines": None}, "undersample_axes"),
        ("design", {"channels": {"multi": {"n_coils": 0}}}, "channels.multi.n_coils"),
        ("design", {"channels": {"multi": {"decay": -1}}}, "channels.multi.decay"),
        ("design", {"grid": {"dims": [16, 16], "fov": [200.0]}}, "grid.fov"),
        ("baseline", {"grid": {"dims": [16]}}, "grid.dims"),
        ("design", {"exemplars": {"phantom_seeds": []}}, "exemplars.phantom_seeds"),
        ("evaluate", {"test_phantoms": {"seeds": []}}, "test_phantoms.seeds"),
        (
            "design",
            {"channels": {"multi": {"map_seeds": [], "eval_map_seed": 9}}},
            "channels.multi.map_seeds",
        ),
        ("evaluate", {"recon": {"max_iters": 0}}, "recon.max_iters"),
        ("evaluate", {"recon": {"inner_max_iters": 0}}, "recon.inner_max_iters"),
    ],
)
def test_config_shape_errors_exit_2_and_name_the_key(tmp_path, capsys, command, override, key):
    config = write_config(tmp_path, **override)
    assert run(command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()


def test_poisson_centre_block_above_target_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, baselines={"poisson": {"seeds": [1]}})
    assert run("baseline", config) == 2
    assert "acceleration 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "patterns").exists()


def test_design_falls_back_when_the_largest_acceleration_is_infeasible(tmp_path, capsys):
    # 256 groups of one row and a support of 39: R = 8 keeps 32 rows, too few
    config = write_config(tmp_path, accelerations=[3, 8, 2])
    assert run("design", config) == 3
    out, err = capsys.readouterr()
    assert [line.split(";")[0] for line in out.splitlines()] == [
        "designed designed_single_R3: kept 85 groups",
        "designed designed_single_R2: kept 128 groups",
    ]
    assert "designed_single_R8: support 0 has size 39" in err
    pdir = tmp_path / "out" / "patterns"
    assert not (pdir / "designed_single_R8.json").exists()
    cfg = cli.load_config(config)
    model = cli._model(cfg, "single", ())
    _, supports = cli._exemplars(cfg)
    for r, target in ((3, 85), (2, 128)):
        # each pattern is the one a run to its own target designs
        want = sbs_design(model, supports, cfg["objective"], target, cfg["transform"])
        assert (pdir / f"designed_single_R{r}.json").read_text() == oio.pattern_to_json(want)


@pytest.mark.parametrize("limit", [0.0, 1e-10])
def test_design_prints_the_drift_and_rebuilds_of_its_forms(tmp_path, capsys, monkeypatch, limit):
    # 256 one-row groups, 128 deletions; a drift limit of 0 rebuilds the
    # forms after every deletion
    monkeypatch.setattr(design, "_DRIFT_LIMIT", limit)
    assert run("design", write_config(tmp_path)) == 0
    (line,) = capsys.readouterr().out.splitlines()
    pattern = (
        r"designed designed_single_R2: kept 128 groups; drift (\S+), (\d+) rebuilds; "
        r"priced (\d+)% of removals"
    )
    match = re.fullmatch(pattern, line)
    assert match is not None, line
    assert 0.0 <= float(match[1]) < 1e-12
    assert int(match[2]) == (128 if limit == 0.0 else 0)
    assert int(match[3]) == 100  # one pair that keeps its forms prices every group


def test_selftest_exit_codes(capsys):
    assert run("selftest") == 0
    assert run("selftest", "--inject-fault", "wavelet") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_example_configs_load(path):
    cfg = cli.load_config(path)
    assert cfg["accelerations"] and cfg["output_dir"].parts[0] == "runs"


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [key for key in cli.CONFIG_KEYS if f"| `{key}` |" not in readme] == []
