import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from oedipus import (
    ImageGrid, build_cartesian_candidates, caipi_pattern, cli, design, sbs_design, sparsity,
)
from oedipus import io as oio
from oedipus import recon
from oedipus.errors import GenerationFailureError, SolverFailureError

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


@pytest.mark.parametrize("oversampling", [1.0, 1.5])
def test_baseline_then_evaluate_end_to_end(tmp_path, oversampling):
    config = write_config(tmp_path, oversampling=oversampling)
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
    assert all(0 < float(r["crb_objective"]) < math.inf for r in seeds)
    for row in report:
        if row["pattern_id"].startswith("poisson"):
            same = [s for s in seeds if s["regularizer"] == row["regularizer"]]
            best = min(same, key=lambda s: float(s["nrmse"]))
            assert (row["pattern_id"], row["nrmse"], row["iters"]) == (
                best["pattern_id"],
                best["nrmse"],
                best["iters"],
            )


def test_report_keeps_one_poisson_row_per_nominal_acceleration(tmp_path):
    # 16 lines at R = 2: seed 1 keeps 8 lines (R 2), seed 2 keeps 7 (R 2.2857)
    baselines = {"uniform": False, "poisson": {"seeds": [1, 2], "center_block": 0}}
    config = write_config(tmp_path, undersample_axes=[0], baselines=baselines)
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 0
    out = tmp_path / "out"
    report = read_csv(out / "report.csv", skip=2)
    seeds = read_csv(out / "poisson_seeds.csv")
    assert sorted({r["R"] for r in seeds}) == ["2.0", "2.2857142857142856"]
    assert sorted(r["regularizer"] for r in report) == ["tv", "wavelet"]
    for row in report:
        same = [s for s in seeds if s["regularizer"] == row["regularizer"]]
        assert row["nrmse"] == min(same, key=lambda s: float(s["nrmse"]))["nrmse"]


def test_evaluate_two_channel_modes_shares_only_the_baselines(tmp_path):
    channels = {"single": True, "multi": {"n_coils": 2}}
    modes = ["single", "multi"]
    config = write_config(
        tmp_path, channels=channels, evaluate_channels=modes, baselines={"uniform": True}
    )
    for command in ("design", "baseline", "evaluate"):
        assert run(command, config) == 0
    report = read_csv(tmp_path / "out" / "report.csv", skip=2)
    keys = [(r["channels"], r["pattern_id"], r["regularizer"], r["phantom"]) for r in report]
    assert len(set(keys)) == len(keys)  # one row per cell
    assert sorted(keys) == sorted(
        (mode, stem, reg, "phantom3")
        for mode in modes
        for stem in (f"designed_{mode}_R2", "uniform_R2")
        for reg in ("wavelet", "tv")
    )


def cell_values(out):
    """(pattern, channels, regularizer, phantom) -> (nrmse, iters, status) of both CSVs."""
    rows = read_csv(out / "report.csv", skip=2) + read_csv(out / "poisson_seeds.csv")
    return {
        tuple(r[k] for k in ("pattern_id", "channels", "regularizer", "phantom")): tuple(
            r[k] for k in ("nrmse", "iters", "status")
        )
        for r in rows
    }


SMALL = {
    "test_phantoms": {"seeds": [3], "noise_sigma": 0.001},
    "baselines": {"poisson": {"seeds": [1], "center_block": 4}},
    "recon": {"max_iters": 10, "regularizers": ["wavelet"]},
}


@pytest.mark.parametrize(
    "section, key, values",
    [
        ("recon", "regularizers", ["wavelet", "tv"]),
        ("test_phantoms", "seeds", [3, 4]),
        ("baselines", "poisson", {"seeds": [1, 2], "center_block": 4}),
    ],
)
def test_adding_a_cell_leaves_every_existing_cell_unchanged(tmp_path, section, key, values):
    larger = {**SMALL, section: {**SMALL[section], key: values}}
    cells = []
    for name, doc in (("small", SMALL), ("larger", larger)):
        (tmp_path / name).mkdir()
        config = write_config(tmp_path / name, **doc)
        assert run("baseline", config) == 0
        assert run("evaluate", config) == 0
        cells.append(cell_values(tmp_path / name / "out"))
    small, larger = cells
    assert len(larger) > len(small)
    assert {cell: larger[cell] for cell in small} == small


def test_every_regularizer_reconstructs_from_the_acquisition_of_its_phantom(
    tmp_path, monkeypatch
):
    # the cells may run in the pool's worker processes: one log line per call
    solve, log = cli.irls_solve, tmp_path / "solves.log"

    def recording(problem):
        digest = hashlib.sha256(problem.data.tobytes()).hexdigest()
        with open(log, "a") as fh:
            fh.write(f"{problem.pattern.mode}\t{digest}\t{problem.regularizer}\n")
        return solve(problem)

    monkeypatch.setattr(cli, "irls_solve", recording)
    config = write_config(tmp_path, test_phantoms={"seeds": [3, 4], "noise_sigma": 0.001})
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 0
    seen = {}
    for line in log.read_text().splitlines():
        mode, digest, regularizer = line.split("\t")
        seen.setdefault((mode, digest), []).append(regularizer)
    # 4 patterns x 2 phantoms: 8 acquisitions, each reconstructed by both regularizers
    assert len(seen) == 8
    assert all(sorted(regs) == ["tv", "wavelet"] for regs in seen.values())


def count_started_children(monkeypatch) -> list:
    """A list that gains one entry per process started from now on."""
    started, start = [], multiprocessing.process.BaseProcess.start

    def counted(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


@pytest.mark.parametrize("cap, code", [(recon._INNER_MAX_ITERS, 0), (1, 5)], ids=["ok", "exit5"])
def test_the_process_pool_leaves_every_output_unchanged(tmp_path, monkeypatch, cap, code):
    # a CG cap of one step fails every cell; forked children inherit the patch
    monkeypatch.setattr(recon, "_INNER_MAX_ITERS", cap)
    trees = {}
    for cpus in (1, 2):
        base = tmp_path / f"cpus{cpus}"
        base.mkdir()
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        config = write_config(base)
        assert run("baseline", config) == 0
        started = count_started_children(monkeypatch)
        assert run("evaluate", config) == code
        assert len(started) == cpus - 1  # the parent takes the last share itself
        assert multiprocessing.active_children() == []
        out = config.parent / "out"
        files = [out / "report.csv", out / "poisson_seeds.csv", *(out / "recon").iterdir()]
        trees[cpus] = {f.relative_to(out): f.read_bytes() for f in files}
    assert trees[1] == trees[2]
    assert len(trees[1]) == (10 if code == 0 else 2)  # 8 images when no cell failed
    # each Poisson row carries the CRB objective of its own pattern
    cfg = cli.load_config(config)
    model, (_, supports) = cli._model(cfg, "single", ()), cli._exemplars(cfg)
    patterns = dict(cli._load_patterns(cfg, model.candidates))
    for row in read_csv(out / "poisson_seeds.csv"):
        crb = cli._pattern_crb(cfg, patterns[row["pattern_id"]], model, supports)
        assert float(row["crb_objective"]) == pytest.approx(crb, rel=1e-9)


def test_a_failing_task_exits_4_and_leaves_no_worker(tmp_path, monkeypatch, capsys):
    write_pgm = oio.write_pgm

    def failing(path, *args, **kwargs):
        if path.name == "caipi_R2_single_phantom3_tv.pgm":
            raise OSError(f"{path}: injected write failure")
        return write_pgm(path, *args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(oio, "write_pgm", failing)
    config = write_config(tmp_path)
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 4
    assert "i/o error" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def failing_in(where, task, parent, reached):
    """``task`` that raises an ``OSError`` when it runs in the ``parent`` process
    (``where`` "parent") or in a child; the child sets ``reached`` first, and
    the parent's tasks wait for it, so a child is sure to take one."""
    def wrapped(*args):
        in_parent = os.getpid() == parent
        if in_parent == (where == "parent"):
            reached.set()
            raise OSError(f"injected failure in the {where}")
        if in_parent:
            assert reached.wait(30)
        return task(*args)
    return wrapped


@pytest.mark.parametrize("where", ["parent", "child"])
def test_a_failing_task_in_either_share_exits_4_and_joins_every_child(
    tmp_path, monkeypatch, capsys, where
):
    reached = multiprocessing.get_context("fork").Event()
    for name in ("_pattern_crb", "_run_cell"):
        monkeypatch.setattr(cli, name, failing_in(where, getattr(cli, name), os.getpid(), reached))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    config = write_config(tmp_path)
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 4
    assert f"i/o error: injected failure in the {where}" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_tasks_run_in_order_and_a_dead_child_is_an_error(monkeypatch):
    tasks = [(pow, (2, i)) for i in range(40)]
    for cpus in (1, 2, 3, 64):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert cli._run_tasks(tasks) == [2**i for i in range(40)]
    assert cli._run_tasks([]) == []
    # a child that exits without a result fails the run once it is joined
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    parent, reached = os.getpid(), multiprocessing.get_context("fork").Event()

    def exit_in_child():
        if os.getpid() != parent:
            reached.set()
            os._exit(3)

    with pytest.raises(ChildProcessError, match=r"exited with code \[3\]"):
        cli._run_tasks([(exit_in_child, ()), (reached.wait, (30,))])
    assert multiprocessing.active_children() == []


def test_solver_failures_are_rows_and_exit_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(recon, "_INNER_MAX_ITERS", 1)
    config = write_config(tmp_path)
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


def test_each_acquisition_is_synthesized_once_for_every_regularizer(tmp_path, monkeypatch):
    # 4 patterns x 1 test phantom, each reconstructed with 2 regularizers
    synthesize, acquired = cli.retrospective_undersample, []

    def counted(gold, pattern, *args):
        acquired.append(pattern.mode)
        return synthesize(gold, pattern, *args)

    monkeypatch.setattr(cli, "retrospective_undersample", counted)
    config = write_config(tmp_path, recon={"max_iters": 1})
    assert run("baseline", config) == 0
    assert run("evaluate", config) == 0
    assert len(acquired) == len(set(acquired)) == 4


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


IRLS_INTERNALS = ("recon.inner_tol", "recon.inner_max_iters", "recon.epsilon_scale")


def _row(n: int, command: str, override: dict, key: str):
    """A row of the test below; its id, ``{command}-override{n}-{key}``, holds a
    row number fixed in the source, so deleting a row renames no other test.
    A new row takes the next free number."""
    return pytest.param(command, override, key, id=f"{command}-override{n}-{key}")


@pytest.mark.parametrize(
    "command, override, key",
    [
        _row(0, "design", {"channels": "single"}, "channels"),
        _row(1, "baseline", {"baselines": {"caipi": True}}, "baselines.caipi"),
        _row(2, "evaluate", {"recon": {"lamda": 5.0}}, "recon.lamda"),
        _row(3, "design", {"transform": {"levels": 5}}, "transform.levels"),
        _row(4, "design", {"recon": {"lambda": 0.0}}, "recon.lambda"),
        _row(5, "design", {"accelerations": [0]}, "accelerations"),
        _row(6, "design", {"accelerations": [2, 0.5]}, "accelerations"),
        _row(7, "design", {"fraction": 0}, "fraction"),
        _row(8, "design", {"fraction": 1.5}, "fraction"),
        _row(9, "design", {"fraction": -0.1}, "fraction"),
        _row(10, "design", {"oversampling": 0.5}, "oversampling"),
        _row(11, "design", {"oversampling": 0}, "oversampling"),
        _row(12, "design", {"undersample_axes": [], "baselines": None}, "undersample_axes"),
        _row(13, "design", {"undersample_axes": [2], "baselines": None}, "undersample_axes"),
        _row(14, "design", {"channels": {"multi": {"n_coils": 0}}}, "channels.multi.n_coils"),
        _row(15, "design", {"channels": {"multi": {"decay": -1}}}, "channels.multi.decay"),
        _row(16, "design", {"grid": {"dims": [16, 16], "fov": [200.0]}}, "grid.fov"),
        _row(17, "baseline", {"grid": {"dims": [16]}}, "grid.dims"),
        _row(18, "design", {"exemplars": {"phantom_seeds": []}}, "exemplars.phantom_seeds"),
        _row(19, "evaluate", {"test_phantoms": {"seeds": []}}, "test_phantoms.seeds"),
        _row(
            20,
            "design",
            {"channels": {"multi": {"map_seeds": [], "eval_map_seed": 9}}},
            "channels.multi.map_seeds",
        ),
        _row(21, "evaluate", {"recon": {"max_iters": 0}}, "recon.max_iters"),
        _row(22, "evaluate", {"recon": {"inner_max_iters": 200}}, "recon.inner_max_iters"),
        _row(23, "evaluate", {"recon": {"regularizers": []}}, "recon.regularizers"),
        _row(24, "evaluate", {"recon": {"regularizers": ["l2"]}}, "recon.regularizers"),
        _row(25, "evaluate", {"evaluate_channels": []}, "evaluate_channels"),
        _row(26, "evaluate", {"evaluate_channels": ["dual"]}, "evaluate_channels"),
        _row(27, "baseline", {"undersample_axes": [0]}, "baselines.caipi"),
        _row(28, "design", {"channels": {"single": False}}, "channels.single"),
        _row(29, "evaluate", {"evaluate_channels": ["multi"]}, "channels.multi"),
        _row(30, "evaluate", {"recon": {"inner_tol": 1e-6}}, "recon.inner_tol"),
        _row(31, "evaluate", {"recon": {"epsilon_scale": 1e-6}}, "recon.epsilon_scale"),
        _row(32, "evaluate", {"recon": {"epsilon_scale": 1e-3}}, "recon.epsilon_scale"),
        _row(
            33,
            "evaluate",
            {"test_phantoms": {"noise_sigma": -0.5}},
            "test_phantoms.noise_sigma",
        ),
        _row(
            34,
            "baseline",
            {"baselines": {"poisson": {"seeds": [1], "center_block": -6}}},
            "baselines.poisson.center_block",
        ),
        _row(
            35,
            "evaluate",
            {"recon": {"regularizers": ["wavelet", "wavelet"]}},
            "recon.regularizers",
        ),
        _row(36, "evaluate", {"evaluate_channels": ["single", "single"]}, "evaluate_channels"),
        _row(37, "evaluate", {"test_phantoms": {"seeds": [3, 3]}}, "test_phantoms.seeds"),
        _row(38, "design", {"exemplars": {"phantom_seeds": [-1]}}, "exemplars.phantom_seeds"),
        _row(
            39,
            "design",
            {"channels": {"multi": {"map_seeds": [-2]}}},
            "channels.multi.map_seeds",
        ),
        _row(40, "evaluate", {"test_phantoms": {"seeds": [-1]}}, "test_phantoms.seeds"),
        _row(
            41,
            "evaluate",
            {"test_phantoms": {"seeds": [3], "noise_sigma": 0.1, "noise_seed": -3}},
            "test_phantoms.noise_seed",
        ),
        _row(
            42,
            "evaluate",
            {"channels": {"multi": {"eval_map_seed": -1}}, "evaluate_channels": ["multi"]},
            "channels.multi.eval_map_seed",
        ),
        _row(
            43,
            "baseline",
            {"baselines": {"poisson": {"seeds": [-1], "center_block": 4}}},
            "baselines.poisson.seeds",
        ),
        _row(
            44,
            "evaluate",
            {"grid": {"dims": [1, 16]}, "transform": {"family": "identity"},
             "recon": {"regularizers": ["tv"]}},
            "recon.regularizers",
        ),
        _row(45, "design", {"oversampling": math.inf}, "oversampling"),
        _row(46, "baseline", {"oversampling": math.inf}, "oversampling"),
        _row(47, "evaluate", {"oversampling": math.inf}, "oversampling"),
        _row(48, "design", {"grid": {"dims": [16.5, 16]}}, "grid.dims"),
        _row(49, "design", {"grid": {"dims": [16, 16], "fov": [math.nan, 200.0]}}, "grid.fov"),
        _row(50, "design", {"channels": {"single": "false"}}, "channels.single"),
        _row(51, "evaluate", {"recon": {"max_iters": True}}, "recon.max_iters"),
        _row(
            52,
            "evaluate",
            {"test_phantoms": {"seeds": [3], "noise_sigma": math.inf}},
            "test_phantoms.noise_sigma",
        ),
        _row(53, "design", {"accelerations": [2, 1000]}, "acceleration 1000: leaves none"),
        _row(54, "baseline", {"accelerations": [2, 1000]}, "acceleration 1000: leaves none"),
        _row(55, "baseline", {"baselines": {"caipi": {"ry": 0}}}, "baselines.caipi.ry"),
        _row(56, "baseline", {"baselines": {"caipi": {"rz": 0}}}, "baselines.caipi.rz"),
        _row(57, "design", {"transform": {"levels": 0}}, "transform.levels"),
        _row(58, "design", {"transform": {"family": "db8"}}, "transform.family"),
        _row(
            59,
            "baseline",
            {"accelerations": [4], "baselines": {"caipi": {"ry": 3}}},
            "acceleration 4: baselines.caipi.ry",
        ),
        _row(60, "evaluate", {"recon": {"tol": -1.0}}, "recon.tol"),
        _row(61, "evaluate", {"recon": {"tol": 0.0}}, "recon.tol"),
    ],
)
def test_config_shape_errors_exit_2_and_name_the_key(tmp_path, capsys, command, override, key):
    config = write_config(tmp_path, **override)
    assert run(command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    if key in IRLS_INTERNALS:  # constants of recon, whatever the value
        assert f"unknown config key {key!r}" in err
    assert not (tmp_path / "out").exists()


def test_every_default_passes_its_own_converter():
    for key, (convert, default) in cli.CONFIG_KEYS.items():
        if default is not cli.REQUIRED and default is not None:
            convert(default)


def test_identity_transform_takes_zero_levels(tmp_path):
    transform = {"family": "identity", "levels": 0}
    cfg = cli.load_config(write_config(tmp_path, transform=transform))
    assert (cfg["transform"].family, cfg["transform"].levels) == ("identity", 0)


def test_field_of_view_changes_no_output(tmp_path):
    # k-space is in grid units, so the field of view cancels from every row,
    # Gram and CRB; the rect basis is where it used to enter
    trees = []
    for fov in ([200.0, 200.0], [50.0, 300.0]):
        root = tmp_path / f"fov_{fov[0]:g}_{fov[1]:g}"
        root.mkdir()
        config = write_config(root, grid={"dims": [16, 16], "fov": fov}, basis="rect")
        for command in ("design", "baseline", "evaluate"):
            assert run(command, config) == 0
        out = root / "out"
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert trees[0].keys() == trees[1].keys()
    assert [p for p in trees[0] if trees[0][p] != trees[1][p]] == []


def test_a_yaml_exponent_without_a_dot_is_a_number(tmp_path):
    # YAML 1.1 reads 1e-7 as a string
    cfg = cli.load_config(write_config(tmp_path, recon={"tol": "1e-7", "max_iters": "10"}))
    assert (cfg["recon.tol"], cfg["recon.max_iters"]) == (1e-7, 10)


def test_poisson_centre_block_above_target_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, baselines={"poisson": {"seeds": [1]}})
    assert run("baseline", config) == 2
    assert "acceleration 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "patterns").exists()


def test_poisson_generation_failure_is_a_config_error(tmp_path, capsys, monkeypatch):
    def missing(*args):
        raise GenerationFailureError("bisection missed the target")

    monkeypatch.setattr(cli, "poisson_disc_pattern", missing)
    assert run("baseline", write_config(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: acceleration 2:") and "bisection missed" in err
    assert not (tmp_path / "out" / "patterns").exists()


def test_caipi_rz_defaults_to_r_over_ry(tmp_path):
    config = write_config(tmp_path, accelerations=[4], baselines={"caipi": {"ry": 2}})
    assert run("baseline", config) == 0
    grid = ImageGrid((16, 16), (200.0, 200.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0, 1), n_coils=1)
    doc = json.loads((tmp_path / "out" / "patterns" / "caipi_R4.json").read_text())
    assert tuple(doc["kept_groups"]) == caipi_pattern(cand, 4, 2, 2, 1).kept_groups


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
    model = cli._model(cfg, "single", (7, 8))
    assert model.T == 1  # one all-ones map set, whatever the map seeds
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
        r"priced (\d+)% of removals; (\d+) rows per group"
    )
    match = re.fullmatch(pattern, line)
    assert match is not None, line
    assert 0.0 <= float(match[1]) < 1e-12
    assert int(match[2]) == (128 if limit == 0.0 else 0)
    assert int(match[3]) == 100  # one pair that keeps its forms prices every group
    assert int(match[4]) == 1  # one location, one coil


def test_design_prints_the_run_statistics_only_where_the_run_ended(tmp_path, capsys):
    assert run("design", write_config(tmp_path, accelerations=[2, 3])) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "designed designed_single_R2: kept 128 groups"
    assert re.fullmatch(
        r"designed designed_single_R3: kept 85 groups; drift \S+, \d+ rebuilds; "
        r"priced \d+% of removals; 1 rows per group",
        lines[1],
    ), lines[1]
    assert len(lines) == 2


@pytest.mark.parametrize("fault", ["malformed", "other_grid"])
def test_unusable_pattern_file_exits_4_and_names_it(tmp_path, capsys, fault):
    config = write_config(tmp_path)
    assert run("baseline", config) == 0
    path = tmp_path / "out" / "patterns" / "uniform_R2.json"
    if fault == "malformed":
        path.write_text('{"grid": [16, 16], ')
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), "grid": [8, 8]}))
    assert run("evaluate", config) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(path) in err
    assert not (tmp_path / "out" / "report.csv").exists()
    assert not (tmp_path / "out" / "recon").exists()


def test_selftest_exit_codes(capsys, monkeypatch):
    assert run("selftest") == 0
    # the DWT matrices are cached by their taps, so perturbed taps take effect
    monkeypatch.setitem(sparsity._FILTERS, "daub4", sparsity._FILTERS["daub4"] + 1e-3)
    assert run("selftest") == 1
    assert "FAIL" in capsys.readouterr().out


def test_selftest_covariance_check_runs_the_oracle_estimator(capsys, monkeypatch):
    estimate = cli.oracle_lsq_estimate
    monkeypatch.setattr(cli, "oracle_lsq_estimate", lambda *args: 1.5 * estimate(*args))
    assert run("selftest") == 1
    (line,) = [x for x in capsys.readouterr().out.splitlines() if "oracle-covariance-mc" in x]
    assert line.startswith("FAIL")


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_example_configs_load(path):
    cfg = cli.load_config(path)
    assert cfg["accelerations"] and cfg["output_dir"].parts[0] == "runs"


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_example_configs_parse_alike_under_both_yaml_loaders(path):
    # load_config parses with libyaml where PyYAML was built with it
    text, fast = path.read_text(), getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert yaml.load(text, Loader=fast) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("libyaml", [True, False])
def test_an_unparsable_config_exits_2_and_names_the_file(tmp_path, capsys, monkeypatch, libyaml):
    if not libyaml:  # the pure-Python parser, as without libyaml
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "broken.yaml"
    path.write_text("grid: {dims: [16, 16]\naccelerations: [2]\n")
    assert run("design", path) == 2
    assert f"cannot parse {path}" in capsys.readouterr().err


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique and np.setdiff1d import numpy.ma, about 15 ms in every process
    config = write_config(tmp_path, oversampling=1.5, grid={"dims": [8, 8]})
    script = (
        "import sys\nfrom oedipus import cli\n"
        "for command in ('design', 'baseline', 'evaluate'):\n"
        f"    assert cli.main([command, {str(config)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [key for key in cli.CONFIG_KEYS if f"| `{key}` |" not in readme] == []
