"""Command-line front end: design, baseline, evaluate, selftest.

All experiment parameters live in a YAML config; ``CONFIG_KEYS`` lists
every accepted key with its default (see the README).  Exit codes:
0 success, 1 selftest failure, 2 config error, 3 infeasible acceleration,
4 I/O error, 5 some evaluation cells have ``status`` ``solver_failure``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import io as oio
from . import sparsity
from .baselines import caipi_pattern, poisson_disc_pattern, uniform_pattern
from .crb import (
    build_full_crb,
    downdate_traces,
    image_domain_crb_trace,
    oracle_lsq_estimate,
    restricted_matrix,
    smw_downdate,
)
from .design import (
    DesignObjective,
    evaluate_pattern_crb,
    exhaustive_design,
    pattern_from_groups,
    sbs_design,
)
from .encoding import (
    EncodingModel,
    EncodingOperator,
    ImageGrid,
    VoxelBasis,
    build_cartesian_candidates,
    single_channel_model,
    synthesize_coil_maps,
)
from .errors import InfeasibleDesignError, SolverFailureError
from .phantoms import default_phantom_spec, render_phantom
from .recon import ReconProblem, TvOperator, irls_solve, nrmse, retrospective_undersample
from .sparsity import (
    SupportSet,
    TransformSpec,
    extract_support,
    forward_transform,
    inverse_transform,
)

REPORT_HEADER = "# oedipus-report v1"
SCALING_NOTE = (
    "# scaling: phantom magnitudes in [0,1]; unnormalized DFT encoding rows; "
    "lambda applies to the raw squared-l2 data term"
)
REPORT_COLUMNS = "pattern_id R channels regularizer lambda iters nrmse phantom status".split()
POISSON_COLUMNS = [*REPORT_COLUMNS[:4], "iters", "nrmse", "phantom", "crb_objective", "status"]


class ConfigError(Exception):
    pass


def _tuple(convert):
    return lambda values: tuple(convert(v) for v in values)


REQUIRED = object()
# Every accepted key, as a dotted path into the YAML document: (converter,
# default).  A None default is derived in load_config (eval_map_seed) or
# per acceleration in _baselines (rz).
CONFIG_KEYS = {
    "experiment": (str, "experiment"),
    "output_dir": (Path, REQUIRED),
    "grid.dims": (_tuple(int), REQUIRED),
    "grid.fov": (_tuple(float), (200.0, 200.0)),
    "basis": (VoxelBasis, "dirac"),
    "oversampling": (float, 1.0),
    "undersample_axes": (_tuple(int), (0, 1)),
    "transform.family": (str, "daub4"),
    "transform.levels": (int, 3),
    "fraction": (float, 0.15),
    "objective": (DesignObjective, "average"),
    "accelerations": (_tuple(float), REQUIRED),
    "channels.single": (bool, False),
    "channels.multi.n_coils": (int, 4),
    "channels.multi.decay": (float, 5.0),
    "channels.multi.map_seeds": (_tuple(int), (7,)),
    "channels.multi.eval_map_seed": (int, None),
    "exemplars.phantom_seeds": (_tuple(int), (0,)),
    "test_phantoms.seeds": (_tuple(int), (1,)),
    "test_phantoms.noise_sigma": (float, 0.0),
    "test_phantoms.noise_seed": (int, 1),
    "baselines.uniform": (bool, True),
    "baselines.caipi.ry": (int, 1),
    "baselines.caipi.rz": (int, None),
    "baselines.caipi.shift": (int, 1),
    "baselines.poisson.seeds": (_tuple(int), ()),
    "baselines.poisson.center_block": (int, 16),
    "recon.lambda": (float, 0.01),
    "recon.max_iters": (int, 50),
    "recon.tol": (float, 1e-6),
    "recon.inner_tol": (float, 1e-6),
    "recon.inner_max_iters": (int, 200),
    "recon.epsilon_scale": (float, 1e-6),
    "recon.regularizers": (_tuple(str), ("wavelet", "tv")),
    "evaluate_channels": (_tuple(str), ("single",)),
}
# Keys whose values a lower layer would reject or run to no purpose:
# key -> (test, valid values).
LIMITS = {
    "grid.dims": (lambda v: len(v) == 2, "must be a list of two values"),
    "grid.fov": (lambda v: len(v) == 2, "must be a list of two values"),
    "oversampling": (lambda v: v >= 1, "must be at least 1"),
    "undersample_axes": (lambda v: v and set(v) <= {0, 1}, "must be a nonempty list of 0 and 1"),
    "fraction": (lambda v: 0 < v <= 1, "must be in (0, 1]"),
    "accelerations": (lambda v: v and min(v) >= 1, "must be a nonempty list of values >= 1"),
    "channels.multi.n_coils": (lambda v: v >= 1, "must be at least 1"),
    "channels.multi.decay": (lambda v: v > 0, "must be positive"),
    "channels.multi.map_seeds": (bool, "must be nonempty"),
    "exemplars.phantom_seeds": (bool, "must be nonempty"),
    "test_phantoms.seeds": (bool, "must be nonempty"),
    "recon.lambda": (lambda v: v > 0, "must be positive"),
    "recon.max_iters": (lambda v: v >= 1, "must be at least 1"),
    "recon.inner_max_iters": (lambda v: v >= 1, "must be at least 1"),
}
SECTIONS = {key.rsplit(".", n)[0] for key in CONFIG_KEYS for n in range(1, key.count(".") + 1)}


def _flatten(doc, prefix="") -> dict:
    """Dotted key -> value of every leaf and section of a config mapping."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix[:-1] or 'top level'} must be a mapping, got {doc!r}")
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if name not in SECTIONS and name not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {name!r}")
        flat[name] = value
        if name in SECTIONS:  # null, false and {} sections take every default
            flat.update(_flatten(value or {}, name + "."))
    return flat


def load_config(path) -> dict:
    """Dotted key of CONFIG_KEYS -> converted value, plus ``grid``, ``transform``
    and the switches ``multi`` (nonempty channels.multi) and ``caipi``."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    flat = _flatten(doc)
    if "channels" not in flat:  # no channels section: single-channel design
        flat["channels.single"] = True
    cfg = {
        "multi": bool(flat.get("channels.multi")),
        "caipi": isinstance(flat.get("baselines.caipi"), dict),
    }
    for key, (convert, default) in CONFIG_KEYS.items():
        value = flat.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing config key {key!r}")
        try:
            cfg[key] = None if value is None and key not in flat else convert(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{path}: {key}: {err}") from err
    for key, (valid, rule) in LIMITS.items():
        if not valid(cfg[key]):
            raise ConfigError(f"{path}: {key}: {rule}, got {cfg[key]}")
    try:
        cfg["grid"] = ImageGrid(dims=cfg["grid.dims"], fov=cfg["grid.fov"])
        cfg["transform"] = TransformSpec(cfg["transform.family"], cfg["transform.levels"])
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
    try:
        sparsity.check_dims(cfg["grid"].dims, cfg["transform"])
    except ValueError as err:
        raise ConfigError(f"{path}: transform.levels: {err}") from err
    if not cfg["channels.single"] and not cfg["multi"]:
        raise ConfigError("at least one of channels.single / channels.multi required")
    if cfg["multi"] and cfg["channels.multi.eval_map_seed"] is None:
        cfg["channels.multi.eval_map_seed"] = cfg["channels.multi.map_seeds"][0]
    for reg in cfg["recon.regularizers"]:
        if reg not in ("wavelet", "tv"):
            raise ConfigError(f"unknown regularizer {reg!r}")
    for mode in cfg["evaluate_channels"]:
        if mode not in ("single", "multi"):
            raise ConfigError(f"unknown evaluate channel {mode!r}")
        if mode == "multi" and not cfg["multi"]:
            raise ConfigError("evaluate_channels includes multi but channels.multi unset")
    if cfg["caipi"] and tuple(sorted(set(cfg["undersample_axes"]))) != (0, 1):
        raise ConfigError("caipi baseline requires 2D undersampling")
    return cfg


def _model(cfg, mode: str, map_seeds) -> EncodingModel:
    """Encoding model of a channel mode; ``multi`` has one coil-map set per seed."""
    grid = cfg["grid"]
    n_coils = cfg["channels.multi.n_coils"] if mode == "multi" else 1
    candidates = build_cartesian_candidates(
        grid, cfg["oversampling"], cfg["undersample_axes"], n_coils
    )
    if mode == "single":
        return single_channel_model(grid, candidates, cfg["basis"])
    decay = cfg["channels.multi.decay"]
    maps = tuple(synthesize_coil_maps(grid, n_coils, decay, seed) for seed in map_seeds)
    return EncodingModel(grid=grid, candidates=candidates, coil_maps=maps, basis=cfg["basis"])


def _exemplars(cfg):
    """Exemplar phantom images and their supports."""
    seeds = cfg["exemplars.phantom_seeds"]
    dims = cfg["grid"].dims
    images = [render_phantom(default_phantom_spec(cfg["grid"], s)).reshape(dims) for s in seeds]
    supports = [
        extract_support(img, cfg["transform"], cfg["fraction"], source_label=f"seed{s}")
        for img, s in zip(images, seeds)
    ]
    return images, supports


def _write_pattern(cfg, name: str, pattern) -> None:
    pdir = cfg["output_dir"] / "patterns"
    pdir.mkdir(parents=True, exist_ok=True)
    (pdir / f"{name}.json").write_text(oio.pattern_to_json(pattern))
    oio.write_pgm(pdir / f"{name}.pgm", pattern.mask.astype(float))
    if pattern.log:
        lines = ["iteration,objective"]
        lines += [f"{i + 1},{v!r}" for i, v in enumerate(pattern.log)]
        (pdir / f"{name}_log.csv").write_text("\n".join(lines) + "\n")


def _target_groups(candidates, r: float) -> int:
    target = int(round(candidates.L / r))
    if target < 1:
        raise ConfigError(f"acceleration {r} leaves no groups")
    return target


def cmd_design(cfg) -> int:
    images, supports = _exemplars(cfg)
    out = cfg["output_dir"]
    out.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        oio.write_image_oedm(out / f"exemplar_{i}.oedm", img)

    infeasible = []
    modes = (("single", cfg["channels.single"]), ("multi", cfg["multi"]))
    for mode in [mode for mode, wanted in modes if wanted]:
        model = _model(cfg, mode, cfg["channels.multi.map_seeds"])
        if mode == "multi":
            maps = [m.reshape(-1, *cfg["grid"].dims) for m in model.coil_maps]
            oio.write_oedm(out / "coil_maps_design.oedm", np.stack(maps))
        # backward selection is nested: the pattern for T groups is the state
        # after L - T deletions of one run to the smallest feasible target
        cand = model.candidates
        targets = [(r, _target_groups(cand, r)) for r in cfg["accelerations"]]
        failed = {}
        for target in sorted({target for _, target in targets}):
            try:
                longest = sbs_design(model, supports, cfg["objective"], target, cfg["transform"])
                break
            except InfeasibleDesignError as err:
                failed[target] = str(err)
        for r, target in targets:
            name = f"designed_{mode}_R{r:g}"
            if target in failed:
                infeasible.append((name, failed[target]))
                continue
            n = cand.L - target
            pattern = pattern_from_groups(
                cand, longest.kept_groups + longest.deleted[n:], longest.mode,
                longest.log[:n], longest.deleted[:n], longest.extra,
            )
            _write_pattern(cfg, name, pattern)
            extra = pattern.extra
            print(
                f"designed {name}: kept {len(pattern.kept_groups)} groups; "
                f"drift {extra['max_drift']:.1e}, {extra['rebuilds']} rebuilds; "
                f"priced {extra['priced'] / max(extra['full_pricing'], 1):.0%} of removals"
            )
    for name, msg in infeasible:
        print(f"infeasible acceleration: {name}: {msg}", file=sys.stderr)
    return 3 if infeasible else 0


def _baselines(cfg, candidates, r: float):
    """(name, pattern) of every baseline the config asks for at acceleration ``r``."""
    out = []
    if cfg["baselines.uniform"]:
        out.append((f"uniform_R{r:g}", uniform_pattern(candidates, r)))
    if cfg["caipi"]:
        ry, rz, shift = (cfg[f"baselines.caipi.{k}"] for k in ("ry", "rz", "shift"))
        pattern = caipi_pattern(candidates, r, ry, int(r) if rz is None else rz, shift)
        out.append((f"caipi_R{r:g}", pattern))
    target = _target_groups(candidates, r)
    block = cfg["baselines.poisson.center_block"]
    for seed in cfg["baselines.poisson.seeds"]:
        pattern = poisson_disc_pattern(candidates, r, target, block, seed)
        out.append((f"poisson_R{r:g}_seed{seed:02d}", pattern))
    return out


def cmd_baseline(cfg) -> int:
    # group structure is coil-independent; generate on 1-coil candidates
    candidates = _model(cfg, "single", ()).candidates
    patterns = []
    for r in cfg["accelerations"]:
        try:
            patterns += _baselines(cfg, candidates, r)
        except ValueError as err:  # nothing is written for an unusable acceleration
            raise ConfigError(f"acceleration {r:g}: {err}") from err
    for name, pattern in patterns:
        _write_pattern(cfg, name, pattern)
    print(f"baselines written to {cfg['output_dir'] / 'patterns'}")
    return 0


def _load_patterns(cfg, candidates):
    pdir = cfg["output_dir"] / "patterns"
    files = sorted(pdir.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no pattern files in {pdir}")
    return [(f.stem, oio.pattern_from_json(f.read_text(), candidates)) for f in files]


def _cells(cfg, supports, golds):
    """Every evaluation cell in report order: (n, model, pattern, gold, record).

    ``n`` numbers the cells from 1 and seeds the cell's noise, so this order
    is part of the output; ``record`` holds the cell's key columns and, for
    Poisson patterns, the CRB objective.
    """
    n = 0
    for mode in cfg["evaluate_channels"]:
        model = _model(cfg, mode, (cfg["channels.multi.eval_map_seed"],))
        for stem, pattern in _load_patterns(cfg, model.candidates):
            if stem.startswith("designed") and f"_{mode}_" not in stem:
                continue  # designs are channel-specific; baselines are shared
            crb = None
            if stem.startswith("poisson"):
                crb = evaluate_pattern_crb(
                    pattern, model, supports, cfg["objective"], cfg["transform"]
                )
            for (label, gold), reg in itertools.product(golds, cfg["recon.regularizers"]):
                n += 1
                yield n, model, pattern, gold, {
                    "pattern_id": stem, "R": pattern.R, "channels": mode, "regularizer": reg,
                    "lambda": cfg["recon.lambda"], "phantom": label, "crb_objective": crb,
                }


def _run_cell(cfg, n, model, pattern, gold, record) -> dict:
    """Reconstruct one cell; returns its record with iters, nrmse and status."""
    seed = cfg["test_phantoms.noise_seed"] * 1000003 + n
    data = retrospective_undersample(gold, pattern, model, cfg["test_phantoms.noise_sigma"], seed)
    limits = ("max_iters", "tol", "inner_tol", "inner_max_iters", "epsilon_scale")
    problem = ReconProblem(
        data, pattern, model, record["regularizer"], cfg["transform"], cfg["recon.lambda"],
        **{key: cfg[f"recon.{key}"] for key in limits},
    )
    try:
        result = irls_solve(problem)
    except SolverFailureError:
        return {**record, "iters": None, "nrmse": None, "status": "solver_failure"}
    name = "_".join(record[k] for k in ("pattern_id", "channels", "phantom", "regularizer"))
    oio.write_pgm(
        cfg["output_dir"] / "recon" / f"{name}.pgm",
        result.image.reshape(cfg["grid"].dims),
        max_abs=float(np.abs(gold).max()),
    )
    err = nrmse(result.image, gold)
    status = "ok" if result.converged else "max_iters"
    return {**record, "iters": result.iterations, "nrmse": err, "status": status}


def _write_csv(path: Path, preamble, columns, records) -> None:
    """One line per record, sorted by pattern, channels, regularizer, phantom."""
    def fmt(value):
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    order = ("pattern_id", "channels", "regularizer", "phantom")
    lines = [*preamble, ",".join(columns)]
    for rec in sorted(records, key=lambda rec: [rec[k] for k in order]):
        lines.append(",".join(fmt(rec[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def cmd_evaluate(cfg) -> int:
    _, supports = _exemplars(cfg)
    out = cfg["output_dir"]
    (out / "recon").mkdir(parents=True, exist_ok=True)
    golds = [
        (f"phantom{seed}", render_phantom(default_phantom_spec(cfg["grid"], seed)))
        for seed in cfg["test_phantoms.seeds"]
    ]
    records = [_run_cell(cfg, *cell) for cell in _cells(cfg, supports, golds)]

    # the report keeps, per cell, the Poisson seed of least NRMSE (failed seeds
    # last, ties to the first seed); poisson_seeds.csv keeps every seed
    def score(rec):
        return math.inf if rec["nrmse"] is None else rec["nrmse"]

    report, poisson, best = [], [], {}
    for rec in records:
        if not rec["pattern_id"].startswith("poisson"):
            report.append(rec)
            continue
        poisson.append(rec)
        key = tuple(rec[k] for k in ("channels", "R", "regularizer", "phantom"))
        if key not in best or score(rec) < score(best[key]):
            best[key] = rec
    report += best.values()
    _write_csv(out / "report.csv", [REPORT_HEADER, SCALING_NOTE], REPORT_COLUMNS, report)
    if poisson:
        _write_csv(out / "poisson_seeds.csv", [], POISSON_COLUMNS, poisson)
    print(f"report written to {out / 'report.csv'} ({len(report)} rows)")
    failed = sum(rec["status"] == "solver_failure" for rec in records)
    if failed:
        print(f"{failed} of {len(records)} cells failed; see the status column", file=sys.stderr)
        return 5
    return 0


def _selftest_checks():
    """DERIVED-oracle checks at reduced cost; yields (name, ok, detail)."""
    rng = np.random.default_rng(20240501)

    # Parseval / perfect reconstruction
    spec = TransformSpec("daub4", 2)
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    coeffs = forward_transform(img, spec)
    parseval = abs(np.linalg.norm(coeffs) - np.linalg.norm(img)) / np.linalg.norm(img)
    yield "wavelet-parseval", parseval < 1e-12, f"rel err {parseval:.2e}"

    back = inverse_transform(coeffs, spec)
    rt = np.linalg.norm(back - img) / np.linalg.norm(img)
    yield "wavelet-roundtrip", rt < 1e-12, f"rel err {rt:.2e}"

    # SMW downdate vs from-scratch rebuild
    grid = ImageGrid((8, 8), (100.0, 100.0))
    cand = build_cartesian_candidates(grid, undersample_axes=(0, 1), n_coils=2)
    maps = synthesize_coil_maps(grid, 2, seed=3)
    model = EncodingModel(grid=grid, candidates=cand, coil_maps=(maps,))
    tspec = TransformSpec("haar", 1)
    support = SupportSet(indices=rng.choice(64, size=12, replace=False), q=64)
    state = build_full_crb(model, support, tspec, t=0)
    groups = rng.choice(cand.L, size=5, replace=False).tolist()
    kept = list(range(cand.L))
    worst = 0.0
    for g, rows in zip(groups, restricted_matrix(model, support, tspec, 0, groups)):
        tr = downdate_traces(state, rows[None])[0]
        state = smw_downdate(state, rows)
        kept.remove(g)
        rebuilt = build_full_crb(model, support, tspec, 0, groups=kept)
        err = np.linalg.norm(state.inv_gram - rebuilt.inv_gram) / np.linalg.norm(
            rebuilt.inv_gram
        )
        worst = max(worst, err, abs(tr - state.trace) / state.trace)
    yield "smw-vs-rebuild", worst < 1e-7, f"worst rel err {worst:.2e}"

    # trace equality across coefficient/image domains
    err = abs(
        image_domain_crb_trace(state, support, tspec, grid.dims) - state.trace
    ) / state.trace
    yield "trace-equality", err < 1e-8, f"rel err {err:.2e}"

    # greedy matches exhaustive on a toy
    toy_grid = ImageGrid((1, 8), (100.0, 100.0))
    toy_cand = build_cartesian_candidates(toy_grid, undersample_axes=(1,), n_coils=1)
    toy_model = single_channel_model(toy_grid, toy_cand)
    ispec = TransformSpec("identity")
    toy_support = SupportSet(indices=np.array([0, 2, 5]), q=8)
    pat = sbs_design(toy_model, [toy_support], DesignObjective("average"), 4, ispec)
    opt = exhaustive_design(toy_model, toy_support, 4, ispec)
    ok = opt.log[0] <= pat.log[-1] * (1 + 1e-9)
    yield "exhaustive-leq-greedy", ok, f"opt {opt.log[0]:.6g} vs sbs {pat.log[-1]:.6g}"

    # operator adjoints
    op = EncodingOperator(model, range(cand.L), 0)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    lhs = np.vdot(y, op.forward(x))
    rhs = np.vdot(op.adjoint(y), x)
    err = abs(lhs - rhs) / abs(lhs)
    yield "encoding-adjoint", err < 1e-10, f"rel err {err:.2e}"

    tv = TvOperator((8, 8))
    y2 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    lhs = np.vdot(y2, tv.forward(x))
    rhs = np.vdot(tv.adjoint(y2), x)
    err = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    yield "tv-adjoint", err < 1e-10, f"rel err {err:.2e}"

    # reduced Monte-Carlo covariance of the oracle estimator (8 SE gate)
    rows = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    support3 = SupportSet(indices=np.array([1, 4, 6]), q=16)
    gram = rows.conj().T @ rows
    cov = np.linalg.inv(gram)
    n_draws = 10_000
    noise = (
        rng.standard_normal((8, n_draws)) + 1j * rng.standard_normal((8, n_draws))
    ) / np.sqrt(2.0)
    est = np.linalg.pinv(rows) @ noise
    emp = (est @ est.conj().T) / n_draws
    se = np.sqrt(np.outer(np.diag(cov).real, np.diag(cov).real) / n_draws)
    max_dev = float(np.max(np.abs(emp - cov) / se))
    yield "oracle-covariance-mc", max_dev < 8.0, f"max deviation {max_dev:.2f} SE"

    # oracle estimator recovers a supported truth from clean data
    truth = np.zeros(16, dtype=complex)
    truth[support3.indices] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    est2 = oracle_lsq_estimate(rows @ truth[support3.indices], rows, support3)
    err = np.linalg.norm(est2 - truth) / np.linalg.norm(truth)
    yield "oracle-recovery", err < 1e-10, f"rel err {err:.2e}"


def cmd_selftest(inject_fault: str | None = None) -> int:
    patched = None
    if inject_fault == "wavelet":
        patched = sparsity._FILTERS["daub4"]
        sparsity._FILTERS["daub4"] = patched + 1e-3
    try:
        failures = 0
        for name, ok, detail in _selftest_checks():
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            print(f"{status:4s}  {name:24s}  {detail}")
        print(f"selftest: {failures} failure(s)")
        return 1 if failures else 0
    finally:
        if patched is not None:
            sparsity._FILTERS["daub4"] = patched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oedipus",
        description="design and evaluate undersampled k-space sampling patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("design", "baseline", "evaluate"):
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML experiment config")
    p_self = sub.add_parser("selftest")
    p_self.add_argument("--inject-fault", choices=["wavelet"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            return cmd_selftest(args.inject_fault)
        cfg = load_config(args.config)
        if args.command == "design":
            return cmd_design(cfg)
        if args.command == "baseline":
            return cmd_baseline(cfg)
        return cmd_evaluate(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InfeasibleDesignError as err:
        print(f"infeasible acceleration: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
