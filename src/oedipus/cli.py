"""Command-line front end: design, baseline, evaluate, selftest.

All experiment parameters live in a YAML config; ``CONFIG_KEYS`` lists
every accepted key with its converter and default (see the README).  Exit codes:
0 success, 1 selftest failure, 2 config error, 3 infeasible acceleration,
4 I/O error, 5 some evaluation cells have ``status`` ``solver_failure``.

``evaluate`` builds its tasks in this process: each Poisson pattern's CRB
objective, then every (pattern, phantom, regularizer) reconstruction cell.
``_run_tasks`` forks one child per usable CPU but one; the children take
tasks from the head of the list (the CRB objectives, which need the most
memory) and this process takes them from the tail, so it works beside them
rather than waiting.  With one usable CPU, or without ``fork``, it runs them
all itself.  The children inherit the tasks and send back only (index,
result), and results are stored by index, so the outputs do not depend on
who ran what.
"""

from __future__ import annotations

import argparse
import math
import os
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
    smw_removal,
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
    synthesize_coil_maps,
)
from .errors import GenerationFailureError, InfeasibleDesignError, SolverFailureError
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


def _number(kind, least=None, above=None, most=None):
    """Converter to a finite int or float ``kind`` in the given bounds ``least <= v``,
    ``above < v``, ``v <= most``; numeric strings (YAML's ``1e-6``) count, bools not."""
    what = "an integer" if kind is int else "a finite number"
    bounds = ((">=", least), (">", above), ("<=", most))
    rule = " and ".join(f"{op} {bound}" for op, bound in bounds if bound is not None)

    def convert(value):
        v = float(value)
        if isinstance(value, bool) or not math.isfinite(v) or (kind is int and not v.is_integer()):
            raise ValueError(f"must be {what}, got {value!r}")
        if not ((least is None or v >= least) and (above is None or v > above)
                and (most is None or v <= most)):
            raise ValueError(f"must be {rule}, got {value!r}")
        return value if type(value) is kind else kind(v)

    return convert


def _flag(value) -> bool:
    """Converter of YAML ``true`` or ``false``; 0, 1, null and strings are errors."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _list(item, length=None, allowed=None, distinct=False, empty=False):
    """Converter of a list to a tuple of ``item`` values: ``length`` of them if given,
    else at least one unless ``empty``; all in ``allowed`` if given; none twice if ``distinct``."""

    def convert(value):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"must be a list, got {value!r}")
        values = tuple(item(v) for v in value)
        if len(values) != (length or len(values)) or not (values or empty):
            raise ValueError(f"must be a list of {length or 'one or more'} values, got {value!r}")
        if allowed is not None and not set(values) <= allowed:
            raise ValueError(f"must hold only values in {sorted(allowed)}, got {value!r}")
        if distinct and len(set(values)) != len(values):
            raise ValueError(f"must hold distinct values, got {value!r}")
        return values

    return convert


_seed = _number(int, least=0)
REQUIRED = object()
# Every accepted key, as a dotted path into the YAML document: (converter,
# default).  The converter carries the key's type and range and raises
# ValueError outside them.  A None default is derived in load_config
# (eval_map_seed) or per acceleration in _baselines (rz).
CONFIG_KEYS = {
    "experiment": (str, "experiment"),
    "output_dir": (Path, REQUIRED),
    "grid.dims": (_list(_number(int, least=1), length=2), REQUIRED),
    "grid.fov": (_list(_number(float, above=0), length=2), (200.0, 200.0)),
    "basis": (VoxelBasis, "dirac"),
    "oversampling": (_number(float, least=1), 1.0),
    "undersample_axes": (_list(_number(int), allowed={0, 1}), (0, 1)),
    "transform.family": (lambda name: TransformSpec(name, 1).family, "daub4"),
    "transform.levels": (_number(int, least=0), 3),
    "fraction": (_number(float, above=0, most=1), 0.15),
    "objective": (DesignObjective, "average"),
    "accelerations": (_list(_number(float, least=1)), REQUIRED),
    "channels.single": (_flag, False),
    "channels.multi.n_coils": (_number(int, least=1), 4),
    "channels.multi.decay": (_number(float, above=0), 5.0),
    "channels.multi.map_seeds": (_list(_seed), (7,)),
    "channels.multi.eval_map_seed": (_seed, None),
    "exemplars.phantom_seeds": (_list(_seed), (0,)),
    "test_phantoms.seeds": (_list(_seed, distinct=True), (1,)),
    "test_phantoms.noise_sigma": (_number(float, least=0), 0.0),
    "test_phantoms.noise_seed": (_seed, 1),
    "baselines.uniform": (_flag, True),
    "baselines.caipi.ry": (_number(int, least=1), 1),
    "baselines.caipi.rz": (_number(int, least=1), None),
    "baselines.caipi.shift": (_number(int), 1),
    "baselines.poisson.seeds": (_list(_seed, empty=True), ()),
    "baselines.poisson.center_block": (_number(int, least=0), 16),
    "recon.lambda": (_number(float, above=0), 0.01),
    "recon.max_iters": (_number(int, least=1), 50),
    "recon.tol": (_number(float, above=0), 1e-6),
    "recon.regularizers": (
        _list(str, allowed={"wavelet", "tv"}, distinct=True), ("wavelet", "tv")
    ),
    "evaluate_channels": (_list(str, allowed={"single", "multi"}, distinct=True), ("single",)),
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
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{path}: {key}: {err}") from err
    cfg["grid"] = ImageGrid(dims=cfg["grid.dims"], fov=cfg["grid.fov"])
    try:  # the family is known here, so only its level rule can fail
        cfg["transform"] = TransformSpec(cfg["transform.family"], cfg["transform.levels"])
        sparsity.check_dims(cfg["grid"].dims, cfg["transform"])
    except ValueError as err:
        raise ConfigError(f"{path}: transform.levels: {err}") from err
    if not cfg["channels.single"] and not cfg["multi"]:
        raise ConfigError(f"{path}: at least one of channels.single / channels.multi required")
    if "tv" in cfg["recon.regularizers"] and min(cfg["grid.dims"]) < 2:
        raise ConfigError(f"{path}: recon.regularizers: tv needs a grid of at least 2x2")
    if cfg["multi"] and cfg["channels.multi.eval_map_seed"] is None:
        cfg["channels.multi.eval_map_seed"] = cfg["channels.multi.map_seeds"][0]
    if "multi" in cfg["evaluate_channels"] and not cfg["multi"]:
        raise ConfigError(f"{path}: evaluate_channels includes multi but channels.multi unset")
    if cfg["caipi"] and set(cfg["undersample_axes"]) != {0, 1}:
        raise ConfigError(f"{path}: baselines.caipi needs undersample_axes [0, 1] (2D)")
    return cfg


def _model(cfg, mode: str, map_seeds) -> EncodingModel:
    """Encoding model of a channel mode: ``multi`` has one coil-map set per
    seed, ``single`` one all-ones map whatever ``map_seeds`` holds."""
    grid = cfg["grid"]
    n_coils, seeds = (cfg["channels.multi.n_coils"], map_seeds) if mode == "multi" else (1, (0,))
    candidates = build_cartesian_candidates(
        grid, cfg["oversampling"], cfg["undersample_axes"], n_coils
    )
    decay = cfg["channels.multi.decay"]
    maps = tuple(synthesize_coil_maps(grid, n_coils, decay, s) for s in seeds)
    return EncodingModel(grid=grid, candidates=candidates, coil_maps=maps, basis=cfg["basis"])


def _exemplars(cfg):
    """Exemplar phantom images and their supports."""
    seeds = cfg["exemplars.phantom_seeds"]
    dims = cfg["grid"].dims
    images = [render_phantom(default_phantom_spec(cfg["grid"], s)).reshape(dims) for s in seeds]
    supports = [extract_support(img, cfg["transform"], cfg["fraction"]) for img in images]
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
        raise ConfigError(f"acceleration {r:g}: leaves none of {candidates.L} groups")
    return target


def cmd_design(cfg) -> int:
    modes = (("single", cfg["channels.single"]), ("multi", cfg["multi"]))
    models = [(m, _model(cfg, m, cfg["channels.multi.map_seeds"])) for m, on in modes if on]
    # check every acceleration before writing; L does not depend on the coils
    targets = [(r, _target_groups(models[0][1].candidates, r)) for r in cfg["accelerations"]]
    images, supports = _exemplars(cfg)
    out = cfg["output_dir"]
    out.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        oio.write_oedm(out / f"exemplar_{i}.oedm", img[None, None])

    infeasible = []
    for mode, model in models:
        if mode == "multi":
            maps = [m.reshape(-1, *cfg["grid"].dims) for m in model.coil_maps]
            oio.write_oedm(out / "coil_maps_design.oedm", np.stack(maps))
        # backward selection is nested: the pattern for T groups is the state
        # after L - T deletions of one run to the smallest feasible target
        cand = model.candidates
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
                longest.log[:n], longest.deleted[:n],
            )
            _write_pattern(cfg, name, pattern)
            line = f"designed {name}: kept {len(pattern.kept_groups)} groups"
            if n == len(longest.deleted):  # the run's statistics belong to where it ended
                extra = longest.extra
                line += (
                    f"; drift {extra['max_drift']:.1e}, {extra['rebuilds']} rebuilds; "
                    f"priced {extra['priced'] / max(extra['full_pricing'], 1):.0%} of removals; "
                    f"{'/'.join(map(str, extra['rows_per_group']))} rows per group"
                )
            print(line)
    for name, msg in infeasible:
        print(f"infeasible acceleration: {name}: {msg}", file=sys.stderr)
    return 3 if infeasible else 0


def _baselines(cfg, candidates, r: float):
    """(name, pattern) of every baseline the config asks for at acceleration ``r``."""
    target = _target_groups(candidates, r)
    out = []
    if cfg["baselines.uniform"]:
        out.append((f"uniform_R{r:g}", uniform_pattern(candidates, r)))
    if cfg["caipi"]:
        ry, rz, shift = (cfg[f"baselines.caipi.{k}"] for k in ("ry", "rz", "shift"))
        if rz is None and int(r) % ry:
            raise ValueError(f"baselines.caipi.ry = {ry} does not divide the acceleration")
        pattern = caipi_pattern(candidates, r, ry, int(r) // ry if rz is None else rz, shift)
        out.append((f"caipi_R{r:g}", pattern))
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
        except (ValueError, GenerationFailureError) as err:  # nothing is written for it
            raise ConfigError(f"acceleration {r:g}: {err}") from err
    for name, pattern in patterns:
        _write_pattern(cfg, name, pattern)
    print(f"baselines written to {cfg['output_dir'] / 'patterns'}")
    return 0


def _load_patterns(cfg, candidates):
    """(stem, pattern) of every pattern file; a malformed file, or one written
    for another candidate grid, raises an ``OSError`` naming it (exit 4)."""
    pdir = cfg["output_dir"] / "patterns"
    files = sorted(pdir.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no pattern files in {pdir}")
    patterns = []
    for f in files:
        try:
            patterns.append((f.stem, oio.pattern_from_json(f.read_text(), candidates)))
        except (ValueError, KeyError, TypeError) as err:
            raise OSError(f"{f}: unusable pattern file: {err!r}") from err
    return patterns


def _cells(cfg, supports, golds):
    """The work of ``evaluate``: ``crbs``, (channels, pattern_id) -> the
    arguments of its Poisson pattern's ``_pattern_crb``, and ``cells``, the
    arguments (cfg, model, pattern, gold, data, record) of every ``_run_cell``.

    The noise seed [noise_seed, phantom seed, 0 single or 1 multi] names the
    acquisition, so every pattern of one (channels, phantom) subsamples the
    same noisy data, synthesized here once per pattern for all its
    regularizers; ``record`` holds the cell's key columns.
    """
    noise_seed = cfg["test_phantoms.noise_seed"]
    crbs, cells = {}, []
    for mode in cfg["evaluate_channels"]:
        model = _model(cfg, mode, (cfg["channels.multi.eval_map_seed"],))
        for stem, pattern in _load_patterns(cfg, model.candidates):
            if stem.startswith("designed") and f"_{mode}_" not in stem:
                continue  # designs are channel-specific; baselines are shared
            if stem.startswith("poisson"):
                crbs[mode, stem] = (cfg, pattern, model, supports)
            for label, seed, gold in golds:
                data = retrospective_undersample(
                    gold, pattern, model, cfg["test_phantoms.noise_sigma"],
                    [noise_seed, seed, int(mode == "multi")],
                )
                for reg in cfg["recon.regularizers"]:
                    cells.append((cfg, model, pattern, gold, data, {
                        "pattern_id": stem, "R": pattern.R, "channels": mode, "regularizer": reg,
                        "lambda": cfg["recon.lambda"], "phantom": label,
                    }))
    return crbs, cells


def _pattern_crb(cfg, pattern, model, supports) -> float:
    """The CRB objective of ``pattern`` over the exemplar supports."""
    return evaluate_pattern_crb(pattern, model, supports, cfg["objective"], cfg["transform"])


def _run_cell(cfg, model, pattern, gold, data, record) -> dict:
    """Reconstruct one cell; returns its record with iters, nrmse and status."""
    problem = ReconProblem(
        data, pattern, model, record["regularizer"], cfg["transform"], cfg["recon.lambda"],
        cfg["recon.max_iters"], cfg["recon.tol"],
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


def _take(bounds, head: bool):
    """Claim the first (``head``) or the last task index of ``bounds`` = [lo, hi),
    the tasks no process has taken; None when none is left."""
    with bounds.get_lock():
        lo, hi = bounds
        if lo >= hi:
            return None
        if head:
            bounds[0] = lo + 1
            return lo
        bounds[1] = hi - 1
        return hi - 1


def _stop(bounds) -> None:
    """Leave no task for any process to take."""
    with bounds.get_lock():
        bounds[0] = bounds[1]


def _child(tasks, bounds, conn) -> None:
    """Run tasks from the head; send (index, ok, result or exception) of each."""
    while (i := _take(bounds, head=True)) is not None:
        func, args = tasks[i]
        try:
            conn.send((i, True, func(*args)))
        except Exception as err:
            _stop(bounds)
            conn.send((i, False, err))


def _run_tasks(tasks) -> list:
    """Results of ``tasks``, (function, arguments) pairs, in task order; see the
    module docstring.  After a failed task no process starts another, and
    every child is joined before the failure is raised."""
    # imported here, not at the top: design and baseline would pay for it
    import multiprocessing
    from multiprocessing.connection import wait

    fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if fork else None)
    n_children = min(_usable_cpus(), len(tasks)) - 1 if fork else 0
    bounds = ctx.Array("q", [0, len(tasks)])  # shared, with its lock
    results, failures, children, pipes = {}, {}, [], []

    def receive(conns):
        for conn in conns:
            try:
                i, ok, value = conn.recv()
                (results if ok else failures)[i] = value
            except EOFError:  # the child has exited
                pipes.remove(conn)
                conn.close()

    try:
        for _ in range(n_children):  # a child inherits the tasks; none is pickled
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(tasks, bounds, writer), daemon=True)
            child.start()
            writer.close()
            children.append(child)
            pipes.append(reader)
        while (i := _take(bounds, head=False)) is not None:
            func, args = tasks[i]
            results[i] = func(*args)
            receive(wait(pipes, timeout=0))
    finally:
        _stop(bounds)
        while pipes:
            receive(wait(pipes))
        for child in children:
            child.join()
    if failures:
        raise failures[min(failures)]
    if len(results) < len(tasks):
        codes = sorted({child.exitcode for child in children} - {0})
        raise ChildProcessError(f"an evaluate child exited with code {codes}")
    return [results[i] for i in range(len(tasks))]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    golds = [
        (f"phantom{seed}", seed, render_phantom(default_phantom_spec(cfg["grid"], seed)))
        for seed in cfg["test_phantoms.seeds"]
    ]
    crbs, cells = _cells(cfg, supports, golds)  # reads every pattern file first (exit 4)
    (out / "recon").mkdir(parents=True, exist_ok=True)
    tasks = [(_pattern_crb, args) for args in crbs.values()]
    tasks += [(_run_cell, cell) for cell in cells]
    results = _run_tasks(tasks)
    objectives = dict(zip(crbs, results))
    records = [
        {**rec, "crb_objective": objectives.get((rec["channels"], rec["pattern_id"]))}
        for rec in results[len(crbs):]
    ]

    # the report keeps, per cell and nominal R (the pattern name without its
    # seed), the Poisson seed of least NRMSE (failed seeds last, ties to the
    # first seed); poisson_seeds.csv keeps every seed
    def score(rec):
        return math.inf if rec["nrmse"] is None else rec["nrmse"]

    report, poisson, best = [], [], {}
    for rec in records:
        if not rec["pattern_id"].startswith("poisson"):
            report.append(rec)
            continue
        poisson.append(rec)
        key = (rec["pattern_id"].rsplit("_seed", 1)[0],
               *(rec[k] for k in ("channels", "regularizer", "phantom")))
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
        state = smw_removal(state, rows)[0]
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
    toy_model = EncodingModel(toy_grid, toy_cand, (synthesize_coil_maps(toy_grid, 1),))
    ispec = TransformSpec("identity")
    toy_support = SupportSet(indices=np.array([0, 2, 5]), q=8)
    pat = sbs_design(toy_model, [toy_support], DesignObjective("average"), 4, ispec)
    opt = exhaustive_design(toy_model, [toy_support], 4, ispec)
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
    est = oracle_lsq_estimate(noise, rows, support3)[support3.indices]
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


def cmd_selftest() -> int:
    failures = 0
    for name, ok, detail in _selftest_checks():
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status:4s}  {name:24s}  {detail}")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oedipus",
        description="design and evaluate undersampled k-space sampling patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("design", "baseline", "evaluate"):
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML experiment config")
    sub.add_parser("selftest")
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            return cmd_selftest()
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
