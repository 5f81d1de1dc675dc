"""Checks of a run's outputs against the dense oracle and known properties.

Nothing here is compared with a stored copy of earlier output.  Each
function returns a list of failures, empty when the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from workloads import CAIPI, CENTER_BLOCK, FAMILY, FRACTION, LEVELS, REGULARIZERS, input_seeds

OBJECTIVE_RTOL = 1e-8  # oracle against the program's CRB objectives
TIE_RTOL = 1e-9  # the program's slack for tied deletion costs
NUMERIC_RTOL = 1e-10  # SMW downdate against a dense rebuild, measured < 1e-12
MONOTONE_RTOL = 1e-12


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _ensemble(w, inputs) -> tuple[oracle.Ensemble, list[str]]:
    """The oracle for the run's inputs, and any support the program got wrong."""
    failures = []
    supports = []
    for k, (image, program) in enumerate(zip(inputs["images"], inputs["supports"])):
        own = oracle.support(image, FAMILY, LEVELS, FRACTION)
        if not np.array_equal(own, program):
            failures.append(f"support of exemplar {k} differs from the oracle's")
        supports.append(own)
    ens = oracle.Ensemble(w.dims, w.axes, inputs["maps"], supports, FAMILY, LEVELS)
    return ens, failures


def check_design(w, inputs, outputs) -> list[str]:
    ens, failures = _ensemble(w, inputs)
    kept, deleted, log = outputs["kept"], outputs["deleted"], outputs["log"]
    if sorted(kept + deleted) != list(range(w.n_groups)):
        failures.append("kept and deleted groups do not partition the groups")
    if len(kept) != w.target:
        failures.append(f"kept {len(kept)} groups, target {w.target}")
    if len(log) != len(deleted):
        failures.append(f"log has {len(log)} entries for {len(deleted)} deletions")
    for i in range(1, len(log)):
        if log[i] < log[i - 1] * (1.0 - MONOTONE_RTOL):
            failures.append(f"objective decreases at deletion {i + 1}")
            break
    if failures:
        return failures

    # Every logged objective equals the oracle's for the groups left.
    remaining = set(range(w.n_groups))
    for i, g in enumerate(deleted):
        remaining.discard(g)
        want = oracle.combine(ens.traces(remaining), w.objective)
        if _rel(log[i], want) > OBJECTIVE_RTOL:
            failures.append(f"log[{i}] = {log[i]!r}, oracle {want!r}")
            break

    costs = [
        oracle.combine(t, w.objective) for t in ens.deletion_traces(range(w.n_groups))
    ]
    best = min(costs)
    first = costs[deleted[0]]
    if not first <= best * (1.0 + TIE_RTOL + NUMERIC_RTOL):
        failures.append(
            f"first deletion {deleted[0]} costs {first!r}, oracle minimum {best!r}"
        )
    return failures


def _centre_groups(dims, block: int) -> set[int]:
    g1, g2 = dims
    rows = range(g1 // 2 - block // 2, g1 // 2 + (block + 1) // 2)
    cols = range(g2 // 2 - block // 2, g2 // 2 + (block + 1) // 2)
    return {i * g2 + j for i in rows for j in cols}


def _caipi_groups(dims) -> list[int]:
    g1, g2 = dims
    ry, rz, shift = CAIPI["ry"], CAIPI["rz"], CAIPI["shift"]
    return [
        i * g2 + j
        for i in range(0, g1, ry)
        for j in range(g2)
        if j % rz == (i // ry) * shift % rz
    ]


def check_evaluation(w, seed, inputs, outputs) -> list[str]:
    failures = []
    seeds = input_seeds(seed)
    r = f"R{w.R:g}"
    poisson_stems = [f"poisson_{r}_seed{s:02d}" for s in seeds["poisson"]]
    patterns = outputs["patterns"]
    expected = {f"uniform_{r}", f"caipi_{r}", *poisson_stems}
    if set(patterns) != expected:
        return [f"pattern files {sorted(patterns)}, expected {sorted(expected)}"]

    n_keep = w.target
    uniform = sorted(set(int(x) for x in np.floor(np.arange(n_keep) * w.n_groups / n_keep)))
    if patterns[f"uniform_{r}"] != uniform:
        failures.append("uniform pattern is not every R-th group")
    if patterns[f"caipi_{r}"] != _caipi_groups(w.dims):
        failures.append("CAIPI pattern differs from the sheared lattice")
    tol = max(1, int(round(0.01 * n_keep)))
    centre = _centre_groups(w.dims, CENTER_BLOCK)
    for stem in poisson_stems:
        kept = patterns[stem]
        if abs(len(kept) - n_keep) > tol:
            failures.append(f"{stem} keeps {len(kept)} groups, target {n_keep} +/- {tol}")
        if not centre <= set(kept):
            failures.append(f"{stem} misses part of the centre block")

    phantoms = [f"phantom{s}" for s in seeds["tests"]]
    cells = {(p, reg) for p in phantoms for reg in REGULARIZERS}
    rows, prows = outputs["report"], outputs["poisson"]
    for row in rows + prows:
        value = float(row["nrmse"])
        if not (math.isfinite(value) and value > 0):
            failures.append(f"NRMSE {value} of {row['pattern_id']} is not finite and positive")

    ens, support_failures = _ensemble(w, inputs)
    failures += support_failures
    for stem in poisson_stems:
        mine = [row for row in prows if row["pattern_id"] == stem]
        if {(row["phantom"], row["regularizer"]) for row in mine} != cells or len(mine) != len(cells):
            failures.append(f"poisson_seeds.csv rows of {stem} do not cover every cell once")
            continue
        want = oracle.combine(ens.traces(patterns[stem]), w.objective)
        for row in mine:
            got = float(row["crb_objective"])
            if _rel(got, want) > OBJECTIVE_RTOL:
                failures.append(f"{stem} crb_objective {got!r}, oracle {want!r}")
                break

    by_cell = {}
    for row in rows:
        kind = row["pattern_id"].split("_")[0]
        by_cell.setdefault((kind, row["phantom"], row["regularizer"]), []).append(row)
    want_keys = {(kind, p, reg) for kind in ("uniform", "caipi", "poisson") for p, reg in cells}
    if set(by_cell) != want_keys or any(len(v) != 1 for v in by_cell.values()):
        failures.append("report.csv does not hold exactly one row per expected cell")
        return failures
    for p, reg in cells:
        (row,) = by_cell[("poisson", p, reg)]
        seeds_rows = [x for x in prows if x["phantom"] == p and x["regularizer"] == reg]
        if not seeds_rows:
            continue
        best = min(seeds_rows, key=lambda x: float(x["nrmse"]))
        if row["pattern_id"] != best["pattern_id"] or row["nrmse"] != best["nrmse"]:
            failures.append(f"report's Poisson row for {p}/{reg} is not the best seed")
    return failures


def check(w, seed, inputs, outputs) -> list[str]:
    if outputs is None:
        return ["the warm-up round produced no outputs"]
    if w.kind == "design":
        return check_design(w, inputs, outputs)
    return check_evaluation(w, seed, inputs, outputs)
