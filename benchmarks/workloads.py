"""The benchmark's workloads: their sizes, seeds, set-up and one round each.

A round is a fixed list of operations, the same in every round of a run,
so the share of failed operations cannot depend on how long a run lasts.
Only the parameters are imported at module level; the ``oedipus`` calls
live in the functions, which run inside the measured worker process.
Every call goes through a module attribute so that the tracer sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

FAMILY = "daub4"
LEVELS = 3
FRACTION = 0.15
FOV = 200.0

# evaluate_2d: patterns are uniform, CAIPI (ry x rz with the given shear)
# and the Poisson-disc seeds; each is reconstructed from every test phantom
# with every regularizer.
REGULARIZERS = ("wavelet", "tv")
N_TEST_PHANTOMS = 2
N_POISSON_SEEDS = 2
NOISE_SIGMA = 0.2
CENTER_BLOCK = 16
CAIPI = {"ry": 1, "rz": 3, "shift": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "design" or "evaluate"
    dims: tuple[int, int]
    axes: tuple[int, ...]
    n_coils: int
    R: int
    n_exemplars: int
    n_map_sets: int
    objective: str

    @property
    def n_groups(self) -> int:
        if self.axes == (0, 1):
            return self.dims[0] * self.dims[1]
        return self.dims[self.axes[0]]

    @property
    def target(self) -> int:
        return int(round(self.n_groups / self.R))

    @property
    def ops_per_round(self) -> int:
        """Design calls, or reconstruction cells plus Poisson CRB scorings."""
        if self.kind == "design":
            return 1
        n_patterns = 2 + N_POISSON_SEEDS
        cells = n_patterns * N_TEST_PHANTOMS * len(REGULARIZERS)
        return cells + N_POISSON_SEEDS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("design_2d_single", "design", (16, 16), (0, 1), 1, 2, 1, 1, "average"),
        Workload("design_1d_ensemble", "design", (32, 16), (0,), 4, 2, 2, 2, "worst"),
        Workload("evaluate_2d", "evaluate", (48, 48), (0, 1), 1, 3, 1, 1, "average"),
    )
}


def input_seeds(seed: int) -> dict:
    """Seeds of every generated input, all derived from the run's seed."""
    base = (seed % 2**32) * 16
    return {
        "exemplars": [base + 1, base + 2],
        "maps": [base + 5, base + 6],
        "tests": [base + 9 + k for k in range(N_TEST_PHANTOMS)],
        "poisson": [base + 11 + k for k in range(N_POISSON_SEEDS)],
        "noise": base + 15,
    }


class RoundFailed(Exception):
    """A CLI command of the round returned a non-zero exit code."""


@dataclass
class State:
    """What the set-up builds; ``inputs`` is handed to the output checks.

    ``run`` does one round and is timed; ``collect`` turns what it returned
    into plain outputs and is not.
    """

    inputs: dict
    run: object
    collect: object


def import_program(w: Workload):
    """Import the modules the workload calls; returns the package."""
    import oedipus

    if w.kind == "evaluate":
        import oedipus.cli  # noqa: F401
    return oedipus


def setup(w: Workload, seed: int, out_dir: Path) -> State:
    """Grid, candidates, coil maps, phantoms and supports of the workload."""
    oe = import_program(w)

    seeds = input_seeds(seed)
    grid = oe.ImageGrid(w.dims, (FOV, FOV))
    cand = oe.build_cartesian_candidates(grid, undersample_axes=w.axes, n_coils=w.n_coils)
    maps = tuple(
        oe.synthesize_coil_maps(grid, w.n_coils, seed=s)
        for s in seeds["maps"][: w.n_map_sets]
    )
    model = oe.EncodingModel(grid=grid, candidates=cand, coil_maps=maps)
    spec = oe.TransformSpec(FAMILY, LEVELS)
    images = [
        oe.render_phantom(oe.default_phantom_spec(grid, s)).reshape(w.dims)
        for s in seeds["exemplars"][: w.n_exemplars]
    ]
    supports = [oe.extract_support(img, spec, FRACTION) for img in images]
    inputs = {
        "images": images,
        "maps": list(maps),
        "supports": [s.indices for s in supports],
    }
    if w.kind == "design":
        objective = oe.DesignObjective(w.objective)

        def run():
            return oe.sbs_design(model, supports, objective, w.target, spec)

        def collect(pattern):
            return {
                "kept": list(pattern.kept_groups),
                "deleted": list(pattern.deleted),
                "log": list(pattern.log),
            }

        return State(inputs, run, collect)

    config = write_config(w, seed, out_dir)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("baseline", "evaluate"):
                code = oe.cli.main([command, str(config)])
                if code != 0:
                    raise RoundFailed(f"oedipus {command} exited with {code}")

    return State(inputs, run, lambda _: read_evaluation(out_dir))


def write_config(w: Workload, seed: int, out_dir: Path) -> Path:
    """The YAML config of ``evaluate_2d``; JSON is valid YAML."""
    seeds = input_seeds(seed)
    doc = {
        "experiment": w.name,
        "grid": {"dims": list(w.dims), "fov": [FOV, FOV]},
        "undersample_axes": list(w.axes),
        "transform": {"family": FAMILY, "levels": LEVELS},
        "fraction": FRACTION,
        "objective": w.objective,
        "accelerations": [w.R],
        "channels": {"single": True},
        "exemplars": {"phantom_seeds": seeds["exemplars"][: w.n_exemplars]},
        "test_phantoms": {
            "seeds": seeds["tests"],
            "noise_sigma": NOISE_SIGMA,
            "noise_seed": seeds["noise"],
        },
        "baselines": {
            "uniform": True,
            "caipi": dict(CAIPI),
            "poisson": {"seeds": seeds["poisson"], "center_block": CENTER_BLOCK},
        },
        "recon": {"regularizers": list(REGULARIZERS)},
        "evaluate_channels": ["single"],
        "output_dir": str(out_dir / "cli"),
    }
    path = out_dir / "config.yaml"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def read_evaluation(out_dir: Path) -> dict:
    """Report rows, Poisson rows and kept groups of every pattern file."""
    cli_dir = out_dir / "cli"

    def rows(name, skip):
        with open(cli_dir / name, newline="") as fh:
            lines = fh.read().splitlines()[skip:]
        return [dict(r) for r in csv.DictReader(lines)]

    patterns = {}
    for f in sorted((cli_dir / "patterns").glob("*.json")):
        patterns[f.stem] = json.loads(f.read_text())["kept_groups"]
    return {
        "report": rows("report.csv", 2),
        "poisson": rows("poisson_seeds.csv", 0),
        "patterns": patterns,
    }
