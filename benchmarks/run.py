"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts ``worker.py`` in a fresh
process with a fixed environment (one BLAS thread, ``OEDIPUS_THREADS``
unset, fixed hash seed), first a few times for set-up only and then once
for the timed rounds.  The worker's outputs are then checked against the
dense oracle.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Everything a run writes goes under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import fingerprint
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # fresh processes timed for set-up only, before and after
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

# The environment every worker starts with; nothing else is inherited but
# PATH.  One BLAS thread keeps the library from competing with the
# program's own scoring pool and fixes the last digits of its objectives.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C",
}


def checkout_root() -> Path:
    return HERE.parent


def output_root(root: Path) -> Path:
    path = root / HERE.name / "out"
    path.mkdir(parents=True, exist_ok=True)
    return path


def worker_env(root: Path) -> dict:
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), **FIXED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


def _worker_cmd(workload, seed, seconds, trace, out, setup_only=False):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def run_worker(root, workload, seed, seconds, trace, out: Path) -> dict:
    """Start the measured worker, wait for it and return its result."""
    proc = subprocess.run(
        _worker_cmd(workload, seed, seconds, trace, out),
        env=worker_env(root),
        cwd=root,
        timeout=WORKER_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((out / "result.json").read_text())


def probe_setup(root, workload, seed, out: Path) -> float:
    proc = subprocess.run(
        _worker_cmd(workload, seed, 0, False, out, setup_only=True),
        env=worker_env(root),
        cwd=root,
        timeout=PROBE_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment_record() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "fixed_env": FIXED_ENV,
        "OEDIPUS_THREADS": "unset",
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="oedipus benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    if not (root / "src" / "oedipus" / "__init__.py").is_file():
        print(f"no oedipus sources under {root / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out = output_root(root) / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)

    # Set-up lasts a fraction of a second, so it is sampled before and after
    # the timed rounds: the machine's speed drifts over tens of seconds.
    def probes(first):
        return [
            probe_setup(root, w.name, args.seed, out / f"probe{i}")
            for i in range(first, first + SETUP_PROBES)
        ]

    try:
        setup_samples = probes(0)
        result = run_worker(root, w.name, args.seed, args.seconds, bool(args.trace), out)
        setup_samples += probes(SETUP_PROBES)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    setup_samples.append(result["setup_s"])

    import numpy as np

    with np.load(out / "inputs.npz") as data:
        inputs = {k: data[k] for k in data.files}
    failures = checks.check(w, args.seed, inputs, result["outputs"])
    failures += [f"round differs from the first: {d}" for d in result["round_differences"]]
    for line in failures:
        print(f"CHECK FAILED: {line}")
    if result["outputs"] is not None:
        fp = fingerprint.fingerprint(w.kind, result["outputs"])
        print(fingerprint.compare_with_reference(w.name, args.seed, fp))

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "total_s": {"value": result["total_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment_record(),
        "setup_samples_s": setup_samples,
        "setup_cpu_s": result["setup_cpu_s"],
        "warmup_wall_s": result["warmup_wall_s"],
        "round_wall_s": result["round_wall_s"],
        "round_cpu_s": result["round_cpu_s"],
        "round_steal_s": result["round_steal_s"],
        "check_failures": failures,
        "metrics": metrics,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"{w.name} seed {args.seed}: {len(result['round_wall_s'])} timed rounds, "
        f"environment {json.dumps(record['environment'])}"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
