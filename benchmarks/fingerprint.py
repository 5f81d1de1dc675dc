"""Output fingerprints: a short record of what a run produced.

For a design it is the hash of the deletion sequence and the final
objective; for ``evaluate_2d`` the NRMSE of every report cell and the CRB
objective of every Poisson pattern.  They are recorded for information and
are not a gate: a change that moves an output shows in the run's output at
once.  Objectives are compared with a tolerance because the BLAS thread
count moves their last digits.

    python3 benchmarks/fingerprint.py

runs one round of every workload for each of the seeds 1 to 10 and writes
the reference file ``fingerprints.json`` anew.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).with_name("fingerprints.json")
SEEDS = range(1, 11)
OBJECTIVE_RTOL = 1e-9
NRMSE_RTOL = 1e-6


def fingerprint(kind: str, outputs: dict) -> dict:
    if kind == "design":
        seq = ",".join(str(g) for g in outputs["deleted"])
        return {
            "deleted_sha256": hashlib.sha256(seq.encode()).hexdigest()[:16],
            "objective": outputs["log"][-1],
        }
    nrmse = {
        f"{r['pattern_id']}/{r['regularizer']}/{r['phantom']}": float(r["nrmse"])
        for r in outputs["report"]
    }
    crb = {r["pattern_id"]: float(r["crb_objective"]) for r in outputs["poisson"]}
    return {"nrmse": nrmse, "crb_objective": crb}


def _close(a, b, rtol) -> bool:
    return math.isclose(a, b, rel_tol=rtol) or (math.isinf(a) and a == b)


def differences(ref: dict, new: dict) -> list[str]:
    """What differs between two fingerprints, one line per item."""
    out = []
    for key in sorted(set(ref) | set(new)):
        a, b = ref.get(key), new.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            rtol = OBJECTIVE_RTOL if key == "crb_objective" else NRMSE_RTOL
            for cell in sorted(set(a) | set(b)):
                x, y = a.get(cell), b.get(cell)
                if x is None or y is None or not _close(x, y, rtol):
                    out.append(f"{key}[{cell}]: {x} -> {y}")
        elif isinstance(a, float) and isinstance(b, float):
            if not _close(a, b, OBJECTIVE_RTOL):
                out.append(f"{key}: {a!r} -> {b!r}")
        elif a != b:
            out.append(f"{key}: {a} -> {b}")
    return out


def compare_with_reference(workload: str, seed: int, fp: dict) -> str:
    """One line saying whether ``fp`` matches the stored reference."""
    try:
        stored = json.loads(REFERENCE.read_text())[workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return f"fingerprint: no stored reference for {workload} seed {seed}"
    diff = differences(stored, fp)
    if not diff:
        return "fingerprint: matches the stored reference"
    return "fingerprint: differs from the stored reference: " + "; ".join(diff)


def main() -> int:
    import run
    from workloads import WORKLOADS

    root = run.checkout_root()
    table = {}
    for name, w in WORKLOADS.items():
        table[name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.output_root(root)) as tmp:
                result = run.run_worker(root, name, seed, 0, False, Path(tmp))
            table[name][str(seed)] = fingerprint(w.kind, result["outputs"])
            print(f"{name} seed {seed}: {table[name][str(seed)]}")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
