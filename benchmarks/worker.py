"""The measured process of one benchmark run.

``run.py`` starts it in a fixed environment.  It imports ``oedipus``, builds
the workload's inputs, runs one warm-up round whose outputs are checked
later, then repeats the round for the given number of seconds.  With
``--trace`` it times half of that untraced and half traced, and reports the
per-layer figures of one set-up plus one round.  It writes ``result.json``
and ``inputs.npz`` into ``--out``.  With ``--setup-only`` it prints the
set-up time and stops.  Times are wall times; the CPU time and the CPU
steal of every round are kept beside them.
"""

import time

START = time.perf_counter()
START_CPU = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import fingerprint  # noqa: E402
from workloads import WORKLOADS, RoundFailed, import_program, setup  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="measured benchmark process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    oedipus = import_program(w)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup(w, args.seed, out)
    setup_s = time.perf_counter() - START
    setup_cpu_s = time.process_time() - START_CPU
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_trace = None
    if tracer is not None:
        tracer.remove()
        setup_trace = snapshot(tracer)
        tracer.reset()

    import numpy as np

    np.savez(
        out / "inputs.npz",
        images=np.stack(state.inputs["images"]),
        maps=np.stack(state.inputs["maps"]),
        supports=np.stack(state.inputs["supports"]),
    )

    tally = {"rounds": 0, "failed": 0, "differences": []}

    def one_round():
        """Times of one round and its outputs (None if it failed)."""
        gc.collect()
        s0 = steal_seconds()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raw = state.run()
        except (oedipus.OedipusError, RoundFailed) as err:
            raw = err
        times = Times(
            [time.perf_counter() - t0],
            [time.process_time() - c0],
            [steal_seconds() - s0],
        )
        tally["rounds"] += 1
        if isinstance(raw, Exception):
            print(f"round failed: {type(raw).__name__}: {raw}", file=sys.stderr)
            tally["failed"] += w.ops_per_round
            return times, None
        return times, state.collect(raw)

    warmup, first = one_round()
    first_fp = None if first is None else fingerprint.fingerprint(w.kind, first)

    def timed(budget: float) -> Times:
        rounds = Times([], [], [])
        t_start = time.perf_counter()
        while not rounds.wall or time.perf_counter() - t_start < budget:
            times, outputs = one_round()
            rounds.extend(times)
            if outputs is not None and first_fp is not None:
                fp = fingerprint.fingerprint(w.kind, outputs)
                tally["differences"] += fingerprint.differences(first_fp, fp)
        return rounds

    per_layer = None
    if args.seconds <= 0:
        rounds = warmup
    elif tracer is None:
        rounds = timed(args.seconds)
    else:
        rounds = timed(args.seconds / 2)
        tracer.install()
        try:
            traced = timed(args.seconds / 2)
        finally:
            tracer.remove()
        per_layer = layer_metrics(w, setup_trace, snapshot(tracer), traced, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": w.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "warmup_wall_s": warmup.wall[0],
        "total_s": rounds.quiet_median(),
        "round_wall_s": rounds.wall,
        "round_cpu_s": rounds.cpu,
        "round_steal_s": rounds.steal,
        "rounds": tally["rounds"],
        "attempted": tally["rounds"] * w.ops_per_round,
        "failed": tally["failed"],
        "round_differences": tally["differences"],
        "peak_rss_mb": peak_rss_mb,
        "outputs": first,
        "per_layer": per_layer,
    }
    (out / "result.json").write_text(json.dumps(result) + "\n")
    return 0


STEAL_SHARE = 0.02  # steal, as a share of wall time, that a quiet round may see


class Times(NamedTuple):
    """Wall time, CPU time and CPU steal of each of a list of rounds."""

    wall: list
    cpu: list
    steal: list

    def extend(self, other: "Times"):
        for mine, theirs in zip(self, other):
            mine.extend(theirs)

    def quiet_median(self) -> float:
        """Median wall time of the rounds that saw little CPU steal.

        Steal is time the host gave this machine's CPUs to other guests;
        a round that saw much of it was slowed by them, not by the program.
        A round counts as quiet if its steal, summed over the CPUs, was at
        most ``STEAL_SHARE`` of its wall time; the half of the rounds with
        the least steal always count.
        """
        order = sorted(range(len(self.wall)), key=lambda i: self.steal[i])
        quiet = set(order[: (len(order) + 1) // 2])
        quiet.update(i for i, s in enumerate(self.steal) if s <= STEAL_SHARE * self.wall[i])
        return statistics.median(self.wall[i] for i in sorted(quiet))


def steal_seconds() -> float:
    """CPU time the host took from this machine's CPUs so far, 0 if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def snapshot(tracer) -> dict:
    return {
        "stats": {k: list(v) for k, v in tracer.stats.items()},
        "counts": dict(tracer.counts),
        "top_self_s": tracer.top_self_s,
    }


def layer_metrics(w, setup_snap, rounds_snap, traced, untraced) -> dict:
    """Per-layer figures of one set-up plus one (average traced) round.

    ``traced`` and ``untraced`` are the :class:`Times` of the traced and
    the untraced rounds of the run.
    """
    n = len(traced.wall)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span, (c0, s0, self0) in setup_snap["stats"].items():
        c1, s1, self1 = rounds_snap["stats"][span]
        put(f"{span}.calls", c0 + c1 / n, "count")
        put(f"{span}.s", s0 + s1 / n, "s")
        put(f"{span}.self_s", self0 + self1 / n, "s")

    def count(key):
        return setup_snap["counts"][key] + rounds_snap["counts"][key] / n

    def calls(span):
        return metrics[f"{span}.calls"]["value"]

    def ratio(a, b):
        return a / b if b else 0.0

    pairs = w.n_exemplars * w.n_map_sets
    deletions = count("deletions")
    # Every deletion scores each group still active, and the scorer stops
    # at a candidate's first infinite pair, so each infinite candidate
    # gives exactly one infinite downdate.
    candidates = 0
    if calls("crb.downdate_trace"):
        candidates = sum(w.n_groups - k for k in range(w.n_groups - w.target))
    put("sparsity.forward_transform.images", count("images"), "count")
    put(
        "crb.restricted_block.per_group",
        calls("crb.restricted_block") / (pairs * w.n_groups),
        "calls/group",
    )
    put(
        "crb.downdate_trace.finite_share",
        ratio(candidates - count("infinite"), candidates),
        "share",
    )
    put("design.deletions", deletions, "count")
    put(
        "design.scores_per_deletion",
        ratio(calls("crb.downdate_trace"), pairs * deletions),
        "scores/deletion",
    )
    put("recon.outer_iterations", count("outer_iterations"), "count")
    put("recon.operator_applications", count("operator_applications"), "count")
    put("io.bytes_written", count("bytes_written"), "bytes")
    traced_s = traced.quiet_median()
    put("trace.total_s", traced_s, "s")
    put("trace.overhead_s", traced_s - untraced.quiet_median(), "s")
    inner_self_s = sum(s[2] for s in rounds_snap["stats"].values()) - rounds_snap["top_self_s"]
    put("trace.attributed_share", inner_self_s / sum(traced.wall), "share")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
