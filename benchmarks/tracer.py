"""Per-layer tracing of ``oedipus`` public functions from outside the program.

``Tracer.install`` replaces each listed function with a timing wrapper in
every loaded ``oedipus`` module that holds it, because ``design``, ``cli``
and ``crb`` import functions by name; methods are replaced on their class.
``Tracer.remove`` puts every original back.  Spans nest per thread, so a
function's self time is its inclusive time minus that of the traced calls
it made on its own thread; the candidate scoring that ``sbs_design`` hands
to a thread pool is therefore counted in the pool threads, and the wait
for it stays in ``sbs_design``'s self time on the calling thread.
``top_self_s`` is the self time of the outermost calls on the thread that
installed the tracer, so the rest of the self time is what the layers
below them took, on any thread.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

import numpy as np

PACKAGE = "oedipus"
TRACED = {
    "encoding": (
        "build_cartesian_candidates",
        "synthesize_coil_maps",
        "group_rows",
        "EncodingOperator.forward",
        "EncodingOperator.adjoint",
    ),
    "sparsity": (
        "forward_transform",
        "inverse_transform",
        "extract_support",
        "restricted_rows",
    ),
    "crb": ("restricted_block", "build_full_crb", "downdate_trace", "smw_downdate"),
    "design": ("sbs_design", "evaluate_pattern_crb"),
    "baselines": ("uniform_pattern", "caipi_pattern", "poisson_disc_pattern"),
    "recon": ("retrospective_undersample", "irls_solve"),
    "io": ("pattern_to_json", "pattern_from_json", "write_pgm", "write_oedm"),
    "phantoms": ("render_phantom",),
    "cli": ("load_config", "cmd_baseline", "cmd_evaluate"),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
COUNTERS = (
    "images",
    "infinite",
    "deletions",
    "outer_iterations",
    "operator_applications",
    "bytes_written",
)


class Tracer:
    """Collects calls, inclusive and self time per traced function."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.top_self_s = 0.0
        self._home = threading.get_ident()

    # -- wrapping -----------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for short, names in TRACED.items():
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for qual in names:
                span = f"{short}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name, None)
                    original = None if cls is None else cls.__dict__.get(meth)
                    if original is None:
                        continue  # removed from the program: record nothing
                    self._bind(cls, meth, self._wrap(span, original))
                    continue
                original = getattr(module, qual, None)
                if original is None:
                    continue
                wrapper = self._wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._bind(m, attr, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span, fn):
        observe = _OBSERVERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [span, 0.0]  # name, time spent in traced children
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                own = dt - frame[1]
                with self._lock:
                    rec = self.stats[span]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += own
                    if not stack and threading.get_ident() == self._home:
                        self.top_self_s += own
            if observe is not None:
                extra = observe(args, result, stack)
                if extra:
                    with self._lock:
                        for key, value in extra.items():
                            self.counts[key] += value
            return result

        return wrapper


def _images(args, result, stack):
    return {"images": int(np.prod(np.shape(args[0])[:-2]))}


def _infinite(args, result, stack):
    return {"infinite": int(np.isinf(result))}


def _deletions(args, result, stack):
    return {"deletions": len(result.deleted)}


def _iterations(args, result, stack):
    return {"outer_iterations": int(result.iterations)}


def _operator(args, result, stack):
    inside = any(frame[0] == "recon.irls_solve" for frame in stack)
    return {"operator_applications": int(inside)}


def _json_bytes(args, result, stack):
    return {"bytes_written": len(result.encode())}


def _file_bytes(args, result, stack):
    return {"bytes_written": os.path.getsize(args[0])}


_OBSERVERS = {
    "sparsity.forward_transform": _images,
    "crb.downdate_trace": _infinite,
    "design.sbs_design": _deletions,
    "recon.irls_solve": _iterations,
    "encoding.EncodingOperator.forward": _operator,
    "io.pattern_to_json": _json_bytes,
    "io.write_pgm": _file_bytes,
    "io.write_oedm": _file_bytes,
}
