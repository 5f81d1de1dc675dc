"""Sampling-pattern search by sequential backward selection of groups.

Starting from the full candidate set, the driver repeatedly deletes the
acquisition group whose removal degrades the design objective least, until
the measurement budget is reached.  The objective aggregates the CRB traces
over an ensemble of (exemplar support, coil-map set) pairs, either as their
sum (average case) or their maximum (worst case).  The restricted rows of
every ensemble pair are assembled once into a (groups, C, S) array and
compressed to (groups, r, S) rows B of the same per-group Grams, r <= C;
each iteration prices the remaining groups of each pair with the matrix
inversion lemma (r x r systems, not S x S inversions), then commits the
chosen deletion with one rank-r downdate.

A group is priced from its downdate forms ``M1 = B A^-1 B^H`` and
``M2 = B A^-2 B^H`` (:mod:`oedipus.crb`), O(r S^2) per group to build.  A
pair with ``r S + 4 r^2 < S^2`` keeps them and applies the rank-r update of
each removal (Hager, SIAM Review 1989) by one GEMM over its stacked rows:
O(P r (r S + r^2)) per deletion for P groups, O(P S) for one-row groups,
not O(P r S^2).  Other pairs build them afresh for the groups they price.
When a committed group's stored forms drift from their exact values by more
than ``_DRIFT_LIMIT`` (relative), all the pair's forms are rebuilt.

Those pairs price lazily (Minoux's accelerated greedy, 1978).  Removing
rows only raises a CRB trace (``A - B^H B <= A`` gives ``(A - B^H B)^-1 >=
A^-1``), so a group's price at an earlier deletion and the pair's current
trace bound its price now from below, and their sum or max bounds its cost.
A group is priced only while that bound can still win: exact from
monotonicity alone, with no submodularity needed.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass, field

import numpy as np

from .crb import (
    compress_rows,
    downdate_forms,
    downdate_traces,
    forms_traces,
    gram_trace,
    restricted_gram,
    restricted_matrix,
    smw_removal,
    state_from_gram,
)
from .encoding import EncodingModel
from .errors import InfeasibleDesignError
from .sparsity import SupportSet, TransformSpec

__all__ = [
    "DesignObjective",
    "SamplingPattern",
    "pattern_from_groups",
    "sbs_design",
    "exhaustive_design",
    "evaluate_pattern_crb",
]

# Relative slack for treating two candidate costs as tied; the first
# qualifying position, the lowest group index as ``active`` is ascending,
# wins.  Keeps the selected sequence stable between the downdate-based and
# rebuild-based cost computations.
_TIE_RTOL = 1e-9

# Relative drift of a committed group's recursively updated forms from
# their exact values beyond which the pair's forms are rebuilt.
_DRIFT_LIMIT = 1e-10
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class DesignObjective:
    """Aggregation of per-(k, t) CRB traces into one design cost."""

    mode: str = "average"

    def __post_init__(self):
        if self.mode not in ("average", "worst"):
            raise ValueError(f"unknown objective mode {self.mode!r}")

    def combine(self, traces):
        """Aggregate over the first axis (the pairs): +inf if any trace is."""
        values = np.asarray(traces, dtype=float)
        return values.max(axis=0) if self.mode == "worst" else values.sum(axis=0)


@dataclass(frozen=True, eq=False)
class SamplingPattern:
    """Retained groups of a candidate set plus design provenance.

    ``mask`` is the boolean retained-location map over the candidate
    k-space grid; ``log`` records the objective after each deletion (or a
    single final value for non-iterative generators).  ``deleted`` is the
    deletion order for iterative designs.
    """

    kept_groups: tuple[int, ...]
    grid_dims: tuple[int, int]
    group_size: int
    n_groups_initial: int
    mode: str
    mask: np.ndarray
    log: tuple[float, ...] = ()
    deleted: tuple[int, ...] = ()
    extra: dict = field(default_factory=dict)

    @property
    def M(self) -> int:
        """Retained measurement count."""
        return len(self.kept_groups) * self.group_size

    @property
    def R(self) -> float:
        """Acceleration factor at group granularity."""
        return self.n_groups_initial / len(self.kept_groups)


def pattern_from_groups(
    candidates, kept_groups, mode: str, log=(), deleted=(), extra=None
) -> SamplingPattern:
    """Assemble a :class:`SamplingPattern` for groups of a candidate set."""
    kept = tuple(sorted(int(g) for g in kept_groups))
    if not kept:
        raise ValueError("kept_groups must be nonempty")
    if kept[0] < 0 or kept[-1] >= candidates.L:
        raise ValueError("kept_groups outside candidate group range")
    if len(set(kept)) != len(kept):
        raise ValueError("kept_groups must be unique")
    mask = np.zeros(candidates.n_locations, dtype=bool)
    mask[candidates.group_locs[list(kept)]] = True
    return SamplingPattern(
        kept_groups=kept,
        grid_dims=candidates.grid_dims,
        group_size=candidates.C,
        n_groups_initial=candidates.L,
        mode=mode,
        mask=mask.reshape(candidates.grid_dims),
        log=tuple(float(v) for v in log),
        deleted=tuple(int(g) for g in deleted),
        extra=dict(extra or {}),
    )


def _select(costs) -> int:
    """Position of the first cost within the tie slack of the minimum; -1
    when every cost is +inf."""
    best = costs.min()
    if math.isinf(best):
        return -1
    return int(np.argmax(costs <= best * (1.0 + _TIE_RTOL)))


def _precheck(supports, target_groups: int, c: int):
    if target_groups < 1:
        raise ValueError(f"target_groups must be >= 1, got {target_groups}")
    for k, support in enumerate(supports):
        if support.S > target_groups * c:
            raise InfeasibleDesignError(
                f"support {k} has size {support.S} but the budget keeps only "
                f"{target_groups * c} measurements",
                iteration=0,
            )


def sbs_design(
    model: EncodingModel,
    supports,
    objective: DesignObjective,
    target_groups: int,
    spec: TransformSpec,
    method: str = "smw",
) -> SamplingPattern:
    """Greedy backward selection down to ``target_groups`` groups.

    At every iteration the removed group attains the minimum objective
    value among all removable groups (ties resolved towards the lowest
    group index), with groups whose removal would make any ensemble member
    unidentifiable priced at ``+inf`` and therefore never removed.  The
    result is deterministic.

    Each (exemplar, map set) pair keeps its restricted rows in one
    (groups, C, S) array, built once and never copied: a mask marks the
    active groups.  ``method="smw"`` compresses each array with
    :func:`~oedipus.crb.compress_rows`, prices the groups from their
    downdate forms and commits each deletion with
    :func:`~oedipus.crb.smw_removal`; ``method="direct"`` re-inverts every
    reduced Gram from the raw rows (slow, used to validate the downdate
    path).  Pairs without forms price a group only while its bound from its
    last exact price can still win (:func:`_lazy_costs`), so the deletions
    are those of full pricing.  ``extra`` holds the largest relative drift of
    a committed group's forms (``max_drift``), the drift rebuilds, the form
    pairs, the exact (pair, group) prices (``priced``) and the count full
    pricing makes (``full_pricing``).

    Raises :class:`InfeasibleDesignError` if the initial full-candidate
    CRB cannot be built or every remaining group becomes mandatory before
    the budget is reached.
    """
    if method not in ("smw", "direct"):
        raise ValueError(f"unknown method {method!r}")
    cand = model.candidates
    supports = list(supports)
    _precheck(supports, target_groups, cand.C)
    if target_groups > cand.L:
        raise ValueError(
            f"target_groups {target_groups} exceeds group count {cand.L}"
        )

    pairs = [(k, t) for k in range(len(supports)) for t in range(model.T)]
    rows = {}
    for k, t in pairs:  # one pair at a time, so one raw row array is alive at once
        rows[k, t] = restricted_matrix(model, supports[k], spec, t, range(cand.L))
        if method == "smw":
            rows[k, t] = compress_rows(rows[k, t])
    try:
        states = {p: state_from_gram(restricted_gram(rows[p])) for p in pairs}
    except InfeasibleDesignError as err:
        raise InfeasibleDesignError(
            f"full-candidate CRB build failed: {err}", iteration=0, cond=err.cond
        ) from err
    forms = {}
    for p in pairs:  # kept where updating them, ~r S + 4 r^2 a group, beats building, ~S^2
        r, s = rows[p].shape[1:]
        if method == "smw" and r * s + 4 * r * r < s * s:
            forms[p] = downdate_forms(states[p].inv_gram, rows[p])

    alive = np.ones(cand.L, dtype=bool)
    last = np.zeros((len(pairs), cand.L))  # last exact removal trace of each (pair, group)
    log = []
    deleted = []
    max_drift, rebuilds, priced, full = 0.0, 0, 0, 0
    while len(deleted) < cand.L - target_groups:
        iteration = len(deleted) + 1
        active = np.flatnonzero(alive)
        full += len(pairs) * len(active)
        if method == "direct":  # each reduced Gram is all groups' Grams minus the group's own
            grams = (_grams(rows[p][active]) for p in pairs)
            costs = objective.combine([gram_trace(g.sum(axis=0) - g) for g in grams])
            priced = full
        else:
            traces = [
                forms_traces(states[p].trace, *(m[active] for m in forms[p]))
                if p in forms
                else np.maximum(last[j, active], states[p].trace)  # lower bounds
                for j, p in enumerate(pairs)
            ]
            priced += len(forms) * len(active)
            if len(forms) == len(pairs):  # every pair priced in full: no bounds to keep
                costs = objective.combine(traces)
            else:
                table = np.array(traces)
                exact = np.isinf(table) | np.array([[p in forms] for p in pairs])
                fresh = [j for j, p in enumerate(pairs) if p not in forms]
                costs, n = _lazy_costs(
                    objective, table, exact, sorted(fresh, key=lambda j: -states[pairs[j]].trace),
                    lambda j, idx: downdate_traces(states[pairs[j]], rows[pairs[j]][active[idx]]),
                )
                last[:, active] = table
                priced += n
        i = _select(costs)
        if i < 0:
            raise InfeasibleDesignError(
                "every remaining group is mandatory; acceleration "
                f"infeasible at iteration {iteration} "
                f"({cand.L - len(deleted)} groups left, target {target_groups})",
                iteration=iteration,
            )
        c = int(active[i])
        best = costs[i]
        if method == "smw":
            for p in pairs:
                inv_gram = states[p].inv_gram
                states[p], u, k = smw_removal(states[p], rows[p][c])
                if p in forms:
                    drift = _update_forms(forms[p], rows[p], inv_gram, c, u, k)
                    max_drift = max(max_drift, drift)
                    if not drift < _DRIFT_LIMIT:
                        forms[p] = downdate_forms(states[p].inv_gram, rows[p])
                        rebuilds += 1
            best = objective.combine([states[p].trace for p in pairs])  # as committed
        alive[c] = False
        deleted.append(c)
        log.append(best)

    return pattern_from_groups(
        cand,
        np.flatnonzero(alive),
        mode=f"sbs/{objective.mode}",
        log=log,
        deleted=deleted,
        extra={"max_drift": max_drift, "rebuilds": rebuilds, "form_pairs": list(forms),
               "priced": priced, "full_pricing": full},
    )


def _lazy_costs(objective, table, exact, order, price):
    """Costs of the active groups and the prices made, from ``table`` (pairs, g)
    of removal traces, exact where ``exact`` is set and lower bounds elsewhere
    (both updated).  Pair j (in ``order``) prices groups ``idx`` by ``price(j,
    idx)`` only while their combined bound is within ``(1 + _TIE_RTOL)^2`` of
    the best exact cost, or is the lowest before any is exact, so every group
    ``_select`` may pick is exact."""
    n = 0
    while True:
        costs = objective.combine(table)
        done = exact.all(axis=0) | np.isinf(costs)
        limit = costs[done].min(initial=math.inf) * (1.0 + _TIE_RTOL) ** 2
        todo = ~done & (costs <= limit) if done.any() else np.arange(len(costs)) == costs.argmin()
        if not todo.any():
            return costs, n
        for j in order:
            idx = np.flatnonzero(todo & ~exact[j] & (objective.combine(table) <= limit))
            table[j, idx] = price(j, idx)
            exact[j, idx] = True
            n += len(idx)


def _update_forms(forms, rows, inv_gram, c: int, u, k) -> float:
    """Update the forms (M1, M2) of every group of ``rows`` (g, r, S) in place
    for the removal of group ``c``, given ``inv_gram`` before it and the
    ``U``, ``K`` of :func:`~oedipus.crb.smw_removal`; returns the relative
    drift of group c's stored forms from their exact values ``B_c U`` and
    ``U^H U``.  With ``X = B U``, ``Y = B A^-1 U`` and ``V = X K`` (K is
    Hermitian): ``M1 += V X^H`` and ``M2 += W V^H + (W V^H)^H`` with
    ``W = Y + V U^H U / 2``.
    """
    m1, m2 = forms
    g, r, s = rows.shape
    xy = rows.reshape(-1, s) @ np.concatenate([u, inv_gram @ u], axis=1)
    uhu = u.conj().T @ u
    v = xy[:, :r] @ k
    w = xy[:, r:] + 0.5 * (v @ uhu)
    x, v, w = (a.reshape(g, r, r) for a in (xy[:, :r], v, w))
    exact = ((m1[c], x[c]), (m2[c], uhu))
    drift = max(np.abs(a - b).max() / max(np.abs(b).max(), _TINY) for a, b in exact)
    m1 += v @ np.swapaxes(x.conj(), 1, 2)
    wv = w @ np.swapaxes(v.conj(), 1, 2)
    m2 += wv + np.swapaxes(wv.conj(), 1, 2)
    return float(drift)


def _grams(rows) -> np.ndarray:
    """Restricted Gram of each group of ``rows`` (g, C, S), shape (g, S, S)."""
    return np.swapaxes(rows.conj(), 1, 2) @ rows


def exhaustive_design(
    model: EncodingModel,
    support: SupportSet,
    target_groups: int,
    spec: TransformSpec,
    objective: DesignObjective | None = None,
) -> SamplingPattern:
    """Globally optimal pattern by enumerating all group subsets.

    Intended as a test oracle for tiny instances; refuses to enumerate
    more than 10^6 subsets.  Subsets with a singular restricted Gram are
    excluded.  The log carries the single optimal objective value.
    """
    cand = model.candidates
    objective = objective or DesignObjective("average")
    n_subsets = math.comb(cand.L, target_groups)
    if n_subsets > 10**6:
        raise ValueError(
            f"{n_subsets} subsets exceed the enumeration budget of 10^6"
        )
    # per-group Grams of every map set, (T, L, S, S)
    grams = np.stack(
        [_grams(restricted_matrix(model, support, spec, t, range(cand.L))) for t in range(model.T)]
    )
    best_cost = math.inf
    best_subset = None
    for subset in itertools.combinations(range(cand.L), target_groups):
        # singular subsets cost +inf and are never kept
        cost = float(objective.combine(gram_trace(grams[:, subset].sum(axis=1))))
        if cost < best_cost:
            best_cost = cost
            best_subset = subset
    if best_subset is None:
        raise InfeasibleDesignError(
            "every subset of the requested size is singular"
        )
    return pattern_from_groups(
        cand, best_subset, mode="exhaustive", log=[best_cost]
    )


def evaluate_pattern_crb(
    pattern: SamplingPattern,
    model: EncodingModel,
    supports,
    objective: DesignObjective,
    spec: TransformSpec,
) -> float:
    """Design objective of an arbitrary pattern, rebuilt from scratch.

    Returns ``+inf`` when any ensemble member's restricted Gram is
    singular for the retained groups.
    """
    cand = model.candidates
    if pattern.grid_dims != cand.grid_dims:
        raise ValueError(
            f"pattern grid {pattern.grid_dims} does not match candidate "
            f"grid {cand.grid_dims}"
        )
    if pattern.kept_groups[-1] >= cand.L:
        raise ValueError("pattern references groups outside the candidate set")
    kept, pairs = pattern.kept_groups, [(s, t) for s in supports for t in range(model.T)]
    grams = (restricted_gram(restricted_matrix(model, s, spec, t, kept)) for s, t in pairs)
    return float(objective.combine([gram_trace(g) for g in grams]))
