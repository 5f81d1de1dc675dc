"""Sampling-pattern search by sequential backward selection of groups.

Starting from the full candidate set, the driver repeatedly deletes the
acquisition group whose removal degrades the design objective least, until
the measurement budget is reached.  The objective aggregates the CRB traces
over an ensemble of (exemplar support, coil-map set) pairs, either as their
sum (average case) or their maximum (worst case).  The restricted rows of
every ensemble pair are assembled once as (groups, r, S) rows of the same
per-group Grams, r <= C (:func:`~oedipus.crb.compressed_rows`).
Each iteration prices the remaining groups of each pair with the matrix
inversion lemma (r x r systems, not S x S inversions), then commits the
chosen deletion with one rank-r downdate.  Both steps, and the downdate
forms a price is read from, are the algebra of :mod:`oedipus.crb`; this
module holds the policy around them: which pairs keep their forms, when
kept forms are rebuilt, which groups are priced and how ties are broken.

When every pair has ``r S + 4 r^2 < S^2``, updating a group's forms after a
deletion (~r S + 4 r^2) costs less than building them afresh (~S^2), so
every pair keeps them and prices every group.  When a committed group's
stored forms drift from their exact values by more than ``_DRIFT_LIMIT``
(relative), all the pair's forms are rebuilt.

Otherwise no pair keeps them, and groups are priced lazily from fresh forms
(Minoux's accelerated greedy, 1978).  Removing rows only raises a CRB trace
(``A - B^H B <= A`` gives ``(A - B^H B)^-1 >= A^-1``), so a group's price at
an earlier deletion and the pair's current trace bound its price now from
below, and their sum or max bounds its cost.  A group is priced only while
that bound can still win: exact from monotonicity alone, with no
submodularity needed.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass, field

import numpy as np

from .crb import (
    compressed_rows,
    downdate_forms,
    downdate_traces,
    forms_traces,
    gram_trace,
    restricted_gram,
    smw_removal,
    state_from_gram,
    update_forms,
)
from .encoding import EncodingModel
from .errors import InfeasibleDesignError
from .sparsity import TransformSpec

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
# wins.  Keeps the selected sequence stable between the two pricing modes
# and a rescoring of every reduced Gram from scratch.
_TIE_RTOL = 1e-9

# Relative drift of a committed group's recursively updated forms from
# their exact values beyond which the pair's forms are rebuilt.
_DRIFT_LIMIT = 1e-10


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
) -> SamplingPattern:
    """Greedy backward selection down to ``target_groups`` groups.

    At every iteration the removed group attains the minimum objective
    value among all removable groups (ties resolved towards the lowest
    group index), with groups whose removal would make any ensemble member
    unidentifiable priced at ``+inf`` and therefore never removed.  The
    result is deterministic.

    Each (exemplar, map set) pair keeps its restricted rows in one
    (groups, r, S) array from :func:`~oedipus.crb.compressed_rows`, built
    once and never copied: a mask marks the active groups.  A line group
    gets r = sum over coils of the rank of that coil's readout spectra,
    with no decomposition per group.  Every deletion is committed with
    :func:`~oedipus.crb.smw_removal` and logged as the committed
    objective.  The pricing mode is chosen once per design: when every pair
    has ``r S + 4 r^2 < S^2``, every pair keeps its downdate forms and
    prices every group; otherwise no pair does, and each group is priced
    afresh only while its bound from its last exact price can still win
    (:func:`_lazy_costs`), so the deletions are those of full pricing.
    ``extra`` holds the largest relative drift of a committed group's forms
    (``max_drift``), the drift rebuilds, the form pairs, the exact (pair,
    group) prices (``priced``), the count full pricing makes
    (``full_pricing``) and each pair's r (``rows_per_group``).

    Raises :class:`InfeasibleDesignError` if the initial full-candidate
    CRB cannot be built or every remaining group becomes mandatory before
    the budget is reached.
    """
    cand = model.candidates
    supports = list(supports)
    _precheck(supports, target_groups, cand.C)
    if target_groups > cand.L:
        raise ValueError(f"target_groups {target_groups} exceeds group count {cand.L}")

    pairs = [(k, t) for k in range(len(supports)) for t in range(model.T)]
    rows = {(k, t): compressed_rows(model, supports[k], spec, t, range(cand.L)) for k, t in pairs}
    try:
        states = {p: state_from_gram(restricted_gram(rows[p])) for p in pairs}
    except InfeasibleDesignError as err:
        raise InfeasibleDesignError(
            f"full-candidate CRB build failed: {err}", iteration=0, cond=err.cond
        ) from err
    forms = {}  # kept where updating them, ~r S + 4 r^2 a group, beats building, ~S^2
    if all(r * s + 4 * r * r < s * s for r, s in (rows[p].shape[1:] for p in pairs)):
        forms = {p: downdate_forms(states[p].inv_gram, rows[p]) for p in pairs}

    alive = np.ones(cand.L, dtype=bool)
    last = np.zeros((len(pairs), cand.L))  # last exact removal trace of each (pair, group)
    log, deleted = [], []
    max_drift, rebuilds, priced, full = 0.0, 0, 0, 0
    while len(deleted) < cand.L - target_groups:
        iteration = len(deleted) + 1
        active = np.flatnonzero(alive)
        full += len(pairs) * len(active)
        if forms:
            costs = objective.combine([
                forms_traces(states[p].trace, *(m[active] for m in forms[p])) for p in pairs
            ])
            priced += len(pairs) * len(active)
        else:
            trace = [states[p].trace for p in pairs]
            table = np.maximum(last[:, active], np.array(trace)[:, None])  # lower bounds
            costs, n = _lazy_costs(
                objective, table, sorted(range(len(pairs)), key=lambda j: -trace[j]),
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
        for p in pairs:
            inv_gram = states[p].inv_gram
            states[p], u, k = smw_removal(states[p], rows[p][c])
            if forms:
                drift = update_forms(forms[p], rows[p], inv_gram, c, u, k)
                max_drift = max(max_drift, drift)
                if not drift < _DRIFT_LIMIT:
                    forms[p] = downdate_forms(states[p].inv_gram, rows[p])
                    rebuilds += 1
        alive[c] = False
        deleted.append(c)
        log.append(objective.combine([states[p].trace for p in pairs]))  # as committed

    return pattern_from_groups(
        cand,
        np.flatnonzero(alive),
        mode=f"sbs/{objective.mode}",
        log=log,
        deleted=deleted,
        extra={"max_drift": max_drift, "rebuilds": rebuilds, "form_pairs": list(forms),
               "priced": priced, "full_pricing": full,
               "rows_per_group": [rows[p].shape[1] for p in pairs]},
    )


def _lazy_costs(objective, table, order, price):
    """Costs of the active groups and the prices made, from ``table`` (pairs, g)
    of lower bounds on the removal traces, exact where +inf (updated).  Pair j
    (in ``order``) prices groups ``idx`` by ``price(j, idx)`` only while their
    combined bound is within ``(1 + _TIE_RTOL)^2`` of the best exact cost, or
    is the lowest before any is exact, so every group ``_select`` may pick is
    exact; ``idx`` is never empty."""
    exact = np.isinf(table)
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
            if idx.size:
                table[j, idx] = price(j, idx)
                exact[j, idx] = True
                n += len(idx)


def exhaustive_design(
    model: EncodingModel,
    supports,
    target_groups: int,
    spec: TransformSpec,
    objective: DesignObjective | None = None,
) -> SamplingPattern:
    """Globally optimal pattern by enumerating all group subsets.

    Intended as a test oracle for tiny instances; refuses to enumerate
    more than 10^6 subsets.  Each subset is scored by
    :func:`evaluate_pattern_crb` over the ensemble ``supports``, so singular
    subsets cost +inf and are never kept, and the first minimum wins.  The
    log carries the single optimal objective value.
    """
    cand, supports = model.candidates, list(supports)
    objective = objective or DesignObjective("average")
    n_subsets = math.comb(cand.L, target_groups)
    if n_subsets > 10**6:
        raise ValueError(f"{n_subsets} subsets exceed the enumeration budget of 10^6")
    best_cost, best_subset = math.inf, None
    for subset in itertools.combinations(range(cand.L), target_groups):
        pattern = pattern_from_groups(cand, subset, mode="exhaustive")
        cost = evaluate_pattern_crb(pattern, model, supports, objective, spec)
        if cost < best_cost:
            best_cost, best_subset = cost, subset
    if best_subset is None:
        raise InfeasibleDesignError("every subset of the requested size is singular")
    return pattern_from_groups(cand, best_subset, mode="exhaustive", log=[best_cost])


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
    kept, pairs = pattern.kept_groups, [(s, t) for s in supports for t in range(model.T)]
    grams = (restricted_gram(compressed_rows(model, s, spec, t, kept)) for s, t in pairs)
    return float(objective.combine([gram_trace(g) for g in grams]))
