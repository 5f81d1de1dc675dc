"""Sampling-pattern search by sequential backward selection of groups.

Starting from the full candidate set, the driver repeatedly deletes the
acquisition group whose removal degrades the design objective least, until
the measurement budget is reached.  The objective aggregates the CRB traces
over an ensemble of (exemplar support, coil-map set) pairs, either as their
sum (average case) or their maximum (worst case).  Each pair is one
:class:`_Pair`, which holds its restricted rows, assembled once as
(groups, r, S) rows of the same per-group Grams, r <= min(C, S), or for
one-row 2D groups as per-axis factors (d, S) in place of (groups, 1, S)
(:func:`~oedipus.crb.candidate_rows`), and its CRB state.  Its ``prices``
reads removal traces with the matrix inversion lemma (r x r systems, not
S x S inversions) and its ``commit`` applies a deletion with one rank-r
downdate: the algebra of :mod:`oedipus.crb`, with the policy of when kept
forms are updated or rebuilt.  The driver chooses which pairs keep forms,
which groups are priced and how ties are broken.

When every pair has one-row groups or ``r S + 4 r^2 < S^2 / 2``, every pair
keeps forms and prices every group from the whole form arrays, deleted
groups masked to +inf.  Kept forms are updated for every group after a
deletion (~r S + 4 r^2 each), while lazy pricing builds fresh ones
(~S^2 each) for only about half of the multi-row groups, hence the half;
for one-row groups lazy bounds are weak and forms are always kept.  When a
committed group's stored forms drift from their exact values by more than
``_DRIFT_LIMIT`` (relative), all the pair's forms are rebuilt.

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
    candidate_rows, compressed_rows, downdate_forms, downdate_traces, forms_traces, gram_trace,
    restricted_gram, smw_removal, state_from_gram,
)
from .encoding import EncodingModel
from .errors import InfeasibleDesignError
from .sparsity import TransformSpec

__all__ = [
    "DesignObjective", "SamplingPattern", "pattern_from_groups",
    "sbs_design", "exhaustive_design", "evaluate_pattern_crb",
]

# Relative slack for treating two candidate costs as tied; the first
# qualifying position, the lowest group index, wins.  Keeps the selected
# sequence stable between the two pricing modes and a rescoring of every
# reduced Gram from scratch.
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


def _ensemble(supports) -> list:
    """The exemplar supports as a list; an empty ensemble has no objective."""
    supports = list(supports)
    if not supports:
        raise ValueError("supports must hold at least one exemplar support")
    return supports


def _precheck(supports, target_groups: int, cand):
    if not 1 <= target_groups <= cand.L:
        raise ValueError(f"target_groups must be in 1..{cand.L}, got {target_groups}")
    for k, support in enumerate(supports):
        if support.S > target_groups * cand.C:
            raise InfeasibleDesignError(
                f"support {k} has size {support.S} but the budget keeps only "
                f"{target_groups * cand.C} measurements", iteration=0,
            )


class _Pair:
    """SBS state of one (exemplar, map set) pair ``key``: the rows (groups, r, S)
    of every candidate group, never copied, the CRB state of the groups left,
    the downdate forms when kept, the last exact price of each group and the
    drift and rebuilds of the forms."""

    def __init__(self, key, rows):
        self.key, self.rows = key, rows
        self.state = state_from_gram(restricted_gram(rows))
        self.forms, self.last = None, np.zeros(rows.shape[0])
        self.drift, self.rebuilds = 0.0, 0

    @property
    def trace(self) -> float:
        return self.state.trace

    def keep_forms(self):
        self.forms = downdate_forms(self.state.inv_gram, self.rows)

    def prices(self, groups):
        """Exact removal traces of ``groups``, from fresh forms."""
        traces = downdate_traces(self.state, self.rows[groups])
        self.last[groups] = traces
        return traces

    def bounds(self, groups):
        """Lower bounds on the removal traces of ``groups``: a trace only rises."""
        return np.maximum(self.last[groups], self.state.trace)

    def commit(self, c: int):
        """Remove group ``c`` and update the kept forms, rebuilt on drift; a
        pair without forms never builds them, whatever the limit."""
        self.state, drift = smw_removal(self.state, self.rows, c, self.forms)
        self.drift = max(self.drift, drift)
        if self.forms is not None and not drift < _DRIFT_LIMIT:
            self.keep_forms()
            self.rebuilds += 1


def sbs_design(
    model: EncodingModel, supports, objective: DesignObjective, target_groups: int,
    spec: TransformSpec,
) -> SamplingPattern:
    """Greedy backward selection down to ``target_groups`` groups.

    Each deletion removes the group of least objective, the lowest index
    within the tie slack, so the result is deterministic; a group whose
    removal makes any pair unidentifiable costs ``+inf`` and is never
    removed.  ``log`` holds the committed objective after each deletion.
    ``extra`` holds the largest relative drift of a committed group's forms
    (``max_drift``), the drift rebuilds, the pairs that keep forms, the
    exact (pair, group) prices (``priced``) against the count of full
    pricing (``full_pricing``) and each pair's r (``rows_per_group``).

    Raises :class:`ValueError` for an empty ensemble or a target outside
    1..L, and :class:`InfeasibleDesignError` if the full-candidate CRB
    cannot be built or every remaining group becomes mandatory first.
    """
    cand, supports = model.candidates, _ensemble(supports)
    _precheck(supports, target_groups, cand)
    try:
        pairs = [_Pair((k, t), candidate_rows(model, s, spec, t))
                 for k, s in enumerate(supports) for t in range(model.T)]
    except InfeasibleDesignError as err:
        raise InfeasibleDesignError(
            f"full-candidate CRB build failed: {err}", iteration=0
        ) from err
    if all(r == 1 or r * s + 4 * r * r < s * s / 2 for r, s in (p.rows.shape[1:] for p in pairs)):
        for p in pairs:
            p.keep_forms()

    alive = np.ones(cand.L, dtype=bool)
    log, deleted, priced, full = [], [], 0, 0
    while len(deleted) < cand.L - target_groups:
        left = cand.L - len(deleted)
        costs, n = _costs(objective, pairs, alive)
        priced, full = priced + n, full + len(pairs) * left
        c = _select(costs)
        if c < 0:
            raise InfeasibleDesignError(
                "every remaining group is mandatory; acceleration infeasible at iteration "
                f"{len(deleted) + 1} ({left} groups left, target {target_groups})",
                iteration=len(deleted) + 1,
            )
        for p in pairs:
            p.commit(c)
        alive[c] = False
        deleted.append(c)
        log.append(objective.combine([p.trace for p in pairs]))  # as committed

    return pattern_from_groups(
        cand, np.flatnonzero(alive), f"sbs/{objective.mode}", log, deleted, extra={
            "max_drift": max(p.drift for p in pairs), "rebuilds": sum(p.rebuilds for p in pairs),
            "form_pairs": [p.key for p in pairs if p.forms is not None], "priced": priced,
            "full_pricing": full, "rows_per_group": [p.rows.shape[1] for p in pairs],
        },
    )


def _costs(objective, pairs, alive):
    """Costs of removing each group, +inf where ``alive`` is False, and the prices
    made: from the kept forms, or lazily by :func:`_lazy_costs`, pairs of highest
    trace first."""
    if pairs[0].forms is not None:  # every pair keeps forms, or none does
        costs = objective.combine([forms_traces(p.trace, *p.forms) for p in pairs])
        return np.where(alive, costs, np.inf), len(pairs) * np.count_nonzero(alive)
    active = np.flatnonzero(alive)
    table = np.array([p.bounds(active) for p in pairs])
    order = sorted(range(len(pairs)), key=lambda j: -pairs[j].trace)
    costs = np.full(len(alive), np.inf)
    costs[active], n = _lazy_costs(
        objective, table, order, lambda j, idx: pairs[j].prices(active[idx]))
    return costs, n


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
    model: EncodingModel, supports, target_groups: int, spec: TransformSpec,
    objective: DesignObjective | None = None,
) -> SamplingPattern:
    """Globally optimal pattern by enumerating all group subsets.

    Intended as a test oracle for tiny instances; refuses to enumerate
    more than 10^6 subsets.  Each subset is scored by
    :func:`evaluate_pattern_crb` over the ensemble ``supports``, so singular
    subsets cost +inf and are never kept, and the first subset within the
    tie slack of the minimum wins, as in SBS (:func:`_select`).  The log
    carries the single optimal objective value.
    """
    cand, supports = model.candidates, _ensemble(supports)
    objective = objective or DesignObjective("average")
    _precheck(supports, target_groups, cand)
    n_subsets = math.comb(cand.L, target_groups)
    if n_subsets > 10**6:
        raise ValueError(f"{n_subsets} subsets exceed the enumeration budget of 10^6")
    costs = np.array([
        evaluate_pattern_crb(pattern_from_groups(cand, subset, mode="exhaustive"), model,
                             supports, objective, spec)
        for subset in itertools.combinations(range(cand.L), target_groups)
    ])
    i = _select(costs)
    if i < 0:
        raise InfeasibleDesignError("every subset of the requested size is singular")
    # the i-th subset is enumerated again rather than every subset held
    kept = next(itertools.islice(itertools.combinations(range(cand.L), target_groups), i, None))
    return pattern_from_groups(cand, kept, mode="exhaustive", log=[costs[i]])


def evaluate_pattern_crb(
    pattern: SamplingPattern, model: EncodingModel, supports, objective: DesignObjective,
    spec: TransformSpec,
) -> float:
    """Design objective of an arbitrary pattern, rebuilt from scratch.

    Returns ``+inf`` when any ensemble member's restricted Gram is
    singular for the retained groups; raises :class:`ValueError` for an
    empty ensemble.
    """
    cand = model.candidates
    if pattern.grid_dims != cand.grid_dims:
        raise ValueError(
            f"pattern grid {pattern.grid_dims} does not match candidate "
            f"grid {cand.grid_dims}"
        )
    kept = pattern.kept_groups
    pairs = [(s, t) for s in _ensemble(supports) for t in range(model.T)]
    grams = (restricted_gram(compressed_rows(model, s, spec, t, kept)) for s, t in pairs)
    return float(objective.combine([gram_trace(g) for g in grams]))
