"""Queue→device mapping that minimises concurrent completion time.

Paper Section V.A: "We use the per-queue aggregate kernel profiles and
apply a simple dynamic programming approach to determine the ideal
queue-device mapping that minimizes the concurrent execution time. The
dynamic programming approach guarantees ideal queue-device mapping and,
at the same time, incurs negligible overhead because the number of devices
in present-day nodes is not high."

The objective: given a cost matrix ``cost[q][d]`` (estimated seconds for
queue *q*'s epoch on device *d*, including data-movement estimates), find
the assignment of queues to devices minimising the *makespan* — the maximum
over devices of the summed costs of the queues assigned to it (queues on
the same device serialise; different devices run concurrently).

Three solvers are provided, built on one LPT (longest-processing-time)
list scheduler, :func:`_lpt_assign`, one makespan refinement,
:func:`_refine`, and one exact search, :func:`_search`.  All three take
optional ``base`` loads, so the incremental repair in
:mod:`repro.core.constraints` places orphaned queues on top of the
survivors with the same code rather than a copy of it:

* :func:`optimal_mapping` — exact depth-first branch-and-bound (the
  production path; the paper's "dynamic programming" is this search).  The
  incumbent is seeded with the LPT-plus-refinement makespan and nodes are
  pruned on two lower bounds (the largest best-case cost of any unplaced
  queue, and the load-balance bound ``total work / #devices``), so it
  explores a tiny fraction of the space for realistic pool sizes.  Above a
  configurable pool-size threshold (``exact_limit``, default from
  ``MULTICL_MAPPER_EXACT_MAX_QUEUES``, 16 queues) it switches to the greedy
  heuristic below — exact search is exponential in the worst case, and a
  32-queue × 8-device pool must map in milliseconds, not minutes.
* :func:`greedy_mapping` — deterministic LPT list scheduling followed by
  single-queue makespan refinement.  Used as the large-pool fallback;
  near-optimal in practice (typically within a few percent of the exact
  makespan on realistic instances; the test suite enforces a generous ≤2×
  factor on its random-instance distribution, and determinism).  Results
  carry ``exact=False``.
* :func:`brute_force_mapping` — exhaustive enumeration, used as the
  reference oracle in property-based tests ("always maps command queues to
  the optimal device combination" is an assertable claim).

Infeasible pairs (e.g. the data does not fit in device memory) carry
``math.inf`` cost.  Equal-makespan ties are broken toward keeping each
queue on its current device (to avoid gratuitous migrations), then toward
better balance (lower sum of squared device loads), then toward lower
device index.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "MappingResult",
    "optimal_mapping",
    "greedy_mapping",
    "brute_force_mapping",
    "MapperError",
    "EXACT_LIMIT_ENV",
]


class MapperError(RuntimeError):
    """No feasible assignment exists."""


#: Environment variable overriding the queue-count threshold above which
#: :func:`optimal_mapping` falls back to :func:`greedy_mapping`.
EXACT_LIMIT_ENV = "MULTICL_MAPPER_EXACT_MAX_QUEUES"

#: Default exact-search threshold (queues).  Exact search with the greedy
#: seed and lower-bound pruning is comfortably sub-millisecond at paper
#: scale (≤8 queues); beyond ~16 queues the worst case turns pathological.
DEFAULT_EXACT_LIMIT = 16


#: Raw values of EXACT_LIMIT_ENV already warned about (warn once per value,
#: not once per scheduler trigger — _exact_limit runs on the hot path).
_warned_exact_limits: Set[str] = set()


def _exact_limit() -> int:
    raw = os.environ.get(EXACT_LIMIT_ENV)
    if raw is None:
        return DEFAULT_EXACT_LIMIT
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        if raw not in _warned_exact_limits:
            _warned_exact_limits.add(raw)
            warnings.warn(
                f"ignoring invalid {EXACT_LIMIT_ENV}={raw!r}: expected a "
                f"non-negative integer queue count; using the default "
                f"({DEFAULT_EXACT_LIMIT})",
                RuntimeWarning,
                stacklevel=2,
            )
        return DEFAULT_EXACT_LIMIT
    return value


@dataclass(frozen=True)
class MappingResult:
    """An assignment plus its predicted makespan.

    ``exact`` is False when the result came from the greedy large-pool
    fallback rather than the exact branch-and-bound search.

    ``repaired`` is True when the result came from
    :func:`repro.core.constraints.repair_mapping`'s incremental path (the
    surviving assignment patched in place) rather than a full solve;
    ``migrated_queues`` then lists every queue whose device changed.  Full
    solves reached through a rejected repair also fill ``migrated_queues``
    (with ``repaired=False``), so telemetry can always see churn.
    """

    mapping: Dict[str, str]
    makespan: float
    explored: int = 0
    exact: bool = True
    repaired: bool = False
    migrated_queues: Tuple[str, ...] = field(default=())

    def device_loads(self, cost: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
        loads: Dict[str, float] = {}
        for q, d in self.mapping.items():
            loads[d] = loads.get(d, 0.0) + cost[q][d]
        return loads


def _validate(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
) -> None:
    if not queues:
        raise MapperError("empty queue pool")
    if not devices:
        raise MapperError("no devices")
    for q in queues:
        row = cost.get(q)
        if row is None:
            raise MapperError(f"no cost row for queue {q!r}")
        if all(not math.isfinite(row.get(d, math.inf)) for d in devices):
            raise MapperError(f"queue {q!r} infeasible on every device")


def brute_force_mapping(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
) -> MappingResult:
    """Exhaustive reference solver: enumerate all |D|^|Q| assignments."""
    _validate(queues, devices, cost)
    best: Optional[Tuple[float, Tuple[str, ...]]] = None
    explored = 0
    for combo in itertools.product(devices, repeat=len(queues)):
        explored += 1
        loads: Dict[str, float] = {}
        feasible = True
        for q, d in zip(queues, combo):
            c = cost[q].get(d, math.inf)
            if not math.isfinite(c):
                feasible = False
                break
            loads[d] = loads.get(d, 0.0) + c
        if not feasible:
            continue
        makespan = max(loads.values())
        if best is None or makespan < best[0]:
            best = (makespan, combo)
    if best is None:
        raise MapperError("no feasible assignment")
    return MappingResult(
        mapping=dict(zip(queues, best[1])), makespan=best[0], explored=explored
    )


def _lpt_order(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
) -> List[str]:
    """Queues by decreasing best-case cost (LPT; also the DFS order)."""
    return sorted(
        queues,
        key=lambda q: -min(map(cost[q].get, devices, itertools.repeat(math.inf))),
    )


def _lpt_assign(
    order: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Mapping[str, str],
    base: Optional[Mapping[str, float]] = None,
) -> Tuple[List[str], Dict[str, float], int]:
    """Greedy list scheduling: place each queue (largest first) on the
    device where it finishes earliest, on top of the ``base`` loads (zero
    when omitted).  Deterministic; ties prefer the queue's current device,
    then the earlier device in ``devices``."""
    loads: Dict[str, float] = (
        {d: 0.0 for d in devices} if base is None else dict(base)
    )
    assign: List[str] = []
    explored = 0
    for q in order:
        row = cost[q]
        pref = preferred.get(q)
        best_t = math.inf
        best_dev: Optional[str] = None
        best_pref = False
        for d in devices:
            c = row.get(d, math.inf)
            if not math.isfinite(c):
                continue
            explored += 1
            t = loads[d] + c
            if t < best_t or best_dev is None:
                best_t, best_dev, best_pref = t, d, d == pref
            elif t == best_t and not best_pref and d == pref:
                best_dev, best_pref = d, True
        if best_dev is None:
            raise MapperError(f"queue {q!r} infeasible on every device")
        assign.append(best_dev)
        loads[best_dev] = best_t
    return assign, loads, explored


def _seq_load(
    order: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    assign: Sequence[str],
    device: str,
    base: Optional[Mapping[str, float]] = None,
) -> float:
    """Load of ``device`` summed in DFS queue order, starting from its
    ``base`` load (zero when omitted).

    Exactly the float the branch-and-bound search computes for the same
    assignment — incremental ``+=``/``-=`` updates drift by ULPs under
    backtracking/moves, and a drifted incumbent below any true path sum
    would prune the optimum itself.
    """
    total = 0.0 if base is None else base[device]
    for q, d in zip(order, assign):
        if d == device:
            total += cost[q][device]
    return total


def _refine(
    order: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    assign: List[str],
    loads: Dict[str, float],
    base: Optional[Mapping[str, float]] = None,
) -> int:
    """Single-queue moves off the bottleneck device while the makespan
    strictly improves.  First-improvement, deterministic scan order,
    bounded passes — a cheap polish that closes most of LPT's gap.  Only
    queues in ``order`` move; ``base`` holds the load of pinned queues."""
    explored = 0
    for _ in range(2 * len(order)):
        makespan = max(loads.values())
        moved = False
        for i, q in enumerate(order):
            src = assign[i]
            if loads[src] != makespan:
                continue
            row = cost[q]
            for d in devices:
                if d == src:
                    continue
                c_dst = row.get(d, math.inf)
                if not math.isfinite(c_dst):
                    continue
                explored += 1
                # Tentatively move and recompute both affected loads
                # drift-free; the other devices are unchanged.
                assign[i] = d
                new_src = _seq_load(order, cost, assign, src, base)
                new_dst = _seq_load(order, cost, assign, d, base)
                if new_dst < makespan and new_src < makespan:
                    loads[src] = new_src
                    loads[d] = new_dst
                    moved = True
                    break
                assign[i] = src
            if moved:
                break
        if not moved:
            break
    return explored


def greedy_mapping(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Optional[Mapping[str, str]] = None,
) -> MappingResult:
    """Deterministic near-optimal heuristic: LPT + makespan refinement.

    Used by :func:`optimal_mapping` for pools above the exact-search
    threshold; may return a makespan above the true optimum (``exact`` is
    False), but runs in O(Q·D) per refinement pass.
    """
    _validate(queues, devices, cost)
    preferred = dict(preferred or {})
    order = _lpt_order(queues, devices, cost)
    assign, loads, explored = _lpt_assign(order, devices, cost, preferred)
    explored += _refine(order, devices, cost, assign, loads)
    return MappingResult(
        mapping=dict(zip(order, assign)),
        makespan=max(loads.values()),
        explored=explored,
        exact=False,
    )


def optimal_mapping(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Optional[Mapping[str, str]] = None,
    exact_limit: Optional[int] = None,
) -> MappingResult:
    """Exact makespan-minimising assignment with pruning.

    ``preferred`` maps queue → its current device; among equal-makespan
    solutions the one keeping more queues on their preferred device (then
    the better balanced one, then the one using lexicographically earlier
    devices) wins, avoiding pointless migrations.  See :func:`_search`.

    Pools with more than ``exact_limit`` queues (default: the
    ``MULTICL_MAPPER_EXACT_MAX_QUEUES`` env var, else 16) are solved by
    :func:`greedy_mapping` instead — the returned result then carries
    ``exact=False`` and may be slightly above the true optimum.
    """
    _validate(queues, devices, cost)
    preferred = dict(preferred or {})
    if exact_limit is None:
        exact_limit = _exact_limit()
    if len(queues) > exact_limit:
        return greedy_mapping(queues, devices, cost, preferred)
    order = _lpt_order(queues, devices, cost)
    assign, makespan, explored, _ = _search(order, devices, cost, preferred)
    return MappingResult(
        mapping=dict(zip(order, assign)), makespan=makespan, explored=explored
    )


def _search(
    order: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Mapping[str, str],
    base: Optional[Mapping[str, float]] = None,
    budget: Optional[int] = None,
) -> Tuple[List[str], float, int, bool]:
    """Exact branch-and-bound placement of ``order`` on top of ``base``.

    Depth-first over the queues in ``order`` (decreasing best-case cost, so
    the expensive, constrained queues are placed first), with the device
    loads starting at ``base`` (zero when omitted; survivors pinned by a
    repair).  The incumbent makespan is seeded with the LPT-plus-refinement
    bound — its loads are summed in this same order, so the seed's own path
    is never pruned — and a node is pruned when its largest load exceeds
    the incumbent or a lower bound on any completion does.

    Among equal-makespan assignments the winner has, in order: fewer
    queues moved off their ``preferred`` device; lower sum of squared
    device loads (``base`` included, so idle twins get used); the earlier
    device-index tuple.  Each queue tries its preferred device first.

    The search stops once ``budget`` nodes are explored (unbounded when
    None).  Returns ``(assign, makespan, explored, complete)`` with
    ``assign`` aligned to ``order``; ``complete`` is True iff the search
    finished within the budget, so the assignment is optimal.  A budget
    spent before the first leaf returns the seed.
    """
    n = len(order)
    n_devices = len(devices)
    seed_assign, seed_loads, _ = _lpt_assign(order, devices, cost, preferred, base)
    _refine(order, devices, cost, seed_assign, seed_loads, base)
    best_makespan = max(seed_loads.values())
    limit = math.inf if budget is None else budget

    # Per queue, its finite (device index, cost, moves-off-preferred)
    # options, preferred device first, and the suffix lower bounds over
    # the order: suffix_max[i] = the largest best-case cost among unplaced
    # queues (some device must take at least that); suffix_sum[i] = total
    # best-case work still to place (the load-balance bound divides the
    # grand total across all devices).
    cands: List[List[Tuple[int, float, int]]] = []
    min_cost: List[float] = []
    for q in order:
        row = cost[q]
        pref = preferred.get(q)
        opts = []
        mc = math.inf
        for k, d in enumerate(devices):
            c = row.get(d, math.inf)
            if math.isfinite(c):
                opts.append((k, c, int(pref is not None and d != pref)))
                if c < mc:
                    mc = c
        if pref is not None:
            opts.sort(key=lambda o: o[2])
        cands.append(opts)
        min_cost.append(mc)
    suffix_max = [0.0] * (n + 1)
    suffix_sum = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        mc = min_cost[i]
        suffix_max[i] = mc if mc > suffix_max[i + 1] else suffix_max[i + 1]
        suffix_sum[i] = suffix_sum[i + 1] + mc

    loads = [0.0] * n_devices if base is None else [base[d] for d in devices]
    assigned_total = 0.0 if base is None else sum(loads)
    assign = [0] * n
    # (moves, sum of squared loads, device-index tuple) of the incumbent.
    best_score: Optional[Tuple[int, float, Tuple[int, ...]]] = None
    explored = 0
    tol = 1.0 + 1e-12

    def rec(i: int, current_max: float, moves: int) -> None:
        nonlocal best_makespan, best_score, explored, assigned_total
        if explored >= limit:
            return
        if i == n:
            # Children are tested before recursing, so current_max is at
            # most the incumbent; on a tie the lower score wins.
            tied = best_score is not None and current_max == best_makespan
            if tied and moves > best_score[0]:
                return
            score = (moves, sum(v * v for v in loads), tuple(assign))
            if tied and not score < best_score:
                return
            best_makespan, best_score = current_max, score
            return
        # Lower-bound prune (strict: equal-makespan completions must stay
        # reachable for the tie-break).  The average is summed in a
        # different order than the incumbent's device loads, so it can land
        # a few ULPs above an exactly-tight optimum — the relative tolerance
        # keeps such paths alive (pruning less never costs exactness).
        lb = suffix_max[i]
        avg = (assigned_total + suffix_sum[i]) / n_devices
        if avg > lb:
            lb = avg
        if lb > best_makespan * tol:
            return
        for k, c, move in cands[i]:
            explored += 1
            # Save/restore instead of += / -=: float addition is not exactly
            # reversible, and a few ULPs of backtracking drift would push
            # completions past the seeded incumbent and prune the
            # (tied-)optimal assignment itself.
            old_load = loads[k]
            new_load = old_load + c
            new_max = new_load if new_load > current_max else current_max
            if new_max > best_makespan:
                continue
            old_total = assigned_total
            assign[i] = k
            loads[k] = new_load
            assigned_total = old_total + c
            rec(i + 1, new_max, moves + move)
            loads[k] = old_load
            assigned_total = old_total

    rec(0, max(loads), 0)
    complete = explored < limit
    if best_score is None:
        return seed_assign, best_makespan, explored, complete
    return [devices[k] for k in best_score[2]], best_makespan, explored, complete
