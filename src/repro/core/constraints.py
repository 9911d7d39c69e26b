"""Incremental assignment repair.

The branch-and-bound mapper (:mod:`repro.core.device_mapper`) re-solves the
whole queue pool on every trigger.  That is the right cost model for the
paper's eight-queue nodes, but a production pool re-triggered on every
device failure or tenant arrival pays a full solve for what is usually a
local perturbation: one device vanished, its queues need homes, everyone
else should stay put.

:func:`repair_mapping` takes the previous
:class:`~repro.core.device_mapper.MappingResult` plus a :class:`MappingDelta`
(devices removed by a fault, queues arrived) and migrates only the
*affected* queues: survivors keep their binding, and the affected queues
are placed on top of the survivors' loads by the full solver's own exact
search (:func:`~repro.core.device_mapper._search`: branch-and-bound with
lower bounds and an LPT-plus-refinement seed, the survivors as ``base``
loads, capped at a node budget).  Ties follow the full solver's rule:
lower sum of squared loads (survivors included), then device order.  The
repaired assignment is accepted only when the search completed within its
node budget (the placement is then optimal over the pinned survivors), its
makespan is no worse than a fresh solve estimate — the LPT list-scheduling
bound that seeds the full solver, computed in O(Q·D) — and it stays within
``threshold`` × the capacity-scaled previous makespan; otherwise the repair
*falls back to the full solve* (`optimal_mapping` with the surviving
bindings as ``preferred``), so a rejected repair is exactly a fresh solve
and the caller never does worse than re-solving.

Determinism: every scan below iterates queues and devices in caller order
with explicit tie-breaks, and device loads are summed in a fixed queue
order (never incrementally subtracted), so repeated calls with equal inputs
return bit-identical results — the same contract the underlying mapper
keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.device_mapper import (
    MappingResult,
    _lpt_assign,
    _lpt_order,
    _search,
    _validate,
    optimal_mapping,
)

__all__ = [
    "MappingDelta",
    "repair_mapping",
    "DEFAULT_REPAIR_THRESHOLD",
    "REPAIR_NODE_BUDGET",
]

#: Accept a repair only when its makespan is within this factor of the
#: capacity-scaled previous makespan (see :func:`repair_mapping`).
#: Overridable per call; ``SchedulerConfig`` reads the
#: ``MULTICL_MAPPER_REPAIR_THRESHOLD`` env var into its own knob.
DEFAULT_REPAIR_THRESHOLD = 1.25

#: Node budget for the affected-subset branch-and-bound.  The affected set
#: after a single device failure is ~Q/D queues, so a couple of thousand
#: nodes explores it essentially exhaustively while bounding the worst case
#: far below one full greedy re-solve.
REPAIR_NODE_BUDGET = 4096

#: Relative tolerance for makespan comparisons: float loads summed in
#: different orders can disagree by ULPs on genuinely equal assignments
#: (same reasoning as the exact mapper's bound tolerance).
_REL_TOL = 1e-12


@dataclass(frozen=True)
class MappingDelta:
    """What changed since ``prev`` was solved.

    ``removed_devices`` — devices that failed or were withdrawn;
    ``added_queues`` — queues with no previous binding (arrivals).  Retired
    queues need no entry: the caller simply omits them from ``queues``.
    """

    removed_devices: Tuple[str, ...] = ()
    added_queues: Tuple[str, ...] = ()


def repair_mapping(
    prev: MappingResult,
    delta: MappingDelta,
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    threshold: float = DEFAULT_REPAIR_THRESHOLD,
    node_budget: int = REPAIR_NODE_BUDGET,
) -> MappingResult:
    """Repair ``prev`` against the post-delta pool instead of re-solving.

    ``queues``/``devices``/``cost`` describe the *current* (post-delta)
    pool.  Queues still bound to a surviving device where their cost is
    finite keep their binding; only the affected set — queues on removed
    devices, arrivals, and queues whose device became infeasible — is
    re-placed, by the exact search over the affected queues alone.

    Decision rule (documented in DESIGN.md §11): the repair is **accepted**
    iff the affected-subset search completed within ``node_budget`` and its
    makespan is (a) no worse than a fresh solve estimate — the LPT
    list-scheduling assignment that seeds the full solver, computed in
    O(Q·D) — and (b) within ``threshold`` × the previous makespan scaled by
    the capacity lost (``len(prev devices) / len(devices)``).  Otherwise it
    **falls back** to `optimal_mapping` over the whole pool with the
    surviving bindings preferred, so a rejected repair costs one solve and
    returns exactly the fresh solution.

    The result's ``repaired`` flag records which path ran and
    ``migrated_queues`` lists every queue whose device changed (or that was
    newly placed), so callers can tell repair from re-solve in telemetry.
    """
    _validate(queues, devices, cost)

    removed = set(delta.removed_devices)
    added = set(delta.added_queues)
    device_set = set(devices)

    kept: Dict[str, str] = {}
    affected: List[str] = []
    for q in queues:
        d = prev.mapping.get(q)
        if (
            q in added
            or d is None
            or d in removed
            or d not in device_set
            or not math.isfinite(cost[q].get(d, math.inf))
        ):
            affected.append(q)
        else:
            kept[q] = d

    # Surviving load per device, summed in (current) queue order so the
    # float is deterministic for equal inputs.
    base: Dict[str, float] = {d: 0.0 for d in devices}
    for q in queues:
        d = kept.get(q)
        if d is not None:
            base[d] += cost[q][d]

    order = _lpt_order(affected, devices, cost)
    assign, repair_makespan, explored, complete = _search(
        order, devices, cost, {}, base, node_budget
    )
    placed = dict(zip(order, assign))

    migrated = tuple(
        sorted(q for q in affected if prev.mapping.get(q) != placed[q])
    )

    # --- decision rule: accept repair or fall back to a full solve -------
    # Accept only when (a) the affected-subset search ran to completion
    # within its node budget — the placement is then exhaustively optimal
    # over the surviving assignment, not a truncated guess ("repair cost
    # exceeds a solve estimate" otherwise: an exhausted budget means the
    # subproblem is as hard as re-solving); (b) the repaired makespan is no
    # worse than the fresh solve estimate (the LPT list-scheduling
    # assignment that seeds the full solver, O(Q·D)); and (c) it stays
    # within ``threshold`` × the previous makespan scaled for the lost
    # capacity.  Rejection falls back to the full solve below.
    accept = complete
    if accept:
        _, lpt_loads, _ = _lpt_assign(
            _lpt_order(queues, devices, cost), devices, cost, prev.mapping
        )
        solve_estimate = max(lpt_loads.values())

        bound = math.inf
        if math.isfinite(prev.makespan) and prev.makespan > 0.0:
            prev_devices = len(set(prev.mapping.values())) or 1
            scale = prev_devices / max(len(devices), 1)
            bound = threshold * prev.makespan * max(scale, 1.0)

        accept = (
            repair_makespan <= solve_estimate * (1.0 + _REL_TOL)
            and repair_makespan <= bound
        )
    if accept:
        mapping = dict(kept)
        mapping.update(placed)
        return MappingResult(
            mapping={q: mapping[q] for q in queues},
            makespan=repair_makespan,
            explored=explored,
            exact=False,
            repaired=True,
            migrated_queues=migrated,
        )

    full = optimal_mapping(
        queues,
        devices,
        cost,
        {q: prev.mapping[q] for q in queues if q in prev.mapping},
    )
    return replace(
        full,
        repaired=False,
        migrated_queues=tuple(
            sorted(
                q for q in queues if prev.mapping.get(q) != full.mapping[q]
            )
        ),
    )

