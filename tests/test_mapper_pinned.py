"""Mapper results pinned bit for bit over seeded random instances.

`greedy_mapping`, `optimal_mapping` and `repair_mapping` share one LPT
list scheduler, one refinement and one exact search.  Any change to their
tie rules, their float summation order or their node counts shows up here:
the test hashes the ``repr`` of every `MappingResult` (mapping order,
makespan bits, ``explored``, flags, migrated queues) over a few thousand
instances and compares the SHA-256 with a pinned digest.

Two narrower digests pin what a change to the repair's tie rule must not
move: every full-solve result (``greedy_mapping``/``optimal_mapping``,
``explored`` included), and every repair result with its ``mapping``
stripped (makespan, nodes, flags and migrated queues).

The instances cover integer costs (many ties), ``inf`` entries, preferred
devices outside the pool, arrivals (``added_queues``), device loss, repair
node budgets 16 and 4096, and repair thresholds 1.0, 1.25 and 4.0.

If a change to the mapper is *meant* to alter results, recompute the
digest with ``PYTHONPATH=src python tests/test_mapper_pinned.py`` and say
why in the change log.
"""

import functools
import hashlib
import math
import random
from dataclasses import replace

from repro.core.constraints import MappingDelta, repair_mapping
from repro.core.device_mapper import MapperError, greedy_mapping, optimal_mapping

INSTANCES = 3000
MAX_EXACT_QUEUES = 12
PINNED_RESULTS = 11131
PINNED_DIGEST = (
    "3c05b7bff2e71b53760f7b76a6ff2e2704414eb16db94409363e68aea2856533"
)
PINNED_SOLVE_DIGEST = (
    "992407b133484984facc731d25baa82013e60de0bd60e97a4e7c76c81e250cff"
)
PINNED_REPAIR_OUTCOME_DIGEST = (
    "90eb1c5d6502d7ce19e0dd2e6f7a36d4287fb0c5d6ed3490bcd381cd03be452d"
)


def _instance(rng):
    kind = rng.choice(("int", "float", "related"))
    # Integer costs tie so often that exact search on a dozen of them
    # explores ~10^5 nodes; smaller tied pools keep the test fast.
    nq = rng.randint(1, 8 if kind == "int" else MAX_EXACT_QUEUES)
    nd = rng.randint(1, 5)
    queues = [f"q{i}" for i in range(nq)]
    devices = [f"d{i}" for i in range(nd)]
    speed = {d: rng.uniform(0.5, 2.0) for d in devices}
    cost = {}
    for q in queues:
        work = rng.uniform(1.0, 10.0)
        row = {}
        for d in devices:
            if kind == "int":
                row[d] = float(rng.randint(1, 4))
            elif kind == "float":
                row[d] = rng.uniform(0.1, 9.0)
            else:
                row[d] = work / speed[d]
            if rng.random() < 0.1:
                row[d] = math.inf
        if all(math.isinf(v) for v in row.values()):
            row[rng.choice(devices)] = float(rng.randint(1, 4))
        cost[q] = row
    preferred = {
        q: rng.choice(devices + ["gone"])
        for q in queues
        if rng.random() < 0.6
    }
    return queues, devices, cost, preferred


def _results(rng):
    """Yield ``(kind, result)`` for every mapper result on one random
    instance: kind ``"solve"`` or ``"repair"``, result a `MappingResult`
    or the repair's `MapperError`."""
    queues, devices, cost, preferred = _instance(rng)
    yield "solve", greedy_mapping(queues, devices, cost, preferred)
    prev = optimal_mapping(
        queues, devices, cost, preferred, exact_limit=MAX_EXACT_QUEUES
    )
    yield "solve", prev

    # Repair: some queues arrive after the previous solve, and (with more
    # than one device) one device is lost.
    n_added = rng.randint(0, len(queues) - 1)
    if n_added:
        old = queues[: len(queues) - n_added]
        prev = optimal_mapping(
            old, devices, cost, exact_limit=MAX_EXACT_QUEUES
        )
        yield "solve", prev
    added = tuple(queues[len(queues) - n_added:])
    removed = ()
    pool = devices
    if len(devices) > 1 and rng.random() < 0.8:
        dead = rng.choice(devices)
        removed = (dead,)
        pool = [d for d in devices if d != dead]
    pool_cost = {q: {d: cost[q][d] for d in pool} for q in queues}
    delta = MappingDelta(removed_devices=removed, added_queues=added)
    threshold = rng.choice((1.0, 1.25, 4.0))
    budget = rng.choice((16, 4096))
    try:
        res = repair_mapping(
            prev, delta, queues, pool, pool_cost,
            threshold=threshold, node_budget=budget,
        )
    except MapperError as exc:
        yield "repair", exc
        return
    yield "repair", res


def _line(result, strip_mapping=False):
    if isinstance(result, MapperError):
        return f"MapperError({result})"
    if strip_mapping:
        result = replace(result, mapping={})
    return repr(result)


@functools.lru_cache(maxsize=None)
def mapper_digests(instances=INSTANCES, seed=20261018):
    """``{"full", "solve", "repair_outcome"}`` -> ``(sha256, count)``."""
    rng = random.Random(seed)
    hashes = {k: hashlib.sha256() for k in ("full", "solve", "repair_outcome")}
    counts = dict.fromkeys(hashes, 0)

    def add(key, line):
        hashes[key].update(line.encode())
        hashes[key].update(b"\n")
        counts[key] += 1

    for _ in range(instances):
        for kind, result in _results(rng):
            add("full", _line(result))
            if kind == "solve":
                add("solve", _line(result))
            else:
                add("repair_outcome", _line(result, strip_mapping=True))
    return {k: (h.hexdigest(), counts[k]) for k, h in hashes.items()}


def mapper_digest(instances=INSTANCES, seed=20261018):
    return mapper_digests(instances, seed)["full"]


def test_mapper_results_pinned():
    digest, count = mapper_digest()
    assert count == PINNED_RESULTS
    assert digest == PINNED_DIGEST


def test_solve_results_pinned():
    digest, _ = mapper_digests()["solve"]
    assert digest == PINNED_SOLVE_DIGEST


def test_repair_outcomes_pinned():
    digest, _ = mapper_digests()["repair_outcome"]
    assert digest == PINNED_REPAIR_OUTCOME_DIGEST


if __name__ == "__main__":
    for name, (digest, count) in mapper_digests().items():
        print(name, digest, count)
