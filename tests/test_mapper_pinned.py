"""Mapper results pinned bit for bit over seeded random instances.

`greedy_mapping`, `optimal_mapping` and `repair_mapping` share one LPT
list scheduler and one refinement.  Any change to their tie rules, their
float summation order or their node counts shows up here: the test hashes
the ``repr`` of every `MappingResult` (mapping order, makespan bits,
``explored``, flags, migrated queues) over a few thousand instances and
compares the SHA-256 with a pinned digest.

The instances cover integer costs (many ties), ``inf`` entries, preferred
devices outside the pool, arrivals (``added_queues``), device loss, repair
node budgets 16 and 4096, and repair thresholds 1.0, 1.25 and 4.0.

If a change to the mapper is *meant* to alter results, recompute the
digest with ``PYTHONPATH=src python tests/test_mapper_pinned.py`` and say
why in the change log.
"""

import hashlib
import math
import random

from repro.core.constraints import MappingDelta, repair_mapping
from repro.core.device_mapper import MapperError, greedy_mapping, optimal_mapping

INSTANCES = 3000
MAX_EXACT_QUEUES = 12
PINNED_RESULTS = 11131
PINNED_DIGEST = (
    "b0e9f4f34d73ec2b688f0dd4f5d64f8f2422a85167ae4475048529045be2a409"
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
    """Yield the repr of every mapper result on one random instance."""
    queues, devices, cost, preferred = _instance(rng)
    yield repr(greedy_mapping(queues, devices, cost, preferred))
    prev = optimal_mapping(
        queues, devices, cost, preferred, exact_limit=MAX_EXACT_QUEUES
    )
    yield repr(prev)

    # Repair: some queues arrive after the previous solve, and (with more
    # than one device) one device is lost.
    n_added = rng.randint(0, len(queues) - 1)
    if n_added:
        old = queues[: len(queues) - n_added]
        prev = optimal_mapping(
            old, devices, cost, exact_limit=MAX_EXACT_QUEUES
        )
        yield repr(prev)
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
        yield f"MapperError({exc})"
        return
    yield repr(res)


def mapper_digest(instances=INSTANCES, seed=20261018):
    rng = random.Random(seed)
    h = hashlib.sha256()
    count = 0
    for _ in range(instances):
        for line in _results(rng):
            h.update(line.encode())
            h.update(b"\n")
            count += 1
    return h.hexdigest(), count


def test_mapper_results_pinned():
    digest, count = mapper_digest()
    assert count == PINNED_RESULTS
    assert digest == PINNED_DIGEST


if __name__ == "__main__":
    print(*mapper_digest())
