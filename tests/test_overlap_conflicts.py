"""One conflict definition for the overlap relaxer and the sanitizer.

The command graph's per-buffer access index yields every pair of pooled
commands that share a buffer with at least one writer
(:meth:`~repro.analysis.graph.CommandGraph.conflict_pairs`).  These tests
pin that index, and the sanitizer findings read from it, against
brute-force all-pairs scans; check that overlap issue keeps every such
pair ordered the way FIFO issue ordered it; and check that a wait-list
cycle still surfaces as a deadlock diagnosis when the pool goes through
the relaxer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import validate_pool
from repro.analysis.findings import FindingKind
from repro.analysis.graph import CommandNode, build_command_graph, reach_masks
from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.ocl.errors import InvalidOperation

from tests.test_analysis_sanitizer import PROGRAM, _crafted_cycle

AUTO = SchedFlag.SCHED_AUTO_DYNAMIC

KINDS = ("write", "fill", "read", "copy", "writer", "unannotated",
         "marker", "barrier")


def _conflicts(a: CommandNode, b: CommandNode) -> bool:
    """Same-buffer access with at least one writer (the sanitizer's rule)."""
    if not a.writes and not b.writes:
        return False
    aw = {id(x) for x in a.writes}
    bw = {id(x) for x in b.writes}
    if aw & ({id(x) for x in b.reads} | bw):
        return True
    return bool(bw & {id(x) for x in a.reads})


def _reference_findings(graph):
    """The sanitizer's race and stale-read findings, by brute force over
    every node pair, in its order: ``(kind, subjects, buffer, phrase)``."""
    nodes = graph.nodes

    def writes(node, buf):
        return any(b is buf for b in node.writes)

    def touches(node, buf):
        return writes(node, buf) or any(b is buf for b in node.reads)

    found = []
    first_touch = {id(b): b for x in nodes for b in x.writes + x.reads}
    for buf in first_touch.values():
        users = [x for x in nodes if touches(x, buf)]
        for k, a in enumerate(users):
            for b in users[k + 1:]:
                if not (writes(a, buf) or writes(b, buf)):
                    continue
                if graph.ordered(a.index, b.index):
                    continue
                both = writes(a, buf) and writes(b, buf)
                found.append((FindingKind.DATA_RACE, (a.label, b.label), buf.name,
                              "write/write" if both else "read/write"))
    for node in nodes:
        for buf in node.reads:
            if writes(node, buf):
                continue
            writers = [w for w in nodes if w is not node and writes(w, buf)]
            if any(graph.happens_before(w.index, node.index) for w in writers):
                continue
            if buf.initialized:
                continue
            later = [w for w in writers if graph.happens_before(node.index, w.index)]
            if later:
                found.append((FindingKind.STALE_READ, (node.label, later[0].label),
                              buf.name, "ordered before the write"))
            elif not writers:
                found.append((FindingKind.STALE_READ, (node.label,), buf.name,
                              "no producing write"))
    return found


def _depends_on(task, target) -> bool:
    """True if ``target`` is among ``task``'s transitive dependencies."""
    stack, seen = list(task.deps), set()
    while stack:
        t = stack.pop()
        if t is target:
            return True
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.deps)
    return False


def _build_pool(mcl, out_of_order, n_buffers, ops):
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    kernels = {name: program.create_kernel(name)
               for name in ("writer", "unannotated")}
    queues = [
        ctx.create_queue(sched_flags=AUTO, name=f"q{i}", out_of_order=ooo)
        for i, ooo in enumerate(out_of_order)
    ]
    # Odd buffers start initialized, even ones never written.
    buffers = [
        ctx.create_buffer(256, name=f"b{i}",
                          host_array=np.zeros(64, np.float32) if i % 2 else None)
        for i in range(n_buffers)
    ]
    events = []
    for qi, kind, x, y, picks in ops:
        q = queues[qi % len(queues)]
        src, dst = buffers[x % n_buffers], buffers[y % n_buffers]
        waits = list({id(events[p % len(events)]): events[p % len(events)]
                      for p in picks}.values()) if events else []
        if kind == "write":
            ev = q.enqueue_write_buffer(dst, wait_events=waits)
        elif kind == "fill":
            ev = q.enqueue_fill_buffer(dst, wait_events=waits)
        elif kind == "read":
            ev = q.enqueue_read_buffer(src, wait_events=waits)
        elif kind == "copy":
            ev = q.enqueue_copy_buffer(src, dst, wait_events=waits)
        elif kind == "marker":
            ev = q.enqueue_marker(wait_events=waits)
        elif kind == "barrier":
            ev = q.enqueue_barrier(wait_events=waits)
        else:
            k = kernels[kind]
            k.set_arg(0, src)
            k.set_arg(1, dst)
            k.set_arg(2, 64)
            ev = q.enqueue_nd_range_kernel(k, (64,), (64,), wait_events=waits)
        events.append(ev)
    return queues


POOLS = st.tuples(
    st.lists(st.booleans(), min_size=1, max_size=3),
    st.integers(1, 4),
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(KINDS),
            st.integers(0, 3),
            st.integers(0, 3),
            st.lists(st.integers(0, 63), max_size=2),
        ),
        min_size=1,
        max_size=14,
    ),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool=POOLS)
def test_conflict_index_and_overlap_order_on_random_pools(profile_dir, pool):
    out_of_order, n_buffers, ops = pool
    mcl = MultiCL(policy=ContextScheduler.ROUND_ROBIN, profile_dir=profile_dir,
                  sanitize=False, overlap=True)
    queues = _build_pool(mcl, out_of_order, n_buffers, ops)
    graph = build_command_graph(queues)
    nodes = graph.nodes

    brute = [
        (i, j)
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
        if _conflicts(nodes[i], nodes[j])
    ]
    assert graph.conflict_pairs() == brute

    # The sanitizer reads the same index; its findings keep their content
    # and order.
    findings = validate_pool(queues)
    reference = _reference_findings(graph)
    assert [(f.kind, f.subjects, f.buffer) for f in findings] == [
        r[:3] for r in reference
    ]
    assert all(r[3] in f.message for f, r in zip(findings, reference))

    ordered = [
        (a, b)
        for i, j in brute
        for a, b in ((i, j), (j, i))
        if graph.happens_before(a, b)
    ]
    mcl.context.finish_all()
    for a, b in ordered:
        first = nodes[a].command.event.task
        then = nodes[b].command.event.task
        assert _depends_on(then, first), (nodes[a].label, nodes[b].label)


@settings(max_examples=200, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                      max_size=30))
def test_reach_masks_match_breadth_first_search(edges):
    """Forward, backward and cyclic edges alike: each mask holds exactly
    the nodes a search reaches, never the start node itself."""
    succ = [[] for _ in range(12)]
    for a, b in edges:
        succ[a].append(b)
    for start, mask in enumerate(reach_masks(succ)):
        seen, frontier = set(), [start]
        while frontier:
            frontier = [b for a in frontier for b in succ[a] if b not in seen]
            seen.update(frontier)
        assert mask == sum(1 << i for i in seen - {start})


def test_issue_deadlock_error_names_cycle_under_overlap(profile_dir):
    """The relaxer's stall path reports the same wait-list cycle as FIFO
    issue does."""
    mcl = MultiCL(
        policy=ContextScheduler.ROUND_ROBIN,
        profile_dir=profile_dir,
        sanitize=False,  # let the pool reach issue_pool
        overlap=True,
    )
    qa, qb = _crafted_cycle(mcl)
    with pytest.raises(InvalidOperation, match="event wait-list cycle") as ei:
        qa.finish()
    msg = str(ei.value)
    assert "cross-queue dependency deadlock" in msg
    assert "qa[0]:marker" in msg and "qb[0]:marker" in msg
