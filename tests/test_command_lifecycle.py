"""Per-command object budget and the engine's ownership contract.

A command allocates only the objects it keeps: ``SimEngine.task`` keeps the
``deps`` list and ``meta`` dict it is given, so every caller must build
them for that one task.  These tests pin both halves: the number of
GC-tracked objects a deferred and a completed command keep alive, and that
no two live tasks share a dependency list or a metadata dict.
"""

import gc

import numpy as np
import pytest

from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.hardware.specs import DeviceKind, DeviceSpec, LinkSpec, NodeSpec
from repro.ocl.enums import ContextScheduler, MemFlag, SchedFlag
from repro.service.core import SchedulingService

WORK_SRC = """
// @multicl flops_per_item=400 bytes_per_item=8 writes=1
__kernel void work(__global float* in, __global float* out, int n) { }

// @multicl flops_per_item=64 bytes_per_item=8 writes=0
__kernel void touch(__global float* x) { }
"""

AUTO = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH

#: GC-tracked objects one command may keep alive.  Deferred: the Command,
#: its Event, the argument snapshot and the event's callback list.
#: Completed: the callback list is gone; the SimTask, its dependency list
#: and the TraceInterval join (the meta dict holds only strings and
#: numbers, which the collector does not track).
DEFERRED_BUDGET = 4
COMPLETED_BUDGET = 6
#: One-off objects a batch may create regardless of its size.
FIXED_SLACK = 32


def asym_node() -> NodeSpec:
    """A fast GPU and a ~3x slower CPU (the splitter engages on it)."""
    gpu = DeviceSpec(
        name="gpu0", kind=DeviceKind.GPU, compute_units=16, clock_ghz=1.0,
        peak_gflops=1000.0, mem_bandwidth_gbs=200.0, mem_size_bytes=4 << 30,
    )
    cpu = DeviceSpec(
        name="cpu", kind=DeviceKind.CPU, compute_units=8, clock_ghz=2.5,
        peak_gflops=300.0, mem_bandwidth_gbs=50.0, mem_size_bytes=16 << 30,
    )
    return NodeSpec(
        name="asym2",
        devices=(gpu, cpu),
        host_links={
            "gpu0": LinkSpec(name="pcie-gpu0", latency_s=1.8e-5, bandwidth_gbs=8.0),
            "cpu": LinkSpec(name="dram-cpu", latency_s=2e-6, bandwidth_gbs=20.0),
        },
    )


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


# ---------------------------------------------------------------------------
# Allocation budget
# ---------------------------------------------------------------------------
def test_tracked_objects_per_command_within_budget():
    n_cmds = 2000
    service = SchedulingService(profile=False)
    session = service.create_session("t0")
    kernel = session.create_program(WORK_SRC).build().create_kernel("touch")
    kernel.set_arg(0, session.create_buffer(4 * 1024, name="x"))
    queue = session.create_queue(sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    fired = []
    on_done = fired.append
    # Warm every lazily built structure (pricing table, profile, trace).
    for _ in range(10):
        queue.enqueue_nd_range_kernel(kernel, (1024,), (64,)).set_callback(on_done)
    service.drain()
    fired.clear()

    before = _tracked()
    for _ in range(n_cmds):
        queue.enqueue_nd_range_kernel(kernel, (1024,), (64,)).set_callback(on_done)
    assert len(queue.pending) == n_cmds
    deferred = _tracked() - before
    service.drain()
    completed = _tracked() - before

    assert len(fired) == n_cmds and all(ev.complete for ev in fired)
    # The budget is the same on every supported interpreter only while none
    # of these carries a per-instance __dict__: before Python 3.11 each one
    # would be another tracked object.
    ev = fired[0]
    for obj in (ev, ev.command, ev.task):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert deferred <= DEFERRED_BUDGET * n_cmds + FIXED_SLACK, deferred / n_cmds
    assert completed <= COMPLETED_BUDGET * n_cmds + FIXED_SLACK, completed / n_cmds


# ---------------------------------------------------------------------------
# Ownership: no two live tasks share a deps list or a meta dict
# ---------------------------------------------------------------------------
def _tasks_of(events, queues):
    """Every task reachable from the events' tasks and the queues' issued
    tasks through dependency edges (migrations, gathers, split shares)."""
    stack = [ev.task for ev in events if ev.task is not None]
    for q in queues:
        stack.extend(q._outstanding)
    seen = {}
    while stack:
        task = stack.pop()
        if id(task) in seen:
            continue
        seen[id(task)] = task
        stack.extend(task.deps)
    return list(seen.values())


def _assert_owned(tasks, queues):
    dep_lists = [t.deps for t in tasks if isinstance(t.deps, list)]
    assert len({id(d) for d in dep_lists}) == len(dep_lists)
    metas = [t.meta for t in tasks if isinstance(t.meta, dict)]
    assert len({id(m) for m in metas}) == len(metas)
    shared = [q._tenant_meta for q in queues if q._tenant_meta is not None]
    for t in tasks:
        assert all(t.meta is not m for m in shared), t.name


@pytest.mark.parametrize("overlap", [False, True])
def test_issued_tasks_own_their_deps_and_meta(tmp_path, overlap):
    # Brute-force profiling staging leaves residency alone, so the
    # host-resident kernel arguments still migrate at issue.
    mcl = MultiCL(
        node_spec=asym_node(), policy=ContextScheduler.AUTO_FIT,
        config=SchedulerConfig(data_caching=False),
        profile_dir=str(tmp_path), overlap=overlap,
    )
    ctx = mcl.context
    program = ctx.create_program(WORK_SRC).build()
    n = 1 << 16

    def host_buffer(name):
        return ctx.create_buffer(
            4 * n, flags=MemFlag.READ_WRITE | MemFlag.COPY_HOST_PTR,
            host_array=np.ones(n, np.float32), name=name,
        )

    a, b, c, d = (host_buffer(x) for x in "abcd")
    out = np.empty(n, np.float32)
    qa = ctx.create_queue(sched_flags=AUTO, name="qa")
    qo = ctx.create_queue(sched_flags=AUTO, name="qo", out_of_order=True)
    qs = ctx.create_queue(sched_flags=AUTO | SchedFlag.SCHED_SPLIT, name="qs")
    k1 = program.create_kernel("work")
    k2 = program.create_kernel("work")
    k3 = program.create_kernel("work")

    events = []
    # In-order queue: behind the fill (a non-empty dependency prefix), a
    # kernel whose two host-resident arguments both migrate, then every
    # other transfer kind.
    events.append(qa.enqueue_fill_buffer(c, 2.0))
    k1.set_arg(0, a)
    k1.set_arg(1, b)
    k1.set_arg(2, n)
    events.append(qa.enqueue_nd_range_kernel(k1, (n,), (64,)))
    events.append(qa.enqueue_write_buffer(a, np.zeros(n, np.float32)))
    events.append(qa.enqueue_copy_buffer(c, a))
    events.append(qa.enqueue_read_buffer(b, out))
    events.append(qa.enqueue_marker())
    # Out-of-order queue: kernels around a barrier, a cross-queue marker.
    k2.set_arg(0, d)
    k2.set_arg(1, d)
    k2.set_arg(2, n)
    events.append(qo.enqueue_nd_range_kernel(k2, (n,), (64,)))
    events.append(qo.enqueue_barrier())
    events.append(qo.enqueue_nd_range_kernel(k2, (n,), (64,)))
    events.append(qo.enqueue_marker(wait_events=[events[0]]))
    # Split queue: both arguments move share by share off one prefix.
    split_in = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    split_out = host_buffer("split_out")
    events.append(qs.enqueue_write_buffer(split_in, np.arange(n, dtype=np.float32)))
    k3.set_arg(0, split_in)
    k3.set_arg(1, split_out)
    k3.set_arg(2, n)
    events.append(qs.enqueue_nd_range_kernel(k3, (n,), (64,)))

    queues = (qa, qo, qs)
    qa.flush()
    assert all(ev.task is not None for ev in events)
    tasks = _tasks_of(events, queues)
    names = " ".join(t.name for t in tasks)
    for part in ("mig:", "write:", "fill:", "copy:", "read:", "marker@",
                 "barrier@", "split-join:"):
        assert part in names, part
    _assert_owned(tasks, queues)
    for q in queues:
        q.finish()
    assert all(ev.complete for ev in events)


def test_tenant_queue_tasks_own_their_meta():
    service = SchedulingService(profile=False)
    session = service.create_session("t0")
    program = session.create_program(WORK_SRC).build()
    n = 1 << 12
    src = session.create_buffer(4 * n, host_array=np.ones(n, np.float32))
    dst = session.create_buffer(4 * n, host_array=np.ones(n, np.float32))
    kernel = program.create_kernel("work")
    kernel.set_arg(0, src)
    kernel.set_arg(1, dst)
    kernel.set_arg(2, n)
    q = session.create_queue(name="tq")
    assert q._tenant_meta == {"tenant": "t0"}
    events = [
        q.enqueue_write_buffer(src, np.zeros(n, np.float32)),
        q.enqueue_nd_range_kernel(kernel, (n,), (64,)),
        q.enqueue_nd_range_kernel(kernel, (n,), (64,)),
        q.enqueue_read_buffer(dst, np.empty(n, np.float32)),
        q.enqueue_marker(),
    ]
    q.flush()
    tasks = _tasks_of(events, [q])
    assert all(
        t.meta.get("tenant") == "t0" for t in tasks if t.category != "marker"
    )
    _assert_owned(tasks, [q])
    service.drain()
    assert all(ev.complete for ev in events)
