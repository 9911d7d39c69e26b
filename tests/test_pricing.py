"""Pricing each command once: the per-kernel table and the backlog sums.

Every call site that prices a kernel launch (the service arbiter's backlog
estimate, the issue path, the kernel profiler) reads one pricing table per
kernel, and each queue keeps append-only per-device sums of its pending
work.  These tests pin the semantics that must survive the caching:

* a deferred launch is priced with the arguments it was enqueued with;
* the incremental estimate equals a from-scratch fold bit for bit, under
  any interleaving of enqueues, arbitration, forced drains, late
  ``clSetKernelWorkGroupInfo`` calls and device failures;
* ``clSetKernelWorkGroupInfo`` may be invoked any time before the launch
  (paper Section IV.C) and still moves both the estimate and the run;
* pricing state stays bounded and never lives on commands.
"""

import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.runtime import MultiCL
from repro.hardware.cost import KernelCost, kernel_time
from repro.ocl.enums import CommandKind, ContextScheduler, SchedFlag
from repro.ocl.kernel import Kernel, WorkGroupConfig
from repro.ocl.queue import Command, CommandQueue
from repro.replay.runner import ReplayConfig, run_service_replay
from repro.service import SchedulingService
from repro.sim.faults import FaultInjector, FaultPlan

DYN = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH

SOURCE = """
// @multicl flops_per_item=200 bytes_per_item=8 writes=0
__kernel void light(__global float* x, int n) { }
// @multicl flops_per_item=20 bytes_per_item=64 divergence=0.6 irregularity=0.8 gpu_eff=0.2 writes=0
__kernel void ragged(__global float* x, int n) { }
"""

SIZES = (1 << 10, 1 << 14, 1 << 16)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def reference_estimate(context, pool) -> float:
    """The arbiter's original estimate: re-price every pending command on
    every active device, fold left in queue order, take the best device."""
    node = context.platform.node
    devices = context.active_device_names or list(context.device_names)
    total = 0.0
    for q in pool:
        best = math.inf
        for dev in devices:
            spec = node.device(dev).spec
            seconds = 0.0
            for cmd in q.pending:
                if cmd.kind is CommandKind.NDRANGE_KERNEL:
                    cost, _ = cmd.kernel.launch_price(
                        spec, cmd.launch, cmd.args_snapshot
                    )
                    seconds += kernel_time(spec, cost)
                elif cmd.kind is CommandKind.WRITE_BUFFER:
                    seconds += node.h2d_seconds(dev, cmd.nbytes)
                elif cmd.kind is CommandKind.READ_BUFFER:
                    seconds += node.d2h_seconds(dev, cmd.nbytes)
                elif cmd.kind in (CommandKind.FILL_BUFFER, CommandKind.COPY_BUFFER):
                    seconds += node.d2d_seconds(dev, dev, cmd.nbytes)
            best = min(best, seconds)
        total += 0.0 if best is math.inf else best
    return total


def _duration(event) -> float:
    return event.task.duration


# ---------------------------------------------------------------------------
# Custom cost models see the command's argument snapshot
# ---------------------------------------------------------------------------
def test_deferred_launch_priced_with_its_argument_snapshot(profile_dir):
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    ctx = mcl.context
    kernel = ctx.create_program(
        "__kernel void work(__global float* x, int n) { }"
    ).build().create_kernel("work")
    kernel.set_cost_model(
        lambda spec, config, args: KernelCost(
            flops=1e9 * args[1],
            bytes=0.0,
            work_items=config.work_items,
            workgroup_size=config.workgroup_size,
        )
    )
    q = mcl.queue(flags=DYN)
    kernel.set_arg(0, ctx.create_buffer(4 * 1024))
    kernel.set_arg(1, 1)
    small = q.enqueue_nd_range_kernel(kernel, (1024,), (64,))
    kernel.set_arg(1, 1000)
    big = q.enqueue_nd_range_kernel(kernel, (1024,), (64,))
    q.finish()
    spec = ctx.platform.node.device(q.device).spec
    for event, n in ((small, 1), (big, 1000)):
        cost = KernelCost(flops=1e9 * n, bytes=0.0, work_items=1024,
                          workgroup_size=64)
        assert _duration(event) == kernel_time(spec, cost)
    assert _duration(big) > 100 * _duration(small)


# ---------------------------------------------------------------------------
# Incremental estimate == from-scratch fold, bit for bit
# ---------------------------------------------------------------------------
class _Tenant:
    def __init__(self, session, index):
        ctx = session.context
        program = session.create_program(SOURCE).build()
        self.kernels = [program.create_kernel(n) for n in ("light", "ragged")]
        self.buffers = [
            session.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
            for n in SIZES
        ]
        self.copies = [session.create_buffer(4 * n) for n in SIZES]
        self.queue = session.create_queue(
            sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC, name=f"t{index}-q"
        )
        self.context = ctx

    def enqueue(self, op, k, s):
        q, buf = self.queue, self.buffers[s]
        if op == "kernel":
            kernel = self.kernels[k]
            kernel.set_arg(0, buf)
            kernel.set_arg(1, SIZES[s])
            q.enqueue_nd_range_kernel(kernel, (SIZES[s],), (64,))
        elif op == "write":
            q.enqueue_write_buffer(buf)
        elif op == "read":
            q.enqueue_read_buffer(buf)
        elif op == "fill":
            q.enqueue_fill_buffer(buf, 1.0)
        elif op == "copy":
            q.enqueue_copy_buffer(buf, self.copies[s])
        elif op == "marker":
            q.enqueue_marker()
        else:
            q.enqueue_barrier()


_ENQUEUE = st.tuples(
    st.sampled_from(
        ["kernel", "kernel", "kernel", "write", "read", "fill", "copy",
         "marker", "barrier"]
    ),
    st.integers(0, 1),  # tenant
    st.integers(0, 1),  # kernel
    st.integers(0, len(SIZES) - 1),  # size
)
_OPS = st.one_of(
    _ENQUEUE,
    _ENQUEUE,
    st.tuples(st.just("arbitrate")),
    st.tuples(st.just("finish"), st.integers(0, 1)),
    st.tuples(
        st.just("wgi"), st.integers(0, 1), st.integers(0, 1),
        st.integers(0, 2), st.integers(0, len(SIZES) - 1),
    ),
    st.tuples(st.just("fail"), st.integers(0, 1)),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(_OPS, min_size=1, max_size=30))
def test_incremental_estimate_equals_reference_fold(profile_dir, ops):
    service = SchedulingService(profile_dir=profile_dir)
    arbiter = service.arbiter
    tenants = [
        _Tenant(service.create_session(f"t{i}", weight=1.0 + i), i)
        for i in range(2)
    ]
    # Faults hit the first tenant's context, which requeues its victims at
    # the front of its queue and shrinks the active device set.
    injector = FaultInjector(tenants[0].context)
    estimate = arbiter.estimate_pool_seconds

    def checked_estimate(context, pool):
        got = estimate(context, pool)
        assert _bits(got) == _bits(reference_estimate(context, pool))
        return got

    arbiter.estimate_pool_seconds = checked_estimate
    devices = tenants[0].context.device_names
    failed = False
    for op in ops:
        kind = op[0]
        if kind == "arbitrate":
            service.trigger()
        elif kind == "finish":
            tenants[op[1]].queue.finish()
        elif kind == "wgi":
            _, t, k, d, s = op
            tenants[t].kernels[k].set_work_group_info(
                devices[d], (SIZES[s],), (128,)
            )
        elif kind == "fail":
            # Issue work, leave a backlog behind it, fail the device the
            # work runs on mid-launch: the victims return to the front.
            if failed:
                continue
            failed = True
            t0 = tenants[0]
            t0.enqueue("kernel", op[1], len(SIZES) - 1)
            t0.queue.flush()
            t0.enqueue("kernel", 1 - op[1], 1)
            checked_estimate(t0.context, [t0.queue])
            injector.arm(FaultPlan().fail_device(t0.queue.device, at=service.now))
            service.run_until_time(service.now + 1e-7)
        else:
            tenants[op[1]].enqueue(kind, op[2], op[3])
        for t in tenants:
            pool = t.context.pending_queues()
            if pool:
                checked_estimate(t.context, pool)
    service.drain()
    assert not any(t.queue.pending for t in tenants)


# ---------------------------------------------------------------------------
# Paper Section IV.C: clSetKernelWorkGroupInfo at any time before launch
# ---------------------------------------------------------------------------
def test_late_work_group_info_moves_estimate_and_issued_duration(profile_dir):
    service = SchedulingService(profile_dir=profile_dir)
    tenant = _Tenant(service.create_session("t"), 0)
    ctx, q = tenant.context, tenant.queue
    tenant.enqueue("kernel", 0, 0)
    pool = [q]
    before = service.arbiter.estimate_pool_seconds(ctx, pool)
    # Enqueued, estimated (the backlog sums now exist), not yet issued.
    for dev in ctx.device_names:
        tenant.kernels[0].set_work_group_info(dev, (1 << 20,), (256,))
    after = service.arbiter.estimate_pool_seconds(ctx, pool)
    assert after > before
    assert _bits(after) == _bits(reference_estimate(ctx, pool))
    event = q.pending[0].event
    q.finish()
    spec = ctx.platform.node.device(q.device).spec
    override = WorkGroupConfig.normalize((1 << 20,), (256,))
    expected = kernel_time(spec, tenant.kernels[0].config_price(spec, override)[0])
    assert _duration(event) == expected
    launch = WorkGroupConfig.normalize((SIZES[0],), (64,))
    assert expected > kernel_time(
        spec, tenant.kernels[0].config_price(spec, launch)[0]
    )


# ---------------------------------------------------------------------------
# Bounded pricing state
# ---------------------------------------------------------------------------
def _replay_pricing_state(monkeypatch, profile_dir, commands):
    kernels, cmds = [], []
    init, enqueue = Kernel.__init__, CommandQueue._enqueue

    def record_kernel(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    def record_command(self, cmd):
        cmds.append(cmd)
        return enqueue(self, cmd)

    with monkeypatch.context() as m:
        m.setattr(Kernel, "__init__", record_kernel)
        m.setattr(CommandQueue, "_enqueue", record_command)
        report = run_service_replay(
            ReplayConfig(
                tenants=2, commands=commands, seed=3, weights=(2.0, 1.0),
                profile_dir=profile_dir,
            )
        )
    assert sum(t.completed for t in report.tenants) == 2 * commands
    return sum(len(k._prices) for k in kernels), cmds


def test_pricing_state_stays_bounded(monkeypatch, profile_dir):
    small, _ = _replay_pricing_state(monkeypatch, profile_dir, 1000)
    large, cmds = _replay_pricing_state(monkeypatch, profile_dir, 4000)
    assert small == large > 0
    # A command holds exactly its declared slots: no per-instance dict
    # where pricing state could ride along.
    fields = Command.__slots__
    assert all(
        not hasattr(c, "__dict__") and all(hasattr(c, f) for f in fields)
        for c in cmds
    )
