"""SOCL-style kernel-granularity baseline (`repro.core.baselines`)."""

import numpy as np

from repro.core.baselines import KERNEL_GRANULARITY_POLICY
from repro.core.runtime import MultiCL
from repro.ocl.enums import SchedFlag

PROGRAM = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale(__global float* a, int n) {
  int i = get_global_id(0);
  a[i] = a[i] * 2.0f;
}
"""

N = 1 << 16
AUTO = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH


def test_stalled_kernel_is_placed_once(profile_dir):
    """A kernel waiting on another queue's deferred write is placed when
    its wait list is satisfied, not on every trigger that finds it
    stalled: one decision, one host interval, load on one device."""
    mcl = MultiCL(policy=KERNEL_GRANULARITY_POLICY, profile_dir=profile_dir)
    ctx = mcl.context
    kernel = ctx.create_program(PROGRAM).build().create_kernel("scale")
    buf = ctx.create_buffer(4 * N)
    kernel.set_arg(0, buf)
    kernel.set_arg(1, N)
    qa = mcl.queue(flags=AUTO, name="qa")
    qb = mcl.queue(flags=AUTO, name="qb")
    write = qa.enqueue_write_buffer(buf, np.ones(N, np.float32))
    qb.enqueue_nd_range_kernel(kernel, (N,), (64,), wait_events=[write])
    qa.finish()
    qb.finish()

    sched = ctx.scheduler
    assert sched.decisions == 1
    maps = [
        iv
        for iv in mcl.engine.trace
        if iv.category == "schedule" and iv.task == "per-kernel-map"
    ]
    assert len(maps) == 1
    assert sum(1 for load in sched._load.values() if load > 0.0) == 1
