"""Command queues with deferred issue and implicit data migration.

A queue created with ``SCHED_OFF`` behaves like stock OpenCL: it is bound to
the device chosen at creation time and commands issue immediately.  A queue
created with ``SCHED_AUTO_*`` flags participates in automatic scheduling:
while scheduling is *active*, enqueued commands are held on the queue (the
MultiCL ready-queue pool) until a synchronization trigger lets the scheduler
profile the batch, pick a device, and issue everything.

For ``SCHED_EXPLICIT_REGION`` queues, scheduling is active only between
``clSetCommandQueueSchedProperty(SCHED_AUTO_*)`` and ``(SCHED_OFF)`` calls;
outside the region the queue runs on its current binding — which is how the
paper's NPB drivers restrict profiling to the warm-up iterations.

Issuing a kernel inserts implicit migrations for arguments not resident on
the target device (H2D from host, or D2H+H2D staged through the host when
the valid copy lives on another device), charges the kernel's modelled
execution time on the device's FIFO resource, runs the functional payload,
and updates residency.

Queues are in-order by default: every command implicitly depends on its
predecessor.  With ``out_of_order=True`` (the stock OpenCL
``CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE``), commands respect only their
explicit wait lists and :meth:`CommandQueue.enqueue_barrier` points — so a
transfer and a kernel from the same queue can overlap across the link and
device resources (classic double buffering).  Functional payloads still run
at issue time; as in real OpenCL, racing commands without events on shared
buffers are undefined.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.ocl.enums import CommandKind, SchedFlag
from repro.ocl.errors import (
    DeviceNotAvailable,
    InvalidCommandQueue,
    InvalidOperation,
    InvalidValue,
    MemAllocationFailure,
)
from repro.ocl.event import Event
from repro.ocl.kernel import Kernel, WorkGroupConfig
from repro.ocl.memory import HOST, Buffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.sim.engine import SimTask

__all__ = ["Command", "CommandQueue"]

_queue_ids = itertools.count(0)

#: Pre-extracted flag masks for the enqueue fast path (see auto_active).
_AUTO_MASK = (SchedFlag.SCHED_AUTO_STATIC | SchedFlag.SCHED_AUTO_DYNAMIC).value
_EXPLICIT_REGION_MASK = SchedFlag.SCHED_EXPLICIT_REGION.value

#: Flag values already warned about as contradictory (warn once per value,
#: mirroring MULTICL_MAPPER_EXACT_MAX_QUEUES's warn-once pattern — queue
#: creation sits on workload hot paths).
_warned_flag_values: set = set()


def _check_flag_hygiene(flags: SchedFlag) -> None:
    """Warn once per flag value on contradictory SCHED_* combinations.

    ``SCHED_SPLIT`` and ``SCHED_OVERLAP`` are capabilities of the automatic
    scheduler: without ``SCHED_AUTO_*`` (which also covers the literal
    ``SCHED_OFF | SCHED_SPLIT``, since ``SCHED_OFF`` is the empty set) the
    flag can never take effect, which is almost certainly a bug in the
    caller's flag arithmetic.
    """
    if flags.is_auto or flags.value in _warned_flag_values:
        return
    dead = [
        name
        for name, bit in (
            ("SCHED_SPLIT", SchedFlag.SCHED_SPLIT),
            ("SCHED_OVERLAP", SchedFlag.SCHED_OVERLAP),
        )
        if flags & bit
    ]
    if not dead:
        return
    _warned_flag_values.add(flags.value)
    warnings.warn(
        f"contradictory scheduling flags {flags!r}: {'/'.join(dead)} "
        f"requires SCHED_AUTO_STATIC or SCHED_AUTO_DYNAMIC and will never "
        f"take effect on a manually scheduled queue",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass
class Command:
    """One enqueued operation, possibly deferred."""

    kind: CommandKind
    wait_events: List[Event] = field(default_factory=list)
    # write/read/copy payloads
    buffer: Optional[Buffer] = None
    host_array: Optional[Any] = None
    nbytes: int = 0
    src_buffer: Optional[Buffer] = None
    # kernel payload
    kernel: Optional[Kernel] = None
    launch: Optional[WorkGroupConfig] = None
    args_snapshot: Dict[int, Any] = field(default_factory=dict)
    # filled in by the queue
    event: Optional[Event] = None
    issued: bool = False
    #: failed issue attempts (fault injection); replays skip the functional
    #: payload so non-idempotent kernels run exactly once
    attempts: int = 0
    #: task of the aborted incarnation awaiting adoption by the replay
    aborted_task: Optional[Any] = None
    #: multi-device work-splitting plan attached by the scheduler
    #: (:class:`repro.core.split.SplitPlan`); ``None`` = unsplit launch
    split_plan: Optional[Any] = None

    @property
    def is_kernel(self) -> bool:
        return self.kind is CommandKind.NDRANGE_KERNEL

    def deps_ready(self) -> bool:
        """All wait-list events already have simulated tasks bound."""
        return all(e.task is not None for e in self.wait_events)

    def access_sets(self) -> "Tuple[Tuple[Buffer, ...], Tuple[Buffer, ...]]":
        """``(reads, writes)`` buffer tuples for hazard analysis.

        Kernel write sets follow the ``writes=`` source annotation
        (without one, every buffer argument counts as written — the same
        conservative rule :meth:`CommandQueue._written_buffers` applies at
        issue time); kernel arguments are all counted as read, since the
        runtime cannot see whether a written argument is also consumed.
        Markers and barriers touch no buffers.
        """
        if self.kind is CommandKind.NDRANGE_KERNEL:
            assert self.kernel is not None
            bufs = {
                i: v for i, v in self.args_snapshot.items() if isinstance(v, Buffer)
            }
            writes_idx = self.kernel.info.writes
            writes = tuple(
                b for i, b in bufs.items() if not writes_idx or i in writes_idx
            )
            return tuple(bufs.values()), writes
        if self.kind in (CommandKind.WRITE_BUFFER, CommandKind.FILL_BUFFER):
            assert self.buffer is not None
            return (), (self.buffer,)
        if self.kind is CommandKind.READ_BUFFER:
            assert self.buffer is not None
            return (self.buffer,), ()
        if self.kind is CommandKind.COPY_BUFFER:
            assert self.buffer is not None and self.src_buffer is not None
            return (self.src_buffer,), (self.buffer,)
        return (), ()


class CommandQueue:
    """cl_command_queue with the proposed scheduling extensions."""

    def __init__(
        self,
        context: "Context",
        device_name: Optional[str] = None,
        sched_flags: SchedFlag = SchedFlag.SCHED_OFF,
        name: Optional[str] = None,
        out_of_order: bool = False,
    ) -> None:
        self.id = next(_queue_ids)
        self.context = context
        self.name = name or f"queue{self.id}"
        #: Tenant tag propagated into every task meta this queue issues
        #: (``None`` outside multi-tenant service mode — zero overhead).
        #: The dict is shared per queue; task factories merge it into fresh
        #: per-task meta dicts, so no mutable state is aliased.
        self._tenant_meta: Optional[Dict[str, Any]] = (
            {"tenant": context.tenant} if context.tenant is not None else None
        )
        #: CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE: commands respect only
        #: their explicit wait lists (and barriers), so transfers and
        #: kernels from one queue may overlap across resources.
        self.out_of_order = bool(out_of_order)
        if device_name is None:
            device_name = context.device_names[0]
        if device_name not in context.device_names:
            raise InvalidValue(
                f"device {device_name!r} not in context devices "
                f"{context.device_names}"
            )
        if sched_flags.is_auto and context.scheduler is None:
            raise InvalidOperation(
                f"queue {self.name!r} requests automatic scheduling but the "
                f"context has no CL_CONTEXT_SCHEDULER property"
            )
        #: Current device binding (may be rebound by the scheduler).
        self.device = device_name
        self.sched_flags = sched_flags
        _check_flag_hygiene(sched_flags)
        #: Explicit-region state: scheduling active inside start/stop marks.
        self.region_active = False
        #: Deferred commands awaiting a scheduler trigger.
        self.pending: List[Command] = []
        #: device -> estimated seconds of ``pending`` on that device (see
        #: :meth:`pending_seconds`); ``None`` = stale, rebuilt on demand.
        self._pending_sums: Optional[Dict[str, float]] = None
        #: Tail of the issued in-order chain (in-order queues).
        self._tail: Optional["SimTask"] = None
        #: Every issued, not-yet-awaited task (finish() drains these).
        self._outstanding: List["SimTask"] = []
        #: Issued commands not yet known complete (fault recovery requeues
        #: from this list when a device fails).
        self._inflight: List[Command] = []
        #: Last barrier task (out-of-order queues order around barriers).
        self._barrier: Optional["SimTask"] = None
        #: Completed synchronization epochs (for trace accounting).
        self.epoch_index = 0
        #: History of device bindings chosen by the scheduler.
        self.binding_history: List[str] = [device_name]
        self.released = False
        context._register_queue(self)
        if context.scheduler is not None:
            context.scheduler.on_queue_created(self)

    # ------------------------------------------------------------------
    # Scheduling state
    # ------------------------------------------------------------------
    @property
    def auto_active(self) -> bool:
        """Whether commands enqueued *now* should be deferred."""
        # Raw int bit tests: this runs on every enqueue, and the Flag-enum
        # operator protocol (__and__ constructing enum members) is an order
        # of magnitude slower than the mask checks.
        flags = self.sched_flags.value
        if not flags & _AUTO_MASK:
            return False
        if flags & _EXPLICIT_REGION_MASK:
            return self.region_active
        return True

    def set_sched_property(self, flags: SchedFlag) -> None:
        """The proposed ``clSetCommandQueueSchedProperty`` (Section IV.B).

        Passing flags containing ``SCHED_AUTO_*`` starts a scheduling
        region (and merges any additional hint flags); passing ``SCHED_OFF``
        (an empty flag set) stops it, freezing the current device binding.
        """
        self._check_alive()
        scheduler = self.context.scheduler
        if flags.is_auto:
            if scheduler is None:
                raise InvalidOperation(
                    "cannot start a scheduling region without a context scheduler"
                )
            self.sched_flags |= flags
            _check_flag_hygiene(self.sched_flags)
            if not self.region_active:
                self.region_active = True
                scheduler.on_region_start(self)
        else:
            if self.region_active:
                self.region_active = False
                if scheduler is not None:
                    scheduler.on_region_stop(self)
                # Stopping a region is a scheduling boundary: anything still
                # deferred is scheduled now.
                if self.pending:
                    self.context._sync_pending(trigger_queue=self)

    def rebind(self, device_name: str) -> None:
        """Scheduler-driven device rebinding."""
        if device_name not in self.context.device_names:
            raise InvalidValue(f"unknown device {device_name!r}")
        if device_name != self.device:
            self.device = device_name
        self.binding_history.append(device_name)

    # ------------------------------------------------------------------
    # Enqueue API
    # ------------------------------------------------------------------
    def enqueue_write_buffer(
        self,
        buffer: Buffer,
        host_array: Optional[Any] = None,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Event] = (),
    ) -> Event:
        """clEnqueueWriteBuffer (host → queue's device)."""
        self._check_alive()
        self._check_buffer(buffer)
        cmd = Command(
            kind=CommandKind.WRITE_BUFFER,
            wait_events=list(wait_events),
            buffer=buffer,
            host_array=host_array,
            nbytes=int(nbytes if nbytes is not None else buffer.nbytes),
        )
        return self._enqueue(cmd)

    def enqueue_read_buffer(
        self,
        buffer: Buffer,
        host_array: Optional[Any] = None,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Event] = (),
    ) -> Event:
        """clEnqueueReadBuffer (queue's device → host)."""
        self._check_alive()
        self._check_buffer(buffer)
        cmd = Command(
            kind=CommandKind.READ_BUFFER,
            wait_events=list(wait_events),
            buffer=buffer,
            host_array=host_array,
            nbytes=int(nbytes if nbytes is not None else buffer.nbytes),
        )
        return self._enqueue(cmd)

    def enqueue_fill_buffer(
        self,
        buffer: Buffer,
        value: float = 0.0,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Event] = (),
    ) -> Event:
        """clEnqueueFillBuffer: device-side constant fill (no host traffic)."""
        self._check_alive()
        self._check_buffer(buffer)
        cmd = Command(
            kind=CommandKind.FILL_BUFFER,
            wait_events=list(wait_events),
            buffer=buffer,
            host_array=value,
            nbytes=int(nbytes if nbytes is not None else buffer.nbytes),
        )
        return self._enqueue(cmd)

    def enqueue_copy_buffer(
        self,
        src: Buffer,
        dst: Buffer,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Event] = (),
    ) -> Event:
        """clEnqueueCopyBuffer (device-side copy)."""
        self._check_alive()
        self._check_buffer(src)
        self._check_buffer(dst)
        cmd = Command(
            kind=CommandKind.COPY_BUFFER,
            wait_events=list(wait_events),
            src_buffer=src,
            buffer=dst,
            nbytes=int(nbytes if nbytes is not None else min(src.nbytes, dst.nbytes)),
        )
        return self._enqueue(cmd)

    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
        wait_events: Sequence[Event] = (),
    ) -> Event:
        """clEnqueueNDRangeKernel.

        The launch configuration is recorded but, per the proposed
        ``clSetKernelWorkGroupInfo`` semantics, it is ignored for devices
        that carry a pre-set per-device configuration.
        """
        self._check_alive()
        kernel.check_args_set()
        launch = WorkGroupConfig.normalize(global_size, local_size)
        cmd = Command(
            kind=CommandKind.NDRANGE_KERNEL,
            wait_events=list(wait_events),
            kernel=kernel,
            launch=launch,
            args_snapshot=dict(kernel.args),
        )
        return self._enqueue(cmd)

    def enqueue_marker(self, wait_events: Sequence[Event] = ()) -> Event:
        """clEnqueueMarkerWithWaitList."""
        self._check_alive()
        cmd = Command(kind=CommandKind.MARKER, wait_events=list(wait_events))
        return self._enqueue(cmd)

    def enqueue_barrier(self, wait_events: Sequence[Event] = ()) -> Event:
        """clEnqueueBarrierWithWaitList: an intra-queue ordering point.

        On an out-of-order queue the barrier waits for everything issued so
        far and every later command waits for the barrier.  On an in-order
        queue it is equivalent to a marker.
        """
        self._check_alive()
        cmd = Command(kind=CommandKind.BARRIER, wait_events=list(wait_events))
        return self._enqueue(cmd)

    def _enqueue(self, cmd: Command) -> Event:
        event = Event(self, cmd)
        cmd.event = event
        if self.auto_active:
            sums = self._pending_sums
            if sums:
                # Stale until every kept fold is extended: a launch the
                # model cannot price leaves the queue consistent.
                self._pending_sums = None
                for dev in sums:
                    sums[dev] += self._price(cmd, dev)
                self._pending_sums = sums
            self.pending.append(cmd)
            scheduler = self.context.scheduler
            assert scheduler is not None
            scheduler.on_enqueue(self, cmd)
        else:
            self._ensure_deps_issued(cmd)
            self.issue(cmd)
        return event

    # ------------------------------------------------------------------
    # Backlog estimate (the service arbiter's fair-share price)
    # ------------------------------------------------------------------
    def pending_seconds(self, device: str) -> float:
        """Estimated seconds the deferred commands would take on ``device``.

        The analytic model the simulator charges: kernels through the
        kernel's pricing table, transfers through the node's link model,
        markers and barriers free.  The sum is a left fold over
        ``pending`` in order, kept per device once a device is first asked
        for.  Enqueues extend every kept fold at its tail, which yields the
        very float a fold from scratch would.  Nothing is ever subtracted:
        issuing a command (:meth:`issue`), a fault requeue, a late
        ``clSetKernelWorkGroupInfo`` or a new cost model marks the sums
        stale (:meth:`reprice_pending`), and the next call refolds.
        """
        sums = self._pending_sums
        if sums is None:
            sums = self._pending_sums = {}
        seconds = sums.get(device)
        if seconds is None:
            seconds = 0.0
            for cmd in self.pending:
                seconds += self._price(cmd, device)
            sums[device] = seconds
        return seconds

    def reprice_pending(self) -> None:
        """Mark the :meth:`pending_seconds` sums stale."""
        self._pending_sums = None

    def _price(self, cmd: Command, device: str) -> float:
        """Estimated seconds ``cmd`` adds to the backlog on ``device``."""
        node = self.context.platform.node
        kind = cmd.kind
        if kind is CommandKind.NDRANGE_KERNEL:
            assert cmd.kernel is not None and cmd.launch is not None
            spec = node.device(device).spec
            return cmd.kernel.launch_price(spec, cmd.launch, cmd.args_snapshot)[1]
        if kind is CommandKind.WRITE_BUFFER:
            return node.h2d_seconds(device, cmd.nbytes)
        if kind is CommandKind.READ_BUFFER:
            return node.d2h_seconds(device, cmd.nbytes)
        if kind is CommandKind.FILL_BUFFER or kind is CommandKind.COPY_BUFFER:
            return node.d2d_seconds(device, device, cmd.nbytes)
        return 0.0

    def _ensure_deps_issued(self, cmd: Command) -> None:
        """An immediate command whose wait list references deferred events
        forces those queues to schedule first (a cross-queue sync point)."""
        for e in cmd.wait_events:
            if e.task is None and not e.command.issued:
                self.context._sync_pending(trigger_queue=e.queue)
        if not cmd.deps_ready():
            raise InvalidOperation(
                f"queue {self.name!r}: wait-list event still unissued after "
                f"scheduler trigger"
            )

    # ------------------------------------------------------------------
    # Issue path (runs once the queue is bound to a device)
    # ------------------------------------------------------------------
    def issue(
        self,
        cmd: Command,
        ordering_deps: Optional[List["SimTask"]] = None,
        extra_deps: Optional[List["SimTask"]] = None,
    ) -> None:
        """Issue one command to the queue's current device.

        ``ordering_deps`` (overlap-aware issue, :mod:`repro.ocl.overlap`)
        *replaces* the implicit in-order tail / out-of-order barrier
        chaining with an explicit dependency list, and leaves ``_tail``
        untouched — the overlap issuer installs a per-epoch join task
        instead.  ``extra_deps`` *adds* dependencies on top of the normal
        chaining (used to restore cross-queue conflict ordering whose
        original happens-before path ran through a relaxed queue).

        Every command leaves ``pending`` through here, so this is where the
        backlog sums go stale.
        """
        self._pending_sums = None
        if cmd.issued:
            raise InvalidCommandQueue(f"command {cmd.kind} issued twice")
        if not cmd.deps_ready():
            raise InvalidCommandQueue(
                f"queue {self.name!r}: issuing {cmd.kind} before its wait list"
            )
        if not self.context.platform.is_available(self.device):
            raise DeviceNotAvailable(
                f"queue {self.name!r}: device {self.device!r} failed; "
                f"rebind the queue or use an automatic scheduler"
            )
        node = self.context.platform.node
        engine = self.context.platform.engine
        deps: List["SimTask"] = [e.task for e in cmd.wait_events if e.task is not None]
        if extra_deps:
            deps.extend(extra_deps)
        if ordering_deps is not None:
            deps.extend(ordering_deps)
        elif self.out_of_order:
            # Only barriers impose intra-queue order.
            if self._barrier is not None:
                deps.append(self._barrier)
        elif self._tail is not None:
            deps.append(self._tail)

        if cmd.kind is CommandKind.NDRANGE_KERNEL:
            # First branch: kernels dominate every scheduled workload.
            if cmd.split_plan is not None:
                task = self._issue_split_kernel(cmd, deps)
            else:
                task = self._issue_kernel(cmd, deps)
        elif cmd.kind is CommandKind.WRITE_BUFFER:
            assert cmd.buffer is not None
            self._check_capacity(cmd.buffer, extra=(cmd.buffer,))
            task = node.submit_h2d(
                self.device, cmd.nbytes, deps=deps, category="transfer",
                name=f"write:{cmd.buffer.name}", meta=self._tenant_meta,
            )
            if cmd.host_array is not None and cmd.buffer.array is not None:
                cmd.buffer.array[...] = cmd.host_array
            cmd.buffer.mark_exclusive(HOST)
            cmd.buffer.mark_valid(self.device)
        elif cmd.kind is CommandKind.READ_BUFFER:
            assert cmd.buffer is not None
            mig = self._migrations_for([cmd.buffer], deps, category="migration")
            task = node.submit_d2h(
                self.device, cmd.nbytes, deps=deps + mig, category="transfer",
                name=f"read:{cmd.buffer.name}", meta=self._tenant_meta,
            )
            if cmd.host_array is not None and cmd.buffer.array is not None:
                cmd.host_array[...] = cmd.buffer.array
            cmd.buffer.mark_valid(HOST)
        elif cmd.kind is CommandKind.FILL_BUFFER:
            assert cmd.buffer is not None
            self._check_capacity(cmd.buffer, extra=(cmd.buffer,))
            task = node.device(self.device).submit_intradevice_copy(
                cmd.nbytes, deps=deps, category="transfer",
                name=f"fill:{cmd.buffer.name}", meta=self._tenant_meta,
            )
            if cmd.buffer.array is not None:
                cmd.buffer.array[...] = cmd.host_array
            cmd.buffer.mark_exclusive(self.device)
        elif cmd.kind is CommandKind.COPY_BUFFER:
            assert cmd.buffer is not None and cmd.src_buffer is not None
            mig = self._migrations_for([cmd.src_buffer], deps, category="migration")
            task = node.device(self.device).submit_intradevice_copy(
                cmd.nbytes, deps=deps + mig, category="transfer",
                name=f"copy:{cmd.src_buffer.name}->{cmd.buffer.name}",
                meta=self._tenant_meta,
            )
            if cmd.buffer.array is not None and cmd.src_buffer.array is not None:
                cmd.buffer.array[...] = cmd.src_buffer.array
            cmd.buffer.mark_exclusive(self.device)
        elif cmd.kind is CommandKind.MARKER:
            task = engine.task(
                name=f"marker@{self.name}", duration=0.0, deps=deps,
                category="marker",
            )
        elif cmd.kind is CommandKind.BARRIER:
            barrier_deps = deps + [t for t in self._outstanding if not t.done]
            task = engine.task(
                name=f"barrier@{self.name}", duration=0.0, deps=barrier_deps,
                category="marker",
            )
            self._barrier = task
        else:  # pragma: no cover - exhaustive
            raise InvalidValue(f"unknown command kind {cmd.kind}")

        cmd.issued = True
        assert cmd.event is not None
        cmd.event._bind_task(task)
        if cmd.aborted_task is not None:
            # Replay: waiters of the aborted incarnation follow this task.
            engine.adopt(cmd.aborted_task, task)
            cmd.aborted_task = None
        if ordering_deps is None:
            self._tail = task
        self._outstanding.append(task)
        self._inflight.append(cmd)

    def _issue_kernel(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        kernel = cmd.kernel
        launch = cmd.launch
        assert kernel is not None and launch is not None
        device = self.context.platform.node.device(self.device)
        buffers = [
            v for v in cmd.args_snapshot.values() if isinstance(v, Buffer)
        ]
        self._check_capacity(*buffers, extra=buffers)
        migrations = self._migrations_for(buffers, deps, category="migration")
        cost, seconds = kernel.launch_price(device.spec, launch, cmd.args_snapshot)
        meta = {"queue": self.name, "epoch": self.epoch_index}
        if self._tenant_meta is not None:
            meta.update(self._tenant_meta)
        task = device.submit_kernel(
            name=kernel.name,
            cost=cost,
            deps=deps + migrations,
            category="kernel",
            meta=meta,
            seconds=seconds,
        )
        # Functional payload runs in dependency (issue) order — see module
        # doc.  Replays after a device failure only re-charge simulated time:
        # in-place kernels are not idempotent, so exactly-once matters.
        if cmd.attempts == 0:
            saved = kernel.args
            kernel.args = cmd.args_snapshot
            try:
                kernel.run_host_function()
            finally:
                kernel.args = saved
        for buf in self._written_buffers(kernel, cmd.args_snapshot):
            buf.mark_exclusive(self.device)
        return task

    def _issue_split_kernel(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        """Issue one kernel split across several devices per ``cmd.split_plan``.

        Dimension 0 of the NDRange is partitioned into contiguous per-device
        sub-ranges.  Each device receives the *slices* of the argument
        buffers its sub-range touches (implied sub-buffers, modelled as
        proportional byte-ranged transfers that deliberately do **not** flip
        whole-buffer residency — only a slice moved), runs a sub-range
        launch costed with its own effective workgroup configuration, and
        streams written slices back to the host where the partial results
        merge.  A zero-duration join task stands for the merged completion;
        the command's event binds to it, so downstream consumers observe
        exactly one kernel-completion point, bit-identical to the unsplit
        execution (the functional payload runs once, on the host, over the
        full range).
        """
        kernel = cmd.kernel
        launch = cmd.launch
        plan = cmd.split_plan
        assert kernel is not None and launch is not None and plan is not None
        node = self.context.platform.node
        engine = self.context.platform.engine
        total = launch.global_size[0]
        seen: Dict[int, Buffer] = {}
        for v in cmd.args_snapshot.values():
            if isinstance(v, Buffer) and id(v) not in seen:
                seen[id(v)] = v
        buffers = list(seen.values())
        written = self._written_buffers(kernel, cmd.args_snapshot)
        written = list({id(b): b for b in written}.values())
        finals: List["SimTask"] = []
        for device, lo, hi in plan.shares:
            share = hi - lo
            if share <= 0:
                continue
            if not self.context.platform.is_available(device):
                raise DeviceNotAvailable(
                    f"queue {self.name!r}: split share [{lo}:{hi}) targets "
                    f"failed device {device!r}"
                )
            dev = node.device(device)

            def slice_bytes(buf: Buffer) -> int:
                # ceil(nbytes * share / total), capped at the full buffer
                return min(buf.nbytes, -(-buf.nbytes * share // total))

            incoming = sum(
                slice_bytes(b) for b in buffers if not b.resident_on(device)
            )
            needed = self.context.resident_bytes(device) + incoming
            if needed > dev.spec.mem_size_bytes:
                raise MemAllocationFailure(
                    f"device {device!r}: {needed} bytes needed for split "
                    f"share [{lo}:{hi}), {dev.spec.mem_size_bytes} available"
                )
            moves: List["SimTask"] = []
            for b in buffers:
                if not b.initialized or b.is_valid_on(device):
                    continue
                nb = slice_bytes(b)
                label = f"split:{b.name}[{lo}:{hi}]"
                if b.is_valid_on(HOST):
                    moves.append(
                        node.submit_h2d(
                            device, nb, deps=deps, category="migration",
                            name=label, meta=self._tenant_meta,
                        )
                    )
                else:
                    src = b.any_valid_device()
                    assert src is not None
                    moves.append(
                        node.submit_d2d(
                            src, device, nb, deps=deps, category="migration",
                            name=label, meta=self._tenant_meta,
                        )
                    )
            sub = kernel.sub_range_config(device, launch, lo, hi)
            cost, seconds = kernel.config_price(dev.spec, sub, cmd.args_snapshot)
            meta: Dict[str, Any] = {
                "queue": self.name,
                "epoch": self.epoch_index,
                "split": f"{lo}:{hi}",
            }
            if self._tenant_meta is not None:
                meta.update(self._tenant_meta)
            sub_task = dev.submit_kernel(
                name=f"{kernel.name}[{lo}:{hi}]",
                cost=cost,
                deps=deps + moves,
                category="kernel",
                meta=meta,
                seconds=seconds,
            )
            gathers = [
                node.submit_d2h(
                    device, slice_bytes(b), deps=[sub_task], category="transfer",
                    name=f"gather:{b.name}[{lo}:{hi}]", meta=self._tenant_meta,
                )
                for b in written
            ]
            finals.extend(gathers or [sub_task])
        join = engine.task(
            name=f"split-join:{kernel.name}@{self.name}",
            duration=0.0,
            deps=finals,
            category="marker",
        )
        # Functional payload: once, over the full range (see _issue_kernel).
        if cmd.attempts == 0:
            saved = kernel.args
            kernel.args = cmd.args_snapshot
            try:
                kernel.run_host_function()
            finally:
                kernel.args = saved
        # Merged results live on the host after the gather transfers.
        for buf in written:
            buf.mark_exclusive(HOST)
        return join

    @staticmethod
    def _written_buffers(kernel: Kernel, snapshot: Dict[int, Any]) -> List[Buffer]:
        writes = kernel.info.writes
        out = []
        for i, v in snapshot.items():
            if not isinstance(v, Buffer):
                continue
            if not writes or i in writes:
                out.append(v)
        return out

    def _migrations_for(
        self,
        buffers: Sequence[Buffer],
        deps: List["SimTask"],
        category: str,
    ) -> List["SimTask"]:
        """Make every buffer resident on the queue's device; return the
        transfer tasks (empty if all data already resident)."""
        node = self.context.platform.node
        tasks: List["SimTask"] = []
        for buf in buffers:
            if buf.is_valid_on(self.device):
                continue
            if not buf.initialized:
                # First touch: allocation only, no data to move.
                buf.mark_valid(self.device)
                continue
            if buf.is_valid_on(HOST):
                t = node.submit_h2d(
                    self.device, buf.nbytes, deps=deps, category=category,
                    name=f"mig:{buf.name}", meta=self._tenant_meta,
                )
            else:
                src = buf.any_valid_device()
                assert src is not None
                t = node.submit_d2d(
                    src, self.device, buf.nbytes, deps=deps, category=category,
                    name=f"mig:{buf.name}", meta=self._tenant_meta,
                )
            buf.mark_valid(self.device)
            tasks.append(t)
        return tasks

    def _check_capacity(self, *incoming: Buffer, extra: Sequence[Buffer]) -> None:
        """Device-memory capacity check before making buffers resident."""
        spec = self.context.platform.node.device(self.device).spec
        # O(1) via the context's per-device resident-byte counters plus the
        # not-yet-resident newcomers (deduplicated: a kernel may pass the
        # same buffer for several arguments).
        total = self.context.resident_bytes(self.device)
        seen = set()
        for b in extra:
            if id(b) in seen or b.resident_on(self.device):
                continue
            seen.add(id(b))
            total += b.nbytes
        if total > spec.mem_size_bytes:
            raise MemAllocationFailure(
                f"device {self.device!r}: {total} bytes needed, "
                f"{spec.mem_size_bytes} available"
            )

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------
    def requeue_unfinished(self, device: str) -> List[Command]:
        """Pull issued-but-unfinished commands stranded on failed ``device``
        back onto the deferred list for replay; returns them.

        In-order queues replay the contiguous suffix starting at the first
        unfinished command executing on the dead device (everything behind
        it depends on it through the tail chain); the healthy prefix keeps
        draining.  Out-of-order queues replay only the dead-device commands
        — cross-command dependencies are repaired by task adoption when the
        replays issue.  Transfers already on healthy links are left to
        drain (in-flight DMA completes).
        """
        engine = self.context.platform.engine
        resname = f"dev:{device}"
        # A device just failed: victims go back to the front of ``pending``
        # and the active device set shrank, so the backlog sums are stale.
        self._pending_sums = None
        self._inflight = [
            c
            for c in self._inflight
            if c.event is not None
            and c.event.task is not None
            and not c.event.task.done
        ]

        def on_dead(c: Command) -> bool:
            t = c.event.task  # type: ignore[union-attr]
            return t is not None and t.resource is not None and t.resource.name == resname

        if self.out_of_order:
            victims = [c for c in self._inflight if on_dead(c)]
        else:
            first = next(
                (i for i, c in enumerate(self._inflight) if on_dead(c)), None
            )
            victims = [] if first is None else self._inflight[first:]
        if not victims:
            return []
        victim_ids = {id(c) for c in victims}
        self._inflight = [c for c in self._inflight if id(c) not in victim_ids]
        for cmd in victims:
            task = cmd.event.task  # type: ignore[union-attr]
            engine.abort(task)
            cmd.aborted_task = task
            cmd.event.task = None  # type: ignore[union-attr]
            cmd.issued = False
            cmd.attempts += 1
        # The in-order tail must point at the surviving prefix (or nothing);
        # aborted tasks would otherwise anchor the replayed chain.
        if not self.out_of_order:
            self._tail = (
                self._inflight[-1].event.task if self._inflight else None
            )
        if self._barrier is not None and self._barrier.aborted:
            self._barrier = None
        # Replays go to the *front* of the deferred list, in original order.
        self.pending[:0] = victims
        return victims

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """clFlush: force deferred commands to be scheduled and issued."""
        self._check_alive()
        if self.pending:
            self.context._sync_pending(trigger_queue=self)

    def finish(self) -> None:
        """clFinish: schedule if needed, then block until the queue drains.

        Fault injection can requeue commands *while* the host blocks here
        (the clock advances inside ``run_until``), so the drain loops until
        no deferred or unfinished work remains.
        """
        self.flush()
        engine = self.context.platform.engine
        while True:
            if self.pending:
                self.context._sync_pending(trigger_queue=self)
                continue
            # Aborted incarnations never complete; their replays were
            # appended to _outstanding when they reissued, so waiting on
            # the live tasks covers them.
            tasks = [t for t in self._outstanding if not t.done and not t.aborted]
            if not tasks:
                break
            for task in tasks:
                if not task.done:
                    engine.run_until(task)
        self._outstanding.clear()
        self._inflight.clear()
        self.epoch_index += 1
        self.context.platform.engine.trace.mark(
            self.context.platform.engine.now, f"epoch:{self.name}:{self.epoch_index}"
        )

    def release(self) -> None:
        """clReleaseCommandQueue (idempotent)."""
        if not self.released:
            if self.pending:
                self.finish()
            self.released = True

    def _check_alive(self) -> None:
        if self.released:
            raise InvalidCommandQueue(f"queue {self.name!r} was released")

    def _check_buffer(self, buffer: Buffer) -> None:
        if buffer.context is not self.context:
            raise InvalidValue(
                f"buffer {buffer.name!r} belongs to a different context"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommandQueue({self.name!r}, device={self.device!r}, "
            f"flags={self.sched_flags!r}, pending={len(self.pending)})"
        )
