"""cl_event objects.

An event tracks one command through the deferred-issue pipeline:

* ``QUEUED`` — command recorded on its queue, not yet issued to a device
  (automatic-scheduling queues hold commands here until the scheduler maps
  the queue, exactly like MultiCL's ready-queue pool);
* ``SUBMITTED`` — issued; simulated tasks exist on device/link resources;
* ``COMPLETE`` — the command's final simulated task finished; profiling
  timestamps are available.

``Event.wait()`` is the blocking host call: it triggers the context's
scheduler if the owning queue still has deferred work, then advances the
virtual clock to the command's completion.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.ocl.enums import EventStatus
from repro.ocl.errors import InvalidEventWaitList, InvalidOperation

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.queue import Command, CommandQueue
    from repro.sim.engine import SimTask

__all__ = ["Event", "wait_for_events"]

_ids = itertools.count(1)


class Event:
    """Completion handle for one enqueued command."""

    # No per-instance ``__dict__`` (see :class:`repro.ocl.queue.Command`).
    __slots__ = ("id", "queue", "command", "task", "_callbacks", "_armed")

    def __init__(self, queue: "CommandQueue", command: "Command") -> None:
        self.id = next(_ids)
        self.queue = queue
        self.command = command
        self.task: Optional["SimTask"] = None
        #: clSetEventCallback functions in registration order; ``None``
        #: when there are none (or after they fired).
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        #: Whether :meth:`_fire` is registered on the command's task.  It is
        #: registered once per event: a fault replay moves it to the
        #: replayed task (``SimEngine.adopt``) instead of registering again.
        self._armed = False

    @property
    def status(self) -> EventStatus:
        if self.task is None:
            return EventStatus.QUEUED
        if self.task.done:
            return EventStatus.COMPLETE
        return EventStatus.SUBMITTED

    @property
    def complete(self) -> bool:
        return self.task is not None and self.task.done

    @property
    def deferred(self) -> bool:
        """Still awaiting issue: no simulated task bound, command unissued.

        The command-graph sanitizer treats deferred events as live graph
        edges; issued events are ordered before the whole pool.
        """
        return self.task is None and not self.command.issued

    # Profiling info (CL_PROFILING_COMMAND_START/END analogues) ----------
    @property
    def profile_start(self) -> float:
        if not self.complete:
            raise InvalidOperation("profiling info unavailable before completion")
        assert self.task is not None and self.task.start_time is not None
        return self.task.start_time

    @property
    def profile_end(self) -> float:
        if not self.complete:
            raise InvalidOperation("profiling info unavailable before completion")
        assert self.task is not None and self.task.end_time is not None
        return self.task.end_time

    def _bind_task(self, task: "SimTask") -> None:
        self.task = task
        if self._callbacks and not self._armed:
            self._armed = True
            task.on_complete(self._fire)

    def _fire(self, _task: "SimTask") -> None:
        """Completion hook: run every callback once, in registration order."""
        callbacks, self._callbacks = self._callbacks, None
        for fn in callbacks:  # type: ignore[union-attr]
            fn(self)

    def set_callback(self, fn: Callable[["Event"], None]) -> None:
        """clSetEventCallback(CL_COMPLETE): run ``fn(event)`` on completion.

        Fires immediately if already complete; otherwise defers until the
        command's simulated task finishes (even if the command is still
        deferred awaiting the scheduler).
        """
        if self.complete:
            fn(self)
            return
        if self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)
        if self.task is not None and not self._armed:
            self._armed = True
            self.task.on_complete(self._fire)

    def wait(self) -> None:
        """Block the simulated host until this command completes."""
        if self.complete:
            return
        context = self.queue.context
        if self.task is None:
            # Command still deferred: a blocking wait is a synchronization
            # point, which is exactly when the scheduler triggers.
            context._sync_pending(trigger_queue=self.queue)
        if self.task is None:
            raise InvalidOperation(
                f"event {self.id} still unissued after scheduler trigger "
                f"(queue {self.queue.name!r})"
            )
        context.platform.engine.run_until(self.task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(#{self.id}, {self.command.kind.value}, {self.status.name})"


def wait_for_events(events: Sequence[Event]) -> None:
    """clWaitForEvents: block until every event in the list completes."""
    if not events:
        raise InvalidEventWaitList("empty event wait list")
    contexts = {e.queue.context for e in events}
    if len(contexts) > 1:
        raise InvalidEventWaitList("events span multiple contexts")
    for e in events:
        e.wait()
