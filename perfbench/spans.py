"""Host-time spans around the public entry points of each ``repro`` layer.

The traced run installs a timing wrapper on every entry point listed in
:data:`ENTRY_POINTS` for the length of one episode and removes it after, so
nothing inside ``src/`` changes and untraced episodes run the unmodified
code.  A wrapper replaces the function at *every* place its callers look it
up: the defining module, each module that imported it by name (for example
``kernel_time`` in ``repro.service.arbiter`` and ``repro.hardware.topology``),
and, for methods, each class that defines its own override.

Each span records its name, start, end and parent and stays in memory until
the episode ends.  A call re-entering the span it is already inside (for
example ``workgroup_time`` calling ``kernel_time``) is folded into the
outer span, so ``calls`` counts entries into a layer, not internal
recursion.  Self time is a span's duration minus that of its children; the
episode's root span keeps the time no layer covers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

ROOT = "episode"

#: (span name, module, attribute path) for every wrapped entry point.  An
#: attribute path ``Class.method`` is installed on that class and on every
#: loaded subclass that overrides the method.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.enqueue", "repro.workloads.npb.common", "NPBApplication.enqueue_iteration"),
    ("replay.arrivals", "repro.replay.arrivals", "ArrivalProcess.stream"),
    ("service.arbitrate", "repro.service.core", "SchedulingService.trigger"),
    ("service.arbitrate", "repro.service.arbiter", "FairShareArbiter.on_trigger"),
    ("service.arbitrate", "repro.service.arbiter", "FairShareArbiter.arbitrate"),
    ("service.estimate", "repro.service.arbiter", "FairShareArbiter.estimate_pool_seconds"),
    ("ocl.enqueue", "repro.ocl.queue", "CommandQueue.enqueue_write_buffer"),
    ("ocl.enqueue", "repro.ocl.queue", "CommandQueue.enqueue_read_buffer"),
    ("ocl.enqueue", "repro.ocl.queue", "CommandQueue.enqueue_fill_buffer"),
    ("ocl.enqueue", "repro.ocl.queue", "CommandQueue.enqueue_copy_buffer"),
    ("ocl.enqueue", "repro.ocl.queue", "CommandQueue.enqueue_nd_range_kernel"),
    ("ocl.enqueue", "repro.ocl.queue", "CommandQueue.enqueue_marker"),
    ("ocl.enqueue", "repro.ocl.queue", "CommandQueue.enqueue_barrier"),
    ("ocl.issue", "repro.ocl.context", "Context.issue_pool"),
    ("ocl.overlap", "repro.ocl.overlap", "issue_pool_overlap"),
    ("core.sync", "repro.ocl.scheduling", "SchedulerBase.on_sync"),
    ("core.sync", "repro.core.scheduler", "MultiCLSchedulerBase.dispatch"),
    ("core.profile", "repro.core.kernel_profiler", "KernelProfiler.profile_epoch"),
    ("core.map", "repro.core.device_mapper", "optimal_mapping"),
    ("core.map", "repro.core.device_mapper", "greedy_mapping"),
    ("core.map", "repro.core.constraints", "repair_mapping"),
    ("hardware.price", "repro.hardware.cost", "kernel_time"),
    ("hardware.price", "repro.hardware.cost", "transfer_time"),
    ("hardware.price", "repro.hardware.cost", "workgroup_time"),
    ("sim.run", "repro.sim.engine", "SimEngine.run_until"),
    ("sim.run", "repro.sim.engine", "SimEngine.run_until_idle"),
    ("sim.run", "repro.sim.engine", "SimEngine.run_until_time"),
)

#: Span names whose calls, host seconds and self seconds are reported.
LAYER_SPANS = (
    "workloads.enqueue", "replay.arrivals", "service.arbitrate",
    "service.estimate", "ocl.enqueue", "ocl.issue", "ocl.overlap",
    "core.sync", "core.profile", "core.map", "hardware.price", "sim.run",
)


#: Devices and host links of the default node, for ``sim.busy_frac.*``.
RESOURCES = (
    "dev.cpu", "dev.gpu0", "dev.gpu1",
    "link.dram-cpu", "link.pcie-gpu0", "link.pcie-gpu1",
)

#: Every per-layer metric: name -> (unit, which direction is better).
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _span in LAYER_SPANS:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "service.deferral_s": ("sim_s", "lower"),
    "ocl.issue.cmds_per_call": ("cmd/call", "higher"),
    "core.profile.cache_hit_ratio": ("ratio", "higher"),
    "core.map.reuse_ratio": ("ratio", "higher"),
    "hardware.price.calls_per_cmd": ("call/cmd", "lower"),
    "sim.tasks": ("count", "lower"),
    "sim.trace.records": ("count", "lower"),
    "sim.trace.resident": ("count", "lower"),
})
for _res in RESOURCES:
    PER_LAYER[f"sim.busy_frac.{_res}"] = ("frac", "higher")
PER_LAYER["trace.overhead_frac"] = ("frac", "lower")
PER_LAYER["trace.uncovered_self_s"] = ("s", "lower")


class SpanRecorder:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = [-1]
        self._stack_names: List[int] = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def skip(self, nid: int) -> bool:
        """Whether a call of span ``nid`` records nothing: it happens
        outside every episode region, or re-enters span ``nid`` itself."""
        top = self._stack_names[-1]
        return top == -1 or top == nid

    @property
    def recording(self) -> bool:
        return self._stack_names[-1] != -1

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self._stack_names.append(nid)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._stack_names.pop()

    def __len__(self) -> int:
        return len(self.start)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: entries, inclusive seconds and self seconds."""
        n = len(self)
        if n == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        table = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            table[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()) * 1e-9,
                "self_s": float(self_ns[mask].sum()) * 1e-9,
            }
        return table

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent) as compressed arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


@dataclass
class Probe:
    """Counts taken at the wrapped boundaries during one traced episode."""

    #: commands handed to ``Context.issue_pool`` (outermost calls)
    issued_cmds: int = 0
    #: simulated seconds tenant commands waited between enqueue and issue
    deferral_s: float = 0.0
    deferred_cmds: int = 0
    #: ``SimTask`` objects created
    sim_tasks: int = 0
    #: objects whose counters are read when the episode ends
    profilers: Dict[int, Any] = field(default_factory=dict)
    schedulers: Dict[int, Any] = field(default_factory=dict)
    engines: Dict[int, Any] = field(default_factory=dict)
    #: enqueue time of each tenant command not yet issued, by ``id``
    enqueued_at: Dict[int, float] = field(default_factory=dict)


def _resolve(module: str, path: str):
    mod = importlib.import_module(module)
    owner: Any = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return mod, owner, parts[-1]


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Installs span wrappers for one episode; use as a context manager."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.probe = Probe()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------
    def _span(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        rec = self.rec
        nid = rec.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.skip(nid):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _generator_span(self, fn: Callable, name: str) -> Callable:
        """Span each ``next()`` of a generator, where its work happens."""
        rec = self.rec
        nid = rec.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = None if rec.skip(nid) else rec.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        rec.close(idx)
                yield item

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _hooks(self, name: str):
        """Counters taken at the boundary of span ``name``."""
        p = self.probe
        if name == "ocl.enqueue":
            def after(args, event):
                queue = args[0]
                if queue.context.tenant is not None:
                    p.enqueued_at[id(event.command)] = (
                        queue.context.platform.engine.now
                    )
            return None, after
        if name == "ocl.issue":
            def before(args):
                context, pool = args[0], args[1]
                now = context.platform.engine.now
                for q in pool:
                    p.issued_cmds += len(q.pending)
                    for cmd in q.pending:
                        t = p.enqueued_at.pop(id(cmd), None)
                        if t is not None:
                            p.deferral_s += now - t
                            p.deferred_cmds += 1
            return before, None
        if name == "core.profile":
            return (lambda args: p.profilers.setdefault(id(args[0]), args[0])), None
        if name == "core.sync":
            return (lambda args: p.schedulers.setdefault(id(args[0]), args[0])), None
        if name == "sim.run":
            return (lambda args: p.engines.setdefault(id(args[0]), args[0])), None
        return None, None

    def install(self) -> None:
        for name, module, path in ENTRY_POINTS:
            mod, owner, attr = _resolve(module, path)
            if inspect.isclass(owner):
                for cls in _subclasses(owner):
                    if attr in cls.__dict__:
                        self._install_method(cls, attr, name)
            else:
                self._install_function(getattr(mod, attr), name)
        self._count_sim_tasks()

    def _install_method(self, cls: type, attr: str, name: str) -> None:
        fn = cls.__dict__[attr]
        if inspect.isgeneratorfunction(fn):
            self._set(cls, attr, self._generator_span(fn, name))
        else:
            before, after = self._hooks(name)
            self._set(cls, attr, self._span(fn, name, before, after))

    def _install_function(self, fn: Callable, name: str) -> None:
        before, after = self._hooks(name)
        wrapped = self._span(fn, name, before, after)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapped)

    def _count_sim_tasks(self) -> None:
        from repro.sim.engine import SimTask

        init = SimTask.__dict__["__init__"]
        probe, rec = self.probe, self.rec

        @functools.wraps(init)
        def counted(*args, **kwargs):
            if rec.recording:
                probe.sim_tasks += 1
            init(*args, **kwargs)

        self._set(SimTask, "__init__", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def region(self):
        """Root span of one timed block; spans are recorded only inside."""
        idx = self.rec.open(self.rec.name_id(ROOT))
        try:
            yield
        finally:
            self.rec.close(idx)


def busy_fractions(engines) -> Dict[str, float]:
    """Busy share of each device and host link over the engines' runs.

    A duplex link (``link:<name>:h2d`` / ``:d2h``) has two DMA engines, so
    its share is busy seconds over twice the makespan.
    """
    busy: Dict[str, float] = {}
    lanes: Dict[str, set] = {}
    span = 0.0
    for engine in engines:
        span += engine.now
        for resource, seconds in engine.trace.by_resource().items():
            kind, _, rest = resource.partition(":")
            if kind not in ("dev", "link"):
                continue
            base = f"{kind}.{rest.split(':')[0]}"
            busy[base] = busy.get(base, 0.0) + seconds
            lanes.setdefault(base, set()).add(resource)
    if span <= 0.0:
        return {}
    return {k: busy[k] / (span * len(lanes[k])) for k in sorted(busy)}


def layer_metrics(tracer: Tracer, commands: int) -> Dict[str, float]:
    """The per-layer metrics of one traced episode (see ``BENCHMARK.json``)."""
    table = tracer.rec.layer_table()
    probe = tracer.probe
    out: Dict[str, float] = {}

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    for name in LAYER_SPANS:
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    out["service.deferral_s"] = (
        probe.deferral_s / probe.deferred_cmds if probe.deferred_cmds else 0.0
    )
    issue_calls = row("ocl.issue")["calls"]
    out["ocl.issue.cmds_per_call"] = (
        probe.issued_cmds / issue_calls if issue_calls else 0.0
    )
    lookups = row("core.profile")["calls"]
    hits = sum(p.stats.epoch_cache_hits for p in probe.profilers.values())
    out["core.profile.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    decisions = reuses = 0
    for s in probe.schedulers.values():
        solves = getattr(s, "mapper_solves", 0)
        repairs = getattr(s, "mapper_repairs", 0)
        reused = getattr(s, "mapper_reuses", 0)
        decisions += solves + repairs + reused
        reuses += reused
    out["core.map.reuse_ratio"] = reuses / decisions if decisions else 0.0
    out["hardware.price.calls_per_cmd"] = (
        row("hardware.price")["calls"] / commands if commands else 0.0
    )
    engines = list(probe.engines.values())
    out["sim.tasks"] = probe.sim_tasks
    out["sim.trace.records"] = sum(e.trace.total_recorded for e in engines)
    out["sim.trace.resident"] = sum(len(e.trace) for e in engines)
    shares = busy_fractions(engines)
    for resource in RESOURCES:
        out[f"sim.busy_frac.{resource}"] = shares.get(resource, 0.0)
    out["trace.uncovered_self_s"] = row(ROOT)["self_s"]
    return out


def write_outputs(out_dir: Path, workload: str, tracer: Tracer,
                  metrics: Dict[str, float]) -> None:
    """Write the traced episode's spans and its per-layer table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.rec.write(out_dir / f"{workload}.spans.npz")
    table = {
        "workload": workload,
        "layers": tracer.rec.layer_table(),
        "metrics": metrics,
    }
    (out_dir / f"{workload}.layers.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n"
    )
