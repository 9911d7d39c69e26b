"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload runs in *episodes*.  An episode builds everything it needs
from a fresh, then warmed, device-profile cache (its set-up), runs the timed
work once, and checks the outputs.  Every episode of one run gets the same
inputs, so its simulated results must repeat bit for bit; the runner
compares them across episodes and between traced and untraced episodes.

* ``npb_auto`` — the six SNU-NPB-MD drivers at class A on 4 queues under
  ``AUTO_FIT`` with each benchmark's Table II flags: the paper's own
  evaluation.  A closed loop: every iteration enqueues, then ``finish()``es.
  NPB has no random input, so the seed only permutes the order the six
  drivers run in; the simulated results are pinned in :data:`NPB_PINS`.
* ``service_replay`` — 2 tenants weighted 2:1 send seeded Poisson arrivals
  at the replay's default per-tenant rate through ``run_service_replay``;
  ~600 commands/s offered against a fleet that serves ~190.
* ``overlap_stream`` — double-buffered upload → kernel → read-back pools on
  2 auto-scheduled queues with ``SCHED_OVERLAP`` on; a host function
  computes real outputs, which every pool checks.

Simulated metrics are reported for every workload under one definition
each; a *request* is one command (``service_replay``, arrival → completion),
one closed-loop iteration (``npb_auto``, enqueue → finish) or one pool
(``overlap_stream``, first enqueue → finish).
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.runtime import MultiCL, RunStats
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.replay import ReplayConfig
from repro.replay.arrivals import derive_seed, make_process
from repro.replay.metrics import jain_index
from repro.replay.runner import run_service_replay
from repro.replay.shard import ensure_profile_cache
from repro.workloads.base import ProblemClass
from repro.workloads.npb import get_benchmark

#: Simulated metrics every workload reports, with their units.
SIM_METRICS = {
    "sim_makespan_s": "sim_s",
    "sim_sched_overhead_frac": "frac",
    "sim_p50_latency_s": "sim_s",
    "sim_p99_latency_s": "sim_s",
    "sim_throughput_cps": "cmd/sim_s",
    "jain_fairness": "index",
}


class Clock:
    """Host seconds an episode spends in set-up and in its timed region.

    ``region`` wraps every timed block; the traced run passes one that
    opens the episode's root span, so spans are recorded only there.
    """

    def __init__(self, region: Callable[[], ContextManager] = contextlib.nullcontext):
        self.region = region
        self.setup_s = 0.0
        self.wall_s = 0.0

    @contextlib.contextmanager
    def setup(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - start

    @contextlib.contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            with self.region():
                yield
        finally:
            self.wall_s += time.perf_counter() - start


@dataclass
class Episode:
    """One set-up plus one timed run of a workload, and its checks."""

    setup_s: float
    wall_s: float
    #: commands offered in the timed region
    commands: int
    #: offered commands that did not complete or failed an output check
    failed: int
    sim: Dict[str, float]
    #: latency samples behind ``sim_p50/p99_latency_s``
    samples: int
    #: deterministic simulated results; equal on every episode of a run
    fold: Tuple
    problems: List[str] = field(default_factory=list)


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (a sample, so it is exact and order-free)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _device_jain(kernel_seconds: Dict[str, float], devices: Sequence[str]) -> float:
    """Jain index over the fleet devices' application-kernel seconds."""
    return jain_index([kernel_seconds.get(d, 0.0) for d in devices])


def _app_commands(trace, t0: float, t1: float) -> int:
    """Application commands (kernels and host transfers) served in [t0, t1]."""
    return sum(
        1
        for iv in trace
        if iv.category in ("kernel", "transfer") and t0 <= iv.start and iv.end <= t1
    )


# ---------------------------------------------------------------------------
# npb_auto
# ---------------------------------------------------------------------------
NPB_NAMES = ("BT", "CG", "EP", "FT", "MG", "SP")
NPB_QUEUES = 4
#: The cheap functional check of each benchmark that has one.  EP's check is
#: left out: its numerics cost ~7 s of numpy per pass.
NPB_CHECKS = {"BT": "bounded", "CG": "converged", "MG": "converging", "SP": "bounded"}
#: Simulated seconds and final queue bindings of each driver at class A on
#: 4 queues, warm profile cache (identical to ``run_npb(app, "auto")``).
_SPREAD = {"q0": "cpu", "q1": "gpu0", "q2": "gpu1", "q3": "cpu"}
NPB_PINS: Dict[str, Tuple[float, Dict[str, str]]] = {
    "BT": (1.9327369167829198, _SPREAD),
    "CG": (0.01488654981353944, _SPREAD),
    "EP": (0.05436223396115944, {"q0": "gpu0", "q1": "gpu0", "q2": "gpu1", "q3": "gpu1"}),
    "FT": (0.20736734591537673, _SPREAD),
    "MG": (1.0092690501291248, _SPREAD),
    "SP": (2.1573247250770162, _SPREAD),
}


@dataclass
class _NpbResult:
    seconds: float
    bindings: Dict[str, str]
    iterations: List[float]
    stats: RunStats
    commands: int
    checks: Dict[str, object]


def _run_npb(name: str, profile_dir: str, clock: Clock) -> _NpbResult:
    """Set up and run one driver the way ``run_npb(app, "auto")`` does,
    with the set-up (platform, queues, program builds, initial writes)
    timed apart from the closed loop."""
    with clock.setup():
        mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
        app = get_benchmark(name)(
            ProblemClass.A, NPB_QUEUES, functional=name in NPB_CHECKS
        )
        flags = SchedFlag.SCHED_AUTO_DYNAMIC | app.TABLE2_FLAGS
        devices = mcl.device_names
        queues = [
            mcl.queue(device=devices[i % len(devices)], flags=flags, name=f"q{i}")
            for i in range(NPB_QUEUES)
        ]
        app.setup(mcl.context, queues)
        if app.USES_WORKGROUP_INFO:
            app.apply_workgroup_info()

    iterations: List[float] = []

    def iteration(it: int) -> None:
        start = mcl.now
        app.enqueue_iteration(it)
        app.finish_all()
        iterations.append(mcl.now - start)

    t0 = mcl.now
    with clock.timed():
        first = 0
        if flags & SchedFlag.SCHED_EXPLICIT_REGION:
            for q in queues:
                q.set_sched_property(SchedFlag.SCHED_AUTO_DYNAMIC)
            first = min(app.warmup_iterations, app.iterations)
            for it in range(first):
                iteration(it)
            for q in queues:
                q.set_sched_property(SchedFlag.SCHED_OFF)
        for it in range(first, app.iterations):
            iteration(it)
        app.finalize()
        app.finish_all()
    t1 = mcl.now
    return _NpbResult(
        seconds=t1 - t0,
        bindings={q.name: q.device for q in queues},
        iterations=iterations,
        stats=mcl.stats_between(t0, t1),
        commands=_app_commands(mcl.engine.trace, t0, t1),
        checks=dict(app.checks),
    )


class NpbAuto:
    name = "npb_auto"

    def episode(self, seed: int, profile_dir: Path, clock: Clock) -> Episode:
        order = list(NPB_NAMES)
        random.Random(seed).shuffle(order)
        with clock.setup():
            pdir = ensure_profile_cache(str(profile_dir))
        results = {}
        for name in order:
            # Each driver starts from a collected heap, so peak memory does
            # not depend on the order the seed picked.
            gc.collect()
            results[name] = _run_npb(name, pdir, clock)
        return self._judge(results, clock)

    @staticmethod
    def _judge(results: Dict[str, _NpbResult], clock: Clock) -> Episode:
        problems: List[str] = []
        failed = 0
        for name in NPB_NAMES:
            res = results[name]
            seconds, bindings = NPB_PINS[name]
            bad = []
            if res.seconds != seconds:
                bad.append(f"simulated {res.seconds!r} s != pinned {seconds!r}")
            if res.bindings != bindings:
                bad.append(f"bindings {res.bindings} != pinned {bindings}")
            check = NPB_CHECKS.get(name)
            if check is not None and res.checks.get(check) is not True:
                bad.append(f"functional check {check!r} failed")
            if bad:
                failed += res.commands
                problems.extend(f"{name}: {b}" for b in bad)
        # Canonical order, so the fold does not depend on the run order.
        ordered = [results[n] for n in NPB_NAMES]
        makespan = sum(r.seconds for r in ordered)
        commands = sum(r.commands for r in ordered)
        latencies = [s for r in ordered for s in r.iterations]
        kernel_seconds: Dict[str, float] = {}
        for r in ordered:
            for dev, sec in sorted(r.stats.kernel_seconds_by_device.items()):
                kernel_seconds[dev] = kernel_seconds.get(dev, 0.0) + sec
        sim = {
            "sim_makespan_s": makespan,
            "sim_sched_overhead_frac": sum(r.stats.profiling_seconds for r in ordered)
            / makespan,
            "sim_p50_latency_s": _quantile(latencies, 0.50),
            "sim_p99_latency_s": _quantile(latencies, 0.99),
            "sim_throughput_cps": commands / makespan,
            "jain_fairness": _device_jain(kernel_seconds, ("cpu", "gpu0", "gpu1")),
        }
        fold = tuple((n, results[n].seconds, tuple(sorted(results[n].bindings.items())))
                     for n in NPB_NAMES) + tuple(sorted(sim.items()))
        return Episode(clock.setup_s, clock.wall_s, commands, failed, sim,
                       len(latencies), fold, problems)

    def reference_problems(self, scratch: Path) -> List[str]:
        """NPB has no seeded input: every episode is checked against the pins."""
        return []


# ---------------------------------------------------------------------------
# service_replay
# ---------------------------------------------------------------------------
SERVICE_TENANTS = 2
SERVICE_WEIGHTS = (2.0, 1.0)
SERVICE_COMMANDS = 10_000
#: Reference replay checked on every run: (seed, commands per tenant) and
#: the replay's checksum fold.
SERVICE_REFERENCE = (0, 500, 3799.053503421592)


class _Capture:
    """Remember every instance ``cls`` constructs while active."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.instances: List[object] = []

    def __enter__(self) -> "_Capture":
        original = self.cls.__init__
        instances = self.instances

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._original = original
        self.cls.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        self.cls.__init__ = self._original


def _replay_config(seed: int, commands: int, profile_dir: str) -> ReplayConfig:
    # Host knobs (chunk, spill) stay at their defaults on purpose.
    return ReplayConfig(
        commands=commands,
        tenants=SERVICE_TENANTS,
        weights=SERVICE_WEIGHTS,
        seed=seed,
        profile_dir=profile_dir,
    ).validate()


def _service_run(config: ReplayConfig):
    from repro.service.core import SchedulingService

    with _Capture(SchedulingService) as cap:
        report = run_service_replay(config)
    return report, cap.instances[-1]


class ServiceReplay:
    name = "service_replay"

    def episode(self, seed: int, profile_dir: Path, clock: Clock) -> Episode:
        with clock.setup():
            config = _replay_config(
                seed, SERVICE_COMMANDS, ensure_profile_cache(str(profile_dir))
            )
            # The offered load, generated from the seed: per tenant, the
            # arrival count and the last arrival time.
            offered: List[Tuple[int, float]] = []
            for i in range(config.tenants):
                process = make_process(config.process, config.rate, **config.process_params)
                count, last = 0, 0.0
                for t, _fam in process.stream(config.families, derive_seed(seed, i),
                                              config.commands):
                    count += 1
                    last = t
                offered.append((count, last))
        with clock.timed():
            report, service = _service_run(config)

        attempted = sum(c for c, _ in offered)
        problems: List[str] = []
        completed = 0
        for tenant, (count, last) in zip(report.tenants, offered):
            completed += min(tenant.completed, count)
            if not (tenant.requests == tenant.completed == count):
                problems.append(
                    f"{tenant.tenant}: {tenant.completed}/{tenant.requests} "
                    f"completed of {count} offered"
                )
            if tenant.end_time < last:
                problems.append(f"{tenant.tenant}: finished before its last arrival")
        stats = RunStats.from_trace(service.platform.engine.trace, 0.0, service.now)
        pct = report.percentiles()
        sim = {
            "sim_makespan_s": report.virtual_seconds,
            "sim_sched_overhead_frac": stats.profiling_seconds / service.now,
            "sim_p50_latency_s": pct["p50"],
            "sim_p99_latency_s": pct["p99"],
            "sim_throughput_cps": report.simulated_throughput,
            "jain_fairness": report.fairness,
        }
        fold = (report.checksum,) + tuple(sorted(sim.items()))
        return Episode(clock.setup_s, clock.wall_s, attempted, attempted - completed,
                       sim, report.merged.count, fold, problems)

    def reference_problems(self, scratch: Path) -> List[str]:
        seed, commands, checksum = SERVICE_REFERENCE
        pdir = ensure_profile_cache(str(scratch / "profile-reference"))
        report, _ = _service_run(_replay_config(seed, commands, pdir))
        if report.checksum != checksum:
            return [f"reference replay checksum {report.checksum!r} != pinned {checksum!r}"]
        return []


# ---------------------------------------------------------------------------
# overlap_stream
# ---------------------------------------------------------------------------
STREAM_PROGRAM = """
// @multicl flops_per_item=200 bytes_per_item=8 writes=1
__kernel void stream(__global float* in, __global float* out, int n) {
  out[get_global_id(0)] = in[get_global_id(0)] * 2.0f + 1.0f;
}
"""
STREAM_QUEUES = 2
#: buffer pairs per queue (double buffering)
STREAM_DEPTH = 2
#: upload/kernel/read-back rounds per queue in one pool: 3 commands each,
#: 24 per pool over both queues
STREAM_ROUNDS = 4
STREAM_POOLS = 100
#: chunk length in float32 items
STREAM_N = 1 << 16
#: distinct input chunks the seed generates; it also picks one per round
STREAM_BANK = 6
#: Simulated makespan of the whole stream; the seed changes the data only,
#: so this holds for every seed.
STREAM_MAKESPAN = 0.041680723508515205


def _stream_kernel(args) -> None:
    np.multiply(args["in"], 2.0, out=args["out"])
    args["out"] += 1.0


@dataclass
class _Stream:
    mcl: MultiCL
    kernel: object
    queues: list
    #: [queue][depth] -> (input buffer, output buffer)
    buffers: list
    #: (input chunk, expected output) pairs
    bank: list
    #: [queue][round] -> read-back array
    results: list
    #: per pool, the bank chunk each queue round uploads
    plan: List[List[int]]


def _stream_setup(seed: int, profile_dir: str) -> _Stream:
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir, overlap=True)
    ctx = mcl.context
    kernel = ctx.create_program(STREAM_PROGRAM).build().create_kernel("stream")
    kernel.set_host_function(_stream_kernel)
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    queues = [ctx.create_queue(sched_flags=flags, name=f"stream{i}")
              for i in range(STREAM_QUEUES)]
    buffers = [
        [
            tuple(
                ctx.create_buffer(4 * STREAM_N, host_array=np.zeros(STREAM_N, np.float32),
                                  name=f"{kind}{qi}-{d}")
                for kind in ("in", "out")
            )
            for d in range(STREAM_DEPTH)
        ]
        for qi in range(STREAM_QUEUES)
    ]
    rng = np.random.default_rng(seed)
    bank = []
    for _ in range(STREAM_BANK):
        x = rng.random(STREAM_N, dtype=np.float32)
        bank.append((x, x * np.float32(2.0) + np.float32(1.0)))
    results = [[np.empty(STREAM_N, np.float32) for _ in range(STREAM_ROUNDS)]
               for _ in range(STREAM_QUEUES)]
    plan = [[int(k) for k in rng.integers(STREAM_BANK, size=STREAM_QUEUES * STREAM_ROUNDS)]
            for _ in range(STREAM_POOLS)]
    return _Stream(mcl, kernel, queues, buffers, bank, results, plan)


def _stream_run(s: _Stream) -> Tuple[int, int, List[float], float, float]:
    """Run every pool; returns (commands, failed, pool latencies, t0, t1)."""
    mcl, kernel = s.mcl, s.kernel
    commands = failed = 0
    latencies: List[float] = []
    t0 = mcl.now
    for picks in s.plan:
        start = mcl.now
        for qi, queue in enumerate(s.queues):
            for r in range(STREAM_ROUNDS):
                src, dst = s.buffers[qi][r % STREAM_DEPTH]
                queue.enqueue_write_buffer(src, s.bank[picks[qi * STREAM_ROUNDS + r]][0])
                kernel.set_arg(0, src)
                kernel.set_arg(1, dst)
                kernel.set_arg(2, STREAM_N)
                queue.enqueue_nd_range_kernel(kernel, (STREAM_N,), (64,))
                queue.enqueue_read_buffer(dst, s.results[qi][r])
        for queue in s.queues:
            queue.finish()
        latencies.append(mcl.now - start)
        for qi in range(STREAM_QUEUES):
            for r in range(STREAM_ROUNDS):
                commands += 3
                expected = s.bank[picks[qi * STREAM_ROUNDS + r]][1]
                if not np.array_equal(s.results[qi][r], expected):
                    failed += 3
    return commands, failed, latencies, t0, mcl.now


class OverlapStream:
    name = "overlap_stream"

    def episode(self, seed: int, profile_dir: Path, clock: Clock) -> Episode:
        with clock.setup():
            stream = _stream_setup(seed, ensure_profile_cache(str(profile_dir)))
        with clock.timed():
            commands, failed, latencies, t0, t1 = _stream_run(stream)

        makespan = t1 - t0
        stats = stream.mcl.stats_between(t0, t1)
        sim = {
            "sim_makespan_s": makespan,
            "sim_sched_overhead_frac": stats.profiling_seconds / makespan,
            "sim_p50_latency_s": _quantile(latencies, 0.50),
            "sim_p99_latency_s": _quantile(latencies, 0.99),
            "sim_throughput_cps": commands / makespan,
            "jain_fairness": _device_jain(stats.kernel_seconds_by_device,
                                          stream.mcl.device_names),
        }
        problems = [f"{failed} read-back commands returned wrong data"] if failed else []
        if makespan != STREAM_MAKESPAN:
            failed = commands
            problems.append(f"makespan {makespan!r} != pinned {STREAM_MAKESPAN!r}")
        fold = tuple(latencies) + tuple(sorted(sim.items()))
        return Episode(clock.setup_s, clock.wall_s, commands, failed, sim,
                       len(latencies), fold, problems)

    def reference_problems(self, scratch: Path) -> List[str]:
        """The stream's simulated results do not depend on the seed: every
        episode is checked against the pinned makespan."""
        return []


SCENARIOS: Dict[str, Callable[[], object]] = {
    "npb_auto": NpbAuto,
    "service_replay": ServiceReplay,
    "overlap_stream": OverlapStream,
}
