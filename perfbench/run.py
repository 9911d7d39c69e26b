#!/usr/bin/env python3
"""End-to-end MultiCL benchmark: one workload per process, or all three.

Usage (from the repository root)::

    python3 perfbench/run.py --workload npb_auto --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics of the traced ones (see ``perfbench/spans.py``) and the
tracing overhead, and writes the last traced episode's spans and layer
table under ``.perfbench/``.  ``--workload all`` runs each workload in a
fresh process, so each one's peak memory is its own.

Host seconds are scaled to the reference host speed: a fixed pure-Python
unit (:func:`calibrate`) is timed between episodes, and each episode's
host seconds are multiplied by ``CALIBRATION_REF_S`` over the mean of the
two timings around it.  Simulated metrics need no scaling.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("npb_auto", "service_replay", "overlap_stream")
#: Episodes per run before the timed ones; they fill the library's
#: in-process caches and are checked but not timed.
WARMUP_EPISODES = 1
#: Fewest timed episodes a run makes, however short ``--seconds`` is.
MIN_EPISODES = 3
#: Nominal seconds of one :func:`calibrate` call, about its duration on one
#: core of a 2-vCPU x86-64 container under Python 3.11 at its fastest; host
#: seconds are reported at this speed.
CALIBRATION_REF_S = 0.05

HOST_METRICS = {
    "setup_s": "s",
    "host_cmds_per_s": "cmd/s",
    "peak_rss_mib": "MiB",
}


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: float, weight: float) -> None:
        self.key = key
        self.weight = weight

    def scaled(self, factor: float) -> float:
        return self.key * factor + self.weight


def calibrate() -> float:
    """Time a fixed pure-Python work unit (objects, calls, dicts, a heap).

    A shared host can change speed by 2x within a minute as other tenants
    come and go; timing this unit next to every episode measures that
    drift so it can be divided out.  It uses no ``repro``
    code, so a change to the library cannot move it.
    """
    rng = random.Random(7)
    heap, table, acc = [], {}, 0.0
    start = time.perf_counter()
    for i in range(50_000):
        item = _Item(rng.random(), float(i & 15))
        heapq.heappush(heap, (item.key, i, item))
        table[i & 1023] = table.get(i & 1023, 0.0) + item.scaled(0.5)
        if len(heap) > 256:
            acc += heapq.heappop(heap)[2].weight
    elapsed = time.perf_counter() - start
    if acc < 0.0:  # keeps the work observable
        raise AssertionError("calibration sum went negative")
    return elapsed


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _episode(scenario, seed, profile_dir: Path, tracer=None):
    from scenarios import Clock

    # Free the previous episode's object graph first, so no episode pays
    # for another's garbage and peak memory does not depend on collector
    # timing.
    gc.collect()
    if tracer is None:
        return scenario.episode(seed, profile_dir, Clock())
    with tracer:
        return scenario.episode(seed, profile_dir, Clock(tracer.region))


def _measure(scenario, seed, seconds, scratch: Path, traced: bool, out_dir: Path):
    """Episodes until ``seconds`` have passed, calibrating between them.

    Traced runs alternate untraced and traced episodes after the warm-up.
    Returns (episodes, host-time scale of each episode,
    {episode index: layer metrics}).
    """
    from spans import Tracer, layer_metrics, write_outputs

    episodes, layers = [], {}
    calibrations = [calibrate()]
    tracer = None
    start = time.perf_counter()
    while (
        len(episodes) < WARMUP_EPISODES + MIN_EPISODES
        or time.perf_counter() - start < seconds
    ):
        n = len(episodes)
        use_tracer = traced and n >= WARMUP_EPISODES and (n - WARMUP_EPISODES) % 2 == 1
        if use_tracer:
            tracer = Tracer()
        ep = _episode(scenario, seed, scratch / f"profile-{n}", tracer if use_tracer else None)
        if use_tracer:
            layers[n] = layer_metrics(tracer, ep.commands)
        episodes.append(ep)
        calibrations.append(calibrate())
    if tracer is not None:
        write_outputs(out_dir, scenario.name, tracer, layers[max(layers)])
    scale = [
        2.0 * CALIBRATION_REF_S / (calibrations[i] + calibrations[i + 1])
        for i in range(len(episodes))
    ]
    return episodes, scale, layers


def _determinism_problems(episodes):
    first = episodes[0].fold
    return [
        f"episode {i}: simulated results differ from episode 0"
        for i, ep in enumerate(episodes)
        if ep.fold != first
    ]


def _end_to_end(episodes, scale, sim_units):
    timed = range(WARMUP_EPISODES, len(episodes))
    metrics = {
        "setup_s": statistics.median(episodes[i].setup_s * scale[i] for i in timed),
        "host_cmds_per_s": statistics.median(
            episodes[i].commands / (episodes[i].wall_s * scale[i]) for i in timed
        ),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(episodes[0].sim)
    raw = statistics.median(episodes[i].commands / episodes[i].wall_s for i in timed)
    print(f"  unscaled host_cmds_per_s {raw!r} cmd/s; median host speed scale "
          f"{statistics.median(scale[i] for i in timed)!r}")
    print(f"  latency samples per episode: {episodes[0].samples}")
    return metrics, dict(HOST_METRICS, **sim_units)


def _per_layer(episodes, scale, layers):
    from spans import PER_LAYER

    units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    metrics = {}
    for key in PER_LAYER:
        if key == "trace.overhead_frac":
            continue
        factor = scale if units[key] == "s" else [1.0] * len(scale)
        metrics[key] = statistics.median(m[key] * factor[i] for i, m in layers.items())
    plain = [i for i in range(WARMUP_EPISODES, len(episodes)) if i not in layers]
    plain_wall = statistics.median(episodes[i].wall_s * scale[i] for i in plain)
    traced_wall = statistics.median(episodes[i].wall_s * scale[i] for i in layers)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return metrics, units


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    import scenarios

    scenario = scenarios.SCENARIOS[name]()
    out_dir = Path.cwd() / ".perfbench"
    scratch = out_dir / f"tmp-{os.getpid()}"
    try:
        episodes, scale, layers = _measure(
            scenario, seed, seconds, scratch, bool(trace), out_dir
        )
        gc.collect()
        problems = _determinism_problems(episodes)
        problems += scenario.reference_problems(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for ep in episodes:
        problems += ep.problems

    attempted = sum(ep.commands for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    print(f"workload {name}  seed {seed}  trace {trace}  episodes {len(episodes)}"
          f" ({len(layers)} traced)")
    if trace:
        metrics, units = _per_layer(episodes, scale, layers)
    else:
        metrics, units = _end_to_end(episodes, scale, scenarios.SIM_METRICS)
    for key, value in metrics.items():
        print(f"  {key:36s} {value!r} {units[key]}")
    print(f"  failed_frac {failed / attempted!r} ({failed}/{attempted} commands)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process; relay its report, merge the JSON."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    # Inherited MULTICL_* settings would silently change the workloads.
    for key in [k for k in os.environ if k.startswith("MULTICL_")]:
        del os.environ[key]
    # One BLAS thread: the functional NPB checks then leave the second core
    # idle instead of racing for it, which steadies the host timings.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
