"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
from repro.workloads.base import ProblemClass  # noqa: E402
from repro.workloads.npb import get_benchmark, run_npb  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink the replay so an episode takes a fraction of a second."""
    monkeypatch.setattr(scenarios, "SERVICE_COMMANDS", 1000)


def _episode(name, seed, tmp_path, tracer=None):
    clock = scenarios.Clock() if tracer is None else scenarios.Clock(tracer.region)
    profile_dir = tmp_path / f"profile-{name}-{seed}-{id(clock)}"
    scenario = scenarios.SCENARIOS[name]()
    if tracer is None:
        return scenario.episode(seed, profile_dir, clock)
    with tracer:
        return scenario.episode(seed, profile_dir, clock)


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_same_seed_gives_bit_identical_simulated_metrics(name, small, tmp_path):
    a = _episode(name, 7, tmp_path)
    b = _episode(name, 7, tmp_path)
    assert a.problems == [] and a.failed == 0
    assert a.fold == b.fold
    assert a.sim == b.sim
    assert set(a.sim) == set(scenarios.SIM_METRICS)
    assert all(v > 0 for v in a.sim.values())


def test_different_seed_changes_service_arrivals(small, tmp_path):
    a = _episode("service_replay", 1, tmp_path)
    b = _episode("service_replay", 2, tmp_path)
    assert a.fold != b.fold
    assert a.sim["sim_makespan_s"] != b.sim["sim_makespan_s"]


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_traced_episode_repeats_untraced_results(name, small, tmp_path):
    plain = _episode(name, 3, tmp_path)
    tracer = spans.Tracer()
    traced = _episode(name, 3, tmp_path, tracer)
    assert traced.fold == plain.fold
    table = tracer.rec.layer_table()
    assert table[spans.ROOT]["calls"] >= 1
    # The untraced command count is the number of enqueues the spans saw.
    assert table["ocl.enqueue"]["calls"] == plain.commands


def test_wrappers_replace_every_lookup_site():
    """No module attribute in ``repro`` still holds an unwrapped entry point
    while tracing (e.g. ``kernel_time`` imported by name elsewhere)."""
    import importlib

    originals = []
    for _, module, path in spans.ENTRY_POINTS:
        if "." not in path:
            originals.append(getattr(importlib.import_module(module), path))
    import repro.hardware.cost as cost
    import repro.hardware.topology as topology
    import repro.service.arbiter as arbiter

    with spans.Tracer():
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for value in vars(mod).values():
                    assert not any(value is fn for fn in originals), mod.__name__
        assert arbiter.kernel_time is cost.kernel_time is topology.kernel_time
        assert cost.kernel_time not in originals
    assert cost.kernel_time in originals


def test_npb_driver_matches_run_npb_and_pins(tmp_path):
    """The benchmark's NPB driver splits set-up from the loop but must
    reproduce ``run_npb(app, "auto")`` exactly."""
    from repro.replay.shard import ensure_profile_cache

    pdir = ensure_profile_cache(str(tmp_path / "profile"))
    for name in scenarios.NPB_NAMES:
        ref = run_npb(get_benchmark(name)(ProblemClass.A, scenarios.NPB_QUEUES),
                      mode="auto", profile_dir=pdir)
        seconds, bindings = scenarios.NPB_PINS[name]
        assert ref.seconds == seconds, name
        assert ref.bindings == bindings, name


def test_metric_names_units_and_records_agree_with_code():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    layer = {m["name"]: m for m in SPEC["per_layer"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert set(e2e) == set(run.HOST_METRICS) | set(scenarios.SIM_METRICS)
    units = dict(run.HOST_METRICS, **scenarios.SIM_METRICS)
    assert all(e2e[k]["unit"] == units[k] for k in e2e)
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {k: (m["unit"], m["better"]) for k, m in layer.items()} == spans.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_short_run_of_each_workload_reports_every_metric(name):
    proc, lines = _run(["--workload", name, "--seed", "4", "--seconds", "0", "--trace", "0"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "failed_frac 0.0" in proc.stdout


def test_traced_run_reports_every_layer_metric():
    proc, lines = _run(["--workload", "overlap_stream", "--seconds", "0", "--trace", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["ocl.overlap.calls"]["value"] > 0
    assert (ROOT / ".perfbench" / "overlap_stream.layers.json").is_file()


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run(["--workload", "npb_auto", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
