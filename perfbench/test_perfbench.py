"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the root.

Runs each workload once untraced and once traced at the benchmark's own
sizes, and one short benchmark invocation per mode.  Takes about a minute
on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from spans import Tracer, TracerError, layer_metrics
from workloads import WORKLOADS, run_once

sys.path.insert(0, str(run.SRC))

import prtrack.cli  # noqa: E402,F401  (loads every prtrack module)

SEED = 7


def _declared():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _snapshot():
    """Identity of every attribute of every prtrack namespace and of the
    methods the tracer patches."""
    from prtrack.core import PartFeatureSet
    from prtrack.tracker import OnlineTracker

    state = {(name, attr): value
             for name, module in sys.modules.items()
             if name == "prtrack" or name.startswith("prtrack.")
             for attr, value in vars(module).items()}
    for cls in (PartFeatureSet, OnlineTracker):
        state.update({(cls.__name__, attr): value
                      for attr, value in vars(cls).items()})
    return state


def test_declared_metrics_match_the_benchmark():
    declared = _declared()
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        assert got == table, key
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_restores(name, tmp_path):
    workload = WORKLOADS[name]
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps(workload.config))  # YAML accepts JSON
    plain = run_once(workload, config, tmp_path / "plain", SEED)

    before = _snapshot()
    with Tracer() as tracer:
        traced = run_once(workload, config, tmp_path / "traced", SEED)
    after = _snapshot()

    assert traced.digest == plain.digest
    assert traced.quality == plain.quality
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed

    metrics = layer_metrics(tracer.spans, tracer.counts, traced.seconds)
    assert metrics["trace.stage_coverage"] >= 0.95
    derived = {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s",
               "trace.overhead_pct", "tracker.step_p50_ms",
               "tracker.step_p95_ms", "host.wall_run_s", "host.kernel_us",
               *run._LAYER_QUALITY}
    assert set(metrics) | derived == set(run.PER_LAYER)
    if workload.tracking:
        assert metrics["tracker.matches"] > 0
        assert metrics["track_metrics.frame_match_calls"] > 0
    else:
        assert metrics["tracker.step_s"] == 0.0
        assert metrics["embedder.loss_and_grad_calls"] > 0


@pytest.mark.parametrize("module,name", [("prtrack.track_metrics",
                                           "frame_match"),
                                          ("prtrack.tracker", "build_cost")])
def test_tracer_fails_on_a_missing_function(module, name, monkeypatch):
    monkeypatch.delattr(sys.modules[module], name)
    before = _snapshot()
    with pytest.raises(TracerError, match=name):
        with Tracer():
            pass
    assert _snapshot() == before


def test_tracer_fails_on_a_counter_that_no_longer_fits():
    from prtrack import postproc

    with pytest.raises(TracerError, match="merges_accepted"):
        with Tracer():
            postproc.merge_tracklets(iter([]))


def test_host_speed_sampler_restores_the_signal_state():
    import signal

    from hostspeed import HostSpeed, kernel

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            kernel()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 5
    assert speed.scaled(2.0) > 0


def test_input_seeds_follow_the_benchmark_seed():
    for workload in WORKLOADS.values():
        seeds = workload.seeds(SEED)
        assert seeds == workload.seeds(SEED)
        assert len(set(seeds)) == workload.inputs
        assert not set(seeds) & set(workload.seeds(SEED + 1))


@pytest.mark.parametrize("trace,table", [(0, run.END_TO_END),
                                         (1, run.PER_LAYER)])
def test_invocation_prints_every_metric(trace, table):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track_occluded",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in table.items()}
    assert not (run.ROOT / ".perfbench_runs").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track_clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
