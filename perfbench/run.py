"""prtrack benchmark: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload track_clean --seed 1 --seconds 25 \
        --trace 0

After set-up and one warm-up run, workload runs go back to back until the
next one would end after ``--seconds``; they cycle through the workload's
input seeds.  Each run's wall time is scaled to a reference host speed
measured during the run (see ``hostspeed.py``).  Every run's outputs are
checked against the digest of the first run of the same input and for
finite, in-range quality figures.  With ``--trace 0`` the result holds the
end-to-end metrics of untraced runs.  With ``--trace 1`` traced and
untraced runs alternate; the result holds the per-layer metrics of the
traced runs and the tracing overhead, the difference between the traced
and the untraced run time.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in SETUP_REPEATS fresh interpreters after one untimed
# one, which leaves the file cache as a user's second start finds it.  Each
# interpreter samples the host's speed while it imports and prints the mean
# kernel time, by which its wall time is scaled.
SETUP_REPEATS = 9
SETUP_CODE = ("import sys\n"
              "sys.path.insert(0, sys.argv[2])\n"
              "from hostspeed import HostSpeed\n"
              "with HostSpeed() as speed:\n"
              "    import prtrack.cli\n"
              "    from prtrack.config import load_config\n"
              "    load_config(sys.argv[1])\n"
              "print(speed.kernel_s())\n")

# name -> (unit, better); the traced run reports PER_LAYER, the untraced
# run END_TO_END.  BENCHMARK.json declares the same names.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "reid_map": ("ratio", "higher"),
    "reid_rank1": ("ratio", "higher"),
}
_S, _N, _R = ("s", "lower"), ("count", "higher"), ("ratio", "higher")
PER_LAYER = {
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.stage_coverage": _R,
    "trace.spans": ("count", "lower"),
    "host.wall_run_s": ("s", "lower"),
    "host.kernel_us": ("us", "lower"),
    "simgen.generate_s": _S, "simgen.to_tracking_input_s": _S,
    "simgen.to_reid_dataset_s": _S, "simgen.detections": _N,
    "embedder.train_s": _S, "embedder.loss_and_grad_s": _S,
    "embedder.loss_and_grad_calls": ("count", "lower"),
    "embedder.forward_batch_s": _S,
    "embedder.forward_rows": ("count", "lower"),
    "losses.self_s": _S,
    "losses.part_prediction_loss_calls": ("count", "lower"),
    "tracker.step_s": _S, "tracker.build_cost_s": _S,
    "tracker.kalman_s": _S, "tracker.ema_update_s": _S,
    "tracker.cost_cells": ("count", "lower"), "tracker.matches": _N,
    "tracker.match_ratio": _R,
    "tracker.step_p50_ms": ("ms", "lower"),
    "tracker.step_p95_ms": ("ms", "lower"),
    "core.part_distance_matrix_s": _S,
    "core.part_distance_matrix_pairs": ("count", "lower"),
    "core.part_distance_s": _S,
    "core.part_distance_calls": ("count", "lower"),
    "core.feature_set_builds": ("count", "lower"),
    "solvers.hungarian_s": _S, "solvers.hungarian_calls": ("count", "lower"),
    "solvers.hungarian_cells": ("count", "lower"), "solvers.kmeans2_s": _S,
    "postproc.merge_tracklets_s": _S,
    "postproc.merge_rounds": ("count", "lower"),
    "postproc.merges_accepted": _N, "postproc.assign_teams_s": _S,
    "postproc.team_cluster_accuracy": _R,
    "track_metrics.hota_s": _S, "track_metrics.mota_ids_s": _S,
    "track_metrics.idf1_s": _S, "track_metrics.frame_match_s": _S,
    "track_metrics.frame_match_calls": ("count", "lower"),
    "track_metrics.hota": _R, "track_metrics.idf1": _R,
    "track_metrics.mota": _R,
    "track_metrics.id_switches": ("count", "lower"),
    "reid_metrics.evaluate_retrieval_s": _S,
    "reid_metrics.rank_calls": _N,
    "reid_metrics.queries_excluded": ("count", "lower"),
    "reid_metrics.role_accuracy": _R,
    "motio.write_s": _S, "motio.read_s": _S,
    "motio.bytes_written": ("bytes", "lower"),
    "cli.self_s": _S, "pipeline.self_s": _S,
}
# Quality figures reported from the untraced runs of the traced invocation,
# with 0 on a workload whose report has no such figure.
_LAYER_QUALITY = {
    "postproc.team_cluster_accuracy": "team_cluster_accuracy",
    "track_metrics.hota": "hota", "track_metrics.idf1": "idf1",
    "track_metrics.mota": "mota", "track_metrics.id_switches": "id_switches",
    "reid_metrics.role_accuracy": "role_accuracy",
}


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at the usable core count; call before
    numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cores:
            os.environ[var] = str(cores)
    return {var: os.environ[var] for var in THREAD_VARS}


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(caps: dict[str, str]) -> dict:
    import hashlib

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": caps,
        "machine": platform.machine(),
    }


def time_setup(config_path: Path) -> float:
    """Wall time of a fresh interpreter that imports prtrack.cli and loads
    the workload config, scaled to the reference host speed."""
    from hostspeed import REFERENCE_S

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config_path), str(HERE)],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        timeout=60)
    wall = time.perf_counter() - start
    return wall * REFERENCE_S / float(proc.stdout.split()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seed: int, seconds: float, trace: bool,
            work: Path) -> tuple[dict, int, int]:
    """Set up, warm up and run the closed loop; returns (metrics,
    attempted, failed)."""
    import yaml

    from hostspeed import HostSpeed
    from spans import StepTimer, Tracer, layer_metrics, p95
    from workloads import RunFailed, RunResult, run_once

    config_path = work / "config.yaml"
    with open(config_path, "w") as fh:
        yaml.safe_dump(workload.config, fh, sort_keys=True)
    time_setup(config_path)
    setup_s = statistics.median(
        time_setup(config_path) for _ in range(SETUP_REPEATS))
    run_dir = work / "run"
    inputs = workload.seeds(seed)

    attempted = failed = 0
    references: dict[int, RunResult] = {}    # input seed -> its first run
    # Run times scaled to the reference host speed, per input seed.
    plain: dict[int, list[float]] = {s: [] for s in inputs}
    traced: dict[int, list[float]] = {s: [] for s in inputs}
    plain_wall: list[float] = []
    kernel_s: list[float] = []
    layers: list[dict] = []
    steps: list[float] = []

    def attempt(input_seed: int, traced_run: bool, measured: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        tracer, timer, speed = Tracer(), StepTimer(), HostSpeed()
        # Step latency is timed on the untraced runs of a traced invocation.
        context = tracer if traced_run else timer if trace else nullcontext()
        try:
            with speed, context:
                result = run_once(workload, config_path, run_dir, input_seed)
            scaled = speed.scaled(result.seconds)
            first = references.setdefault(input_seed, result)
            if result.digest != first.digest:
                raise RunFailed("output digest differs from the first run's")
        except Exception:  # every failure counts; the loop goes on
            failed += 1
            traceback.print_exc()
            return
        print(f"run {attempted}: seed {input_seed}, {scaled:.3f} s scaled, "
              f"{result.seconds:.3f} s wall, kernel "
              f"{1e6 * speed.kernel_s():.1f} us"
              f"{' traced' if traced_run else ''}"
              f"{'' if measured else ' warm-up'}", file=sys.stderr)
        if not measured:
            return
        if traced_run:
            traced[input_seed].append(scaled)
            layers.append(layer_metrics(tracer.spans, tracer.counts,
                                        result.seconds))
        else:
            plain[input_seed].append(scaled)
            plain_wall.append(result.seconds)
            kernel_s.append(speed.kernel_s())
            steps.extend(timer.samples)

    def measured_inputs() -> list[int]:
        """Inputs with an untraced run, and in a traced invocation also a
        traced one."""
        return [s for s in inputs if plain[s] and (traced[s] or not trace)]

    attempt(inputs[0], traced_run=False, measured=False)   # warm-up
    start = time.perf_counter()
    for n in itertools.count():
        # Runs cycle through the inputs.  In a traced invocation each input
        # gets a traced and then an untraced run.
        traced_run = trace and n % 2 == 0
        input_seed = inputs[(n // (2 if trace else 1)) % len(inputs)]
        t0 = time.perf_counter()
        attempt(input_seed, traced_run, measured=True)
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        # Every input is measured untraced; traced, one pair is enough.
        done = measured_inputs()
        enough = len(done) == len(inputs) or (trace and bool(done))
        if enough and elapsed + last > seconds:
            break
        if not enough and failed >= 3:
            break     # runs keep failing; do not loop on
    if not enough:
        return {}, attempted, max(failed, 1)

    def per_input(runs: dict[int, list[float]]) -> float:
        """Mean over the measured inputs of each input's median run."""
        return statistics.fmean(statistics.median(runs[s]) for s in done)

    def quality(key: str) -> float:
        return statistics.fmean(references[s].quality.get(key, 0)
                                for s in done)

    run_s = per_input(plain)
    if not trace:
        metrics = {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "reid_map": quality("reid_map"),
            "reid_rank1": quality("reid_rank1"),
        }
        units = END_TO_END
    else:
        traced_run_s = per_input(traced)
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics.update({
            "trace.run_s": traced_run_s,
            "trace.untraced_run_s": run_s,
            "trace.overhead_s": traced_run_s - run_s,
            "trace.overhead_pct": 100.0 * (traced_run_s - run_s) / run_s,
            "host.wall_run_s": statistics.median(plain_wall),
            "host.kernel_us": 1e6 * statistics.median(kernel_s),
            "tracker.step_p50_ms":
                1e3 * statistics.median(steps) if steps else 0.0,
            "tracker.step_p95_ms": 1e3 * p95(steps) if steps else 0.0,
        })
        for name, key in _LAYER_QUALITY.items():
            metrics[name] = quality(key)
        units = PER_LAYER
    return ({name: _metric(metrics[name], unit)
             for name, (unit, _) in units.items()}, attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "prtrack" / "cli.py").is_file():
        print(f"perfbench: no prtrack sources under {SRC}", file=sys.stderr)
        return 2

    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    import prtrack.cli  # noqa: F401  (the program under test)
    if Path(prtrack.cli.__file__).resolve().parent != SRC / "prtrack":
        print(f"perfbench: prtrack imported from {prtrack.cli.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")

    print("environment " + json.dumps(environment(caps), sort_keys=True))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, attempted, failed = measure(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    sys.stdout.flush()
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
