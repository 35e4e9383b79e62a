"""The benchmark's workloads: prtrack CLI command sequences on run configs.

Every workload runs through ``prtrack.cli.main`` in process, as a user's
``prtrack ...`` commands would.  Sizes are cut from the 750-frame default so
that one run takes about five seconds on two cores and several runs fit in
one measured window; ``reid_map`` needs more than 125 frames (one view
chunk) to have positives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

# Six players a team keeps four training identities per team, as
# embedder.sample_batch needs, and two held out per team for retrieval.
_TRACK_SCENARIO = {"frames": 200, "n_players_per_team": 6}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict          # RunConfig document, passed with --config
    tracking: bool        # `prtrack pipeline`, else generate/train/eval-reid
    # Scenarios a measured window cycles through; run_s is the mean of their
    # median runs.  More than one where the work varies with the seed.
    inputs: int = 1

    def seeds(self, seed: int) -> list[int]:
        """The scenario seeds of benchmark seed ``seed``."""
        return [seed * self.inputs + i for i in range(self.inputs)]

    def commands(self, config_path: Path, run_dir: Path,
                 seed: int) -> list[list[str]]:
        if self.tracking:
            return [["pipeline", "--config", str(config_path),
                     "--seed", str(seed), "--out", str(run_dir)]]
        return [["generate", "--config", str(config_path),
                 "--seed", str(seed), "--out", str(run_dir)],
                ["train", "--run", str(run_dir)],
                ["eval-reid", "--run", str(run_dir)]]

    def digested_files(self) -> tuple[str, ...]:
        if self.tracking:
            return ("report.yaml", "track_merged.txt")
        return ("reid_report.yaml", "model.txt")

    def quality(self, run_dir: Path) -> dict[str, float]:
        """The run's quality figures, read from its report file."""
        if self.tracking:
            with open(run_dir / "report.yaml") as fh:
                report = yaml.safe_load(fh)
            t = report["tracking"]
            return {**report["reid"],
                    "hota": t["hota"], "idf1": t["idf1"], "mota": t["mota"],
                    "id_switches": t["id_switches"],
                    "team_cluster_accuracy": report["team_cluster_accuracy"]}
        with open(run_dir / "reid_report.yaml") as fh:
            return yaml.safe_load(fh)


WORKLOADS = {w.name: w for w in (
    Workload(
        "track_clean",
        "default pipeline on clean input: HOTA-bound, merging does nothing",
        {"scenario": dict(_TRACK_SCENARIO)}, True),
    Workload(
        "track_occluded",
        "occlusion and 8 px box jitter: tracker gating, lost and respawned "
        "tracks, merge rounds, HOTA on imperfect boxes",
        {"scenario": {**_TRACK_SCENARIO, "occlusion_rate": 0.3},
         "detector_noise": "jitter", "detector_noise_param": 8.0}, True),
    Workload(
        "reid_train",
        "generate, train, eval-reid: training and retrieval, no tracking",
        {"scenario": {"frames": 250, "occlusion_rate": 0.3},
         "sampling_stride": 5, "train": {"epochs": 60}}, False, inputs=3),
)}

# Quality figures that must lie in [0, 1]; MOTA is only bounded above.
UNIT_RANGE = ("reid_map", "reid_rank1", "role_accuracy", "hota", "idf1",
              "team_cluster_accuracy")


@dataclass
class RunResult:
    seconds: float
    digest: str
    quality: dict[str, float]


class RunFailed(Exception):
    pass


def run_once(workload: Workload, config_path: Path, run_dir: Path,
             seed: int) -> RunResult:
    """One workload run from an empty run directory; raises RunFailed when
    a command exits non-zero or a quality figure is out of range."""
    from prtrack import cli

    shutil.rmtree(run_dir, ignore_errors=True)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        for argv in workload.commands(config_path, run_dir, seed):
            code = cli.main(argv)
            if code != 0:
                raise RunFailed(f"prtrack {argv[0]} exited {code}")
    seconds = time.perf_counter() - start

    quality = workload.quality(run_dir)
    for key, value in quality.items():
        if not math.isfinite(value):
            raise RunFailed(f"{key} is not finite: {value}")
        if key in UNIT_RANGE and not 0.0 <= value <= 1.0:
            raise RunFailed(f"{key} outside [0, 1]: {value}")
    if quality.get("mota", 0.0) > 1.0 or quality.get("id_switches", 0) < 0:
        raise RunFailed(f"tracking figures out of range: {quality}")
    digest = hashlib.sha256()
    for name in workload.digested_files():
        digest.update(name.encode())
        digest.update((run_dir / name).read_bytes())
    return RunResult(seconds, digest.hexdigest(), quality)
