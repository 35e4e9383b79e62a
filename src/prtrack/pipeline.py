"""End-to-end orchestration: scenario -> training -> embedding -> online
tracking -> tracklet merging -> team/role assignment -> evaluation.

Each stage is usable on its own; the CLI wires them to files.
:func:`detections` is the one mapping from a :class:`RunConfig` to the
run's :class:`~prtrack.simgen.DetectionTable`.  Its features, oracle,
model or parsed, travel as a :class:`~prtrack.motio.FeatureTable` keyed
like its rows.  :func:`track_frames` steps the tracker over its frames'
rows; ``finish()`` returns one :class:`~prtrack.tracker.TrackletTable`,
whose columns merging, clustering and :func:`team_accuracy` read; roles
and team labels are ``(T,)`` arrays aligned with its rows.
Re-id training and scoring read a :class:`~prtrack.simgen.ReidSamples`
table, the one :func:`~prtrack.simgen.reid_samples` builds from the
scenario here and ``prtrack generate`` writes for the ``train`` and
``eval-reid`` stages: training takes its training rows, and
:func:`evaluate_reid` embeds each retrieval side with one forward pass into
a :class:`~prtrack.reid_metrics.RetrievalTable`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import reference
from .config import RunConfig
from .core import Role
from .embedder import EmbedderModel, forward_batch, train
from .postproc import TooFewPlayers, assign_teams, merge_tracklets
from .reid_metrics import (EmptyGallery, RetrievalTable, evaluate_retrieval,
                           role_metrics)
from .simgen import (GALLERY, QUERY, TRAIN, DetectionTable, ReidSamples,
                     Scenario, detection_table, embed_detections, generate,
                     reid_samples)
from .solvers import DegenerateInput
from .track_metrics import evaluate_sequence
from .tracker import FrameInput, OnlineTracker, TrackletTable

__all__ = [
    "train_on_scenario",
    "detections",
    "track_frames",
    "evaluate_reid",
    "team_accuracy",
    "run_pipeline",
]


def train_on_scenario(cfg: RunConfig, samples: ReidSamples):
    """Train the embedding model on the training rows of a scenario's re-id
    samples.  Returns (model, loss history)."""
    return train(cfg.train, samples.batch(TRAIN))


def detections(cfg: RunConfig, scenario: Scenario, features: str):
    """The run's :class:`~prtrack.simgen.DetectionTable` and ground-truth
    MOT table: :func:`~prtrack.simgen.detection_table` under the run's
    detector noise and seed.  ``features`` is 'oracle' or 'none'."""
    return detection_table(scenario, cfg.detector_noise,
                           cfg.detector_noise_param, features, seed=cfg.seed)


def track_frames(table: DetectionTable, cfg: RunConfig) -> TrackletTable:
    """Online tracklets of the table's frames 1 to ``cfg.scenario.frames``."""
    tracker = OnlineTracker(cfg.tracker)
    for frame, dets in enumerate(table.by_frame(cfg.scenario.frames), 1):
        tracker.step(FrameInput(frame=frame, detections=dets))
    return tracker.finish()


def _embed_rows(model: EmbedderModel, samples: ReidSamples, subset: int
                ) -> tuple[RetrievalTable, np.ndarray]:
    """The retrieval table and role logits ``(R, 4)`` of the samples of
    ``subset``, from one forward pass."""
    batch = samples.batch(subset)
    features, visibility, role_logits = forward_batch(model, batch.cells)
    table = RetrievalTable(features, visibility, batch.identity, batch.team,
                           batch.role, samples.view[samples.rows(subset)])
    return table, role_logits


def evaluate_reid(model: EmbedderModel, samples: ReidSamples) -> dict:
    """Identity/team retrieval and role classification over the query and
    gallery rows of a scenario's re-id samples."""
    q_table, q_role_logits = _embed_rows(model, samples, QUERY)
    g_table, _ = _embed_rows(model, samples, GALLERY)
    reid_map, reid_r1 = evaluate_retrieval(q_table, g_table, "identity")
    team_map, team_r1 = evaluate_retrieval(q_table, g_table, "team")
    acc, prec = role_metrics(q_role_logits.argmax(axis=1), q_table.role)
    return {
        "reid_map": reid_map, "reid_rank1": reid_r1,
        "team_map": team_map, "team_rank1": team_r1,
        "role_accuracy": acc, "role_precision": prec,
    }


def team_accuracy(tracklets: TrackletTable, teams: np.ndarray) -> float:
    """Clustering accuracy of the ``(T,)`` labels ``teams`` (-1 for none, as
    :func:`~prtrack.postproc.assign_teams` returns them) against the
    majority ground-truth team per tracklet, maximized over the two label
    permutations; NaN when no labeled tracklet has a ground truth."""
    gt = tracklets.detections.gt_team
    votes = np.zeros((len(tracklets), gt.max(initial=0) + 1), dtype=int)
    np.add.at(votes, (tracklets.owner()[gt >= 0], gt[gt >= 0]), 1)
    common = votes.any(axis=1) & (teams >= 0)
    if not common.any():
        return float("nan")
    pred = teams[common]
    gt = votes[common].argmax(axis=1)
    return float(max((pred == gt).mean(), (1 - pred == gt).mean()))


def _check_gallery(samples: ReidSamples) -> None:
    """Raise :class:`~prtrack.reid_metrics.EmptyGallery` when the gallery
    holds no player, which team retrieval needs: before training, not
    after tracking."""
    gallery = samples.rows(GALLERY)
    if not (samples.role[gallery] == int(Role.PLAYER)).any():
        raise EmptyGallery(
            f"gallery is empty: no player is held out of training, whose "
            f"batches need 4+4 player ids; scenario.n_players_per_team is "
            f"{samples.config.n_players_per_team} and must be at least 5")


def run_pipeline(cfg: RunConfig):
    """Full chain on one seed; returns (report, artifacts) where report is
    the report dictionary and artifacts holds the model, tracklets, and MOT
    tables (ground truth, raw, merged) for file output."""
    scenario = generate(cfg.scenario, cfg.sampling_stride)
    samples = reid_samples(scenario, cfg.sampling_stride)
    _check_gallery(samples)
    model, history = train_on_scenario(cfg, samples)
    table, gt_mot = detections(cfg, scenario, "none")
    table = dataclasses.replace(
        table, features=embed_detections(model, scenario, table))
    tracklets = track_frames(table, cfg)
    merged, _ = merge_tracklets(tracklets, cfg.merge)
    merged_mot = merged.mot_rows()
    track_report = evaluate_sequence(gt_mot, merged_mot)

    reid_report = evaluate_reid(model, samples)
    try:
        teams = assign_teams(merged, seed=cfg.seed)
    except (TooFewPlayers, DegenerateInput):
        teams = np.full(len(merged), -1)
    cluster_acc = team_accuracy(merged, teams)

    report = {
        "seed": cfg.seed,
        "training": {"initial_loss": history[0], "final_loss": history[-1]},
        "reid": reid_report,
        "team_cluster_accuracy": cluster_acc,
        "tracking": {
            **dataclasses.asdict(track_report),
            "tracklets_before_merge": len(tracklets),
            "tracklets_after_merge": len(merged),
        },
        "reference": {
            "label": reference.REFERENCE_LABEL,
            "reid": reference.REID_REFERENCE,
            "tracking_gt": reference.TRACKING_REFERENCE_GT,
            "tracking_det": reference.TRACKING_REFERENCE_DET,
            "team_cluster": reference.TEAM_CLUSTER_REFERENCE,
        },
    }
    artifacts = {
        "model": model,
        "tracklets": tracklets,
        "merged": merged,
        "gt_mot": gt_mot,
        "raw_mot": tracklets.mot_rows(),
        "merged_mot": merged_mot,
    }
    return report, artifacts
