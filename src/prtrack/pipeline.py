"""End-to-end orchestration: scenario -> training -> embedding -> online
tracking -> tracklet merging -> team/role assignment -> evaluation.

Each stage is usable on its own; the CLI wires them to files.
:func:`detections` is the one mapping from a :class:`RunConfig` to the
run's :class:`~prtrack.simgen.DetectionTable`.  Its features, oracle,
model or parsed, travel as a :class:`~prtrack.motio.FeatureTable` keyed
like its rows.  :func:`track_frames` steps the tracker over its frames'
rows, and each tracklet of ``finish()`` holds its member rows as a table.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import reference
from .config import RunConfig
from .core import Role, Tracklet
from .embedder import EmbedderModel, GridSample, forward_batch, train
from .motio import tracklets_to_records
from .postproc import TooFewPlayers, assign_teams, merge_tracklets
from .reid_metrics import RetrievalItem, RetrievalSet, evaluate_retrieval, \
    role_metrics
from .simgen import (DetectionTable, Scenario, detection_table,
                     embed_detections, generate, to_reid_dataset)
from .solvers import DegenerateInput
from .track_metrics import evaluate_sequence
from .tracker import FrameInput, OnlineTracker

__all__ = [
    "train_on_scenario",
    "detections",
    "embed_samples",
    "track_frames",
    "evaluate_reid",
    "team_accuracy",
    "run_pipeline",
]


def train_on_scenario(cfg: RunConfig, scenario: Scenario):
    """Train the embedding model on the scenario's training identities."""
    train_set, queries, gallery = to_reid_dataset(
        scenario, sampling_stride=cfg.sampling_stride)
    model, history = train(cfg.train, train_set)
    return model, history, (train_set, queries, gallery)


def detections(cfg: RunConfig, scenario: Scenario, features: str):
    """The run's :class:`~prtrack.simgen.DetectionTable` and ground-truth
    records: :func:`~prtrack.simgen.detection_table` under the run's
    detector noise and seed.  ``features`` is 'oracle' or 'none'."""
    return detection_table(scenario, cfg.detector_noise,
                           cfg.detector_noise_param, features, seed=cfg.seed)


def embed_samples(model: EmbedderModel, samples: list[GridSample]
                  ) -> tuple[list[RetrievalItem], np.ndarray]:
    """Retrieval items and role logits ``(B, 4)`` of the samples, from one
    forward pass."""
    if not samples:
        return [], np.zeros((0, 4))
    feats, role_logits = forward_batch(model, [s.grid for s in samples])
    return [RetrievalItem(f, s.identity, s.team, s.role, s.view)
            for f, s in zip(feats, samples)], role_logits


def track_frames(table: DetectionTable, cfg: RunConfig) -> list[Tracklet]:
    """Online tracklets of the table's frames 1 to ``cfg.scenario.frames``."""
    tracker = OnlineTracker(cfg.tracker)
    for frame, dets in enumerate(table.by_frame(cfg.scenario.frames), 1):
        tracker.step(FrameInput(frame=frame, detections=dets))
    return tracker.finish()


def evaluate_reid(model: EmbedderModel, queries: list[GridSample],
                  gallery: list[GridSample]) -> dict:
    """Identity/team retrieval and role classification over a split."""
    q_items, q_role_logits = embed_samples(model, queries)
    g_items, _ = embed_samples(model, gallery)
    retrieval = RetrievalSet(q_items, g_items)
    reid_map, reid_r1 = evaluate_retrieval(retrieval, "identity")
    team_map, team_r1 = evaluate_retrieval(retrieval, "team")
    preds = [Role(int(np.argmax(rl))) for rl in q_role_logits]
    truths = [s.role for s in queries]
    acc, prec = role_metrics(preds, truths)
    return {
        "reid_map": reid_map, "reid_rank1": reid_r1,
        "team_map": team_map, "team_rank1": team_r1,
        "role_accuracy": acc, "role_precision": prec,
    }


def team_accuracy(tracklets: list[Tracklet], teams: dict[int, int]) -> float:
    """Clustering accuracy of the team labels ``teams`` (tracklet id ->
    label, as :func:`~prtrack.postproc.assign_teams` returns them) against
    the majority ground-truth team per tracklet, maximized over the two
    label permutations; NaN when no labeled tracklet has a ground truth."""
    truth = {}
    for t in tracklets:
        gt = t.detections.gt_team
        if t.id in teams and (gt >= 0).any():
            truth[t.id] = int(np.bincount(gt[gt >= 0]).argmax())
    common = [tid for tid in teams if tid in truth]
    if not common:
        return float("nan")
    pred = np.array([teams[t] for t in common])
    gt = np.array([truth[t] for t in common])
    direct = (pred == gt).mean()
    flipped = (1 - pred == gt).mean()
    return float(max(direct, flipped))


def run_pipeline(cfg: RunConfig):
    """Full chain on one seed; returns (report, artifacts) where report is
    the report dictionary and artifacts holds the model, tracklets, and MOT
    record lists for file output."""
    scenario = generate(cfg.scenario)
    model, history, (train_set, queries, gallery) = train_on_scenario(
        cfg, scenario)
    table, gt_mot = detections(cfg, scenario, "none")
    table = dataclasses.replace(
        table, features=embed_detections(model, scenario, table))
    tracklets = track_frames(table, cfg)
    merged, id_map = merge_tracklets(tracklets, cfg.merge)
    merged_mot = tracklets_to_records(merged)
    track_report = evaluate_sequence(gt_mot, merged_mot)

    reid_report = evaluate_reid(model, queries, gallery)
    try:
        teams = assign_teams(merged, seed=cfg.seed)
    except (TooFewPlayers, DegenerateInput):
        teams = {}
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
        "raw_mot": tracklets_to_records(tracklets),
        "merged_mot": merged_mot,
    }
    return report, artifacts
