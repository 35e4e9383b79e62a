"""Command-line surface tying the pipeline together.

Subcommands: generate | train | embed | track | merge | cluster |
eval-reid | eval-track | pipeline | report.  Runs operate on a directory
holding the scenario manifest and derived files.  Exit codes: 0 success,
1 usage error, 2 data error.  ``--seed`` (or env PRT_SEED) propagates to
every stage.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from pathlib import Path

import yaml

from .config import (RangeError, RunConfig, UnknownKeyError, config_to_dict,
                     load_config)
from .motio import (FeatureRecord, MotRecord, ParseError, load_model,
                    parse_features, parse_mot, save_model, write_features,
                    write_mot)
from .pipeline import (embed_detections, evaluate_reid, gt_to_records,
                       records_to_result, run_pipeline, team_accuracy,
                       track_frames, tracklets_to_records, train_on_scenario)
from .postproc import TooFewPlayers, assign_roles, assign_teams, \
    merge_tracklets
from .solvers import DegenerateInput
from .simgen import generate, to_reid_dataset, to_tracking_input
from .track_metrics import EmptyGroundTruth, evaluate_sequence
from . import reference

_TRACK_COLUMNS = ("hota", "deta", "assa", "mota", "idf1", "id_switches")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_seed(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PRT_SEED")
    return int(env) if env else None


def _load_run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = RunConfig()
    seed = _resolve_seed(args)
    if seed is not None:
        cfg = cfg.reseeded(seed)
    return cfg


def _manifest_path(run_dir: Path) -> Path:
    return run_dir / "manifest.yaml"


def _load_manifest(run_dir: Path) -> RunConfig:
    path = _manifest_path(run_dir)
    if not path.exists():
        raise FileNotFoundError(f"no manifest in {run_dir}; run generate first")
    return load_config(path)


def _dump_yaml(data, path: Path):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True, default_flow_style=False)


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    scenario = generate(cfg.scenario)
    frame_inputs, gt_records = to_tracking_input(
        scenario, detector_noise=cfg.detector_noise,
        noise_param=cfg.detector_noise_param, features="oracle",
        seed=cfg.seed)
    write_mot(gt_to_records(gt_records), run_dir / "gt.txt")
    det_records, feat_records = [], []
    for dets in frame_inputs:
        for j, d in enumerate(dets):
            det_records.append(MotRecord(
                frame=d.frame, id=-1, bb_left=d.box.x, bb_top=d.box.y,
                bb_width=d.box.w, bb_height=d.box.h, conf=d.confidence))
            feat_records.append(FeatureRecord(d.frame, j, d.features,
                                              d.role_logits))
    write_mot(det_records, run_dir / "det.txt")
    write_features(feat_records, run_dir / "features.txt")
    _dump_yaml(config_to_dict(cfg), _manifest_path(run_dir))
    print(f"wrote scenario bundle to {run_dir}")
    return 0


def cmd_train(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    scenario = generate(cfg.scenario)
    model, history, _ = train_on_scenario(cfg, scenario)
    save_model(model, run_dir / "model.txt")
    print(f"trained {cfg.train.epochs} epochs; "
          f"loss {history[0]:.4f} -> {history[-1]:.4f}")
    return 0


def cmd_embed(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    model = load_model(run_dir / "model.txt")
    scenario = generate(cfg.scenario)
    frame_inputs, _ = to_tracking_input(
        scenario, detector_noise=cfg.detector_noise,
        noise_param=cfg.detector_noise_param, features="none", seed=cfg.seed)
    embed_detections(model, scenario, frame_inputs)
    feat_records = []
    for dets in frame_inputs:
        for j, d in enumerate(dets):
            feat_records.append(FeatureRecord(d.frame, j, d.features,
                                              d.role_logits))
    write_features(feat_records, run_dir / "features.txt")
    print(f"embedded {len(feat_records)} detections with model features")
    return 0


def _load_frame_inputs(run_dir: Path, cfg: RunConfig):
    """Rebuild tracker inputs from the detection and feature files."""
    scenario = generate(cfg.scenario)
    frame_inputs, gt_records = to_tracking_input(
        scenario, detector_noise=cfg.detector_noise,
        noise_param=cfg.detector_noise_param, features="none", seed=cfg.seed)
    feats = parse_features(run_dir / "features.txt")
    by_frame: dict[int, list] = {}
    for fr in feats:
        by_frame.setdefault(fr.frame, []).append(fr)
    for dets in frame_inputs:
        for j, d in enumerate(dets):
            recs = by_frame.get(d.frame, [])
            rec = next((r for r in recs if r.det_index == j), None)
            if rec is None:
                raise ParseError(f"missing features for frame {d.frame} "
                                 f"det {j}", 0)
            d.features = rec.features
            d.role_logits = rec.role_logits
    return frame_inputs, gt_records


def cmd_track(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    frame_inputs, _ = _load_frame_inputs(run_dir, cfg)
    tracklets = track_frames(frame_inputs, cfg)
    write_mot(tracklets_to_records(tracklets), run_dir / "track_raw.txt")
    with open(run_dir / "tracklets.pkl", "wb") as fh:
        pickle.dump(tracklets, fh)
    print(f"online tracking produced {len(tracklets)} tracklets")
    return 0


def _load_tracklets(run_dir: Path, name: str = "tracklets.pkl"):
    with open(run_dir / name, "rb") as fh:
        return pickle.load(fh)


def cmd_merge(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    tracklets = _load_tracklets(run_dir)
    merged, id_map = merge_tracklets(tracklets, cfg.merge)
    write_mot(tracklets_to_records(merged), run_dir / "track_merged.txt")
    with open(run_dir / "tracklets_merged.pkl", "wb") as fh:
        pickle.dump(merged, fh)
    _dump_yaml({int(k): int(v) for k, v in id_map.items()},
               run_dir / "idmap.yaml")
    print(f"merged {len(tracklets)} -> {len(merged)} tracklets")
    return 0


def cmd_cluster(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    name = ("tracklets_merged.pkl"
            if (run_dir / "tracklets_merged.pkl").exists()
            else "tracklets.pkl")
    tracklets = _load_tracklets(run_dir, name)
    roles = assign_roles(tracklets)
    teams = assign_teams(tracklets, seed=cfg.seed, roles=roles)
    lines = []
    for t in sorted(tracklets, key=lambda t: t.id):
        team = teams.get(t.id, -1)
        lines.append(f"{t.id},{roles[t.id].name},{team}")
    (run_dir / "teams.txt").write_text("\n".join(lines) + "\n")
    acc = team_accuracy(tracklets, seed=cfg.seed)
    print(f"assigned teams to {len(teams)} player tracklets "
          f"(accuracy vs ground truth: {acc:.3f})")
    return 0


def cmd_eval_reid(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    model = load_model(run_dir / "model.txt")
    scenario = generate(cfg.scenario)
    _, queries, gallery = to_reid_dataset(
        scenario, sampling_stride=cfg.sampling_stride)
    report = evaluate_reid(model, queries, gallery)
    _dump_yaml(report, run_dir / "reid_report.yaml")
    for key, value in sorted(report.items()):
        print(f"{key}: {value:.4f}")
    return 0


def cmd_eval_track(args) -> int:
    gt = parse_mot(args.gt)
    pred = parse_mot(args.pred)
    result = records_to_result(gt, pred)
    report = evaluate_sequence(result)
    row = {"hota": report.hota, "deta": report.deta, "assa": report.assa,
           "mota": report.mota, "idf1": report.idf1,
           "id_switches": report.id_switches}
    print(_format_track_table({"result": row}))
    if args.out:
        _dump_yaml(row, Path(args.out))
    return 0


def _format_track_table(rows: dict[str, dict]) -> str:
    header = "name       " + "".join(f"{c:>12}" for c in _TRACK_COLUMNS)
    lines = [header]
    for name, row in rows.items():
        cells = []
        for c in _TRACK_COLUMNS:
            v = row[c]
            cells.append(f"{v:>12}" if isinstance(v, int)
                         else f"{v:>12.4f}")
        lines.append(f"{name:<11}" + "".join(cells))
    return "\n".join(lines)


def cmd_pipeline(args) -> int:
    cfg = _load_run_config(args)
    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    report, artifacts = run_pipeline(cfg)

    _dump_yaml(config_to_dict(cfg), _manifest_path(run_dir))
    _dump_yaml(report, run_dir / "report.yaml")
    save_model(artifacts["model"], run_dir / "model.txt")
    write_mot(artifacts["gt_mot"], run_dir / "gt.txt")
    write_mot(artifacts["raw_mot"], run_dir / "track_raw.txt")
    write_mot(artifacts["merged_mot"], run_dir / "track_merged.txt")

    lines = ["desk-scale results", "==================", ""]
    t = report["tracking"]
    lines.append(_format_track_table({"desk": {
        k: t[k] for k in _TRACK_COLUMNS}}))
    lines.append("")
    for key, value in sorted(report["reid"].items()):
        lines.append(f"{key}: {value:.4f}")
    lines.append(f"team_cluster_accuracy: "
                 f"{report['team_cluster_accuracy']:.4f}")
    lines.append("")
    lines.append(f"full-scale reference ({reference.REFERENCE_LABEL})")
    lines.append(_format_track_table({
        "ref w/ GT": reference.TRACKING_REFERENCE_GT,
        "ref w/o GT": reference.TRACKING_REFERENCE_DET,
    }))
    (run_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_report(args) -> int:
    rows = {}
    for run in args.compare:
        path = Path(run) / "report.yaml"
        with open(path) as fh:
            data = yaml.safe_load(fh)
        rows[Path(run).name] = {k: data["tracking"][k]
                                for k in _TRACK_COLUMNS}
    if len(rows) == 2:
        (a_name, a), (b_name, b) = rows.items()
        rows[f"delta"] = {
            k: (b[k] - a[k]) for k in _TRACK_COLUMNS}
    print(_format_track_table(rows))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="prtrack",
                     description="part-based tracking pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("generate", cmd_generate, help="write a synthetic scenario bundle")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, help="train the embedding model for a run")
    p.add_argument("--run", required=True)

    p = add("embed", cmd_embed, help="replace oracle features with model features")
    p.add_argument("--run", required=True)

    p = add("track", cmd_track, help="online tracking over a run's detections")
    p.add_argument("--run", required=True)

    p = add("merge", cmd_merge, help="offline tracklet merging")
    p.add_argument("--run", required=True)

    p = add("cluster", cmd_cluster, help="team assignment over tracklets")
    p.add_argument("--run", required=True)

    p = add("eval-reid", cmd_eval_reid, help="retrieval evaluation")
    p.add_argument("--run", required=True)

    p = add("eval-track", cmd_eval_track, help="tracking metrics for MOT files")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out")

    p = add("pipeline", cmd_pipeline, help="full chain, writes a report")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = add("report", cmd_report, help="compare run reports side by side")
    p.add_argument("--compare", nargs="+", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (ParseError, FileNotFoundError, UnknownKeyError, RangeError,
            TooFewPlayers, DegenerateInput, EmptyGroundTruth, TypeError,
            ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
