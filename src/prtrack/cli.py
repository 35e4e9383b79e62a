"""Command-line surface tying the pipeline together.

Subcommands: generate | train | embed | track | merge | cluster |
eval-reid | eval-track | pipeline | report.  Runs operate on a directory
holding the scenario manifest and derived files.  Exit codes: 0 success,
1 usage error, 2 data error: a malformed file or config value, or input a
stage cannot work with.  Any other exception is a bug and propagates.
``--seed`` (or env PRT_SEED) propagates to every stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import sys
from pathlib import Path

import yaml

from .config import (ConfigTypeError, RangeError, RunConfig, UnknownKeyError,
                     config_to_dict, load_config, load_yaml)
from .embedder import DimMismatch, InsufficientIdentities
from .motio import (FeatureRecord, MotRecord, ParseError, _feature_rows,
                    load_model, parse_mot, save_model, tracklets_to_records,
                    write_features, write_mot)
from .pipeline import (_tracking_input, embed_detections, evaluate_reid,
                       run_pipeline, team_accuracy, track_frames,
                       train_on_scenario)
from .postproc import TooFewPlayers, assign_roles, assign_teams, \
    merge_tracklets
from .reid_metrics import EmptyGallery
from .solvers import DegenerateInput
from .simgen import generate, to_reid_dataset
from .track_metrics import EmptyGroundTruth, evaluate_sequence
from . import reference

_TRACK_COLUMNS = ("hota", "deta", "assa", "mota", "idf1", "id_switches")

# Exceptions that mean bad input, reported with exit code 2.
_DATA_ERRORS = (ParseError, FileNotFoundError, IsADirectoryError,
                UnknownKeyError, RangeError, ConfigTypeError,
                InsufficientIdentities, DimMismatch, EmptyGallery,
                TooFewPlayers, DegenerateInput, EmptyGroundTruth)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_seed(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PRT_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigTypeError(
            f"PRT_SEED must be an integer, got {env!r}") from None


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


def _write_features(frame_inputs, path: Path) -> int:
    """Write each detection's features keyed by its frame and its index in
    the frame; returns the number of rows."""
    records = [FeatureRecord(d.frame, j, d.features, d.role_logits)
               for dets in frame_inputs for j, d in enumerate(dets)]
    write_features(records, path)
    return len(records)


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    frame_inputs, gt_mot = _tracking_input(
        cfg, generate(cfg.scenario), features="oracle")
    write_mot(gt_mot, run_dir / "gt.txt")
    write_mot([MotRecord(d.frame, -1, d.box.x, d.box.y, d.box.w, d.box.h,
                         d.confidence)
               for dets in frame_inputs for d in dets], run_dir / "det.txt")
    _write_features(frame_inputs, run_dir / "features.txt")
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
    frame_inputs, _ = _tracking_input(cfg, scenario)
    embed_detections(model, scenario, frame_inputs)
    n = _write_features(frame_inputs, run_dir / "features.txt")
    print(f"embedded {n} detections with model features")
    return 0


def _load_frame_inputs(run_dir: Path, cfg: RunConfig):
    """Rebuild tracker inputs from the scenario's detections and
    ``features.txt``, whose rows pair one to one, in file order, with the
    detections.  A missing, extra or misplaced row, or a row shaped unlike
    the first, raises :class:`ParseError` naming the file and line."""
    frame_inputs, _ = _tracking_input(cfg, generate(cfg.scenario))
    path = run_dir / "features.txt"
    rows = _feature_rows(path)
    dets = [(j, d) for frame in frame_inputs for j, d in enumerate(frame)]
    for (line, rec), (j, d) in zip(rows, dets):
        if (rec.frame, rec.det_index) != (d.frame, j):
            raise ParseError(f"expected features of frame {d.frame} det {j}, "
                             f"got frame {rec.frame} det {rec.det_index}",
                             line, path)
        if rec.features.parts.shape != rows[0][1].features.parts.shape:
            raise ParseError("parts shaped unlike the first row's", line,
                             path)
        d.features, d.role_logits = rec.features, rec.role_logits
    if len(rows) > len(dets):
        line, rec = rows[len(dets)]
        raise ParseError(f"extra features row of frame {rec.frame} "
                         f"det {rec.det_index}", line, path)
    if len(rows) < len(dets):
        j, d = dets[len(rows)]
        raise ParseError(f"missing features of frame {d.frame} det {j}",
                         rows[-1][0] + 1 if rows else 1, path)
    return frame_inputs


def cmd_track(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    frame_inputs = _load_frame_inputs(run_dir, cfg)
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
    acc = team_accuracy(tracklets, teams)
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
    row = dataclasses.asdict(evaluate_sequence(parse_mot(args.gt),
                                               parse_mot(args.pred)))
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
        data = load_yaml(path)
        tracking = data.get("tracking") if isinstance(data, dict) else None
        if not isinstance(tracking, dict):
            raise ParseError("no tracking mapping", path=path)
        row = {k: tracking.get(k) for k in _TRACK_COLUMNS}
        for k, v in row.items():
            if type(v) not in (int, float):     # a bool is not a number
                raise ParseError(f"tracking.{k} is not a number: {v!r}",
                                 path=path)
        rows[Path(run).name] = row
    if len(rows) == 2:
        a, b = rows.values()
        rows["delta"] = {k: b[k] - a[k] for k in _TRACK_COLUMNS}
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
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
