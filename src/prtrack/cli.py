"""Command-line surface tying the pipeline together.

Subcommands: generate | train | embed | track | merge | cluster |
eval-reid | eval-track | pipeline | report.  Runs operate on a directory
holding the scenario manifest and derived files.  ``generate`` writes the
re-id samples (``reid_samples.npz``), which ``train`` and ``eval-reid``
read instead of generating the scenario again; ``embed`` and ``track``
regenerate it.  Feature-grid cells are stored only in the re-id samples,
which ``generate`` and ``pipeline`` build; ``embed`` and ``pipeline``
rebuild each frame's cells as they embed that frame.  ``cluster`` and
``pipeline`` label teams by one policy, ``pipeline.cluster_teams``.
Exit codes: 0 success, 1 usage error, 2 data error: a
:class:`prtrack.core.DataError` (a malformed file or config value, or
input a stage cannot work with) or a missing or directory input path.
Config sections check their bounds when built, from YAML or Python;
errors name the fully qualified key.  Any other exception is a bug and
propagates.  ``--seed`` (or env PRT_SEED) propagates to every stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .config import (ConfigTypeError, RunConfig, config_to_dict, load_config,
                     load_yaml)
from .core import DataError, Role
from .motio import (FeatureTable, ParseError, load_arrays, load_model,
                    parse_features, parse_mot, row_lines, save_arrays,
                    save_model, write_features, write_mot)
from .pipeline import (_check_gallery, cluster_teams, detections,
                       evaluate_reid, run_pipeline, team_accuracy,
                       track_frames, train_on_scenario)
from .postproc import assign_roles, merge_tracklets
from .simgen import (DetectionTable, embed_detections, generate,
                     load_reid_samples, save_reid_samples)
from .track_metrics import evaluate_sequence
from .tracker import TrackletTable
from . import reference

_TRACK_COLUMNS = ("hota", "deta", "assa", "mota", "idf1", "id_switches")

# Exceptions that mean bad input, reported with exit code 2.
_DATA_ERRORS = (DataError, FileNotFoundError, IsADirectoryError)


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


def _samples_path(run_dir: Path) -> Path:
    return run_dir / "reid_samples.npz"


def _load_samples(run_dir: Path, cfg: RunConfig):
    """The run's re-id samples, as ``generate`` wrote them for the
    manifest's scenario and sampling stride."""
    return load_reid_samples(_samples_path(run_dir), cfg.scenario,
                             cfg.sampling_stride)


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    scenario, samples = generate(cfg.scenario, cfg.sampling_stride)
    # The pipeline's check, before anything is written: without a player
    # in the gallery, eval-reid would fail after training.
    _check_gallery(samples)
    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_reid_samples(samples, _samples_path(run_dir))
    # The detections read no cells: free the samples, which hold them,
    # before building the table.
    del samples
    table, gt_mot = detections(cfg, scenario, "oracle")
    write_mot(gt_mot, run_dir / "gt.txt")
    write_mot(table.mot_rows(), run_dir / "det.txt")
    write_features(table.features, run_dir / "features.txt")
    _dump_yaml(config_to_dict(cfg), _manifest_path(run_dir))
    print(f"wrote scenario bundle to {run_dir}")
    return 0


def cmd_train(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    model, history = train_on_scenario(cfg, _load_samples(run_dir, cfg))
    save_model(model, run_dir / "model.txt")
    print(f"trained {cfg.train.epochs} epochs; "
          f"loss {history[0]:.4f} -> {history[-1]:.4f}")
    return 0


def cmd_embed(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    model = load_model(run_dir / "model.txt")
    scenario, _ = generate(cfg.scenario)
    table, _ = detections(cfg, scenario, "none")
    features = embed_detections(model, scenario, table)
    write_features(features, run_dir / "features.txt")
    print(f"embedded {len(features.frame)} detections with model features")
    return 0


def _load_features(run_dir: Path, table: DetectionTable) -> FeatureTable:
    """The rows of ``features.txt``, which pair one to one, in file order,
    with the rows of ``table``, keyed by the table's int ``frame`` and
    ``det_index`` columns.  A malformed, missing, extra or misplaced row
    raises :class:`ParseError` naming the file and line."""
    path = run_dir / "features.txt"
    features = parse_features(path)
    n, m = len(features), len(table)
    k = min(n, m)
    wrong = np.flatnonzero((features.frame[:k] != table.frame[:k])
                           | (features.det_index[:k] != table.det_index[:k]))
    i = int(wrong[0]) if len(wrong) else k      # the first unpaired row
    if i == n == m:
        return dataclasses.replace(features, frame=table.frame,
                                   det_index=table.det_index)
    got, want = (f"frame {t.frame[i]} det {t.det_index[i]}" if i < len(t)
                 else None for t in (features, table))
    message = (f"expected features of {want}, got {got}" if got and want
               else f"extra features row of {got}" if got
               else f"missing features of {want}")
    # A missing row is reported on the line after the last row.
    lines = row_lines(path).tolist() or [0]
    raise ParseError(message, lines[i] if i < n else lines[-1] + 1, path)


def cmd_track(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    scenario, _ = generate(cfg.scenario)
    table, _ = detections(cfg, scenario, "none")
    table = dataclasses.replace(table,
                                features=_load_features(run_dir, table))
    tracklets = track_frames(table, cfg)
    write_mot(tracklets.mot_rows(), run_dir / "track_raw.txt")
    _save_tracklets(tracklets, run_dir / "tracklets.npz")
    print(f"online tracking produced {len(tracklets)} tracklets")
    return 0


# The arrays of a tracklets file and their dtype kind and shape: T
# tracklets with K parts of dimension D, and their N member rows.
_TRACKLET_ARRAYS = {
    "id": "i T", "count": "i T", "ema": "f T K+1 D",
    "ema_visibility": "i T K+1", "role_logit_sum": "f T 4",
    "frame": "i N", "det_index": "i N", "boxes": "f N 4",
    "gt_identity": "i N", "gt_team": "i N", "gt_role": "i N",
    "parts": "f N K D", "foreground": "f N D", "visibility": "i N K+1",
    "role_logits": "f N 4",
}


def _save_tracklets(tracklets: TrackletTable, path: Path) -> None:
    """The columns of ``tracklets``, EMA visibility as ``ema_visibility``,
    and the columns of their member rows, as an uncompressed ``.npz``; the
    members' embeddings go as ``foreground`` and ``parts``."""
    rows, f = tracklets.detections, tracklets.detections.features
    save_arrays(path, dict(
        id=tracklets.id, count=tracklets.count, ema=tracklets.ema,
        ema_visibility=tracklets.vis, role_logit_sum=tracklets.role_logit_sum,
        frame=rows.frame, det_index=rows.det_index, boxes=rows.boxes,
        gt_identity=rows.gt_identity, gt_team=rows.gt_team,
        gt_role=rows.gt_role, parts=f.embeddings[:, 1:],
        foreground=f.embeddings[:, 0],
        visibility=f.visibility, role_logits=f.role_logits))


def _tracklet_sizes(a: dict[str, np.ndarray]) -> dict[str, int]:
    """The dimensions of :data:`_TRACKLET_ARRAYS`, from the arrays of a
    tracklets file."""
    if a["parts"].ndim != 3:
        raise ValueError(f"parts has shape {a['parts'].shape}, expected "
                         "(N, K, D)")
    n, k, d = a["parts"].shape
    return {"T": a["id"].size, "N": n, "K": k, "K+1": k + 1, "D": d}


def _load_tracklets(path: Path) -> TrackletTable:
    """The tracklets of a file of :func:`_save_tracklets`.  A file that is
    no such archive, a missing or misshapen array, or an invalid value
    raises :class:`ParseError` naming the file."""
    a = load_arrays(path, _TRACKLET_ARRAYS, "tracklets", _tracklet_sizes)
    count, frame = a["count"], a["frame"]
    if (count < 1).any() or count.sum() != len(frame):
        raise ParseError(f"member counts do not split the {len(frame)} rows",
                         path=path)
    if len(np.unique(a["id"])) < len(count):
        raise ParseError("tracklet ids repeat", path=path)
    if (np.delete(np.diff(frame), np.cumsum(count)[:-1] - 1) <= 0).any():
        raise ParseError("a tracklet's frames do not increase", path=path)
    try:
        rows = DetectionTable(
            *(a[c] for c in ("frame", "det_index", "boxes", "gt_identity",
                             "gt_team", "gt_role")),
            FeatureTable(frame, a["det_index"], np.concatenate(
                [a["foreground"][:, None], a["parts"]], axis=1),
                a["visibility"], a["role_logits"]))
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
    if not np.isin(a["ema_visibility"], (0, 1)).all():
        raise ParseError("visibility entries must be 0 or 1", path=path)
    return TrackletTable(a["id"], count, a["ema"], a["ema_visibility"],
                         a["role_logit_sum"], rows)


def cmd_merge(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    tracklets = _load_tracklets(run_dir / "tracklets.npz")
    merged, survivor = merge_tracklets(tracklets, cfg.merge)
    write_mot(merged.mot_rows(), run_dir / "track_merged.txt")
    _save_tracklets(merged, run_dir / "tracklets_merged.npz")
    _dump_yaml(dict(zip(tracklets.id.tolist(), survivor.tolist())),
               run_dir / "idmap.yaml")
    print(f"merged {len(tracklets)} -> {len(merged)} tracklets")
    return 0


def cmd_cluster(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    path = run_dir / "tracklets_merged.npz"
    tracklets = _load_tracklets(path if path.exists()
                                else run_dir / "tracklets.npz")
    roles = assign_roles(tracklets)
    teams = cluster_teams(tracklets, cfg.seed, roles)
    order = np.argsort(tracklets.id)
    rows = zip(tracklets.id[order].tolist(), roles[order].tolist(),
               teams[order].tolist())
    (run_dir / "teams.txt").write_text("".join(
        f"{i},{Role(r).name},{t}\n" for i, r, t in rows))
    acc = team_accuracy(tracklets, teams)
    print(f"assigned teams to {np.count_nonzero(teams >= 0)} player "
          f"tracklets (accuracy vs ground truth: {acc:.3f})")
    return 0


def cmd_eval_reid(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_manifest(run_dir)
    model = load_model(run_dir / "model.txt")
    report = evaluate_reid(model, _load_samples(run_dir, cfg))
    _dump_yaml(report, run_dir / "reid_report.yaml")
    for key, value in sorted(report.items()):
        print(f"{key}: {value:.4f}")
    return 0


def cmd_eval_track(args) -> int:
    row = dataclasses.asdict(evaluate_sequence(parse_mot(args.gt),
                                               parse_mot(args.pred)))
    print(_format_track_table([("result", row)]))
    if args.out:
        _dump_yaml(row, Path(args.out))
    return 0


def _format_track_table(rows: list[tuple[str, dict]]) -> str:
    """One line per ``(name, row)`` pair, under a header; the name column
    is as wide as the longest name, and at least 11 characters."""
    width = max(11, *(len(name) for name, _ in rows))
    lines = [f"{'name':<{width}}"
             + "".join(f"{c:>12}" for c in _TRACK_COLUMNS)]
    for name, row in rows:
        cells = []
        for c in _TRACK_COLUMNS:
            v = row[c]
            cells.append(f"{v:>12}" if isinstance(v, int)
                         else f"{v:>12.4f}")
        lines.append(f"{name:<{width}}" + "".join(cells))
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
    lines.append(_format_track_table([("desk", {
        k: t[k] for k in _TRACK_COLUMNS})]))
    lines.append("")
    for key, value in sorted(report["reid"].items()):
        lines.append(f"{key}: {value:.4f}")
    lines.append(f"team_cluster_accuracy: "
                 f"{report['team_cluster_accuracy']:.4f}")
    lines.append("")
    lines.append(f"full-scale reference ({reference.REFERENCE_LABEL})")
    lines.append(_format_track_table([
        ("ref w/ GT", reference.TRACKING_REFERENCE_GT),
        ("ref w/o GT", reference.TRACKING_REFERENCE_DET),
    ]))
    (run_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_report(args) -> int:
    rows = []
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
        rows.append((run, row))
    if len(rows) == 2:
        (_, a), (_, b) = rows
        rows.append(("delta", {k: b[k] - a[k] for k in _TRACK_COLUMNS}))
    print(_format_track_table(rows))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="prtrack",
                     description="part-based tracking pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic scenario bundle")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the embedding model for a run")
    p.add_argument("--run", required=True)

    p = sub.add_parser("embed",
                       help="replace oracle features with model features")
    p.add_argument("--run", required=True)

    p = sub.add_parser("track", help="online tracking over a run's detections")
    p.add_argument("--run", required=True)

    p = sub.add_parser("merge", help="offline tracklet merging")
    p.add_argument("--run", required=True)

    p = sub.add_parser("cluster", help="team assignment over tracklets")
    p.add_argument("--run", required=True)

    p = sub.add_parser("eval-reid", help="retrieval evaluation")
    p.add_argument("--run", required=True)

    p = sub.add_parser("eval-track", help="tracking metrics for MOT files")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out")

    p = sub.add_parser("pipeline", help="full chain, writes a report")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="compare run reports side by side")
    p.add_argument("--compare", nargs="+", required=True)

    return parser


# The process's one parser: a parser built per call leaves its parsers,
# actions and formatters as cyclic garbage.  It is built on import, before
# any command allocates arrays.  Built during the first command instead, it
# was placed above that command's freed arrays in glibc's heap, and the
# peak RSS of the benchmark's generate, train, eval-reid loop rose from 71
# to 79 MB.
_PARSER = build_parser()


# glibc's mallopt parameter for the size from which blocks get maps of
# their own.
_M_MMAP_THRESHOLD = -3


def _pin_mmap_threshold() -> None:
    """Serve every heap block of 1 MiB or more from a memory map of its
    own, under glibc; elsewhere, do nothing.

    glibc raises its map threshold to the size of each freed map-backed
    block, so after the first multi-MB numpy arrays are freed, later ones
    of that size come from the heap, and freed heap stays resident beside
    the next scenario's arrays: ``reid_train``'s peak RSS read either
    about 71 or 75-80 MB on the same code.  A threshold set with mallopt
    stays where it is set.  ctypes is loaded by numpy already.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if not libc.startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 20)


def main(argv=None) -> int:
    _pin_mmap_threshold()
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # Looked up at call time, so that a replaced cmd_* function applies.
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(args)
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
