import argparse
import gc
import importlib
import io
import os
import pkgutil
import shlex
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import yaml

import pytest

import prtrack.cli
import prtrack.pipeline
import prtrack.simgen
from prtrack.cli import build_parser, main
from prtrack.config import RangeError, config_from_dict, load_config
from prtrack.core import DataError
from prtrack.embedder import EmbedderModel
from prtrack.motio import ParseError, parse_features, parse_mot, save_model
from prtrack.pipeline import (detections, evaluate_reid, track_frames,
                              train_on_scenario)
from prtrack.postproc import merge_tracklets
from prtrack.simgen import (GALLERY, QUERY, TRAIN, generate,
                            load_reid_samples, reid_samples)
from prtrack.track_metrics import DuplicateId
from test_tracker import _bits


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One small scenario taken through every stage of the tool."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "seed": 1,
        "scenario": {"frames": 100, "n_players_per_team": 9},
        "train": {"epochs": 12},
    }
    cfg_path = root / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = root / "run"
    assert main(["generate", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    return out


def test_generate_outputs(run_dir):
    assert (run_dir / "manifest.yaml").exists()
    gt = parse_mot(run_dir / "gt.txt")
    det = parse_mot(run_dir / "det.txt")
    feats = parse_features(run_dir / "features.txt")
    assert len(gt) == len(det) == len(feats) == 100 * 23
    cfg = load_config(run_dir / "manifest.yaml")
    assert cfg.seed == 1
    assert cfg.scenario.frames == 100


def test_train_embed_track_merge_cluster_eval(run_dir, capsys):
    assert main(["train", "--run", str(run_dir)]) == 0
    assert (run_dir / "model.txt").exists()
    assert main(["embed", "--run", str(run_dir)]) == 0
    assert main(["track", "--run", str(run_dir)]) == 0
    raw = parse_mot(run_dir / "track_raw.txt")
    assert raw
    assert main(["merge", "--run", str(run_dir)]) == 0
    assert (run_dir / "track_merged.txt").exists()
    assert (run_dir / "idmap.yaml").exists()
    assert main(["cluster", "--run", str(run_dir)]) == 0
    teams = (run_dir / "teams.txt").read_text().strip().splitlines()
    assert teams
    assert main(["eval-reid", "--run", str(run_dir)]) == 0
    report = yaml.safe_load((run_dir / "reid_report.yaml").read_text())
    assert set(report) >= {"reid_map", "team_map", "role_accuracy"}
    capsys.readouterr()
    assert main(["eval-track", "--gt", str(run_dir / "gt.txt"),
                 "--pred", str(run_dir / "track_merged.txt"),
                 "--out", str(run_dir / "track_report.yaml")]) == 0
    out = capsys.readouterr().out
    assert "hota" in out
    track_report = yaml.safe_load((run_dir / "track_report.yaml").read_text())
    assert 0.0 <= track_report["hota"] <= 1.0


def test_staged_chain_writes_pipeline_bytes(tmp_path, capsys):
    """The stage commands write the files that pipeline writes, on occluded
    input with 8 px box jitter, where track reads the features at 9
    significant digits and pipeline keeps them at full precision; cluster
    prints the team accuracy that pipeline reports.  With the normalized
    EMA, seed 1 merges 32 tracklets into 25, so merged tracklets cross the
    stage files."""
    config = {"scenario": {"frames": 200, "n_players_per_team": 6,
                           "occlusion_rate": 0.3},
              "detector_noise": "jitter", "detector_noise_param": 8.0}
    for name, tracker in (("literal", {}),
                          ("normalized", {"normalized_ema": True})):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump({**config, "tracker": tracker}))
        staged, full = tmp_path / f"{name}_staged", tmp_path / f"{name}_full"
        assert main(["generate", "--config", str(cfg), "--seed", "1",
                     "--out", str(staged)]) == 0
        for command in ("train", "embed", "track", "merge", "cluster"):
            assert main([command, "--run", str(staged)]) == 0
        accuracy = capsys.readouterr().out.rsplit("ground truth: ", 1)[1]
        assert main(["pipeline", "--config", str(cfg), "--seed", "1",
                     "--out", str(full)]) == 0
        for f in ("gt.txt", "model.txt", "track_raw.txt",
                  "track_merged.txt"):
            assert (staged / f).read_bytes() == (full / f).read_bytes(), \
                (name, f)
        report = yaml.safe_load((full / "report.yaml").read_text())
        assert accuracy == f"{report['team_cluster_accuracy']:.3f})\n"


@pytest.fixture(scope="module")
def tracked_run(tmp_path_factory):
    """A small run taken through generate and track, on oracle features."""
    root = tmp_path_factory.mktemp("tracked")
    cfg = root / "run.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": {"frames": 40,
                                                "n_players_per_team": 5}}))
    run = root / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["track", "--run", str(run)]) == 0
    return run


def _rewritten(path, **changes):
    """The arrays of the tracklets file ``path`` with ``changes``; a change
    to None drops its array."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(changes)
    return {name: a for name, a in arrays.items() if a is not None}


def test_corrupt_tracklets_files_exit_2(tracked_run, tmp_path, capsys):
    good = tracked_run / "tracklets.npz"
    data = good.read_bytes()
    arrays = _rewritten(good)
    frame = arrays["frame"].copy()
    frame[1] = frame[0]
    vis = arrays["visibility"].copy()
    vis[0, 0] = 2
    npy = io.BytesIO()
    np.save(npy, arrays["id"])
    corruptions = {
        "garbage": (b"not an archive at all", "not a tracklets archive"),
        "single array": (npy.getvalue(), "a single array, not an archive"),
        "truncated": (data[:len(data) // 2], "not a tracklets archive"),
        "missing key": (_rewritten(good, ema=None), "missing arrays ['ema']"),
        "object array": (_rewritten(good, id=arrays["id"].astype(object)),
                         "Object arrays cannot be loaded"),
        "wrong shape": (_rewritten(good, boxes=arrays["boxes"][:, :3]),
                        "boxes has shape"),
        "repeated frame": (_rewritten(good, frame=frame),
                           "frames do not increase"),
        "visibility bit": (_rewritten(good, visibility=vis),
                           "visibility entries must be 0 or 1"),
    }
    for name, command in (("tracklets.npz", "merge"),
                          ("tracklets_merged.npz", "cluster")):
        run = tmp_path / command
        run.mkdir()
        (run / "manifest.yaml").write_bytes(
            (tracked_run / "manifest.yaml").read_bytes())
        path = run / name
        for case, (content, message) in corruptions.items():
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                np.savez(path, **content)
            assert main([command, "--run", str(run)]) == 2, (name, case)
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {path}: "), (name, case)
            assert message in err, (name, case)


def test_tracklets_file_round_trip(tmp_path):
    """Loading a tracklets file gives back the table that was saved, bit
    for bit in every column and member row, before and after a merge; the
    archive holds each array under its name, dtype and shape."""
    cfg = config_from_dict({
        "scenario": {"frames": 150, "n_players_per_team": 6,
                     "occlusion_rate": 0.3},
        "detector_noise": "jitter", "detector_noise_param": 8.0,
        "tracker": {"normalized_ema": True}})
    table, _ = detections(cfg, generate(cfg.scenario), "oracle")
    raw = track_frames(table, cfg)
    merged, _ = merge_tracklets(raw, cfg.merge)
    assert 0 < len(merged) < len(raw)
    for tracklets in (raw, merged):
        path = tmp_path / "tracklets.npz"
        prtrack.cli._save_tracklets(tracklets, path)
        t, n = len(tracklets), len(tracklets.detections)
        k, d = tracklets.detections.features.parts.shape[1:]
        with np.load(path, allow_pickle=False) as npz:
            layout = [(x, str(npz[x].dtype), npz[x].shape)
                      for x in npz.files]
        i, f = "int64", "float64"
        assert layout == [
            ("id", i, (t,)), ("count", i, (t,)), ("ema", f, (t, k + 1, d)),
            ("ema_visibility", i, (t, k + 1)), ("role_logit_sum", f, (t, 4)),
            ("frame", i, (n,)), ("det_index", i, (n,)), ("boxes", f, (n, 4)),
            ("gt_identity", i, (n,)), ("gt_team", i, (n,)),
            ("gt_role", i, (n,)), ("parts", f, (n, k, d)),
            ("foreground", f, (n, d)), ("visibility", i, (n, k + 1)),
            ("role_logits", f, (n, 4))]
        got = prtrack.cli._load_tracklets(path)
        for name in ("id", "count", "ema", "vis", "role_logit_sum"):
            assert _bits(getattr(got, name)) == _bits(getattr(tracklets, name))
        for a, b in ((got.detections, tracklets.detections),
                     (got.detections.features, tracklets.detections.features)):
            for name in vars(b):
                if name != "features":
                    assert _bits(getattr(a, name)) == _bits(getattr(b, name))


def test_run_without_tracklets(tmp_path, capsys):
    """Two frames are too few to confirm a track: track and merge write
    empty files, and cluster finds no players to split into teams."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario: {frames: 2}\n")
    run = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    for command in ("track", "merge"):
        assert main([command, "--run", str(run)]) == 0
    assert (run / "track_raw.txt").read_bytes() == b""
    assert (run / "track_merged.txt").read_bytes() == b""
    capsys.readouterr()
    assert main(["cluster", "--run", str(run)]) == 2
    assert "got 0 player tracklets" in capsys.readouterr().err


def test_pipeline_without_tracklets(tmp_path):
    """Where cluster exits 2 for want of tracklets, pipeline labels no
    team and reports the team accuracy as NaN."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario: {frames: 2}\n")
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    report = (run / "report.yaml").read_text()
    assert "team_cluster_accuracy: .nan\n" in report
    tracking = yaml.safe_load(report)["tracking"]
    assert tracking["tracklets_before_merge"] == 0
    assert tracking["tracklets_after_merge"] == 0


def _samples_run(run_dir, path):
    """A run directory at ``path`` with the manifest and the re-id samples
    file of ``run_dir``, and a model for eval-reid."""
    path.mkdir()
    for name in ("manifest.yaml", "reid_samples.npz"):
        (path / name).write_bytes((run_dir / name).read_bytes())
    model = EmbedderModel.init(channels=16, num_parts=5, dim=8, n_ids=4,
                               seed=0)
    save_model(model, path / "model.txt")
    return path


def test_samples_file_equals_pipeline_samples(run_dir):
    """generate writes the re-id samples that pipeline builds in memory,
    bit for bit."""
    cfg = load_config(run_dir / "manifest.yaml")
    got = load_reid_samples(run_dir / "reid_samples.npz", cfg.scenario,
                            cfg.sampling_stride)
    want = reid_samples(generate(cfg.scenario), cfg.sampling_stride)
    assert (got.config, got.sampling_stride) == (want.config,
                                                 want.sampling_stride)
    pairs = [(got.cells[got.cell_row], want.cells[want.cell_row])]
    pairs += [(getattr(got, name), getattr(want, name))
              for name in ("part_labels", "identity", "team", "role", "view",
                           "subset")]
    for a, b in pairs:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())
    assert set(got.subset.tolist()) == {TRAIN, QUERY, GALLERY}


@pytest.mark.filterwarnings("ignore:query .* has no positives")
def test_train_and_eval_reid_do_not_generate(run_dir, tmp_path, monkeypatch):
    """train and eval-reid read the samples file: with generate raising,
    they write the model and the report of the in-memory samples."""
    run = _samples_run(run_dir, tmp_path / "run")

    def no_generate(config):
        raise AssertionError("generate called")

    with monkeypatch.context() as patch:
        for module in (prtrack.cli, prtrack.pipeline, prtrack.simgen):
            patch.setattr(module, "generate", no_generate)
        assert main(["train", "--run", str(run)]) == 0
        assert main(["eval-reid", "--run", str(run)]) == 0
    cfg = load_config(run / "manifest.yaml")
    samples = reid_samples(generate(cfg.scenario), cfg.sampling_stride)
    model, _ = train_on_scenario(cfg, samples)
    save_model(model, tmp_path / "want.txt")
    assert (run / "model.txt").read_bytes() == \
        (tmp_path / "want.txt").read_bytes()
    report = yaml.safe_load((run / "reid_report.yaml").read_text())
    want = evaluate_reid(model, samples)     # NaN figures: compare reprs
    assert repr(sorted(report.items())) == repr(sorted(want.items()))


def _rewritten_samples(path, **changes):
    """The arrays of the re-id samples file ``path`` with ``changes``; a
    change to None drops its array."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(changes)
    return {name: a for name, a in arrays.items() if a is not None}


def test_corrupt_samples_files_exit_2(run_dir, tmp_path, capsys):
    good = run_dir / "reid_samples.npz"
    data = good.read_bytes()
    a = _rewritten_samples(good)

    def changed(name, index, value):
        array = a[name].copy()
        array[index] = value
        return _rewritten_samples(good, **{name: array})

    corruptions = {
        "garbage": (b"not an archive at all", "not a re-id samples archive"),
        "truncated": (data[:len(data) // 2], "not a re-id samples archive"),
        "missing array": (_rewritten_samples(good, subset=None),
                          "missing arrays ['subset']"),
        "wrong shape": (_rewritten_samples(good, cells=a["cells"][:, :3]),
                        "cells has shape"),
        "object array": (_rewritten_samples(
            good, identity=a["identity"].astype(object)),
            "Object arrays cannot be loaded"),
        "non-finite cell": (changed("cells", (0, 0, 0, 0), np.nan),
                            "cells has a non-finite value"),
        "part label": (changed("part_labels", (0, 0, 0), 6),
                       "part_labels has a value out of range"),
        "team": (changed("team", 0, 2), "team has a value out of range"),
        "role": (changed("role", 0, 4), "role has a value out of range"),
        "subset value": (changed("subset", 0, 3),
                         "subset has a value out of range"),
        "subset order": (_rewritten_samples(good, subset=a["subset"][::-1]),
                         "subsets are not in the order"),
    }
    for command in ("train", "eval-reid"):
        run = _samples_run(run_dir, tmp_path / command)
        path = run / "reid_samples.npz"
        for case, (content, message) in corruptions.items():
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                np.savez(path, **content)
            assert main([command, "--run", str(run)]) == 2, (command, case)
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {path}: "), (command, case)
            assert message in err, (command, case)


@pytest.mark.parametrize("edit", ["stride", "scenario", "missing file"])
def test_samples_of_another_run_exit_2(run_dir, tmp_path, capsys, edit):
    """A manifest edited after generate, or a run without a samples file,
    asks for generate to run again."""
    run = _samples_run(run_dir, tmp_path / "run")
    manifest = yaml.safe_load((run / "manifest.yaml").read_text())
    if edit == "stride":
        manifest["sampling_stride"] += 1
    elif edit == "scenario":
        manifest["scenario"]["feature_noise_sigma"] = 0.5
    else:
        (run / "reid_samples.npz").unlink()
    (run / "manifest.yaml").write_text(yaml.safe_dump(manifest))
    for command in ("train", "eval-reid"):
        assert main([command, "--run", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {run / 'reid_samples.npz'}: ")
        assert "run generate again" in err


def test_loaded_features_keep_the_tables_int_keys(run_dir):
    cfg = load_config(run_dir / "manifest.yaml")
    table, _ = detections(cfg, generate(cfg.scenario), "none")
    features = prtrack.cli._load_features(run_dir, table)
    assert features.frame.dtype.kind == "i"
    assert features.det_index.dtype.kind == "i"


def test_commands_without_assignment_do_not_load_scipy_optimize(tmp_path):
    """No command imports scipy.optimize.  generate, train, embed and
    eval-reid load nothing of scipy; track, merge and eval-track load only
    the compiled solver ``scipy.optimize._lsap``, through hungarian, and it
    gives the pairs of ``scipy.optimize.linear_sum_assignment``.  A fresh
    interpreter, because this one has scipy.optimize loaded already."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import yaml
        import prtrack
        from prtrack import cli, solvers
        run, cfg = sys.argv[1:]
        with open(cfg, "w") as f:
            yaml.safe_dump({"seed": 1, "train": {"epochs": 2},
                            "scenario": {"frames": 30,
                                         "n_players_per_team": 6}}, f)
        codes = [cli.main(["generate", "--config", cfg, "--out", run])]
        codes += [cli.main([stage, "--run", run])
                  for stage in ("train", "embed", "eval-reid")]
        assert codes == [0, 0, 0, 0], codes
        assert not [m for m in sys.modules if m.startswith("scipy")]
        codes = [cli.main([stage, "--run", run])
                 for stage in ("track", "merge")]
        codes.append(cli.main(["eval-track", "--gt", f"{run}/gt.txt",
                               "--pred", f"{run}/track_merged.txt"]))
        assert codes == [0, 0, 0], codes
        got = prtrack.hungarian(np.array([[4.0, 1.0], [2.0, 8.0]]))
        assert got.pairs.tolist() == [[0, 1], [1, 0]], got
        assert "scipy.optimize" not in sys.modules
        import scipy.optimize
        rng = np.random.default_rng(0)
        matrices = [rng.normal(size=shape)
                    for shape in ((1, 1), (4, 4), (3, 7), (8, 2))]
        matrices.append(np.where(rng.random((6, 6)) < 0.3, 1e6,
                                 rng.normal(size=(6, 6))))
        for costs in matrices:
            got = solvers._linear_sum_assignment(costs)
            want = scipy.optimize.linear_sum_assignment(costs)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "run"),
         str(tmp_path / "run.yaml")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_usage_error_exit_code():
    assert main(["track"]) == 1
    assert main(["no-such-command"]) == 1


def test_data_error_exit_code(tmp_path, capsys):
    assert main(["track", "--run", str(tmp_path)]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario:\n  framez: 10\n")
    assert main(["generate", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "framez" in err
    bad.write_text("scenario:\n  frames: 0\n")
    for command in ("generate", "pipeline"):
        assert main([command, "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
        assert "frames" in capsys.readouterr().err
    for text, message in (
            ("{detector_noise: dropout, detector_noise_param: 1.5}",
             "detector_noise_param must be <= 1 for dropout"),
            ("merge: {max_rounds: 0}", "merge.max_rounds must be >= 1"),
            ("merge: {max_rounds: -2}", "merge.max_rounds must be >= 1")):
        bad.write_text(text + "\n")
        assert main(["pipeline", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
    pred = tmp_path / "pred.txt"
    pred.write_text("1,1,0,0,nan,10,1,1,1\n")
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,0,0,10,10,1,1,1\n")
    assert main(["eval-track", "--gt", str(gt), "--pred", str(pred)]) == 2
    assert (f"{pred}: line 1: box fields must be finite"
            in capsys.readouterr().err)
    empty_gt = tmp_path / "empty_gt.txt"
    empty_gt.write_text("")
    pred.write_text("1,1,0,0,10,10,1,1,1\n")
    assert main(["eval-track", "--gt", str(empty_gt),
                 "--pred", str(pred)]) == 2
    assert "no ground-truth boxes" in capsys.readouterr().err
    # gt holds id 1 in frames 1 and 2; pred repeats id 1 in frame 1.
    gt.write_text("1,1,0,0,10,10,1,1,1\n2,1,0,0,10,10,1,1,1\n")
    pred.write_text("1,1,0,0,10,10,1,1,1\n1,1,50,0,10,10,1,1,1\n")
    assert main(["eval-track", "--gt", str(gt), "--pred", str(pred)]) == 2
    assert "pred id 1 repeats in frame 1" in capsys.readouterr().err
    bad.write_text("scenario: {frames: [1, 2\n")
    assert main(["generate", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == 2
    assert "line 2" in capsys.readouterr().err
    for text, key in (("tracker: {match_threshold: .nan}\n", "match_threshold"),
                      ("scenario: {feature_noise_sigma: .inf}\n",
                       "feature_noise_sigma"),
                      ("sampling_stride: 2.5\n", "sampling_stride"),
                      ("train: {focal_gamma: -1.0}\n", "train.focal_gamma"),
                      ("train: {reid_margin: -0.5}\n", "train.reid_margin"),
                      ("train: {warmup_epochs: -2}\n",
                       "train.warmup_epochs")):
        bad.write_text(text)
        out = tmp_path / key
        assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "model.txt").exists()
    # A negative seed from the flag, the environment or the config file.
    bad.write_text("seed: -1\n")
    for argv, env in ((["--seed", "-1"], None), ([], "-1"),
                      (["--config", str(bad)], None)):
        with pytest.MonkeyPatch.context() as mp:
            if env is not None:
                mp.setenv("PRT_SEED", env)
            assert main(["generate", *argv,
                         "--out", str(tmp_path / "x")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
    bad.write_text("- 1\n- 2\n")
    assert main(["generate", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == 2
    assert "config root must be a mapping" in capsys.readouterr().err
    # A directory, and bytes that are not UTF-8, where a file is read.
    assert main(["generate", "--config", str(tmp_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert str(tmp_path) in capsys.readouterr().err
    bad.write_bytes(b"\xff\xfescenario: {}\n")
    assert main(["generate", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{bad}: line 1: not UTF-8" in capsys.readouterr().err
    gt.write_bytes(b"1,1,0,0,10,10,1,1,1\n\xff\xfe\n")
    assert main(["eval-track", "--gt", str(gt), "--pred", str(pred)]) == 2
    assert f"{gt}: line 2: not UTF-8" in capsys.readouterr().err
    # Too few identities to train on, then no held-out player to retrieve.
    for players, message in ((3, "need 4+4 player ids"),
                             (4, "gallery is empty")):
        bad.write_text(yaml.safe_dump({
            "scenario": {"frames": 20, "n_players_per_team": players},
            "train": {"epochs": 1}, "sampling_stride": 5}))
        assert main(["pipeline", "--config", str(bad),
                     "--out", str(tmp_path / f"p{players}")]) == 2
        assert message in capsys.readouterr().err
    # A checkpoint trained on 16 channels, embedding a 20-channel run.
    bad.write_text("scenario: {frames: 2, channels: 20}\n")
    wide = tmp_path / "wide"
    assert main(["generate", "--config", str(bad), "--out", str(wide)]) == 0
    save_model(EmbedderModel.init(channels=16), wide / "model.txt")
    capsys.readouterr()
    assert main(["embed", "--run", str(wide)]) == 2
    assert "grid channels 20 != model channels 16" in capsys.readouterr().err
    # A checkpoint whose b_pix disagrees with its w_pix in length.
    model = wide / "model.txt"
    save_model(EmbedderModel.init(channels=20), model)
    lines = model.read_text().splitlines()
    at = lines.index("b_pix 1 6")
    lines[at:at + 2] = ["b_pix 1 5", " ".join(lines[at + 1].split()[:5])]
    model.write_text("\n".join(lines) + "\n")
    assert main(["embed", "--run", str(wide)]) == 2
    assert (f"{model}: b_pix has shape (5,), expected (6,)"
            in capsys.readouterr().err)
    # Non-finite role logits in the first features row.
    features = wide / "features.txt"
    rows = features.read_text().splitlines(keepends=True)
    rows[0] = " ".join(rows[0].split()[:-2] + ["inf", "nan"]) + "\n"
    features.write_text("".join(rows))
    assert main(["track", "--run", str(wide)]) == 2
    assert (f"{features}: line 1: role logits must be finite"
            in capsys.readouterr().err)
    for name, command in (("model.txt", "embed"), ("features.txt", "track")):
        (wide / name).write_bytes(b"\xff\xfe")
        assert main([command, "--run", str(wide)]) == 2
        assert f"{wide / name}: line 1: not UTF-8" in capsys.readouterr().err


def test_pipeline_without_held_out_player_fails_before_training(
        tmp_path, monkeypatch, capsys):
    """Four players a team all go to training: the run stops on the empty
    gallery, naming the config key, before it trains anything."""
    trained = []
    monkeypatch.setattr(prtrack.pipeline, "train_on_scenario",
                        lambda *args: trained.append(args))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"frames": 20, "n_players_per_team": 4},
        "train": {"epochs": 1}, "sampling_stride": 5}))
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "gallery is empty" in err
    assert "scenario.n_players_per_team is 4" in err
    assert not trained


def test_generate_without_held_out_player_writes_nothing(tmp_path, capsys):
    """``generate`` makes the pipeline's gallery check before it writes
    anything: four players a team exit 2 with the pipeline's message, and
    no re-id samples file is left for ``train`` to read."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"frames": 20, "n_players_per_team": 4},
        "train": {"epochs": 1}, "sampling_stride": 5}))
    run = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert "gallery is empty" in err
    assert "scenario.n_players_per_team is 4" in err
    assert not (run / "reid_samples.npz").exists()


def test_commands_build_cells_for_the_rows_they_read(tmp_path,
                                                     monkeypatch):
    """``generate`` and ``pipeline`` store cells for their re-id sample rows
    alone, and ``track`` and ``embed``, whose detections read no stored
    cells, for no row; ``embed`` rebuilds one frame's cells at a time."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"frames": 40, "n_players_per_team": 6,
                     "occlusion_rate": 0.3},
        "sampling_stride": 5, "train": {"epochs": 2}}))
    run = tmp_path / "run"
    shapes, frames = [], []

    def recorded(*args, **kwargs):
        scenario = generate(*args, **kwargs)
        shapes.append(scenario.cells.shape)
        return scenario

    def frame_cells(*args):
        cells = replay(*args)
        frames.append(len(cells))
        return cells

    replay = prtrack.simgen._frame_cells
    for module in (prtrack.cli, prtrack.pipeline):
        monkeypatch.setattr(module, "generate", recorded)
    monkeypatch.setattr(prtrack.simgen, "_frame_cells", frame_cells)
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    with np.load(run / "reid_samples.npz", allow_pickle=False) as npz:
        samples = npz["identity"].size
    scenario = load_config(run / "manifest.yaml").scenario
    grid = (scenario.grid_h, scenario.grid_w, scenario.channels)
    assert 0 < samples < 40 * 23
    assert shapes == [(samples, *grid)]
    for command, want in (("track", [(0, *grid)]), ("train", []),
                          ("embed", [(0, *grid)])):
        shapes.clear()
        assert main([command, "--run", str(run)]) == 0
        assert shapes == want, command
    # One block per frame, of that frame's present agents: the rows of the
    # ground truth, which has one line per present agent and frame.
    present = np.bincount(parse_mot(run / "gt.txt").frame)[1:].tolist()
    assert frames == present
    shapes.clear()
    frames.clear()
    assert main(["pipeline", "--config", str(cfg), "--out",
                 str(tmp_path / "full")]) == 0
    assert shapes == [(samples, *grid)]
    assert frames == present


def test_main_pins_the_mmap_threshold_under_glibc_only(monkeypatch,
                                                      tmp_path):
    """Every command first sets glibc's map threshold to 1 MiB through
    mallopt; where ``confstr`` names no glibc, it loads no library."""
    import ctypes

    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(prtrack.cli.os, "confstr",
                        lambda name: "glibc 2.36")
    assert main(["eval-track", "--gt", str(tmp_path / "missing"),
                 "--pred", str(tmp_path / "missing")]) == 2
    assert calls == [(-3, 1 << 20)]

    def no_glibc(name):
        raise ValueError("unrecognized configuration name")
    for confstr in (no_glibc, lambda name: None):
        monkeypatch.setattr(prtrack.cli.os, "confstr", confstr)
        prtrack.cli._pin_mmap_threshold()
    assert calls == [(-3, 1 << 20)]


def test_main_leaves_no_argparse_garbage(tmp_path, capsys):
    """The process builds one parser: once it exists, a command leaves no
    parser, action or formatter for the cyclic collector."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: {frames: 5}\n")
    argv = ["generate", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        found = [o for o in gc.garbage if type(o).__module__ == "argparse"
                 or isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not found


def test_programmer_error_escapes(tmp_path, monkeypatch):
    def broken(cfg):
        raise ValueError("a bug, not bad input")
    monkeypatch.setattr(prtrack.cli, "run_pipeline", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["pipeline", "--out", str(tmp_path / "run")])


def test_every_data_error_exits_2(tmp_path, monkeypatch, capsys):
    """Each DataError subclass the package defines maps to exit code 2."""
    for module in pkgutil.iter_modules(prtrack.__path__):
        importlib.import_module(f"prtrack.{module.name}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = {cls for cls in subclasses(DataError)
             if cls.__module__.startswith("prtrack.")}
    assert {ParseError, RangeError, DuplicateId} <= found
    assert len(found) >= 11
    for cls in sorted(found, key=lambda cls: cls.__name__):
        def stage(cfg, cls=cls):
            raise cls(f"raised {cls.__name__}")
        monkeypatch.setattr(prtrack.cli, "run_pipeline", stage)
        assert main(["pipeline", "--out", str(tmp_path / "run")]) == 2, cls
        assert f"raised {cls.__name__}" in capsys.readouterr().err


def test_track_pairs_feature_rows_in_file_order(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: {frames: 3}\n")
    run = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    path = run / "features.txt"
    lines = path.read_text().splitlines(keepends=True)
    n = len(lines)                        # 25 people in each of 3 frames
    assert main(["track", "--run", str(run)]) == 0
    # Line 2 with its last part dropped: frame det K D fg parts vis logits.
    tok = lines[1].split()
    k, d = int(tok[2]), int(tok[3])
    fewer_parts = " ".join(tok[:2] + [str(k - 1)] + tok[3:4 + k * d]
                           + tok[4 + (k + 1) * d:-5] + tok[-4:]) + "\n"
    edits = {
        "missing": (lines[:4] + lines[5:], "line 5: expected features of "
                    "frame 1 det 4, got frame 1 det 5"),
        "missing last": (lines[:-1], f"line {n}: missing features of "
                         "frame 3 det 24"),
        "extra": (lines + lines[-1:], f"line {n + 1}: extra features row "
                  "of frame 3 det 24"),
        "duplicate": (lines[:3] + lines[2:], "line 4: expected features of "
                      "frame 1 det 3, got frame 1 det 2"),
        "out of order": (lines[:1] + lines[2:3] + lines[1:2] + lines[3:],
                         "line 2: expected features of frame 1 det 1, got "
                         "frame 1 det 2"),
        "shape": (lines[:1] + [fewer_parts] + lines[2:],
                  "line 2: parts shaped unlike the first row's"),
    }
    for name, (text, message) in edits.items():
        path.write_text("".join(text))
        capsys.readouterr()
        assert main(["track", "--run", str(run)]) == 2, name
        assert f"{path}: {message}" in capsys.readouterr().err, name


def test_unknown_detector_noise_fails_before_training(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": {"frames": 5},
                                   "detector_noise": "jiter"}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "detector_noise" in capsys.readouterr().err
    assert not (out / "model.txt").exists()


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [shlex.split(line, comments=True)
             for line in readme.read_text().splitlines()
             if line.startswith("prtrack ")]
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
    subcommands, = (a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert {argv[1] for argv in lines} == set(subcommands)


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PRT_SEED", "77")
    out = tmp_path / "run"
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": {"frames": 5}}))
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_config(out / "manifest.yaml").seed == 77
    # explicit flag wins over the environment
    assert main(["generate", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    assert load_config(out / "manifest.yaml").seed == 5


def test_report_compare(tmp_path, capsys):
    hota_of = {"a": 0.5, "b": 0.7, "x/run": 0.25, "y/run": 0.75}
    for name, hota in hota_of.items():
        d = tmp_path / name
        d.mkdir(parents=True)
        (d / "report.yaml").write_text(yaml.safe_dump({
            "tracking": {"hota": hota, "deta": 0.9, "assa": 0.4,
                         "mota": 0.8, "idf1": 0.6, "id_switches": 3}}))
    assert main(["report", "--compare", str(tmp_path / "a"),
                 str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "delta" in out
    # Each row is labelled by its path as given, so runs whose directories
    # share a name keep a row each; two runs always get a delta row.
    for first, second in (("x/run", "y/run"), ("x/run", "x/run")):
        runs = [str(tmp_path / first), str(tmp_path / second)]
        assert main(["report", "--compare", *runs]) == 0
        lines = capsys.readouterr().out.splitlines()
        hota = hota_of[first], hota_of[second]
        assert [line.split()[:2] for line in lines] == [
            ["name", "hota"], [runs[0], f"{hota[0]:.4f}"],
            [runs[1], f"{hota[1]:.4f}"],
            ["delta", f"{hota[1] - hota[0]:.4f}"]]
    path = tmp_path / "b" / "report.yaml"
    for text, message in (("tracking: {hota: [1, 2\n", "line 2: invalid YAML"),
                          ("reid: {}\n", "no tracking mapping"),
                          ("tracking: {hota: high}\n",
                           "tracking.hota is not a number")):
        path.write_text(text)
        assert main(["report", "--compare", str(tmp_path / "a"),
                     str(tmp_path / "b")]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
