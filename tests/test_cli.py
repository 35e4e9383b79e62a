import argparse
import shlex
from pathlib import Path

import yaml

import pytest

from prtrack.cli import build_parser, main
from prtrack.config import load_config
from prtrack.motio import parse_features, parse_mot


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
    pred = tmp_path / "pred.txt"
    pred.write_text("1,1,0,0,nan,10,1,1,1\n")
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,0,0,10,10,1,1,1\n")
    assert main(["eval-track", "--gt", str(gt), "--pred", str(pred)]) == 2
    assert "line 1" in capsys.readouterr().err
    empty_gt = tmp_path / "empty_gt.txt"
    empty_gt.write_text("")
    pred.write_text("1,1,0,0,10,10,1,1,1\n")
    assert main(["eval-track", "--gt", str(empty_gt),
                 "--pred", str(pred)]) == 2
    assert "no ground-truth boxes" in capsys.readouterr().err


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
    for name, hota in (("a", 0.5), ("b", 0.7)):
        d = tmp_path / name
        d.mkdir()
        (d / "report.yaml").write_text(yaml.safe_dump({
            "tracking": {"hota": hota, "deta": 0.9, "assa": 0.4,
                         "mota": 0.8, "idf1": 0.6, "id_switches": 3}}))
    assert main(["report", "--compare", str(tmp_path / "a"),
                 str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "delta" in out
