"""The benchmark's tracer (``perfbench/spans.py``) reads its per-layer
metrics from named prtrack functions and counts work from their arguments
and results.  Entering it here makes a rename or a deletion of one of them,
or a change to what a counter reads, fail the unit tests, not only a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

import prtrack.cli  # noqa: F401  (loads every prtrack module)
# Called through the module, so that calls reach the tracer's wrappers.
import prtrack.simgen as simgen
from prtrack.tracker import FrameInput, OnlineTracker

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "prtrack" or name.startswith("prtrack.")}


def test_tracer_finds_every_traced_function():
    spans = _load_spans()
    before = _namespaces()
    with spans.Tracer() as tracer:     # raises TracerError on a missing name
        pass
    assert tracer.spans == []
    assert _namespaces() == before     # every wrapper was taken out again


def test_tracer_counts_tracking_input_and_step_rows():
    spans = _load_spans()
    scenario, _ = simgen.generate(simgen.ScenarioConfig(
        frames=4, n_players_per_team=2, exit_rate=0.5, seed=3))
    table, _ = simgen.detection_table(scenario)
    with spans.Tracer() as tracer:
        frames, _ = simgen.to_tracking_input(scenario)
        tracker = OnlineTracker()
        for frame, dets in enumerate(frames, 1):
            tracker.step(FrameInput(frame, dets))
    assert len(table) > 0
    assert tracer.counts["simgen.detections"] == len(table)
    assert tracer.counts["tracker.detections"] == len(table)


def test_traced_commands_record_the_readers(tmp_path, capsys):
    """``track`` reads ``features.txt`` and ``eval-track`` reads two MOT
    files through the public readers, whose spans the benchmark's
    ``motio.read_s`` sums."""
    spans = _load_spans()
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: {frames: 3, n_players_per_team: 5}\n")
    run = tmp_path / "run"
    main = prtrack.cli.main
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    with spans.Tracer() as tracer:
        assert main(["track", "--run", str(run)]) == 0
        track = [name for name, *_ in tracer.spans]
        assert main(["eval-track", "--gt", str(run / "gt.txt"),
                     "--pred", str(run / "track_raw.txt")]) == 0
        evaluation = [name for name, *_ in tracer.spans[len(track):]]
    assert track.count("motio.parse_features") == 1
    assert "motio.parse_mot" not in track
    assert evaluation.count("motio.parse_mot") == 2
