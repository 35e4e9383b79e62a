import pytest
import yaml

from prtrack.config import (ConfigTypeError, RangeError, RunConfig,
                            UnknownKeyError, config_from_dict, config_to_dict,
                            load_config)
from prtrack.embedder import TrainConfig
from prtrack.simgen import ScenarioConfig


def test_defaults_roundtrip():
    cfg = RunConfig()
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_load_yaml(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(yaml.safe_dump({
        "seed": 3,
        "scenario": {"frames": 100, "occlusion_rate": 0.2},
        "tracker": {"alpha": 0.8, "normalized_ema": True},
        "train": {"epochs": 10,
                  "weights": {"lambda_team": 0.2}},
    }))
    cfg = load_config(p)
    assert cfg.seed == 3
    assert cfg.scenario.frames == 100
    assert cfg.tracker.normalized_ema is True
    assert cfg.train.weights.lambda_team == 0.2
    assert cfg.train.weights.lambda_role == 1.5  # untouched default


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(UnknownKeyError):
        config_from_dict({"scneario": {}})
    with pytest.raises(UnknownKeyError):
        config_from_dict({"scenario": {"framez": 10}})
    with pytest.raises(UnknownKeyError, match="train.weights.nope"):
        config_from_dict({"train": {"weights": {"nope": 1.0}}})


def test_type_errors():
    with pytest.raises(TypeError):
        config_from_dict({"scenario": {"frames": "many"}})
    with pytest.raises(TypeError):
        config_from_dict({"tracker": {"normalized_ema": 1}})
    with pytest.raises(TypeError):
        config_from_dict({"scenario": "not a mapping"})
    for doc, key in (({"detector_noise_param": "abc"}, "detector_noise_param"),
                     ({"sampling_stride": 2.5}, "sampling_stride"),
                     ({"seed": "x"}, "seed"),
                     ({"seed": True}, "seed"),
                     ({"scenario": {"frames": 10.0}}, "scenario.frames"),
                     ({"train": {"decay_epochs": 20}}, "train.decay_epochs"),
                     ({"train": {"decay_epochs": [20, 2.5]}},
                      "train.decay_epochs")):
        with pytest.raises(ConfigTypeError, match=key):
            config_from_dict(doc)


def test_range_errors():
    with pytest.raises(RangeError):
        config_from_dict({"scenario": {"occlusion_rate": 2.0}})
    with pytest.raises(RangeError):
        config_from_dict({"tracker": {"alpha": -0.5}})
    with pytest.raises(RangeError):
        config_from_dict({"sampling_stride": 0})
    with pytest.raises(RangeError, match="detector_noise"):
        config_from_dict({"detector_noise": "jiter"})
    nan, inf = float("nan"), float("inf")
    for doc, key in (
            ({"tracker": {"match_threshold": nan}}, "match_threshold"),
            ({"tracker": {"match_threshold": -0.1}}, "match_threshold"),
            ({"tracker": {"alpha": nan}}, "alpha"),
            ({"scenario": {"feature_noise_sigma": inf}},
             "feature_noise_sigma"),
            ({"scenario": {"pitch_width": -inf}}, "pitch_width"),
            ({"train": {"weights": {"lambda_team": nan}}}, "lambda_team"),
            ({"detector_noise_param": -1.0}, "detector_noise_param"),
            ({"detector_noise_param": nan}, "detector_noise_param"),
            ({"detector_noise": "dropout", "detector_noise_param": 1.5},
             "^detector_noise_param must be <= 1 for dropout")):
        with pytest.raises(RangeError, match=key):
            config_from_dict(doc)
    # Bounds that the component configs check, named by qualified key.
    for doc, key in (
            ({"tracker": {"alpha": 1.5}}, "tracker.alpha"),
            ({"tracker": {"iou_gate": -0.1}}, "tracker.iou_gate"),
            ({"scenario": {"exit_rate": 2.0}}, "scenario.exit_rate"),
            ({"scenario": {"grid_w": 0}}, "scenario.grid_w"),
            ({"scenario": {"pitch_height": -1.0}}, "scenario.pitch_height"),
            ({"train": {"weights": {"lambda_pa": -1.0}}},
             "train.weights.lambda_pa must be >= 0"),
            ({"train": {"epochs": 0}}, "train.epochs"),
            ({"merge": {"max_rounds": 0}}, "^merge.max_rounds must be >= 1"),
            ({"merge": {"max_rounds": -2}},
             "^merge.max_rounds must be >= 1"),
            ({"train": {"samples_per_identity": 1}},
             "train.samples_per_identity"),
            ({"scenario": {"n_goalkeepers": -1}},
             "^scenario.n_goalkeepers must be >= 0"),
            ({"scenario": {"n_referees": -1}},
             "^scenario.n_referees must be >= 0"),
            ({"scenario": {"n_staff": -1}}, "^scenario.n_staff must be >= 0"),
            ({"train": {"steps_per_epoch": 0}},
             "^train.steps_per_epoch must be >= 1"),
            ({"train": {"base_lr": -1.0}}, "^train.base_lr must be > 0"),
            ({"train": {"base_lr": 0.0}}, "^train.base_lr must be > 0"),
            ({"seed": -1}, "^seed must be >= 0"),
            ({"scenario": {"seed": -1}}, "^scenario.seed must be >= 0"),
            ({"scenario": {"grid_h": 2}},
             "^scenario.grid_h must be >= num_parts"),
            ({"train": {"seed": -1}}, "^train.seed must be >= 0"),
            ({"train": {"focal_gamma": -1.0}},
             "^train.focal_gamma must be >= 0"),
            ({"train": {"reid_margin": -0.5}},
             "^train.reid_margin must be >= 0"),
            ({"train": {"team_margin": -0.01}},
             "^train.team_margin must be >= 0"),
            ({"train": {"focal_gamma": nan}},
             "^train.focal_gamma must be finite"),
            ({"train": {"reid_margin": nan}},
             "^train.reid_margin must be finite"),
            ({"train": {"base_lr": inf}}, "^train.base_lr must be finite"),
            ({"train": {"warmup_epochs": -2}},
             "^train.warmup_epochs must be >= 0"),
            ({"train": {"decay_epochs": [20, -1]}},
             "^train.decay_epochs must be >= 0")):
        with pytest.raises(RangeError, match=key):
            config_from_dict(doc)
    with pytest.raises(RangeError, match="^seed must be >= 0"):
        RunConfig().reseeded(-1)


def test_configs_check_themselves():
    """Built from Python, a config raises at construction, as from YAML."""
    with pytest.raises(ValueError, match="frames must be >= 1"):
        ScenarioConfig(frames=0)
    for kwargs, key in (({"detector_noise": "jiter"}, "detector_noise"),
                        ({"detector_noise_param": -1.0},
                         "detector_noise_param"),
                        ({"sampling_stride": 0}, "sampling_stride")):
        with pytest.raises(ValueError, match=key):
            RunConfig(**kwargs)
    with pytest.raises(RangeError, match=r"^detector_noise must be one of"):
        config_from_dict({"detector_noise": "jiter"})
    nan, inf = float("nan"), float("inf")
    for kwargs, message in (
            ({"focal_gamma": nan}, "^focal_gamma must be finite"),
            ({"focal_gamma": -1.0}, "^focal_gamma must be >= 0"),
            ({"reid_margin": nan}, "^reid_margin must be finite"),
            ({"team_margin": inf}, "^team_margin must be finite"),
            ({"base_lr": inf}, "^base_lr must be finite"),
            ({"base_lr": nan}, "^base_lr must be > 0"),
            ({"warmup_epochs": -1}, "^warmup_epochs must be >= 0"),
            ({"decay_epochs": (-1, 35)}, "^decay_epochs must be >= 0")):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)


def test_reseeded_propagates():
    cfg = RunConfig().reseeded(42)
    assert cfg.seed == 42
    assert cfg.scenario.seed == 42
    assert cfg.train.seed == 42
