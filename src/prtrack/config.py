"""Run configuration: nested key-value document with strict validation.

Unknown keys are rejected; every default is visible in the dataclass
definitions of the component configs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

import yaml

from .embedder import TrainConfig
from .losses import LossWeights
from .motio import ParseError, read_text
from .postproc import MergeConfig
from .simgen import DETECTOR_NOISES, ConfigInvalid, ScenarioConfig
from .tracker import TrackerConfig

__all__ = ["UnknownKeyError", "RangeError", "ConfigTypeError", "RunConfig",
           "load_yaml", "load_config"]


class UnknownKeyError(Exception):
    pass


class RangeError(ValueError):
    pass


class ConfigTypeError(TypeError):
    """A config value, or the document itself, has the wrong type."""


@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    merge: MergeConfig = field(default_factory=MergeConfig)
    seed: int = 0
    detector_noise: str = "none"
    detector_noise_param: float = 0.0
    sampling_stride: int = 25

    def reseeded(self, seed: int) -> "RunConfig":
        """Propagate one master seed into every component config."""
        return dataclasses.replace(
            self,
            seed=seed,
            scenario=dataclasses.replace(self.scenario, seed=seed),
            train=dataclasses.replace(self.train, seed=seed),
        )


# Bounds (lo, hi) of the top-level numeric fields.  The sections' bounds
# are checked by their own config classes.
_RANGES = {
    "detector_noise_param": (0.0, None),
    "sampling_stride": (1, None),
}


def _check_value(name: str, default, value) -> None:
    """Type and range checks of ``value`` for a field whose default is
    ``default``; the error names the key.  An integer field takes integers
    only, a float field any finite number, a tuple field a list of
    integers."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigTypeError(f"{name} must be a boolean")
        return
    if isinstance(default, (int, float)):
        kind = int if isinstance(default, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigTypeError(
                f"{name} must be "
                + ("an integer" if kind is int else "a number"))
        lo, hi = _RANGES.get(name, (None, None))
        if ((isinstance(value, float) and not math.isfinite(value))
                or (lo is not None and value < lo)
                or (hi is not None and value > hi)):
            raise RangeError(name)
    elif isinstance(default, str) and not isinstance(value, str):
        raise ConfigTypeError(f"{name} must be a string")
    elif isinstance(default, tuple) and not (
            isinstance(value, tuple)
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        raise ConfigTypeError(f"{name} must be a list of integers")


def _build(cls, section: str, data: dict):
    valid = {f.name for f in fields(cls)}
    defaults = cls()
    kwargs = {}
    for key, value in data.items():
        if key not in valid:
            raise UnknownKeyError(f"{section}.{key}")
        if key == "weights":
            if not isinstance(value, dict):
                raise ConfigTypeError(f"{section}.{key} must be a mapping")
            kwargs[key] = _build(LossWeights, "weights", value)
            continue
        if key == "decay_epochs" and isinstance(value, list):
            value = tuple(value)
        _check_value(f"{section}.{key}", getattr(defaults, key), value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise RangeError(f"{section}.{exc}") from exc


_SECTIONS = {
    "scenario": ScenarioConfig,
    "train": TrainConfig,
    "tracker": TrackerConfig,
    "merge": MergeConfig,
}


def load_yaml(path):
    """The YAML document in the file at ``path``; malformed YAML raises
    :class:`~prtrack.motio.ParseError` naming the path and line."""
    text = read_text(path)
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # A parser error has a mark, a reader error a position in ``text``.
        at = getattr(getattr(exc, "problem_mark", None), "index",
                     getattr(exc, "position", 0))
        raise ParseError(f"invalid YAML: {getattr(exc, 'problem', exc)}",
                         text.count("\n", 0, at) + 1, path) from exc


def load_config(path) -> RunConfig:
    """Load and validate a YAML run configuration.

    Raises :class:`UnknownKeyError` for unrecognized keys,
    :class:`ConfigTypeError` for mistyped values, and :class:`RangeError`
    for out-of-range values.  The error message names the offending key.
    Malformed YAML raises :class:`~prtrack.motio.ParseError` naming the
    path and line.
    """
    data = load_yaml(path) or {}
    if not isinstance(data, dict):
        raise ConfigTypeError("config root must be a mapping")
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    kwargs = {}
    defaults = RunConfig()
    top_fields = {f.name for f in fields(RunConfig)}
    for key, value in data.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigTypeError(f"{key} must be a mapping")
            kwargs[key] = _build(_SECTIONS[key], key, value)
        elif key in top_fields:
            _check_value(key, getattr(defaults, key), value)
            kwargs[key] = value
        else:
            raise UnknownKeyError(key)
    cfg = RunConfig(**kwargs)
    if cfg.detector_noise not in DETECTOR_NOISES:
        raise RangeError("detector_noise")
    try:
        cfg.scenario.validate()
    except ConfigInvalid as exc:
        raise RangeError(f"scenario.{exc}") from exc
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name in _SECTIONS:
            section = {}
            for sf in fields(value):
                v = getattr(value, sf.name)
                if dataclasses.is_dataclass(v):
                    v = dataclasses.asdict(v)
                elif isinstance(v, tuple):
                    v = list(v)
                section[sf.name] = v
            out[f.name] = section
        else:
            out[f.name] = value
    return out
