"""Run configuration: nested key-value document with strict validation.

Every default is visible in the component configs' dataclasses, and every
config section checks its bounds when it is built, from YAML or Python.
One recursive walk rejects unknown keys and mistyped values.  Its errors,
all of them :class:`prtrack.core.DataError`, name the fully qualified key,
such as ``train.weights.lambda_pa``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

import yaml

from .core import DataError
from .embedder import TrainConfig
from .motio import ParseError, read_text
from .postproc import MergeConfig
from .simgen import DETECTOR_NOISES, ScenarioConfig
from .tracker import TrackerConfig

__all__ = ["UnknownKeyError", "RangeError", "ConfigTypeError", "RunConfig",
           "load_yaml", "load_config"]


class UnknownKeyError(DataError):
    pass


class RangeError(DataError, ValueError):
    pass


class ConfigTypeError(DataError, TypeError):
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

    def __post_init__(self):
        if self.seed < 0:
            raise RangeError("seed must be >= 0")
        if self.detector_noise not in DETECTOR_NOISES:
            raise RangeError(
                f"detector_noise must be one of {DETECTOR_NOISES}")
        if not self.detector_noise_param >= 0:
            raise RangeError("detector_noise_param must be >= 0")
        if self.detector_noise == "dropout" and self.detector_noise_param > 1:
            raise RangeError("detector_noise_param must be <= 1 for dropout")
        if self.sampling_stride < 1:
            raise RangeError("sampling_stride must be >= 1")

    def reseeded(self, seed: int) -> "RunConfig":
        """Propagate one master seed into every component config.  The run
        config checks ``seed`` first, so a bad seed is named as ``seed``."""
        cfg = dataclasses.replace(self, seed=seed)
        cfg.scenario = dataclasses.replace(self.scenario, seed=seed)
        cfg.train = dataclasses.replace(self.train, seed=seed)
        return cfg


def _check_value(name: str, default, value) -> None:
    """Type checks of ``value`` for a field whose default is ``default``;
    the error names the key.  A boolean field takes booleans only, an
    integer field integers only, a float field any finite number, a tuple
    field a list of integers."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigTypeError(f"{name} must be a boolean")
    elif isinstance(default, (int, float)):
        kind = int if isinstance(default, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigTypeError(
                f"{name} must be "
                + ("an integer" if kind is int else "a number"))
        if isinstance(value, float) and not math.isfinite(value):
            raise RangeError(f"{name} must be finite")
    elif isinstance(default, str) and not isinstance(value, str):
        raise ConfigTypeError(f"{name} must be a string")
    elif isinstance(default, tuple) and not (
            isinstance(value, tuple)
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        raise ConfigTypeError(f"{name} must be a list of integers")


def _build(cls, prefix: str, data):
    """The config dataclass ``cls`` built from the mapping ``data``, whose
    keys are qualified by ``prefix`` in errors.  Recurses into every field
    whose default is itself a dataclass."""
    if not isinstance(data, dict):
        raise ConfigTypeError(
            f"{prefix.rstrip('.') or 'config root'} must be a mapping")
    valid = {f.name for f in fields(cls)}
    defaults = cls()
    kwargs = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if key not in valid:
            raise UnknownKeyError(name)
        default = getattr(defaults, key)
        if dataclasses.is_dataclass(default):
            value = _build(type(default), f"{name}.", value)
        else:
            if isinstance(default, tuple) and isinstance(value, list):
                value = tuple(value)
            _check_value(name, default, value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise RangeError(f"{prefix}{exc}") from exc


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
    return config_from_dict(load_yaml(path) or {})


def config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, "", data)


def config_to_dict(cfg: RunConfig) -> dict:
    """``cfg`` as a plain document: sections nest, tuples become lists."""
    return dataclasses.asdict(cfg, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})
