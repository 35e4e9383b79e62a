"""Span tracing of prtrack from outside the package.

A :class:`Tracer` replaces every public function of each layer module with a
wrapper, in every ``prtrack`` namespace that holds a reference to it, records
one span per call and puts the originals back on exit.  The program's source
is not modified.  Spans stay in memory as ``[name, start, end, parent]``
lists; :func:`layer_metrics` turns one run's spans into the per-layer
metrics.  A span or counter that can no longer be recorded, because the
program renamed a function or changed its arguments, raises
:class:`TracerError`, so the traced run fails instead of reporting 0.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

import numpy as np

# The layers are prtrack's modules.
LAYERS = ("simgen", "embedder", "losses", "tracker", "core", "solvers",
          "postproc", "track_metrics", "reid_metrics", "motio", "cli",
          "pipeline")

# Orchestration layers: their spans only call into the other layers.
ORCHESTRATION = ("cli", "pipeline")

# The scalar IoU runs millions of times per tracking run, so a wrapper would
# bury the measurement; its work shows inside frame_match, build_cost, idf1.
UNWRAPPED = {"core.iou"}

# Public methods of classes, wrapped on the class itself.
METHODS = {"tracker": {"OnlineTracker": ("step", "finish")}}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters: span name -> (counter name, f(args, kwargs, result)).
COUNTERS = {
    "simgen.to_tracking_input": (
        "simgen.detections", lambda a, k, r: sum(len(f) for f in r[0])),
    "embedder.forward_batch": (
        "embedder.forward_rows", lambda a, k, r: len(_arg(a, k, 1, "grids"))),
    "tracker.OnlineTracker.step": (
        "tracker.detections",
        lambda a, k, r: len(_arg(a, k, 1, "frame_input").detections)),
    "tracker.build_cost": (
        "tracker.cost_cells",
        lambda a, k, r: len(_arg(a, k, 0, "tracks")) * len(_arg(a, k, 1,
                                                                 "dets"))),
    "core.part_distance_matrix": (
        "core.part_distance_matrix_pairs",
        lambda a, k, r: len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b"))),
    "solvers.hungarian": (
        "solvers.hungarian_cells",
        lambda a, k, r: int(np.size(_arg(a, k, 0, "costs")))),
    "postproc.merge_tracklets": (
        "postproc.merges_accepted",
        lambda a, k, r: len(_arg(a, k, 0, "tracklets")) - len(r[0])),
    "reid_metrics.map_cmc": (
        "reid_metrics.queries_excluded",
        lambda a, k, r: sum(1 for flags in _arg(a, k, 0, "rankings")
                            if not any(flags))),
}
for _writer in ("write_mot", "write_features", "save_model"):
    COUNTERS[f"motio.{_writer}"] = (
        "motio.bytes_written",
        lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")))


# Per-layer metrics: the summed duration of these spans ...
TIMED = {
    "simgen.generate_s": ("simgen.generate",),
    "simgen.to_tracking_input_s": ("simgen.to_tracking_input",),
    "simgen.to_reid_dataset_s": ("simgen.to_reid_dataset",),
    "embedder.train_s": ("embedder.train",),
    "embedder.loss_and_grad_s": ("embedder.loss_and_grad",),
    "embedder.forward_batch_s": ("embedder.forward_batch",),
    "tracker.step_s": ("tracker.OnlineTracker.step",),
    "tracker.build_cost_s": ("tracker.build_cost",),
    "tracker.kalman_s": ("tracker.kalman_init", "tracker.kalman_predict",
                         "tracker.kalman_update"),
    "tracker.ema_update_s": ("tracker.ema_update",),
    "core.part_distance_matrix_s": ("core.part_distance_matrix",),
    "core.part_distance_s": ("core.part_distance",),
    "solvers.hungarian_s": ("solvers.hungarian",),
    "solvers.kmeans2_s": ("solvers.kmeans2",),
    "postproc.merge_tracklets_s": ("postproc.merge_tracklets",),
    "postproc.assign_teams_s": ("postproc.assign_teams",),
    "track_metrics.hota_s": ("track_metrics.hota",),
    "track_metrics.mota_ids_s": ("track_metrics.mota_ids",),
    "track_metrics.idf1_s": ("track_metrics.idf1",),
    "track_metrics.frame_match_s": ("track_metrics.frame_match",),
    "reid_metrics.evaluate_retrieval_s": ("reid_metrics.evaluate_retrieval",),
    "motio.write_s": ("motio.write_mot", "motio.write_features",
                      "motio.save_model"),
    "motio.read_s": ("motio.parse_mot", "motio.parse_features",
                     "motio.load_model"),
}
# ... the number of calls of this span ...
CALLS = {
    "embedder.loss_and_grad_calls": "embedder.loss_and_grad",
    "losses.part_prediction_loss_calls": "losses.part_prediction_loss",
    # Every matched detection updates its track's Kalman state once.
    "tracker.matches": "tracker.kalman_update",
    "core.part_distance_calls": "core.part_distance",
    "solvers.hungarian_calls": "solvers.hungarian",
    # Each merge round builds one tracklet cost matrix.
    "postproc.merge_rounds": "postproc.tracklet_cost_matrix",
    "track_metrics.frame_match_calls": "track_metrics.frame_match",
    "reid_metrics.rank_calls": "reid_metrics.rank",
}
# ... and the work counters, including the feature-set validations, which
# are counted, not timed: they run per detection and per track update.
COUNTED = (*sorted({counter for counter, _ in COUNTERS.values()}),
           "core.feature_set_builds")
# Every span the metrics above read; the tracer fails if one is missing.
REQUIRED = ({name for names in TIMED.values() for name in names}
            | set(CALLS.values()) | set(COUNTERS))


class TracerError(RuntimeError):
    """The program no longer has a function, or a call no longer has the
    arguments, that a per-layer metric is recorded from."""


class Tracer:
    """Context manager that traces every call into the layer modules.

    Use one tracer per workload run: its spans and counts cover the calls
    made while it is entered."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTED, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "prtrack" or name.startswith("prtrack.")]
        wrapped = set()
        for layer in LAYERS:
            module = _module(layer)
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or f"{layer}.{attr}" in UNWRAPPED):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                wrapped.add(f"{layer}.{attr}")
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = _member(module, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth,
                                self._wrap(name, _member(cls, meth)))
                    wrapped.add(name)
        missing = REQUIRED - wrapped
        if missing:
            raise TracerError(f"prtrack has no {', '.join(sorted(missing))}")
        pfs = _member(_module("core"), "PartFeatureSet")
        self._patch(pfs, "__post_init__",
                    self._count("core.feature_set_builds",
                                _member(pfs, "__post_init__")))

    def __exit__(self, *exc):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        return False

    def _patch(self, owner, name, replacement):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _count(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, count = counter
                try:
                    n = count(args, kwargs, result)
                except Exception as exc:
                    raise TracerError(
                        f"cannot count {key} on a call of {name}: "
                        f"{exc!r}") from exc
                tracer.counts[key] += n
            return result
        return traced


def _module(layer: str):
    module = sys.modules.get(f"prtrack.{layer}")
    if module is None:
        raise TracerError(f"prtrack has no module {layer}")
    return module


def _member(owner, name: str):
    """``name`` as defined on the module or class ``owner`` itself."""
    if name not in vars(owner):
        raise TracerError(f"prtrack has no {owner.__name__}.{name}")
    return vars(owner)[name]


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(spans: list[list], counts: dict[str, int],
                  run_s: float) -> dict[str, float]:
    """Per-layer totals of one traced workload run.  A layer that did not
    run reads 0 time and 0 work."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    stage_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_by_layer[_layer(name)] += dur - child_time[i]
        # A stage span is the first non-orchestration span on its path.
        if _layer(name) not in ORCHESTRATION and (
                parent < 0 or _layer(spans[parent][0]) in ORCHESTRATION):
            stage_s += dur

    metrics: dict[str, float] = {
        metric: sum(total.get(x, 0.0) for x in names)
        for metric, names in TIMED.items()}
    metrics.update({metric: calls.get(name, 0)
                    for metric, name in CALLS.items()})
    metrics.update({name: counts[name] for name in COUNTED})
    detections = metrics.pop("tracker.detections")
    metrics["tracker.match_ratio"] = (metrics["tracker.matches"] / detections
                                      if detections else 0.0)
    metrics.update({
        "losses.self_s": self_by_layer["losses"],
        "cli.self_s": self_by_layer["cli"],
        "pipeline.self_s": self_by_layer["pipeline"],
        "trace.spans": n,
        "trace.stage_coverage": stage_s / run_s if run_s > 0 else 0.0,
    })
    return metrics


class StepTimer:
    """Times each ``OnlineTracker.step`` call and nothing else, so the
    per-frame latency comes from an otherwise untraced run."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self._cls = _member(_module("tracker"), "OnlineTracker")
        self._original = _member(self._cls, "step")
        samples, step, clock = self.samples, self._original, time.perf_counter

        @functools.wraps(step)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return step(*args, **kwargs)
            finally:
                samples.append(clock() - start)
        self._cls.step = timed
        return self

    def __exit__(self, *exc):
        self._cls.step = self._original
        return False


def p95(samples: list[float]) -> float:
    """95th percentile; with the 200 frames of one tracking run at least
    ten samples lie beyond it."""
    return statistics.quantiles(samples, n=20, method="inclusive")[-1]
