"""Span tracing around calls into the adreg modules, installed from outside.

A :class:`Tracer` replaces the traced functions and methods with wrappers
while it is active and restores the originals when it leaves. A function is
replaced in every adreg module that holds it, because callers that did
``from .geometry import knn_search`` look the name up in their own module.
Spans are kept in memory; :func:`layer_metrics` turns them into per-operation
self times and counts.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

from adreg import backbone, bgmm, coarse, diffusion, geometry, nnet, training

MODULES = {"backbone": backbone, "bgmm": bgmm, "coarse": coarse,
           "diffusion": diffusion, "geometry": geometry, "nnet": nnet,
           "training": training}

# A KNN call over more targets than this is "large": the size at which
# geometry switches from brute force to its kd-tree today.
LARGE_KNN_TARGETS = 1024


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    counts: dict = field(default_factory=dict)


def _knn_counts(a, out):
    n_targets = len(a["targets"])
    return {"dist_evals": len(a["queries"]) * n_targets,
            "large": int(n_targets > LARGE_KNN_TARGETS)}


def _fps_counts(a, out):
    return {"dist_evals": a["n"] * len(a["cloud"])}


def _preprocess_counts(a, out):
    return {"points_out": len(out)}


def _gmm_counts(a, out):
    return {"em_iters": len(out.log_likelihoods)}


def _outlier_counts(a, out):
    _, _, src_mask, tgt_mask = out
    return {"kept": int(src_mask.sum() + tgt_mask.sum()),
            "total": len(src_mask) + len(tgt_mask)}


# Module-level functions: (module, function, count hook or None).
FUNCTIONS = (
    ("geometry", "knn_search", _knn_counts),
    ("geometry", "farthest_point_sample", _fps_counts),
    ("training", "preprocess_cloud", _preprocess_counts),
    ("bgmm", "fit_gmm", _gmm_counts),
    ("bgmm", "remove_outliers", _outlier_counts),
    ("coarse", "coarse_register", None),
    ("coarse", "coarse_head_forward", None),
    ("coarse", "weighted_svd_forward", None),
    ("coarse", "coarse_head_backward", None),
    ("diffusion", "autoregressive_infer", None),
    ("diffusion", "denoiser_forward", None),
    ("diffusion", "correspondence_to_transform", None),
    ("diffusion", "build_gt_correspondence", None),
    ("diffusion", "denoiser_backward", None),
    ("training", "register_pair", None),
    ("training", "make_step_context", None),
    ("training", "training_loss", None),
)

# Methods: (module, class, method). BatchNorm.forward spans are named by
# mode and backbone layer methods by layer index; see Tracer._method_name.
METHODS = (
    ("nnet", "BatchNorm", "forward"),
    ("nnet", "CBRStack", "forward"),
    ("nnet", "CBRStack", "backward"),
    ("nnet", "Adam", "step"),
    ("backbone", "DetectorDescriptorLayer", "plan"),
    ("backbone", "DetectorDescriptorLayer", "forward"),
    ("backbone", "DetectorDescriptorLayer", "backward"),
)


class Tracer:
    """Records a span per traced call while active (``with tracer:``)."""

    def __init__(self, model: training.RegistrationModel):
        self.spans: list[Span] = []
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._layer_names = {id(layer): f"backbone.layer{i + 1}"
                             for i, layer in enumerate(model.backbone.layers)}

    def __enter__(self):
        self.missing = []
        for mod_name, fn_name, count in FUNCTIONS:
            orig = getattr(MODULES[mod_name], fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(orig, f"{mod_name}.{fn_name}", count)
            for module in MODULES.values():
                if getattr(module, fn_name, None) is orig:
                    self._patch(module, fn_name, traced)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(MODULES[mod_name], cls_name, None)
            orig = getattr(cls, meth, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._patch(cls, meth, self._wrap(
                orig, self._method_name(mod_name, cls_name, meth), None))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, orig = self._restore.pop()
            setattr(owner, name, orig)
        return False

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _method_name(self, mod_name, cls_name, meth):
        if (cls_name, meth) == ("BatchNorm", "forward"):
            return lambda a: f"nnet.BatchNorm.forward.{'train' if a['train'] else 'eval'}"
        if cls_name == "DetectorDescriptorLayer":
            layers = self._layer_names
            return lambda a: f"{layers.get(id(a['self']), 'backbone.layer?')}.{meth}"
        return f"{mod_name}.{cls_name}.{meth}"

    def _wrap(self, fn, name, count):
        """``name`` is a span name, or a function of the bound arguments that
        returns one; ``count(arguments, result)`` gives the span's counts."""
        signature = inspect.signature(fn)
        needs_args = count is not None or callable(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            span = Span(name(bound) if callable(name) else name, 0.0, 0.0,
                        stack[-1] if stack else None, self.op_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(bound, out)
            return out

        return traced


# Span names whose self time is reported as "<name>.s".
LAYER_SPANS = (
    "geometry.knn_search",
    "geometry.farthest_point_sample",
    "training.preprocess_cloud",
    "nnet.BatchNorm.forward.eval",
    "nnet.BatchNorm.forward.train",
    "nnet.CBRStack.forward",
    "nnet.CBRStack.backward",
    "nnet.Adam.step",
    *(f"backbone.layer{i}.{m}" for i in (1, 2, 3) for m in ("plan", "forward", "backward")),
    "bgmm.fit_gmm",
    "bgmm.remove_outliers",
    "coarse.coarse_register",
    "coarse.coarse_head_forward",
    "coarse.weighted_svd_forward",
    "coarse.coarse_head_backward",
    "diffusion.autoregressive_infer",
    "diffusion.denoiser_forward",
    "diffusion.correspondence_to_transform",
    "diffusion.build_gt_correspondence",
    "diffusion.denoiser_backward",
    "training.register_pair",
    "training.make_step_context",
    "training.training_loss",
)

UNITS = {
    **{f"{name}.s": "s" for name in LAYER_SPANS},
    "geometry.knn_search.calls": "count",
    "geometry.knn_search.dist_evals": "count",
    "geometry.knn_search.large_share": "share",
    "geometry.farthest_point_sample.dist_evals": "count",
    "training.preprocess_cloud.points_out": "count",
    "bgmm.fit_gmm.em_iters": "count",
    "bgmm.remove_outliers.kept_share": "share",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics named as in BENCHMARK.json, per traced operation.

    ``.s`` metrics are self seconds per operation; counts are per operation,
    shares are over all calls. A layer that was never called reads 0.
    """
    per_op = max(n_ops, 1)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] += own
        calls[span.name] += 1
        for key, value in span.counts.items():
            sums[f"{span.name}.{key}"] += value

    def mean_per_call(key, name):
        return sums[key] / calls[name] if calls[name] else 0.0

    out = {f"{name}.s": self_s[name] / per_op for name in LAYER_SPANS}
    out.update({
        "geometry.knn_search.calls": calls["geometry.knn_search"] / per_op,
        "geometry.knn_search.dist_evals": sums["geometry.knn_search.dist_evals"] / per_op,
        "geometry.knn_search.large_share": mean_per_call(
            "geometry.knn_search.large", "geometry.knn_search"),
        "geometry.farthest_point_sample.dist_evals":
            sums["geometry.farthest_point_sample.dist_evals"] / per_op,
        "training.preprocess_cloud.points_out": mean_per_call(
            "training.preprocess_cloud.points_out", "training.preprocess_cloud"),
        "bgmm.fit_gmm.em_iters": mean_per_call("bgmm.fit_gmm.em_iters", "bgmm.fit_gmm"),
        "bgmm.remove_outliers.kept_share": (
            sums["bgmm.remove_outliers.kept"] / sums["bgmm.remove_outliers.total"]
            if sums["bgmm.remove_outliers.total"] else 0.0),
    })
    return out
