"""Spans around the calls into each sigclass module, recorded from outside.

A Tracer replaces a function at the module attribute its caller looks up
(``sigclass.cli.fit``, ``sigclass.classifier.signature_many``, ...) with a
wrapper that records a span: name, start, end, parent span and command.
Spans stay in memory; ``remove()`` puts every original function back.
A span's name is ``<layer>.<function>``, the layer being the module that
defines the function.  A layer's self time is its spans' time minus the
part of it that their child spans cover.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a command's root span
    command: int
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fold_attrs(args, kwargs, result):
    batch, n, d = args[0].shape
    return {"batch": batch, "n": n, "d": d, "order": args[1], "features": result.shape[1]}


def _len_attrs(args, kwargs, result):
    return {"items": len(result)}


def _save_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _optimize_attrs(args, kwargs, result):
    return {"classes": len(result), "iters": kwargs.get("iters", 500)}


def _tsne_attrs(args, kwargs, result):
    return {"iterations": kwargs.get("iterations", 1000)}


# (module looked up by the caller, attribute, layer that defines it, attrs hook)
TARGETS = [
    # cli -> classifier
    ("cli", "fit", "classifier", None),
    ("cli", "calibrate", "classifier", None),
    ("cli", "evaluate", "classifier", None),
    ("cli", "ova_thresholds", "classifier", None),
    ("cli", "features_for_images", "classifier", None),
    ("cli", "save_model", "classifier", _save_attrs),
    ("cli", "load_model", "classifier", None),
    ("cli", "report_to_dict", "classifier", None),
    ("cli", "confusion_csv", "classifier", None),
    # cli -> data_io
    ("cli", "gen_four_shapes", "data_io", _len_attrs),
    ("cli", "load_mnist_idx", "data_io", _len_attrs),
    ("cli", "load_cifar10", "data_io", _len_attrs),
    ("cli", "resize", "data_io", None),
    # cli -> embedding, signal_analysis
    ("cli", "pca_reduce", "embedding", None),
    ("cli", "tsne_exact", "embedding", _tsne_attrs),
    ("cli", "embedding_csv", "embedding", None),
    ("cli", "export_spectrum", "signal_analysis", None),
    # classifier -> calibration_set, the one classifier-internal call the
    # per-layer metrics separate out
    ("classifier", "calibration_set", "classifier", None),
    # classifier -> calibration, data_io, path_signature
    ("classifier", "closed_form_lambda", "calibration", None),
    ("classifier", "optimize_lambda", "calibration", _optimize_attrs),
    ("classifier", "augment", "data_io", _len_attrs),
    ("classifier", "ensure_channels", "data_io", None),
    ("classifier", "signature_many", "path_signature", _fold_attrs),
    ("classifier", "log_signature_many", "path_signature", _fold_attrs),
    # calibration -> calibration (optimize_lambda starts from closed form)
    ("calibration", "closed_form_lambda", "calibration", None),
    # path_signature -> tensor_algebra, looked up as ``ta.mul_levels``;
    # log_levels' own products go through the same attribute
    ("tensor_algebra", "mul_levels", "tensor_algebra", None),
    ("tensor_algebra", "log_levels", "tensor_algebra", None),
]


@dataclass
class Tracer:
    """Installs span-recording wrappers on the sigclass modules."""

    modules: dict  # short module name -> module object
    spans: list = field(default_factory=list)
    command: int = -1
    _stack: list = field(default_factory=lambda: [-1])
    _saved: list = field(default_factory=list)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, layer, hook in TARGETS:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, f"{layer}.{attr}", hook))

    def remove(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextmanager
    def command_span(self, name: str):
        """Root span of one CLI command; nested spans carry its index."""
        index = len(self.spans)
        self.spans.append(None)
        self.command = index
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(f"cli.{name}", start, end, -1, index)
            self.command = -1

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.command)
            if hook is not None:
                spans[index].attrs = hook(args, kwargs, result)
            return result

        return wrapper


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(i, ())
            if c.end > s.start and c.start < s.end
        ]
        out.append(s.duration - _covered(clipped))
    return out

