"""Span tracing at the mlrank module boundaries, and the per-layer metrics.

``Tracer.install`` replaces each function in ``TARGETS`` under the name
its caller looks it up by (``mlrank.model.gmlr_objective`` is the name
``model.py`` calls, not ``mlrank.gmlr.gmlr_objective``) with a wrapper
that records a span: name, start, end and the index of the enclosing
span.  Spans stay in memory; ``Spans.write`` dumps them when the run
ends.  A target the program no longer has is listed as absent and its
metrics read 0, so the trace survives refactors that delete functions.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Every ``_s`` metric below is self time, except the
``cli.*_s`` metrics, which are whole-command wall time.
"""

from __future__ import annotations

import importlib
import math
import os
import time

import numpy as np

# (module, attribute, span name, tally).  The tally, if any, names a
# counter that the call adds to: canvases composed, JSONL megabytes
# read, training rows, instances evaluated.
TARGETS = (
    ("mlrank.cli", "generate_canvas_dataset", "synthgen.generate", "canvases"),
    ("mlrank.cli", "generate_small_variance_dataset", "synthgen.generate", "canvases"),
    ("mlrank.cli", "generate_calibration_set", "synthgen.generate", "canvases"),
    ("mlrank.cli", "generate_adjust_sequences", "synthgen.generate", "sequence_canvases"),
    ("mlrank.cli", "generate_feature_dataset", "synthgen.generate", None),
    ("mlrank.cli", "write_dataset_jsonl", "synthgen.write", None),
    ("mlrank.cli", "read_dataset_jsonl", "synthgen.read", "jsonl_mb"),
    ("mlrank.glyphs", "rasterize_digit", "glyphs.rasterize", None),
    ("mlrank.model", "bucket_order_from_ranks", "buckets.order", None),
    ("mlrank.model", "weak_bucket_order", "buckets.order", None),
    ("mlrank.gmlr", "bucket_order_from_ranks", "buckets.order", None),
    ("mlrank.gmlr", "weak_bucket_order", "buckets.order", None),
    ("mlrank.baselines", "bucket_order_from_ranks", "buckets.order", None),
    ("mlrank.baselines", "weak_bucket_order", "buckets.order", None),
    ("mlrank.gmlr", "q_prob_values", "gaussian.q", None),
    ("mlrank.gmlr", "q_grads_values", "gaussian.q", None),
    ("mlrank.model", "gmlr_objective", "gmlr.objective", None),
    ("mlrank.model", "crpc_loss", "baselines.loss", None),
    ("mlrank.model", "lsep_rank_loss", "baselines.loss", None),
    ("mlrank.model", "lsep_class_loss", "baselines.loss", None),
    ("mlrank.model", "crpc_augmented_order", "baselines.order", None),
    ("mlrank.predict", "crpc_scores", "baselines.crpc_scores", None),
    ("mlrank.cli", "train", "model.train", None),
    ("mlrank.model", "batch_objective", "model.batch_objective", "train_rows"),
    ("mlrank.model", "backward", "model.backward", None),
    ("mlrank.model", "adam_step", "model.adam", None),
    ("mlrank.cli", "predict_with", "model.predict", None),
    ("mlrank.cli", "forward", "model.forward", None),
    ("mlrank.model", "forward", "model.forward", None),
    ("mlrank.cli", "save_checkpoint", "model.checkpoint", None),
    ("mlrank.cli", "load_checkpoint", "model.checkpoint", None),
    ("mlrank.predict", "predict_gmlr", "predict.rule", None),
    ("mlrank.predict", "predict_lsep", "predict.rule", None),
    ("mlrank.predict", "predict_crpc", "predict.rule", None),
    ("mlrank.cli", "evaluate_dataset", "metrics.evaluate", "evaluated"),
)

# Commands the benchmark runs; each is a top-level span "cli.<command>".
PROBE_COMMANDS = ("adjust-exp", "calib-exp", "extract-sig")


def _tally(kind, args, result) -> float:
    if kind == "canvases":
        return len(result)
    if kind == "sequence_canvases":
        return sum(len(seq.samples) for seq in result)
    if kind == "jsonl_mb":
        return os.path.getsize(args[0]) / 1e6
    if kind == "train_rows":
        return len(args[1])
    if kind == "evaluated":
        return len(args[1])
    raise ValueError(kind)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, tally):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if tally is not None:
                tracer.counters[tally] = tracer.counters.get(tally, 0.0) + _tally(tally, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, tally in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, tally))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def take(self) -> "Spans":
        """Hands over the spans recorded so far and starts afresh."""
        spans = Spans(self.names, self.starts, self.ends, self.parents, self.counters)
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = {}
        return spans


class Spans:
    def __init__(self, names, starts, ends, parents, counters):
        self.names = names
        self.start = np.asarray(starts)
        self.end = np.asarray(ends)
        self.parent = np.asarray(parents, dtype=np.int64)
        self.counters = counters
        duration = self.end - self.start
        covered = np.zeros_like(duration)
        inner = self.parent >= 0
        np.add.at(covered, self.parent[inner], duration[inner])
        self.duration = duration
        self.self_time = duration - covered
        self._by_name: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            self._by_name.setdefault(name, []).append(i)

    def calls(self, *names) -> int:
        return sum(len(self._by_name.get(n, ())) for n in names)

    def self_s(self, *names) -> float:
        return float(sum(self.self_time[self._by_name.get(n, [])].sum() for n in names))

    def total_s(self, *names) -> float:
        return float(sum(self.duration[self._by_name.get(n, [])].sum() for n in names))

    def count(self, counter) -> float:
        return float(self.counters.get(counter, 0.0))

    def write(self, fh, round_no: int) -> None:
        for name, s, e, p in zip(self.names, self.start, self.end, self.parent):
            fh.write(f"{round_no},{name},{s!r},{e!r},{p}\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


_PROBE_SPANS = tuple(f"cli.{c}" for c in PROBE_COMMANDS)

# name -> (unit, value from one round's spans, span names it reads).
PER_LAYER = {
    "cli.generate_s": ("s", lambda s: s.total_s("cli.generate"), ()),
    "cli.train_s": ("s", lambda s: s.total_s("cli.train"), ()),
    "cli.eval_s": ("s", lambda s: s.total_s("cli.eval"), ()),
    "cli.probe_s": ("s", lambda s: s.total_s(*_PROBE_SPANS), ()),
    "synthgen.generate_s": ("s", lambda s: s.self_s("synthgen.generate"), ("synthgen.generate",)),
    "synthgen.canvases": ("count", lambda s: s.count("canvases") + s.count("sequence_canvases"),
                          ("synthgen.generate",)),
    "synthgen.write_s": ("s", lambda s: s.self_s("synthgen.write"), ("synthgen.write",)),
    "synthgen.read_s": ("s", lambda s: s.self_s("synthgen.read"), ("synthgen.read",)),
    "synthgen.jsonl_mb": ("MB", lambda s: s.count("jsonl_mb"), ("synthgen.read",)),
    "glyphs.rasterize_calls": ("count", lambda s: s.calls("glyphs.rasterize"), ("glyphs.rasterize",)),
    "glyphs.rasterize_s": ("s", lambda s: s.self_s("glyphs.rasterize"), ("glyphs.rasterize",)),
    "buckets.order_calls": ("count", lambda s: s.calls("buckets.order"), ("buckets.order",)),
    "buckets.order_s": ("s", lambda s: s.self_s("buckets.order"), ("buckets.order",)),
    "gaussian.q_calls": ("count", lambda s: s.calls("gaussian.q"), ("gaussian.q",)),
    "gaussian.q_s": ("s", lambda s: s.self_s("gaussian.q"), ("gaussian.q",)),
    "gmlr.objective_calls": ("count", lambda s: s.calls("gmlr.objective"), ("gmlr.objective",)),
    "gmlr.objective_s": ("s", lambda s: s.self_s("gmlr.objective"), ("gmlr.objective",)),
    "baselines.loss_calls": ("count", lambda s: s.calls("baselines.loss"), ("baselines.loss",)),
    "baselines.loss_s": ("s", lambda s: s.self_s("baselines.loss", "baselines.order"),
                         ("baselines.loss", "baselines.order")),
    "baselines.crpc_scores_s": ("s", lambda s: s.self_s("baselines.crpc_scores"), ("baselines.crpc_scores",)),
    "model.train_inst_per_s": ("1/s", lambda s: _ratio(s.count("train_rows"), s.total_s("model.train")),
                               ("model.train", "model.batch_objective")),
    "model.batches": ("count", lambda s: s.calls("model.batch_objective"), ("model.batch_objective",)),
    "model.forward_s": ("s", lambda s: s.self_s("model.batch_objective"), ("model.batch_objective",)),
    "model.backward_s": ("s", lambda s: s.self_s("model.backward"), ("model.backward",)),
    "model.adam_s": ("s", lambda s: s.self_s("model.adam"), ("model.adam",)),
    "model.predict_calls": ("count", lambda s: s.calls("model.predict"), ("model.predict",)),
    "model.forward_calls": ("count", lambda s: s.calls("model.forward"), ("model.forward",)),
    "model.predict_s": ("s", lambda s: s.self_s("model.predict", "model.forward"),
                        ("model.predict", "model.forward")),
    "model.checkpoint_s": ("s", lambda s: s.self_s("model.checkpoint"), ("model.checkpoint",)),
    # Filled in by the benchmark from the checkpoints themselves.
    "model.subnormal_params": ("count", lambda s: s.count("subnormal_params"), ()),
    "predict.s": ("s", lambda s: s.self_s("predict.rule"), ("predict.rule",)),
    "metrics.evaluate_s": ("s", lambda s: s.self_s("metrics.evaluate"), ("metrics.evaluate",)),
    "metrics.instances_per_s": ("1/s", lambda s: _ratio(s.count("evaluated"), s.total_s("metrics.evaluate")),
                                ("metrics.evaluate",)),
}


def absent_metrics(absent_targets) -> list[str]:
    """Per-layer metrics none of whose span names has a live target."""
    gone = set(absent_targets)
    live = {name for mod, attr, name, _ in TARGETS if f"{mod}.{attr}" not in gone}
    return [m for m, (_, _, names) in PER_LAYER.items() if names and not live.intersection(names)]


def layer_values(spans: Spans) -> dict[str, float]:
    return {name: float(fn(spans)) for name, (_, fn, _) in PER_LAYER.items()}
