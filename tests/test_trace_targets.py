"""The benchmark's trace targets that the program lacks, pinned.

``perfbench/tracing.py`` wraps each function of its ``TARGETS`` under the
name its caller looks it up by.  A target the program does not have is
skipped as absent, and the per-layer metrics that read only absent targets
report 0.  A refactor that renames or deletes a traced function would so
blind a live metric without failing anything; this test makes it fail.
When such a change is meant, update the sets below with it.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

ABSENT_TARGETS = {
    "mlrank.cli.generate_canvas_dataset",
    "mlrank.cli.generate_small_variance_dataset",
    "mlrank.cli.generate_adjust_sequences",
    "mlrank.cli.generate_feature_dataset",
    "mlrank.model.bucket_order_from_ranks",
    "mlrank.model.weak_bucket_order",
    "mlrank.gmlr.bucket_order_from_ranks",
    "mlrank.gmlr.weak_bucket_order",
    "mlrank.baselines.bucket_order_from_ranks",
    "mlrank.baselines.weak_bucket_order",
    "mlrank.gmlr.q_prob_values",
    "mlrank.gmlr.q_grads_values",
    "mlrank.model.crpc_augmented_order",
    "mlrank.predict.crpc_scores",
    "mlrank.cli.train",
    "mlrank.cli.predict_with",
    "mlrank.cli.forward",
    "mlrank.model.forward",
    "mlrank.predict.predict_gmlr",
    "mlrank.predict.predict_lsep",
    "mlrank.predict.predict_crpc",
}

# Per-layer metrics all of whose span names come from absent targets.
ZERO_METRICS = {
    "buckets.order_calls",
    "buckets.order_s",
    "gaussian.q_calls",
    "gaussian.q_s",
    "baselines.crpc_scores_s",
    "model.predict_calls",
    "model.forward_calls",
    "model.predict_s",
    "predict.s",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_absent_targets_are_exactly_the_listed_ones():
    tracing = load_tracing()
    absent = {
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if getattr(importlib.import_module(module), attr, None) is None
    }
    assert absent == ABSENT_TARGETS
    assert set(tracing.absent_metrics(absent)) == ZERO_METRICS
