"""Metric names and units, and the statistics that turn samples into values.

END_TO_END is what BENCHMARK.json gates: every workload reports each of
these in an untraced run. PRINTED_ONLY are the other end-to-end figures.
They are printed with every untraced run and kept in the details line,
but not gated. Some belong to only some workloads. The rest spread by
more than the largest allowed bound (0.25 IQR/median over ten seeds) on
a toy workload. PER_LAYER is what a traced run reports.
"""

from __future__ import annotations

import math

WORKLOADS = ("train_toy", "latent_toy", "infer_wide")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("summarize_doc_ms_tail", "ms", "lower"),
    ("summary_r1_f1", "F1", "higher"),
)

# (name, unit, better)
PRINTED_ONLY = (
    ("failed_share", "ratio", "lower"),
    ("summarize_docs_per_s", "docs/s", "higher"),
    ("compress_sentences_per_s", "sent/s", "higher"),
    ("summarize_doc_ms_p50", "ms", "lower"),
    ("labels_docs_per_s", "docs/s", "higher"),  # train_toy, infer_wide
    ("extractive_train_docs_per_s", "docs/s", "higher"),  # train_toy
    ("compression_train_tokens_per_s", "tok/s", "higher"),  # train_toy
    ("latent_samples_per_s", "samples/s", "higher"),  # latent_toy
    ("extract_r1_f1", "F1", "higher"),  # train_toy
    ("latent_r1_f1", "F1", "higher"),  # latent_toy
)

# Layers in the order of the package layout; spans outside every wrapped
# function (the stage loops themselves) are charged to "cli".
LAYERS = ("cli", "corpus", "rouge", "labeling", "numerics.tensor", "numerics.lstm",
          "numerics.optim", "numerics.checkpoint", "extractive", "compression", "latent")

# (name, unit, better). "calls", "spans" and "*.self_ms" are per traced
# round, and so is any other "*.ms" without a "per"; "ms_per_*",
# "us_per_*", "step_ms", "save_ms", "load_ms", "corpus.*_ms",
# "perplexity.ms" and "reinforce_step.ms" are per call; "bytes" is per
# saved checkpoint.
PER_LAYER = (
    ("tensor.backward.calls", "count", "lower"),
    ("tensor.backward.ms", "ms", "lower"),
    ("tensor.backward.nodes_per_call", "count", "lower"),
    ("tensor.backward.us_per_node", "us", "lower"),
    ("lstm.step.calls", "count", "lower"),
    ("lstm.step.us_per_call", "us", "lower"),
    ("lstm.bilstm.ms", "ms", "lower"),
    ("optim.adam.step_ms", "ms", "lower"),
    ("optim.sgd.step_ms", "ms", "lower"),
    ("optim.clip.ms", "ms", "lower"),
    ("optim.clip.applied_share", "ratio", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("corpus.load_ms", "ms", "lower"),
    ("corpus.encode_ms", "ms", "lower"),
    ("extractive.encode_document.ms_per_doc", "ms", "lower"),
    ("extractive.decode_labels.ms_per_doc", "ms", "lower"),
    ("extractive.nll_loss.ms_per_doc", "ms", "lower"),
    ("extractive.select_top_k.ms_per_doc", "ms", "lower"),
    ("compression.nll_loss.ms_per_pair", "ms", "lower"),
    ("compression.perplexity.ms", "ms", "lower"),
    ("compression.s_score.calls", "count", "lower"),
    ("compression.s_score.us_per_call", "us", "lower"),
    ("compression.decode_greedy.ms_per_sentence", "ms", "lower"),
    ("compression.decode_greedy.tokens_per_sentence", "count", "lower"),
    ("latent.reinforce_step.ms", "ms", "lower"),
    ("latent.reward.ms_per_step", "ms", "lower"),
    ("latent.reward.distinct_share", "ratio", "higher"),
    ("labeling.oracle_labels.ms_per_doc", "ms", "lower"),
    ("labeling.compression_pairs.ms_per_doc", "ms", "lower"),
    ("rouge.calls", "count", "lower"),
    ("rouge.us_per_call", "us", "lower"),
) + tuple((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# Per-document latency is reported at the median and at the tail: the
# highest percentile with TAIL_BEYOND samples beyond it.
TAIL_BEYOND = 10


def units() -> dict[str, str]:
    return {name: unit for name, unit, _ in END_TO_END + PRINTED_ONLY + PER_LAYER}


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: the
    (TAIL_BEYOND + 1)-th largest value, and the percentile it sits at."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {len(ordered)}")
    index = len(ordered) - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * index / (len(ordered) - 1)
