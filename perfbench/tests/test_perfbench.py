"""Tests for the benchmark's own input generators, metric schema and tracer.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import schema  # noqa: E402
from machine import import_latentsum  # noqa: E402

ls = import_latentsum(ROOT)

# Every end-to-end metric the benchmark defines, with its unit.
NAMED_END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "failed_share": "ratio",
    "extractive_train_docs_per_s": "docs/s", "compression_train_tokens_per_s": "tok/s",
    "latent_samples_per_s": "samples/s", "labels_docs_per_s": "docs/s",
    "summarize_docs_per_s": "docs/s", "compress_sentences_per_s": "sent/s",
    "summarize_doc_ms_p50": "ms", "summarize_doc_ms_tail": "ms",
    "extract_r1_f1": "F1", "latent_r1_f1": "F1",
}
NAMED_PER_LAYER = (
    "tensor.backward.calls", "tensor.backward.ms", "tensor.backward.nodes_per_call",
    "tensor.backward.us_per_node", "lstm.step.calls", "lstm.step.us_per_call", "lstm.bilstm.ms",
    "optim.adam.step_ms", "optim.sgd.step_ms", "optim.clip.ms", "optim.clip.applied_share",
    "checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes", "corpus.load_ms",
    "corpus.encode_ms", "extractive.encode_document.ms_per_doc",
    "extractive.decode_labels.ms_per_doc", "extractive.nll_loss.ms_per_doc",
    "extractive.select_top_k.ms_per_doc", "compression.nll_loss.ms_per_pair",
    "compression.perplexity.ms", "compression.s_score.calls", "compression.s_score.us_per_call",
    "compression.decode_greedy.ms_per_sentence", "compression.decode_greedy.tokens_per_sentence",
    "latent.reinforce_step.ms", "latent.reward.ms_per_step", "latent.reward.distinct_share",
    "labeling.oracle_labels.ms_per_doc", "labeling.compression_pairs.ms_per_doc",
    "rouge.calls", "rouge.us_per_call",
)


def test_wide_corpus_same_seed_same_inputs():
    assert inputs.generate_wide_corpus(7) == inputs.generate_wide_corpus(7)
    assert inputs.generate_wide_corpus(7) != inputs.generate_wide_corpus(8)


def test_wide_corpus_shape_and_fixed_work():
    totals = set()
    for seed in (1, 2, 3):
        records = inputs.generate_wide_corpus(seed)
        assert len(records) == inputs.WIDE_DOCS
        sentences = [s for r in records for s in r["document"]]
        for record in records:
            assert inputs.WIDE_SENTENCES[0] <= len(record["document"]) <= inputs.WIDE_SENTENCES[1]
            assert inputs.WIDE_SUMMARY[0] <= len(record["summary"]) <= inputs.WIDE_SUMMARY[1]
        for text in sentences:
            assert inputs.WIDE_TOKENS[0] <= len(ls.corpus.tokenize(text)) <= inputs.WIDE_TOKENS[1]
        totals.add((len(sentences), sum(len(s.split()) for s in sentences)))
    assert len(totals) == 1, "every seed must give the same amount of work"


def test_wide_vocabulary_is_zipfian_and_about_2k():
    words = [w for r in inputs.generate_wide_corpus(1) for s in r["document"]
             for w in s.split() if w != "."]
    counts = sorted(np.unique(words, return_counts=True)[1], reverse=True)
    assert len(inputs.wide_vocabulary()) == inputs.WIDE_VOCAB
    assert counts[0] > 10 * counts[len(counts) // 2]


def test_wide_corpus_loads_and_has_oracle_signal(tmp_path):
    inputs.write_wide_corpus(tmp_path, 3)
    records = ls.corpus.load_corpus(tmp_path, "test")
    doc, summary = records[0]
    labels = ls.labeling.oracle_labels(doc, summary)
    assert 1 <= sum(labels.labels) <= 3


@pytest.mark.parametrize("base", [inputs.TRAIN_TOY_CONFIG, inputs.LATENT_TOY_CONFIG,
                                  inputs.WIDE_CONFIG])
def test_configs_are_valid_run_configs(tmp_path, base):
    inputs.write_json(tmp_path / "config.json", dict(base, seed=11))
    config = ls.config.load_config(tmp_path / "config.json")
    assert config.seed == 11


def test_every_named_metric_has_its_unit():
    units = schema.units()
    for name, unit in NAMED_END_TO_END.items():
        assert units[name] == unit, name
    for name in NAMED_PER_LAYER:
        assert name in units, name
    for layer in schema.LAYERS:
        assert f"{layer}.self_ms" in units


def test_benchmark_json_matches_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(schema.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(schema.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(schema.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).random(37))
    for pct in (0, 25, 50, 85, 100):
        assert schema.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_tail_has_ten_samples_beyond_it():
    values = list(np.random.default_rng(1).random(70))
    value, pct = schema.tail(values)
    assert sum(v > value for v in values) == schema.TAIL_BEYOND
    assert value == pytest.approx(np.percentile(values, pct))
    with pytest.raises(ValueError):
        schema.tail(values[:schema.TAIL_BEYOND])
    assert inputs.WIDE_DOCS > schema.TAIL_BEYOND


def test_speed_clock_leaves_probes_out_of_the_timed_wall_time():
    import speed

    clock = speed.SpeedClock()
    sink = []
    with clock.timed(sink) as outer:
        with clock.timed() as inner:
            pass
        t0 = clock.now()
        clock._run_probe()
        assert clock.now() - t0 < 1e-4  # the clock stands still during a probe
    assert sink == [outer]
    assert len(inner.probes) == speed.PROBES_AT_START
    assert len(outer.probes) == 2 * speed.PROBES_AT_START + 1
    assert 0 <= outer.wall_s < sum(outer.probes)
    assert outer.factor == pytest.approx(speed.PROBE_REF_S * len(outer.probes) / sum(outer.probes))
    assert outer.ref_s == pytest.approx(outer.wall_s * outer.factor)


def test_speed_clock_timer_probes_and_restores_the_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock()
    with clock.running(), clock.timed() as interval:
        end = time.perf_counter() + 6 * speed.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(interval.probes) > speed.PROBES_AT_START + 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_counts_backward_nodes_and_restores_functions():
    import tracing

    n = ls.numerics
    tracer = tracing.Tracer(ls)
    originals = (n.backward, ls.extractive.backward, n.lstm.LSTMCell.__dict__["step"],
                 ls.rouge.rouge_n)
    a = n.Parameter("a", np.ones((1, 2)))
    loss = n.tensor_sum(n.mul(a, a) + a)
    with tracer.traced("t"):
        assert n.backward is not originals[0] and ls.extractive.backward is n.backward
        n.backward(loss)
    assert (n.backward, ls.extractive.backward, n.lstm.LSTMCell.__dict__["step"],
            ls.rouge.rouge_n) == originals
    assert tracing.count_tape_nodes(loss) == 4  # a, a*a, a*a + a, sum
    metrics = tracer.metrics(overhead_pct=0.0)
    assert metrics["tensor.backward.calls"] == 1
    assert metrics["tensor.backward.nodes_per_call"] == 4
    assert set(metrics) == {name for name, _, _ in schema.PER_LAYER}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_toy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
