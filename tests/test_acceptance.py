"""Acceptance gate: one test per shipping criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every criterion is checked at its stated tolerance; the printed line
carries the measured numbers so a failure is diagnosable from the log.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from latentsum.cli import main as cli_main
from latentsum.compression import (
    CompressionModel,
    perplexity,
    s_score,
    train_compression,
)
from latentsum.config import RunConfig
from latentsum.corpus import (
    BOS,
    EOS,
    Document,
    Sentence,
    SummarySet,
    build_vocab,
    encode_records,
    tokenize,
)
from latentsum.extractive import (
    EncodedDocument,
    ExtractiveModel,
    evaluate_rouge_mean,
    label_accuracy,
    train_extractive,
)
from latentsum.labeling import compression_pairs, oracle_labels
from latentsum.latent import (
    BaselineModel,
    _selected_logprob_sum,
    exhaustive_expectation,
    reward_from_matrix,
    train_latent,
)
from latentsum.numerics import (
    Tensor,
    backward,
    constant,
    embedding_lookup,
    matmul,
    mul,
    no_grad,
    tensor_sum,
    zero_grads,
)
from latentsum.rouge import rouge_l, rouge_n
from latentsum.toy import generate_toy_corpus

from conftest import blas_build, random_sentences
from gradcheck import finite_difference_check
from oracles import attend
from test_rouge import oracle_rouge_l, oracle_rouge_n


def verdict(ok: bool, name: str, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def toy_training_setup(seed=13):
    """Bundled synthetic corpus, encoded, with oracle labels and pairs."""
    splits = generate_toy_corpus(seed)

    def records_of(rows):
        return [
            (Document(id=r["id"], sentences=tuple(tokenize(s) for s in r["document"])),
             SummarySet(sentences=tuple(tokenize(s) for s in r["summary"])))
            for r in rows
        ]

    train_raw = records_of(splits["train"])
    test_raw = records_of(splits["test"])
    vocab = build_vocab(train_raw, min_count=1)
    train = encode_records(train_raw, vocab)
    test = encode_records(test_raw, vocab)
    labels = {doc.id: oracle_labels(doc, summary, 3) for doc, summary in train}
    pairs = []
    for doc, summary in train_raw:
        for p in compression_pairs(doc, summary):
            pairs.append(type(p)(
                doc_id=p.doc_id,
                source=vocab.encode_sentence(p.source),
                target=vocab.encode_sentence(p.target),
            ))
    return vocab, train, test, labels, pairs


def test_c1_rouge_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    cases = 500
    worst = 0.0
    for _ in range(cases):
        candidate = random_sentences(rng, int(rng.integers(1, 3)), max_len=12, vocab_size=8)
        reference = random_sentences(rng, int(rng.integers(1, 3)), max_len=12, vocab_size=8)
        for n in (1, 2):
            got = rouge_n(candidate, reference, n)
            want = oracle_rouge_n(candidate, reference, n)
            for a, b in ((got.precision, want[0]), (got.recall, want[1]), (got.f1, want[2])):
                worst = max(worst, abs(a - b))
        got = rouge_l(candidate, reference)
        want = oracle_rouge_l(candidate, reference)
        for a, b in ((got.precision, want[0]), (got.recall, want[1]), (got.f1, want[2])):
            worst = max(worst, abs(a - b))
    verdict(worst <= 1e-12, "rouge-oracle-equivalence",
            f"{cases} cases, max |diff| {worst:.2e} (tolerance 1e-12)")


class TestC2GradientChecks:
    def test_extractive_nll(self):
        rng = np.random.default_rng(7)
        model = ExtractiveModel(10, 5, np.random.default_rng(1), dtype=np.float64)
        doc = Document(id="d", sentences=(
            Sentence(tokens=("a", "b", "c"), ids=(4, 5, 6)),
            Sentence(tokens=("d", "e"), ids=(7, 8)),
            Sentence(tokens=("d", "e"), ids=(7, 8)),
        ))
        gold = (1, 0, 1)

        def loss_fn():
            return model.nll_loss(model.encode_document(doc), gold)

        report = finite_difference_check(model.parameters(), loss_fn, rng, num_coords=200)
        verdict(report.passed and report.checked >= 200, "gradcheck-extractive-nll",
                f"{report.checked} coords, max rel err {report.max_rel_error:.2e} "
                f"(tolerance 1e-4)")

    def test_compression_cross_entropy(self):
        rng = np.random.default_rng(8)
        model = CompressionModel(9, 4, np.random.default_rng(2), dtype=np.float64)

        def loss_fn():
            return model.nll_loss([4, 5, 6, 7], [5, 6])

        report = finite_difference_check(model.parameters(), loss_fn, rng, num_coords=200)
        verdict(report.passed and report.checked >= 200, "gradcheck-compression-ce",
                f"{report.checked} coords, max rel err {report.max_rel_error:.2e} "
                f"(tolerance 1e-4)")

    def test_baseline_mse(self):
        # the baseline is linear in (d+1) parameters, so a wide decoder
        # state is used to expose >= 200 checkable coordinates
        d = 220
        rng = np.random.default_rng(9)
        policy = ExtractiveModel(10, d, np.random.default_rng(3), dtype=np.float64)
        doc = Document(id="d", sentences=tuple(
            Sentence(tokens=("a", "b"), ids=(4, 5)) for _ in range(3)
        ))
        with no_grad():
            enc = policy.encode_document(doc)
            dec = policy.decode_labels(enc, policy.choose_labels(enc)[0])
        states = constant(dec.h_d.data.copy())
        baseline = BaselineModel(d, dtype=np.float64)
        baseline.w.data = np.random.default_rng(4).normal(size=(d, 1)) * 0.1
        baseline.b.data = np.array([[0.2]])
        r = 0.65

        def loss_fn():
            residual = baseline.predict(states) - constant(np.full((len(doc), 1), r))
            return tensor_sum(mul(residual, residual)) * (1.0 / len(doc))

        report = finite_difference_check(baseline.parameters(), loss_fn, rng,
                                         num_coords=200)
        verdict(report.passed and report.checked >= 200, "gradcheck-baseline-mse",
                f"{report.checked} coords, max rel err {report.max_rel_error:.2e} "
                f"(tolerance 1e-4)")

    def test_reinforce_surrogate(self):
        rng = np.random.default_rng(10)
        model = ExtractiveModel(10, 5, np.random.default_rng(5), dtype=np.float64)
        doc = Document(id="d", sentences=tuple(
            Sentence(tokens=("a", "b"), ids=(4 + i, 6)) for i in range(3)
        ))
        z = (1, 0, 1)
        advantages = [0.3, -0.4, 0.7]
        from latentsum.latent import surrogate_loss

        def loss_fn():
            dec = model.decode_labels(model.encode_document(doc), z)
            return surrogate_loss(dec, advantages)

        report = finite_difference_check(model.parameters(), loss_fn, rng, num_coords=200)
        verdict(report.passed and report.checked >= 200, "gradcheck-reinforce-surrogate",
                f"{report.checked} coords, max rel err {report.max_rel_error:.2e} "
                f"(tolerance 1e-4)")


def test_c3_reinforce_matches_exact_expectation():
    rng0 = np.random.default_rng(31)
    doc = Document(id="d", sentences=tuple(
        Sentence(
            tokens=tuple(f"w{int(i)}" for i in rng0.integers(4, 20, size=4)),
            ids=tuple(int(i) for i in rng0.integers(4, 20, size=4)),
        )
        for _ in range(6)
    ))
    summary = SummarySet(sentences=(
        Sentence(tokens=("w4", "w7", "w9"), ids=(4, 7, 9)),
        Sentence(tokens=("w12", "w5"), ids=(12, 5)),
    ))
    model = ExtractiveModel(20, 6, np.random.default_rng(32), dtype=np.float64)
    comp = CompressionModel(20, 6, np.random.default_rng(33), dtype=np.float64)

    exact = exhaustive_expectation(model, doc, summary, comp, alpha=0.5)
    rewards = exact["rewards"]

    n_samples = 50_000
    rng = np.random.default_rng(34)
    counts: dict = {}
    sample_rewards = np.empty(n_samples)
    with no_grad():
        enc = model.encode_document(doc)
        # every draw's label choice in one call, on the encoding tiled once per
        # draw; no row depends on the others, so each sample is the per-draw
        # choice reinforce_step makes
        tiled = EncodedDocument(v=Tensor(np.tile(enc.v.data, (n_samples, 1))),
                                h_e=Tensor(np.tile(enc.h_e.data, (n_samples, 1))),
                                lengths=(len(enc),) * n_samples)
        labels, _ = model.choose_labels(tiled, rng.random(n_samples * len(enc)))
    for j, z in enumerate(np.reshape(labels, (n_samples, len(enc))).tolist()):
        z = tuple(z)
        counts[z] = counts.get(z, 0) + 1
        sample_rewards[j] = rewards[z]
    mc_mean = float(sample_rewards.mean())
    se = float(sample_rewards.std(ddof=1) / np.sqrt(n_samples))
    gap = abs(exact["expected_reward"] - mc_mean)
    mean_ok = gap <= 3 * se

    # frequency-weighted single-sample gradient: mean_j R(z_j) grad log p(z_j)
    params = model.parameters()
    zero_grads(params)
    for z, count in counts.items():
        weight = (count / n_samples) * rewards[z]
        if weight == 0.0:
            continue
        dec = model.decode_labels(model.encode_document(doc), z)
        backward(_selected_logprob_sum(dec) * weight)
    mc_grad = np.concatenate([p.grad_or_zeros().ravel() for p in params])
    zero_grads(params)
    exact_grad = np.concatenate([exact["gradient"][p.name].ravel() for p in params])
    cosine = float(
        mc_grad @ exact_grad / (np.linalg.norm(mc_grad) * np.linalg.norm(exact_grad))
    )
    verdict(mean_ok and cosine > 0.99, "reinforce-exactness",
            f"E[R] exact {exact['expected_reward']:.6f} vs MC {mc_mean:.6f} "
            f"(gap {gap:.2e}, 3SE {3 * se:.2e}); gradient cosine {cosine:.6f} "
            f"(threshold 0.99); mass {exact['probability_mass']:.12f}")


def test_c4_reward_algebra():
    hand = reward_from_matrix(np.array([[0.2, 0.8], [0.6, 0.4]]), alpha=0.5)
    hand_ok = (abs(hand.r_p - 0.7) <= 1e-12 and abs(hand.r_r - 0.7) <= 1e-12
               and abs(hand.r - 0.7) <= 1e-12)

    rng = np.random.default_rng(41)
    bounds_ok = True
    endpoints_ok = True
    for i in range(10_000):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        s = rng.uniform(1e-9, 1.0, size=(rows, cols))
        alpha = float(rng.uniform())
        out = reward_from_matrix(s, alpha)
        if not (0.0 <= out.r <= 1.0 and 0.0 <= out.r_p <= 1.0 and 0.0 <= out.r_r <= 1.0):
            bounds_ok = False
            break
        if i % 10 == 0:
            hi, lo = reward_from_matrix(s, 1.0), reward_from_matrix(s, 0.0)
            if hi.r != hi.r_p or lo.r != lo.r_r:
                endpoints_ok = False
                break
    verdict(hand_ok and bounds_ok and endpoints_ok, "reward-algebra",
            f"hand case r_p={hand.r_p:.12f} r_r={hand.r_r:.12f} r={hand.r:.12f}; "
            f"bounds on 10^4 fuzzed matrices: {bounds_ok}; "
            f"alpha endpoints exact: {endpoints_ok}")


class TestC5CapacityOverfits:
    def test_extractive_memorizes_32_documents(self):
        splits = generate_toy_corpus(13)
        raw = [
            (Document(id=r["id"], sentences=tuple(tokenize(s) for s in r["document"])),
             SummarySet(sentences=tuple(tokenize(s) for s in r["summary"])))
            for r in splits["train"][:32]
        ]
        vocab = build_vocab(raw, min_count=1)
        records = encode_records(raw, vocab)
        labels = {doc.id: oracle_labels(doc, summary, 3) for doc, summary in records}
        cfg = RunConfig(d=24, extractive_epochs=40, batch_size=8,
                        extractive_lr=0.003, dropout=0.0, word_dropout=0.0,
                        stop_at_train_acc=0.99)
        model = ExtractiveModel(len(vocab), cfg.d, np.random.default_rng(cfg.seed))
        train_extractive(model, records, labels, [], cfg, np.random.default_rng(cfg.seed))
        acc = label_accuracy(model, records, labels)
        verdict(acc >= 0.99, "extractive-overfit",
                f"label accuracy {acc:.4f} on 32 documents (threshold 0.99)")

    def test_compression_memorizes_16_pairs(self):
        splits = generate_toy_corpus(13)
        raw = [
            (Document(id=r["id"], sentences=tuple(tokenize(s) for s in r["document"])),
             SummarySet(sentences=tuple(tokenize(s) for s in r["summary"])))
            for r in splits["train"]
        ]
        vocab = build_vocab(raw, min_count=1)
        pairs = []
        for doc, summary in raw:
            for p in compression_pairs(doc, summary):
                pairs.append(type(p)(
                    doc_id=p.doc_id,
                    source=vocab.encode_sentence(p.source),
                    target=vocab.encode_sentence(p.target),
                ))
            if len(pairs) >= 16:
                break
        pairs = pairs[:16]
        cfg = RunConfig(d=24, compression_epochs=120, batch_size=4,
                        compression_lr=0.005, dropout=0.0)
        model = CompressionModel(len(vocab), cfg.d, np.random.default_rng(cfg.seed))
        train_compression(model, pairs, [], cfg, np.random.default_rng(cfg.seed))
        ppl = perplexity(model, pairs)
        verdict(ppl < 1.1, "compression-overfit",
                f"per-token perplexity {ppl:.4f} on 16 pairs (threshold 1.1)")


def test_c6_latent_refinement_does_not_degrade():
    vocab, train, test, labels, pairs = toy_training_setup(seed=13)
    results = []
    for seed in (13, 14, 15):
        cfg = RunConfig(seed=seed, d=16, extractive_epochs=12, batch_size=8,
                        extractive_lr=0.003, stop_at_train_acc=0.92,
                        compression_epochs=60, compression_lr=0.005,
                        dropout=0.0, word_dropout=0.0,
                        latent_epochs=3, latent_lr=0.005, num_samples=2)
        model = ExtractiveModel(len(vocab), cfg.d, np.random.default_rng(seed))
        train_extractive(model, train, labels, [], cfg, np.random.default_rng(seed))
        rouge_extract = evaluate_rouge_mean(model, test, 3)
        comp = CompressionModel(len(vocab), cfg.d, np.random.default_rng(seed + 100))
        train_compression(comp, pairs, [], cfg, np.random.default_rng(seed + 100))
        baseline = BaselineModel(cfg.d)
        metrics = train_latent(model, baseline, train, comp, cfg,
                               np.random.default_rng(seed + 200))
        rouge_latent = evaluate_rouge_mean(model, test, 3)
        results.append({
            "seed": seed,
            "reward_first": metrics[0]["mean_reward"],
            "reward_last": metrics[-1]["mean_reward"],
            "rouge_extract": rouge_extract,
            "rouge_latent": rouge_latent,
        })
    reward_ok = all(r["reward_last"] >= r["reward_first"] for r in results)
    rouge_ok = all(r["rouge_latent"] >= r["rouge_extract"] - 0.005 for r in results)
    detail = "; ".join(
        f"seed {r['seed']}: reward {r['reward_first']:.4f}->{r['reward_last']:.4f}, "
        f"rouge {r['rouge_extract']:.4f}->{r['rouge_latent']:.4f}"
        for r in results
    )
    verdict(reward_ok and rouge_ok, "latent-improvement", detail)


def test_c7_stage_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 13, "d": 8, "extractive_epochs": 2, "compression_epochs": 2,
        "latent_epochs": 1, "batch_size": 8, "min_count": 1, "max_decode_len": 12,
    }))

    def run_pipeline(root: Path) -> dict[str, Path]:
        root.mkdir()
        p = {
            "corpus": root / "corpus",
            "labels": root / "labels.jsonl",
            "pairs": root / "pairs.jsonl",
            "vocab": root / "vocab.json",
            "extractive": root / "extractive.ckpt",
            "ext_metrics": root / "ext_metrics.json",
            "compression": root / "compression.ckpt",
            "comp_metrics": root / "comp_metrics.json",
            "latent": root / "latent.ckpt",
            "trace": root / "trace.jsonl",
            "latent_metrics": root / "latent_metrics.json",
            "summaries": root / "summaries.jsonl",
            "lead3": root / "lead3.jsonl",
            "table": root / "table.txt",
        }
        cfg = ["--config", str(config)]
        steps = [
            cfg + ["make-toy", "--out", p["corpus"]],
            cfg + ["make-labels", "--corpus", p["corpus"], "--out", p["labels"]],
            cfg + ["make-pairs", "--corpus", p["corpus"], "--out", p["pairs"]],
            cfg + ["train-extractive", "--corpus", p["corpus"], "--labels", p["labels"],
                   "--vocab", p["vocab"], "--checkpoint", p["extractive"],
                   "--metrics", p["ext_metrics"]],
            cfg + ["train-compression", "--pairs", p["pairs"], "--vocab", p["vocab"],
                   "--checkpoint", p["compression"], "--metrics", p["comp_metrics"]],
            cfg + ["train-latent", "--corpus", p["corpus"], "--checkpoint", p["extractive"],
                   "--compression", p["compression"], "--vocab", p["vocab"],
                   "--out", p["latent"], "--trace", p["trace"],
                   "--metrics", p["latent_metrics"]],
            cfg + ["summarize", "--corpus", p["corpus"], "--checkpoint", p["latent"],
                   "--vocab", p["vocab"], "--out", p["summaries"]],
            cfg + ["lead3", "--corpus", p["corpus"], "--out", p["lead3"]],
            cfg + ["evaluate", "--corpus", p["corpus"],
                   "--generated", f"sys={p['summaries']}", "--out", p["table"]],
        ]
        for argv in steps:
            assert cli_main([str(a) for a in argv]) == 0
        return p

    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    mismatched = []
    compared = 0
    for key in a:
        if key == "corpus":
            for split in ("train", "valid", "test"):
                compared += 1
                if (a[key] / f"{split}.jsonl").read_bytes() != \
                        (b[key] / f"{split}.jsonl").read_bytes():
                    mismatched.append(f"corpus/{split}")
            continue
        compared += 1
        if a[key].read_bytes() != b[key].read_bytes():
            mismatched.append(key)
    verdict(not mismatched, "stage-determinism",
            f"{compared} artifacts byte-compared across two seeded reruns"
            + (f"; MISMATCHED: {mismatched} (BLAS {blas_build()})" if mismatched else ""))


def test_c8_normalized_score_property():
    model = CompressionModel(14, 6, np.random.default_rng(81), dtype=np.float64)
    rng = np.random.default_rng(82)
    in_range = True
    worst_gap = 0.0
    cases = 1000
    for i in range(cases):
        src_ids = tuple(int(v) for v in rng.integers(4, 14, size=int(rng.integers(1, 9))))
        tgt_ids = tuple(int(v) for v in rng.integers(4, 14, size=int(rng.integers(1, 9))))
        src = Sentence(tokens=tuple(f"w{v}" for v in src_ids), ids=src_ids)
        tgt = Sentence(tokens=tuple(f"w{v}" for v in tgt_ids), ids=tgt_ids)
        s = s_score(model, src, tgt)
        if not (0.0 < s <= 1.0):
            in_range = False
            break
        if i < 50:
            # independent stepwise recompute of the mean token log-probability
            with no_grad():
                annotations, state = model._encode_sources([src.ids])
                projected = matmul(annotations, model.u_h)
                cell = Tensor(np.zeros((1, model.d), dtype=model.dtype))
                total = 0.0
                steps = 0
                for prev, nxt in zip((BOS,) + tgt.ids, tgt.ids + (EOS,)):
                    x = embedding_lookup(model.tgt_embed, [prev])
                    state, cell = model.dec.step(x, state, cell)
                    _, context = attend(model, state, annotations, projected)
                    logits = model._output_logits(state, context).data[0]
                    peak = logits.max()
                    total += float(logits[nxt] - peak
                                   - np.log(np.sum(np.exp(logits - peak))))
                    steps += 1
            worst_gap = max(worst_gap, abs(s - float(np.exp(total / steps))))
    verdict(in_range and worst_gap < 1e-9, "normalized-score-property",
            f"{cases} fuzzed pairs all in (0,1]: {in_range}; "
            f"max stepwise-recompute gap {worst_gap:.2e} (tolerance 1e-9)")
