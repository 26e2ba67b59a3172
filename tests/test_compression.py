"""Attention seq2seq compression scorer: decode, scoring, training."""

import numpy as np
import pytest

from latentsum.compression import (
    CompressionModel,
    decode_greedy,
    load_compression,
    perplexity,
    s_score,
    save_compression,
    seq2seq_logprob,
    train_compression,
)
from latentsum.corpus import BOS, EOS, PAD, Sentence, build_vocab
from latentsum.errors import CheckpointError, DataError
from latentsum.labeling import CompressionPair
from latentsum.numerics import Tensor, finite_difference_check, matmul

from conftest import doc_from, summary_from


def tiny_model(d=6, vocab_size=14, seed=4, dtype=np.float64):
    return CompressionModel(vocab_size, d, np.random.default_rng(seed), dtype=dtype)


def word_vocab():
    texts = ["alice saw the red fox", "the fox ran home", "alice ran home today"]
    records = [(doc_from(texts), summary_from(texts[:1]))]
    return build_vocab(records, min_count=1)


def encoded(vocab, text):
    tokens = tuple(text.split())
    return Sentence(tokens=tokens, ids=vocab.encode(tokens))


class TestScoring:
    def test_logprob_nonpositive(self):
        model = tiny_model()
        vocab = word_vocab()
        total, count = seq2seq_logprob(model, encoded(vocab, "alice saw the fox"),
                                       encoded(vocab, "alice saw"))
        assert total <= 0.0
        assert count == 3  # two target tokens plus the end marker

    def test_zero_output_layer_gives_uniform_per_token(self):
        model = tiny_model()
        model.w_out.data = np.zeros_like(model.w_out.data)
        model.b_out.data = np.zeros_like(model.b_out.data)
        vocab = word_vocab()
        total, count = seq2seq_logprob(model, encoded(vocab, "alice saw the fox"),
                                       encoded(vocab, "alice saw"))
        np.testing.assert_allclose(total, -count * np.log(model.vocab_size), rtol=1e-10)

    def test_normalized_score_length_invariant_at_uniform(self):
        model = tiny_model()
        model.w_out.data = np.zeros_like(model.w_out.data)
        model.b_out.data = np.zeros_like(model.b_out.data)
        vocab = word_vocab()
        src = encoded(vocab, "alice saw the red fox")
        short = s_score(model, src, encoded(vocab, "fox"))
        long = s_score(model, src, encoded(vocab, "alice saw the red fox"))
        np.testing.assert_allclose(short, long, rtol=1e-10)
        np.testing.assert_allclose(short, 1.0 / model.vocab_size, rtol=1e-10)

    def test_score_in_unit_interval_fuzz(self):
        rng = np.random.default_rng(6)
        model = tiny_model()
        for _ in range(50):
            src_ids = tuple(int(i) for i in rng.integers(4, 14, size=int(rng.integers(1, 8))))
            tgt_ids = tuple(int(i) for i in rng.integers(4, 14, size=int(rng.integers(1, 8))))
            src = Sentence(tokens=tuple(f"w{i}" for i in src_ids), ids=src_ids)
            tgt = Sentence(tokens=tuple(f"w{i}" for i in tgt_ids), ids=tgt_ids)
            s = s_score(model, src, tgt)
            assert 0.0 < s <= 1.0

    def test_stepwise_recompute_matches_total(self):
        model = tiny_model()
        vocab = word_vocab()
        src = encoded(vocab, "the fox ran home")
        tgt = encoded(vocab, "fox ran")
        total, count = seq2seq_logprob(model, src, tgt)
        dec = model.decode_teacher(src.ids, tgt.ids)
        assert dec.log_probs.shape == (count, model.vocab_size)
        stepwise = 0.0
        for lp, t in zip(dec.log_probs.data, dec.targets):
            stepwise += float(lp[t])
        assert abs(stepwise - total) < 1e-9
        np.testing.assert_allclose(s_score(model, src, tgt),
                                   np.exp(stepwise / count), rtol=1e-9)

    def test_requires_ids(self):
        model = tiny_model()
        with pytest.raises(DataError, match="ids"):
            s_score(model, Sentence(tokens=("a",)), Sentence(tokens=("b",), ids=(4,)))

    def test_empty_inputs_refused(self):
        model = tiny_model()
        with pytest.raises(DataError, match="non-empty"):
            model.decode_teacher([], [4])


def attention_rows(model, source_ids, steps):
    """_attend's weights over source_ids for the initial decoder state and
    steps - 1 random states."""
    annotations, state = model._encode_source(source_ids)
    projected = matmul(annotations, model.u_h)
    rng = np.random.default_rng(0)
    states = [state] + [Tensor(rng.normal(size=(1, model.d)).astype(model.dtype))
                        for _ in range(steps - 1)]
    return [model._attend(s, annotations, projected)[0].data for s in states]


class TestAttention:
    def test_weights_normalized_and_shaped(self):
        model = tiny_model()
        for w in attention_rows(model, [4, 5, 6, 7, 8], steps=3):
            assert w.shape == (1, 5)
            assert (w > 0).all()
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-6)

    def test_single_source_token_gets_full_weight(self):
        model = tiny_model()
        for w in attention_rows(model, [9], steps=2):
            np.testing.assert_allclose(w, [[1.0]], atol=1e-12)


class TestGradients:
    def test_cross_entropy_gradcheck(self):
        model = tiny_model(d=4, vocab_size=9, dtype=np.float64)
        rng = np.random.default_rng(3)

        def loss_fn():
            return model.nll_loss([4, 5, 6], [5, 7])

        report = finite_difference_check(model.parameters(), loss_fn, rng, num_coords=80)
        assert report.passed, report.failures


class TestGreedyDecode:
    def test_never_emits_pad_or_bos(self):
        model = tiny_model()
        ids = model.decode_greedy_ids([4, 5, 6], 20)
        assert PAD not in ids and BOS not in ids and EOS not in ids

    def test_first_step_never_ends(self):
        model = tiny_model()
        assert len(model.decode_greedy_ids([4, 5], 1)) == 1

    def test_rejects_zero_max_len(self):
        model = tiny_model()
        with pytest.raises(DataError, match="max_len"):
            model.decode_greedy_ids([4], 0)

    def test_length_capped(self):
        model = tiny_model()
        assert len(model.decode_greedy_ids([4, 5, 6], 4)) <= 4

    def test_deterministic(self):
        model = tiny_model()
        assert model.decode_greedy_ids([4, 5, 6], 10) == model.decode_greedy_ids([4, 5, 6], 10)

    def test_decode_greedy_returns_tokens(self):
        vocab = word_vocab()
        model = tiny_model(vocab_size=len(vocab))
        out = decode_greedy(model, vocab, encoded(vocab, "alice saw the fox"), 8)
        assert len(out.tokens) == len(out.ids)
        assert all(isinstance(t, str) for t in out.tokens)


class TestTraining:
    def _pairs(self, vocab):
        data = [
            ("alice saw the red fox", "alice saw the fox"),
            ("the fox ran home today", "the fox ran home"),
            ("alice ran home", "alice ran"),
        ]
        return [
            CompressionPair(source=encoded(vocab, s), target=encoded(vocab, t), doc_id=f"d{i}")
            for i, (s, t) in enumerate(data)
        ]

    def test_perplexity_decreases(self, small_config):
        vocab = word_vocab()
        model = CompressionModel(len(vocab), 8, np.random.default_rng(0))
        pairs = self._pairs(vocab)
        cfg = small_config
        cfg.compression_epochs = 10
        metrics = train_compression(model, pairs, [], cfg, np.random.default_rng(1))
        assert metrics[-1]["train_ppl"] < metrics[0]["train_ppl"]

    def test_overfits_single_pair_and_reproduces_it(self, small_config):
        vocab = word_vocab()
        model = CompressionModel(len(vocab), 10, np.random.default_rng(2))
        pair = self._pairs(vocab)[0]
        cfg = small_config
        cfg.compression_epochs = 150
        cfg.compression_lr = 0.01
        cfg.dropout = 0.0
        cfg.batch_size = 1
        train_compression(model, [pair], [], cfg, np.random.default_rng(3))
        assert perplexity(model, [pair]) < 1.1
        out = decode_greedy(model, vocab, pair.source, 12)
        assert out.tokens == pair.target.tokens

    def test_validation_selects_best(self, small_config):
        vocab = word_vocab()
        model = CompressionModel(len(vocab), 8, np.random.default_rng(4))
        pairs = self._pairs(vocab)
        cfg = small_config
        cfg.compression_epochs = 4
        metrics = train_compression(model, pairs, pairs[:1], cfg, np.random.default_rng(5))
        best = min(m["val_ppl"] for m in metrics)
        np.testing.assert_allclose(perplexity(model, pairs[:1]), best, rtol=1e-6)

    def test_empty_pairs_refused(self, small_config):
        model = tiny_model()
        with pytest.raises(DataError, match="empty"):
            train_compression(model, [], [], small_config, np.random.default_rng(0))

    def test_perplexity_empty_refused(self):
        with pytest.raises(DataError, match="empty"):
            perplexity(tiny_model(), [])

    def test_training_deterministic(self, small_config):
        vocab = word_vocab()
        cfg = small_config
        cfg.compression_epochs = 3
        runs = []
        for _ in range(2):
            model = CompressionModel(len(vocab), 8, np.random.default_rng(7))
            runs.append(train_compression(model, self._pairs(vocab), [], cfg,
                                          np.random.default_rng(8)))
        assert runs[0] == runs[1]


class TestCheckpointing:
    def test_round_trip_preserves_scores(self, tmp_path):
        vocab = word_vocab()
        model = CompressionModel(len(vocab), 8, np.random.default_rng(9), attn_size=5)
        path = tmp_path / "comp.ckpt"
        save_compression(path, model, {"seed": 1}, vocab)
        loaded = load_compression(path, vocab)
        assert loaded.attn_size == 5
        src = encoded(vocab, "alice saw the fox")
        tgt = encoded(vocab, "alice saw")
        np.testing.assert_allclose(s_score(loaded, src, tgt), s_score(model, src, tgt),
                                   rtol=1e-12)

    def test_wrong_vocab_refused(self, tmp_path):
        vocab = word_vocab()
        other = build_vocab([(doc_from(["completely different words here"]),
                              summary_from(["different words"]))], min_count=1)
        model = CompressionModel(len(vocab), 6, np.random.default_rng(10))
        path = tmp_path / "comp.ckpt"
        save_compression(path, model, {}, vocab)
        with pytest.raises(CheckpointError, match="hash"):
            load_compression(path, other)
