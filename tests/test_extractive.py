"""Extractive sentence labeler: encoding, decoding, ranking, training."""

import numpy as np
import pytest

from latentsum.corpus import UNK, Sentence
from latentsum.errors import CheckpointError, DataError
from latentsum.extractive import (
    ExtractiveModel,
    evaluate_rouge_mean,
    label_accuracy,
    load_extractive,
    save_extractive,
    train_extractive,
)
from latentsum.labeling import LabelSequence, oracle_labels
from latentsum.numerics import backward, finite_difference_check, no_grad

from conftest import doc_from, tiny_records


def tiny_model(d=6, vocab_size=16, seed=3, dtype=np.float64):
    return ExtractiveModel(vocab_size, d, np.random.default_rng(seed), dtype=dtype)


def encoded_doc(n_sents=4, seed=11):
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n_sents):
        ids = tuple(int(i) for i in rng.integers(4, 12, size=int(rng.integers(2, 6))))
        sentences.append(Sentence(tokens=tuple(f"t{i}" for i in ids), ids=ids))
    from latentsum.corpus import Document
    return Document(id="d", sentences=tuple(sentences))


class TestEncoding:
    def test_sentence_encoding_shape(self):
        model = tiny_model()
        s = Sentence(tokens=("a",), ids=(5,))
        assert model.encode_sentence(s).data.shape == (1, 2 * model.d)

    def test_requires_ids(self):
        model = tiny_model()
        with pytest.raises(DataError, match="ids"):
            model.encode_sentence(Sentence(tokens=("a",)))

    def test_single_token_mean_is_the_state_itself(self):
        model = tiny_model()
        s = Sentence(tokens=("a",), ids=(7,))
        enc = model.encode_sentence(s)
        # with one word the mean over positions is that position
        from latentsum.numerics import concat, run_bilstm, split_rows, embedding_lookup
        states, _, _ = run_bilstm(model.word_fwd, model.word_bwd,
                                  split_rows(embedding_lookup(model.embed, [7])))
        np.testing.assert_allclose(enc.data, states[0].data, rtol=1e-12)

    def test_word_order_matters(self):
        model = tiny_model()
        a = model.encode_sentence(Sentence(tokens=("x", "y"), ids=(5, 6)))
        b = model.encode_sentence(Sentence(tokens=("y", "x"), ids=(6, 5)))
        assert not np.allclose(a.data, b.data)

    def test_word_dropout_one_maps_everything_to_unk(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        dropped = model.encode_sentence(
            Sentence(tokens=("x", "y"), ids=(5, 6)),
            rng=rng, training=True, word_dropout=1.0,
        )
        all_unk = model.encode_sentence(Sentence(tokens=("u", "u"), ids=(UNK, UNK)))
        np.testing.assert_array_equal(dropped.data, all_unk.data)

    def test_document_encoding_lengths(self):
        model = tiny_model()
        doc = encoded_doc(n_sents=5)
        enc = model.encode_document(doc)
        assert len(enc) == 5
        assert all(v.data.shape == (1, model.d) for v in enc.v)
        assert all(h.data.shape == (1, 2 * model.d) for h in enc.h_e)

    def test_document_encoding_deterministic_in_eval(self):
        model = tiny_model()
        doc = encoded_doc()
        a = model.encode_document(doc)
        b = model.encode_document(doc)
        for x, y in zip(a.h_e, b.h_e):
            np.testing.assert_array_equal(x.data, y.data)


class TestDecoding:
    def test_distributions_normalized(self):
        model = tiny_model()
        dec = model.decode_labels(model.encode_document(encoded_doc()))
        assert dec.log_probs.shape == (len(dec.labels), 2)
        for lp in dec.log_probs.data:
            np.testing.assert_allclose(np.exp(lp).sum(), 1.0, atol=1e-6)

    def test_zero_output_matrix_gives_uniform(self):
        model = tiny_model()
        model.w_o.data = np.zeros_like(model.w_o.data)
        dec = model.decode_labels(model.encode_document(encoded_doc()))
        for lp in dec.log_probs.data:
            np.testing.assert_allclose(np.exp(lp), [0.5, 0.5], atol=1e-12)

    def test_teacher_labels_change_later_steps(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc(n_sents=3))
        a = model.decode_labels(enc, feed="teacher",
                                teacher_labels=LabelSequence((0, 0, 0)))
        b = model.decode_labels(enc, feed="teacher",
                                teacher_labels=LabelSequence((1, 0, 0)))
        # first step sees the same start label either way
        np.testing.assert_allclose(a.log_probs.data[0], b.log_probs.data[0])
        assert not np.allclose(a.log_probs.data[1], b.log_probs.data[1])

    def test_teacher_requires_matching_length(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc(n_sents=3))
        with pytest.raises(DataError, match="length"):
            model.decode_labels(enc, feed="teacher", teacher_labels=LabelSequence((0, 1)))

    def test_unknown_feed_mode_rejected(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc())
        with pytest.raises(DataError, match="feed"):
            model.decode_labels(enc, feed="beam")

    def test_sample_requires_rng(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc())
        with pytest.raises(DataError, match="rng"):
            model.decode_labels(enc, feed="sample")

    def test_sample_feed_deterministic_given_seed(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc())
        a = model.decode_labels(enc, feed="sample", rng=np.random.default_rng(9))
        b = model.decode_labels(enc, feed="sample", rng=np.random.default_rng(9))
        assert a.labels == b.labels

    def test_greedy_labels_match_argmax(self):
        model = tiny_model()
        dec = model.decode_labels(model.encode_document(encoded_doc()))
        for lp, label in zip(dec.log_probs.data, dec.labels):
            assert label == int(np.argmax(lp))

    def test_nll_is_sum_of_gold_logprobs(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc(n_sents=3))
        gold = LabelSequence((1, 0, 1))
        loss = model.nll_loss(enc, gold)
        dec = model.decode_labels(enc, feed="teacher", teacher_labels=gold)
        manual = -sum(lp[y] for lp, y in zip(dec.log_probs.data, gold.labels))
        np.testing.assert_allclose(float(loss.data), manual, rtol=1e-12)


class TestTopK:
    def test_k_clamped_to_document_length(self):
        model = tiny_model()
        doc = encoded_doc(n_sents=2)
        top = model.select_top_k(doc, 3)
        assert top.indices == (0, 1)

    def test_rejects_k_below_one(self):
        model = tiny_model()
        with pytest.raises(DataError, match="k"):
            model.select_top_k(encoded_doc(), 0)

    def test_indices_in_document_order(self):
        model = tiny_model()
        top = model.select_top_k(encoded_doc(n_sents=6), 3)
        assert list(top.indices) == sorted(top.indices)
        assert len(top.sentences) == 3

    def test_selects_highest_probability_sentences(self):
        model = tiny_model()
        doc = encoded_doc(n_sents=6)
        top = model.select_top_k(doc, 2)
        chosen = set(top.indices)
        worst_chosen = min(top.prob_true[i] for i in chosen)
        for i, p in enumerate(top.prob_true):
            if i not in chosen:
                assert p <= worst_chosen + 1e-12

    def test_ranking_invariant_under_positive_affine_rescale(self):
        # scaling both logits rows by c>0 and shifting by a shared bias
        # preserves the argsort of p(y=1)
        model = tiny_model()
        doc = encoded_doc(n_sents=5)
        before = model.select_top_k(doc, 2)
        model.w_o.data = model.w_o.data * 3.0
        after = model.select_top_k(doc, 2)
        assert np.argsort(before.prob_true).tolist() == np.argsort(after.prob_true).tolist()
        assert before.indices == after.indices


class TestGradients:
    def test_nll_gradcheck(self):
        model = tiny_model(d=4, vocab_size=8, dtype=np.float64)
        doc = encoded_doc(n_sents=2, seed=21)
        doc = type(doc)(id=doc.id, sentences=tuple(
            Sentence(tokens=s.tokens, ids=tuple(min(i, 7) for i in s.ids))
            for s in doc.sentences
        ))
        gold = LabelSequence((1, 0))
        rng = np.random.default_rng(2)

        def loss_fn():
            return model.nll_loss(model.encode_document(doc), gold)

        report = finite_difference_check(model.parameters(), loss_fn, rng, num_coords=80)
        assert report.passed, report.failures


class TestCheckpointing:
    def test_round_trip_preserves_outputs(self, tmp_path):
        records, vocab = tiny_records()
        model = ExtractiveModel(len(vocab), 6, np.random.default_rng(1))
        path = tmp_path / "ext.ckpt"
        save_extractive(path, model, {"seed": 13}, vocab)
        loaded = load_extractive(path, vocab)
        doc, _ = records[0]
        a = model.select_top_k(doc, 2)
        b = loaded.select_top_k(doc, 2)
        assert a.indices == b.indices
        np.testing.assert_array_equal(a.prob_true, b.prob_true)

    def test_wrong_vocab_refused(self, tmp_path):
        records, vocab = tiny_records()
        _, other_vocab = tiny_records(vocab_words=9, seed=8)
        model = ExtractiveModel(len(vocab), 6, np.random.default_rng(1))
        path = tmp_path / "ext.ckpt"
        save_extractive(path, model, {}, vocab)
        with pytest.raises(CheckpointError, match="hash"):
            load_extractive(path, other_vocab)


class TestTraining:
    def _setup(self, small_config, n_docs=6):
        records, vocab = tiny_records(n_docs=n_docs, n_sents=4, seed=2)
        labels = {
            doc.id: oracle_labels(doc, summary, max_select=small_config.max_select)
            for doc, summary in records
        }
        model = ExtractiveModel(len(vocab), small_config.d, np.random.default_rng(small_config.seed))
        return records, labels, model

    def test_loss_decreases(self, small_config):
        records, labels, model = self._setup(small_config)
        cfg = small_config
        cfg.extractive_epochs = 8
        metrics = train_extractive(model, records, labels, [], cfg,
                                   np.random.default_rng(cfg.seed))
        assert metrics[-1]["train_loss"] < metrics[0]["train_loss"]

    def test_metrics_schema_and_determinism(self, small_config):
        records, labels, model_a = self._setup(small_config)
        m1 = train_extractive(model_a, records, labels, records[:2], small_config,
                              np.random.default_rng(0))
        _, _, model_b = self._setup(small_config)
        m2 = train_extractive(model_b, records, labels, records[:2], small_config,
                              np.random.default_rng(0))
        assert m1 == m2
        for row in m1:
            assert set(row) == {"epoch", "train_loss", "train_acc", "val_rouge_mean"}

    def test_validation_selects_best(self, small_config):
        # train toward the last sentence while validating against the first
        # (the gold summary), so validation falls after its early best
        records, _, model = self._setup(small_config)
        labels = {doc.id: LabelSequence((0, 0, 0, 1)) for doc, _ in records}
        cfg = small_config
        cfg.extractive_epochs = 4
        cfg.extractive_lr = 0.03
        cfg.max_select = 1
        val = records[:3]
        metrics = train_extractive(model, records, labels, val, cfg, np.random.default_rng(0))
        best = max(m["val_rouge_mean"] for m in metrics)
        assert metrics[-1]["val_rouge_mean"] < best
        np.testing.assert_allclose(evaluate_rouge_mean(model, val, cfg.max_select), best,
                                   rtol=1e-6)

    def test_empty_corpus_refused(self, small_config):
        model = tiny_model()
        with pytest.raises(DataError, match="empty"):
            train_extractive(model, [], {}, [], small_config, np.random.default_rng(0))

    def test_missing_labels_refused(self, small_config):
        records, labels, model = self._setup(small_config)
        del labels[records[0][0].id]
        with pytest.raises(DataError, match="labels"):
            train_extractive(model, records, labels, [], small_config,
                             np.random.default_rng(0))

    def test_early_stop_on_train_accuracy(self, small_config):
        records, labels, model = self._setup(small_config)
        cfg = small_config
        cfg.extractive_epochs = 50
        cfg.stop_at_train_acc = 0.0  # met immediately
        metrics = train_extractive(model, records, labels, [], cfg,
                                   np.random.default_rng(0))
        assert len(metrics) == 1

    def test_label_accuracy_bounds(self, small_config):
        records, labels, model = self._setup(small_config)
        acc = label_accuracy(model, records, labels)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_rouge_mean_empty(self):
        assert evaluate_rouge_mean(tiny_model(), [], 3) == 0.0
