"""Extractive sentence labeler: encoding, decoding, ranking, training."""

import numpy as np
import pytest

from latentsum.corpus import UNK, Document, Sentence
from latentsum.errors import CheckpointError, DataError
from latentsum.extractive import (
    EncodedDocument,
    EncoderNoise,
    ExtractiveModel,
    evaluate_rouge_mean,
    label_accuracy,
    load_extractive,
    save_extractive,
    train_extractive,
)
from latentsum.labeling import LabelSequence, oracle_labels
from latentsum.numerics import (
    Tensor,
    backward,
    lstm,
    no_grad,
    slice_axis,
    tensor_sum,
    zero_grads,
)

from conftest import blas_build, doc_from, initial_state, tiny_records, traced_peak
from gradcheck import finite_difference_check


def tiny_model(d=6, vocab_size=16, seed=3, dtype=np.float64):
    return ExtractiveModel(vocab_size, d, np.random.default_rng(seed), dtype=dtype)


def encoded_doc(n_sents=4, seed=11, lengths=None):
    rng = np.random.default_rng(seed)
    sentences = []
    for k in range(n_sents if lengths is None else len(lengths)):
        n = int(rng.integers(2, 6)) if lengths is None else lengths[k]
        ids = tuple(int(i) for i in rng.integers(4, 12, size=n))
        sentences.append(Sentence(tokens=tuple(f"t{i}" for i in ids), ids=ids))
    return Document(id="d", sentences=tuple(sentences))


def split_of(words, seed, sentence_words=(5, 40), sentences_per_doc=25):
    """Documents of ``sentences_per_doc`` sentences of ``sentence_words``
    words (at most), ``words`` words in all: the last sentence is cut to fit."""
    rng = np.random.default_rng(seed)
    docs, lengths, left = [], [], words
    while left:
        lengths.append(min(int(rng.integers(sentence_words[0], sentence_words[1] + 1)), left))
        left -= lengths[-1]
        if len(lengths) == sentences_per_doc or not left:
            doc = encoded_doc(lengths=lengths, seed=seed * 1000 + len(docs))
            docs.append(Document(id=f"s{seed}d{len(docs)}", sentences=doc.sentences))
            lengths = []
    return docs


def doc_packs(docs):
    """The documents of each pack that selection encodes together."""
    return [docs[start:end] for start, end in
            lstm.packs([sum(len(s.tokens) for s in doc.sentences) for doc in docs])]


def stepwise_mean(model, ids):
    """Reference pooling: LSTMCell.step over one sentence in each direction."""
    from latentsum.numerics import embedding_lookup, slice_axis
    rows = embedding_lookup(model.embed, list(ids))

    def states(cell, order):
        h, c = initial_state(cell)
        out = {}
        for t in order:
            h, c = cell.step(slice_axis(rows, 0, t, t + 1), h, c)
            out[t] = h.data[0]
        return np.stack([out[t] for t in range(len(ids))])

    fwd = states(model.word_fwd, range(len(ids)))
    bwd = states(model.word_bwd, reversed(range(len(ids))))
    return np.concatenate([fwd, bwd], axis=1).mean(axis=0)


def chosen_labels(model, enc, feed, teacher=None, rng=None):
    """The labels a feed mode scores: the given ``teacher`` labels, greedy
    ones, or ones sampled with one draw off ``rng`` per row of ``enc``."""
    if feed == "teacher":
        return teacher
    return model.choose_labels(enc, rng.random(len(enc)) if feed == "sample" else None)[0]


def stepwise_decode(model, enc, feed, teacher=None, rng=None):
    """Reference label decode: one LSTMCell.step graph per sentence.

    Returns the (n, 2) log-probs, the labels and the (n, d) states.
    """
    from latentsum.numerics import concat, log_softmax, matmul, slice_axis, transpose
    h, c = initial_state(model.dec)
    prev = 0
    log_probs, labels, states = [], [], []
    for i in range(len(enc)):
        emb = transpose(slice_axis(model.w_e, 1, prev, prev + 1))
        h, c = model.dec.step(concat([emb, slice_axis(enc.h_e, 0, i, i + 1)], axis=1), h, c)
        lp = log_softmax(matmul(h, transpose(model.w_o)), axis=1)
        if feed == "teacher":
            prev = teacher[i]
        elif feed == "greedy":
            prev = int(np.argmax(lp.data[0]))
        else:
            prev = int(rng.random() < np.exp(lp.data[0, 1]))
        log_probs.append(lp)
        labels.append(prev)
        states.append(h)
    return concat(log_probs, axis=0), labels, concat(states, axis=0)


class TestEncoding:
    def test_sentence_encoding_shape(self):
        model = tiny_model()
        s = Sentence(tokens=("a",), ids=(5,))
        assert model._pool_sentences([s]).data.shape == (1, 2 * model.d)

    def test_requires_ids(self):
        model = tiny_model()
        with pytest.raises(DataError, match="ids"):
            model._pool_sentences([Sentence(tokens=("a",))])

    def test_single_token_mean_is_the_state_itself(self):
        model = tiny_model()
        s = Sentence(tokens=("a",), ids=(7,))
        enc = model._pool_sentences([s])
        # with one word the mean over positions is that position
        from latentsum.numerics import run_bilstm, embedding_lookup
        states = run_bilstm(model.word_fwd, model.word_bwd,
                            embedding_lookup(model.embed, [7]), [1])
        np.testing.assert_allclose(enc.data, states.data, rtol=1e-12)

    def test_pooling_matches_each_sentence_alone(self):
        # packed sentences of unequal length: pooling must average only a
        # sentence's own words and the backward pass must start at its last word
        model = tiny_model()
        doc = encoded_doc(lengths=[2, 5, 1, 3])
        pooled = model._pool_sentences(doc.sentences)
        assert pooled.data.shape == (4, 2 * model.d)
        for row, sentence in zip(pooled.data, doc.sentences):
            alone = model._pool_sentences([sentence])
            np.testing.assert_allclose(row[None, :], alone.data, rtol=0, atol=1e-10)
            np.testing.assert_allclose(row, stepwise_mean(model, sentence.ids),
                                       rtol=0, atol=1e-10)

    def test_word_order_matters(self):
        model = tiny_model()
        a = model._pool_sentences([Sentence(tokens=("x", "y"), ids=(5, 6))])
        b = model._pool_sentences([Sentence(tokens=("y", "x"), ids=(6, 5))])
        assert not np.allclose(a.data, b.data)

    def test_word_dropout_one_maps_everything_to_unk(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        doc = Document(id="x", sentences=(Sentence(tokens=("x", "y"), ids=(5, 6)),))
        dropped = model.encode_documents([doc], [model.draw_noise(doc, rng, word_dropout=1.0)])
        unk = Document(id="u", sentences=(Sentence(tokens=("u", "u"), ids=(UNK, UNK)),))
        np.testing.assert_array_equal(dropped.v.data, model.encode_document(unk).v.data)

    def test_document_encoding_lengths(self):
        model = tiny_model()
        doc = encoded_doc(n_sents=5)
        enc = model.encode_document(doc)
        assert len(enc) == 5
        assert enc.v.shape == (5, model.d)
        assert enc.h_e.shape == (5, 2 * model.d)

    def test_document_encoding_deterministic_in_eval(self):
        model = tiny_model()
        doc = encoded_doc()
        a = model.encode_document(doc)
        b = model.encode_document(doc)
        np.testing.assert_array_equal(a.h_e.data, b.h_e.data,
                                      err_msg=f"h_e differs on re-encode (BLAS {blas_build()})")


class TestDecoding:
    def test_distributions_normalized(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc())
        dec = model.decode_labels(enc, model.choose_labels(enc)[0])
        assert dec.log_probs.shape == (len(dec.labels), 2)
        for lp in dec.log_probs.data:
            np.testing.assert_allclose(np.exp(lp).sum(), 1.0, atol=1e-6)

    def test_zero_output_matrix_gives_uniform(self):
        model = tiny_model()
        model.w_o.data = np.zeros_like(model.w_o.data)
        enc = model.encode_document(encoded_doc())
        dec = model.decode_labels(enc, model.choose_labels(enc)[0])
        for lp in dec.log_probs.data:
            np.testing.assert_allclose(np.exp(lp), [0.5, 0.5], atol=1e-12)

    def test_teacher_labels_change_later_steps(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc(n_sents=3))
        a = model.decode_labels(enc, (0, 0, 0))
        b = model.decode_labels(enc, (1, 0, 0))
        # first step sees the same start label either way
        np.testing.assert_allclose(a.log_probs.data[0], b.log_probs.data[0])
        assert not np.allclose(a.log_probs.data[1], b.log_probs.data[1])

    def test_teacher_requires_matching_length(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc(n_sents=3))
        with pytest.raises(DataError, match="length"):
            model.decode_labels(enc, (0, 1))

    def test_sample_feed_deterministic_given_seed(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc())
        a = model.choose_labels(enc, np.random.default_rng(9).random(len(enc)))[0]
        b = model.choose_labels(enc, np.random.default_rng(9).random(len(enc)))[0]
        assert a == b

    def test_greedy_labels_match_argmax(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc())
        dec = model.decode_labels(enc, model.choose_labels(enc)[0])
        for lp, label in zip(dec.log_probs.data, dec.labels):
            assert label == int(np.argmax(lp))

    def test_nll_is_sum_of_gold_logprobs(self):
        model = tiny_model()
        enc = model.encode_document(encoded_doc(n_sents=3))
        gold = (1, 0, 1)
        loss = model.nll_loss(enc, gold)
        dec = model.decode_labels(enc, gold)
        manual = -sum(lp[y] for lp, y in zip(dec.log_probs.data, gold))
        np.testing.assert_allclose(float(loss.data), manual, rtol=1e-12)


class TestStepwiseOracle:
    """decode_labels against the LSTMCell.step reference."""

    @pytest.mark.parametrize("feed", ["teacher", "greedy", "sample"])
    def test_decode_matches_stepwise_reference(self, feed):
        for seed in range(6):
            model = tiny_model(seed=seed)
            doc = encoded_doc(n_sents=2 + seed, seed=30 + seed)
            teacher = [int(v) for v in np.random.default_rng(seed).integers(0, 2, len(doc.sentences))]
            with no_grad():
                enc = model.encode_document(doc)
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                dec = model.decode_labels(enc, chosen_labels(model, enc, feed, teacher, rng_a))
                ref_lp, ref_labels, ref_h = stepwise_decode(model, enc, feed, teacher, rng_b)
            assert dec.labels == ref_labels
            np.testing.assert_allclose(dec.log_probs.data, ref_lp.data, rtol=0, atol=1e-10)
            np.testing.assert_allclose(dec.h_d.data, ref_h.data, rtol=0, atol=1e-10)
            assert dec.h_d.shape == (len(doc.sentences), model.d)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_teacher_nll_gradients_match_stepwise_reference(self):
        from latentsum.numerics import gather_rows, tensor_sum, zero_grads
        model = tiny_model(seed=12)
        doc = encoded_doc(n_sents=5, seed=44)
        gold = (1, 0, 0, 1, 1)
        grads = []
        for decode in ("decode_labels", "stepwise"):
            zero_grads(model.parameters())
            enc = model.encode_document(doc)
            if decode == "stepwise":
                log_probs, labels, _ = stepwise_decode(model, enc, "teacher", gold)
                loss = -tensor_sum(gather_rows(log_probs, labels))
            else:
                loss = model.nll_loss(enc, gold)
            backward(loss)
            grads.append({p.name: p.grad_or_zeros().copy() for p in model.parameters()})
        for name, grad in grads[0].items():
            assert grad.any(), name
            np.testing.assert_allclose(grad, grads[1][name], rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("feed", ["greedy", "sample"])
    def test_float32_labels_equal_stepwise_reference(self, feed):
        # the label-choice loop rounds differently from the reference only
        # in the last bits, so the labels and the draws agree exactly
        for seed in range(6):
            model = tiny_model(d=16, seed=seed, dtype=np.float32)
            with no_grad():
                enc = model.encode_document(encoded_doc(n_sents=8, seed=60 + seed))
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                labels = chosen_labels(model, enc, feed, rng=rng_a)
                _, ref_labels, _ = stepwise_decode(model, enc, feed, rng=rng_b)
            assert labels == ref_labels
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("feed", ["greedy", "sample"])
    def test_float32_wide_choice_matches_stepwise_reference(self, feed):
        # at d=64 in float32 the labels agree, and p(y = 1) to a few float32
        # ulps of 0.5 (1e-6 stated; up to 1.8e-7 measured)
        atol = 1e-6
        for seed in range(4):
            model = tiny_model(d=64, seed=seed, dtype=np.float32)
            for p in model.parameters():
                p.data = p.data * 3  # p(y = 1) moves off 0.5, so labels vary
            with no_grad():
                enc = model.encode_document(encoded_doc(n_sents=12, seed=80 + seed))
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                draws = rng_a.random(len(enc)) if feed == "sample" else None
                labels, probs = model.choose_labels(enc, draws)
                ref_lp, ref_labels, _ = stepwise_decode(model, enc, feed, rng=rng_b)
            assert labels == ref_labels
            assert probs.dtype == np.float32
            np.testing.assert_allclose(probs, np.exp(ref_lp.data[:, 1]), rtol=0, atol=atol)


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

    @pytest.mark.parametrize("seed", range(24))
    def test_probabilities_match_the_scoring_pass(self, seed):
        # select_top_k reads p(y_i = 1) off choose_labels' steps; the
        # teacher-forced pass over the same labels gives them up to rounding
        rng = np.random.default_rng(seed)
        model = tiny_model(d=8, seed=seed, dtype=np.float32)
        doc = encoded_doc(lengths=rng.integers(1, 9, size=int(rng.integers(1, 10))).tolist(),
                          seed=seed)
        top = model.select_top_k(doc, 3)
        with no_grad():
            enc = model.encode_document(doc)
            dec = model.decode_labels(enc, model.choose_labels(enc)[0])
        probs = np.exp(dec.log_probs.data[:, 1]).tolist()
        ranked = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
        np.testing.assert_allclose(top.prob_true, probs, rtol=1e-5)
        assert top.indices == tuple(sorted(ranked[:3]))

    def test_runs_without_the_scoring_pass(self, monkeypatch):
        model = tiny_model()
        doc = encoded_doc(n_sents=6)
        before = model.select_top_k(doc, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("select_top_k ran decode_labels' scoring pass")

        monkeypatch.setattr(ExtractiveModel, "decode_labels", refuse)
        after = model.select_top_k(doc, 3)
        assert after.indices == before.indices
        assert after.prob_true == before.prob_true

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
        gold = (1, 0)
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
        np.testing.assert_array_equal(a.prob_true, b.prob_true,
                                      err_msg=f"prob_true differs after load (BLAS {blas_build()})")

    def test_float64_round_trip_is_bit_exact(self, tmp_path):
        _, vocab = tiny_records()
        model = tiny_model(vocab_size=len(vocab), dtype=np.float64)
        path = tmp_path / "ext.ckpt"
        save_extractive(path, model, {}, vocab)
        loaded = load_extractive(path, vocab)
        assert loaded.dtype is np.float64
        for got, want in zip(loaded.parameters(), model.parameters()):
            assert got.data.dtype == np.float64 and got.data.tobytes() == want.data.tobytes()

    def test_wrong_vocab_refused(self, tmp_path):
        records, vocab = tiny_records()
        _, other_vocab = tiny_records(vocab_words=9, seed=8)
        model = ExtractiveModel(len(vocab), 6, np.random.default_rng(1))
        path = tmp_path / "ext.ckpt"
        save_extractive(path, model, {}, vocab)
        with pytest.raises(CheckpointError, match="hash"):
            load_extractive(path, other_vocab)


class TestPackedBatch:
    """Documents packed into one graph against each document alone, in
    float64 and with dropout, so the dropout masks must line up too."""

    TRAINING = {"drop": 0.3, "word_dropout": 0.4}

    @staticmethod
    def _batch():
        # uneven: one-sentence documents and one-word sentences
        docs = [encoded_doc(lengths=[3, 1, 4], seed=1), encoded_doc(lengths=[2], seed=2),
                encoded_doc(lengths=[5, 2, 1, 3], seed=3), encoded_doc(lengths=[1], seed=4)]
        golds = [(1, 0, 1), (1,), (0, 1, 1, 0), (0,)]
        return docs, golds

    def test_each_document_matches_itself_alone(self):
        model = tiny_model(seed=8)
        params = model.parameters()
        docs, golds = self._batch()
        alone_rng = np.random.default_rng(5)
        offset = 0
        for doc, gold in zip(docs, golds):
            zero_grads(params)
            noise = [model.draw_noise(doc, alone_rng, **self.TRAINING)]
            alone = model.nll_loss(model.encode_documents([doc], noise), gold)
            backward(alone)
            want = {p.name: p.grad_or_zeros().copy() for p in params}
            # this document's rows of a fresh packed graph, drawn from the same seed
            zero_grads(params)
            rng = np.random.default_rng(5)
            enc = model.encode_documents(docs, [model.draw_noise(doc, rng, **self.TRAINING)
                                                for doc in docs])
            chosen = model.decode_labels(enc, sum(golds, ())).chosen_log_probs()
            packed = -tensor_sum(slice_axis(chosen, 0, offset, offset + len(doc)))
            backward(packed)
            np.testing.assert_allclose(float(packed.data), float(alone.data), rtol=0, atol=1e-10)
            for p in params:
                np.testing.assert_allclose(p.grad_or_zeros(), want[p.name], rtol=0, atol=1e-10,
                                           err_msg=p.name)
            offset += len(doc)
        assert rng.bit_generator.state == alone_rng.bit_generator.state

    def test_documents_do_not_see_each_other(self):
        model = tiny_model(seed=9)
        docs, golds = self._batch()
        with no_grad():
            base = model.decode_labels(model.encode_documents(docs),
                                       sum(golds, ())).log_probs.data
            offset = 0
            for j, doc in enumerate(docs):
                other = Document(id="other", sentences=tuple(
                    Sentence(tokens=s.tokens, ids=tuple(4 + (i + 3) % 8 for i in s.ids))
                    for s in doc.sentences))
                changed = docs[:j] + [other] + docs[j + 1:]
                moved = model.decode_labels(model.encode_documents(changed),
                                            sum(golds, ())).log_probs.data
                mine = slice(offset, offset + len(doc))
                assert np.abs(moved[mine] - base[mine]).max() > 1e-8
                np.testing.assert_array_equal(np.delete(moved, mine, axis=0),
                                              np.delete(base, mine, axis=0))
                offset += len(doc)

    @pytest.mark.parametrize("feed", ["greedy", "sample"])
    def test_chosen_labels_match_each_document_alone(self, feed):
        model = tiny_model(seed=10)
        docs, _ = self._batch()
        docs += [encoded_doc(n_sents=9, seed=5)]
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        with no_grad():
            packed = chosen_labels(model, model.encode_documents(docs), feed, rng=rng_a)
            alone = [y for doc in docs
                     for y in chosen_labels(model, model.encode_document(doc), feed, rng=rng_b)]
        assert packed == alone
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_noise_drawn_beforehand_matches_noise_drawn_inside(self):
        # draw_noise against masks drawn in its documented order: word
        # dropout (one draw per token), then the mask of v, then that of h_e
        model = tiny_model(seed=11)
        docs, _ = self._batch()
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        inside = []
        for doc in docs:
            dropped = rng_a.random(sum(len(s.tokens) for s in doc.sentences)) < 0.4
            v, h_e = ((rng_a.random((len(doc), width)) >= 0.3) / 0.7
                      for width in (model.d, 2 * model.d))
            inside.append(EncoderNoise(dropped, v, h_e))
        inside = model.encode_documents(docs, inside)
        noise = [model.draw_noise(doc, rng_b, **self.TRAINING) for doc in docs]
        before = model.encode_documents(docs, noise)
        np.testing.assert_array_equal(before.v.data, inside.v.data,
                                      err_msg=f"v differs (BLAS {blas_build()})")
        np.testing.assert_array_equal(before.h_e.data, inside.h_e.data,
                                      err_msg=f"h_e differs (BLAS {blas_build()})")
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert all(n.dropped.size == sum(len(s.tokens) for s in doc.sentences)
                   for n, doc in zip(noise, docs))

    def test_draws_given_beforehand_match_draws_off_the_rng(self):
        model = tiny_model(seed=12)
        docs, _ = self._batch()
        with no_grad():
            enc = model.encode_documents(docs)
            rng = np.random.default_rng(6)
            sampled = model.choose_labels(enc, rng.random(len(enc)))[0]
            draws = np.random.default_rng(6).random(len(enc))
            assert model.choose_labels(enc, draws=draws)[0] == sampled
            dec = model.decode_labels(enc, model.choose_labels(enc, draws)[0])
            assert dec.labels == sampled
            with pytest.raises(DataError, match="draws"):
                model.choose_labels(enc, draws=draws[1:])

    def test_teacher_labels_must_match_every_document(self, small_config):
        model = tiny_model()
        docs, golds = self._batch()
        enc = model.encode_documents(docs)
        with pytest.raises(DataError, match="length"):
            model.decode_labels(enc, sum(golds[:-1], ()))
        # the right total but the wrong per-document lengths: training
        # refuses them where the labels enter
        docs = [Document(id=f"d{j}", sentences=doc.sentences) for j, doc in enumerate(docs)]
        shifted = {doc.id: LabelSequence(gold) for doc, gold in zip(docs, golds[1:] + golds[:1])}
        with pytest.raises(DataError, match="'d0' has 3 sentences but 1 oracle labels"):
            train_extractive(model, [(doc, None) for doc in docs], shifted, [], small_config,
                             np.random.default_rng(0))


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
            assert set(row) == {"epoch", "train_loss", "train_acc", "val_rouge_mean",
                                "grad_norm_mean", "clipped_share"}

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

    def test_wrong_label_length_refused_before_any_step(self, small_config):
        records, labels, model = self._setup(small_config)
        # the bad document falls in the epoch's second minibatch
        order = np.random.default_rng(0).permutation(len(records))
        assert len(records) > small_config.batch_size
        bad = records[int(order[-1])][0]
        labels[bad.id] = LabelSequence((0,) * (len(bad) + 1))
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(DataError, match=f"{bad.id!r} has {len(bad)} sentences"):
            train_extractive(model, records, labels, [], small_config,
                             np.random.default_rng(0))
        for p, data in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, data,
                                          err_msg=f"{p.name} (BLAS {blas_build()})")

    def test_early_stop_on_train_accuracy(self, small_config):
        records, labels, model = self._setup(small_config)
        cfg = small_config
        cfg.extractive_epochs = 50
        cfg.stop_at_train_acc = 0.0  # met immediately
        metrics = train_extractive(model, records, labels, [], cfg,
                                   np.random.default_rng(0))
        assert len(metrics) == 1

    def test_generator_state_after_an_epoch_matches_per_document_draws(self, small_config):
        records, labels, model = self._setup(small_config, n_docs=7)
        cfg = small_config
        cfg.extractive_epochs = 1
        cfg.batch_size = 3
        rng = np.random.default_rng(21)
        train_extractive(model, records, labels, records[:2], cfg, rng)
        ref = np.random.default_rng(21)
        for idx in ref.permutation(len(records)):
            doc = records[idx][0]
            for sentence in doc.sentences:
                for _ in sentence.ids:
                    ref.random()  # word dropout, one draw per token
            ref.random((len(doc), cfg.d))  # the mask of v
            ref.random((len(doc), 2 * cfg.d))  # the mask of h_e
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_label_accuracy_bounds(self, small_config):
        records, labels, model = self._setup(small_config)
        acc = label_accuracy(model, records, labels)
        assert 0.0 <= acc <= 1.0

    def test_label_accuracy_skips_the_scoring_pass(self, small_config, monkeypatch):
        records, labels, model = self._setup(small_config)
        hits = total = 0
        with no_grad():
            for doc, _ in records:
                enc = model.encode_document(doc)
                dec = model.decode_labels(enc, model.choose_labels(enc)[0])
                hits += sum(int(p == g) for p, g in zip(dec.labels, labels[doc.id].labels))
                total += len(doc)

        def refuse(*args, **kwargs):
            raise AssertionError("label_accuracy ran decode_labels' scoring pass")

        monkeypatch.setattr(ExtractiveModel, "decode_labels", refuse)
        assert label_accuracy(model, records, labels) == hits / total

    def test_evaluate_rouge_mean_empty(self):
        assert evaluate_rouge_mean(tiny_model(), [], 3) == 0.0


class TestPacksCannotChangeBits:
    """A document's labels and p(y_i = 1) from any pack equal, bit for bit,
    what it gets alone: no row of the encoder or of the label chooser
    depends on the other rows of its pack."""

    SETTINGS = [(16, np.float32), (64, np.float32), (6, np.float64)]

    @staticmethod
    def _docs(seed, n_docs=13):
        # one-sentence documents and one-word sentences among longer ones
        rng = np.random.default_rng(seed)
        docs = []
        for j in range(n_docs):
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 8))).tolist()
            if j % 4 == 0:
                lengths = lengths[:1]
            if j % 3 == 0:
                lengths = [1] * len(lengths)
            doc = encoded_doc(lengths=lengths, seed=seed * 100 + j)
            docs.append(Document(id=f"d{j}", sentences=doc.sentences))
        return docs

    @pytest.mark.parametrize("d,dtype", SETTINGS)
    def test_select_top_k_equals_every_pack(self, d, dtype):
        model = tiny_model(d=d, seed=d, dtype=dtype)
        docs = self._docs(d)
        alone = [model.select_top_k(doc, 3) for doc in docs]
        with no_grad():
            encoded = [model.encode_document(doc) for doc in docs]
        for size in (1, 2, 5, len(docs)):
            for start in range(0, len(docs), size):
                pack = docs[start : start + size]
                with no_grad():
                    enc = model.encode_documents(pack)
                    labels, probs = model.choose_labels(enc)
                end = 0
                for doc, top, own in zip(pack, alone[start:], encoded[start:]):
                    end += len(doc)
                    rows = slice(end - len(doc), end)
                    where = f"pack of {size}, {doc.id} (BLAS {blas_build()})"
                    assert enc.v.data[rows].tobytes() == own.v.data.tobytes(), where
                    assert enc.h_e.data[rows].tobytes() == own.h_e.data.tobytes(), where
                    assert probs[rows].tolist() == list(top.prob_true), where
                assert labels == [y for doc in pack for y in model.greedy_labels([doc])[0][0]]
        assert model.select_top_k_each(docs, 3) == alone

    @pytest.mark.parametrize("d,dtype", SETTINGS)
    def test_tiled_choice_equals_each_draw(self, d, dtype):
        model = tiny_model(d=d, seed=d + 1, dtype=dtype)
        draws_per_doc = 40
        for doc in self._docs(d + 1, n_docs=5):
            with no_grad():
                enc = model.encode_document(doc)
            n = len(enc)
            tiled = EncodedDocument(v=Tensor(np.tile(enc.v.data, (draws_per_doc, 1))),
                                    h_e=Tensor(np.tile(enc.h_e.data, (draws_per_doc, 1))),
                                    lengths=(n,) * draws_per_doc)
            draws = np.random.default_rng(n).random(draws_per_doc * n)
            labels, probs = model.choose_labels(tiled, draws)
            for j in range(draws_per_doc):
                want_labels, want_probs = model.choose_labels(enc, draws[j * n : (j + 1) * n])
                assert labels[j * n : (j + 1) * n] == want_labels
                assert probs[j * n : (j + 1) * n].tobytes() == want_probs.tobytes(), \
                    f"draw {j} of {doc.id} (BLAS {blas_build()})"

    @pytest.mark.parametrize("d,dtype", SETTINGS)
    def test_documents_beside_a_pack_boundary_get_their_bits_alone(self, d, dtype):
        # short sentences, so a pack's first steps are wider than a run of
        # the recurrence's projection; a document that would straddle the
        # budget starts the next pack
        model = tiny_model(d=d, seed=d + 2, dtype=dtype)
        docs = split_of(lstm.PACK_WORDS + 1500, seed=d, sentence_words=(1, 16),
                        sentences_per_doc=40)
        packs = doc_packs(docs)
        first_words = sum(len(s.tokens) for doc in packs[0] for s in doc.sentences)
        boundary = packs[1][0]
        assert len(packs) == 2
        assert first_words + sum(len(s.tokens) for s in boundary.sentences) \
            > lstm.PACK_WORDS
        assert sum(len(doc) for doc in packs[0]) > lstm.RUN_ROWS
        alone = [model.select_top_k(doc, 3) for doc in docs]
        assert model.select_top_k_each(docs, 3) == alone, f"BLAS {blas_build()}"

    def test_packs_hold_at_most_the_word_budget(self, monkeypatch):
        monkeypatch.setattr(lstm, "PACK_WORDS", 10)
        docs = [encoded_doc(lengths=lengths, seed=j) for j, lengths in
                enumerate([[3, 2], [4], [1], [12], [5, 5], [6]])]
        packs = doc_packs(docs)
        assert [[docs.index(doc) for doc in pack] for pack in packs] == \
            [[0, 1, 2], [3], [4], [5]]
        model = tiny_model()
        passes = []
        choose = ExtractiveModel.choose_labels

        def counting(self, enc, draws=None):
            passes.append(enc.lengths)
            return choose(self, enc, draws)

        monkeypatch.setattr(ExtractiveModel, "choose_labels", counting)
        tops = model.select_top_k_each(docs, 2)
        assert passes == [(2, 1, 1), (1,), (2,), (1,)]
        assert tops == [model.select_top_k(doc, 2) for doc in docs]


class TestSelectionMemory:
    """A selection pass's memory grows with its pack, not with the split:
    greedy_labels under tracemalloc at d=64 in float32."""

    # the peak per pack word over one full 1,024-word pack of split_of's
    # documents when the recurrence projected every row of a pack at once
    # and copied its states to transpose them (3.73 MB, 3,647 bytes a word)
    BYTES_PER_WORD = 3647

    @staticmethod
    def _peak(docs):
        model = tiny_model(d=64, seed=64, dtype=np.float32)
        model.greedy_labels(split_of(200, seed=9))  # first-call allocations
        return traced_peak(lambda: model.greedy_labels(docs))[1]

    def test_a_full_pack_peaks_below_the_old_bytes_per_word(self):
        docs = split_of(lstm.PACK_WORDS, seed=1)
        assert len(doc_packs(docs)) == 1
        assert self._peak(docs) / lstm.PACK_WORDS <= self.BYTES_PER_WORD

    def test_the_peak_does_not_grow_with_the_split(self):
        docs = split_of(lstm.PACK_WORDS, seed=2)
        assert len(doc_packs(docs * 8)) == 8
        # the labels and p(y_i = 1) of 7 more packs' documents are a few KB
        assert self._peak(docs * 8) <= 1.05 * self._peak(docs)

    def test_one_long_document_stays_below_the_old_bytes_per_word(self):
        words = 10_000
        docs = split_of(words, seed=3, sentences_per_doc=words)
        assert len(docs) == 1
        assert self._peak(docs) / words <= self.BYTES_PER_WORD
