"""REINFORCE refinement: rewards, sampling, surrogate, exact enumeration."""

import dataclasses
import itertools

import numpy as np
import pytest

from latentsum.compression import CompressionModel, s_score_matrix
from latentsum.corpus import Document, Sentence, SummarySet
from latentsum.errors import DataError
from latentsum.extractive import ExtractiveModel
from latentsum.latent import (
    BaselineModel,
    RewardBreakdown,
    _selected_logprob_sum,
    exhaustive_expectation,
    reinforce_step,
    reward,
    reward_from_matrix,
    surrogate_loss,
    train_latent,
)
from latentsum.numerics import (
    backward,
    constant,
    mul,
    no_grad,
    tensor_sum,
    zero_grads,
)

from conftest import blas_build, tiny_records
from gradcheck import finite_difference_check


def ids_sentence(ids):
    ids = tuple(int(i) for i in ids)
    return Sentence(tokens=tuple(f"w{i}" for i in ids), ids=ids)


def tiny_doc(n_sents=3, seed=19, vocab_size=10):
    rng = np.random.default_rng(seed)
    sents = tuple(
        ids_sentence(rng.integers(4, vocab_size, size=int(rng.integers(2, 5))))
        for _ in range(n_sents)
    )
    return Document(id="d", sentences=sents)


def tiny_summary(seed=23, vocab_size=10):
    rng = np.random.default_rng(seed)
    return SummarySet(sentences=(
        ids_sentence(rng.integers(4, vocab_size, size=3)),
        ids_sentence(rng.integers(4, vocab_size, size=2)),
    ))


def policy(d=4, vocab_size=10, seed=1, dtype=np.float64):
    return ExtractiveModel(vocab_size, d, np.random.default_rng(seed), dtype=dtype)


def scorer(d=4, vocab_size=10, seed=2, dtype=np.float64):
    return CompressionModel(vocab_size, d, np.random.default_rng(seed), dtype=dtype)


def always_select_model(d=4, vocab_size=10):
    """Decoder rigged so p(select)=1.0 exactly at every step."""
    model = policy(d=d, vocab_size=vocab_size)
    cell = model.dec
    cell.w_x.data = np.zeros_like(cell.w_x.data)
    cell.w_h.data = np.zeros_like(cell.w_h.data)
    b = np.zeros((1, 4 * d))
    b[0, :d] = 10.0      # input gate open
    b[0, d:2 * d] = -10.0  # forget gate shut
    b[0, 2 * d:3 * d] = 10.0  # candidate saturated
    b[0, 3 * d:] = 10.0  # output gate open
    cell.b.data = b
    w_o = np.zeros((2, d))
    w_o[0, :] = -200.0
    w_o[1, :] = 200.0
    model.w_o.data = w_o
    return model


class TestRewardAlgebra:
    def test_hand_matrix(self):
        s = np.array([[0.2, 0.8], [0.6, 0.4]])
        out = reward_from_matrix(s, alpha=0.5)
        assert out.r_p == pytest.approx(0.7)  # mean of row maxima 0.8, 0.6
        assert out.r_r == pytest.approx(0.7)  # mean of column maxima 0.6, 0.8
        assert out.r == pytest.approx(0.7)

    def test_single_cell(self):
        for alpha in (0.0, 0.3, 1.0):
            out = reward_from_matrix(np.array([[0.42]]), alpha)
            assert out.r_p == out.r_r == out.r == pytest.approx(0.42)

    def test_alpha_endpoints(self):
        s = np.array([[0.9, 0.1], [0.2, 0.5]])
        assert reward_from_matrix(s, 1.0).r == reward_from_matrix(s, 1.0).r_p
        assert reward_from_matrix(s, 0.0).r == reward_from_matrix(s, 0.0).r_r

    def test_empty_selection_scores_zero(self):
        model = scorer()
        out = reward(model, [], tiny_summary(), alpha=0.5)
        assert out.r == out.r_p == out.r_r == 0.0
        assert out.s_matrix.shape == (0, 2)

    def test_bounds_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            s = rng.uniform(1e-6, 1.0, size=(rows, cols))
            alpha = float(rng.uniform())
            out = reward_from_matrix(s, alpha)
            assert 0.0 <= out.r <= 1.0
            assert min(out.r_p, out.r_r) - 1e-12 <= out.r <= max(out.r_p, out.r_r) + 1e-12
            assert out.r_p <= s.max() + 1e-12
            assert out.r_r >= s.max(axis=0).min() - 1e-12

    def test_duplicate_row_leaves_recall_term_unchanged(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            s = rng.uniform(0.01, 1.0, size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            dup = np.vstack([s, s[-1:]])
            assert reward_from_matrix(dup, 0.5).r_r == pytest.approx(
                reward_from_matrix(s, 0.5).r_r)

    def test_extra_row_never_decreases_recall_term(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            s = rng.uniform(0.01, 1.0, size=(2, 3))
            grown = np.vstack([s, rng.uniform(0.01, 1.0, size=(1, 3))])
            assert reward_from_matrix(grown, 0.0).r >= reward_from_matrix(s, 0.0).r - 1e-12

    def test_breakdown_validation(self):
        with pytest.raises(DataError, match="alpha"):
            RewardBreakdown(np.zeros((1, 1)), 0.5, 0.5, 0.5, alpha=1.5)
        with pytest.raises(DataError, match="out of"):
            RewardBreakdown(np.zeros((1, 1)), 1.2, 0.5, 0.85, alpha=0.5)
        with pytest.raises(DataError, match="weighted"):
            RewardBreakdown(np.zeros((1, 1)), 0.5, 0.5, 0.9, alpha=0.5)

    def test_matrix_must_be_2d(self):
        with pytest.raises(DataError, match="2-D"):
            reward_from_matrix(np.zeros(3), 0.5)

    def test_reward_matrix_matches_direct_scores(self):
        comp = scorer()
        summary = tiny_summary()
        picked = [ids_sentence([4, 5]), ids_sentence([6, 7, 8])]
        out = reward(comp, picked, summary, alpha=0.5)
        from latentsum.compression import s_score
        for k, c in enumerate(picked):
            for l, h in enumerate(summary.sentences):
                assert out.s_matrix[k, l] == pytest.approx(s_score(comp, c, h))


class TestSampling:
    def test_degenerate_policy_selects_everything(self):
        model = always_select_model()
        doc = tiny_doc(n_sents=4)
        with no_grad():
            enc = model.encode_document(doc)
            draws = np.random.default_rng(0).random(len(enc))
            out = model.decode_labels(enc, model.choose_labels(enc, draws)[0])
        assert out.labels == [1, 1, 1, 1]
        assert out.log_probs.data[:, 1].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_same_seed_same_sample(self):
        model = policy()
        with no_grad():
            enc = model.encode_document(tiny_doc())
            a = model.decode_labels(
                enc, model.choose_labels(enc, np.random.default_rng(17).random(len(enc)))[0])
            b = model.decode_labels(
                enc, model.choose_labels(enc, np.random.default_rng(17).random(len(enc)))[0])
        assert a.labels == b.labels
        assert np.array_equal(a.log_probs.data, b.log_probs.data), \
            f"log-probs differ between same-seed samples (BLAS {blas_build()})"

    def test_sample_frequency_matches_first_step_probability(self):
        model = policy(seed=5)
        doc = tiny_doc(n_sents=2)
        with no_grad():
            enc = model.encode_document(doc)
            probe = model.decode_labels(enc, model.choose_labels(enc)[0])
            p1 = float(np.exp(probe.log_probs.data[0, 1]))
            rng = np.random.default_rng(99)
            n = 1500
            hits = sum(
                model.decode_labels(enc, model.choose_labels(enc, rng.random(len(enc)))[0]).labels[0]
                for _ in range(n)
            )
        se = np.sqrt(p1 * (1.0 - p1) / n)
        assert abs(hits / n - p1) <= 3 * se


class TestSurrogate:
    def test_zero_advantage_means_zero_loss_and_gradient(self):
        model = policy()
        doc = tiny_doc()
        dec = model.decode_labels(model.encode_document(doc), (1, 0, 1))
        loss = surrogate_loss(dec, [0.0, 0.0, 0.0])
        assert float(loss.data) == 0.0
        backward(loss)
        for p in model.parameters():
            if p.grad is not None:
                np.testing.assert_allclose(p.grad, 0.0, atol=1e-15)

    def test_advantage_count_checked(self):
        model = policy()
        enc = model.encode_document(tiny_doc())
        dec = model.decode_labels(enc, model.choose_labels(enc)[0])
        with pytest.raises(DataError, match="advantage"):
            surrogate_loss(dec, [1.0])

    def test_surrogate_gradcheck(self):
        model = policy(seed=7)
        doc = tiny_doc(seed=41)
        z = (1, 0, 1)
        advantages = [0.4, -0.2, 0.9]
        rng = np.random.default_rng(2)

        def loss_fn():
            dec = model.decode_labels(model.encode_document(doc), z)
            return surrogate_loss(dec, advantages)

        report = finite_difference_check(model.parameters(), loss_fn, rng, num_coords=60)
        assert report.passed, report.failures

    def test_baseline_mse_gradcheck(self):
        model = policy(seed=8)
        baseline = BaselineModel(model.d, dtype=np.float64)
        rng = np.random.default_rng(3)
        baseline.w.data = rng.normal(size=baseline.w.data.shape)
        baseline.b.data = rng.normal(size=baseline.b.data.shape)
        doc = tiny_doc(seed=43)
        z = (0, 1, 1)
        r = 0.6

        def loss_fn():
            dec = model.decode_labels(model.encode_document(doc), z)
            values = baseline.predict(dec.h_d)
            residual = values - constant(np.full((len(doc), 1), r))
            return tensor_sum(mul(residual, residual)) * (1.0 / len(doc))

        report = finite_difference_check(baseline.parameters(), loss_fn, rng, num_coords=5)
        assert report.passed, report.failures

    def test_baseline_predict_blocks_gradient_into_policy(self):
        model = policy()
        baseline = BaselineModel(model.d, dtype=np.float64)
        baseline.w.data = baseline.w.data + 0.5
        enc = model.encode_document(tiny_doc())
        dec = model.decode_labels(enc, model.choose_labels(enc)[0])
        loss = tensor_sum(baseline.predict(dec.h_d))
        backward(loss)
        for p in model.parameters():
            assert p.grad is None or not p.grad.any()


class TestReinforceStep:
    def test_accumulates_gradients_and_reports(self, small_config):
        model = policy(seed=9)
        baseline = BaselineModel(model.d, dtype=np.float64)
        comp = scorer(seed=10)
        doc, summary = tiny_doc(seed=45), tiny_summary(seed=46)
        cfg = small_config
        cfg.dropout = 0.0
        cfg.word_dropout = 0.0
        scores = s_score_matrix(comp, doc.sentences, summary.sentences)
        # the seed picks a non-empty mask
        step = reinforce_step(model, baseline, doc, scores, cfg, np.random.default_rng(0))
        backward(step.loss)
        assert len(step.masks[-1]) == len(doc) and sum(step.masks[-1]) > 0
        assert 0.0 <= step.breakdown.r <= 1.0
        assert any(p.grad is not None and p.grad.any() for p in model.parameters())
        assert all(b.grad is not None for b in baseline.parameters())

    def test_no_gradient_reaches_compression(self, small_config):
        model = policy(seed=11)
        baseline = BaselineModel(model.d, dtype=np.float64)
        comp = scorer(seed=12)
        cfg = small_config
        doc = tiny_doc()
        scores = s_score_matrix(comp, doc.sentences, tiny_summary().sentences)
        backward(reinforce_step(model, baseline, doc, scores, cfg, np.random.default_rng(5)).loss)
        for p in comp.parameters():
            assert p.grad is None

    def test_advantages_subtract_baseline(self, small_config):
        # with a perfect constant baseline the policy gradient vanishes
        model = always_select_model()
        baseline = BaselineModel(model.d, dtype=np.float64)
        comp = scorer(seed=13)
        doc, summary = tiny_doc(), tiny_summary()
        cfg = small_config
        cfg.dropout = 0.0
        cfg.word_dropout = 0.0
        # the degenerate policy always selects everything, so R is constant;
        # pin the baseline output to exactly that reward
        from latentsum.latent import reward as reward_fn
        r = reward_fn(comp, list(doc.sentences), summary, cfg.alpha).r
        baseline.b.data = np.array([[r]])
        scores = s_score_matrix(comp, doc.sentences, summary.sentences)
        backward(reinforce_step(model, baseline, doc, scores, cfg, np.random.default_rng(6)).loss)
        for p in model.parameters():
            if p.grad is not None:
                np.testing.assert_allclose(p.grad, 0.0, atol=1e-9)


def per_sample_step(model, baseline, doc, scores, config, rng):
    """Oracle: the sample-by-sample loop the packed step replaced, one
    graph and two backward calls per sample. Returns each sample's mask,
    its reward, the last sample's reports and the diagnostics' means."""
    num_samples = config.num_samples
    masks, rewards, entropies, advantages, values = [], [], [], [], []
    for _ in range(num_samples):
        noise = model.draw_noise(doc, rng, config.dropout, config.word_dropout)
        enc = model.encode_documents([doc], [noise])
        dec = model.decode_labels(enc, model.choose_labels(enc, rng.random(len(doc)))[0])
        breakdown = reward_from_matrix(scores[np.flatnonzero(dec.labels)], config.alpha)
        predicted = baseline.predict(dec.h_d)
        advantage = [breakdown.r - float(v) for v in predicted.data[:, 0]]
        policy_loss = surrogate_loss(dec, advantage)
        backward(policy_loss * (1.0 / num_samples))
        residual = predicted - constant(np.full(predicted.shape, breakdown.r))
        value_loss = tensor_sum(mul(residual, residual)) * (1.0 / len(doc))
        backward(value_loss * (1.0 / num_samples))
        masks.append(tuple(dec.labels))
        rewards.append(breakdown.r)
        log_p = dec.log_probs.data
        entropies.append(-(np.exp(log_p) * log_p).sum(axis=1).mean())
        advantages.append(np.mean(advantage))
        values.append(predicted.data.mean())
    return {
        "masks": tuple(masks),
        "rewards": tuple(rewards),
        "baseline_mse": float(value_loss.data),
        "entropy": float(np.mean(entropies)),
        "picked": float(np.mean([sum(z) for z in masks])),
        "advantage": float(np.mean(advantages)),
        "baseline": float(np.mean(values)),
    }


class TestPackedStep:
    """The k samples of a step as one graph against the per-sample loop,
    in float64 and with dropout and word dropout on, so every sample's
    noise must come off the generator in the loop's order."""

    @pytest.mark.parametrize("num_samples", [1, 3])
    def test_matches_per_sample_loop(self, small_config, num_samples):
        doc, summary = tiny_doc(n_sents=5, seed=51), tiny_summary(seed=52)
        scores = s_score_matrix(scorer(seed=53), doc.sentences, summary.sentences)
        cfg = dataclasses.replace(small_config, dropout=0.3, word_dropout=0.25,
                                  num_samples=num_samples)
        grads, outs, states = [], [], []
        for packed in (True, False):
            model = policy(seed=54)
            baseline = BaselineModel(model.d, dtype=np.float64)
            init = np.random.default_rng(55)
            baseline.w.data = init.normal(scale=0.3, size=baseline.w.data.shape)
            baseline.b.data = np.array([[0.2]])
            rng = np.random.default_rng(56)
            if packed:
                step = reinforce_step(model, baseline, doc, scores, cfg, rng)
                backward(step.loss)
                outs.append({key: getattr(step, key) for key in (
                    "masks", "rewards", "baseline_mse", "entropy", "picked", "advantage",
                    "baseline")})
                assert step.breakdown.r == step.rewards[-1]
            else:
                outs.append(per_sample_step(model, baseline, doc, scores, cfg, rng))
            grads.append({p.name: p.grad_or_zeros().copy()
                          for p in model.parameters() + baseline.parameters()})
            states.append(rng.bit_generator.state)
        packed, alone = outs
        assert packed["masks"] == alone["masks"]
        assert packed["rewards"] == alone["rewards"]
        assert len({sum(z) for z in alone["masks"]}) > 1 or num_samples == 1
        for key in ("baseline_mse", "entropy", "picked", "advantage", "baseline"):
            assert packed[key] == pytest.approx(alone[key], rel=0, abs=1e-12), key
        assert states[0] == states[1]
        assert set(grads[0]) == set(grads[1])
        for name, want in grads[1].items():
            assert want.any(), name
            np.testing.assert_allclose(grads[0][name], want, rtol=0, atol=1e-10,
                                       err_msg=name)

    @pytest.mark.parametrize("num_samples", [1, 4])
    def test_one_encode_and_one_backward_per_document_step(self, small_config, monkeypatch,
                                                           num_samples):
        from latentsum.numerics import optim

        encodes, backwards = [], []
        encode = ExtractiveModel.encode_documents

        def counting_encode(self, docs, *args, **kwargs):
            encodes.append(len(docs))
            return encode(self, docs, *args, **kwargs)

        def counting_backward(loss):
            backwards.append(loss)
            return backward(loss)

        monkeypatch.setattr(ExtractiveModel, "encode_documents", counting_encode)
        monkeypatch.setattr(optim, "backward", counting_backward)
        records, vocab = tiny_records(n_docs=3, n_sents=3, vocab_words=8, seed=6)
        cfg = dataclasses.replace(small_config, num_samples=num_samples, latent_epochs=2)
        model = ExtractiveModel(len(vocab), cfg.d, np.random.default_rng(0))
        comp = CompressionModel(len(vocab), cfg.d, np.random.default_rng(1))
        train_latent(model, BaselineModel(cfg.d), records, comp, cfg, np.random.default_rng(2))
        steps = cfg.latent_epochs * len(records)
        assert encodes == [num_samples] * steps
        assert len(backwards) == steps


class TestExhaustive:
    def test_probability_mass_is_one(self):
        model = policy(seed=14)
        comp = scorer(seed=15)
        out = exhaustive_expectation(model, tiny_doc(n_sents=3), tiny_summary(), comp, 0.5)
        assert abs(out["probability_mass"] - 1.0) < 1e-9
        assert len(out["rewards"]) == 8

    def test_point_mass_policy_expectation_is_that_reward(self):
        model = always_select_model()
        comp = scorer(seed=16)
        doc, summary = tiny_doc(n_sents=3), tiny_summary()
        out = exhaustive_expectation(model, doc, summary, comp, 0.5)
        assert out["expected_reward"] == pytest.approx(out["rewards"][(1, 1, 1)], rel=1e-12)

    def test_rewards_match_independent_scoring(self):
        model = policy(seed=17)
        comp = scorer(seed=18)
        doc, summary = tiny_doc(n_sents=3), tiny_summary()
        out = exhaustive_expectation(model, doc, summary, comp, 0.3)
        for z, r_z in out["rewards"].items():
            picked = [doc.sentences[i] for i, zi in enumerate(z) if zi]
            direct = reward(comp, picked, summary, 0.3).r
            assert r_z == pytest.approx(direct, rel=1e-12)

    def test_expected_reward_is_weighted_sum(self):
        model = policy(seed=19)
        comp = scorer(seed=20)
        doc, summary = tiny_doc(n_sents=3), tiny_summary()
        out = exhaustive_expectation(model, doc, summary, comp, 0.5)
        manual = 0.0
        with no_grad():
            for z, r_z in out["rewards"].items():
                dec = model.decode_labels(model.encode_document(doc), z)
                manual += float(np.exp(_selected_logprob_sum(dec).data)) * r_z
        assert out["expected_reward"] == pytest.approx(manual, rel=1e-12)

    def test_gradient_matches_finite_difference_of_expectation(self):
        model = policy(d=3, seed=21)
        comp = scorer(d=3, seed=22)
        doc, summary = tiny_doc(n_sents=2, seed=47), tiny_summary(seed=48)
        out = exhaustive_expectation(model, doc, summary, comp, 0.5)
        rewards = out["rewards"]

        def expectation():
            total = 0.0
            with no_grad():
                for z, r_z in rewards.items():
                    dec = model.decode_labels(model.encode_document(doc), z)
                    total += float(np.exp(_selected_logprob_sum(dec).data)) * r_z
            return total

        rng = np.random.default_rng(7)
        h = 1e-5
        checked = 0
        for p in model.parameters():
            if p.name not in ("extractive.w_o", "extractive.w_e"):
                continue
            original = p.data
            for idx in rng.choice(original.size, size=3, replace=False):
                values = []
                for value in (original.flat[idx] + h, original.flat[idx] - h):
                    flat = original.reshape(-1).copy()
                    flat[idx] = value
                    p.data = flat.reshape(original.shape)
                    values.append(expectation())
                p.data = original
                up, down = values
                fd = (up - down) / (2 * h)
                got = out["gradient"][p.name].reshape(-1)[idx]
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-8)
                checked += 1
        assert checked == 6

    def test_baseline_neutrality_of_score_function(self):
        # sum_z p(z) d log p(z) = d sum_z p(z) = 0
        model = policy(seed=23)
        doc = tiny_doc(n_sents=3)
        params = model.parameters()
        zero_grads(params)
        for z in itertools.product((0, 1), repeat=3):
            dec = model.decode_labels(model.encode_document(doc), z)
            logp = _selected_logprob_sum(dec)
            backward(logp * float(np.exp(logp.data)))
        for p in params:
            if p.grad is not None:
                assert np.abs(p.grad).max() < 1e-6, p.name
        zero_grads(params)

    def test_refuses_large_documents(self):
        model = policy()
        comp = scorer()
        big = Document(id="big", sentences=tuple(
            ids_sentence([4 + (i % 5)]) for i in range(13)
        ))
        with pytest.raises(DataError, match="exhaustive"):
            exhaustive_expectation(model, big, tiny_summary(), comp, 0.5)


class TestTrainLatent:
    def _records(self, n=3):
        records, vocab = tiny_records(n_docs=n, n_sents=3, vocab_words=8, seed=6)
        return records, vocab

    def test_metrics_and_trace_schema(self, small_config):
        records, vocab = self._records()
        model = ExtractiveModel(len(vocab), small_config.d,
                                np.random.default_rng(0), dtype=np.float64)
        baseline = BaselineModel(small_config.d, dtype=np.float64)
        comp = CompressionModel(len(vocab), small_config.d,
                                np.random.default_rng(1), dtype=np.float64)
        cfg = small_config
        cfg.latent_epochs = 2
        rows = []
        metrics = train_latent(model, baseline, records, comp, cfg,
                               np.random.default_rng(2), trace_sink=rows.append)
        assert len(metrics) == 2
        assert len(rows) == 2 * len(records)
        for row in rows:
            assert set(row) == {"epoch", "doc_id", "r_p", "r_r", "r", "baseline_mse",
                                "entropy", "picked", "advantage", "baseline"}
            assert 0.0 <= row["entropy"] <= np.log(2.0)
            assert 0.0 <= row["picked"] <= 3.0
        for m in metrics:
            assert set(m) == {"epoch", "mean_reward", "mean_r_p", "mean_r_r",
                              "mean_baseline_mse", "grad_norm_mean", "clipped_share",
                              "baseline_grad_norm_mean", "baseline_clipped_share"}
            assert m["grad_norm_mean"] > 0.0
            assert 0.0 <= m["clipped_share"] <= 1.0
            assert m["baseline_grad_norm_mean"] > 0.0
            assert 0.0 <= m["baseline_clipped_share"] <= 1.0

    def test_alpha_one_reward_equals_precision_term(self, small_config):
        records, vocab = self._records(n=2)
        model = ExtractiveModel(len(vocab), small_config.d,
                                np.random.default_rng(3), dtype=np.float64)
        baseline = BaselineModel(small_config.d, dtype=np.float64)
        comp = CompressionModel(len(vocab), small_config.d,
                                np.random.default_rng(4), dtype=np.float64)
        cfg = small_config
        cfg.alpha = 1.0
        rows = []
        train_latent(model, baseline, records, comp, cfg,
                     np.random.default_rng(5), trace_sink=rows.append)
        assert rows
        for row in rows:
            assert row["r"] == row["r_p"]

    def test_deterministic_given_seed(self, small_config):
        records, vocab = self._records(n=2)
        cfg = small_config
        outs = []
        for _ in range(2):
            model = ExtractiveModel(len(vocab), cfg.d, np.random.default_rng(6),
                                    dtype=np.float64)
            baseline = BaselineModel(cfg.d, dtype=np.float64)
            comp = CompressionModel(len(vocab), cfg.d, np.random.default_rng(7),
                                    dtype=np.float64)
            outs.append(train_latent(model, baseline, records, comp, cfg,
                                     np.random.default_rng(8)))
        assert outs[0] == outs[1]

    def test_empty_corpus_refused(self, small_config):
        model = policy()
        with pytest.raises(DataError, match="empty"):
            train_latent(model, BaselineModel(model.d), [], scorer(), small_config,
                         np.random.default_rng(0))

    def test_empty_summary_refused_before_any_update(self, small_config):
        records, vocab = self._records()
        empty = object.__new__(SummarySet)  # SummarySet() itself refuses no sentences
        object.__setattr__(empty, "sentences", ())
        records[-1] = (records[-1][0], empty)
        model = ExtractiveModel(len(vocab), small_config.d, np.random.default_rng(0))
        baseline = BaselineModel(small_config.d)
        baseline.w.data = baseline.w.data + 0.25
        before = [p.data.copy() for p in model.parameters() + baseline.parameters()]
        comp = CompressionModel(len(vocab), small_config.d, np.random.default_rng(7))
        with pytest.raises(DataError, match=f"{records[-1][0].id!r} has an empty summary"):
            # this seed's first epoch visits the records in order, the empty one last
            train_latent(model, baseline, records, comp, small_config, np.random.default_rng(1))
        after = [p.data for p in model.parameters() + baseline.parameters()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after)), \
            f"parameters changed before the refusal (BLAS {blas_build()})"

    def test_each_training_sentence_encoded_once(self, small_config, monkeypatch):
        records, vocab = self._records(n=4)
        calls = []
        encode = CompressionModel._encode_sources

        def counting(self, sources):
            calls.extend(tuple(source) for source in sources)
            return encode(self, sources)

        monkeypatch.setattr(CompressionModel, "_encode_sources", counting)
        cfg = dataclasses.replace(small_config, num_samples=3, latent_epochs=2)
        model = ExtractiveModel(len(vocab), cfg.d, np.random.default_rng(0))
        comp = CompressionModel(len(vocab), cfg.d, np.random.default_rng(1))
        train_latent(model, BaselineModel(cfg.d), records, comp, cfg, np.random.default_rng(2))
        assert len(calls) == sum(len(doc) for doc, _ in records)
        assert sorted(calls) == sorted(s.ids for doc, _ in records for s in doc.sentences)

    def test_trace_rewards_equal_per_sample_reward_oracle(self, small_config, monkeypatch):
        # float32, as in production: every traced reward must carry the bits
        # of reward() on the sentences that sample selected
        records, vocab = self._records(n=4)
        sampled = []
        choose = ExtractiveModel.choose_labels

        def recording(self, enc, draws=None):
            labels, probs = choose(self, enc, draws)
            if draws is not None:
                # one packed choice per step: its k copies' masks, in draw order
                assert len(enc.lengths) == cfg.num_samples
                ends = np.cumsum(enc.lengths)
                sampled.extend(tuple(labels[end - n : end])
                               for n, end in zip(enc.lengths, ends))
            return labels, probs

        monkeypatch.setattr(ExtractiveModel, "choose_labels", recording)
        cfg = dataclasses.replace(small_config, num_samples=2, latent_epochs=2)
        model = ExtractiveModel(len(vocab), cfg.d, np.random.default_rng(3))
        comp = CompressionModel(len(vocab), cfg.d, np.random.default_rng(4))
        rows = []
        train_latent(model, BaselineModel(cfg.d), records, comp, cfg,
                     np.random.default_rng(5), trace_sink=rows.append)
        by_id = {doc.id: (doc, summary) for doc, summary in records}
        last_samples = sampled[cfg.num_samples - 1 :: cfg.num_samples]
        assert len(last_samples) == len(rows) == cfg.latent_epochs * len(records)
        assert any(sum(z) > 0 for z in last_samples)
        for row, z in zip(rows, last_samples):
            doc, summary = by_id[row["doc_id"]]
            picked = [s for s, zi in zip(doc.sentences, z) if zi]
            want = reward(comp, picked, summary, cfg.alpha)
            assert (row["r"], row["r_p"], row["r_r"]) == (want.r, want.r_p, want.r_r)


class TestPackedScoreMatrix:
    def test_equals_per_sentence_rows_in_float32(self, monkeypatch):
        # one decode of every (sentence, summary sentence) pair carries the
        # bits of one decode per source sentence
        records, vocab = tiny_records(n_docs=3, n_sents=5, vocab_words=8, seed=6)
        comp = CompressionModel(len(vocab), 8, np.random.default_rng(9))
        decodes = []
        decode = CompressionModel.decode_teacher

        def counting(self, items, *args, **kwargs):
            decodes.append(len(items))
            return decode(self, items, *args, **kwargs)

        for doc, summary in records:
            rows = np.array([s_score_matrix(comp, [c], summary.sentences)[0]
                             for c in doc.sentences])
            monkeypatch.setattr(CompressionModel, "decode_teacher", counting)
            matrix = s_score_matrix(comp, doc.sentences, summary.sentences)
            monkeypatch.undo()
            assert decodes == [len(doc)]
            decodes.clear()
            assert matrix.dtype == np.float64 and matrix.shape == (len(doc), len(summary))
            assert np.array_equal(matrix, rows), \
                f"packed matrix differs from per-source rows (BLAS {blas_build()})"

    def test_empty_source_list(self):
        assert s_score_matrix(scorer(), [], tiny_summary().sentences).shape == (0, 2)


class TestRewardMatricesInPacks:
    """train_latent scores the split's sentences EVAL_CHUNK at a time, and
    each document's matrix has the bits of its own s_score_matrix."""

    @staticmethod
    def _records():
        # 41 sentences: the fourth document straddles the 32-sentence pack
        # boundary, the second has one sentence and the third holds a
        # one-token sentence
        rng = np.random.default_rng(17)
        records = []
        for j, count in enumerate([12, 1, 15, 6, 7]):
            sentences = [ids_sentence(rng.integers(4, 10, size=int(rng.integers(2, 7))))
                         for _ in range(count)]
            if j == 2:
                sentences[4] = ids_sentence([7])
            summary = [ids_sentence(rng.integers(4, 10, size=n)) for n in (1, 4, 3)[: 1 + j % 3]]
            records.append((Document(id=f"doc{j}", sentences=tuple(sentences)),
                            SummarySet(sentences=tuple(summary))))
        return records

    @pytest.mark.parametrize("chunk", [3, 32])
    def test_matrices_equal_each_documents_own(self, small_config, monkeypatch, chunk):
        from latentsum import compression, latent

        records = self._records()
        cfg = dataclasses.replace(small_config, num_samples=1, latent_epochs=1)
        model = ExtractiveModel(10, cfg.d, np.random.default_rng(3))
        comp = scorer(d=8, seed=4, dtype=np.float32)
        matrices, decodes = {}, []
        step, decode = latent.reinforce_step, CompressionModel.decode_teacher

        def recording(model, baseline, doc, scores, config, rng):
            matrices[doc.id] = scores
            return step(model, baseline, doc, scores, config, rng)

        def counting(self, items, *args, **kwargs):
            decodes.append(len(items))
            return decode(self, items, *args, **kwargs)

        monkeypatch.setattr(compression, "EVAL_CHUNK", chunk)
        monkeypatch.setattr(latent, "reinforce_step", recording)
        monkeypatch.setattr(CompressionModel, "decode_teacher", counting)
        train_latent(model, BaselineModel(cfg.d), records, comp, cfg, np.random.default_rng(5))
        sources = sum(len(doc) for doc, _ in records)
        assert len(decodes) == -(-sources // chunk) and sum(decodes) == sources
        assert max(decodes) == chunk
        monkeypatch.undo()
        assert len(matrices) == len(records)
        for doc, summary in records:
            want = s_score_matrix(comp, doc.sentences, summary.sentences)
            got = matrices[doc.id]
            assert got.dtype == want.dtype and got.shape == want.shape == (len(doc),
                                                                           len(summary))
            assert got.tobytes() == want.tobytes(), \
                f"{doc.id}: packed matrix differs from its own (BLAS {blas_build()})"


class TestRewardMatrixIsTheOnlyPath:
    @pytest.mark.parametrize("num_samples", [1, 3])
    def test_training_never_scores_per_pair(self, small_config, monkeypatch, num_samples):
        # the per-pair scorer and reward() are test oracles; training reads
        # every reward from the matrix built before the first epoch
        from latentsum import compression, latent

        def refuse(*args, **kwargs):
            raise AssertionError("per-pair or per-document scoring called from train_latent")

        monkeypatch.setattr(compression, "s_score", refuse)
        monkeypatch.setattr(latent, "reward", refuse)
        # nor one decode per document: the reward matrices come in packs
        monkeypatch.setattr(compression, "s_score_matrix", refuse)
        monkeypatch.setattr(latent, "s_score_matrix", refuse)
        records, vocab = tiny_records(n_docs=3, n_sents=3, vocab_words=8, seed=6)
        cfg = dataclasses.replace(small_config, num_samples=num_samples, latent_epochs=1)
        model = ExtractiveModel(len(vocab), cfg.d, np.random.default_rng(0))
        comp = CompressionModel(len(vocab), cfg.d, np.random.default_rng(1))
        assert train_latent(model, BaselineModel(cfg.d), records, comp, cfg,
                            np.random.default_rng(2))


class TestPreparedStepWeights:
    """Each LSTM's step weights are made once per parameter version."""

    @staticmethod
    def _models(vocab, d, seed=0):
        rng = np.random.default_rng(seed)
        return (ExtractiveModel(len(vocab), d, rng), CompressionModel(len(vocab), d, rng),
                BaselineModel(d))

    def test_every_model_parameter_is_read_only(self, small_config):
        _, vocab = tiny_records(n_docs=1)
        for model in self._models(vocab, small_config.d):
            for p in model.parameters():
                with pytest.raises(ValueError, match="read-only"):
                    p.data *= 2

    def _pipeline(self, cfg):
        from latentsum.compression import decode_greedy, train_compression
        from latentsum.extractive import train_extractive
        from latentsum.labeling import compression_pairs, oracle_labels

        records, vocab = tiny_records(n_docs=3, n_sents=3, vocab_words=8, seed=6)
        model, comp, baseline = self._models(vocab, cfg.d)
        rng = np.random.default_rng(1)
        labels = {doc.id: oracle_labels(doc, summary) for doc, summary in records}
        pairs = [p for doc, summary in records for p in compression_pairs(doc, summary)]
        metrics = [train_extractive(model, records, labels, records[:1], cfg, rng),
                   train_compression(comp, pairs, pairs[:1], cfg, rng),
                   train_latent(model, baseline, records, comp, cfg, rng)]
        doc = records[0][0]
        outputs = [model.select_top_k(doc, 2).indices,
                   decode_greedy(comp, vocab, doc.sentences[0], 5).ids]
        params = [(p.name, p.data.tobytes())
                  for m in (model, comp, baseline) for p in m.parameters()]
        return metrics, outputs, params

    def test_training_is_bit_identical_with_the_caches_bypassed(self, small_config,
                                                                  monkeypatch):
        from latentsum.numerics import lstm

        cfg = dataclasses.replace(small_config, extractive_epochs=2, compression_epochs=2,
                                  latent_epochs=2)
        cached = self._pipeline(cfg)
        monkeypatch.setattr(lstm, "_prepared_from", lambda prepared, sources: False)
        assert self._pipeline(cfg) == cached

    def test_models_are_freed_without_the_cycle_collector(self, small_config):
        import gc
        import weakref

        from latentsum.compression import decode_greedy
        from latentsum.numerics import LSTMCell

        records, vocab = tiny_records(n_docs=1)
        doc = records[0][0]
        model, comp, _ = self._models(vocab, small_config.d)
        gc.disable()
        try:
            model.select_top_k(doc, 2)
            decode_greedy(comp, vocab, doc.sentences[0], 5)
            # the models and their cells, whose caches must not refer back
            refs = [weakref.ref(obj) for m in (model, comp)
                    for obj in [m, *(v for v in vars(m).values() if isinstance(v, LSTMCell))]]
            assert len(refs) == 10
            del model, comp
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestStepIsOracleOnly:
    def test_pipeline_runs_without_lstm_step(self, small_config, monkeypatch):
        # LSTMCell.step is kept as a stepwise test oracle; no training or
        # inference path may build the tape step
        from latentsum.compression import decode_greedy, train_compression
        from latentsum.extractive import train_extractive
        from latentsum.labeling import compression_pairs, oracle_labels
        from latentsum.numerics import LSTMCell

        def refuse(*args, **kwargs):
            raise AssertionError("LSTMCell.step called from a production path")

        monkeypatch.setattr(LSTMCell, "step", refuse)
        records, vocab = tiny_records(n_docs=3, n_sents=3, vocab_words=8, seed=6)
        cfg = dataclasses.replace(small_config, extractive_epochs=1, compression_epochs=1,
                                  latent_epochs=1)
        rng = np.random.default_rng(0)
        model = ExtractiveModel(len(vocab), cfg.d, rng)
        labels = {doc.id: oracle_labels(doc, summary) for doc, summary in records}
        assert train_extractive(model, records, labels, records[:1], cfg, rng)
        comp = CompressionModel(len(vocab), cfg.d, rng)
        pairs = [p for doc, summary in records for p in compression_pairs(doc, summary)]
        assert train_compression(comp, pairs, pairs[:1], cfg, rng)
        assert train_latent(model, BaselineModel(cfg.d), records, comp, cfg, rng)
        doc = records[0][0]
        assert model.select_top_k(doc, 2).indices
        assert decode_greedy(comp, vocab, doc.sentences[0], 5).ids
