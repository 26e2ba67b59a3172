"""Attention seq2seq compression scorer: decode, scoring, training."""

import json

import numpy as np
import pytest

from latentsum import compression
from latentsum.compression import (
    CompressionModel,
    decode_greedy,
    load_compression,
    perplexity,
    s_score,
    s_score_matrix,
    save_compression,
    train_compression,
)
from latentsum.corpus import BOS, EOS, PAD, SPECIAL_TOKENS, Sentence, Vocabulary, build_vocab
from latentsum.errors import CheckpointError, DataError
from latentsum.labeling import CompressionPair
from latentsum.numerics import (
    Tensor,
    add,
    backward,
    concat,
    constant,
    embedding_lookup,
    gather_rows,
    matmul,
    mul,
    no_grad,
    run_bilstm,
    slice_axis,
    tanh,
    tensor_sum,
    zero_grads,
)

from latentsum.numerics import lstm
from latentsum.numerics.lstm import lstm_step

from conftest import blas_build, doc_from, summary_from, traced_peak
from gradcheck import finite_difference_check
from oracles import attend, seq2seq_logprob


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
        dec = model.decode_teacher([(src.ids, [tgt.ids])])
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
            model.decode_teacher([([], [[4]])])


def ids_sentence(ids):
    return Sentence(tokens=tuple(f"w{i}" for i in ids), ids=tuple(ids))


class TestBatchedScoring:
    """One source encoding scores every target with the numbers of a
    per-target decode."""

    def _cases(self, dtype, count=30, seed=41):
        rng = np.random.default_rng(seed)
        for case in range(count):
            model = tiny_model(d=int(rng.choice([4, 6, 16])), seed=case, dtype=dtype)
            source = [int(v) for v in rng.integers(4, 14, size=int(rng.integers(1, 10)))]
            lengths = [1] + [int(v) for v in rng.integers(1, 9, size=int(rng.integers(0, 4)))]
            rng.shuffle(lengths)
            targets = [[int(v) for v in rng.integers(4, 14, size=n)] for n in lengths]
            yield model, source, targets

    @staticmethod
    def _reference(model, source, target):
        """s_score's arithmetic on a one-target decode_teacher."""
        with no_grad():
            dec = model.decode_teacher([(source, [target])])
        total = sum(lp[t] for lp, t in zip(dec.log_probs.data, dec.targets))
        return dec.log_probs.data, float(np.exp(float(total) / len(dec.targets)))

    def test_float32_bitwise_equal_to_per_target_decodes(self):
        for model, source, targets in self._cases(np.float32):
            refs = [self._reference(model, source, t) for t in targets]
            with no_grad():
                dec = model.decode_teacher([(source, targets)])
            assert dec.lengths == [len(t) + 1 for t in targets]
            assert np.array_equal(dec.log_probs.data, np.concatenate([lp for lp, _ in refs])), \
                f"packed log-probs differ from per-target decodes (BLAS {blas_build()})"
            got = s_score_matrix(model, [ids_sentence(source)], [ids_sentence(t) for t in targets])
            assert got[0].tolist() == [s for _, s in refs], \
                f"s_score_matrix differs from per-target decodes (BLAS {blas_build()})"

    def test_float64_matches_per_target_decodes(self):
        for model, source, targets in self._cases(np.float64, seed=43):
            got = s_score_matrix(model, [ids_sentence(source)],
                                 [ids_sentence(t) for t in targets])[0]
            want = [self._reference(model, source, t)[1] for t in targets]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_s_score_is_the_one_target_case(self):
        model = tiny_model(dtype=np.float32)
        source, targets = ids_sentence([4, 5, 6]), [ids_sentence([7]), ids_sentence([8, 9])]
        assert (s_score_matrix(model, [source], targets)[0].tolist()
                == [s_score(model, source, t) for t in targets])

    def test_empty_targets_refused(self):
        model = tiny_model()
        with pytest.raises(DataError, match="non-empty"):
            model.decode_teacher([([4, 5], [])])
        with pytest.raises(DataError, match="non-empty"):
            model.decode_teacher([([4, 5], [[6], []])])
        with pytest.raises(DataError, match="ids"):
            s_score_matrix(model, [ids_sentence([4])],
                           [ids_sentence([5]), Sentence(tokens=("b",))])


class TestPackedBatch:
    """(source, targets) items packed into one decode against each item
    decoded alone, in float64 and with dropout, so the dropout masks
    must line up too."""

    # uneven sources, a one-token source, a length-1 target, and one item
    # with two targets (as s_score_matrix packs them)
    ITEMS = [([4, 5, 6], [[7]]), ([9], [[5, 6, 7, 8]]), ([4, 8, 10, 12, 13], [[6, 9], [11]]),
             ([7, 5], [[13, 4, 6]])]

    def test_each_item_matches_itself_alone(self):
        model = tiny_model(seed=12)
        params = model.parameters()
        alone_rng = np.random.default_rng(6)
        row = 0
        for item in self.ITEMS:
            zero_grads(params)
            alone = model.decode_teacher([item], rng=alone_rng, drop=0.3)
            alone_loss = alone.nll()
            backward(alone_loss)
            want = {p.name: p.grad_or_zeros().copy() for p in params}
            # this item's rows of a fresh packed decode, drawn from the same seed
            zero_grads(params)
            rng = np.random.default_rng(6)
            dec = model.decode_teacher(self.ITEMS, rng=rng, drop=0.3)
            rows = slice(row, row + sum(alone.lengths))
            np.testing.assert_allclose(dec.log_probs.data[rows], alone.log_probs.data,
                                       rtol=0, atol=1e-10)
            assert dec.targets[rows] == alone.targets
            packed = -tensor_sum(slice_axis(gather_rows(dec.log_probs, dec.targets), 0,
                                            rows.start, rows.stop))
            backward(packed)
            np.testing.assert_allclose(float(packed.data), float(alone_loss.data),
                                       rtol=0, atol=1e-10)
            for p in params:
                np.testing.assert_allclose(p.grad_or_zeros(), want[p.name], rtol=0, atol=1e-10,
                                           err_msg=p.name)
            row = rows.stop
        assert rng.bit_generator.state == alone_rng.bit_generator.state

    def test_targets_attend_only_their_own_source(self):
        model = tiny_model(seed=13)
        with no_grad():
            base = model.decode_teacher(self.ITEMS)
            row = 0
            for j, (source, targets) in enumerate(self.ITEMS):
                other = [4 + (i + 5) % 10 for i in source]  # same length, other tokens
                changed = self.ITEMS[:j] + [(other, targets)] + self.ITEMS[j + 1:]
                moved = model.decode_teacher(changed).log_probs.data
                mine = slice(row, row + sum(len(t) + 1 for t in targets))
                assert np.abs(moved[mine] - base.log_probs.data[mine]).max() > 1e-8
                np.testing.assert_array_equal(np.delete(moved, mine, axis=0),
                                              np.delete(base.log_probs.data, mine, axis=0))
                row = mine.stop


def attention_rows(model, source_ids, steps):
    """attend's weights over source_ids for the initial decoder state and
    steps - 1 random states."""
    annotations, state = model._encode_sources([source_ids])
    projected = matmul(annotations, model.u_h)
    rng = np.random.default_rng(0)
    states = [state] + [Tensor(rng.normal(size=(1, model.d)).astype(model.dtype))
                        for _ in range(steps - 1)]
    return [attend(model, s, annotations, projected)[0].data for s in states]


def five_node_encode(model, sources):
    """``_encode_sources`` with s0 built from two lookups, two slices and a
    concatenation of the states: the oracle of its one-gather s0."""
    lengths = np.array([len(source) for source in sources])
    states = run_bilstm(model.enc_fwd, model.enc_bwd,
                        embedding_lookup(model.src_embed, [i for s in sources for i in s]),
                        lengths)
    ends = lengths.cumsum()
    d = model.d
    last = slice_axis(embedding_lookup(states, ends - 1), 1, 0, d)
    first = slice_axis(embedding_lookup(states, ends - lengths), 1, d, 2 * d)
    s0 = tanh(add(matmul(concat([last, first], axis=1), model.w_init), model.b_init))
    return states, s0


class TestStartState:
    """s0 takes each source's last forward and first backward state in one
    gather; values and gradients are the five-node formula's, bit for bit."""

    SOURCES = [[4, 5, 6], [9], [4, 8, 10, 12, 13], [7, 5]]

    @pytest.mark.parametrize("d,dtype", [(16, np.float32), (64, np.float32), (6, np.float64)])
    def test_values_and_gradients_equal_the_five_node_formula(self, d, dtype):
        model = tiny_model(d=d, seed=d, dtype=dtype)
        params = model.parameters()
        rng = np.random.default_rng(d)
        n = sum(len(source) for source in self.SOURCES)
        state_w = constant(rng.normal(size=(n, 2 * d)).astype(dtype))
        s0_w = constant(rng.normal(size=(len(self.SOURCES), d)).astype(dtype))

        def run(encode):
            zero_grads(params)
            states, s0 = encode(model, self.SOURCES)
            # the states also take a gradient of their own, as attention gives them
            backward(add(tensor_sum(mul(states, state_w)), tensor_sum(mul(s0, s0_w))))
            return [states.data, s0.data] + [p.grad_or_zeros().copy() for p in params]

        want = run(five_node_encode)
        got = run(CompressionModel._encode_sources)
        for name, g, w in zip(["states", "s0"] + [p.name for p in params], got, want):
            assert g.tobytes() == w.tobytes(), f"{name} (BLAS {blas_build()})"

    def test_teacher_decode_gradients_equal_the_five_node_formula(self, monkeypatch):
        model = tiny_model(d=16, seed=5, dtype=np.float32)
        params = model.parameters()
        items = [(source, [[7, 8], [5]]) for source in self.SOURCES]

        def grads():
            zero_grads(params)
            dec = model.decode_teacher(items, rng=np.random.default_rng(2), drop=0.2)
            backward(dec.nll())
            return [dec.log_probs.data] + [p.grad_or_zeros().copy() for p in params]

        got = grads()
        monkeypatch.setattr(CompressionModel, "_encode_sources", five_node_encode)
        want = grads()
        for name, g, w in zip(["log_probs"] + [p.name for p in params], got, want):
            assert g.tobytes() == w.tobytes(), f"{name} (BLAS {blas_build()})"


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

    def test_never_emits_pad_or_bos_at_infinite_logits(self):
        # masked by assignment: -inf added to a +inf logit is NaN, and
        # argmax picks a NaN
        model = tiny_model(dtype=np.float32)
        want = model.decode_greedy_ids([4, 5, 6], 8)
        bias = model.b_out.data.copy()
        bias[0, [PAD, BOS]] = np.inf
        model.b_out.data = bias
        assert model.decode_greedy_ids([4, 5, 6], 8) == want
        bias = bias.copy()
        bias[0, EOS] = np.inf
        model.b_out.data = bias
        ids = model.decode_greedy_ids([4, 5, 6], 8)
        assert len(ids) == 1 and ids[0] not in (PAD, BOS, EOS)

    @pytest.mark.parametrize("d,dtype", [(16, np.float32), (64, np.float32), (6, np.float64)])
    def test_start_state_is_the_encoders(self, monkeypatch, d, dtype):
        # s0 in numpy has the bits of _encode_sources' tape s0
        model = tiny_model(d=d, seed=d + 1, dtype=dtype)
        started = []

        def first_state(xw, h, c, w_h):
            started.append(h.copy())
            return lstm_step(xw, h, c, w_h)

        monkeypatch.setattr(compression, "lstm_step", first_state)
        for source in ([4], [5, 9], [4, 8, 10, 12, 13]):
            started.clear()
            model.decode_greedy_ids(source, 1)
            with no_grad():
                _, s0 = model._encode_sources([source])
            assert started[0].tobytes() == s0.data.tobytes(), f"{source} (BLAS {blas_build()})"

    def test_rejects_an_empty_source(self):
        # as decode_teacher does, before anything is encoded
        model = tiny_model()
        for max_len in (1, 5):
            with pytest.raises(DataError, match="non-empty source"):
                model.decode_greedy_ids([], max_len)
        with pytest.raises(DataError, match="non-empty source"):
            model.decode_teacher([([], [[5]])])

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

    def test_matches_stepwise_reference_on_fuzzed_sources(self):
        rng = np.random.default_rng(31)
        for case in range(40):
            model = tiny_model(seed=case)
            source = [int(v) for v in rng.integers(4, 14, size=int(rng.integers(1, 9)))]
            max_len = int(rng.integers(1, 10))
            assert model.decode_greedy_ids(source, max_len) == stepwise_greedy_ids(
                model, source, max_len)


def stepwise_greedy_ids(model, source, max_len):
    """Greedy decode from LSTMCell.step and the one-state attend."""
    with no_grad():
        annotations, state = model._encode_sources([source])
        projected = matmul(annotations, model.u_h)
        cell = Tensor(np.zeros((1, model.d), dtype=model.dtype))
        token, ref = BOS, []
        for step in range(max_len):
            state, cell = model.dec.step(embedding_lookup(model.tgt_embed, [token]), state, cell)
            _, context = attend(model, state, annotations, projected)
            logits = model._output_logits(state, context).data[0].copy()
            logits[[PAD, BOS] + ([EOS] if step == 0 else [])] = -np.inf
            token = int(np.argmax(logits))
            if token == EOS:
                break
            ref.append(token)
    return ref


class TestSplitDecode:
    """decode_greedy_ids_each encodes its sources in packs and decodes each
    from its own rows; each source gets the annotations and ids it gets
    alone."""

    SETTINGS = [(16, np.float32), (64, np.float32), (6, np.float64)]

    @staticmethod
    def wide_model(d, dtype, vocab_size=40):
        # wider weights and a random output bias, so the ids depend on the
        # attention and the cell state (as in the tape-free test)
        model = tiny_model(d=d, vocab_size=vocab_size, seed=d + 7, dtype=dtype)
        rng = np.random.default_rng(d)
        model.b_out.data = rng.normal(0.0, 0.1, size=model.b_out.data.shape).astype(dtype)
        for p in model.parameters():
            p.data = p.data * 3
        return model

    @staticmethod
    def decoded(model, monkeypatch, sources, max_len):
        """The ids of one decode_greedy_ids_each call, each source's
        annotation bytes and the lengths of each run_bilstm it made."""
        annotations, encodes = [], []
        decode_from = CompressionModel._decode_from
        bilstm = compression.run_bilstm

        def recording_decode(self, ann, max_len):
            annotations.append(ann.tobytes())
            return decode_from(self, ann, max_len)

        def recording_bilstm(fwd, bwd, x, lengths):
            encodes.append(tuple(lengths))
            return bilstm(fwd, bwd, x, lengths)

        with monkeypatch.context() as patch:
            patch.setattr(CompressionModel, "_decode_from", recording_decode)
            patch.setattr(compression, "run_bilstm", recording_bilstm)
            ids = model.decode_greedy_ids_each(sources, max_len)
        return ids, annotations, encodes

    def check_against_alone(self, model, monkeypatch, sources, max_len):
        ids, annotations, encodes = self.decoded(model, monkeypatch, sources, max_len)
        for j, source in enumerate(sources):
            alone, ann, _ = self.decoded(model, monkeypatch, [source], max_len)
            assert alone == [model.decode_greedy_ids(source, max_len)]
            assert ids[j] == alone[0] and annotations[j] == ann[0], \
                f"source {j} (BLAS {blas_build()})"
        return ids, encodes

    @pytest.mark.parametrize("d,dtype", SETTINGS)
    def test_one_token_sources_get_their_ids_alone(self, monkeypatch, d, dtype):
        model = self.wide_model(d, dtype)
        sources = [[5], [4, 9, 12, 30, 7], [31], [8, 8], [39]]
        ids, encodes = self.check_against_alone(model, monkeypatch, sources, 10)
        assert encodes == [(1, 5, 1, 2, 1)]
        assert ids[0] == stepwise_greedy_ids(model, [5], 10)

    @pytest.mark.parametrize("d,dtype", SETTINGS)
    def test_sources_across_pack_boundaries_get_their_ids_alone(self, monkeypatch, d, dtype):
        model = self.wide_model(d, dtype)
        monkeypatch.setattr(lstm, "PACK_WORDS", 10)
        rng = np.random.default_rng(d + 1)
        sources = [[int(v) for v in rng.integers(4, 40, size=n)]
                   for n in (3, 4, 5, 1, 12, 2, 9, 1)]
        ids, encodes = self.check_against_alone(model, monkeypatch, sources, 12)
        # a source that would cross the budget starts the next pack, and a
        # longer one is a pack of its own
        assert encodes == [(3, 4), (5, 1), (12,), (2,), (9, 1)]
        assert sum(len(x) for x in ids) > 2 * len(sources)

    @pytest.mark.parametrize("d,dtype", SETTINGS)
    def test_max_len_one_gets_one_token_each_alone(self, monkeypatch, d, dtype):
        # EOS is masked at the first step, so every decode is one token
        model = self.wide_model(d, dtype)
        rng = np.random.default_rng(d + 2)
        sources = [[int(v) for v in rng.integers(4, 40, size=n)] for n in (6, 1, 3, 7)]
        ids, _ = self.check_against_alone(model, monkeypatch, sources, 1)
        assert all(len(x) == 1 and x[0] not in (PAD, BOS, EOS) for x in ids)

    def test_refusals_come_before_any_encoding(self, monkeypatch):
        model = tiny_model()
        with pytest.raises(DataError, match="non-empty source"):
            self.decoded(model, monkeypatch, [[4, 5], []], 5)
        with pytest.raises(DataError, match="max_len"):
            model.decode_greedy_ids_each([[4, 5]], 0)
        assert model.decode_greedy_ids_each([], 5) == []


class TestGreedyDecodeIsTapeFree:
    def test_wide_decode_matches_oracle_without_tape_ops(self, monkeypatch):
        model = tiny_model(d=64, vocab_size=1500, seed=9, dtype=np.float32)
        rng = np.random.default_rng(12)
        # at init scale the argmax barely depends on attention or the cell
        # state; three times wider weights and a random output bias make
        # each of them change the ids
        model.b_out.data = rng.normal(0.0, 0.1, size=model.b_out.data.shape).astype(
            model.b_out.data.dtype)
        for p in model.parameters():
            p.data = p.data * 3
        sources = [[int(v) for v in rng.integers(4, 1500, size=n)] for n in (20, 27, 33, 40)]
        want = [stepwise_greedy_ids(model, source, 30) for source in sources]
        assert sum(len(ids) for ids in want) > 60

        def refuse(*args, **kwargs):
            raise AssertionError("greedy decode called a tape-op step")

        monkeypatch.setattr(CompressionModel, "_output_logits", refuse)
        monkeypatch.setattr(type(model.dec), "step", refuse)
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        for source, ids in zip(sources, want):
            with no_grad():  # the decode's encoding: a lookup and a Bi-LSTM
                run_bilstm(model.enc_fwd, model.enc_bwd,
                           embedding_lookup(model.src_embed, source), [len(source)])
            encode_tensors = len(built)
            built.clear()
            assert model.decode_greedy_ids(source, 30) == ids
            assert len(built) == encode_tensors  # no Tensor per decode step
            built.clear()


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
        # validate on a target the training pairs contradict, so validation
        # perplexity rises again after an early best
        vocab = word_vocab()
        model = CompressionModel(len(vocab), 8, np.random.default_rng(4))
        pairs = self._pairs(vocab)
        val = [CompressionPair(source=encoded(vocab, "the fox ran home today"),
                               target=encoded(vocab, "today home"), doc_id="v")]
        cfg = small_config
        cfg.compression_epochs = 5
        cfg.compression_lr = 0.03
        metrics = train_compression(model, pairs, val, cfg, np.random.default_rng(5))
        best = min(m["val_ppl"] for m in metrics)
        assert metrics[-1]["val_ppl"] > best
        np.testing.assert_allclose(perplexity(model, val), best, rtol=1e-6)

    def test_empty_pairs_refused(self, small_config):
        model = tiny_model()
        with pytest.raises(DataError, match="empty"):
            train_compression(model, [], [], small_config, np.random.default_rng(0))

    def test_perplexity_empty_refused(self):
        with pytest.raises(DataError, match="empty"):
            perplexity(tiny_model(), [])

    def test_generator_state_after_an_epoch_matches_per_pair_draws(self, small_config):
        vocab = word_vocab()
        pairs = self._pairs(vocab) * 3  # 9 pairs: minibatches of 4, 4 and 1
        cfg = small_config
        cfg.compression_epochs = 1
        model = CompressionModel(len(vocab), cfg.d, np.random.default_rng(6))
        rng = np.random.default_rng(22)
        train_compression(model, pairs, pairs[:1], cfg, rng)
        ref = np.random.default_rng(22)
        for idx in ref.permutation(len(pairs)):
            ref.random((len(pairs[idx].source.ids), 2 * cfg.d))  # the source annotations
            ref.random((len(pairs[idx].target.ids) + 1, cfg.d))  # the decoder states
        assert rng.bit_generator.state == ref.bit_generator.state

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

    def test_float64_round_trip_is_bit_exact(self, tmp_path):
        vocab = word_vocab()
        model = tiny_model(vocab_size=len(vocab), dtype=np.float64)
        path = tmp_path / "comp.ckpt"
        save_compression(path, model, {}, vocab)
        loaded = load_compression(path, vocab)
        assert loaded.dtype is np.float64
        for got, want in zip(loaded.parameters(), model.parameters()):
            assert got.data.dtype == np.float64 and got.data.tobytes() == want.data.tobytes()

    def test_wrong_vocab_refused(self, tmp_path):
        vocab = word_vocab()
        other = build_vocab([(doc_from(["completely different words here"]),
                              summary_from(["different words"]))], min_count=1)
        model = CompressionModel(len(vocab), 6, np.random.default_rng(10))
        path = tmp_path / "comp.ckpt"
        save_compression(path, model, {}, vocab)
        with pytest.raises(CheckpointError, match="hash"):
            load_compression(path, other)

    def test_a_load_holds_the_parameters_once(self, tmp_path):
        # the skeleton's placeholders allocate nothing, so the load's buffer
        # is the one model-sized allocation (2x when each was an np.empty)
        words = [[f"w{i}", 1] for i in range(3000 - len(SPECIAL_TOKENS))]
        vocab = Vocabulary.from_json(json.dumps({"specials": list(SPECIAL_TOKENS),
                                                 "tokens": words}))
        model = CompressionModel(len(vocab), 32, np.random.default_rng(11))
        path = tmp_path / "comp.ckpt"
        save_compression(path, model, {}, vocab)
        load_compression(path, vocab)  # first-call allocations
        loaded, peak = traced_peak(lambda: load_compression(path, vocab))
        nbytes = sum(p.data.nbytes for p in model.parameters())
        assert nbytes > 2_000_000 and peak <= 1.1 * nbytes
        buffer = loaded.src_embed.data.base
        for got, want in zip(loaded.parameters(), model.parameters()):
            assert got.data.base is buffer and got.data.tobytes() == want.data.tobytes()
