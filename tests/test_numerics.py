"""Autodiff core, LSTM cell, optimizers, init, and checkpoints.

Gradients are checked against hand-derived formulas for small graphs and
against central finite differences for composite ones. All gradient
comparisons run in 64-bit.
"""

import numpy as np
import pytest

from latentsum.errors import CheckpointError, NumericError
from latentsum.numerics import (
    Adam,
    CheckpointData,
    LSTMCell,
    Parameter,
    SGD,
    ShapeError,
    Tensor,
    add,
    apply_state,
    backward,
    clip_global_norm,
    concat,
    constant,
    detach,
    dropout,
    embedding_lookup,
    finite_difference_check,
    gather_rows,
    init_uniform,
    load_checkpoint,
    log_softmax,
    matmul,
    mean_over_axis,
    mul,
    no_grad,
    run_bilstm,
    run_lstm,
    save_checkpoint,
    sigmoid,
    slice_axis,
    softmax,
    split_rows,
    tensor_sum,
    tanh,
    transpose,
    zero_grads,
)


def param(name, values):
    return Parameter(name, np.asarray(values, dtype=np.float64))


class TestForwardPrimitives:
    def test_softmax_symmetry(self):
        out = softmax(constant([[0.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        out = softmax(constant(rng.normal(size=(5, 7)) * 10), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-6)
        assert (out.data > 0).all()

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            log_softmax(constant(x), axis=1).data,
            np.log(softmax(constant(x), axis=1).data),
            atol=1e-12,
        )

    def test_mean_over_axis(self):
        out = mean_over_axis(constant([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        np.testing.assert_allclose(out.data, [[2.0, 3.0]])

    def test_dropout_p_zero_is_identity(self):
        rng = np.random.default_rng(2)
        x = constant(np.ones((2, 3)))
        np.testing.assert_array_equal(dropout(x, 0.0, rng, training=True).data, x.data)

    def test_dropout_eval_mode_is_identity(self):
        rng = np.random.default_rng(3)
        x = constant(np.ones((2, 3)))
        np.testing.assert_array_equal(dropout(x, 0.9, rng, training=False).data, x.data)

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(4)
        x = constant(np.ones((40, 40)))
        out = dropout(x, 0.25, rng, training=True).data
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)

    def test_matmul_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))

    def test_embedding_lookup_picks_rows(self):
        table = constant(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(table, [2, 0])
        np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_gather_rows(self):
        out = gather_rows(constant([[1.0, 2.0], [3.0, 4.0]]), [1, 0])
        np.testing.assert_array_equal(out.data, [[2.0], [3.0]])

    def test_concat_and_slice_invert(self):
        a, b = constant(np.ones((2, 2))), constant(np.zeros((2, 3)))
        joined = concat([a, b], axis=1)
        np.testing.assert_array_equal(slice_axis(joined, 1, 0, 2).data, a.data)
        np.testing.assert_array_equal(slice_axis(joined, 1, 2, 5).data, b.data)


class TestBackwardHandDerivatives:
    def test_sum_of_matmul_gives_outer_product_structure(self):
        w = param("w", np.zeros((2, 3)))
        x = constant([[1.0, 2.0]])  # fixed input
        loss = tensor_sum(matmul(x, w))
        backward(loss)
        # d/dW sum(x W) = x^T 1^T: each column of W sees x
        np.testing.assert_allclose(w.grad, np.array([[1.0], [2.0]]) @ np.ones((1, 3)))

    def test_constant_loss_gives_zero_grads(self):
        w = param("w", [[1.0, 2.0]])
        loss = tensor_sum(mul(constant([[0.0, 0.0]]), w))
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.zeros_like(w.data))

    def test_tanh_derivative(self):
        w = param("w", [[0.3]])
        backward(tensor_sum(tanh(w)))
        np.testing.assert_allclose(w.grad, 1.0 - np.tanh(0.3) ** 2, rtol=1e-12)

    def test_sigmoid_derivative(self):
        w = param("w", [[-0.7]])
        backward(tensor_sum(sigmoid(w)))
        s = 1.0 / (1.0 + np.exp(0.7))
        np.testing.assert_allclose(w.grad, s * (1 - s), rtol=1e-12)

    def test_softmax_nll_gradient_is_p_minus_onehot(self):
        w = param("w", [[0.2, -0.4, 0.9]])
        loss = -tensor_sum(gather_rows(log_softmax(w, axis=1), [2]))
        backward(loss)
        p = np.exp(w.data[0]) / np.exp(w.data[0]).sum()
        expected = p.copy()
        expected[2] -= 1.0
        np.testing.assert_allclose(w.grad[0], expected, rtol=1e-10)

    def test_broadcast_add_reduces_grad(self):
        bias = param("b", [[1.0, 2.0]])
        x = constant(np.ones((3, 2)))
        backward(tensor_sum(add(x, bias)))
        np.testing.assert_array_equal(bias.grad, [[3.0, 3.0]])

    def test_grads_accumulate_until_zeroed(self):
        w = param("w", [[1.0]])
        backward(tensor_sum(w))
        backward(tensor_sum(w))
        np.testing.assert_array_equal(w.grad, [[2.0]])
        zero_grads([w])
        assert w.grad is None

    def test_detach_blocks_gradient(self):
        w = param("w", [[2.0]])
        loss = tensor_sum(mul(detach(w), w))
        backward(loss)
        # only the undetached factor contributes
        np.testing.assert_array_equal(w.grad, [[2.0]])

    def test_no_grad_suppresses_tape(self):
        w = param("w", [[1.0]])
        with no_grad():
            out = mul(w, w)
        assert out._parents == ()
        assert not out.requires_grad

    def test_backward_rejects_non_scalar(self):
        w = param("w", [[1.0, 2.0]])
        with pytest.raises(ValueError, match="scalar"):
            backward(add(w, w))

    def test_shared_subexpression_counted_twice(self):
        w = param("w", [[3.0]])
        y = mul(w, w)  # w appears twice: dy/dw = 2w
        backward(tensor_sum(y))
        np.testing.assert_allclose(w.grad, [[6.0]])


class TestCompositeGraphsFiniteDifference:
    def test_mlp_style_graph(self):
        rng = np.random.default_rng(7)
        w1 = Parameter("w1", rng.normal(size=(4, 5)))
        b1 = Parameter("b1", rng.normal(size=(1, 5)))
        w2 = Parameter("w2", rng.normal(size=(5, 3)))
        x = constant(rng.normal(size=(2, 4)))

        def loss_fn():
            hidden = tanh(add(matmul(x, w1), b1))
            return tensor_sum(mul(matmul(hidden, w2), matmul(hidden, w2)))

        report = finite_difference_check([w1, b1, w2], loss_fn, rng, num_coords=60)
        assert report.passed, report.failures

    def test_softmax_attention_style_graph(self):
        rng = np.random.default_rng(8)
        q = Parameter("q", rng.normal(size=(1, 4)))
        keys = Parameter("keys", rng.normal(size=(6, 4)))

        def loss_fn():
            scores = matmul(q, transpose(keys))
            weights = softmax(scores, axis=1)
            ctx = matmul(weights, keys)
            return tensor_sum(mul(ctx, ctx))

        report = finite_difference_check([q, keys], loss_fn, rng, num_coords=40)
        assert report.passed, report.failures


class TestLSTM:
    def test_zero_weights_give_zero_hidden(self):
        rng = np.random.default_rng(9)
        cell = LSTMCell("z", 3, 4, rng, dtype=np.float64, forget_bias=0.0)
        for p in cell.parameters():
            p.data = np.zeros_like(p.data)
        h0, c0 = cell.initial_state()
        h, c = cell.step(constant(np.ones((1, 3))), h0, c0)
        np.testing.assert_allclose(h.data, np.zeros((1, 4)))

    def test_bias_only_cell_state_hand_formula(self):
        rng = np.random.default_rng(10)
        h = 3
        cell = LSTMCell("b", 2, h, rng, dtype=np.float64)
        for p in (cell.w_x, cell.w_h):
            p.data = np.zeros_like(p.data)
        bias = np.array([0.4, -0.2, 0.1,  0.9, 0.9, 0.9,  0.7, -0.5, 0.3,  0.0, 0.0, 0.0])
        cell.b.data = bias.reshape(1, 4 * h)
        h0, c0 = cell.initial_state()
        _, c = cell.step(constant(np.zeros((1, 2))), h0, c0)
        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))
        expected = sig(bias[:3]) * np.tanh(bias[6:9])
        np.testing.assert_allclose(c.data[0], expected, rtol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        rng = np.random.default_rng(11)
        cell = LSTMCell("f", 2, 5, rng)
        np.testing.assert_array_equal(cell.b.data[0, 5:10], np.ones(5))
        np.testing.assert_array_equal(cell.b.data[0, :5], np.zeros(5))

    def test_repeatability_same_seed(self):
        a = LSTMCell("r", 3, 3, np.random.default_rng(42), dtype=np.float64)
        b = LSTMCell("r", 3, 3, np.random.default_rng(42), dtype=np.float64)
        x = constant(np.ones((1, 3)))
        ha, _ = a.step(x, *a.initial_state())
        hb, _ = b.step(x, *b.initial_state())
        np.testing.assert_array_equal(ha.data, hb.data)

    def test_bilstm_concat_shape_and_direction(self):
        rng = np.random.default_rng(12)
        fwd = LSTMCell("fw", 2, 3, rng, dtype=np.float64)
        bwd = LSTMCell("bw", 2, 3, rng, dtype=np.float64)
        rows = split_rows(constant(np.arange(8.0).reshape(4, 2)))
        outs, fwd_last, bwd_last = run_bilstm(fwd, bwd, rows)
        assert len(outs) == 4
        assert outs[0].data.shape == (1, 6)
        # forward half of the last position equals the forward final state
        np.testing.assert_array_equal(outs[-1].data[:, :3], fwd_last.data)
        # backward half of the FIRST position equals the backward final state
        np.testing.assert_array_equal(outs[0].data[:, 3:], bwd_last.data)

    def test_lstm_gradcheck_through_time(self):
        rng = np.random.default_rng(13)
        cell = LSTMCell("g", 2, 3, rng, dtype=np.float64)
        xs = constant(rng.normal(size=(5, 2)))

        def loss_fn():
            states = run_lstm(cell, split_rows(xs))
            return tensor_sum(concat(states, axis=0))

        report = finite_difference_check(cell.parameters(), loss_fn, rng, num_coords=60)
        assert report.passed, report.failures


class TestOptimizers:
    def test_adam_first_step_is_minus_lr(self):
        p = param("p", [[0.0]])
        p.grad = np.array([[1.0]])
        Adam([p], lr=0.001).step()
        np.testing.assert_allclose(p.data, [[-0.001]], rtol=1e-7)

    def test_adam_bias_correction_two_steps(self):
        # hand-rolled two-step Adam on a fixed gradient of 1
        p = param("p", [[0.0]])
        opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            p.grad = np.array([[1.0]])
            opt.step()
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            x -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.data, [[x]], rtol=1e-12)

    def test_sgd_step(self):
        p = param("p", [[1.0, 2.0]])
        p.grad = np.array([[0.5, -0.5]])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [[0.95, 2.05]])

    def test_zero_grad_means_no_change(self):
        p = param("p", [[3.0]])
        p.grad = np.array([[0.0]])
        before = p.data.copy()
        Adam([p], lr=0.5).step()
        np.testing.assert_array_equal(p.data, before)

    def test_nonfinite_grad_refused(self):
        p = param("p", [[1.0]])
        p.grad = np.array([[np.nan]])
        with pytest.raises(NumericError, match="non-finite"):
            SGD([p], lr=0.1).step()

    def test_clip_scales_by_half_at_double_norm(self):
        a = param("a", [[3.0]])
        b = param("b", [[4.0]])
        a.grad = np.array([[6.0]])
        b.grad = np.array([[8.0]])  # global norm 10
        norm = clip_global_norm([a, b], 5.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(a.grad, [[3.0]])
        np.testing.assert_allclose(b.grad, [[4.0]])

    def test_clip_is_idempotent(self):
        rng = np.random.default_rng(14)
        params = [param(f"p{i}", rng.normal(size=(3, 3))) for i in range(3)]
        for p in params:
            p.grad = rng.normal(size=(3, 3)) * 10
        clip_global_norm(params, 5.0)
        once = [p.grad.copy() for p in params]
        clip_global_norm(params, 5.0)
        for grad, kept in zip((p.grad for p in params), once):
            np.testing.assert_allclose(grad, kept, rtol=1e-12)

    def test_clip_below_threshold_is_identity(self):
        p = param("p", [[1.0]])
        p.grad = np.array([[0.3]])
        clip_global_norm([p], 5.0)
        np.testing.assert_array_equal(p.grad, [[0.3]])


class TestInit:
    def test_bound_respected(self):
        rng = np.random.default_rng(15)
        t = init_uniform((50, 4), 4, rng, dtype=np.float64)
        assert np.abs(t.data).max() <= 0.5

    def test_mean_near_zero(self):
        rng = np.random.default_rng(16)
        t = init_uniform((100000,), 4, rng, dtype=np.float64)
        bound = 0.5
        se = (2 * bound) / np.sqrt(12 * t.data.size)
        assert abs(t.data.mean()) < 3 * se

    def test_same_seed_identical(self):
        a = init_uniform((4, 4), 4, np.random.default_rng(5), dtype=np.float64)
        b = init_uniform((4, 4), 4, np.random.default_rng(5), dtype=np.float64)
        np.testing.assert_array_equal(a.data, b.data)


class TestCheckpoint:
    def _params(self):
        rng = np.random.default_rng(17)
        return [
            Parameter("m.w1", rng.normal(size=(3, 4)).astype(np.float32)),
            Parameter("m.w2", rng.normal(size=(2, 2))),
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {"d": 4}, "hash123")
        data = load_checkpoint(path, expected_model="demo", expected_vocab_hash="hash123")
        assert isinstance(data, CheckpointData)
        for p in params:
            np.testing.assert_array_equal(data.arrays[p.name], p.data)
            assert data.arrays[p.name].dtype == p.data.dtype
        assert data.config == {"d": 4}

    def test_vocab_hash_mismatch_names_both(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "aaa")
        with pytest.raises(CheckpointError, match="aaa.*bbb"):
            load_checkpoint(path, expected_vocab_hash="bbb")

    def test_model_name_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        with pytest.raises(CheckpointError, match="demo"):
            load_checkpoint(path, expected_model="other")

    def test_truncated_file_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_refused(self, tmp_path):
        import json
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_apply_state_restores_values(self, tmp_path):
        params = self._params()
        originals = [p.data.copy() for p in params]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        for p in params:
            p.data = np.zeros_like(p.data)
        apply_state(params, load_checkpoint(path).arrays)
        for p, orig in zip(params, originals):
            np.testing.assert_array_equal(p.data, orig)

    def test_apply_state_rejects_shape_mismatch(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        arrays = load_checkpoint(path).arrays
        arrays["m.w1"] = arrays["m.w1"][:2, :]
        with pytest.raises(CheckpointError, match="shape"):
            apply_state(params, arrays)

    def test_apply_state_rejects_name_mismatch(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        arrays = load_checkpoint(path).arrays
        del arrays["m.w2"]
        with pytest.raises(CheckpointError, match="mismatch"):
            apply_state(params, arrays)
