"""Autodiff core, LSTM cell, optimizers, init, and checkpoints.

Gradients are checked against hand-derived formulas for small graphs and
against central finite differences for composite ones. All gradient
comparisons run in 64-bit.
"""

import os
import threading

import numpy as np
import pytest

from latentsum.errors import CheckpointError, DataError, NumericError
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
    dropout_mask,
    embedding_lookup,
    fit,
    gather_rows,
    init_uniform,
    load_checkpoint,
    log_softmax,
    lstm_sequence,
    matmul,
    matmul_gemm,
    matmul_rowwise,
    mul,
    no_grad,
    reshape,
    run_bilstm,
    segment_mean,
    save_checkpoint,
    sigmoid,
    slice_axis,
    softmax,
    step_schedule,
    tensor_sum,
    tanh,
    transpose,
    zero_grads,
)
from latentsum.numerics import lstm
from latentsum.numerics.init import DRAW_BLOCK
from latentsum.numerics.tensor import _accumulate, gemm_rows, row_products, stable_sigmoid

from conftest import (
    CHECKPOINT_DAMAGE,
    blas_build,
    damage_checkpoint,
    initial_state,
    rewrite_checkpoint_header,
    traced_peak,
)
from gradcheck import finite_difference_check
import oracles


def gate_major(w: np.ndarray) -> np.ndarray:
    """(rows, 4h) gate columns i|f|g|o as the (4, rows, h) blocks that
    ``LSTMCell.step_weights`` lays out."""
    return w.reshape(w.shape[0], 4, -1).transpose(1, 0, 2)


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

    def test_dropout_p_zero_is_identity(self):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        x = constant(np.ones((2, 3)))
        mask = dropout_mask(x.shape, 0.0, rng)
        np.testing.assert_array_equal(dropout(x, mask).data, x.data)
        assert rng.bit_generator.state == state  # nothing drawn

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(4)
        x = constant(np.ones((40, 40)))
        out = dropout(x, dropout_mask(x.shape, 0.25, rng)).data
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

    def test_one_tensor_concat_and_full_slice_add_no_node(self):
        a = constant(np.ones((2, 3)))
        assert concat([a], axis=0) is a
        assert slice_axis(a, 0, 0, 2) is a and slice_axis(a, 1, 0, 3) is a
        assert slice_axis(a, 1, 0, 2) is not a


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

    @staticmethod
    def first_grad(data, g):
        """The gradient that ``_accumulate`` stores from ``g``, the first
        contribution to a tensor of ``data``, and what a zero fill plus
        ``g`` gives."""
        t = Parameter("t", data)
        _accumulate(t, g)
        want = np.zeros_like(t.data)
        want += g
        return t.grad, want

    def test_first_contribution_of_negative_zero_is_positive_zero(self):
        g = np.array([[-0.0, 1.5, -0.0]])
        got, want = self.first_grad(np.ones((1, 3)), g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()
        # a fresh, writable array that does not alias the contribution
        assert got.flags.writeable and not np.shares_memory(got, g)
        got += 1.0
        np.testing.assert_array_equal(g, [[-0.0, 1.5, -0.0]])

    def test_first_contribution_is_cast_to_the_tensors_dtype(self):
        # float64 into float32: one rounding after the add, as with a zero
        # fill, so a float64 tiny below float32's range stays -0.0
        g = np.array([[-1e-50, -0.0, 1.0000000001, 3e38 * 2]])
        with np.errstate(over="ignore"):
            got, want = self.first_grad(np.ones((1, 4), np.float32), g)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 0]) and not np.signbit(got[0, 1])

    def test_broadcast_contribution_is_added_to_zeros(self):
        # a contribution of another shape broadcasts to the bits of a zero
        # fill plus it
        got, want = self.first_grad(np.ones((2, 3)), np.array(-0.0))
        assert got.shape == (2, 3) and got.tobytes() == want.tobytes()
        got, want = self.first_grad(np.ones((2, 3)), np.array([-0.0, 2.0, 3.0]))
        assert got.shape == (2, 3) and got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()

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

    def test_no_grad_stays_in_its_thread(self):
        entered, release = threading.Event(), threading.Event()
        inside = {}

        def hold_no_grad():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                inside["out"] = mul(param("v", [[1.0]]), param("v", [[2.0]]))

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            w = param("w", [[3.0]])
            out = mul(w, w)  # recorded here while the worker is inside no_grad
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert out.requires_grad and out._parents == (w, w)
        backward(tensor_sum(out))
        np.testing.assert_array_equal(w.grad, [[6.0]])
        assert not inside["out"].requires_grad and inside["out"]._parents == ()

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

        # additive scores over all (query, key) pairs, reshaped to (queries, keys)
        queries = Parameter("queries", rng.normal(size=(3, 4)))
        v = Parameter("v", rng.normal(size=(4, 1)))

        def pairwise_loss():
            pairs = add(embedding_lookup(queries, np.repeat(np.arange(3), 6)),
                        embedding_lookup(keys, np.tile(np.arange(6), 3)))
            scores = reshape(matmul(tanh(pairs), v), (3, 6))
            ctx = matmul(softmax(scores, axis=1), keys)
            return tensor_sum(mul(ctx, ctx))

        report = finite_difference_check([queries, keys, v], pairwise_loss, rng, num_coords=60)
        assert report.passed, report.failures


def where_sigmoid(x):
    """The select formula stable_sigmoid replaced, kept as its oracle."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype, copy=False)


class TestRowsIndependentOfThePack:
    """The primitives whose rows keep their bits whatever else is packed
    beside them, against the same rows computed alone."""

    # the walkthrough's and the wide benchmark's widths only. The property is
    # the BLAS kernel's, and its documented limit is that it does not hold at
    # every width: at float32 h = 24 with in = 48 and at float64 h = 6 some
    # gate of the gate-major product differs in the last bit from its columns
    # of the (…, 4h) product, so a model of such a width rounds differently
    # from trees before the gate-major layout (a one-time bit change)
    @pytest.mark.parametrize("hid,dtype", [(16, np.float32), (64, np.float32), (16, np.float64)])
    def test_a_gate_block_of_a_product_has_the_bits_of_its_columns(self, hid, dtype):
        # the gate-major step weights rest on this: (k, in) @ (in, h) per
        # gate gives the bits of the gate's h columns of (k, in) @ (in, 4h),
        # for every step width up to a run, one-row (gemv) products, each
        # input width of the model's LSTMs, and one cell, a stack of one
        # and a stack of two
        rng = np.random.default_rng(hid)
        bits = np.uint32 if dtype == np.float32 else np.uint64
        for n_in in (hid, 2 * hid, 3 * hid):
            for cells in ((), (1,), (2,)):
                a = rng.normal(size=cells + (lstm.RUN_ROWS + 1, n_in)).astype(dtype)
                w = rng.normal(size=cells + (n_in, 4 * hid)).astype(dtype)
                blocks = np.ascontiguousarray(np.moveaxis(
                    w.reshape(w.shape[:-1] + (4, hid)), -2, 0))
                for k in range(1, lstm.RUN_ROWS + 2):
                    whole = np.matmul(a[..., :k, :], w).reshape(cells + (k, 4, hid))
                    got = np.matmul(a[..., :k, :], blocks)
                    assert np.array_equal(got.view(bits), np.moveaxis(whole, -2, 0).view(bits)), \
                        f"k={k}, in={n_in}, h={hid}, cells={cells} (BLAS {blas_build()})"

    @pytest.mark.parametrize("dtype,k,n", [(np.float32, 64, 16), (np.float32, 192, 256),
                                           (np.float64, 18, 24), (np.float64, 12, 6)])
    def test_gemm_rows_gives_every_row_its_bits_alone(self, dtype, k, n):
        rng = np.random.default_rng(k + n)
        a = rng.normal(size=(40, k)).astype(dtype)
        b = rng.normal(size=(k, n)).astype(dtype)
        alone = np.concatenate([gemm_rows(a[i : i + 1], b) for i in range(len(a))])
        for rows in (2, 3, 7, 40):
            assert gemm_rows(a[:rows], b).tobytes() == alone[:rows].tobytes(), \
                f"{rows} rows (BLAS {blas_build()})"

    @pytest.mark.parametrize("dtype,k,n", [(np.float32, 64, 2), (np.float32, 16, 1),
                                           (np.float64, 18, 2), (np.float64, 6, 1)])
    def test_row_products_give_every_row_its_bits_alone(self, dtype, k, n):
        rng = np.random.default_rng(k * n)
        a = rng.normal(size=(40, k)).astype(dtype)
        b = rng.normal(size=(k, n)).astype(dtype)
        alone = np.concatenate([row_products(a[i : i + 1], b) for i in range(len(a))])
        for rows in (2, 5, 8, 40):
            assert row_products(a[:rows], b).tobytes() == alone[:rows].tobytes()
        np.testing.assert_allclose(alone, a @ b, rtol=1e-5 if dtype == np.float32 else 1e-12)

    def test_segment_mean_is_each_segment_alone(self):
        rng = np.random.default_rng(3)
        lengths = [3, 1, 7, 2, 1]
        a = rng.normal(size=(sum(lengths), 6)).astype(np.float32)
        means = segment_mean(constant(a), lengths).data
        start = 0
        for row, n in zip(means, lengths):
            alone = segment_mean(constant(a[start : start + n]), [n]).data[0]
            assert row.tobytes() == alone.tobytes()
            np.testing.assert_allclose(row, a[start : start + n].mean(axis=0), rtol=1e-6)
            start += n
        with pytest.raises(ShapeError, match="partition"):
            segment_mean(constant(a), [3, 1])

    def test_gradchecks(self):
        rng = np.random.default_rng(4)
        x = Parameter("x", rng.normal(size=(7, 4)))
        w = Parameter("w", rng.normal(size=(4, 3)))
        one = Parameter("one", rng.normal(size=(1, 4)))
        weights = constant(rng.normal(size=(3, 3)))

        def loss_fn():
            pooled = segment_mean(tanh(x), [2, 4, 1])
            out = add(matmul_rowwise(pooled, w), matmul_gemm(one, w))
            return tensor_sum(mul(out, mul(out, weights)))

        report = finite_difference_check([x, w, one], loss_fn, rng, num_coords=60)
        assert report.passed, report.failures

    @pytest.mark.parametrize("d", [16, 64])
    def test_recurrence_rows_equal_each_sequence_alone(self, d):
        # a lone sequence's steps run beside a spare row, so no step is a
        # one-row product and every state has its bits in any pack
        rng = np.random.default_rng(d)
        fwd, bwd = LSTMCell("fw", d, d, rng), LSTMCell("bw", d, d, rng)
        lengths = [1, 5, 3, 1, 8, 2]
        x = constant(rng.normal(size=(sum(lengths), d)).astype(np.float32))
        packed = run_bilstm(fwd, bwd, x, lengths).data
        start = 0
        for n in lengths:
            alone = run_bilstm(fwd, bwd, slice_axis(x, 0, start, start + n), [n]).data
            assert packed[start : start + n].tobytes() == alone.tobytes(), \
                f"length {n} (BLAS {blas_build()})"
            start += n

    def test_no_grad_run_gives_the_taped_states(self):
        rng = np.random.default_rng(5)
        cell = LSTMCell("c", 4, 4, rng, dtype=np.float64)
        x = Parameter("x", rng.normal(size=(6, 4)))
        with no_grad():
            out = lstm_sequence(cell, x, [4, 2])
        assert not out.requires_grad and out._backward is None
        np.testing.assert_array_equal(out.data, lstm_sequence(cell, x, [4, 2]).data)


class TestProjectionRuns:
    """The recurrence projects its inputs one run of whole steps at a time;
    every run budget gives the states and gradients of one projection over
    every row, bit for bit."""

    # nine sequences, so the first steps are wider than budgets of 1, 2 and
    # 7 rows, and a lone sequence's last steps make one-row runs
    LENGTHS = [3, 7, 1, 5, 7, 2, 9, 4, 1]

    def test_runs_are_whole_steps_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(lstm, "RUN_ROWS", 7)
        assert lstm._runs([9, 5, 2, 2, 1, 1, 1, 1]) == [[9], [5, 2], [2, 1, 1, 1, 1]]
        assert lstm._runs([3, 3, 3]) == [[3, 3], [3]]
        monkeypatch.setattr(lstm, "RUN_ROWS", 1)
        assert lstm._runs([2, 1, 1]) == [[2], [1], [1]]

    @pytest.mark.parametrize("budget", [1, 2, 7])
    @pytest.mark.parametrize("d,dtype", [(16, np.float32), (64, np.float32), (6, np.float64)])
    def test_every_budget_gives_the_bits_of_one_projection(self, monkeypatch, d, dtype,
                                                           budget):
        rng = np.random.default_rng(d + budget)
        fwd, bwd, one = (LSTMCell(name, d, d, rng, dtype) for name in ("fw", "bw", "one"))
        lengths, n = self.LENGTHS, sum(self.LENGTHS)
        x = Parameter("x", rng.normal(size=(n, d)).astype(dtype))
        h0 = Parameter("h0", rng.normal(size=(len(lengths), d)).astype(dtype))
        weights = constant(rng.normal(size=(n, 3 * d)).astype(dtype))
        params = [x, h0] + fwd.parameters() + bwd.parameters() + one.parameters()

        def states():
            return concat([run_bilstm(fwd, bwd, x, lengths),
                           lstm_sequence(one, x, lengths, h0=h0, reverse=True)], axis=1)

        def run():
            zero_grads(params)
            out = states()
            backward(tensor_sum(mul(out, weights)))
            with no_grad():
                untaped = states()
            return [out.data, untaped.data] + [p.grad_or_zeros().copy() for p in params]

        monkeypatch.setattr(lstm, "RUN_ROWS", n)  # one projection over every row
        want = run()
        monkeypatch.setattr(lstm, "RUN_ROWS", budget)
        got = run()
        for name, g, w in zip(["states", "no_grad states"] + [p.name for p in params],
                              got, want):
            assert g.tobytes() == w.tobytes(), \
                f"{name} at {budget} rows per run (BLAS {blas_build()})"

    # a lone sequence's schedule is built without the sort; 600 rows span RUN_ROWS
    @pytest.mark.parametrize("lengths", [[1], [3, 7, 2, 7, 1], [1, 1, 4], [5000] + [1] * 1000,
                                         [7], [256], [600]])
    def test_schedule_equals_a_loop_over_the_steps(self, lengths):
        order, counts, rows, back_rows = step_schedule(lengths)
        first = np.cumsum(lengths) - lengths
        want_order = sorted(range(len(lengths)), key=lambda j: (-lengths[j], j))
        want_counts, want_rows, want_back = [], [], []
        for t in range(max(lengths)):
            live = [j for j in want_order if lengths[j] > t]
            want_counts.append(len(live))
            want_rows.extend(first[j] + t for j in live)
            want_back.extend(first[j] + lengths[j] - 1 - t for j in live)
        assert order.tolist() == want_order
        assert counts.tolist() == want_counts
        assert rows.tolist() == want_rows
        assert back_rows.tolist() == want_back

    def test_schedule_memory_is_linear_in_the_rows(self):
        # one long sequence beside many short ones: a (steps, sequences)
        # mask took 45 MB here, 7,557 bytes a row
        lengths = [5000] + [1] * 1000
        _, peak = traced_peak(lambda: step_schedule(lengths))
        assert peak / sum(lengths) <= 128

    def test_memory_beside_the_states_does_not_grow_with_the_rows(self):
        # 32,000 rows at d=64 in float32: projecting every row at once took
        # 2,048 bytes a row, and copying the states to transpose them 512;
        # now one run's buffer and the schedule's row indices remain
        rng = np.random.default_rng(7)
        fwd, bwd = LSTMCell("fw", 64, 64, rng), LSTMCell("bw", 64, 64, rng)
        x = constant(rng.normal(size=(32_000, 64)).astype(np.float32))
        with no_grad():
            out, peak = traced_peak(lambda: run_bilstm(fwd, bwd, x, [2_000] * 16))
        assert (peak - out.data.nbytes) / 32_000 <= 128


class TestGateAffineShapes:
    """A step of at most AFFINE_ROWS gate rows takes ``gate_affine`` at its
    own width; a wider one broadcasts the (4, 1) column. Same bits either
    way."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_shape_has_the_bits_of_the_broadcast_column(self, dtype):
        hid = 16
        rng = np.random.default_rng(42)
        scale, shift = lstm.gate_affine(np.dtype(dtype))
        shapes = [(k,) for k in (1, 2, 3, 4, 5, 9)] \
            + [(cells, k) for cells in (1, 2) for k in (1, 2, 3, 5)]
        for lead in shapes:
            h = rng.normal(size=lead + (hid,)).astype(dtype)
            c = rng.normal(size=lead + (hid,)).astype(dtype)
            # a gate of each value class: large, tiny, zero, negative zero
            xw = rng.normal(scale=4.0, size=(4,) + lead + (hid,)).astype(dtype)
            xw[..., :4] = [1e30, -1e-30, 0.0, -0.0]
            w_h = rng.normal(size=(4,) + lead[:-1] + (hid, hid)).astype(dtype)
            got = lstm.lstm_step(xw, h, c, w_h)
            act = np.matmul(h, w_h)
            act += xw
            np.tanh(act, out=act)
            blocks = act.reshape(4, -1)
            blocks *= scale
            blocks += shift
            want_c = act[1] * c
            want_c += act[0] * act[2]
            tc = np.tanh(want_c)
            want = (act[3] * tc, want_c, act, tc)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), lead

    def test_the_cache_holds_only_small_shapes(self):
        # 39 step widths of a pack: only (2, 1) and (2, 2) take a shaped
        # affine; the rest share the (4, 1) column
        hid = 8

        def steps():
            for k in range(1, 40):
                lstm.lstm_step(np.zeros((4, 2, 1, hid)), np.zeros((2, k, hid)),
                               np.zeros((2, k, hid)), np.zeros((4, 2, hid, hid)))

        lstm.gate_affine.cache_clear()
        steps()
        steps()
        assert lstm.gate_affine.cache_info().currsize == 3  # widths 1, 2h and 4h


def stepwise_bptt(cells, cache, grad, sequences, dtype):
    """``lstm._bptt`` as the textbook formulas, step by step, each gate's
    product multiplied left to right: the oracle of its one pass of
    factors."""
    dirs, hid = len(cells), cells[0].hidden_size
    cell_of = np.arange(dirs)[:, None]
    steps = [step for run in cache for step in run]
    w_h_t = np.stack([c.w_h.data for c in cells]).transpose(0, 2, 1)
    dh = np.zeros((dirs, sequences, hid), dtype)
    dc = np.zeros((dirs, sequences, hid), dtype)
    d_pre = []
    for rows, act, hp, cp, tc in reversed(steps):
        k = rows.shape[1]
        i, f, g, o = act  # gate-major, (cells, k, h) each
        dh_t = dh[:, :k] + grad[rows, cell_of]
        dc_t = dc[:, :k] + dh_t * o * (1.0 - tc * tc)
        dp = np.concatenate([dc_t * g * i * (1.0 - i),
                             dc_t * cp * f * (1.0 - f),
                             dc_t * i * (1.0 - g * g),
                             dh_t * tc * o * (1.0 - o)], axis=-1)
        d_pre.append(dp)
        dc[:, :k] = dc_t * f
        dh[:, :k] = np.matmul(dp, w_h_t)
    rows = np.concatenate([step[0] for step in reversed(steps)], axis=1)
    h_prev = np.concatenate([step[2] for step in reversed(steps)], axis=1)
    return np.concatenate(d_pre, axis=1), rows, h_prev, dh


class TestOnePassBPTT:
    """Backpropagation through time in one pass of factors a run at a
    time has the bits of the stepwise formulas, states and gradients."""

    # lone and packed, one-row steps, and 600 rows that span RUN_ROWS
    @pytest.mark.parametrize("lengths", [[1], [7], [600], [3, 7, 2, 7, 1], [1, 1],
                                         [300, 5, 260, 1]])
    @pytest.mark.parametrize("d,dtype", [(16, np.float32), (64, np.float32), (6, np.float64)])
    def test_states_and_gradients_equal_the_stepwise_formulas(self, monkeypatch, lengths, d,
                                                              dtype):
        rng = np.random.default_rng(d + len(lengths))
        fwd, bwd, back, ahead = (LSTMCell(name, d, d, rng, dtype)
                                 for name in ("fw", "bw", "back", "ahead"))
        n = sum(lengths)
        x = Parameter("x", rng.normal(size=(n, d)).astype(dtype))
        h0 = Parameter("h0", rng.normal(size=(len(lengths), d)).astype(dtype))
        weights = constant(rng.normal(size=(n, 4 * d)).astype(dtype))
        params = [x, h0] + fwd.parameters() + bwd.parameters() + back.parameters() \
            + ahead.parameters()

        def run():
            zero_grads(params)
            # a Bi-LSTM, and reversed and forward cells started from h0
            out = concat([run_bilstm(fwd, bwd, x, lengths),
                          lstm_sequence(back, x, lengths, h0=h0, reverse=True),
                          lstm_sequence(ahead, x, lengths, h0=h0)], axis=1)
            backward(tensor_sum(mul(out, weights)))
            return [out.data] + [p.grad_or_zeros().copy() for p in params]

        got = run()
        monkeypatch.setattr(lstm, "_bptt", stepwise_bptt)
        want = run()
        for name, g, w in zip(["states"] + [p.name for p in params], got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), \
                f"{name} at lengths {lengths} (BLAS {blas_build()})"

    def test_memory_beside_the_gradients_does_not_grow_with_the_rows(self, monkeypatch):
        # 16,000 rows at d=16 in float32: building the factors for every
        # step at once would add 2,176 bytes a row, and keeping each step's
        # gradient beside their concatenation 512; the factors of one run
        # remain beside what the pass returns
        rng = np.random.default_rng(8)
        fwd, bwd = LSTMCell("fw", 16, 16, rng), LSTMCell("bw", 16, 16, rng)
        x = constant(rng.normal(size=(16_000, 16)).astype(np.float32))
        peaks = []
        one_pass = lstm._bptt

        def measured(*args):
            result, peak = traced_peak(lambda: one_pass(*args))
            peaks.append(peak - sum(a.nbytes for a in result))
            return result

        monkeypatch.setattr(lstm, "_bptt", measured)
        out = run_bilstm(fwd, bwd, x, [1_000] * 16)
        backward(tensor_sum(out))
        assert len(peaks) == 1 and peaks[0] / 16_000 <= 128


def sigmoid_inputs(dtype, bits):
    """One column of every input class a gate meets: ±0, ±inf, NaN, ±max,
    normal and subnormal tiny values, a ±120 grid and 300,000 random bit
    patterns."""
    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, info.max, -info.max,
                        info.tiny, -info.tiny, info.smallest_subnormal,
                        -info.smallest_subnormal, info.tiny / 3, -info.tiny / 3],
                       dtype=dtype)
    patterns = np.random.default_rng(7).integers(0, np.iinfo(bits).max, size=300_000,
                                                 dtype=bits, endpoint=True)
    return np.concatenate([special, np.linspace(-120, 120, 24_001, dtype=dtype),
                           patterns.view(dtype)]).reshape(-1, 1)


class TestStableSigmoid:
    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_bitwise_equal_to_select_formula(self, dtype, bits):
        x = sigmoid_inputs(dtype, bits)
        with np.errstate(over="ignore", invalid="ignore"):
            want, got = where_sigmoid(x), stable_sigmoid(x)
        assert got.dtype == dtype
        nan = np.isnan(want)
        assert nan.sum() > 0
        np.testing.assert_array_equal(np.isnan(got), nan)  # NaN payloads may differ
        np.testing.assert_array_equal(got[~nan].view(bits), want[~nan].view(bits))


class TestOneTanhGates:
    """``lstm_step``'s gates, tanh(z / 2) / 2 + 1 / 2 for i, f and o and
    tanh(z) for g, read off its returned gates with h = c = 0 and w_h = 0,
    so that each gate column is one pre-activation z."""

    @staticmethod
    def gates(z):
        # one unit, so the four gate columns are z's; the pre-activation is
        # z @ w_x + b with w_x = 1 and b = 0
        dtype = z.dtype
        cell = LSTMCell("g", 1, 1, np.random.default_rng(0), dtype=dtype)
        cell.w_x.data = np.ones((1, 4), dtype)
        cell.w_h.data = np.zeros((1, 4), dtype)
        cell.b.data = np.zeros((1, 4), dtype)
        w_x, w_h, b = cell.step_weights()
        zero = np.zeros_like(z)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, act, _ = lstm.lstm_step(z @ w_x + b, zero, zero, w_h)
            pre = z @ cell.w_x.data + cell.b.data
        assert act.dtype == dtype and act.shape == (4, len(z), 1)
        return act.reshape(4, -1).T, pre  # one column per gate, as ``pre``

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_gates_within_one_eps_of_float64(self, dtype, bits):
        z = sigmoid_inputs(dtype, bits)
        act, _ = self.gates(z)
        with np.errstate(over="ignore", invalid="ignore"):
            sig = where_sigmoid(z.astype(np.float64))[:, 0]
            tanh_z = np.tanh(z.astype(np.float64))[:, 0]
        nan = np.isnan(z[:, 0])
        assert nan.sum() > 0
        for j, want in ((0, sig), (1, sig), (2, tanh_z), (3, sig)):
            got = act[:, j]
            np.testing.assert_array_equal(np.isnan(got), nan, err_msg=f"gate {j}")
            err = np.abs(got[~nan].astype(np.float64) - want[~nan])
            assert err.max() <= np.finfo(dtype).eps, f"gate {j}: {err.max()}"
            low, high = (-1, 1) if j == 2 else (0, 1)
            assert low <= got[~nan].min() and got[~nan].max() <= high, f"gate {j}"
        for value, want in ((np.inf, [1, 1, 1, 1]), (-np.inf, [0, 0, -1, 0])):
            row = act[z[:, 0] == value]
            assert len(row) and (row == np.array(want, dtype)).all(), value

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_scaled_weights_give_the_tanh_formula_of_half_the_pre_activation(self, dtype, bits):
        # halving w_x and b in the i, f and o columns halves their
        # pre-activation exactly, so the step's gates carry the bits of
        # tanh(pre / 2) / 2 + 1 / 2 and tanh(pre)
        act, pre = self.gates(sigmoid_inputs(dtype, bits))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.tanh(pre * 0.5) * 0.5 + 0.5
            want[:, 2] = np.tanh(pre[:, 2])
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(act), nan)  # NaN payloads may differ
        np.testing.assert_array_equal(act[~nan].view(bits), want[~nan].view(bits))


class TestLSTM:
    def test_zero_weights_give_zero_hidden(self):
        rng = np.random.default_rng(9)
        cell = LSTMCell("z", 3, 4, rng, dtype=np.float64)
        for p in cell.parameters():
            p.data = np.zeros_like(p.data)
        h0, c0 = initial_state(cell)
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
        h0, c0 = initial_state(cell)
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
        ha, _ = a.step(x, *initial_state(a))
        hb, _ = b.step(x, *initial_state(b))
        np.testing.assert_array_equal(ha.data, hb.data)

    def test_bilstm_concat_shape_and_direction(self):
        rng = np.random.default_rng(12)
        fwd = LSTMCell("fw", 2, 3, rng, dtype=np.float64)
        bwd = LSTMCell("bw", 2, 3, rng, dtype=np.float64)
        xs = constant(np.arange(8.0).reshape(4, 2))
        outs = run_bilstm(fwd, bwd, xs, [4])
        assert outs.data.shape == (4, 6)
        fwd_last = stepwise_states(fwd, xs.data, reverse=False)[-1]
        bwd_last = stepwise_states(bwd, xs.data, reverse=True)[0]
        # forward half of the last position equals the forward final state
        np.testing.assert_allclose(outs.data[-1:, :3], fwd_last.data, rtol=0, atol=1e-12)
        # backward half of the FIRST position equals the backward final state
        np.testing.assert_allclose(outs.data[:1, 3:], bwd_last.data, rtol=0, atol=1e-12)

    def test_lstm_gradcheck_through_time(self):
        rng = np.random.default_rng(13)
        cell = LSTMCell("g", 2, 3, rng, dtype=np.float64)
        xs = constant(rng.normal(size=(5, 2)))

        def loss_fn():
            return tensor_sum(lstm_sequence(cell, xs, [5]))

        report = finite_difference_check(cell.parameters(), loss_fn, rng, num_coords=60)
        assert report.passed, report.failures

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_sequence_matches_stepwise_reference(self, reverse):
        rng = np.random.default_rng(14)
        cell = LSTMCell("s", 3, 4, rng, dtype=np.float64)
        lengths = [3, 1, 5, 2]
        x = Parameter("x", rng.normal(size=(sum(lengths), 3)))
        h0 = Parameter("h0", rng.normal(size=(len(lengths), 4)))
        weights = constant(rng.normal(size=(sum(lengths), 4)))
        params = cell.parameters() + [x, h0]

        def run(fn):
            zero_grads(params)
            out = fn()
            backward(tensor_sum(mul(out, weights)))
            return out.data, [p.grad_or_zeros().copy() for p in params]

        def reference():
            rows, start = [], 0
            for b, n in enumerate(lengths):
                seq = slice_axis(x, 0, start, start + n)
                rows.extend(stepwise_states(cell, seq, reverse, slice_axis(h0, 0, b, b + 1)))
                start += n
            return concat(rows, axis=0)

        fused, fused_grads = run(lambda: lstm_sequence(cell, x, lengths, h0=h0, reverse=reverse))
        expected, expected_grads = run(reference)
        np.testing.assert_allclose(fused, expected, rtol=0, atol=1e-10)
        for p, got, want in zip(params, fused_grads, expected_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=p.name)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_sequence_gradcheck_variable_lengths(self, reverse):
        rng = np.random.default_rng(15)
        cell = LSTMCell("v", 2, 3, rng, dtype=np.float64)
        lengths = [2, 4, 1]
        x = Parameter("x", rng.normal(size=(sum(lengths), 2)))
        h0 = Parameter("h0", rng.normal(size=(len(lengths), 3)))
        weights = constant(rng.normal(size=(sum(lengths), 3)))

        def loss_fn():
            out = lstm_sequence(cell, x, lengths, h0=h0, reverse=reverse)
            return tensor_sum(mul(out, weights))

        report = finite_difference_check(cell.parameters() + [x, h0], loss_fn, rng,
                                         num_coords=80)
        assert report.passed, report.failures

    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("lengths", [[3, 7, 2, 7, 1], [4, 4, 4], [5]])
    def test_run_bilstm_bit_identical_to_two_recurrences(self, d, lengths):
        # both directions advanced as one recurrence must keep the bits of
        # one recurrence per direction, outputs and every gradient, in the
        # production dtype
        rng = np.random.default_rng(18)
        fwd = LSTMCell("fw", d, d, rng)
        bwd = LSTMCell("bw", d, d, rng)
        x = Parameter("x", rng.normal(size=(sum(lengths), d)).astype(np.float32))
        weights = constant(rng.normal(size=(sum(lengths), 2 * d)).astype(np.float32))
        params = [x] + fwd.parameters() + bwd.parameters()

        def run(fn):
            zero_grads(params)
            out = fn()
            backward(tensor_sum(mul(out, weights)))
            return out.data, [p.grad_or_zeros().copy() for p in params]

        fused, fused_grads = run(lambda: run_bilstm(fwd, bwd, x, lengths))
        expected, expected_grads = run(lambda: concat(
            [lstm_sequence(fwd, x, lengths), lstm_sequence(bwd, x, lengths, reverse=True)],
            axis=1))
        assert np.array_equal(fused, expected), f"states differ (BLAS {blas_build()})"
        for p, got, want in zip(params, fused_grads, expected_grads):
            assert np.array_equal(got, want), f"{p.name} gradient differs (BLAS {blas_build()})"

    # float32 states of the one-tanh step against the textbook tape step:
    # the two round differently (the halving fold, the bias's place in the
    # sum, one tanh for sigma), by about one float32 eps (1.2e-7) on states
    # below 1 in magnitude
    F32_STATE_ATOL = 1e-6

    @pytest.mark.parametrize("reverse", [False, True])
    def test_float32_lstm_sequence_matches_stepwise_reference(self, reverse):
        rng = np.random.default_rng(21)
        cell = LSTMCell("s", 64, 64, rng)
        lengths = [9, 1, 23, 4]
        x = rng.normal(size=(sum(lengths), 64)).astype(np.float32)
        h0 = rng.normal(0.0, 0.5, size=(len(lengths), 64)).astype(np.float32)
        with no_grad():
            fused = lstm_sequence(cell, constant(x), lengths, h0=constant(h0),
                                  reverse=reverse).data
            rows, start = [], 0
            for b, n in enumerate(lengths):
                rows += stepwise_states(cell, x[start : start + n], reverse,
                                        constant(h0[b : b + 1]))
                start += n
        want = np.concatenate([r.data for r in rows])
        assert fused.dtype == want.dtype == np.float32
        np.testing.assert_allclose(fused, want, rtol=0, atol=self.F32_STATE_ATOL)

    def test_float32_run_bilstm_matches_stepwise_reference(self):
        rng = np.random.default_rng(22)
        fwd, bwd = LSTMCell("fw", 64, 64, rng), LSTMCell("bw", 64, 64, rng)
        lengths = [5, 30, 1, 12]
        x = rng.normal(size=(sum(lengths), 64)).astype(np.float32)
        with no_grad():
            fused = run_bilstm(fwd, bwd, constant(x), lengths).data
            rows, start = [], 0
            for n in lengths:
                seq = x[start : start + n]
                rows += [np.concatenate([f.data, b.data], axis=1) for f, b in
                         zip(stepwise_states(fwd, seq), stepwise_states(bwd, seq, reverse=True))]
                start += n
        assert fused.dtype == np.float32
        np.testing.assert_allclose(fused, np.concatenate(rows), rtol=0,
                                   atol=self.F32_STATE_ATOL)

    def test_run_bilstm_gradcheck(self):
        rng = np.random.default_rng(19)
        fwd = LSTMCell("fw", 2, 3, rng, dtype=np.float64)
        bwd = LSTMCell("bw", 2, 3, rng, dtype=np.float64)
        lengths = [2, 4, 1]
        x = Parameter("x", rng.normal(size=(sum(lengths), 2)))
        weights = constant(rng.normal(size=(sum(lengths), 6)))

        def loss_fn():
            return tensor_sum(mul(run_bilstm(fwd, bwd, x, lengths), weights))

        report = finite_difference_check(fwd.parameters() + bwd.parameters() + [x], loss_fn,
                                         rng, num_coords=120)
        assert report.passed, report.failures

    @pytest.mark.parametrize("sizes", [(3, 4), (2, 5)])
    def test_run_bilstm_rejects_cells_of_other_sizes(self, sizes):
        rng = np.random.default_rng(20)
        fwd = LSTMCell("fw", 2, 4, rng, dtype=np.float64)
        bwd = LSTMCell("bw", *sizes, rng, dtype=np.float64)
        with pytest.raises(ShapeError, match="sizes"):
            run_bilstm(fwd, bwd, constant(np.zeros((3, 2))), [3])

    def test_lstm_sequence_rejects_bad_lengths(self):
        cell = LSTMCell("r", 2, 3, np.random.default_rng(16), dtype=np.float64)
        x = constant(np.zeros((4, 2)))
        for lengths in ([3], [2, 0, 2], []):
            with pytest.raises(ShapeError, match="lengths"):
                lstm_sequence(cell, x, lengths)
        for lengths in ([0], [-1]):  # a lone sequence, whose schedule skips the sort
            with pytest.raises(ShapeError, match="lengths"):
                lstm_sequence(cell, constant(np.zeros((0, 2))), lengths)
        with pytest.raises(ShapeError, match="h0"):
            lstm_sequence(cell, x, [4], h0=constant(np.zeros((2, 3))))


class TestPreparedStepWeights:
    """Parameter arrays are read-only and an update binds a new array, so
    each LSTM's step weights are made once per parameter version."""

    @staticmethod
    def pair(seed=30, dtype=np.float64):
        rng = np.random.default_rng(seed)
        return LSTMCell("f", 3, 4, rng, dtype=dtype), LSTMCell("b", 3, 4, rng, dtype=dtype)

    @staticmethod
    def halved(cell):
        scale = lstm.gate_affine(cell.dtype)[0][:, :, None]
        return [gate_major(p.data) * scale for p in cell.parameters()]

    def test_in_place_writes_raise(self):
        fwd, _ = self.pair()
        for p in fwd.parameters():
            assert not p.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p.data += 1.0
        view = np.zeros((3, 8))[:, :4]
        p = Parameter("v", view)
        p.data = view  # a view is copied, so no writable alias is left
        assert not np.shares_memory(p.data, view) and not p.data.flags.writeable

    def test_a_fresh_owning_array_is_adopted_and_a_writable_view_copied(self):
        fresh = np.ones((2, 3))
        p = Parameter("w", fresh)
        assert p.data is fresh and not fresh.flags.writeable
        drawn = init_uniform((4, 3), 3, np.random.default_rng(1))
        assert Parameter("u", drawn).data is drawn.data
        owner = np.zeros((3, 8))
        p = Parameter("v", owner[:, :4])
        assert not np.shares_memory(p.data, owner)
        assert owner.flags.writeable and not p.data.flags.writeable

    def test_same_objects_until_a_parameter_is_rebound(self):
        fwd, bwd = self.pair()
        weights = fwd.step_weights()
        stacked = lstm._stacked_weights((fwd, bwd))
        assert all(a is b for a, b in zip(fwd.step_weights(), weights))
        assert all(a is b for a, b in zip(lstm._stacked_weights((fwd, bwd)), stacked))
        assert not any(w.flags.writeable for w in weights + stacked)
        for got, want in zip(weights, self.halved(fwd)):
            np.testing.assert_array_equal(got, want)
        for j, cell in enumerate((fwd, bwd)):
            for got, want in zip(stacked, self.halved(cell)):
                np.testing.assert_array_equal(got[:, j], want)
        bwd.b.data = bwd.b.data + 1.0
        assert all(a is b for a, b in zip(fwd.step_weights(), weights))
        restacked = lstm._stacked_weights((fwd, bwd))
        assert not any(a is b for a, b in zip(restacked, stacked))
        np.testing.assert_array_equal(restacked[2][:, 1], self.halved(bwd)[2])

    def _rebuilt_after(self, update):
        """Whether ``update(fwd, bwd)`` makes both caches rebuild, to the
        halved values of the parameters it leaves bound."""
        fwd, bwd = self.pair()
        weights = fwd.step_weights()
        stacked = lstm._stacked_weights((fwd, bwd))
        update(fwd, bwd)
        new_weights = fwd.step_weights()
        new_stacked = lstm._stacked_weights((fwd, bwd))
        assert not any(a is b for a, b in zip(new_weights, weights))
        assert not any(a is b for a, b in zip(new_stacked, stacked))
        for got, want in zip(new_weights, self.halved(fwd)):
            np.testing.assert_array_equal(got, want)
        for j, cell in enumerate((fwd, bwd)):
            for got, want in zip(new_stacked, self.halved(cell)):
                np.testing.assert_array_equal(got[:, j], want)

    @staticmethod
    def _grads(cells, value=0.1):
        for cell in cells:
            for p in cell.parameters():
                p.grad = np.full_like(p.data, value)

    @pytest.mark.parametrize("make", [lambda ps: Adam(ps, lr=0.01), lambda ps: SGD(ps, lr=0.01)])
    def test_rebuilt_after_an_optimizer_step(self, make):
        def step(fwd, bwd):
            self._grads((fwd, bwd))
            make(fwd.parameters() + bwd.parameters()).step()
        self._rebuilt_after(step)

    def test_rebuilt_after_fits_best_epoch_restore(self):
        def train(fwd, bwd):
            params = fwd.parameters() + bwd.parameters()
            best = []

            def batch_loss(batch):
                x = constant(np.ones((2, 3)))
                loss = tensor_sum(run_bilstm(fwd, bwd, x, [2]))
                return loss, float(loss.data), 1

            def end_epoch(epoch, value_sum, count):
                if epoch == 1:
                    best.extend(p.data for p in params)
                return {"epoch": epoch}, -epoch, False  # epoch 1 scores best

            fit({"": SGD(params, lr=0.1)}, [None], batch_loss, end_epoch, epochs=2,
                batch_size=1, clip_norm=5.0, rng=np.random.default_rng(0))
            assert all(p.data is want for p, want in zip(params, best))
        self._rebuilt_after(train)

    def test_rebuilt_after_apply_state(self, tmp_path):
        def load(fwd, bwd):
            params = fwd.parameters() + bwd.parameters()
            path = tmp_path / "cells.ckpt"
            save_checkpoint(path, "demo", params, {}, "h")
            apply_state(params, load_checkpoint(path, "demo", "h").arrays)
        self._rebuilt_after(load)

    def test_rebuilt_after_finite_difference_check(self):
        # the check binds perturbed copies, then the original arrays again;
        # the loss reads both caches, which are last made from a copy
        def check(fwd, bwd):
            x = constant(np.random.default_rng(31).normal(size=(3, 3)))
            report = finite_difference_check(
                fwd.parameters() + bwd.parameters(),
                lambda: tensor_sum(run_bilstm(fwd, bwd, x, [2, 1]))
                + tensor_sum(lstm_sequence(fwd, x, [3])),
                np.random.default_rng(32), num_coords=5)
            assert report.passed, report.failures
        self._rebuilt_after(check)


def stepwise_states(cell, xs, reverse=False, h0=None):
    """Reference recurrence: one LSTMCell.step per row, states in row order."""
    xs = xs if isinstance(xs, Tensor) else constant(xs)
    h, c = initial_state(cell)
    if h0 is not None:
        h = h0
    order = range(xs.data.shape[0])
    states = {}
    for t in (reversed(order) if reverse else order):
        h, c = cell.step(slice_axis(xs, 0, t, t + 1), h, c)
        states[t] = h
    return [states[t] for t in order]


class TestOptimizers:
    """Each optimizer holds its parameters as one group: a parameter's
    ``data`` views the group's flat values and its ``grad`` the group's
    flat gradient, which the tests write through."""

    def test_adam_first_step_is_minus_lr(self):
        p = param("p", [[0.0]])
        opt = Adam([p], lr=0.001)
        opt.grad[...] = 1.0
        opt.step()
        np.testing.assert_allclose(p.data, [[-0.001]], rtol=1e-7)

    def test_adam_bias_correction_two_steps(self):
        # hand-rolled two-step Adam on a fixed gradient of 1
        p = param("p", [[0.0]])
        opt = Adam([p], lr=0.1)
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            opt.zero_grad()
            p.grad += 1.0
            opt.step()
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            x -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.data, [[x]], rtol=1e-12)
        np.testing.assert_allclose(opt.m, [m], rtol=1e-12)
        np.testing.assert_allclose(opt.v, [v], rtol=1e-12)
        assert opt.t == 2

    def test_sgd_step(self):
        p = param("p", [[1.0, 2.0]])
        opt = SGD([p], lr=0.1)
        opt.grad[...] = [0.5, -0.5]
        opt.step()
        np.testing.assert_allclose(p.data, [[0.95, 2.05]])

    def test_zero_grad_means_no_change(self):
        p = param("p", [[3.0]])
        opt = Adam([p], lr=0.5)
        opt.zero_grad()
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_nonfinite_grad_refused(self):
        p = param("p", [[1.0]])
        opt = SGD([p], lr=0.1)
        opt.grad[...] = np.nan
        with pytest.raises(NumericError, match="non-finite gradient in p before SGD step"):
            opt.step()

    @pytest.mark.parametrize("make, grad", [(lambda ps: SGD(ps, lr=1e10), 1e30),
                                            (lambda ps: Adam(ps, lr=1e39), 1.0)])
    def test_a_failed_step_changes_nothing(self, make, grad):
        # each finite float32 gradient steps a value to -inf: the step
        # raises and leaves the parameters, the optimizer's state and the
        # prepared step weights as they were
        cell = LSTMCell("c", 2, 1, np.random.default_rng(33), dtype=np.float32)
        params = cell.parameters()
        opt = make(params)
        before = [p.data for p in params]
        flat = opt.data
        weights = cell.step_weights()
        opt.grad[...] = grad
        t = getattr(opt, "t", None)  # Adam's step count and moments
        moments = [getattr(opt, name, None) for name in ("m", "v")]
        kept = [m.copy() for m in moments if m is not None]
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="non-finite values in c.w_x"):
            opt.step()
        assert all(p.data is want for p, want in zip(params, before))
        assert opt.data is flat
        assert getattr(opt, "t", None) == t
        for name, moment in zip(("m", "v"), moments):
            assert getattr(opt, name, None) is moment
        for moment, copy in zip((m for m in moments if m is not None), kept):
            np.testing.assert_array_equal(moment, copy)
        assert all(a is b for a, b in zip(cell.step_weights(), weights))

    def test_clip_scales_by_half_at_double_norm(self):
        a = param("a", [[3.0]])
        b = param("b", [[4.0]])
        opt = SGD([a, b], lr=0.1)
        opt.grad[...] = [6.0, 8.0]  # global norm 10
        norm = clip_global_norm(opt, 5.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(a.grad, [[3.0]])
        np.testing.assert_allclose(b.grad, [[4.0]])

    def test_clip_is_idempotent(self):
        rng = np.random.default_rng(14)
        params = [param(f"p{i}", rng.normal(size=(3, 3))) for i in range(3)]
        opt = SGD(params, lr=0.1)
        for p in params:
            p.grad[...] = rng.normal(size=(3, 3)) * 10
        clip_global_norm(opt, 5.0)
        once = [p.grad.copy() for p in params]
        clip_global_norm(opt, 5.0)
        for grad, kept in zip((p.grad for p in params), once):
            np.testing.assert_allclose(grad, kept, rtol=1e-12)

    def test_clip_below_threshold_is_identity(self):
        p = param("p", [[1.0]])
        opt = SGD([p], lr=0.1)
        opt.grad[...] = 0.3
        clip_global_norm(opt, 5.0)
        np.testing.assert_array_equal(p.grad, [[0.3]])

    def test_parameters_view_the_group(self):
        a, b = param("a", [[1.0, 2.0]]), param("b", [[3.0]])
        opt = Adam([a, b], lr=0.1)
        for p, flat in ((a, opt.data), (b, opt.data), (a, opt.grad), (b, opt.grad)):
            assert np.shares_memory(p.data if flat is opt.data else p.grad, flat)
        assert not a.data.flags.writeable and not opt.data.flags.writeable
        np.testing.assert_array_equal(opt.data, [1.0, 2.0, 3.0])
        opt.grad[...] = [1.0, 1.0, 1.0]
        opt.step()
        assert np.shares_memory(a.data, opt.data) and np.shares_memory(b.data, opt.data)
        np.testing.assert_array_equal(opt.data, np.concatenate([a.data, b.data], axis=None))
        # binding keeps a view only of a read-only array that owns its memory
        owner = np.arange(6.0)
        owner.setflags(write=False)
        a.data = owner[2:4].reshape(1, 2)
        assert np.shares_memory(a.data, owner)
        writable = np.arange(6.0)
        view = writable[2:4].reshape(1, 2)
        view.setflags(write=False)
        a.data = view
        assert not np.shares_memory(a.data, writable) and not a.data.flags.writeable

    def test_mixed_dtypes_are_refused(self):
        with pytest.raises(ValueError, match="one dtype"):
            SGD([param("a", [[1.0]]), Parameter("b", np.ones((1, 1), np.float32))], lr=0.1)

    def test_values_and_gradients_bound_outside_the_group_are_gathered(self):
        # apply_state, fit's restore and gradient checks bind arrays of
        # their own; zero_grads and a plain assignment leave grads that are
        # not the group's views: the next step gathers all of them
        a, b = param("a", [[1.0, 2.0]]), param("b", [[3.0]])
        opt = SGD([a, b], lr=1.0)
        a.data = np.array([[10.0, 20.0]])
        zero_grads([a])
        b.grad = np.array([[0.5]])
        opt.step()
        np.testing.assert_array_equal(a.data, [[10.0, 20.0]])
        np.testing.assert_array_equal(b.data, [[2.5]])
        np.testing.assert_array_equal(opt.grad, [0.0, 0.0, 0.5])
        assert np.shares_memory(a.data, opt.data) and np.shares_memory(b.grad, opt.grad)

    def test_zero_grads_and_grad_or_zeros_outside_a_group(self):
        p = param("p", [[1.0, 2.0]])
        np.testing.assert_array_equal(p.grad_or_zeros(), [[0.0, 0.0]])
        backward(tensor_sum(mul(p, p)))
        np.testing.assert_array_equal(p.grad_or_zeros(), [[2.0, 4.0]])
        zero_grads([p])
        assert p.grad is None


class TestFlatGroupsMatchTheOracle:
    """Steps of the flat optimizer groups and of the per-parameter loops in
    ``tests/oracles.py``, on twin float32 models with a policy group and a
    baseline group as ``train_latent`` has, are equal bit for bit: the
    parameters, Adam's m, v and t, the clipped gradients and the pre-clip
    norms, over clipped and unclipped steps. One parameter never gets a
    gradient and one gradient entry is -0.0. The norms differ in their
    last bits from one float64 sum over each whole flat gradient."""

    @staticmethod
    def twin():
        rng = np.random.default_rng(41)
        cell = LSTMCell("c", 12, 16, rng, dtype=np.float32)
        head = Parameter("head", rng.normal(size=(16, 5)).astype(np.float32))
        unused = Parameter("unused", rng.normal(size=(4, 3)).astype(np.float32))
        value = Parameter("value", rng.normal(size=(16, 1)).astype(np.float32))
        policy = [*cell.parameters(), head, unused]

        def loss(step):
            x = constant(np.random.default_rng(100 + step).normal(size=(9, 12)).astype(np.float32))
            h = lstm_sequence(cell, x, [5, 4])
            logits = matmul(h, head)
            return tensor_sum(mul(logits, logits)) + tensor_sum(matmul(h, value))

        return (policy, [value]), loss, head

    @pytest.mark.parametrize("flat, oracle, lr", [(Adam, oracles.Adam, 0.01),
                                                  (SGD, oracles.SGD, 0.05)])
    def test_steps_are_bit_identical(self, flat, oracle, lr):
        flat_groups, flat_loss, flat_head = self.twin()
        loop_groups, loop_loss, loop_head = self.twin()
        flats = [flat(ps, lr=lr) for ps in flat_groups]
        loops = [oracle(ps, lr=lr) for ps in loop_groups]
        norms = []
        for step, max_norm in enumerate([1e6, 1.0, 1e6, 0.5, 1e6, 2.0]):
            for opt in flats:
                opt.zero_grad()
            zero_grads([p for ps in loop_groups for p in ps])
            backward(flat_loss(step))
            backward(loop_loss(step))
            flat_head.grad[0, 0] = loop_head.grad[0, 0] = -0.0
            for opt, loop in zip(flats, loops):
                norms.append((clip_global_norm(opt, max_norm),
                              oracles.clip_global_norm(loop.params, max_norm), max_norm))
                want = [p.grad_or_zeros() for p in loop.params]
                assert opt.grad.tobytes() == np.concatenate(want, axis=None).tobytes()
                opt.step()
                loop.step()
                for a, b in zip(opt.params, loop.params):
                    assert a.data.dtype == np.float32 and a.data.tobytes() == b.data.tobytes()
                for name in ("m", "v"):
                    if hasattr(loop, name):
                        want = np.concatenate(getattr(loop, name), axis=None)
                        assert getattr(opt, name).tobytes() == want.tobytes(), name
                assert getattr(opt, "t", None) == getattr(loop, "t", None)
        assert all(a == b for a, b, _ in norms), norms
        assert any(a > limit for a, _, limit in norms)
        assert any(a <= limit for a, _, limit in norms)
        assert loop_groups[0][-1].grad is None
        assert not flats[0].grad[flats[0].slices[-1]].any()


class TestFit:
    """fit() on a least-squares toy: w is pulled toward each item's row."""

    @staticmethod
    def _train(monkeypatch, n_items, batch_size, epochs=2, clip_norm=5.0):
        from latentsum.numerics import optim
        calls, norms = [], []
        real_backward, real_clip = optim.backward, optim.clip_global_norm

        def counting_backward(loss):
            calls.append(float(loss.data))
            real_backward(loss)

        def recording_clip(group, max_norm):
            norms.append(real_clip(group, max_norm))
            return norms[-1]

        monkeypatch.setattr(optim, "backward", counting_backward)
        monkeypatch.setattr(optim, "clip_global_norm", recording_clip)
        w = param("w", [[0.0, 0.0]])
        items = [np.array([[float(i), 1.0 - i]]) for i in range(n_items)]

        def batch_loss(batch):
            losses = [tensor_sum(mul(w - constant(x), w - constant(x))) for x in batch]
            loss = losses[0]
            for extra in losses[1:]:
                loss = loss + extra
            return loss, float(loss.data), len(batch)

        def end_epoch(epoch, value_sum, count):
            return {"epoch": epoch, "loss": value_sum / count}, None, False

        metrics = fit({"": SGD([w], lr=0.05)}, items, batch_loss, end_epoch, epochs=epochs,
                      batch_size=batch_size, clip_norm=clip_norm, rng=np.random.default_rng(0))
        return metrics, calls, norms

    @pytest.mark.parametrize("n_items,batch_size", [(7, 3), (6, 3), (1, 4), (5, 1)])
    def test_one_backward_per_minibatch(self, monkeypatch, n_items, batch_size):
        metrics, calls, _ = self._train(monkeypatch, n_items, batch_size)
        assert len(metrics) == 2
        assert len(calls) == 2 * -(-n_items // batch_size)

    def test_rows_report_pre_clip_norms(self, monkeypatch):
        metrics, _, norms = self._train(monkeypatch, 7, 3, epochs=3)
        assert len(norms) == 9
        assert any(n > 5.0 for n in norms) and any(n <= 5.0 for n in norms)
        for row, epoch_norms in zip(metrics, np.split(np.array(norms), 3)):
            assert row["grad_norm_mean"] == float(np.mean(epoch_norms))
            assert row["clipped_share"] == float(np.mean(epoch_norms > 5.0))

    def test_groups_clip_and_report_separately(self):
        # one step at lr 1: each parameter moves by minus its clipped gradient
        big, small = param("big", [[0.0, 0.0]]), param("small", [[0.0, 0.0]])

        def batch_loss(batch):
            loss = (tensor_sum(mul(constant(np.array([[30.0, 40.0]])), big))
                    + tensor_sum(mul(constant(np.array([[0.3, 0.4]])), small)))
            return loss, 0.0, len(batch)

        def end_epoch(epoch, value_sum, count):
            return {"epoch": epoch}, None, False

        groups = {"": SGD([big], lr=1.0), "small_": SGD([small], lr=1.0)}
        [row] = fit(groups, [None], batch_loss, end_epoch, epochs=1, batch_size=1,
                    clip_norm=5.0, rng=np.random.default_rng(0))
        assert row == pytest.approx({"epoch": 1, "grad_norm_mean": 50.0, "clipped_share": 1.0,
                                     "small_grad_norm_mean": 0.5, "small_clipped_share": 0.0})
        np.testing.assert_allclose(big.data, [[-3.0, -4.0]], rtol=1e-12)
        np.testing.assert_array_equal(small.data, [[-0.3, -0.4]])
        with pytest.raises(DataError, match="empty"):
            fit(groups, [], batch_loss, end_epoch, epochs=1, batch_size=1, clip_norm=5.0,
                rng=np.random.default_rng(0))


def test_blas_thread_count_follows_the_environment():
    # conftest pins OPENBLAS_NUM_THREADS before numpy loads OpenBLAS; a
    # numpy imported earlier would keep its default thread count
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                assert get() == int(os.environ["OPENBLAS_NUM_THREADS"])
                return
    pytest.skip("numpy is not linked against OpenBLAS")


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_give_the_one_shot_draw(self, dtype):
        # three full blocks and an odd remainder of 21
        shape, columns = (3, DRAW_BLOCK + 7), 7
        drawn, oracle = np.random.default_rng(23), np.random.default_rng(23)
        got = init_uniform(shape, columns, drawn, dtype=dtype).data
        bound = 1.0 / np.sqrt(columns)
        want = oracle.uniform(-bound, bound, size=shape).astype(dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert drawn.bit_generator.state == oracle.bit_generator.state


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
            load_checkpoint(path, expected_model="demo", expected_vocab_hash="bbb")

    def test_model_name_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        with pytest.raises(CheckpointError, match="demo"):
            load_checkpoint(path, expected_model="other", expected_vocab_hash="h")

    def test_truncated_file_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "demo", "h")

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        rewrite_checkpoint_header(path, path, lambda header: header.update(format_version=999))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, "demo", "h")

    @pytest.mark.parametrize("damage", CHECKPOINT_DAMAGE)
    def test_damaged_file_refused(self, tmp_path, damage):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        damage_checkpoint(path, path, damage)
        message = {"version-1": "version 1 != supported 2; re-run the stage",
                   "flipped-body-byte": "sha256", "appended-byte": "bytes",
                   "truncated-body": "bytes", "non-utf8-header": "corrupt"}[damage]
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path, "demo", "h")

    def test_byte_count_must_match_shape(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", self._params(), {}, "h")
        rewrite_checkpoint_header(path, path,
                                  lambda header: header["params"][0]["shape"].append(2))
        with pytest.raises(CheckpointError, match="m.w1 holds 48 bytes.*needs 96"):
            load_checkpoint(path, "demo", "h")

    def test_zero_dim_and_empty_arrays_round_trip(self, tmp_path):
        params = [Parameter("m.scalar32", np.array(-0.0, dtype=np.float32)),
                  Parameter("m.scalar64", np.array(np.pi)),
                  Parameter("m.empty32", np.zeros((0, 3), dtype=np.float32)),
                  Parameter("m.empty64", np.zeros((2, 0)))]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        arrays = load_checkpoint(path, "demo", "h").arrays
        for p in params:
            assert arrays[p.name].dtype == p.data.dtype
            assert arrays[p.name].shape == p.data.shape
            assert arrays[p.name].tobytes() == p.data.tobytes()

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "absent.ckpt", "demo", "h")

    def test_apply_state_restores_values(self, tmp_path):
        params = self._params()
        originals = [p.data.copy() for p in params]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        for p in params:
            p.data = np.zeros_like(p.data)
        apply_state(params, load_checkpoint(path, "demo", "h").arrays)
        for p, orig in zip(params, originals):
            np.testing.assert_array_equal(p.data, orig)

    def test_apply_state_makes_the_one_copy(self, tmp_path):
        params = self._params() + [Parameter("m.w3", np.arange(5, dtype=np.float32))]
        originals = [p.data.copy() for p in params]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        arrays = load_checkpoint(path, "demo", "h").arrays
        # the load's buffer is the one copy; apply_state binds its views
        apply_state(params, arrays)
        buffer = params[0].data.base
        assert buffer.flags.owndata and not buffer.flags.writeable
        for p, orig in zip(params, originals):
            assert p.data is arrays[p.name] and p.data.base is buffer
            assert not p.data.flags.writeable and p.data.ctypes.data % 64 == 0
            assert p.data.dtype == orig.dtype and p.data.tobytes() == orig.tobytes()

    def test_apply_state_refuses_another_dtype(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        arrays = load_checkpoint(path, "demo", "h").arrays
        params[1] = Parameter("m.w2", np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(CheckpointError, match="m.w2 dtype float64 != model dtype float32"):
            apply_state(params, arrays)

    def test_apply_state_rejects_shape_mismatch(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        arrays = load_checkpoint(path, "demo", "h").arrays
        arrays["m.w1"] = arrays["m.w1"][:2, :]
        with pytest.raises(CheckpointError, match="shape"):
            apply_state(params, arrays)

    def test_apply_state_rejects_name_mismatch(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "demo", params, {}, "h")
        arrays = load_checkpoint(path, "demo", "h").arrays
        del arrays["m.w2"]
        with pytest.raises(CheckpointError, match="mismatch"):
            apply_state(params, arrays)
