"""LSTM cell and the fused sequence primitive.

Standard uncoupled-gate formulation with fused gate weights: one input
matrix (in, 4h), one recurrent matrix (h, 4h) and one bias row (1, 4h),
gate order i, f, g, o. The forget-gate bias initializes to 1.

``lstm_sequence`` runs whole sequences as one tape node: the input
projection is one matmul over every row (the hoisting of Appleyard,
Kočiský & Blunsom, "Optimizing Performance of RNNs on GPUs", 2016), and
backpropagation through time is written out in numpy. ``LSTMCell.advance``
is the one numpy step behind it and behind the tape-free decode loops that
feed their own output back. ``LSTMCell.step`` builds the same step as a
small graph of tape primitives; it is kept as the stepwise test oracle.
"""

from __future__ import annotations

import numpy as np

from .init import init_uniform
from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    _accumulate,
    _make,
    add,
    concat,
    matmul,
    mul,
    sigmoid,
    slice_axis,
    stable_sigmoid,
    tanh,
)


class LSTMCell:
    def __init__(self, prefix: str, input_size: int, hidden_size: int, rng,
                 dtype=np.float32, forget_bias: float = 1.0):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.dtype = dtype
        bias = np.zeros((1, 4 * hidden_size), dtype=dtype)
        bias[0, hidden_size : 2 * hidden_size] = forget_bias
        self.w_x = Parameter(f"{prefix}.w_x", init_uniform((input_size, 4 * hidden_size), 4 * hidden_size, rng, dtype))
        self.w_h = Parameter(f"{prefix}.w_h", init_uniform((hidden_size, 4 * hidden_size), 4 * hidden_size, rng, dtype))
        self.b = Parameter(f"{prefix}.b", bias)

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.b]

    def initial_state(self) -> tuple[Tensor, Tensor]:
        zero = np.zeros((1, self.hidden_size), dtype=self.dtype)
        return Tensor(zero), Tensor(zero.copy())

    def advance(self, xw: np.ndarray, h: np.ndarray, c: np.ndarray):
        """One step in numpy from the projected input ``xw = x @ w_x``.

        Returns the new h and c, the activated gates i|f|g|o and tanh(c),
        which backpropagation through time reads.
        """
        hid = self.hidden_size
        pre = xw + h @ self.w_h.data + self.b.data
        act = stable_sigmoid(pre)
        np.tanh(pre[:, 2 * hid : 3 * hid], out=act[:, 2 * hid : 3 * hid])
        c = act[:, hid : 2 * hid] * c + act[:, :hid] * act[:, 2 * hid : 3 * hid]
        tc = np.tanh(c)
        return act[:, 3 * hid :] * tc, c, act, tc

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """The step as tape primitives; the stepwise oracle of ``advance``."""
        h = self.hidden_size
        pre = add(add(matmul(x, self.w_x), matmul(h_prev, self.w_h)), self.b)
        i = sigmoid(slice_axis(pre, 1, 0, h))
        f = sigmoid(slice_axis(pre, 1, h, 2 * h))
        g = tanh(slice_axis(pre, 1, 2 * h, 3 * h))
        o = sigmoid(slice_axis(pre, 1, 3 * h, 4 * h))
        c = add(mul(f, c_prev), mul(i, g))
        return mul(o, tanh(c)), c


def lstm_sequence(cell: LSTMCell, x: Tensor, lengths, h0: Tensor | None = None,
                  reverse: bool = False) -> Tensor:
    """Hidden states of packed sequences as one tape node.

    ``x`` is (sum(lengths), in), each sequence's rows contiguous and in the
    order of ``lengths``. Row r of the (sum(lengths), h) result is the state
    after reading row r. ``reverse`` reads each sequence from its own last
    row back to its first. ``h0`` is an optional (len(lengths), h) initial
    hidden state, or one (1, h) row that every sequence starts from; the
    initial cell state is zero.

    Each step runs ``LSTMCell.advance`` on the sequences still active.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    hid = cell.hidden_size
    if x.data.ndim != 2 or x.data.shape[1] != cell.input_size:
        raise ShapeError(f"lstm_sequence: input shape {x.data.shape} does not fit "
                         f"input size {cell.input_size}")
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 \
            or lengths.sum() != x.data.shape[0]:
        raise ShapeError(f"lstm_sequence: lengths {lengths.tolist()} do not partition "
                         f"{x.data.shape[0]} rows")
    if h0 is not None and h0.data.shape not in ((lengths.size, hid), (1, hid)):
        raise ShapeError(f"lstm_sequence: h0 shape {h0.data.shape} is neither "
                         f"{(lengths.size, hid)} nor {(1, hid)}")

    # longest first, so the sequences still active at step t are a prefix
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    steps = []  # per step t: the row each still-active sequence reads
    for t in range(int(sorted_len[0])):
        k = int(np.count_nonzero(sorted_len > t))
        steps.append(starts[:k] + (sorted_len[:k] - 1 - t if reverse else t))

    w_h = cell.w_h.data
    xw = x.data @ cell.w_x.data
    dtype = xw.dtype
    h_state = (np.zeros((lengths.size, hid), dtype) if h0 is None
               else np.broadcast_to(h0.data, (lengths.size, hid))[order])
    c_state = np.zeros((lengths.size, hid), dtype)
    out = np.empty((x.data.shape[0], hid), dtype)
    cache = []  # per step: rows, activated gates i|f|g|o, h_prev, c_prev, tanh(c)
    for rows in steps:
        hp, cp = h_state[:rows.size], c_state[:rows.size]
        h, c, act, tc = cell.advance(xw[rows], hp, cp)
        out[rows] = h
        cache.append((rows, act, hp, cp, tc))
        h_state, c_state = h, c  # a finished sequence's state is never read again

    def bw(grad):
        dh = np.zeros((lengths.size, hid), dtype)
        dc = np.zeros((lengths.size, hid), dtype)
        d_pre = []
        for rows, act, hp, cp, tc in reversed(cache):
            k = rows.size
            i, f = act[:, :hid], act[:, hid : 2 * hid]
            g, o = act[:, 2 * hid : 3 * hid], act[:, 3 * hid :]
            dh_t = dh[:k] + grad[rows]
            dc_t = dc[:k] + dh_t * o * (1.0 - tc * tc)
            dp = np.concatenate([dc_t * g * i * (1.0 - i),
                                 dc_t * cp * f * (1.0 - f),
                                 dc_t * i * (1.0 - g * g),
                                 dh_t * tc * o * (1.0 - o)], axis=1)
            d_pre.append(dp)
            dc[:k] = dc_t * f
            dh[:k] = dp @ w_h.T
        rows = np.concatenate([step[0] for step in reversed(cache)])
        d_pre = np.concatenate(d_pre)
        h_prev = np.concatenate([step[2] for step in reversed(cache)])
        if x.requires_grad:
            dx = np.empty_like(x.data)
            dx[rows] = d_pre @ cell.w_x.data.T
            _accumulate(x, dx)
        _accumulate(cell.w_x, x.data[rows].T @ d_pre)
        _accumulate(cell.w_h, h_prev.T @ d_pre)
        _accumulate(cell.b, d_pre.sum(axis=0, keepdims=True))
        if h0 is not None and h0.requires_grad:
            dh0 = np.empty_like(dh)
            dh0[order] = dh
            _accumulate(h0, dh0 if h0.data.shape[0] == lengths.size
                        else dh0.sum(axis=0, keepdims=True))

    parents = (x, cell.w_x, cell.w_h, cell.b) + (() if h0 is None else (h0,))
    return _make(out, parents, bw)


def run_bilstm(fwd: LSTMCell, bwd: LSTMCell, x: Tensor, lengths) -> Tensor:
    """Forward and backward states of packed sequences side by side,
    shape (sum(lengths), 2h)."""
    return concat([lstm_sequence(fwd, x, lengths),
                   lstm_sequence(bwd, x, lengths, reverse=True)], axis=1)
