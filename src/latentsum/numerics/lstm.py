"""LSTM cell and sequence runners.

Standard uncoupled-gate formulation with fused gate weights: one input
matrix (in, 4h), one recurrent matrix (h, 4h) and one bias row (1, 4h),
gate order i, f, g, o. The forget-gate bias initializes to 1.
"""

from __future__ import annotations

import numpy as np

from .init import init_uniform
from .tensor import Parameter, Tensor, add, concat, matmul, mul, sigmoid, slice_axis, tanh


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

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        h = self.hidden_size
        pre = add(add(matmul(x, self.w_x), matmul(h_prev, self.w_h)), self.b)
        i = sigmoid(slice_axis(pre, 1, 0, h))
        f = sigmoid(slice_axis(pre, 1, h, 2 * h))
        g = tanh(slice_axis(pre, 1, 2 * h, 3 * h))
        o = sigmoid(slice_axis(pre, 1, 3 * h, 4 * h))
        c = add(mul(f, c_prev), mul(i, g))
        return mul(o, tanh(c)), c


def split_rows(x: Tensor) -> list[Tensor]:
    """View a (T, d) tensor as T row tensors of shape (1, d)."""
    return [slice_axis(x, 0, i, i + 1) for i in range(x.data.shape[0])]


def run_lstm(cell: LSTMCell, rows) -> list[Tensor]:
    """Hidden states h_1..h_T for a sequence of (1, d) rows."""
    h, c = cell.initial_state()
    states = []
    for x in rows:
        h, c = cell.step(x, h, c)
        states.append(h)
    return states


def run_bilstm(fwd: LSTMCell, bwd: LSTMCell, rows) -> tuple[list[Tensor], Tensor, Tensor]:
    """Per-position concat of forward and backward states, plus each
    direction's final hidden state."""
    fwd_states = run_lstm(fwd, rows)
    bwd_states = run_lstm(bwd, list(reversed(rows)))
    bwd_states.reverse()
    outs = [concat([f, b], axis=1) for f, b in zip(fwd_states, bwd_states)]
    return outs, fwd_states[-1], bwd_states[0]
