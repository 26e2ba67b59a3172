"""LSTM cell and the fused sequence primitive.

Standard uncoupled-gate formulation with fused gate weights: one input
matrix (in, 4h), one recurrent matrix (h, 4h) and one bias row (1, 4h),
gate order i, f, g, o. The forget-gate bias initializes to 1.

``run_bilstm`` and ``lstm_sequence`` run whole sequences as one tape node
through one recurrence over any number of cells (directions) at once. The
input projection is hoisted out of the steps (Appleyard, Kočiský & Blunsom,
"Optimizing Performance of RNNs on GPUs", 2016), one run of whole steps at
a time: a run is one matmul per gate and cell over at most RUN_ROWS rows,
so the projection's memory does not grow with the pack. The cells' states
then stack to (cells, k, h), and their step weights are gate-major, the
recurrent ones (4, cells, h, h), so each step is one batched matmul whose
gates land in four contiguous (cells, k, h) blocks, and one pass of gate
arithmetic on whole blocks for both directions of a Bi-LSTM, whose states
go straight into the (rows, cells, h) result. Backpropagation through
time, written out in numpy (``_bptt``), walks the same stacked arrays:
it lays a run's cached gates out over the 4h columns in one copy, and
each step's gate gradients are one product of four factors over those
columns, so its memory too is bounded by the run. A batched matmul makes
the same (k, h) @ (h, h) product per gate and cell as a matmul of that
gate and cell alone, a row of a product of two or more rows has the same
bits in any such product, and the gate arithmetic is elementwise, so every
state and gradient has the bits of one recurrence per cell over one
projection of every row. A gate's block also has the bits of its h
columns of the fused (k, ·) @ (·, 4h) product at the walkthrough's and the
wide benchmark's widths (h = 16 and 64) on the BLAS that the tests name;
at some other widths the two layouts differ in the last bit. A lone
sequence, the pack of each decoded sentence's encoder and of a document's
sentence-level Bi-LSTM, takes its schedule without the sort.

``lstm_step`` is the one step formula: behind the recurrence, and behind
the tape-free decode loops that feed their own output back. It takes all
four gates from one tanh, as sigma(z) = tanh(z / 2) / 2 + 1 / 2: the
halving is folded into the i, f and o blocks of the gate-major weights
that ``LSTMCell.step_weights`` returns, which is exact, one half being a
power of two, and the bias joins the input projection; a step of a few
rows takes the gate affine at its own width, which numpy applies without
its broadcasting iterator. Parameter arrays are read-only and an update
binds a new array, so these weights, and a Bi-LSTM's stack of both cells'
weights, are made once per parameter version and reused until a parameter
is rebound, as Appleyard et al. prepare their weight layouts once between
updates. The parameters themselves keep the fused (·, 4h) layout, which
checkpoints store and the weight gradients take. ``LSTMCell.step`` builds
the textbook step as a small graph of tape primitives; it is kept as the
stepwise test oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .init import init_uniform
from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    _accumulate,
    _make,
    add,
    gemm_rows,
    matmul,
    mul,
    recording,
    sigmoid,
    slice_axis,
    tanh,
)

# the most rows per cell that one input projection of the recurrence
# covers: it bounds the projection's memory, and each run is one more
# product, so a document of a few hundred words stays a few runs
RUN_ROWS = 256


@lru_cache(maxsize=None)
def gate_affine(dtype: np.dtype, width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per gate i, f, g, o, ``scale`` (1/2, 1/2, 1, 1/2) and ``shift``
    (1/2, 1/2, 0, 1/2) as read-only (4, width) arrays: over gate-major
    blocks flattened to (4, ·), ``tanh(z * scale) * scale + shift`` is
    sigma(z) on the i, f and o blocks and tanh(z) on g."""
    scale = np.full((4, width), 0.5, dtype)
    scale[2] = 1
    shift = 1 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


# the most gate rows whose step takes ``gate_affine`` at its own width: an
# elementwise product of equal shapes skips numpy's broadcasting iterator,
# about half a microsecond a product on a lone sequence's or a decode's
# step, and the few widths this allows keep the cache small
AFFINE_ROWS = 4


def lstm_step(xw: np.ndarray, h: np.ndarray, c: np.ndarray, w_h: np.ndarray):
    """One step in numpy from the projected input ``xw = x @ w_x + b``,
    over (k, h) rows or (cells, k, h) stacks with a matching ``w_h``;
    ``w_x``, ``w_h`` and ``b`` are ``LSTMCell.step_weights`` or
    ``_stacked_weights``, gate-major, so ``xw`` and the gates are
    (4, [cells,] k, h). A one-row ``xw`` broadcasts over the rows of ``h``.

    Returns the new h and c, the activated gates i|f|g|o, one contiguous
    block each, and tanh(c), which backpropagation through time reads.
    """
    act = np.matmul(h, w_h)
    act += xw
    np.tanh(act, out=act)
    blocks = act.reshape(4, -1)
    width = blocks.shape[1]
    scale, shift = gate_affine(act.dtype, width if width <= AFFINE_ROWS * h.shape[-1] else 1)
    blocks *= scale
    blocks += shift
    c = act[1] * c
    c += act[0] * act[2]
    tc = np.tanh(c)
    return act[3] * tc, c, act, tc


def step_schedule(lengths):
    """The order in which packed sequences advance together, longest
    first, so the sequences still active at step t are a prefix.

    Returns ``order`` (sequence indices, longest first), ``counts`` (the
    sequences active at each step), ``rows`` (the row each active sequence
    reads, step after step: sum(lengths) rows in all, each once) and
    ``back_rows``, the same read from each sequence's own last row back to
    its first. A lone sequence's schedule is built directly, without the
    sort: it reads one row a step, in order.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 1:
        rows = np.arange(lengths[0])
        return np.zeros(1, np.int64), np.ones_like(rows), rows, rows[::-1]
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    # linear in the rows: a (steps, sequences) mask would grow with the
    # longest sequence times the number of sequences
    counts = np.searchsorted(-sorted_len, -np.arange(sorted_len[0]))
    steps = np.repeat(np.arange(sorted_len[0]), counts)  # each read's step
    rank = np.arange(steps.size) - np.repeat(counts.cumsum() - counts, counts)
    first = (lengths.cumsum() - lengths)[order][rank]  # each read's sequence's first row
    return order, counts, first + steps, first + sorted_len[rank] - 1 - steps


class LSTMCell:
    def __init__(self, prefix: str, input_size: int, hidden_size: int, rng,
                 dtype=np.float32):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.dtype = dtype
        bias = np.zeros((1, 4 * hidden_size), dtype=dtype)
        bias[0, hidden_size : 2 * hidden_size] = 1.0
        self.w_x = Parameter(f"{prefix}.w_x", init_uniform((input_size, 4 * hidden_size), 4 * hidden_size, rng, dtype))
        self.w_h = Parameter(f"{prefix}.w_h", init_uniform((hidden_size, 4 * hidden_size), 4 * hidden_size, rng, dtype))
        self.b = Parameter(f"{prefix}.b", bias)
        self._prepared = None  # (w_x, w_h, b arrays, their step weights)
        self._stacked = None  # (every cell's arrays, stacked step weights)

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.b]

    def step_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(w_x, w_h, b)`` for ``lstm_step``: read-only gate-major
        copies, (4, in, h), (4, h, h) and (4, 1, h), with the i, f and o
        blocks halved, made once per parameter version. They are rebuilt
        only when ``w_x``, ``w_h`` or ``b`` is bound to an array other than
        the one they were made from."""
        sources = (self.w_x.data, self.w_h.data, self.b.data)
        if not _prepared_from(self._prepared, sources):
            weights = tuple(_gate_major(w, np.empty((4, w.shape[0], self.hidden_size), w.dtype))
                            for w in sources)
            for w in weights:
                w.setflags(write=False)
            self._prepared = (sources, weights)
        return self._prepared[1]

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """The textbook step as tape primitives, gates through ``sigmoid``;
        the stepwise oracle of ``lstm_step``."""
        h = self.hidden_size
        pre = add(add(matmul(x, self.w_x), matmul(h_prev, self.w_h)), self.b)
        i = sigmoid(slice_axis(pre, 1, 0, h))
        f = sigmoid(slice_axis(pre, 1, h, 2 * h))
        g = tanh(slice_axis(pre, 1, 2 * h, 3 * h))
        o = sigmoid(slice_axis(pre, 1, 3 * h, 4 * h))
        c = add(mul(f, c_prev), mul(i, g))
        return mul(o, tanh(c)), c


def _prepared_from(prepared, sources) -> bool:
    """Whether ``prepared``, a (source arrays, weights) pair or None, was
    made from exactly the arrays ``sources``. Parameter arrays are
    read-only and an update binds a new one, so the same arrays mean the
    same values. The pair holds arrays only, never a cell, so a model is
    freed without the cycle collector."""
    return prepared is not None and len(prepared[0]) == len(sources) \
        and all(a is b for a, b in zip(prepared[0], sources))


def _gate_major(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``w``'s (rows, 4h) columns written to ``out`` as the (4, rows, h)
    blocks i, f, g, o, the i, f and o blocks halved, which is exact, one
    half being a power of two; returns ``out``."""
    return np.multiply(w.reshape(w.shape[0], 4, -1).transpose(1, 0, 2),
                       gate_affine(w.dtype)[0][:, :, None], out=out)


def _stacked_weights(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``step_weights`` of every cell stacked to (4, cells, ·, h), made
    once per parameter version of the cells and kept on the first cell;
    one cell's are views of its own."""
    if len(cells) == 1:
        return tuple(w[:, None] for w in cells[0].step_weights())
    sources = tuple(p.data for c in cells for p in c.parameters())
    first = cells[0]
    if not _prepared_from(first._stacked, sources):
        stacks = tuple(np.empty((4, len(cells), src.shape[0], first.hidden_size),
                                np.result_type(*sources[j::3]))
                       for j, src in enumerate(sources[:3]))
        for j, cell in enumerate(cells):
            for stack, p in zip(stacks, cell.parameters()):
                _gate_major(p.data, stack[:, j])
        for stack in stacks:
            stack.setflags(write=False)
        first._stacked = (sources, stacks)
    return first._stacked[1]


def _runs(counts):
    """The steps' widths, rows per cell, in runs of whole steps of at most
    RUN_ROWS rows; a wider step is a run of its own."""
    runs, rows = [], 0
    for k in counts:
        if not runs or rows + k > RUN_ROWS:
            runs.append([])
            rows = 0
        runs[-1].append(k)
        rows += k
    return runs


def _bptt(cells, cache, grad, sequences, dtype):
    """Backpropagation through time over ``_recurrence``'s cached runs of
    steps, last step first, from ``grad``, the (rows, cells, h) gradient
    at the states. Returns the gradient at the gate pre-activations, the
    rows each cell read, and the states before each step, each stacked to
    (cells, rows, ·) in the order the steps are walked, and the gradient
    at the initial state, (cells, sequences, h) in schedule order.

    Each step's pre-activation gradient is the product ((a b) c) e over the
    4h gate columns i|f|g|o, with a = [dc|dc|dc|dh], b = [g|c_prev|i|tanh c],
    c = [i|f|1 - g^2|o] and e = [1 - i|1 - f|1|1 - o]: the textbook
    formulas multiplied left to right, and a product by one is exact. b, c,
    e, 1 - tanh^2 c and the output gradient are built one run at a time,
    so their memory is bounded as the forward's projection is, and a step
    is then about 11 numpy calls.
    """
    dirs, hid = len(cells), cells[0].hidden_size
    cell_of = np.arange(dirs)[:, None]
    # the cached gates are activated, so the gradient goes through the
    # cells' own weights, not the step's halved ones
    w_h_t = np.stack([c.w_h.data for c in cells]).transpose(0, 2, 1)
    dh = np.zeros((dirs, sequences, hid), dtype)
    dc = np.zeros((dirs, sequences, hid), dtype)
    d_pre = np.empty((dirs, grad.shape[0], 4 * hid), np.result_type(dh, grad))
    rows, h_prev = [], []
    done = 0  # the rows of d_pre written so far
    for run in reversed(cache):
        steps = run[::-1]
        run_rows = np.concatenate([step[0] for step in steps], axis=1)
        # the cached gates i|f|g|o, laid out over the 4h columns in one
        # copy, then factor c
        c = np.empty((dirs, run_rows.shape[1], 4, hid), steps[0][1].dtype)
        np.concatenate([step[1] for step in steps], axis=2, out=c.transpose(2, 0, 1, 3))
        c = c.reshape(dirs, -1, 4 * hid)
        g = c[..., 2 * hid : 3 * hid]
        tc = np.concatenate([step[4] for step in steps], axis=1)
        b = np.concatenate([g, np.concatenate([step[3] for step in steps], axis=1),
                            c[..., :hid], tc], axis=-1)
        e = 1.0 - c
        e[..., 2 * hid : 3 * hid] = 1
        dtanh = 1.0 - tc * tc
        g[...] = 1.0 - g * g
        out_grad = grad[run_rows, cell_of]
        at = 0  # the step's first row in the run
        for step in steps:
            k = step[0].shape[1]
            dh_t = dh[:, :k] + out_grad[:, at : at + k]
            dc_t = dh_t * c[:, at : at + k, 3 * hid :]
            dc_t *= dtanh[:, at : at + k]
            dc_t += dc[:, :k]
            dp = d_pre[:, done : done + k]
            np.concatenate((dc_t, dc_t, dc_t, dh_t), axis=-1, out=dp)
            dp *= b[:, at : at + k]
            dp *= c[:, at : at + k]
            dp *= e[:, at : at + k]
            dc[:, :k] = dc_t * c[:, at : at + k, hid : 2 * hid]
            dh[:, :k] = np.matmul(dp, w_h_t)
            at += k
            done += k
        rows.append(run_rows)
        h_prev.extend(step[2] for step in steps)
    return d_pre, np.concatenate(rows, axis=1), np.concatenate(h_prev, axis=1), dh


def _recurrence(name: str, cells, x: Tensor, lengths, reverse,
                h0: Tensor | None = None) -> Tensor:
    """States of packed sequences under every cell of ``cells`` side by
    side, shape (sum(lengths), len(cells) * h), as one tape node; cell j
    reads each sequence backwards when ``reverse[j]``. ``h0`` starts the
    first cell; ``lstm_sequence`` passes it with one cell."""
    lengths = np.asarray(lengths, dtype=np.int64)
    first = cells[0]
    hid = first.hidden_size
    if any((c.input_size, c.hidden_size) != (first.input_size, hid) for c in cells):
        raise ShapeError(f"{name}: cells of (input, hidden) sizes "
                         f"{[(c.input_size, c.hidden_size) for c in cells]} differ")
    if x.data.ndim != 2 or x.data.shape[1] != first.input_size:
        raise ShapeError(f"{name}: input shape {x.data.shape} does not fit "
                         f"input size {first.input_size}")
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 \
            or lengths.sum() != x.data.shape[0]:
        raise ShapeError(f"{name}: lengths {lengths.tolist()} do not partition "
                         f"{x.data.shape[0]} rows")
    if h0 is not None and h0.data.shape != (lengths.size, hid):
        raise ShapeError(f"{name}: h0 shape {h0.data.shape} is not {(lengths.size, hid)}")

    n, dirs = x.data.shape[0], len(cells)
    order, counts, fwd_rows, back_rows = step_schedule(lengths)
    # per cell, the rows of x it reads step after step
    read = np.array([back_rows if r else fwd_rows for r in reverse])
    cell_of = np.arange(dirs)[:, None]

    w_x, w_h, b = _stacked_weights(cells)
    dtype = np.result_type(x.data, w_x)
    # no step is a one-row product (see ``gemm_rows``): the state buffers
    # keep a spare row, so a lone sequence's step runs two rows, and its
    # projected input broadcasts over both
    h_state = np.zeros((dirs, max(lengths.size, 2), hid), dtype)
    if h0 is not None:
        h_state[0, : lengths.size] = h0.data[order]
    c_state = np.zeros(h_state.shape, dtype)
    out = np.empty((n, dirs, hid), dtype)  # row r's states, cell after cell
    parents = (x,) + tuple(p for c in cells for p in c.parameters()) \
        + (() if h0 is None else (h0,))
    keep = recording(parents)  # under no_grad, no cache for backpropagation
    # per run, per step: rows, activated gates i|f|g|o, h_prev, c_prev, tanh(c)
    cache = []
    start = 0  # the first row of ``read`` that the step reads
    for run in _runs(counts.tolist()):
        # one input projection per run, bias included, over the rows its
        # steps read; a row's bits do not depend on the run, so this is the
        # hoisted projection over every row, a run's rows at a time
        base = start
        run_rows = read[:, base : base + sum(run)]
        xw = gemm_rows(x.data[run_rows], w_x)
        xw += b
        states = []  # the run's states in step order, scattered once per run
        if keep:
            cache.append([])
        for k in run:
            width = max(k, 2)
            hp, cp = h_state[:, :width], c_state[:, :width]
            h, c, act, tc = lstm_step(xw[:, :, start - base : start - base + k], hp, cp, w_h)
            states.append(h[:, :k])
            if keep:
                cache[-1].append((read[:, start : start + k], act[:, :, :k], hp[:, :k],
                                  cp[:, :k], tc[:, :k]))
            h_state, c_state = h, c  # a finished sequence's state is never read again
            del act, tc  # unless cached, this step's gates go before the next's are made
            start += k
        out[run_rows, cell_of] = states[0] if len(states) == 1 else np.concatenate(states, axis=1)

    def bw(grad):
        d_pre, rows, h_prev, dh = _bptt(cells, cache, grad.reshape(n, dirs, hid),
                                        lengths.size, dtype)
        # x's gradient gets one sum per cell, added in cell order, as the
        # backward of one recurrence per cell would add them
        for j, cell in enumerate(cells):
            if x.requires_grad:
                dx = np.empty_like(x.data)
                dx[rows[j]] = d_pre[j] @ cell.w_x.data.T
                _accumulate(x, dx)
            _accumulate(cell.w_x, x.data[rows[j]].T @ d_pre[j])
            _accumulate(cell.w_h, h_prev[j].T @ d_pre[j])
            _accumulate(cell.b, d_pre[j].sum(axis=0, keepdims=True))
        if h0 is not None and h0.requires_grad:
            dh0 = np.empty_like(dh[0])
            dh0[order] = dh[0]
            _accumulate(h0, dh0)

    return _make(out.reshape(n, dirs * hid), parents, bw)


def lstm_sequence(cell: LSTMCell, x: Tensor, lengths, h0: Tensor | None = None,
                  reverse: bool = False) -> Tensor:
    """Hidden states of packed sequences as one tape node.

    ``x`` is (sum(lengths), in), each sequence's rows contiguous and in the
    order of ``lengths``. Row r of the (sum(lengths), h) result is the state
    after reading row r. ``reverse`` reads each sequence from its own last
    row back to its first. ``h0`` is an optional (len(lengths), h) initial
    hidden state; the initial cell state is zero.
    """
    return _recurrence("lstm_sequence", (cell,), x, lengths, (reverse,), h0)


def run_bilstm(fwd: LSTMCell, bwd: LSTMCell, x: Tensor, lengths) -> Tensor:
    """Forward and backward states of packed sequences side by side,
    shape (sum(lengths), 2h): ``lstm_sequence`` of ``fwd`` and the reversed
    ``lstm_sequence`` of ``bwd``, advanced as one recurrence."""
    return _recurrence("run_bilstm", (fwd, bwd), x, lengths, (False, True))
