"""Reverse-mode automatic differentiation over numpy arrays.

Every primitive builds a node in an implicit tape; ``backward`` on a
scalar loss walks the tape once in reverse topological order and
accumulates gradients into every reachable tensor that requires them.
Gradients persist (and keep accumulating) until explicitly zeroed.

Conventions: vectors are (1, d) rows, sequences are (T, d) matrices, and
matmul is strictly two-dimensional. Scalars are 0-d arrays.

Under OpenBLAS the bits of a row of a product can depend on how many rows
the product has. numpy sends a one-row product to gemv, which rounds
differently from gemm, and gemm rounds a narrow product (a few columns)
differently for different row counts. ``matmul_gemm`` and
``matmul_rowwise`` avoid the two cases, and ``segment_mean`` sums each
segment on its own, so a row computed with them does not depend on what
else is packed beside it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with a primitive."""


# per thread (and per asyncio task): one thread's no_grad never stops
# another thread's tape
_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording inside the context (forward values only)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """A dense array plus the tape edge that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def grad_or_zeros(self) -> np.ndarray:
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __neg__(self):
        return neg(self)

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))


class Parameter(Tensor):
    """A named, trainable tensor whose array is read-only.

    Binding ``data`` marks the array read-only. An array that owns its
    memory is adopted as it is (``init_uniform``'s), and so is a view of a
    read-only array that owns its memory (an optimizer group's, a
    checkpoint load's, a loader's zero-stride placeholder); any other view
    is copied, so no writable alias is left. An update binds a new array.
    An array's identity is then its version: whatever is prepared from it
    (``LSTMCell.step_weights``) stays exact while the same array is bound,
    and an in-place write raises ``ValueError``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data.data if isinstance(data, Tensor) else data, requires_grad=True)
        self.name = name

    def __setattr__(self, name, value):
        if name == "data":
            value = np.asarray(value)
            base = value.base
            if base is not None and (not isinstance(base, np.ndarray)
                                     or base.flags.writeable or not base.flags.owndata):
                value = value.copy()
            value.setflags(write=False)
        super().__setattr__(name, value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype)
    return Tensor(arr)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value))


def recording(parents) -> bool:
    """Whether a primitive over ``parents`` goes on the tape."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    grad = t.grad
    if grad is None:
        # the first contribution without a zero fill: g + 0.0, broadcast
        # into t's dtype and layout, has the bits of 0 + g, -0.0 made +0.0
        # included, and is a fresh array, never g itself
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
        return
    grad += g  # in place, without rebinding a Parameter's attribute


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(op: str, a: Tensor, b: Tensor):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}") from exc


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bw)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow, in x's dtype, behind the tape
    ``sigmoid`` of the stepwise oracle ``LSTMCell.step``; ``lstm_step``
    takes its gates from one tanh instead (see ``numerics.lstm``).

    exp(min(x, 0)) / (1 + exp(-|x|)) is e / (1 + e) with e = exp(x) for
    x < 0 and 1 / (1 + exp(-x)) otherwise: the two branches of the usual
    select, bit for bit, without evaluating both and picking per element."""
    # in place, so that no more than two arrays of x's size live beside x
    num = np.exp(np.minimum(x, 0))
    den = np.abs(x)
    np.exp(np.negative(den, out=den), out=den)
    den += 1
    num /= den
    return num.astype(x.dtype, copy=False)


def sigmoid(a: Tensor) -> Tensor:
    out_data = stable_sigmoid(a.data)

    def bw(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape / structure primitives


def gemm_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` that never runs as a one-row product: numpy sends a
    (1, K) @ (K, N) product to gemv, whose bits differ from the same row
    inside a product of two or more rows, so a lone row goes in twice."""
    if a.shape[-2] != 1:
        return np.matmul(a, b)
    return np.matmul(np.concatenate([a, a], axis=-2), b)[..., :1, :]


def row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` without BLAS: each element is numpy's sum of products along
    a contiguous axis, so its bits depend on its own row and column only.
    For narrow ``b``, whose BLAS rows vary with the row count."""
    return np.add.reduce(a[:, None, :] * b.T[None], axis=2)


def _product(op: str, a: Tensor, b: Tensor, forward) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(forward(a.data, b.data), (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _product("matmul", a, b, np.matmul)


def matmul_gemm(a: Tensor, b: Tensor) -> Tensor:
    """``matmul`` through ``gemm_rows``: a one-row ``a`` gets the bits its
    row has in any product of two or more rows."""
    return _product("matmul_gemm", a, b, gemm_rows)


def matmul_rowwise(a: Tensor, b: Tensor) -> Tensor:
    """``matmul`` through ``row_products``: every row's bits are the same
    whatever the row count."""
    return _product("matmul_rowwise", a, b, row_products)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d tensor, got shape {a.data.shape}")

    def bw(g):
        _accumulate(a, g.T)

    return _make(a.data.T, (a,), bw)


def concat(tensors, axis: int) -> Tensor:
    """Tensors joined along ``axis``; one tensor is returned as it is."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    if len(tensors) == 1:
        return tensors[0]
    sizes = [t.data.shape[axis] for t in tensors]
    ref = list(tensors[0].data.shape)
    for t in tensors[1:]:
        other = list(t.data.shape)
        if len(other) != len(ref) or any(
            o != r for i, (o, r) in enumerate(zip(other, ref)) if i != axis
        ):
            raise ShapeError(
                f"concat: incompatible shapes {tensors[0].data.shape} and {t.data.shape}"
            )

    def bw(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(t, g[tuple(index)])
            offset += size

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Rows or columns [start, stop) of ``a``; the full range is ``a`` itself."""
    if start == 0 and stop == a.data.shape[axis]:
        return a
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[index] = g
            _accumulate(a, full)

    return _make(a.data[index], (a,), bw)


def reshape(a: Tensor, shape: tuple[int, int]) -> Tensor:
    """Same values in a new 2-d shape (row-major order)."""
    if len(shape) != 2 or shape[0] * shape[1] != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {a.data.shape} as {shape}")

    def bw(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def tensor_sum(a: Tensor) -> Tensor:
    """The sum of every element of ``a``, as a scalar."""
    def bw(g):
        expanded = np.asarray(g).reshape((1,) * a.data.ndim)
        _accumulate(a, np.broadcast_to(expanded, a.data.shape))

    return _make(a.data.sum(), (a,), bw)


def segment_mean(a: Tensor, lengths) -> Tensor:
    """Mean of each segment of consecutive rows of ``a``, one row per
    segment; ``lengths`` are the segments' row counts, in order. Each sum
    runs over its own segment's rows alone (``np.add.reduceat``)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if a.data.ndim != 2 or lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 \
            or lengths.sum() != a.data.shape[0]:
        raise ShapeError(f"segment_mean: lengths {lengths.tolist()} do not partition "
                         f"the rows of shape {a.data.shape}")
    counts = lengths[:, None].astype(a.data.dtype)

    def bw(g):
        _accumulate(a, np.repeat(g / counts, lengths, axis=0))

    return _make(np.add.reduceat(a.data, lengths.cumsum() - lengths, axis=0) / counts, (a,), bw)


# ---------------------------------------------------------------------------
# probability primitives


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax in numpy, shifted by the maximum; the one formula behind
    ``softmax`` and the greedy compression decode's tape-free loop. The
    reductions are the ufuncs' own, which give ``ndarray.max`` and
    ``.sum``'s bits without their Python wrappers."""
    exps = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return exps / np.add.reduce(exps, axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out_data = stable_softmax(a.data, axis)

    def bw(g):
        inner = np.add.reduce(g * out_data, axis=axis, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _make(out_data, (a,), bw)


def stable_log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax in numpy, shifted by the maximum; the one formula behind
    ``log_softmax`` and the label decoder's tape-free loop."""
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    out_data = stable_log_softmax(a.data, axis)

    def bw(g):
        _accumulate(a, g - np.exp(out_data) * np.add.reduce(g, axis=axis, keepdims=True))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# lookup / regularization primitives


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding_lookup: ids must be 1-d, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id out of range for table shape {table.data.shape}"
        )

    def bw(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            _accumulate(table, full)

    return _make(table.data[ids], (table,), bw)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Pick one column per row: out[i, 0] = a[i, idx[i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(
            f"gather_rows: incompatible shapes {a.data.shape} and {idx.shape}"
        )
    rows = np.arange(a.data.shape[0])

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[rows, idx] = g[:, 0]
            _accumulate(a, full)

    return _make(a.data[rows, idx][:, None], (a,), bw)


def dropout_mask(shape, p: float, rng) -> np.ndarray | None:
    """Inverted-dropout mask: 0 with probability p, else 1/(1-p). None,
    without drawing, when p == 0."""
    if p == 0.0:
        return None
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    return (rng.random(shape) >= p) / (1.0 - p)


def join_masks(masks) -> np.ndarray | None:
    """Per-item masks from ``dropout_mask`` (or per-item word-dropout
    flags) stacked along rows; None when dropout is off."""
    return None if not masks or masks[0] is None else np.concatenate(masks)


def dropout(a: Tensor, mask: np.ndarray | None) -> Tensor:
    """``a`` times a mask from ``dropout_mask``; ``a`` itself for None.

    Drawing the masks apart from applying them lets a packed batch draw
    each item's masks in the order the items would draw them one by one.
    """
    if mask is None:
        return a
    mask = mask.astype(a.data.dtype)

    def bw(g):
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), bw)


def detach(a: Tensor) -> Tensor:
    """Same values, no tape edge."""
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor):
    """Populate grads of every tensor reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params):
    for p in params:
        p.zero_grad()
