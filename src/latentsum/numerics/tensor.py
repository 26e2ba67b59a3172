"""Reverse-mode automatic differentiation over numpy arrays.

Every primitive builds a node in an implicit tape; ``backward`` on a
scalar loss walks the tape once in reverse topological order and
accumulates gradients into every reachable tensor that requires them.
Gradients persist (and keep accumulating) until explicitly zeroed.

Conventions: vectors are (1, d) rows, sequences are (T, d) matrices, and
matmul is strictly two-dimensional. Scalars are 0-d arrays.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with a primitive."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the context (forward values only)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


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

    def item(self) -> float:
        return float(self.data)

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

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


class Parameter(Tensor):
    """A named, trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        init = data.data if isinstance(data, Tensor) else data
        super().__init__(np.array(init), requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype)
    return Tensor(arr)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value))


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out_data = out_data.astype(x.dtype, copy=False)

    def bw(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape / structure primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d tensor, got shape {a.data.shape}")

    def bw(g):
        _accumulate(a, g.T)

    return _make(a.data.T, (a,), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
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
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[index] = g
            _accumulate(a, full)

    return _make(a.data[index], (a,), bw)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g):
        if axis is None:
            expanded = np.asarray(g).reshape((1,) * a.data.ndim)
        else:
            expanded = g if keepdims else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(expanded, a.data.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def mean_over_axis(a: Tensor, axis: int, keepdims: bool = True) -> Tensor:
    n = a.data.shape[axis]

    def bw(g):
        expanded = g if keepdims else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(expanded / n, a.data.shape))

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


# ---------------------------------------------------------------------------
# probability primitives


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _make(out_data, (a,), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def bw(g):
        _accumulate(a, g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

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


def dropout(a: Tensor, p: float, rng, training: bool) -> Tensor:
    """Zero entries with probability p and scale survivors by 1/(1-p);
    identity when not training or p == 0."""
    if not training or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
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
