"""Optimizers and gradient utilities: Adam with bias correction, plain
SGD, global-norm clipping, and the supervised minibatch training loop."""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..errors import DataError, NumericError
from .tensor import Parameter, Tensor, backward

# Parameter's value and gradient slots, set past its binding rule: every
# view a group binds is of one of its own flat arrays, and a value view is
# of a read-only array that owns its memory, which the rule keeps anyway
_set_data, _set_grad = Tensor.data.__set__, Tensor.grad.__set__


class _Group:
    """An optimizer's parameters as consecutive slices of one flat array of
    values, read-only and of one dtype, and of one flat gradient: each
    parameter's data and grad are views, so a step is a fixed number of
    numpy calls that binds one new flat array and re-points the views."""

    def __init__(self, params):
        self.params: list[Parameter] = list(params)
        if len({p.data.dtype for p in self.params}) > 1:
            raise ValueError("an optimizer group's parameters must share one dtype")
        sizes = [p.data.size for p in self.params]
        self.slices = [slice(end - size, end) for size, end in zip(sizes, accumulate(sizes))]
        self._bind()
        self.grad = np.zeros_like(self.data)
        self._grad_views = self._views(self.grad)
        self.held()

    def _views(self, flat) -> list[np.ndarray]:
        return [flat[s].reshape(p.data.shape) for p, s in zip(self.params, self.slices)]

    def _bind(self, flat: np.ndarray | None = None):
        """Make ``flat`` (by default the parameters' values, gathered) the
        group's values, each parameter viewing its slice."""
        if flat is None:
            flat = np.concatenate([p.data for p in self.params] or [np.zeros(0)], axis=None)
        flat.setflags(write=False)
        self.data = flat
        self._data_views = self._views(flat)
        for p, view in zip(self.params, self._data_views):
            _set_data(p, view)

    def zero_grad(self):
        """Zero the flat gradient, which each parameter's grad then views."""
        self.grad.fill(0)
        for p, view in zip(self.params, self._grad_views):
            _set_grad(p, view)

    def held(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat values and gradient, after gathering any value or grad
        bound outside the group; a parameter without a gradient adds zeros."""
        if any(p.data is not view for p, view in zip(self.params, self._data_views)):
            self._bind()
        for p, view in zip(self.params, self._grad_views):
            if p.grad is not view:
                view[...] = 0 if p.grad is None else p.grad
                _set_grad(p, view)
        return self.data, self.grad

    def _check(self, flat: np.ndarray, message: str):
        """Name the first parameter whose slice of ``flat`` is not finite."""
        if not np.isfinite(flat).all():
            name = next(p.name for p, s in zip(self.params, self.slices)
                        if not np.isfinite(flat[s]).all())
            raise NumericError(message.format(name))

    def _commit(self, values: np.ndarray):
        """Bind a step's new values once all are finite: a step that raises
        leaves every parameter as it was."""
        self._check(values, "non-finite values in {} after optimizer step")
        self._bind(values)


def clip_global_norm(group: _Group, max_norm: float) -> float:
    """Rescale the group's gradient by max_norm/g when its global norm g
    exceeds max_norm. Returns the pre-clip norm. Idempotent. The norm
    sums each parameter's float64 squares on its own, in parameter order,
    so its bits do not depend on the layout."""
    _, grad = group.held()
    squares = np.square(grad, dtype=np.float64)
    total = 0.0
    for s in group.slices:
        total += float(np.add.reduce(squares[s]))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm


def clip_report(norms, max_norm: float, prefix: str = "") -> dict:
    """An epoch's mean pre-clip gradient norm and the share of its steps
    that clipping rescaled, as metrics-row keys."""
    return {
        f"{prefix}grad_norm_mean": float(np.mean(norms)),
        f"{prefix}clipped_share": sum(norm > max_norm for norm in norms) / len(norms),
    }


def fit(groups: dict, items, batch_loss, end_epoch, *, epochs: int, batch_size: int,
        clip_norm: float, rng) -> list[dict]:
    """Minibatch training with best-by-validation selection.

    ``groups`` maps a metrics-key prefix to an optimizer over its own
    parameters. Each epoch draws one permutation of items; per minibatch
    each group zeroes its gradient, batch_loss(batch) builds one graph for
    the whole list of items and returns (loss, value_sum, count), the loss
    summed over the items, which is backpropagated once scaled by
    1/len(batch); then each group in order clips its own global norm and
    steps. The per-epoch sums of value_sum and count go to
    end_epoch(epoch, value_sum, count_sum), which returns (metrics_row,
    score, stop). score is the validation score, higher is better, or None
    without validation; stop ends training early. Each row gains, per
    group, the epoch's mean pre-clip gradient norm and the share of steps
    that clipping rescaled. When any epoch was scored, the parameters of
    the best-scored epoch are restored: parameter arrays are read-only and
    each step binds new ones, so the snapshot keeps references to that
    epoch's arrays, not copies.
    """
    if not items:
        raise DataError("cannot train on an empty item list")
    params = [p for opt in groups.values() for p in opt.params]
    best_score = -np.inf
    best = [p.data for p in params]
    scored = False
    metrics: list[dict] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(items))
        value_sum = 0.0
        count_sum = 0
        norms = {prefix: [] for prefix in groups}
        for start in range(0, len(order), batch_size):
            batch = [items[int(idx)] for idx in order[start : start + batch_size]]
            for opt in groups.values():
                opt.zero_grad()
            loss, value, count = batch_loss(batch)
            value_sum += value
            count_sum += count
            backward(loss * (1.0 / len(batch)))
            del loss  # the graph goes before the next batch builds its own
            for prefix, opt in groups.items():
                norms[prefix].append(clip_global_norm(opt, clip_norm))
                opt.step()
        row, score, stop = end_epoch(epoch, value_sum, count_sum)
        for prefix in groups:
            row.update(clip_report(norms[prefix], clip_norm, prefix))
        metrics.append(row)
        if score is not None:
            scored = True
            if score > best_score:
                best_score = score
                best = [p.data for p in params]
        if stop:
            break
    if scored:
        for p, data in zip(params, best):
            p.data = data
    return metrics


class SGD(_Group):
    def __init__(self, params, lr: float):
        super().__init__(params)
        self.lr = lr

    def step(self):
        data, grad = self.held()
        self._check(grad, "non-finite gradient in {} before SGD step")
        self._commit(data - self.lr * grad)


# Adam's moment decay rates and denominator offset: Kingma & Ba's defaults
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam(_Group):
    """Kingma-Ba Adam with bias-corrected first and second moments."""

    def __init__(self, params, lr: float = 0.001):
        super().__init__(params)
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self):
        data, g = self.held()
        self._check(g, "non-finite gradient in {} before Adam step")
        t = self.t + 1
        # data - lr * m_hat / (sqrt(v_hat) + EPS), in place where it can be:
        # fewer fresh arrays, the same roundings
        m = BETA1 * self.m
        m += (1.0 - BETA1) * g
        v = BETA2 * self.v
        g2 = (1.0 - BETA2) * g
        g2 *= g
        v += g2
        update = m / (1.0 - BETA1 ** t)
        update *= self.lr
        denom = np.divide(v, 1.0 - BETA2 ** t, out=g2)
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        self._commit(np.subtract(data, update, out=update))
        self.t, self.m, self.v = t, m, v
