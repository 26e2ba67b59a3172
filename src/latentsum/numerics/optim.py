"""Optimizers and gradient utilities: Adam with bias correction, plain
SGD, global-norm clipping, and the supervised minibatch training loop."""

from __future__ import annotations

import numpy as np

from ..errors import DataError, NumericError
from .tensor import Parameter, backward, zero_grads


def check_finite(params, where: str = "update"):
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient in {p.name} before {where}")


def _bind(params, values):
    """Bind each parameter's updated array, once every one is finite: a
    step that raises leaves every parameter as it was."""
    for p, value in zip(params, values):
        if not np.isfinite(value).all():
            raise NumericError(f"non-finite values in {p.name} after optimizer step")
    for p, value in zip(params, values):
        p.data = value


def clip_global_norm(params, max_norm: float) -> float:
    """Rescale all grads by max_norm/g when the global norm g exceeds
    max_norm. Returns the pre-clip norm. Idempotent."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
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
    the grads are zeroed, batch_loss(batch) builds one graph for the whole
    list of items and returns (loss, value_sum, count), the loss summed
    over the items, which is backpropagated once scaled by 1/len(batch);
    then each group in order clips its own global norm and steps. The
    per-epoch sums of value_sum and count go to end_epoch(epoch,
    value_sum, count_sum), which returns (metrics_row, score, stop). score
    is the validation score, higher is better, or None without
    validation; stop ends training early. Each row gains, per group, the
    epoch's mean pre-clip gradient norm and the share of steps that
    clipping rescaled. When any epoch was scored, the parameters of the
    best-scored epoch are restored: parameter arrays are read-only and
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
            zero_grads(params)
            loss, value, count = batch_loss(batch)
            value_sum += value
            count_sum += count
            backward(loss * (1.0 / len(batch)))
            del loss  # the graph goes before the next batch builds its own
            for prefix, opt in groups.items():
                norms[prefix].append(clip_global_norm(opt.params, clip_norm))
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


class SGD:
    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr

    def step(self):
        check_finite(self.params, "SGD step")
        stepped = [p for p in self.params if p.grad is not None]
        _bind(stepped, [p.data - self.lr * p.grad for p in stepped])


# Adam's moment decay rates and denominator offset: Kingma & Ba's defaults
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Kingma-Ba Adam with bias-corrected first and second moments."""

    def __init__(self, params, lr: float = 0.001):
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        check_finite(self.params, "Adam step")
        t = self.t + 1
        correct1 = 1.0 - BETA1 ** t
        correct2 = 1.0 - BETA2 ** t
        m, v, values = [], [], []
        for p, m_prev, v_prev in zip(self.params, self.m, self.v):
            g = p.grad_or_zeros()
            m.append(BETA1 * m_prev + (1.0 - BETA1) * g)
            v.append(BETA2 * v_prev + (1.0 - BETA2) * g * g)
            m_hat = m[-1] / correct1
            v_hat = v[-1] / correct2
            values.append(p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS))
        _bind(self.params, values)
        self.t, self.m, self.v = t, m, v
