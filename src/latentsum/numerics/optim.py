"""Optimizers and gradient utilities: Adam with bias correction, plain
SGD, global-norm clipping, and the supervised minibatch training loop."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from .tensor import Parameter, backward, zero_grads


def check_finite(params, where: str = "update"):
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient in {p.name} before {where}")


def _check_values_finite(params):
    for p in params:
        if not np.isfinite(p.data).all():
            raise NumericError(f"non-finite values in {p.name} after optimizer step")


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


def fit(opt, items, item_loss, end_epoch, *, epochs: int, batch_size: int,
        clip_norm: float, rng) -> list[dict]:
    """Minibatch training of opt.params with best-by-validation selection.

    Each epoch draws one permutation of items; per minibatch the grads are
    zeroed, every item's loss is backpropagated scaled by 1/len(batch), the
    global norm is clipped and opt steps. item_loss(item) returns
    (loss, value, count); their per-epoch sums go to
    end_epoch(epoch, value_sum, count_sum), which returns
    (metrics_row, score, stop). score is the validation score, higher is
    better, or None without validation; stop ends training early. When any
    epoch was scored, the parameters of the best-scored epoch are restored.
    """
    params = opt.params
    best_score = -np.inf
    best = [p.data.copy() for p in params]
    scored = False
    metrics: list[dict] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(items))
        value_sum = 0.0
        count_sum = 0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            zero_grads(params)
            for idx in batch:
                loss, value, count = item_loss(items[int(idx)])
                value_sum += value
                count_sum += count
                backward(loss * (1.0 / len(batch)))
            clip_global_norm(params, clip_norm)
            opt.step()
        row, score, stop = end_epoch(epoch, value_sum, count_sum)
        metrics.append(row)
        if score is not None:
            scored = True
            if score > best_score:
                best_score = score
                best = [p.data.copy() for p in params]
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
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad
        _check_values_finite(self.params)


class Adam:
    """Kingma-Ba Adam with bias-corrected first and second moments."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        check_finite(self.params, "Adam step")
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad_or_zeros()
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / correct1
            v_hat = self.v[i] / correct2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        _check_values_finite(self.params)
