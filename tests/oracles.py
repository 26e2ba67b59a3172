"""Former production formulas, kept as the oracles that the faster paths
are checked against."""

import itertools

import numpy as np

from latentsum.compression import _logprobs, s_score_matrix
from latentsum.errors import DataError, NumericError
from latentsum.latent import reward_from_matrix
from latentsum.numerics import (
    add,
    backward,
    matmul,
    softmax,
    tanh,
    tensor_sum,
    transpose,
    zero_grads,
)
from latentsum.numerics.optim import BETA1, BETA2, EPS

EXHAUSTIVE_LIMIT = 12


def attend(model, state, annotations, projected):
    """One state's attention weights and context as tape primitives: the
    stepwise oracle of ``decode_teacher`` and ``decode_greedy_ids``."""
    # additive scores: v_a^T tanh(W_s s_t + U_h h_k) per source position
    scores = matmul(tanh(add(matmul(state, model.w_s), projected)), model.v_a)
    weights = softmax(transpose(scores), axis=1)  # (1, |S|)
    context = matmul(weights, annotations)  # (1, 2d)
    return weights, context


def seq2seq_logprob(model, source, target) -> tuple[float, int]:
    """Total teacher-forced log-probability of target (EOS included) and
    the token count it was summed over."""
    return _logprobs(model, [(source, [target])])[0]


def _selected_logprob_sum(dec):
    """log p(z) of the decoded label sequence, as one tape scalar."""
    return tensor_sum(dec.chosen_log_probs())


def exhaustive_expectation(model, doc, summary, compression, alpha: float):
    """Exact E[R] and exact gradient of E[R] w.r.t. the policy parameters,
    by enumerating every label sequence: the reference that the sampled
    REINFORCE estimator is checked against. Refuses big inputs."""
    n = len(doc.sentences)
    if n > EXHAUSTIVE_LIMIT:
        raise DataError(
            f"exhaustive enumeration refused: {n} sentences > limit {EXHAUSTIVE_LIMIT}"
        )
    rewards = _subset_rewards(doc, summary, compression, alpha)
    params = model.parameters()
    zero_grads(params)
    expected = 0.0
    total_p = 0.0
    for z in itertools.product((0, 1), repeat=n):
        dec = model.decode_labels(model.encode_document(doc), z)
        logp = _selected_logprob_sum(dec)
        p_z = float(np.exp(logp.data))
        r_z = rewards[z]
        total_p += p_z
        expected += p_z * r_z
        weight = p_z * r_z
        if weight != 0.0:
            backward(logp * weight)
    grad = {p.name: p.grad_or_zeros().copy() for p in params}
    zero_grads(params)
    return {
        "expected_reward": expected,
        "probability_mass": total_p,
        "gradient": grad,
        "rewards": rewards,
    }


def _subset_rewards(doc, summary, compression, alpha: float) -> dict:
    """R for every label sequence, from one pass of pairwise scores."""
    full = s_score_matrix(compression, doc.sentences, summary.sentences)
    rewards = {}
    for z in itertools.product((0, 1), repeat=len(doc.sentences)):
        idx = [i for i, zi in enumerate(z) if zi == 1]
        rewards[z] = reward_from_matrix(full[idx, :], alpha).r
    return rewards


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
    """Per-parameter global-norm clipping: the oracle of
    ``optim.clip_global_norm`` on a group."""
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


class SGD:
    """Per-parameter SGD: the oracle of ``optim.SGD``."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr

    def step(self):
        check_finite(self.params, "SGD step")
        stepped = [p for p in self.params if p.grad is not None]
        _bind(stepped, [p.data - self.lr * p.grad for p in stepped])


class Adam:
    """Per-parameter Adam with lists of moments: the oracle of ``optim.Adam``."""

    def __init__(self, params, lr: float = 0.001):
        self.params = list(params)
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
