"""Policy-gradient refinement of the extractive labeler.

Binary keep/drop labels are treated as latent variables: extraction
masks are sampled from the label decoder, scored against the gold
summary by the frozen compression model, and the decoder is updated
with REINFORCE using a learned per-step linear baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .compression import CompressionModel, s_score
from .corpus import Document, Sentence, SummarySet
from .errors import DataError
from .extractive import DecodeResult, ExtractiveModel
from .labeling import LabelSequence
from .numerics import (
    Parameter,
    Tensor,
    add,
    backward,
    clip_global_norm,
    concat,
    constant,
    detach,
    gather_rows,
    matmul,
    mul,
    no_grad,
    tensor_sum,
    zero_grads,
)
from .numerics.optim import SGD

EXHAUSTIVE_LIMIT = 12


@dataclass
class RewardBreakdown:
    s_matrix: np.ndarray  # |C| x |H| normalized compression scores
    r_p: float
    r_r: float
    r: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DataError(f"alpha must be in [0,1], got {self.alpha}")
        if not (0.0 <= self.r_p <= 1.0 and 0.0 <= self.r_r <= 1.0):
            raise DataError(f"reward components out of [0,1]: r_p={self.r_p}, r_r={self.r_r}")
        expected = self.alpha * self.r_p + (1.0 - self.alpha) * self.r_r
        if abs(self.r - expected) > 1e-12:
            raise DataError(f"r={self.r} is not the alpha-weighted sum {expected}")


@dataclass
class SampledExtraction:
    z: LabelSequence
    logprobs: tuple[float, ...]  # log p(z_i | z_{<i}) per step
    selected: tuple[Sentence, ...]

    def __post_init__(self):
        if len(self.z) != len(self.logprobs):
            raise DataError("sampled labels and logprobs lengths differ")
        if len(self.selected) != sum(self.z.labels):
            raise DataError("selected sentences inconsistent with labels")


class BaselineModel:
    """Per-step linear predictor of the scalar reward from h^D_i."""

    def __init__(self, d: int, dtype=np.float32):
        self.d = d
        self.w = Parameter("baseline.w", np.zeros((d, 1), dtype=dtype))
        self.b = Parameter("baseline.b", np.zeros((1, 1), dtype=dtype))

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def predict(self, h_d: Tensor) -> Tensor:
        """Value estimate from a detached decoder state, shape (1, 1)."""
        return add(matmul(detach(h_d), self.w), self.b)


def sample_labels(model: ExtractiveModel, doc: Document, rng) -> SampledExtraction:
    """Ancestral sample of a label sequence in evaluation mode."""
    with no_grad():
        enc = model.encode_document(doc)
        dec = model.decode_labels(enc, feed="sample", rng=rng)
    return _extraction_from_decode(doc, dec)


def _extraction_from_decode(doc: Document, dec: DecodeResult) -> SampledExtraction:
    logprobs = tuple(float(lp[z]) for lp, z in zip(dec.log_probs.data, dec.labels))
    z = LabelSequence(labels=tuple(dec.labels))
    selected = tuple(doc.sentences[i] for i in z.selected_indices())
    return SampledExtraction(z=z, logprobs=logprobs, selected=selected)


def reward(compression: CompressionModel, selected, summary: SummarySet,
           alpha: float) -> RewardBreakdown:
    """Score an extraction against the gold summary (Jensen-style max
    pooling of pairwise compression scores, then the alpha-weighted mix)."""
    if len(summary) == 0:
        raise DataError("reward needs a non-empty summary")
    return reward_from_matrix(_score_matrix(compression, selected, summary), alpha)


def _score_matrix(compression: CompressionModel, sources, summary: SummarySet) -> np.ndarray:
    """|sources| x |H| matrix of s_score(source, summary sentence)."""
    rows = [[s_score(compression, c, h) for h in summary.sentences] for c in sources]
    return np.array(rows).reshape(len(rows), len(summary))


def reward_from_matrix(s: np.ndarray, alpha: float) -> RewardBreakdown:
    """R from a |C| x |H| score matrix; an empty selection (|C| = 0) earns 0."""
    if s.ndim != 2:
        raise DataError(f"s_matrix must be 2-D, got shape {s.shape}")
    if s.shape[0] == 0:
        return RewardBreakdown(s_matrix=s, r_p=0.0, r_r=0.0, r=0.0, alpha=alpha)
    r_p = float(np.mean(np.max(s, axis=1)))
    r_r = float(np.mean(np.max(s, axis=0)))
    r = alpha * r_p + (1.0 - alpha) * r_r
    return RewardBreakdown(s_matrix=s, r_p=r_p, r_r=r_r, r=r, alpha=alpha)


def _selected_logprob_sum(dec: DecodeResult) -> Tensor:
    return tensor_sum(gather_rows(dec.log_probs, dec.labels))


def surrogate_loss(dec: DecodeResult, advantages) -> Tensor:
    """-sum_i A_i * log p(z_i) with the advantages treated as constants."""
    if len(advantages) != len(dec.labels):
        raise DataError("advantage count must match the decode length")
    stacked = gather_rows(dec.log_probs, dec.labels)  # (n, 1)
    adv = constant(np.asarray(advantages, dtype=stacked.data.dtype).reshape(-1, 1))
    return -tensor_sum(mul(adv, stacked))


@dataclass
class ReinforceStep:
    sampled: SampledExtraction
    breakdown: RewardBreakdown
    surrogate: float
    baseline_mse: float
    baseline_values: tuple[float, ...]


def reinforce_step(model: ExtractiveModel, baseline: BaselineModel, doc: Document,
                   summary: SummarySet, compression: CompressionModel, config,
                   rng, num_samples: int = 1) -> ReinforceStep:
    """One policy update's worth of gradients for one document.

    Draws sample(s), scores them with the frozen compression model,
    and accumulates (a) the policy surrogate gradient with the detached
    per-step baseline subtracted and (b) the baseline MSE gradient.
    Optimizer steps are the caller's job.
    """
    if len(summary) == 0:
        raise DataError(f"document {doc.id!r} has an empty summary")
    last = None
    for _ in range(num_samples):
        enc = model.encode_document(
            doc, rng=rng, training=True,
            drop=config.dropout, word_dropout=config.word_dropout,
        )
        dec = model.decode_labels(enc, feed="sample", rng=rng)
        sampled = _extraction_from_decode(doc, dec)
        breakdown = reward(compression, sampled.selected, summary, config.alpha)

        values = [baseline.predict(h) for h in dec.h_d]
        value_floats = tuple(float(v.data[0, 0]) for v in values)
        advantages = [breakdown.r - v for v in value_floats]

        policy_loss = surrogate_loss(dec, advantages)
        backward(policy_loss * (1.0 / num_samples))

        target = constant(np.full((len(values), 1), breakdown.r, dtype=values[0].data.dtype))
        residual = concat(values, axis=0) - target
        value_loss = tensor_sum(mul(residual, residual)) * (1.0 / len(values))
        backward(value_loss * (1.0 / num_samples))

        last = ReinforceStep(
            sampled=sampled,
            breakdown=breakdown,
            surrogate=float(policy_loss.data),
            baseline_mse=float(value_loss.data),
            baseline_values=value_floats,
        )
    return last


def exhaustive_expectation(model: ExtractiveModel, doc: Document, summary: SummarySet,
                           compression: CompressionModel, alpha: float):
    """Exact E[R] and exact gradient of E[R] w.r.t. the policy parameters,
    by enumerating every label sequence. Test oracle; refuses big inputs."""
    n = len(doc.sentences)
    if n > EXHAUSTIVE_LIMIT:
        raise DataError(
            f"exhaustive enumeration refused: {n} sentences > limit {EXHAUSTIVE_LIMIT}"
        )
    rewards = _subset_rewards(model, doc, summary, compression, alpha)
    params = model.parameters()
    zero_grads(params)
    expected = 0.0
    total_p = 0.0
    for z in itertools.product((0, 1), repeat=n):
        enc = model.encode_document(doc)
        dec = model.decode_labels(enc, feed="teacher", teacher_labels=LabelSequence(labels=z))
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


def _subset_rewards(model: ExtractiveModel, doc: Document, summary: SummarySet,
                    compression: CompressionModel, alpha: float) -> dict:
    """R for every label sequence, from one pass of pairwise scores."""
    full = _score_matrix(compression, doc.sentences, summary)
    rewards = {}
    for z in itertools.product((0, 1), repeat=len(doc.sentences)):
        idx = [i for i, zi in enumerate(z) if zi == 1]
        rewards[z] = reward_from_matrix(full[idx, :], alpha).r
    return rewards


def train_latent(model: ExtractiveModel, baseline: BaselineModel, train_records,
                 compression: CompressionModel, config, rng,
                 trace_sink=None) -> list[dict]:
    """SGD REINFORCE over the corpus; emits one trace line per document
    step through trace_sink and returns per-epoch mean-reward metrics."""
    if not train_records:
        raise DataError("cannot train on an empty corpus")
    policy_params = model.parameters()
    value_params = baseline.parameters()
    policy_opt = SGD(policy_params, lr=config.latent_lr)
    value_opt = SGD(value_params, lr=config.latent_lr)
    metrics: list[dict] = []
    for epoch in range(1, config.latent_epochs + 1):
        order = rng.permutation(len(train_records))
        rewards, r_ps, r_rs, mses = [], [], [], []
        for idx in order:
            doc, summary = train_records[int(idx)]
            zero_grads(policy_params)
            zero_grads(value_params)
            step = reinforce_step(model, baseline, doc, summary, compression,
                                  config, rng, num_samples=config.num_samples)
            clip_global_norm(policy_params, config.clip_norm)
            clip_global_norm(value_params, config.clip_norm)
            policy_opt.step()
            value_opt.step()
            rewards.append(step.breakdown.r)
            r_ps.append(step.breakdown.r_p)
            r_rs.append(step.breakdown.r_r)
            mses.append(step.baseline_mse)
            if trace_sink is not None:
                trace_sink({
                    "epoch": epoch,
                    "doc_id": doc.id,
                    "r_p": step.breakdown.r_p,
                    "r_r": step.breakdown.r_r,
                    "r": step.breakdown.r,
                    "baseline_mse": step.baseline_mse,
                })
        metrics.append({
            "epoch": epoch,
            "mean_reward": float(np.mean(rewards)),
            "mean_r_p": float(np.mean(r_ps)),
            "mean_r_r": float(np.mean(r_rs)),
            "mean_baseline_mse": float(np.mean(mses)),
        })
    return metrics
