"""Policy-gradient refinement of the extractive labeler.

Binary keep/drop labels are treated as latent variables: extraction
masks are sampled from the label decoder, scored against the gold
summary by the frozen compression model, and the decoder is updated
with REINFORCE using a learned per-step linear baseline. The scorer is
frozen and deterministic, so each training document's |D| x |H| score
matrix is built once, before the first epoch, and every sample's reward
is read from its rows. The split's sentences are scored in packs of
``compression.EVAL_CHUNK`` (sentence, summary) items, not one decode per
document, and each matrix has the bits of the document's own
``s_score_matrix``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .compression import CompressionModel, _score_matrices, s_score_matrix
from .corpus import Document, SummarySet
from .errors import DataError
from .extractive import DecodeResult, ExtractiveModel
from .numerics import (
    Parameter,
    Tensor,
    add,
    backward,
    constant,
    detach,
    matmul,
    mul,
    tensor_sum,
    zero_grads,
)
from .numerics.optim import SGD, fit

EXHAUSTIVE_LIMIT = 12
# ReinforceStep diagnostics each trace line carries beside the reward breakdown
TRACE_FIELDS = ("baseline_mse", "entropy", "picked", "advantage", "baseline")


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


class BaselineModel:
    """Per-step linear predictor of the scalar reward from h^D_i."""

    def __init__(self, d: int, dtype=np.float32):
        self.d = d
        self.w = Parameter("baseline.w", np.zeros((d, 1), dtype=dtype))
        self.b = Parameter("baseline.b", np.zeros((1, 1), dtype=dtype))

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def predict(self, h_d: Tensor) -> Tensor:
        """Value estimates from detached (n, d) decoder states, shape (n, 1)."""
        return add(matmul(detach(h_d), self.w), self.b)


def reward(compression: CompressionModel, selected, summary: SummarySet,
           alpha: float) -> RewardBreakdown:
    """Score an extraction against the gold summary (Jensen-style max
    pooling of pairwise compression scores, then the alpha-weighted mix).

    Training reads the same rewards from each document's score matrix;
    this scores the given sentences afresh and is the tests' oracle."""
    if len(summary) == 0:
        raise DataError("reward needs a non-empty summary")
    return reward_from_matrix(s_score_matrix(compression, list(selected), summary.sentences),
                              alpha)


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
    return tensor_sum(dec.chosen_log_probs())


def surrogate_loss(dec: DecodeResult, advantages) -> Tensor:
    """-sum_i A_i * log p(z_i) with the advantages treated as constants."""
    if len(advantages) != len(dec.labels):
        raise DataError("advantage count must match the decode length")
    stacked = dec.chosen_log_probs()  # (n, 1)
    adv = constant(np.asarray(advantages, dtype=stacked.data.dtype).reshape(-1, 1))
    return -tensor_sum(mul(adv, stacked))


@dataclass
class ReinforceStep:
    """One document step's samples. The reward breakdown and baseline MSE
    are the last sample's; the policy diagnostics are means over all
    samples. ``loss`` holds the step's whole graph."""

    masks: tuple[tuple[int, ...], ...]  # every sampled extraction mask z, in draw order
    rewards: tuple[float, ...]  # every sample's R
    breakdown: RewardBreakdown
    baseline_mse: float
    entropy: float  # binary entropy of p(y_i = 1), per sentence
    picked: float  # sentences selected
    advantage: float  # R - b_i, per sentence
    baseline: float  # b_i, per sentence
    loss: Tensor  # (surrogate + baseline MSE) / num_samples, for the caller's backward


def reinforce_step(model: ExtractiveModel, baseline: BaselineModel, doc: Document,
                   scores: np.ndarray, config, rng) -> ReinforceStep:
    """One policy update's worth of loss for one document.

    The ``config.num_samples`` samples are one graph: one encode of that many
    copies of the document, each with its own dropout masks, one label
    choice, one teacher-forced scoring pass and one baseline prediction
    over all copies. All noise is drawn up front, sample by sample, in the
    order one sample at a time would draw it: ``draw_noise`` (word dropout,
    v, h_e), then one draw per sentence for ``choose_labels``. Each sample's
    reward is read from ``scores``, the document's |D| x |H| matrix of
    frozen compression scores. The returned loss, (surrogate + baseline
    MSE) / num_samples, backpropagates (a) the policy surrogate gradient
    with the detached per-step baseline subtracted and (b) the baseline
    MSE gradient. Backward and optimizer steps are the caller's job.
    """
    n = len(doc)
    if scores.ndim != 2 or scores.shape[0] != n or scores.shape[1] == 0:
        raise DataError(f"document {doc.id!r}: score matrix of shape {scores.shape} "
                        f"does not pair its {n} sentences with a summary")
    num_samples = config.num_samples
    noise, draws = [], []
    for _ in range(num_samples):
        noise.append(model.draw_noise(doc, rng, config.dropout, config.word_dropout))
        draws.append(rng.random(n))
    enc = model.encode_documents([doc] * num_samples, noise)
    labels, _ = model.choose_labels(enc, np.concatenate(draws))
    dec = model.decode_labels(enc, labels)
    masks = np.array(dec.labels).reshape(num_samples, n)
    breakdowns = [reward_from_matrix(scores[np.flatnonzero(z)], config.alpha) for z in masks]
    r = np.repeat([b.r for b in breakdowns], n)[:, None]  # (k n, 1), each sample's R

    values = baseline.predict(dec.h_d)  # (k n, 1)
    advantages = r - values.data
    policy_loss = surrogate_loss(dec, advantages)
    residual = values - constant(r.astype(values.data.dtype))
    value_loss = tensor_sum(mul(residual, residual)) * (1.0 / n)

    # the last sample's baseline MSE, with the arithmetic of a one-sample graph
    res = residual.data[-n:]
    log_p = dec.log_probs.data.astype(np.float64)
    return ReinforceStep(
        masks=tuple(tuple(z) for z in masks.tolist()),
        rewards=tuple(b.r for b in breakdowns),
        breakdown=breakdowns[-1],
        baseline_mse=float((res * res).sum()) * (1.0 / n),
        entropy=float(-(np.exp(log_p) * log_p).sum(axis=1).mean()),
        picked=float(masks.sum(axis=1).mean()),
        advantage=float(advantages.mean()),
        baseline=float(values.data.mean(dtype=np.float64)),
        loss=(policy_loss + value_loss) * (1.0 / num_samples),
    )


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


def _subset_rewards(model: ExtractiveModel, doc: Document, summary: SummarySet,
                    compression: CompressionModel, alpha: float) -> dict:
    """R for every label sequence, from one pass of pairwise scores."""
    full = s_score_matrix(compression, doc.sentences, summary.sentences)
    rewards = {}
    for z in itertools.product((0, 1), repeat=len(doc.sentences)):
        idx = [i for i, zi in enumerate(z) if zi == 1]
        rewards[z] = reward_from_matrix(full[idx, :], alpha).r
    return rewards


def train_latent(model: ExtractiveModel, baseline: BaselineModel, train_records,
                 compression: CompressionModel, config, rng,
                 trace_sink=None) -> list[dict]:
    """SGD REINFORCE over the corpus, one document per step, through
    ``fit`` with the policy and the baseline as two clipping groups; emits
    one trace line per document step through trace_sink and returns
    per-epoch metrics: mean rewards, and the mean pre-clip gradient norm
    and clipped share of the policy group and of the baseline group."""
    for doc, summary in train_records:
        if len(summary) == 0:
            raise DataError(f"document {doc.id!r} has an empty summary")
    matrices = _score_matrices(compression, [(doc.sentences, summary.sentences)
                                             for doc, summary in train_records])
    items = [(doc, scores) for (doc, _), scores in zip(train_records, matrices)]
    rows: list[dict] = []  # this epoch's trace rows, floats only

    def batch_loss(batch):
        [(doc, scores)] = batch
        step = reinforce_step(model, baseline, doc, scores, config, rng)
        b = step.breakdown
        rows.append({"doc_id": doc.id, "r_p": b.r_p, "r_r": b.r_r, "r": b.r,
                     **{key: getattr(step, key) for key in TRACE_FIELDS}})
        return step.loss, 0.0, 1

    def end_epoch(epoch, _value_sum, _count):
        if trace_sink is not None:
            for row in rows:
                trace_sink({"epoch": epoch, **row})
        means = {name: float(np.mean([row[key] for row in rows])) for name, key in (
            ("mean_reward", "r"), ("mean_r_p", "r_p"), ("mean_r_r", "r_r"),
            ("mean_baseline_mse", "baseline_mse"))}
        rows.clear()
        return {"epoch": epoch, **means}, None, False

    groups = {"": SGD(model.parameters(), lr=config.latent_lr),
              "baseline_": SGD(baseline.parameters(), lr=config.latent_lr)}
    return fit(groups, items, batch_loss, end_epoch, epochs=config.latent_epochs,
               batch_size=1, clip_norm=config.clip_norm, rng=rng)
