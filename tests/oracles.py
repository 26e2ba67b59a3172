"""Former production formulas, kept as the oracles that the faster paths
are checked against."""

import itertools

import numpy as np

from latentsum.compression import _logprobs, s_score_matrix
from latentsum.errors import DataError
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
