"""Former production formulas, kept as the oracles that the faster paths
are checked against."""

from latentsum.compression import _logprobs
from latentsum.numerics import add, matmul, softmax, tanh, transpose


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
