"""ROUGE-1, ROUGE-2 and ROUGE-L full-length F1.

N-grams are counted within each sentence (no n-grams across a sentence
boundary) and pooled; match counts are clipped at reference multiplicity.
ROUGE-L is the exact LCS of each side's concatenated token sequence,
computed bit-parallel: one big-int bitmask per distinct candidate token and
a few big-int operations per reference token (Allison & Dix, "A bit-string
longest-common-subsequence algorithm", IPL 1986; Hyyro, "Bit-parallel
LCS-length computation revisited", AWOCA 2004). No stemming, no stopword
filtering.

Every score is a function of three integers: the matches (clipped n-grams
or the LCS), the candidate's total and the reference's. One formula turns
them into precision, recall and F1, over integers and integer arrays alike.
``count_sides`` counts both sides of an n-gram score in one
``count_matrix``, one row per sentence over the reference's n-grams.
``rouge_n`` and ``rouge_mean`` pool a candidate's rows; the oracle labels
and the compression pairs score every document sentence from the same rows
at once, through ``mean_f1``, and ``score_table`` scores every pair of an
evaluation through one formula call per metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _ngrams(tokens, n: int):
    return zip(*(tokens[k:] for k in range(n)))


def count_matrix(sentences, reference, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts of each sentence's n-grams over the G distinct n-grams of the
    reference sentences, as an (|S|, G) integer matrix, and each sentence's
    n-gram total. No other n-gram can match, so the clipped matches of a set
    of rows against a set of reference rows are ``minimum`` of the two sets'
    column sums, summed."""
    columns: dict = {}
    for sent in reference:
        for gram in _ngrams(sent.tokens, n):
            columns.setdefault(gram, len(columns))
    # a last column takes every n-gram the reference lacks and is dropped
    width = len(columns) + 1
    totals = np.array([max(len(sent.tokens) - n + 1, 0) for sent in sentences], dtype=np.intp)
    index = np.fromiter(
        chain.from_iterable(map(columns.get, _ngrams(sent.tokens, n), repeat(width - 1))
                            for sent in sentences),
        dtype=np.intp, count=totals.sum())
    index += np.repeat(np.arange(0, len(totals) * width, width), totals)
    counts = np.bincount(index, minlength=len(totals) * width)
    return counts.reshape(len(totals), width)[:, :-1], totals


def count_sides(candidate, reference, n: int) -> tuple[np.ndarray, ...]:
    """One ``count_matrix`` of the candidate's and the reference's sentences
    over the reference's n-grams: the candidate's rows and totals, then the
    reference's."""
    k = len(candidate)
    counts, totals = count_matrix([*candidate, *reference], reference, n)
    return counts[:k], totals[:k], counts[k:], totals[k:]


def _overlap(candidate, reference, n: int) -> tuple:
    # (clipped matches, candidate total, reference total) of the pooled sides
    counts, totals, ref_counts, ref_totals = count_sides(candidate, reference, n)
    return (np.minimum(counts.sum(0), ref_counts.sum(0)).sum(), totals.sum(),
            ref_totals.sum())


def _ratio(num, den) -> np.ndarray:
    # 0.0 where den is 0; num has the result's shape
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0)


def _prf(matched, cand_total, ref_total) -> tuple[np.ndarray, ...]:
    """Precision, recall and F1 from the matches, the candidate's total and
    the reference's: integers or integer arrays. The totals broadcast
    against the matches, whose shape the results take, and each element is
    0.0 where its denominator is 0."""
    precision = _ratio(matched, cand_total)
    recall = _ratio(matched, ref_total)
    return precision, recall, _ratio(2.0 * precision * recall, precision + recall)


def rouge_n(candidate, reference, n: int) -> RougeScore:
    """Clipped n-gram overlap score for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    return RougeScore(*map(float, _prf(*_overlap(candidate, reference, n))))


def _lcs_length(a, b) -> int:
    # bit i of a mask stands for a[i]; after each token of b, the zero bits
    # of v count the LCS of a and the prefix of b read so far
    full = (1 << len(a)) - 1
    masks: dict = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def _lcs_sides(candidate, reference) -> tuple[int, int, int]:
    # (LCS length, candidate length, reference length) of both sides
    # flattened to single token sequences
    cand = [tok for sent in candidate for tok in sent.tokens]
    ref = [tok for sent in reference for tok in sent.tokens]
    return _lcs_length(cand, ref), len(cand), len(ref)


def rouge_l(candidate, reference) -> RougeScore:
    """LCS score over both sides flattened to single token sequences."""
    return RougeScore(*map(float, _prf(*_lcs_sides(candidate, reference))))


def score_table(pairs) -> dict[str, dict[str, float]]:
    """Mean ROUGE-1, ROUGE-2 and ROUGE-L precision, recall and F1 over
    (candidate, reference) ``pairs``: each metric's counts, pair by pair,
    go through one ``_prf`` over arrays, whose elements have the bits of
    ``rouge_n``'s and ``rouge_l``'s; each mean is its scores summed one
    after another in the order of ``pairs`` (``np.add.accumulate`` is
    sequential), divided by their number."""
    counts = [(_overlap(c, r, 1), _overlap(c, r, 2), _lcs_sides(c, r)) for c, r in pairs]
    table = {}
    for key, rows in zip(("rouge1", "rouge2", "rougeL"), zip(*counts)):
        scores = np.stack(_prf(*np.array(rows, dtype=np.intp).T))
        means = np.add.accumulate(scores, axis=1)[:, -1] / len(rows)
        table[key] = dict(zip(("precision", "recall", "f1"), means.tolist()))
    return table


def mean_f1(unigram: tuple, bigram: tuple) -> np.ndarray:
    """Mean of ROUGE-1 and ROUGE-2 F1, each given as ``_prf``'s (clipped
    matches, candidate n-gram total, reference n-gram total)."""
    return (_prf(*unigram)[2] + _prf(*bigram)[2]) / 2.0


def rouge_mean(candidate, reference) -> float:
    """Mean of ROUGE-1 and ROUGE-2 F1; the greedy-selection objective."""
    return float(mean_f1(_overlap(candidate, reference, 1), _overlap(candidate, reference, 2)))
