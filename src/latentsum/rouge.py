"""ROUGE-1, ROUGE-2 and ROUGE-L full-length F1.

N-grams are counted within each sentence (no n-grams across a sentence
boundary) and pooled; match counts are clipped at reference multiplicity.
ROUGE-L is the exact LCS of each side's concatenated token sequence,
computed bit-parallel: one big-int bitmask per distinct candidate token and
a few big-int operations per reference token (Allison & Dix, "A bit-string
longest-common-subsequence algorithm", IPL 1986; Hyyro, "Bit-parallel
LCS-length computation revisited", AWOCA 2004). No stemming, no stopword
filtering.

Every n-gram score is a function of three integers: the clipped matches,
the candidate's n-gram total and the reference's. Callers that score many
candidates against one reference (the oracle labels, the compression
pairs) count each side once into a ``count_matrix`` and hand arrays of
those integers to ``mean_f1``, the formula ``rouge_mean`` applies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import Sentence


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _score(matched: float, cand_total: int, ref_total: int) -> RougeScore:
    precision = matched / cand_total if cand_total else 0.0
    recall = matched / ref_total if ref_total else 0.0
    return RougeScore(precision=precision, recall=recall, f1=_f1(precision, recall))


def _ngrams(tokens, n: int):
    return zip(*(tokens[k:] for k in range(n)))


def ngram_counts(sentence: Sentence, n: int) -> Counter:
    """Counts of one sentence's n-grams; no n-gram crosses a sentence
    boundary."""
    return Counter(_ngrams(sentence.tokens, n))


def pooled_counts(sentences, n: int) -> Counter:
    """N-gram counts of a side: the sum of its sentences' counts."""
    counts: Counter = Counter()
    for sent in sentences:
        counts.update(ngram_counts(sent, n))
    return counts


def clipped_matches(cand: Counter, ref: Counter) -> int:
    """N-grams the two sides share, each clipped at the smaller count."""
    return sum(min(cand[gram], ref[gram]) for gram in cand.keys() & ref.keys())


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
    totals = [max(len(sent.tokens) - n + 1, 0) for sent in sentences]
    index = np.fromiter(
        chain.from_iterable(map(columns.get, _ngrams(sent.tokens, n), repeat(width - 1))
                            for sent in sentences),
        dtype=np.intp, count=sum(totals))
    index += np.repeat(np.arange(0, len(totals) * width, width), totals)
    counts = np.bincount(index, minlength=len(totals) * width)
    return counts.reshape(len(totals), width)[:, :-1], np.array(totals)


def _overlap(candidate, reference, n: int) -> tuple[int, int, int]:
    cand = pooled_counts(candidate, n)
    ref = pooled_counts(reference, n)
    return clipped_matches(cand, ref), sum(cand.values()), sum(ref.values())


def rouge_n(candidate, reference, n: int) -> RougeScore:
    """Clipped n-gram overlap score for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    return _score(*_overlap(candidate, reference, n))


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


def rouge_l(candidate, reference) -> RougeScore:
    """LCS score over both sides flattened to single token sequences."""
    cand = [tok for sent in candidate for tok in sent.tokens]
    ref = [tok for sent in reference for tok in sent.tokens]
    return _score(_lcs_length(cand, ref), len(cand), len(ref))


def _ratio(num, den) -> np.ndarray:
    # 0.0 where den is 0, as _score and _f1 give; num has the result's shape
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0)


def mean_f1(unigram: tuple, bigram: tuple) -> np.ndarray:
    """Mean of ROUGE-1 and ROUGE-2 F1, each given as (clipped matches,
    candidate n-gram total, reference n-gram total): integers or integer
    arrays. The totals broadcast against the matches, whose shape the
    result takes. Each F1 runs ``_score``'s float64 operations in its order
    on the same integers, so every element has the bits of the scalar
    formula."""
    f1s = []
    for matched, cand_total, ref_total in (unigram, bigram):
        precision = _ratio(matched, cand_total)
        recall = _ratio(matched, ref_total)
        f1s.append(_ratio(2.0 * precision * recall, precision + recall))
    return (f1s[0] + f1s[1]) / 2.0


def rouge_mean(candidate, reference) -> float:
    """Mean of ROUGE-1 and ROUGE-2 F1; the greedy-selection objective."""
    return float(mean_f1(_overlap(candidate, reference, 1), _overlap(candidate, reference, 2)))
