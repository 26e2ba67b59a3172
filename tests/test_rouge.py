"""ROUGE scores against independent brute-force oracles.

The oracles here deliberately use different mechanisms from the library:
n-gram matching by greedy list removal instead of count matrices, and
LCS by memoized recursion instead of bit-parallel big-int arithmetic.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from latentsum.cli import _evaluate_system
from latentsum.corpus import load_corpus
from latentsum.rouge import (
    RougeScore,
    _lcs_length,
    count_matrix,
    mean_f1,
    rouge_l,
    rouge_mean,
    rouge_n,
)
from latentsum.toy import write_toy_corpus

from conftest import random_sentences, sent


# ---------------------------------------------------------------- oracles

def _ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def oracle_overlap(candidate, reference, n):
    """(clipped matches, candidate total, reference total) via explicit
    multiset matching with removal."""
    cand, ref = [], []
    for s in candidate:
        cand.extend(_ngrams(s.tokens, n))
    for s in reference:
        ref.extend(_ngrams(s.tokens, n))
    pool = list(ref)
    matched = 0
    for gram in cand:
        if gram in pool:
            pool.remove(gram)
            matched += 1
    return matched, len(cand), len(ref)


def oracle_prf(matched, cand, ref):
    """Precision, recall and F1 of three integers, in Python float
    arithmetic: 0.0 where a denominator is 0."""
    precision = matched / cand if cand else 0.0
    recall = matched / ref if ref else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def oracle_rouge_n(candidate, reference, n):
    """Clipped overlap score from the removal oracle's counts."""
    return oracle_prf(*oracle_overlap(candidate, reference, n))


def oracle_lcs(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def oracle_rouge_l(candidate, reference):
    cand = tuple(t for s in candidate for t in s.tokens)
    ref = tuple(t for s in reference for t in s.tokens)
    return oracle_prf(oracle_lcs(cand, ref), len(cand), len(ref))


# ----------------------------------------------------------- frozen cases

class TestRougeN:
    def test_identity_unigram(self):
        c = [sent("the cat sat")]
        assert rouge_n(c, c, 1).f1 == 1.0

    def test_hand_counted_prefix(self):
        score = rouge_n([sent("the cat")], [sent("the cat sat")], 1)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert score.f1 == pytest.approx(0.8, abs=1e-12)

    def test_bigram_identity_and_reorder(self):
        ref = [sent("the cat sat")]
        assert rouge_n(ref, ref, 2).f1 == 1.0
        assert rouge_n([sent("cat the sat")], ref, 2).f1 == 0.0

    def test_clipping_caps_repeats(self):
        # candidate repeats "a" 4 times, reference holds it twice
        score = rouge_n([sent("a a a a")], [sent("a a b c")], 1)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)

    def test_no_cross_sentence_ngrams(self):
        ref = [sent("b c")]
        split = rouge_n([sent("a b"), sent("c d")], ref, 2)
        joined = rouge_n([sent("a b c d")], ref, 2)
        assert split.f1 == 0.0
        assert joined.recall == 1.0

    def test_all_sentences_shorter_than_n(self):
        score = rouge_n([sent("a")], [sent("a b")], 2)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_rejects_other_n(self):
        with pytest.raises(ValueError):
            rouge_n([sent("a")], [sent("a")], 3)


class TestRougeL:
    def test_identity(self):
        c = [sent("v w x y z")]
        assert rouge_l(c, c).f1 == 1.0

    def test_hand_lcs_table(self):
        score = rouge_l([sent("a b c d")], [sent("a x c y")])
        assert score.precision == pytest.approx(0.5, abs=1e-12)
        assert score.recall == pytest.approx(0.5, abs=1e-12)
        assert score.f1 == pytest.approx(0.5, abs=1e-12)

    def test_disjoint(self):
        assert rouge_l([sent("a b")], [sent("x y")]).f1 == 0.0

    def test_concatenates_across_sentences(self):
        # LCS "a b" spans the candidate's sentence boundary
        score = rouge_l([sent("a"), sent("b")], [sent("a b")])
        assert score.recall == 1.0


class TestLcsLength:
    """The bit-parallel LCS against the recursive oracle. Bit i of a mask
    stands for candidate token i, so candidates of 63-65, 130 and 200
    tokens cross the 64-bit word boundaries of the big ints."""

    def _tokens(self, rng, length, alphabet):
        return [f"t{int(i)}" for i in rng.integers(alphabet, size=length)]

    def test_empty_side(self):
        assert _lcs_length([], []) == 0
        assert _lcs_length([], ["a", "b"]) == 0
        assert _lcs_length(["a", "b"], []) == 0

    @pytest.mark.parametrize("alphabet", [1, 2])
    def test_tiny_alphabets(self, alphabet):
        rng = np.random.default_rng(707 + alphabet)
        for _ in range(200):
            a = self._tokens(rng, int(rng.integers(0, 40)), alphabet)
            b = self._tokens(rng, int(rng.integers(0, 40)), alphabet)
            assert _lcs_length(a, b) == oracle_lcs(tuple(a), tuple(b)), (a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 130, 200])
    def test_word_boundary_lengths(self, length):
        rng = np.random.default_rng(length)
        for alphabet in (1, 2, 5, 40):
            for ref_len in (1, 40, 90):
                a = self._tokens(rng, length, alphabet)
                b = self._tokens(rng, ref_len, alphabet)
                assert _lcs_length(a, b) == oracle_lcs(tuple(a), tuple(b)), \
                    (length, alphabet, ref_len)


class TestEvaluateSystem:
    def test_rouge_l_fields_match_oracle_on_toy_test_split(self, tmp_path):
        write_toy_corpus(tmp_path, seed=13)
        records = load_corpus(tmp_path, "test")
        gold = {doc.id: list(summary.sentences) for doc, summary in records}
        for generated in ({doc.id: list(doc.sentences[:3]) for doc, _ in records},
                          {doc.id: list(doc.sentences) for doc, _ in records}):
            want = [0.0, 0.0, 0.0]
            for doc_id in sorted(gold):
                for k, value in enumerate(oracle_rouge_l(generated[doc_id], gold[doc_id])):
                    want[k] += value
            got = _evaluate_system(generated, gold)["rougeL"]
            assert (got["precision"], got["recall"], got["f1"]) == \
                tuple(w / len(gold) for w in want)


    def test_table_equals_the_per_document_score_means(self, tmp_path):
        # one _prf over arrays per metric gives the bits of summing each
        # document's rouge_n and rouge_l scores in id order
        write_toy_corpus(tmp_path, seed=14)
        records = load_corpus(tmp_path, "test")
        gold = {doc.id: list(summary.sentences) for doc, summary in records}
        rng = np.random.default_rng(3)
        for generated in ({doc.id: list(doc.sentences[:3]) for doc, _ in records},
                          {doc.id: [doc.sentences[i] for i in rng.permutation(len(doc.sentences))
                                    [: rng.integers(0, len(doc.sentences) + 1)]]
                           for doc, _ in records},
                          {doc.id: [sent("nothing matches")] for doc, _ in records}):
            want = {key: [0.0, 0.0, 0.0] for key in ("rouge1", "rouge2", "rougeL")}
            for doc_id in sorted(gold):
                candidate, reference = generated[doc_id], gold[doc_id]
                for key, score in (("rouge1", rouge_n(candidate, reference, 1)),
                                   ("rouge2", rouge_n(candidate, reference, 2)),
                                   ("rougeL", rouge_l(candidate, reference))):
                    want[key][0] += score.precision
                    want[key][1] += score.recall
                    want[key][2] += score.f1
            got = _evaluate_system(generated, gold)
            assert got == {key: dict(zip(("precision", "recall", "f1"),
                                         (v / len(gold) for v in total)))
                           for key, total in want.items()}


class TestRougeMean:
    def test_identity(self):
        c = [sent("the cat sat")]
        assert rouge_mean(c, c) == 1.0

    def test_is_average_of_f1s(self):
        c, r = [sent("the cat")], [sent("the cat sat here")]
        expected = (rouge_n(c, r, 1).f1 + rouge_n(c, r, 2).f1) / 2
        assert rouge_mean(c, r) == pytest.approx(expected, abs=1e-15)

    def test_disjoint(self):
        assert rouge_mean([sent("a b")], [sent("x y")]) == 0.0

    def test_returns_a_float(self):
        assert type(rouge_mean([sent("the cat")], [sent("the cat sat")])) is float


class TestMeanF1:
    def test_arrays_have_the_bits_of_score(self):
        # every (matches, candidate total, reference total) up to 7, zero
        # totals included, and large totals: each element of the array form
        # is oracle_prf's mean bit for bit
        rng = np.random.default_rng(5)
        triples = np.concatenate([np.array(list(itertools.product(range(8), repeat=3))),
                                  rng.integers(0, 2**40, size=(300, 3))])
        unigram = tuple(triples.T)
        bigram = tuple(rng.permutation(triples).T)
        want = [(oracle_prf(*map(int, u))[2] + oracle_prf(*map(int, b))[2]) / 2.0
                for u, b in zip(zip(*unigram), zip(*bigram))]
        assert mean_f1(unigram, bigram).tobytes() == np.array(want).tobytes()

    def test_totals_broadcast_against_matches(self):
        matched = np.array([[0, 1], [2, 0], [3, 3]])
        cand_totals = np.array([[0], [4], [5]])
        ref_totals = np.array([0, 6])
        got = mean_f1((matched, cand_totals, ref_totals), (matched, cand_totals, ref_totals))
        want = [[oracle_prf(int(matched[i, j]), int(cand_totals[i, 0]), int(ref_totals[j]))[2]
                 for j in range(2)] for i in range(3)]
        assert got.tobytes() == np.array(want).tobytes()


class TestCountMatrix:
    def test_rows_give_clipped_matches_and_totals(self):
        # any set of rows against any set of reference rows: the clipped
        # matches are min(row sums) over the columns, as the removal oracle
        # counts them
        rng = np.random.default_rng(7)
        for _ in range(100):
            candidate, reference = _random_case(rng)
            for n in (1, 2):
                counts, totals = count_matrix(candidate + reference, reference, n)
                cand_rows, ref_rows = counts[:len(candidate)], counts[len(candidate):]
                assert counts.shape[1] == len({g for s in reference for g in _ngrams(s.tokens, n)})
                assert totals.tolist() == [len(_ngrams(s.tokens, n))
                                           for s in candidate + reference]
                matched = int(np.minimum(cand_rows.sum(0), ref_rows.sum(0)).sum())
                assert matched == oracle_overlap(candidate, reference, n)[0]


# ------------------------------------------------------------- properties

def _random_case(rng):
    candidate = random_sentences(rng, int(rng.integers(1, 4)))
    reference = random_sentences(rng, int(rng.integers(1, 4)))
    return candidate, reference


class TestOracleEquivalence:
    def test_rouge_n_matches_removal_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            candidate, reference = _random_case(rng)
            for n in (1, 2):
                got = rouge_n(candidate, reference, n)
                want = oracle_rouge_n(candidate, reference, n)
                assert (got.precision, got.recall, got.f1) == want, (candidate, reference, n)

    def test_rouge_mean_matches_removal_oracle(self):
        rng = np.random.default_rng(102)
        for _ in range(300):
            candidate, reference = _random_case(rng)
            want = (oracle_rouge_n(candidate, reference, 1)[2]
                    + oracle_rouge_n(candidate, reference, 2)[2]) / 2.0
            assert rouge_mean(candidate, reference) == want, (candidate, reference)

    def test_rouge_l_matches_recursive_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            candidate, reference = _random_case(rng)
            got = rouge_l(candidate, reference)
            want = oracle_rouge_l(candidate, reference)
            assert (got.precision, got.recall, got.f1) == want, (candidate, reference)


class TestRougeProperties:
    def test_f1_symmetry(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            candidate, reference = _random_case(rng)
            for scorer in (lambda c, r: rouge_n(c, r, 1),
                           lambda c, r: rouge_n(c, r, 2),
                           rouge_l):
                ab = scorer(candidate, reference)
                ba = scorer(reference, candidate)
                assert ab.f1 == pytest.approx(ba.f1, abs=1e-12)
                assert ab.precision == pytest.approx(ba.recall, abs=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            candidate, reference = _random_case(rng)
            for score in (rouge_n(candidate, reference, 1),
                          rouge_n(candidate, reference, 2),
                          rouge_l(candidate, reference)):
                for value in (score.precision, score.recall, score.f1):
                    assert 0.0 <= value <= 1.0

    def test_appending_reference_never_decreases_recall(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            candidate, reference = _random_case(rng)
            extended = candidate + reference
            for n in (1, 2):
                assert rouge_n(extended, reference, n).recall >= \
                    rouge_n(candidate, reference, n).recall - 1e-12
            assert rouge_l(extended, reference).recall >= \
                rouge_l(candidate, reference).recall - 1e-12

    def test_f1_invariant_holds(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            candidate, reference = _random_case(rng)
            score = rouge_n(candidate, reference, 1)
            if score.precision + score.recall == 0:
                assert score.f1 == 0.0
            else:
                expected = 2 * score.precision * score.recall / (score.precision + score.recall)
                assert score.f1 == pytest.approx(expected, abs=1e-12)

    def test_score_is_frozen(self):
        score = RougeScore(precision=0.5, recall=0.5, f1=0.5)
        with pytest.raises(AttributeError):
            score.f1 = 1.0
