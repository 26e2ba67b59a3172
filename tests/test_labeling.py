"""Oracle labels and compression pairs.

The greedy label search is checked two ways: a step-by-step independent
re-derivation of the greedy procedure, and an exhaustive best-subset
search that measures the greedy optimality gap: recorded on random
cases, pinned on a corpus built so that greedy is strictly suboptimal.
Both searches are checked against per-trial rouge_mean scans.
"""

import itertools

import numpy as np
import pytest

from latentsum import labeling, rouge
from latentsum.corpus import Document, Sentence, SummarySet
from latentsum.errors import DataError
from latentsum.labeling import (
    CompressionPair,
    LabelSequence,
    compression_pairs,
    labels_to_jsonl_line,
    load_labels,
    load_pairs,
    oracle_labels,
    pair_to_jsonl_line,
)
from latentsum.rouge import rouge_mean

from conftest import (
    doc_from,
    random_sentences,
    recap_corpus,
    selected_indices,
    split_content_corpus,
    summary_from,
)


# ---------------------------------------------------------------- oracles

def greedy_reference(doc, summary, max_select):
    """Independent restatement of the greedy contract, written over
    explicit candidate scans rather than incremental mutation."""
    chosen = frozenset()
    current = 0.0
    for _ in range(max_select):
        candidates = [
            (rouge_mean([doc.sentences[j] for j in sorted(chosen | {i})],
                        summary.sentences), i)
            for i in range(len(doc.sentences)) if i not in chosen
        ]
        if not candidates:
            break
        best_score = max(score for score, _ in candidates)
        if best_score <= current:
            break
        best_index = min(i for score, i in candidates if score == best_score)
        chosen = chosen | {best_index}
        current = best_score
    return tuple(1 if i in chosen else 0 for i in range(len(doc.sentences)))


def exhaustive_best_subset(doc, summary, max_select):
    """Best rouge_mean over every subset of size <= max_select."""
    best = 0.0
    for size in range(1, max_select + 1):
        for combo in itertools.combinations(range(len(doc.sentences)), size):
            score = rouge_mean([doc.sentences[j] for j in combo], summary.sentences)
            best = max(best, score)
    return best


def _random_case(rng, n_sents):
    sentences = random_sentences(rng, n_sents, max_len=6, vocab_size=6)
    summary = random_sentences(rng, int(rng.integers(1, 3)), max_len=6, vocab_size=6)
    return sentences, summary


def _edge_case(rng):
    """A document over 4 words, so n-grams repeat across selected
    sentences and clipping binds, with one-token sentences (no bigrams)
    and duplicate sentences (ties) mixed in."""
    sentences = random_sentences(rng, int(rng.integers(1, 8)), max_len=5, vocab_size=4)
    sentences += random_sentences(rng, int(rng.integers(0, 3)), max_len=1, vocab_size=4)
    for _ in range(int(rng.integers(0, 3))):
        sentences.append(sentences[int(rng.integers(len(sentences)))])
    sentences = [sentences[int(i)] for i in rng.permutation(len(sentences))]
    summary = random_sentences(rng, int(rng.integers(1, 4)), max_len=6, vocab_size=4)
    return Document(id="edge", sentences=tuple(sentences)), SummarySet(sentences=tuple(summary))


def _wide_case(rng, n_sents):
    """One document shaped like perfbench's infer_wide corpus: 5-40 tokens
    per sentence over a Zipfian 2,000-word vocabulary, and 3-4 summary
    sentences that each keep about 60 % of a source sentence's words."""
    words = [f"v{i}" for i in range(2000)]
    probs = np.arange(1, 2001, dtype=np.float64) ** -1.1
    probs /= probs.sum()
    sentences = []
    for _ in range(n_sents):
        ids = rng.choice(len(words), size=int(rng.integers(4, 40)), p=probs)
        sentences.append(" ".join(words[i] for i in ids) + " .")
    summary = []
    for position in sorted(rng.choice(n_sents, size=int(rng.integers(3, 5)), replace=False)):
        source = sentences[position].split()[:-1]
        kept = [w for w in source if rng.random() < 0.6] or source[:1]
        summary.append(" ".join(kept) + " .")
    return doc_from(sentences, doc_id="wide"), summary_from(summary)


def _zero_total_cases(rng):
    """Cases where a total the F1 divides by is 0: a summary of one-token
    sentences (no reference bigrams), a document of one-token sentences (no
    candidate bigrams), and a summary that shares no n-gram with the
    document (no matches at all)."""
    cases = []
    for _ in range(20):
        doc = random_sentences(rng, int(rng.integers(1, 7)), max_len=5, vocab_size=4)
        one_token_doc = random_sentences(rng, int(rng.integers(1, 7)), max_len=1, vocab_size=4)
        summary = random_sentences(rng, int(rng.integers(1, 4)), max_len=5, vocab_size=4)
        one_token_summary = random_sentences(rng, int(rng.integers(1, 4)), max_len=1,
                                             vocab_size=4)
        foreign = [Sentence(tokens=tuple("x" + t for t in s.tokens)) for s in summary]
        for d, h in ((doc, one_token_summary), (one_token_doc, summary),
                     (one_token_doc, one_token_summary), (doc, foreign)):
            cases.append((Document(id="zero", sentences=tuple(d)),
                          SummarySet(sentences=tuple(h))))
    return cases


def _is_foreign(doc, summary):
    return not ({t for s in doc.sentences for t in s.tokens}
                & {t for s in summary.sentences for t in s.tokens})


class TestLabelSequence:
    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            LabelSequence(labels=(0, 2))

    @pytest.mark.parametrize("labels", [(True, False), (np.int64(1), np.int64(0)), (1.0, 0.0)])
    def test_rejects_labels_that_are_not_ints(self, labels):
        # each would write a labels.jsonl line that load_labels refuses
        # (true/false, 1.0) or that json cannot write (int64)
        with pytest.raises(DataError, match="ints 0 and 1"):
            LabelSequence(labels=labels)


class TestOracleLabels:
    def test_verbatim_summary_sentence_found(self):
        doc = doc_from(["aa bb", "cc dd", "the cat sat here", "ee ff"])
        summary = summary_from(["the cat sat here"])
        labels = oracle_labels(doc, summary, max_select=3)
        assert labels.labels == (0, 0, 1, 0)

    def test_disjoint_summary_selects_nothing(self):
        doc = doc_from(["aa bb", "cc dd"])
        summary = summary_from(["xx yy zz"])
        assert oracle_labels(doc, summary, max_select=3).labels == (0, 0)

    def test_tie_takes_lower_index(self):
        doc = doc_from(["the cat sat", "the cat sat", "zz ww"])
        summary = summary_from(["the cat sat"])
        assert oracle_labels(doc, summary, max_select=3).labels == (1, 0, 0)

    def test_respects_max_select(self):
        texts = [f"w{i} common tokens here" for i in range(6)]
        doc = doc_from(texts)
        summary = summary_from(["common tokens here w0 w1 w2 w3 w4 w5"])
        labels = oracle_labels(doc, summary, max_select=2)
        assert sum(labels.labels) <= 2

    def test_matches_independent_greedy_restatement(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            sentences, summary_sents = _random_case(rng, n)
            doc = doc_from([s.text() for s in sentences])
            summary = summary_from([s.text() for s in summary_sents])
            got = oracle_labels(doc, summary, max_select=3)
            assert got.labels == greedy_reference(doc, summary, 3)
        for case in range(300):
            doc, summary = _edge_case(rng)
            max_select = case % 5 + 1
            got = oracle_labels(doc, summary, max_select=max_select)
            assert got.labels == greedy_reference(doc, summary, max_select)
        for case, (doc, summary) in enumerate(_zero_total_cases(rng)):
            max_select = case % 5 + 1
            got = oracle_labels(doc, summary, max_select=max_select)
            assert got.labels == greedy_reference(doc, summary, max_select)
            if _is_foreign(doc, summary):
                assert got.labels == (0,) * len(doc)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_on_wide_documents(self, seed):
        rng = np.random.default_rng(seed)
        for n_sents in (15, 35):
            doc, summary = _wide_case(rng, n_sents)
            for max_select in (3, 5):
                got = oracle_labels(doc, summary, max_select=max_select)
                assert got.labels == greedy_reference(doc, summary, max_select)

    def test_greedy_strictly_suboptimal_on_split_content(self):
        # a summary sentence split across two document sentences, plus a
        # distractor with its words but not its word order: greedy locks
        # in the distractor (0.7) and misses the two halves (17/18)
        for doc, summary in split_content_corpus():
            labels = oracle_labels(doc, summary, max_select=3)
            picked = [doc.sentences[i] for i in selected_indices(labels)]
            assert [len(s) for s in picked] == [6]
            greedy_score = rouge_mean(picked, summary.sentences)
            best = exhaustive_best_subset(doc, summary, 3)
            assert greedy_score == pytest.approx(0.7, abs=1e-12)
            assert best == pytest.approx(17 / 18, abs=1e-12)
            assert best - greedy_score > 0.24

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_greedy_strictly_suboptimal_on_recap_corpus(self, seed):
        # greedy takes the recap, which holds every summary word, and then
        # misses the two key sentences that hold the summary's word order
        splits = recap_corpus(seed)
        assert [len(splits[k]) for k in ("train", "test")] == [50, 10]
        for doc, summary in splits["train"]:
            assert 5 <= len(doc) <= 7
            labels = oracle_labels(doc, summary, max_select=3)
            picked = [doc.sentences[i] for i in selected_indices(labels)]
            greedy_score = rouge_mean(picked, summary.sentences)
            assert greedy_score < exhaustive_best_subset(doc, summary, 3), doc.id

    def test_greedy_gap_vs_exhaustive_recorded(self):
        # greedy optimality is NOT asserted; the gap is measured and must
        # stay a valid gap (greedy never beats the exhaustive best)
        rng = np.random.default_rng(12)
        gaps = []
        for _ in range(60):
            n = int(rng.integers(2, 9))
            sentences, summary_sents = _random_case(rng, n)
            doc = doc_from([s.text() for s in sentences])
            summary = summary_from([s.text() for s in summary_sents])
            labels = oracle_labels(doc, summary, max_select=3)
            picked = [doc.sentences[i] for i in selected_indices(labels)]
            greedy_score = rouge_mean(picked, summary.sentences) if picked else 0.0
            best = exhaustive_best_subset(doc, summary, 3)
            gap = best - greedy_score
            assert gap >= -1e-12
            gaps.append(gap)
        assert max(gaps) < 1.0  # sanity: greedy is never totally lost

    def test_determinism(self):
        doc = doc_from(["a b c", "b c d", "x y"])
        summary = summary_from(["b c"])
        first = oracle_labels(doc, summary, 3)
        second = oracle_labels(doc, summary, 3)
        assert first == second


class TestCompressionPairs:
    def test_identical_sentence_wins(self):
        doc = doc_from(["aa bb", "cc dd ee", "the cat sat"])
        summary = summary_from(["the cat sat"])
        pairs = compression_pairs(doc, summary)
        assert len(pairs) == 1
        assert pairs[0].source.tokens == ("the", "cat", "sat")

    def test_one_pair_per_summary_sentence(self):
        doc = doc_from(["a b", "c d"])
        summary = summary_from(["a", "c", "d"])
        assert len(compression_pairs(doc, summary)) == 3

    def test_disjoint_summary_falls_back_to_first_sentence(self):
        doc = doc_from(["aa bb", "cc dd"])
        summary = summary_from(["zz yy"])
        pairs = compression_pairs(doc, summary)
        assert pairs[0].source.tokens == ("aa", "bb")

    def test_argmax_verified_by_scan(self):
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(100):
            sentences, summary_sents = _random_case(rng, int(rng.integers(2, 6)))
            cases.append((doc_from([s.text() for s in sentences]),
                          summary_from([s.text() for s in summary_sents])))
        cases += [_edge_case(rng) for _ in range(300)]
        cases += [_wide_case(rng, n) for n in (15, 35)]
        cases += _zero_total_cases(rng)
        for doc, summary in cases:
            pairs = compression_pairs(doc, summary)
            assert [pair.target for pair in pairs] == list(summary.sentences)
            for pair, target in zip(pairs, summary.sentences):
                got = rouge_mean([pair.source], [target])
                scores = [rouge_mean([s], [target]) for s in doc.sentences]
                # exact: ties resolve on exact bits
                assert got == max(scores)
                # lowest index among ties
                best_j = scores.index(max(scores))
                assert pair.source == doc.sentences[best_j]
                if _is_foreign(doc, summary):
                    assert pair.source == doc.sentences[0]


def test_labeling_scores_from_counts_without_rouge_calls(monkeypatch):
    # both searches count each sentence's n-grams once and score through
    # rouge.mean_f1; neither may fall back to a rouge_n/rouge_mean call
    # per trial
    def refuse(*args, **kwargs):
        raise AssertionError("labeling called a whole-side ROUGE function")

    doc = doc_from(["the cat sat", "a dog ran far", "the cat sat on the mat", "zz"])
    summary = summary_from(["the cat sat on a mat", "a dog ran"])
    want_labels = greedy_reference(doc, summary, 3)
    want_sources = [doc.sentences[i] for i in (2, 1)]
    monkeypatch.setattr(rouge, "rouge_n", refuse)
    monkeypatch.setattr(rouge, "rouge_mean", refuse)
    monkeypatch.setattr(labeling, "rouge_mean", refuse, raising=False)
    assert oracle_labels(doc, summary, 3).labels == want_labels
    assert [p.source for p in compression_pairs(doc, summary)] == want_sources


class TestSerialization:
    def test_labels_round_trip(self, tmp_path):
        labels = LabelSequence(labels=(0, 1, 1))
        path = tmp_path / "labels.jsonl"
        path.write_text(labels_to_jsonl_line("d9", labels) + "\n")
        assert load_labels(path)["d9"] == labels

    def test_pairs_round_trip(self, tmp_path):
        pair = CompressionPair(
            source=Sentence(tokens=("a", "b", "c")),
            target=Sentence(tokens=("a", "c")),
            doc_id="d3",
        )
        path = tmp_path / "pairs.jsonl"
        path.write_text(pair_to_jsonl_line(pair) + "\n")
        loaded = load_pairs(path)
        assert loaded[0].source.tokens == pair.source.tokens
        assert loaded[0].target.tokens == pair.target.tokens
        assert loaded[0].doc_id == "d3"

    def test_load_labels_reports_bad_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id": "d1"}\n')
        with pytest.raises(DataError, match="line 1"):
            load_labels(path)
