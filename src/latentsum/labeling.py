"""Supervised target construction: oracle sentence labels and
source/target pairs for the compression model.

Both procedures are greedy and deterministic; ties always resolve to the
lowest sentence index.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .corpus import Document, Sentence, SummarySet
from .errors import DataError
from .numerics.checkpoint import read_json_lines
from .rouge import clipped_matches, mean_f1, ngram_counts, pooled_counts


@dataclass(frozen=True)
class LabelSequence:
    """Binary selection labels, one per document sentence."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.labels):
            raise DataError(f"labels must be 0/1, got {self.labels!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def selected_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.labels) if v == 1)


@dataclass(frozen=True)
class CompressionPair:
    source: Sentence
    target: Sentence
    doc_id: str


def _counted(sentence: Sentence) -> tuple[tuple[Counter, int], ...]:
    """(n-gram counts, n-gram total) of one sentence, for n = 1 and 2."""
    out = []
    for n in (1, 2):
        counts = ngram_counts(sentence, n)
        out.append((counts, sum(counts.values())))
    return tuple(out)


def _gain(pool: Counter, hits: dict, ref: Counter) -> int:
    """Clipped matches against ref that adding hits to pool would gain."""
    gained = 0
    for gram, count in hits.items():
        have = pool.get(gram, 0)
        gained += min(have + count, ref[gram]) - min(have, ref[gram])
    return gained


def oracle_labels(doc: Document, summary: SummarySet, max_select: int = 3) -> LabelSequence:
    """Greedily pick the sentence subset maximizing rouge_mean against the
    summary; stop when nothing strictly improves or max_select is hit.

    Each sentence's n-grams are counted once. For each n the selected set
    keeps its pooled counts of the summary's n-grams (no other n-gram can
    match), its clipped matches and its n-gram total, so trying sentence i
    adds only i's counts. The integers, and so every score, are the ones
    rouge_mean computes from the sentences."""
    refs = [pooled_counts(summary.sentences, n) for n in (1, 2)]
    ref_totals = [sum(ref.values()) for ref in refs]
    # per sentence and n: its counts of the n-grams the summary holds, and
    # its n-gram total
    sents = [
        [({g: c for g, c in counts.items() if g in ref}, total)
         for (counts, total), ref in zip(_counted(sent), refs)]
        for sent in doc.sentences
    ]
    pools = [Counter(), Counter()]
    matched = [0, 0]
    totals = [0, 0]
    selected: list[int] = []
    best = 0.0
    while len(selected) < max_select:
        best_gain_idx = -1
        best_score = best
        for i, grams in enumerate(sents):
            if i in selected:
                continue
            score = mean_f1(*(
                (matched[k] + _gain(pools[k], hits, refs[k]), totals[k] + total, ref_totals[k])
                for k, (hits, total) in enumerate(grams)
            ))
            if score > best_score:
                best_score = score
                best_gain_idx = i
        if best_gain_idx < 0:
            break
        for k, (hits, total) in enumerate(sents[best_gain_idx]):
            matched[k] += _gain(pools[k], hits, refs[k])
            totals[k] += total
            pools[k].update(hits)
        selected.append(best_gain_idx)
        best = best_score
    chosen = set(selected)
    return LabelSequence(labels=tuple(1 if i in chosen else 0 for i in range(len(doc))))


def compression_pairs(doc: Document, summary: SummarySet) -> list[CompressionPair]:
    """For each summary sentence, pair it with its closest document
    sentence under rouge_mean; each sentence's n-grams are counted once."""
    sources = [_counted(sent) for sent in doc.sentences]
    pairs = []
    for target in summary.sentences:
        ref = _counted(target)
        best_j = 0
        best_score = -1.0
        for j, source in enumerate(sources):
            score = mean_f1(*(
                (clipped_matches(ref_counts, counts), total, ref_total)
                for (counts, total), (ref_counts, ref_total) in zip(source, ref)
            ))
            if score > best_score:
                best_score = score
                best_j = j
        pairs.append(CompressionPair(source=doc.sentences[best_j], target=target, doc_id=doc.id))
    return pairs


def labels_to_jsonl_line(doc_id: str, labels: LabelSequence) -> str:
    return json.dumps({"id": doc_id, "labels": list(labels.labels)}, sort_keys=True)


def load_labels(path) -> dict[str, LabelSequence]:
    table: dict[str, LabelSequence] = {}
    for line_no, obj in read_json_lines(path, DataError):
        try:
            if not isinstance(obj, dict):
                raise DataError(f"expected a JSON object, got {type(obj).__name__}")
            doc_id = str(obj["id"])
            labels = obj["labels"]
            # bool is an int subclass, so the type is checked exactly
            if not isinstance(labels, list) or any(type(v) is not int or v not in (0, 1)
                                                   for v in labels):
                raise DataError(f"'labels' must be a list of the ints 0 and 1, "
                                f"got {labels!r}")
        except (KeyError, DataError) as exc:
            raise DataError(f"labels line {line_no}: {exc}") from exc
        if doc_id in table:
            raise DataError(f"labels line {line_no}: duplicate document id {doc_id!r}")
        table[doc_id] = LabelSequence(labels=tuple(labels))
    return table


def pair_to_jsonl_line(pair: CompressionPair) -> str:
    return json.dumps(
        {
            "doc_id": pair.doc_id,
            "source": list(pair.source.tokens),
            "target": list(pair.target.tokens),
        },
        sort_keys=True,
    )


def _tokens(obj: dict, field: str) -> tuple[str, ...]:
    value = obj[field]
    if not isinstance(value, list) or not value or not all(isinstance(t, str) for t in value):
        raise DataError(f"{field!r} must be a non-empty list of token strings, got {value!r}")
    return tuple(value)


def load_pairs(path) -> list[CompressionPair]:
    pairs: list[CompressionPair] = []
    for line_no, obj in read_json_lines(path, DataError):
        try:
            if not isinstance(obj, dict):
                raise DataError(f"expected a JSON object, got {type(obj).__name__}")
            pairs.append(
                CompressionPair(
                    source=Sentence(tokens=_tokens(obj, "source")),
                    target=Sentence(tokens=_tokens(obj, "target")),
                    doc_id=str(obj["doc_id"]),
                )
            )
        except (KeyError, DataError) as exc:
            raise DataError(f"pairs line {line_no}: {exc}") from exc
    if not pairs:
        raise DataError(f"pairs file {path} holds no records")
    return pairs
