"""Supervised target construction: oracle sentence labels and
source/target pairs for the compression model.

Both procedures are greedy and deterministic; ties always resolve to the
lowest sentence index. Both count the document and the summary once per n
into integer matrices over the summary's n-grams (``rouge.count_sides``,
the counts ``rouge_mean`` pools) and score every candidate sentence in one
pass of array operations through ``rouge.mean_f1``, with the bits of a
``rouge_mean`` call on the same sentences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import Document, Sentence, SummarySet
from .errors import DataError
from .numerics.checkpoint import read_json_lines
from .rouge import count_sides, mean_f1


@dataclass(frozen=True)
class LabelSequence:
    """Binary selection labels, one per document sentence."""

    labels: tuple[int, ...]

    def __post_init__(self):
        # exact type: bools and numpy or float values would not round-trip
        # through labels.jsonl
        if any(type(v) is not int or v not in (0, 1) for v in self.labels):
            raise DataError(f"labels must be the ints 0 and 1, got {self.labels!r}")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CompressionPair:
    source: Sentence
    target: Sentence
    doc_id: str


def oracle_labels(doc: Document, summary: SummarySet, max_select: int = 3) -> LabelSequence:
    """Greedily pick the sentence subset maximizing rouge_mean against the
    summary; stop when nothing strictly improves or max_select is hit.

    Each round scores every sentence at once. For each n the selected set
    keeps its pooled row of counts over the summary's n-grams and its n-gram
    total; adding sentence i clips pool + M[i] at the summary's counts. The
    integers, and so every score, are the ones rouge_mean computes from the
    sentences, and the first argmax is the lowest index among ties."""
    sides = (count_sides(doc.sentences, summary.sentences, n) for n in (1, 2))
    refs = [(M, T, H.sum(0), U.sum()) for M, T, H, U in sides]
    pools = [np.zeros_like(R) for _, _, R, _ in refs]
    totals = [0, 0]
    selected: list[int] = []
    best = 0.0
    while len(selected) < max_select:
        scores = mean_f1(*(
            (np.minimum(pool + M, R).sum(1), total + T, ref_total)
            for (M, T, R, ref_total), pool, total in zip(refs, pools, totals)
        ))
        scores[selected] = -np.inf
        i = int(np.argmax(scores))
        if not scores[i] > best:
            break
        for k, (M, T, _, _) in enumerate(refs):
            pools[k] += M[i]
            totals[k] += T[i]
        selected.append(i)
        best = scores[i]
    chosen = set(selected)
    return LabelSequence(labels=tuple(1 if i in chosen else 0 for i in range(len(doc))))


def compression_pairs(doc: Document, summary: SummarySet) -> list[CompressionPair]:
    """For each summary sentence, pair it with its closest document
    sentence under rouge_mean, the lowest index among ties (sentence 0 when
    nothing matches). Every (sentence, target) score comes from one
    broadcast of the two sides' count matrices."""
    sides = (count_sides(doc.sentences, summary.sentences, n) for n in (1, 2))
    scores = mean_f1(*((np.minimum(M[:, None], H[None]).sum(-1), T[:, None], U)
                       for M, T, H, U in sides))
    return [CompressionPair(source=doc.sentences[j], target=target, doc_id=doc.id)
            for j, target in zip(scores.argmax(0), summary.sentences)]


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
            if not isinstance(labels, list):
                raise DataError(f"'labels' must be a list, got {labels!r}")
            sequence = LabelSequence(labels=tuple(labels))
        except (KeyError, DataError) as exc:
            raise DataError(f"labels line {line_no}: {exc}") from exc
        if doc_id in table:
            raise DataError(f"labels line {line_no}: duplicate document id {doc_id!r}")
        table[doc_id] = sequence
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
