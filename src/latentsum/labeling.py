"""Supervised target construction: oracle sentence labels and
source/target pairs for the compression model.

Both procedures are greedy and deterministic; ties always resolve to the
lowest sentence index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, Sentence, SummarySet, tokenize
from .errors import DataError
from .rouge import rouge_mean


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


def oracle_labels(doc: Document, summary: SummarySet, max_select: int = 3) -> LabelSequence:
    """Greedily pick the sentence subset maximizing rouge_mean against the
    summary; stop when nothing strictly improves or max_select is hit."""
    selected: list[int] = []
    best = 0.0
    while len(selected) < max_select:
        best_gain_idx = -1
        best_score = best
        for i in range(len(doc.sentences)):
            if i in selected:
                continue
            trial = sorted(selected + [i])
            score = rouge_mean([doc.sentences[j] for j in trial], summary.sentences)
            if score > best_score:
                best_score = score
                best_gain_idx = i
        if best_gain_idx < 0:
            break
        selected.append(best_gain_idx)
        best = best_score
    chosen = set(selected)
    return LabelSequence(labels=tuple(1 if i in chosen else 0 for i in range(len(doc))))


def compression_pairs(doc: Document, summary: SummarySet) -> list[CompressionPair]:
    """For each summary sentence, pair it with its closest document
    sentence under rouge_mean."""
    pairs = []
    for target in summary.sentences:
        best_j = 0
        best_score = -1.0
        for j, source in enumerate(doc.sentences):
            score = rouge_mean([source], [target])
            if score > best_score:
                best_score = score
                best_j = j
        pairs.append(CompressionPair(source=doc.sentences[best_j], target=target, doc_id=doc.id))
    return pairs


def labels_to_jsonl_line(doc_id: str, labels: LabelSequence) -> str:
    return json.dumps({"id": doc_id, "labels": list(labels.labels)}, sort_keys=True)


def load_labels(path) -> dict[str, LabelSequence]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"labels file not found: {path}")
    table: dict[str, LabelSequence] = {}
    with path.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                doc_id = str(obj["id"])
                labels = LabelSequence(labels=tuple(int(v) for v in obj["labels"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"labels line {line_no}: {exc}") from exc
            if doc_id in table:
                raise DataError(f"labels line {line_no}: duplicate document id {doc_id!r}")
            table[doc_id] = labels
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


def load_pairs(path) -> list[CompressionPair]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"pairs file not found: {path}")
    pairs: list[CompressionPair] = []
    with path.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                pairs.append(
                    CompressionPair(
                        source=Sentence(tokens=tuple(obj["source"])),
                        target=Sentence(tokens=tuple(obj["target"])),
                        doc_id=str(obj["doc_id"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"pairs line {line_no}: {exc}") from exc
    if not pairs:
        raise DataError(f"pairs file {path} holds no records")
    return pairs
