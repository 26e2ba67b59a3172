"""Corpus data model: tokenization, vocabulary, and JSONL ingestion.

A corpus is a JSON Lines file where each line carries an ``id``, a
``document`` (array of sentence strings) and a ``summary`` (array of
sentence strings). Sentences are pre-split; this module only tokenizes
within a sentence.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError
from .numerics.checkpoint import read_json_lines, read_text

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")

_SPLIT_PUNCT = ".,!?;:"


@dataclass(frozen=True)
class Sentence:
    """One tokenized sentence, optionally encoded against a vocabulary."""

    tokens: tuple[str, ...]
    ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.tokens:
            raise DataError("sentence must have at least one token")
        if self.ids is not None and len(self.ids) != len(self.tokens):
            raise DataError(
                f"ids length {len(self.ids)} != tokens length {len(self.tokens)}"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        if not self.id:
            raise DataError("document id must be non-empty")
        if not self.sentences:
            raise DataError(f"document {self.id!r} has no sentences")

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class SummarySet:
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        if not self.sentences:
            raise DataError("summary has no sentences")

    def __len__(self) -> int:
        return len(self.sentences)


def tokenize(raw: str) -> Sentence:
    """Lowercase, split on whitespace, and peel terminal punctuation
    (``. , ! ? ; :``) off the end of each chunk into standalone tokens."""
    if not raw.strip():
        raise DataError("cannot tokenize whitespace-only text")
    tokens: list[str] = []
    for chunk in raw.lower().split():
        if chunk[-1] not in _SPLIT_PUNCT:
            tokens.append(chunk)
            continue
        # the head keeps at least one character, so "..." is three tokens
        head = chunk.rstrip(_SPLIT_PUNCT) or chunk[0]
        tokens.append(head)
        tokens.extend(chunk[len(head):])
    return Sentence(tokens=tuple(tokens))


@dataclass(frozen=True)
class Vocabulary:
    """Token/index bijection with four fixed special slots.

    Layout is deterministic: specials at 0..3, then tokens by descending
    corpus frequency, ties broken lexicographically.
    """

    id_to_token: tuple[str, ...]
    counts: tuple[int, ...]  # frequency per non-special token, aligned after specials
    token_to_id: dict[str, int] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.token_to_id is None:
            object.__setattr__(
                self,
                "token_to_id",
                {tok: i for i, tok in enumerate(self.id_to_token)},
            )

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens) -> tuple[int, ...]:
        return tuple(self.token_to_id.get(t, UNK) for t in tokens)

    def decode(self, ids) -> tuple[str, ...]:
        return tuple(self.id_to_token[i] for i in ids)

    def encode_sentence(self, sentence: Sentence) -> Sentence:
        return Sentence(tokens=sentence.tokens, ids=self.encode(sentence.tokens))

    def to_json(self) -> str:
        payload = {
            "specials": list(SPECIAL_TOKENS),
            "tokens": [
                [tok, count]
                for tok, count in zip(self.id_to_token[len(SPECIAL_TOKENS):], self.counts)
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        try:
            payload = json.loads(text)
            specials = tuple(payload["specials"])
            pairs = [(t, c) for t, c in payload["tokens"]]  # each entry one pair
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed vocabulary file: {exc}") from exc
        if specials != SPECIAL_TOKENS:
            raise DataError(f"unexpected special tokens {specials!r}")
        seen = set(specials)
        for token, count in pairs:
            if not isinstance(token, str) or type(count) is not int:
                raise DataError(f"vocabulary entry {token!r} needs a string token and an "
                                f"integer count, got count {count!r}")
            if token in seen:
                raise DataError(f"vocabulary lists token {token!r} twice")
            if count < 0:
                raise DataError(f"vocabulary token {token!r} has negative count {count}")
            seen.add(token)
        return cls(
            id_to_token=specials + tuple(t for t, _ in pairs),
            counts=tuple(c for _, c in pairs),
        )

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def build_vocab(records, min_count: int = 2) -> Vocabulary:
    """Count tokens over documents and summaries; keep those seen at least
    ``min_count`` times."""
    if not records:
        raise DataError("cannot build vocabulary from an empty corpus")
    freq: Counter[str] = Counter()
    for doc, summary in records:
        for sent in doc.sentences:
            freq.update(sent.tokens)
        for sent in summary.sentences:
            freq.update(sent.tokens)
    kept = sorted(
        ((tok, n) for tok, n in freq.items() if n >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    return Vocabulary(
        id_to_token=SPECIAL_TOKENS + tuple(t for t, _ in kept),
        counts=tuple(n for _, n in kept),
    )


def load_vocab(path) -> Vocabulary:
    return Vocabulary.from_json(read_text(path, DataError))


def parse_sentences(value, field: str) -> tuple[Sentence, ...]:
    """Tokenize a JSON list of sentence strings. Any other value, a bare
    string included, is a DataError naming ``field``."""
    if not isinstance(value, list):
        raise DataError(f"{field!r} must be a list of sentence strings, "
                        f"got {type(value).__name__}")
    for sent in value:
        if not isinstance(sent, str):
            raise DataError(f"{field!r} holds {sent!r} where a sentence string belongs")
    return tuple(tokenize(s) for s in value)


def _parse_record(obj, line_no: int) -> tuple[Document, SummarySet]:
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: expected a JSON object, got {type(obj).__name__}")
    for key in ("id", "document", "summary"):
        if key not in obj:
            raise DataError(f"line {line_no}: missing field {key!r}")
    doc_id = str(obj["id"])
    if not obj["document"]:
        raise DataError(f"line {line_no}: record {doc_id!r} has an empty document")
    if not obj["summary"]:
        raise DataError(f"line {line_no}: record {doc_id!r} has an empty summary")
    try:
        document = parse_sentences(obj["document"], "document")
        summary = parse_sentences(obj["summary"], "summary")
    except DataError as exc:
        raise DataError(f"line {line_no}: record {doc_id!r}: {exc}") from exc
    return Document(id=doc_id, sentences=document), SummarySet(sentences=summary)


def load_corpus(path, split: str = "train") -> list[tuple[Document, SummarySet]]:
    """Load ``(Document, SummarySet)`` records in file order.

    ``path`` may be the JSONL file itself or a corpus directory holding
    ``<split>.jsonl``.
    """
    path = Path(path)
    if path.is_dir():
        path = path / f"{split}.jsonl"
    records: list[tuple[Document, SummarySet]] = []
    seen_ids: set[str] = set()
    for line_no, obj in read_json_lines(path, DataError):
        doc, summary = _parse_record(obj, line_no)
        if doc.id in seen_ids:
            raise DataError(f"line {line_no}: duplicate document id {doc.id!r}")
        seen_ids.add(doc.id)
        records.append((doc, summary))
    if not records:
        raise DataError(f"corpus file {path} holds no records")
    return records


def encode_records(records, vocab: Vocabulary):
    """Attach vocabulary ids to every sentence of every record."""
    encoded = []
    for doc, summary in records:
        encoded.append(
            (
                Document(
                    id=doc.id,
                    sentences=tuple(vocab.encode_sentence(s) for s in doc.sentences),
                ),
                SummarySet(
                    sentences=tuple(vocab.encode_sentence(s) for s in summary.sentences)
                ),
            )
        )
    return encoded
