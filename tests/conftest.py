"""Shared builders for the test suite."""

import os

# OpenBLAS reads its thread count when numpy loads it, so pin it first:
# the recurrences run one matmul of a few rows per step, and extra BLAS
# threads only wait on busy cores of a small shared host
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from latentsum.config import RunConfig  # noqa: E402
from latentsum.corpus import (  # noqa: E402
    Document,
    Sentence,
    SummarySet,
    build_vocab,
    encode_records,
)


def sent(text: str, vocab=None) -> Sentence:
    tokens = tuple(text.split())
    if vocab is None:
        return Sentence(tokens=tokens)
    return Sentence(tokens=tokens, ids=vocab.encode(tokens))


def doc_from(texts, doc_id="d1") -> Document:
    return Document(id=doc_id, sentences=tuple(sent(t) for t in texts))


def summary_from(texts) -> SummarySet:
    return SummarySet(sentences=tuple(sent(t) for t in texts))


def random_sentences(rng, count, max_len=12, vocab_size=8):
    """Random token sentences over a tiny alphabet (fuzz inputs)."""
    alphabet = [f"w{i}" for i in range(vocab_size)]
    out = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        out.append(Sentence(tokens=tuple(
            alphabet[int(rng.integers(vocab_size))] for _ in range(length)
        )))
    return out


def tiny_records(n_docs=4, n_sents=3, vocab_words=12, seed=5):
    """Small encoded corpus plus its vocabulary, for model tests."""
    rng = np.random.default_rng(seed)
    words = [f"tok{i}" for i in range(vocab_words)]
    raw = []
    for d in range(n_docs):
        sentences = []
        for _ in range(n_sents):
            length = int(rng.integers(2, 5))
            sentences.append(" ".join(words[int(rng.integers(vocab_words))]
                                      for _ in range(length)))
        doc = Document(id=f"doc{d}", sentences=tuple(sent(s) for s in sentences))
        summary = SummarySet(sentences=(doc.sentences[0],))
        raw.append((doc, summary))
    vocab = build_vocab(raw, min_count=1)
    return encode_records(raw, vocab), vocab


@pytest.fixture
def small_config():
    return RunConfig(d=8, extractive_epochs=2, compression_epochs=2,
                     latent_epochs=1, batch_size=4)
