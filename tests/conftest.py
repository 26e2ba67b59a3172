"""Shared builders for the test suite."""

import base64
import json
import os
import tracemalloc
from pathlib import Path

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
from latentsum.numerics import Tensor  # noqa: E402
from latentsum.toy import ADJECTIVES, NAMES, OBJECTS, VERBS, _filler_sentence, _pick  # noqa: E402


def blas_build() -> str:
    """numpy's BLAS name and version, e.g. "scipy-openblas 0.3.31.188.0".

    Byte identity rests on the BLAS's rounding, so a bit-identity failure
    names it: a mismatch between hosts can then be told apart from a
    regression.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def traced_peak(fn):
    """``fn()``'s result and the most bytes that tracemalloc saw allocated
    at once while it ran, above what was allocated when it started. numpy
    reports its arrays' buffers to tracemalloc, so this counts them."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _checkpoint_parts(raw: bytes) -> tuple[dict, bytes]:
    """A checkpoint file's JSON header and its body's bytes."""
    header, _, body = raw.partition(b"\n")
    return json.loads(header), body


def rewrite_checkpoint_header(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` (which may be ``src``) with
    ``edit(header)`` applied to its JSON header; the body's bytes stay."""
    header, body = _checkpoint_parts(Path(src).read_bytes())
    edit(header)
    Path(dst).write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)


def _version_1(raw: bytes) -> bytes:
    """A checkpoint as format version 1 stored it: one JSON document whose
    params hold each array as base64 little-endian bytes."""
    header, body = _checkpoint_parts(raw)
    params, offset = [], 0
    for entry in header["params"]:
        raw = body[offset:offset + entry["bytes"]]
        offset += entry["bytes"]
        params.append({"name": entry["name"], "shape": entry["shape"], "dtype": entry["dtype"],
                       "data": base64.b64encode(raw).decode("ascii")})
    return json.dumps({"format_version": 1, "model": header["model"],
                       "config": header["config"], "vocab_hash": header["vocab_hash"],
                       "params": params}, sort_keys=True).encode("utf-8")


CHECKPOINT_DAMAGE = {
    "flipped-body-byte": lambda raw: raw[:-1] + bytes([raw[-1] ^ 0x01]),
    "appended-byte": lambda raw: raw + b"\0",
    "truncated-body": lambda raw: raw[:-1],
    "non-utf8-header": lambda raw: b"\xff" + raw,
    "version-1": _version_1,
}


def damage_checkpoint(src, dst, damage):
    """Copy checkpoint ``src`` to ``dst`` with one kind of ``CHECKPOINT_DAMAGE``."""
    Path(dst).write_bytes(CHECKPOINT_DAMAGE[damage](Path(src).read_bytes()))


def initial_state(cell) -> tuple[Tensor, Tensor]:
    """An ``LSTMCell``'s zero (h, c), one row each, for stepwise oracles."""
    zero = np.zeros((1, cell.hidden_size), dtype=cell.dtype)
    return Tensor(zero), Tensor(zero.copy())


def selected_indices(labels) -> tuple[int, ...]:
    """The indices of a ``LabelSequence``'s selected sentences."""
    return tuple(i for i, v in enumerate(labels.labels) if v == 1)


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


def split_content_corpus(n_docs=4):
    """Records on which greedy oracle labels are strictly suboptimal.

    Each summary is one six-word sentence "a b c d e f". Its content is
    split across two document sentences, "a b c" and "d e f"; together
    they match all 6 summary unigrams and 4 of its 5 bigrams (rouge_mean
    17/18). A distractor "a b d e c f" matches all 6 unigrams but only 2
    bigrams (0.7), which beats either half alone (about 0.62), so greedy
    takes it first; adding a half then lowers the score (0.65), so greedy
    stops at 0.7. Three filler sentences share no word with the summary.
    Each document has its own words, and the distractor moves position.
    """
    records = []
    for d in range(n_docs):
        a, b, c, e1, e2, f = (f"d{d}w{k}" for k in range(6))
        fillers = [f"d{d}x{k} d{d}y{k} d{d}z{k}" for k in range(3)]
        halves = [f"{a} {b} {c}", f"{e1} {e2} {f}"]
        distractor = f"{a} {b} {e1} {e2} {c} {f}"
        texts = fillers[:1] + halves[:1] + fillers[1:2] + halves[1:] + fillers[2:]
        texts.insert(d % (len(texts) + 1), distractor)
        records.append((doc_from(texts, doc_id=f"split{d}"),
                        summary_from([f"{a} {b} {c} {e1} {e2} {f}"])))
    return records


def recap_corpus(seed):
    """Train and test records on which greedy oracle labels miss the
    best subset: 50 training and 10 test documents of 5-7 sentences.

    Each document has two key sentences, "NAME VERB the ADJ OBJ .", and
    one recap of both, "N1 and N2 V1 the O1 and V2 the O2 .", at random
    positions; toy filler sentences fill the rest. The summary is
    "NAME VERB the OBJ ." for each key, in document order. The recap holds
    every summary word but not their order, so greedy takes it first.
    """
    rng = np.random.default_rng(seed)
    splits = {}
    for split, size in (("train", 50), ("test", 10)):
        records = []
        for index in range(size):
            n = int(rng.integers(5, 8))
            *key_at, recap_at = rng.choice(n, size=3, replace=False).tolist()
            keys = [tuple(_pick(rng, words) for words in (NAMES, VERBS, ADJECTIVES, OBJECTS))
                    for _ in key_at]
            (n1, v1, _, o1), (n2, v2, _, o2) = keys
            placed = {at: f"{name} {verb} the {adj} {obj} ."
                      for at, (name, verb, adj, obj) in zip(sorted(key_at), keys)}
            placed[recap_at] = f"{n1} and {n2} {v1} the {o1} and {v2} the {o2} ."
            texts = [placed[i] if i in placed else _filler_sentence(rng) for i in range(n)]
            records.append((doc_from(texts, doc_id=f"recap-{split}-{index:04d}"),
                            summary_from([f"{name} {verb} the {obj} ."
                                          for name, verb, _, obj in keys])))
        splits[split] = records
    return splits
