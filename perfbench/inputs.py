"""Inputs the benchmark hands to latentsum, all made from the workload seed.

The toy workloads use the library's own toy corpus and the README
walkthrough config with fewer epochs, so one round of fixed work stays a
few seconds long. infer_wide uses a generated corpus shaped like news:
long documents, long and uneven sentences, and a Zipfian vocabulary. Its
sentence counts and lengths are fixed grids that the seed only shuffles,
so every seed gives the same amount of work laid out differently.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

WALKTHROUGH_CONFIG = {"d": 16, "extractive_epochs": 8, "compression_epochs": 40,
                      "latent_epochs": 3, "batch_size": 8, "min_count": 1, "latent_lr": 0.005}
# Toy summary sentences are five tokens ("anna built the mill ."). Capping
# greedy decode just past that keeps a one-epoch model from decoding to the
# default 30 tokens on some seeds and stopping at once on others.
TOY_DECODE_LEN = 6
TRAIN_TOY_CONFIG = dict(WALKTHROUGH_CONFIG, extractive_epochs=1, compression_epochs=1,
                        max_decode_len=TOY_DECODE_LEN)
LATENT_TOY_CONFIG = dict(WALKTHROUGH_CONFIG, extractive_epochs=1, compression_epochs=1,
                         latent_epochs=1, num_samples=4, max_decode_len=TOY_DECODE_LEN)
WIDE_CONFIG = {"d": 64, "min_count": 1}

WIDE_DOCS = 32
WIDE_SENTENCES = (15, 35)  # per document
WIDE_TOKENS = (5, 40)  # per sentence, the final "." included
WIDE_SUMMARY = (3, 4)  # sentences per summary
WIDE_VOCAB = 2000
ZIPF_EXPONENT = 1.1
SUMMARY_KEEP = 0.6  # share of a source sentence's words a summary sentence keeps


def write_all_split(corpus_dir: Path) -> None:
    """Concatenate the toy train, valid and test splits into ``all.jsonl``.

    The toy workloads summarize and score all 70 documents rather than the
    10 test documents, so that a seed's corpus moves throughput and ROUGE
    less.
    """
    parts = [(corpus_dir / f"{split}.jsonl").read_text(encoding="utf-8")
             for split in ("train", "valid", "test")]
    (corpus_dir / "all.jsonl").write_text("".join(parts), encoding="utf-8")


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def wide_vocabulary() -> tuple[str, ...]:
    """WIDE_VOCAB distinct pronounceable words, the same for every seed;
    rank order (and so frequency) is a fixed shuffle of them."""
    onsets = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in onsets for v in vowels]
    words = ["".join(p) for p in itertools.product(syllables, repeat=2)][:WIDE_VOCAB]
    order = np.random.default_rng(0).permutation(len(words))
    return tuple(words[i] for i in order)


def _grid(low: int, high: int, count: int) -> np.ndarray:
    return np.round(np.linspace(low, high, count)).astype(int)


def generate_wide_corpus(seed: int) -> list[dict]:
    """WIDE_DOCS records in the corpus JSONL schema.

    Each summary sentence is a document sentence with about 40% of its
    words deleted, so oracle labels and compression pairs have signal.
    """
    rng = np.random.default_rng(seed)
    words = wide_vocabulary()
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    probs = ranks ** -ZIPF_EXPONENT
    probs /= probs.sum()
    sentence_counts = rng.permutation(_grid(*WIDE_SENTENCES, WIDE_DOCS))
    lengths = iter(rng.permutation(_grid(*WIDE_TOKENS, int(sentence_counts.sum()))))
    summary_sizes = rng.permutation(
        [WIDE_SUMMARY[i % len(WIDE_SUMMARY)] for i in range(WIDE_DOCS)])
    records = []
    for index, (count, size) in enumerate(zip(sentence_counts, summary_sizes)):
        sentences = []
        for _ in range(int(count)):
            ids = rng.choice(len(words), size=int(next(lengths)) - 1, p=probs)
            sentences.append([words[i] for i in ids])
        summary = []
        for position in sorted(rng.choice(int(count), size=int(size), replace=False)):
            source = sentences[position]
            kept = [w for w in source if rng.random() < SUMMARY_KEEP] or source[:1]
            summary.append(" ".join(kept) + " .")
        records.append({
            "id": f"wide-{index:04d}",
            "document": [" ".join(s) + " ." for s in sentences],
            "summary": summary,
        })
    return records


def write_wide_corpus(out_dir: Path, seed: int) -> Path:
    path = out_dir / "test.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r, sort_keys=True) for r in generate_wide_corpus(seed)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
