"""Pipeline driver.

Subcommands cover every stage: toy-corpus generation, oracle labels,
compression pairs, the three training stages, summarization, ROUGE
evaluation, and the lead-3 baseline. Every stage is a deterministic
function of (inputs, config, seed) and writes its outputs atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import compression as compression_mod
from . import extractive as extractive_mod
from . import latent as latent_mod
from .config import RunConfig, load_config
from .corpus import (
    Sentence,
    build_vocab,
    encode_records,
    load_corpus,
    load_vocab,
    parse_sentences,
)
from .errors import DataError, LatentSumError
from .labeling import (
    compression_pairs,
    labels_to_jsonl_line,
    load_labels,
    load_pairs,
    oracle_labels,
    pair_to_jsonl_line,
)
from .numerics.checkpoint import atomic_write_text, read_json_lines
from .rouge import score_table
from .toy import write_toy_corpus


def _write_jsonl(path, lines):
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def _write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_encoded(corpus, split, vocab):
    return encode_records(load_corpus(corpus, split), vocab)


def _encode_pairs(pairs, vocab):
    out = []
    for pair in pairs:
        out.append(type(pair)(
            doc_id=pair.doc_id,
            source=vocab.encode_sentence(pair.source),
            target=vocab.encode_sentence(pair.target),
        ))
    return out


def cmd_make_toy(args, config: RunConfig) -> int:
    written = write_toy_corpus(args.out, config.seed)
    for split in sorted(written):
        print(f"wrote {written[split]}")
    return 0


def cmd_make_labels(args, config: RunConfig) -> int:
    records = load_corpus(args.corpus, args.split)
    lines = [
        labels_to_jsonl_line(doc.id, oracle_labels(doc, summary, config.max_select))
        for doc, summary in records
    ]
    _write_jsonl(args.out, lines)
    print(f"wrote {len(lines)} label rows to {args.out}")
    return 0


def cmd_make_pairs(args, config: RunConfig) -> int:
    records = load_corpus(args.corpus, args.split)
    lines = []
    for doc, summary in records:
        for pair in compression_pairs(doc, summary):
            lines.append(pair_to_jsonl_line(pair))
    _write_jsonl(args.out, lines)
    print(f"wrote {len(lines)} compression pairs to {args.out}")
    return 0


def cmd_train_extractive(args, config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    train_raw = load_corpus(args.corpus, "train")
    vocab = build_vocab(train_raw, min_count=config.min_count)
    atomic_write_text(args.vocab, vocab.to_json() + "\n")
    train = encode_records(train_raw, vocab)
    valid = _load_encoded(args.corpus, "valid", vocab)
    labels = load_labels(args.labels)
    model = extractive_mod.ExtractiveModel(len(vocab), config.d, rng)
    metrics = extractive_mod.train_extractive(model, train, labels, valid, config, rng)
    extractive_mod.save_extractive(args.checkpoint, model, config.to_dict(), vocab)
    _write_json(args.metrics, metrics)
    final = metrics[-1]
    print(
        f"trained extractive for {final['epoch']} epochs: "
        f"train_acc={final['train_acc']:.4f} val_rouge_mean={final['val_rouge_mean']:.4f}"
    )
    print(f"wrote {args.checkpoint}")
    return 0


def cmd_train_compression(args, config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    vocab = load_vocab(args.vocab)
    pairs = _encode_pairs(load_pairs(args.pairs), vocab)
    val_pairs = _encode_pairs(load_pairs(args.val_pairs), vocab) if args.val_pairs else []
    model = compression_mod.CompressionModel(len(vocab), config.d, rng)
    metrics = compression_mod.train_compression(model, pairs, val_pairs, config, rng)
    compression_mod.save_compression(args.checkpoint, model, config.to_dict(), vocab)
    _write_json(args.metrics, metrics)
    final = metrics[-1]
    tail = f" val_ppl={final['val_ppl']:.4f}" if "val_ppl" in final else ""
    print(
        f"trained compression for {final['epoch']} epochs: "
        f"train_ppl={final['train_ppl']:.4f}{tail}"
    )
    print(f"wrote {args.checkpoint}")
    return 0


def cmd_train_latent(args, config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    vocab = load_vocab(args.vocab)
    train = _load_encoded(args.corpus, "train", vocab)
    model = extractive_mod.load_extractive(args.checkpoint, vocab)
    scorer = compression_mod.load_compression(args.compression, vocab)
    baseline = latent_mod.BaselineModel(model.d)
    trace_lines: list[str] = []
    metrics = latent_mod.train_latent(
        model, baseline, train, scorer, config, rng,
        trace_sink=lambda row: trace_lines.append(json.dumps(row, sort_keys=True)),
    )
    extractive_mod.save_extractive(args.out, model, config.to_dict(), vocab)
    _write_jsonl(args.trace, trace_lines)
    _write_json(args.metrics, metrics)
    report = f"latent training: epoch-1 mean reward {metrics[0]['mean_reward']:.4f}"
    if len(metrics) > 1:
        report += f", epoch-{metrics[-1]['epoch']} mean reward {metrics[-1]['mean_reward']:.4f}"
    print(report)
    print(f"wrote {args.out}")
    return 0


def _summary_rows(args, config: RunConfig):
    if args.compress and not args.compression:
        raise DataError("--compress requires --compression CHECKPOINT")
    vocab = load_vocab(args.vocab)
    records = _load_encoded(args.corpus, args.split, vocab)
    model = extractive_mod.load_extractive(args.checkpoint, vocab)
    compressor = (compression_mod.load_compression(args.compression, vocab)
                  if args.compress else None)
    docs = [doc for doc, _ in records]
    rows = []
    for doc, top in zip(docs, model.select_top_k_each(docs, config.max_select)):
        sentences = list(top.sentences)
        if compressor is not None:
            sentences = [
                compression_mod.decode_greedy(compressor, vocab, s, config.max_decode_len)
                for s in sentences
            ]
        rows.append({"id": doc.id, "summary": [s.text() for s in sentences]})
    return rows


def cmd_summarize(args, config: RunConfig) -> int:
    rows = _summary_rows(args, config)
    _write_jsonl(args.out, [json.dumps(r, sort_keys=True) for r in rows])
    print(f"wrote {len(rows)} summaries to {args.out}")
    return 0


def cmd_lead3(args, config: RunConfig) -> int:
    records = load_corpus(args.corpus, args.split)
    rows = []
    for doc, _ in records:
        lead = doc.sentences[: min(3, len(doc.sentences))]
        rows.append({"id": doc.id, "summary": [s.text() for s in lead]})
    _write_jsonl(args.out, [json.dumps(r, sort_keys=True) for r in rows])
    print(f"wrote {len(rows)} lead-3 summaries to {args.out}")
    return 0


def _load_generated(path) -> dict[str, list[Sentence]]:
    out: dict[str, list[Sentence]] = {}
    for line_no, row in read_json_lines(path, DataError):
        try:
            if not isinstance(row, dict):
                raise DataError(f"expected a JSON object, got {type(row).__name__}")
            doc_id = str(row["id"])
            sentences = list(parse_sentences(row["summary"], "summary"))
        except (KeyError, DataError) as exc:
            raise DataError(f"{path} line {line_no}: bad summary row ({exc})") from exc
        if doc_id in out:
            raise DataError(f"{path} line {line_no}: duplicate id {doc_id!r}")
        out[doc_id] = sentences
    if not out:
        raise DataError(f"generated summary file {path} holds no rows")
    return out


def _evaluate_system(generated: dict, gold: dict) -> dict:
    missing = sorted(set(gold) - set(generated))
    if missing:
        raise DataError(f"generated summaries missing document ids: {missing[:3]}")
    return score_table((generated[doc_id], gold[doc_id]) for doc_id in sorted(gold))


def _format_table(results: list[tuple[str, dict]]) -> str:
    header = (
        f"{'system':<12} {'R1-F1':>8} {'R1-P':>8} {'R1-R':>8} "
        f"{'R2-F1':>8} {'R2-P':>8} {'R2-R':>8} "
        f"{'RL-F1':>8} {'RL-P':>8} {'RL-R':>8}"
    )
    lines = [header, "-" * len(header)]
    for name, scores in results:
        cells = []
        for key in ("rouge1", "rouge2", "rougeL"):
            s = scores[key]
            cells.extend([s["f1"], s["precision"], s["recall"]])
        lines.append(f"{name:<12} " + " ".join(f"{c:>8.4f}" for c in cells))
    return "\n".join(lines) + "\n"


def cmd_evaluate(args, config: RunConfig) -> int:
    gold = {
        doc.id: list(summary.sentences)
        for doc, summary in load_corpus(args.corpus, args.split)
    }
    results = []
    for spec_item in args.generated:
        if "=" in spec_item:
            name, path = spec_item.split("=", 1)
        else:
            name, path = Path(spec_item).stem, spec_item
        results.append((name, _evaluate_system(_load_generated(path), gold)))
    table = _format_table(results)
    print(table, end="")
    if args.out:
        atomic_write_text(args.out, table)
        print(f"wrote {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing keeps no state, so ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="latentsum",
        description="Latent-variable extractive summarization pipeline.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("make-toy", cmd_make_toy, "write the bundled synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus directory")

    p = add("make-labels", cmd_make_labels, "derive oracle extraction labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--out", required=True)

    p = add("make-pairs", cmd_make_pairs, "derive sentence compression pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--out", required=True)

    p = add("train-extractive", cmd_train_extractive, "train the sentence labeler")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--vocab", required=True, help="vocabulary output path")
    p.add_argument("--checkpoint", required=True, help="checkpoint output path")
    p.add_argument("--metrics", required=True, help="metrics JSON output path")

    p = add("train-compression", cmd_train_compression, "train the compression scorer")
    p.add_argument("--pairs", required=True)
    p.add_argument("--val-pairs", default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint output path")
    p.add_argument("--metrics", required=True)

    p = add("train-latent", cmd_train_latent, "refine the labeler with sampled rewards")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True, help="pretrained extractive checkpoint")
    p.add_argument("--compression", required=True, help="trained compression checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="refined checkpoint output path")
    p.add_argument("--trace", required=True, help="reward trace JSONL output path")
    p.add_argument("--metrics", required=True)

    p = add("summarize", cmd_summarize, "write top-max_select summaries as JSONL")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--compress", action="store_true")
    p.add_argument("--compression", default=None, help="compression checkpoint")

    p = add("lead3", cmd_lead3, "write first-3-sentence baseline summaries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)

    p = add("evaluate", cmd_evaluate, "ROUGE table over generated summary files")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--generated", action="append", required=True,
                   metavar="NAME=PATH", help="repeatable; NAME= prefix optional")
    p.add_argument("--out", default=None, help="also write the table here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, {"seed": args.seed})
        return args.fn(args, config)
    except LatentSumError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
