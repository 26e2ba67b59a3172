"""The selection pack budget's curve: for each word budget, CLI
``summarize`` milliseconds per document on the benchmark's infer_wide
corpus, and the tracemalloc peak of one ``summarize``, at d=16 and d=64.

    python3 tools/pack_budget_curve.py [--seed 1] [--repeats 21]

Run it from the root of a checkout. It builds the corpus with perfbench's
generator, seeds an untrained extractor of each size as infer_wide does,
sets ``lstm.PACK_WORDS`` to each budget in turn and writes only
under a temporary directory. Times are wall milliseconds, the median of
the repeats after one warm-up round, the budgets taking turns, with
OpenBLAS pinned to one thread.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import inputs  # noqa: E402  -- perfbench's input generator

from latentsum import cli, extractive  # noqa: E402
from latentsum.numerics import lstm  # noqa: E402
from latentsum.config import load_config  # noqa: E402
from latentsum.corpus import build_vocab, load_corpus  # noqa: E402

BUDGETS = (1024, 2048, 4096, 8192)
SIZES = (16, 64)


def summarize(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"summarize failed: {argv}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = inputs.write_wide_corpus(work / "wide", args.seed).parent
        records = load_corpus(str(corpus), "test")
        vocab = build_vocab(records, min_count=1)
        (work / "vocab.json").write_text(vocab.to_json() + "\n", encoding="utf-8")
        words = sum(len(s.tokens) for doc, _ in records for s in doc.sentences)
        print(f"infer_wide corpus, seed {args.seed}: {len(records)} documents, {words} words")
        print("| budget (words) | " + " | ".join(
            f"d={d} ms/doc | d={d} peak MB" for d in SIZES) + " |")
        print("|---:|" + "---:|---:|" * len(SIZES))
        rows = {budget: [] for budget in BUDGETS}
        for d in SIZES:
            config = work / f"config{d}.json"
            config.write_text(json.dumps({"d": d, "min_count": 1}), encoding="utf-8")
            checkpoint = work / f"extractive{d}.ckpt"
            model = extractive.ExtractiveModel(len(vocab), d, np.random.default_rng(args.seed))
            extractive.save_extractive(checkpoint, model, load_config(config).to_dict(), vocab)
            argv = ["--config", str(config), "summarize", "--corpus", str(corpus),
                    "--split", "test", "--checkpoint", str(checkpoint),
                    "--vocab", str(work / "vocab.json"), "--out", str(work / "out.jsonl")]
            times = {budget: [] for budget in BUDGETS}
            for repeat in range(args.repeats + 1):
                for budget in BUDGETS:  # interleaved, so the host's drift hits every budget
                    lstm.PACK_WORDS = budget
                    start = time.perf_counter()
                    summarize(argv)
                    if repeat:
                        times[budget].append(time.perf_counter() - start)
            for budget in BUDGETS:
                lstm.PACK_WORDS = budget
                tracemalloc.start()
                summarize(argv)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                rows[budget].append(f"{1e3 * statistics.median(times[budget]) / len(records):.2f}"
                                    f" | {peak / 2**20:.2f}")
        for budget in BUDGETS:
            print(f"| {budget:,} | " + " | ".join(rows[budget]) + " |")


if __name__ == "__main__":
    main()
