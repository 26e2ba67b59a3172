"""Peak memory and wall time of a CompressionModel's init, save and load,
or of CLI ``summarize --compress``, one tree against another.

    python3 tools/checkpoint_memory.py --src . --against <tree> --vocab 20000 --d 300
    python3 tools/checkpoint_memory.py --mode summarize --src . --against <tree>

``--src`` and ``--against`` are roots of two checkouts; each measurement
imports numpy and the latentsum of its tree's ``src/`` in a fresh process,
with OpenBLAS pinned to one thread. A process measures one operation:

- ``init`` builds a seeded ``CompressionModel(vocab, d)``;
- ``save`` builds one, unmeasured, and writes it with ``save_compression``;
- ``load`` reads the file of its tree's last ``save`` with ``load_compression``.

``--mode summarize`` measures one operation instead:

- ``summarize`` runs ``latentsum.cli.main`` on ``summarize --compress`` over
  DOCS made-up test documents with seeded, untrained extractive and
  compression checkpoints of that size, written once by a child of
  ``--src`` (the checkpoint format is the same in both trees). It also
  reports the child's ``ru_maxrss``, its whole life's peak, beside its RSS
  when the command started and the two models' sizes. Whether the peak
  above the start follows the larger model plus one selection or decode
  pack, or the sum of both models, shows whether the two are ever held
  at once.

The vocabulary is ``vocab`` made-up tokens, the model's config otherwise
the defaults. Each operation runs twice per tree: once for its wall
milliseconds and its peak RSS above the process's RSS just before it
(``VmHWM`` after minus ``VmRSS`` before, from ``/proc/self/status``, so
Linux only), and once under ``tracemalloc`` for the peak of the memory it
allocates, numpy's arrays included. A save's RSS peak is not reported: the
model built before it has already set the process's high-water mark, so
the traced peak is the save's measure. There are REPEATS repeats, and they
alternate which tree runs first (even repeats start with ``--src``).

Prints one JSON object: the model's size, every run, and per operation
and tree the median of each measure.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

MODES = {"checkpoint": ("init", "save", "load"), "summarize": ("summarize",)}
REPEATS = 3
MB = 1 << 20
DOCS = 6  # summarized documents: 20 sentences of 5 to 40 words each


def _status() -> dict:
    """This process's current and peak resident bytes."""
    fields = dict(line.split(":", 1) for line in Path("/proc/self/status").read_text().splitlines())
    return {key: int(fields[key].split()[0]) * 1024 for key in ("VmRSS", "VmHWM")}


def _vocab(vocab_size: int):
    from latentsum.corpus import SPECIAL_TOKENS, Vocabulary

    words = [[f"w{i}", 1] for i in range(vocab_size - len(SPECIAL_TOKENS))]
    return Vocabulary.from_json(json.dumps({"specials": list(SPECIAL_TOKENS), "tokens": words}))


def write_inputs(work: Path, vocab_size: int, d: int) -> None:
    """``summarize``'s inputs under ``work``: the vocabulary, DOCS test
    documents of made-up words, and a seeded checkpoint of each model."""
    import numpy as np
    from latentsum.compression import CompressionModel, save_compression
    from latentsum.corpus import SPECIAL_TOKENS
    from latentsum.extractive import ExtractiveModel, save_extractive

    vocab = _vocab(vocab_size)
    (work / "vocab.json").write_text(vocab.to_json() + "\n", encoding="utf-8")
    rng = np.random.default_rng(0)
    words = vocab_size - len(SPECIAL_TOKENS)
    docs = [{"id": f"d{j}", "summary": ["w0 w1 ."],
             "document": [" ".join(f"w{i}" for i in rng.integers(0, words, rng.integers(5, 41)))
                          for _ in range(20)]} for j in range(DOCS)]
    (work / "corpus").mkdir()
    (work / "corpus" / "test.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    save_extractive(work / "extractive.ckpt", ExtractiveModel(vocab_size, d, rng), {}, vocab)
    save_compression(work / "compression.ckpt", CompressionModel(vocab_size, d, rng), {}, vocab)


def measure(op: str, path: str, vocab_size: int, d: int, traced: bool) -> dict:
    """One operation in this process, whose latentsum is the tree's."""
    import numpy as np
    from latentsum import cli
    from latentsum.compression import CompressionModel, load_compression, save_compression

    vocab = _vocab(vocab_size)
    work = Path(path).parent

    def build():
        return CompressionModel(vocab_size, d, np.random.default_rng(0))

    def summarize():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["summarize", "--corpus", str(work / "corpus"),
                             "--checkpoint", str(work / "extractive.ckpt"),
                             "--vocab", str(work / "vocab.json"), "--out", path, "--compress",
                             "--compression", str(work / "compression.ckpt")])

    model = build() if op == "save" else None
    run = {"init": build, "save": lambda: save_compression(path, model, {}, vocab),
           "load": lambda: load_compression(path, vocab), "summarize": summarize}[op]
    if traced:
        tracemalloc.start()
    before = _status()
    start = time.perf_counter()
    result = run()
    wall = time.perf_counter() - start
    after = _status()
    if traced:
        return {"traced_peak_mb": tracemalloc.get_traced_memory()[1] / MB}
    if op == "save":
        return {"wall_ms": wall * 1e3}
    if op == "summarize":
        if result != 0:
            raise SystemExit(f"summarize exited {result}")
        sizes = {name: (work / f"{name}.ckpt").stat().st_size / MB
                 for name in ("extractive", "compression")}
        return {"wall_ms": wall * 1e3, "rss_peak_mb": (after["VmHWM"] - before["VmRSS"]) / MB,
                "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "start_rss_mb": before["VmRSS"] / MB, "checkpoint_mb": sizes}
    params = result.parameters()
    return {"wall_ms": wall * 1e3, "rss_peak_mb": (after["VmHWM"] - before["VmRSS"]) / MB,
            "model_mb": sum(p.data.nbytes for p in params) / MB}


def child(root: Path, op: str, path: Path, args, traced: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    command = [sys.executable, str(Path(__file__).resolve()), "--measure", op,
               "--checkpoint", str(path), "--vocab", str(args.vocab), "--d", str(args.d)]
    done = subprocess.run(command + ["--traced"] * traced, env=env, capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{root} {op}: exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path("."))
    parser.add_argument("--against", type=Path, help="a second checkout to measure beside --src")
    parser.add_argument("--mode", choices=MODES, default="checkpoint")
    parser.add_argument("--vocab", type=int, default=20000)
    parser.add_argument("--d", type=int, default=300)
    parser.add_argument("--measure", choices=[*MODES["checkpoint"], "summarize", "inputs"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--checkpoint", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure == "inputs":
        write_inputs(Path(args.checkpoint), args.vocab, args.d)
        print("{}")
        return
    if args.measure:
        print(json.dumps(measure(args.measure, args.checkpoint, args.vocab, args.d, args.traced)))
        return
    if args.against is None:
        parser.error("--against is required")
    trees = {"src": args.src.resolve(), "against": args.against.resolve()}
    ops = MODES[args.mode]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        if args.mode == "summarize":
            child(trees["src"], "inputs", Path(tmp), args)
        for repeat in range(REPEATS):
            order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
            for op in ops:
                for side in order:
                    path = Path(tmp) / (f"{side}.ckpt" if op != "summarize" else f"{side}.jsonl")
                    row = child(trees[side], op, path, args)
                    row.update(child(trees[side], op, path, args, traced=True))
                    runs.append({"repeat": repeat, "side": side, "op": op, **row})
    sizes = {key: next(run[key] for run in runs if key in run)
             for key in ("model_mb", "checkpoint_mb") if any(key in run for run in runs)}
    summary = {op: {side: {key: statistics.median(run[key] for run in runs
                                                  if run["op"] == op and run["side"] == side)
                           for key in ("wall_ms", "rss_peak_mb", "maxrss_mb", "traced_peak_mb")
                           if key in next(run for run in runs if run["op"] == op)}
                    for side in trees}
               for op in ops}
    print(json.dumps({"mode": args.mode, "vocab": args.vocab, "d": args.d, **sizes,
                      "trees": {side: str(root) for side, root in trees.items()},
                      "summary": summary, "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
