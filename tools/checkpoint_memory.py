"""Peak memory and wall time of a CompressionModel's init, save and load,
one tree against another.

    python3 tools/checkpoint_memory.py --src . --against <tree> --vocab 20000 --d 300

``--src`` and ``--against`` are roots of two checkouts; each measurement
imports numpy and the latentsum of its tree's ``src/`` in a fresh process,
with OpenBLAS pinned to one thread. A process measures one operation:

- ``init`` builds a seeded ``CompressionModel(vocab, d)``;
- ``save`` builds one, unmeasured, and writes it with ``save_compression``;
- ``load`` reads the file of its tree's last ``save`` with ``load_compression``.

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
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

OPS = ("init", "save", "load")
REPEATS = 3
MB = 1 << 20


def _status() -> dict:
    """This process's current and peak resident bytes."""
    fields = dict(line.split(":", 1) for line in Path("/proc/self/status").read_text().splitlines())
    return {key: int(fields[key].split()[0]) * 1024 for key in ("VmRSS", "VmHWM")}


def measure(op: str, path: str, vocab_size: int, d: int, traced: bool) -> dict:
    """One operation in this process, whose latentsum is the tree's."""
    import numpy as np
    from latentsum.compression import CompressionModel, load_compression, save_compression
    from latentsum.corpus import SPECIAL_TOKENS, Vocabulary

    words = [[f"w{i}", 1] for i in range(vocab_size - len(SPECIAL_TOKENS))]
    vocab = Vocabulary.from_json(json.dumps({"specials": list(SPECIAL_TOKENS), "tokens": words}))

    def build():
        return CompressionModel(vocab_size, d, np.random.default_rng(0))

    model = build() if op == "save" else None
    run = {"init": build, "save": lambda: save_compression(path, model, {}, vocab),
           "load": lambda: load_compression(path, vocab)}[op]
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
    params = result.parameters()
    return {"wall_ms": wall * 1e3, "rss_peak_mb": (after["VmHWM"] - before["VmRSS"]) / MB,
            "model_mb": sum(p.data.nbytes for p in params) / MB}


def child(root: Path, op: str, path: Path, args, traced: bool) -> dict:
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
    parser.add_argument("--vocab", type=int, default=20000)
    parser.add_argument("--d", type=int, default=300)
    parser.add_argument("--measure", choices=OPS, help=argparse.SUPPRESS)
    parser.add_argument("--checkpoint", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, args.checkpoint, args.vocab, args.d, args.traced)))
        return
    if args.against is None:
        parser.error("--against is required")
    trees = {"src": args.src.resolve(), "against": args.against.resolve()}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(REPEATS):
            order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
            for op in OPS:
                for side in order:
                    path = Path(tmp) / f"{side}.ckpt"
                    row = child(trees[side], op, path, args, traced=False)
                    row.update(child(trees[side], op, path, args, traced=True))
                    runs.append({"repeat": repeat, "side": side, "op": op, **row})
    model_mb = next(run["model_mb"] for run in runs if "model_mb" in run)
    summary = {op: {side: {key: statistics.median(run[key] for run in runs
                                                  if run["op"] == op and run["side"] == side)
                           for key in ("wall_ms", "rss_peak_mb", "traced_peak_mb")
                           if key in next(run for run in runs if run["op"] == op)}
                    for side in trees}
               for op in OPS}
    print(json.dumps({"vocab": args.vocab, "d": args.d, "model_mb": model_mb,
                      "trees": {side: str(root) for side, root in trees.items()},
                      "summary": summary, "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
