"""Time the README walkthrough stage by stage, each stage in a fresh process.

This is the record set beside the ROADMAP Baseline: the full walkthrough
config (8 extractive, 40 compression and 3 latent epochs, d=16) on the
bundled toy corpus, every CLI stage started as its own ``python -m
latentsum.cli`` process, the whole walkthrough repeated REPEATS times.
It prints one JSON object with each stage's median and every sample.

    python3 perfbench/walkthrough.py > perfbench/results/walkthrough.json

Run it from the root of a checkout. Tier-1 and the C6 gate are not timed.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import BLAS_THREAD_VARS, machine_block, pin_blas_threads, read_loadavg

REPEATS = 3
CONFIG = {"seed": 13, "d": 16, "extractive_epochs": 8, "compression_epochs": 40,
          "latent_epochs": 3, "batch_size": 8, "min_count": 1, "latent_lr": 0.005}
ROADMAP_BASELINE_S = {"make-labels": 0.43, "train-extractive": 10.6,
                      "train-compression": 30.9, "train-latent": 5.5,
                      "summarize": 0.49, "summarize --compress": 0.57}


def stages(work: Path) -> list[tuple[str, list[str]]]:
    d, o = str(work / "toy"), work / "out"
    return [
        ("make-toy", ["make-toy", "--out", d]),
        ("make-labels", ["make-labels", "--corpus", d, "--out", f"{o}/labels.jsonl"]),
        ("make-pairs", ["make-pairs", "--corpus", d, "--out", f"{o}/pairs.jsonl"]),
        ("make-pairs valid", ["make-pairs", "--corpus", d, "--split", "valid",
                              "--out", f"{o}/val_pairs.jsonl"]),
        ("train-extractive", ["train-extractive", "--corpus", d, "--labels", f"{o}/labels.jsonl",
                              "--vocab", f"{o}/vocab.json", "--checkpoint", f"{o}/extractive.ckpt",
                              "--metrics", f"{o}/ext_metrics.json"]),
        ("train-compression", ["train-compression", "--pairs", f"{o}/pairs.jsonl",
                               "--val-pairs", f"{o}/val_pairs.jsonl", "--vocab", f"{o}/vocab.json",
                               "--checkpoint", f"{o}/compression.ckpt",
                               "--metrics", f"{o}/comp_metrics.json"]),
        ("train-latent", ["train-latent", "--corpus", d, "--checkpoint", f"{o}/extractive.ckpt",
                          "--compression", f"{o}/compression.ckpt", "--vocab", f"{o}/vocab.json",
                          "--out", f"{o}/latent.ckpt", "--trace", f"{o}/reward_trace.jsonl",
                          "--metrics", f"{o}/latent_metrics.json"]),
        ("summarize", ["summarize", "--corpus", d, "--split", "test",
                       "--checkpoint", f"{o}/latent.ckpt", "--vocab", f"{o}/vocab.json",
                       "--out", f"{o}/latent.sum.jsonl"]),
        ("summarize --compress", ["summarize", "--corpus", d, "--split", "test",
                                  "--checkpoint", f"{o}/latent.ckpt", "--vocab", f"{o}/vocab.json",
                                  "--out", f"{o}/latent.c.sum.jsonl", "--compress",
                                  "--compression", f"{o}/compression.ckpt"]),
    ]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "latentsum" / "cli.py").is_file():
        print(f"no latentsum sources under {root / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    loadavg = read_loadavg()
    work = root / ".perfbench_work" / "walkthrough"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    samples: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps(CONFIG), encoding="utf-8")
        for name, argv in stages(work):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "latentsum.cli", "--config", str(config)]
                                  + argv, env=env, cwd=root, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"stage {name} exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
                return 1
            samples.setdefault(name, []).append(elapsed)
    evaluation = subprocess.run(
        [sys.executable, "-m", "latentsum.cli", "evaluate", "--corpus", str(work / "toy"),
         "--generated", f"latent={work / 'out' / 'latent.sum.jsonl'}"],
        env=env, cwd=root, capture_output=True, text=True, check=True)
    record = {
        "machine": machine_block(loadavg),
        "config": CONFIG,
        "repeats": REPEATS,
        "stage_median_s": {k: statistics.median(v) for k, v in samples.items()},
        "stage_samples_s": samples,
        "roadmap_baseline_s": ROADMAP_BASELINE_S,
        "latent_rouge_table": evaluation.stdout.splitlines(),
    }
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
