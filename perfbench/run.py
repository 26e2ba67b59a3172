"""latentsum benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in this process with BLAS pinned to one thread: set-up
several times, then rounds of fixed work for about ``--seconds``. ``--trace
0`` prints the end-to-end and stage metrics, with times in reference
seconds (see ``speed.py``); ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics instead.
``--workload all`` runs every workload in its own process, one after the
other. The last line of standard output is the result as one JSON object;
the line before it holds the details (machine, digests, failed checks).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from machine import import_latentsum, machine_block, pin_blas_threads, read_loadavg
from schema import END_TO_END, PER_LAYER, PRINTED_ONLY, WORKLOADS, tail, units

WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the rounds run, set-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(metrics: dict[str, float], unit_of: dict[str, str]) -> str:
    width = max(len(k) for k in metrics)
    return "\n".join(f"  {k:<{width}}  {v:>14.6g} {unit_of[k]}" for k, v in metrics.items())


def run_one(args, root: Path) -> int:
    pin_blas_threads()
    loadavg = read_loadavg()
    try:
        ls = import_latentsum(root)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer(ls)
    workload, ledger, setups, times = workloads.run_workload(
        ls, args.workload, work, args.seed, args.seconds, bool(args.trace), tracer)

    unit_of = units()
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_block(loadavg),
        "setup_ref_s": [i.ref_s for i in setups],
        "setup_wall_s": [i.wall_s for i in setups],
        "round_wall_s": times,
        "stage_ref_s": workload.stage_s,
        "stage_wall_s": {stage: statistics.median(i.wall_s for i in instances)
                         for stage, instances in workload.samples.stages.items()},
        "speed_factor": statistics.median(i.factor for instances in workload.samples.stages.values()
                                          for i in instances),
        "tail": {"percentile": tail(workload.doc_ms())[1],
                 "documents": len(workload.samples.doc_ms)},
        "digests": workload.round_digests,
        "failures": ledger.failures[:20],
    }
    if args.trace:
        counts = tracer.round_counts()
        ledger.check("per-layer counts repeat in every traced round",
                     all(c == counts[0] for c in counts), str(counts))
        overhead = (statistics.fmean(times["traced"]) / statistics.fmean(times["untraced"])
                    - 1.0) * 100.0
        metrics = tracer.metrics(overhead)
        details["exact_counts"] = counts
        tracer.write(work / "spans.jsonl")
        details["spans_file"] = str((work / "spans.jsonl").relative_to(root))
        names = [name for name, _, _ in PER_LAYER]
    else:
        metrics = {"setup_s": statistics.median(i.ref_s for i in setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "failed_share": ledger.failed / ledger.attempted}
        metrics.update(workload.common_metrics())
        metrics.update(workload.stage_metrics())
        printed = {name: metrics[name] for name, _, _ in PRINTED_ONLY if name in metrics}
        details["printed_only"] = {k: {"value": v, "unit": unit_of[k]} for k, v in printed.items()}
        print("not gated:\n" + _table(printed, unit_of))
        names = [name for name, _, _ in END_TO_END]
    metrics = {name: metrics[name] for name in names}
    print(("per layer:\n" if args.trace else "gated:\n") + _table(metrics, unit_of))
    details["failures"] = ledger.failures[:20]
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"details": details, "result": result},
                                                 indent=2) + "\n", encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, root: Path) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
