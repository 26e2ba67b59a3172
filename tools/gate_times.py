"""Time of the acceptance gates and of Tier-1, one tree against another.

    python3 tools/gate_times.py --src . --against <tree> --pairs 5 > gates.json

``--src`` and ``--against`` are roots of two checkouts. Each pair runs, in
each tree, gate C6 alone and then the whole Tier-1 command
(``python -m pytest -q --continue-on-collection-errors``), both with
``--durations=0`` and OpenBLAS pinned to one thread. Pairs alternate which
tree runs first: even pairs start with ``--src``, odd ones with
``--against``. A gate's time is its call phase in pytest's durations table
(``c6_alone`` from the lone run, every ``tests/test_acceptance.py`` test
from the Tier-1 run), and ``tier1`` is the time on pytest's closing line.

The host's speed drifts, so each time is also given in reference seconds,
as perfbench gives a stage's: ``perfbench/speed.py``'s probe, imported
from this checkout and left as it is, runs in one sampling thread of this
process while each pytest run goes on, once when the run starts and then
every ``PROBE_EVERY_S``, and the run's wall seconds are scaled by
``PROBE_REF_S / mean probe time``. The thread waits between probes, and
this process only waits on pytest, so the probes track the host during
the run, as perfbench's timer does during a stage.

Prints one JSON object: every run, and per name, in reference seconds
(``ref_s``) beside wall seconds (``wall_s``), each side's quartiles, the
median gap (src minus against) and its share of the against median, the
pairs in which src was lower, and the against side's IQR, which a gap must
exceed to stand out from the host's drift. The exit status is 1 if any
run did not pass.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path

sys.dont_write_bytecode = True  # perfbench/ is read, never written
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from speed import PROBE_REF_S, Probe  # noqa: E402

PROBE_EVERY_S = 0.25
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=0"]
C6 = "tests/test_acceptance.py::test_c6_latent_refinement_does_not_degrade"
GATES = "tests/test_acceptance.py::"
DURATION = re.compile(r"^([\d.]+)s call\s+(\S+)$", re.MULTILINE)
CLOSING = re.compile(r"^=*\s*(.*?) in ([\d.]+)s", re.MULTILINE)


def probed(run, probe: Probe):
    """``run()``'s result and the probe times that one thread of this
    process sampled while it ran: at its start, then every PROBE_EVERY_S."""
    probes, finished = [], threading.Event()

    def sample():
        probes.append(probe())
        while not finished.wait(PROBE_EVERY_S):
            probes.append(probe())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        return run(), probes
    finally:
        finished.set()
        thread.join()


def pytest_run(root: Path, extra: list[str], probe: Probe) -> dict:
    """One pytest run in ``root``: its exit status, the counts on its
    closing line, its wall seconds, each test's call seconds, and the
    factor that makes them reference seconds."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done, probes = probed(lambda: subprocess.run(
        [sys.executable] + TIER1 + extra, cwd=root, env=env, capture_output=True, text=True,
        check=False), probe)
    closing = CLOSING.findall(done.stdout)
    counts, seconds = closing[-1] if closing else ("", "nan")
    return {"exit": done.returncode, "counts": counts, "seconds": float(seconds),
            "calls": {test: float(s) for s, test in DURATION.findall(done.stdout)},
            "probes": len(probes), "factor": PROBE_REF_S / statistics.fmean(probes)}


def tree_times(root: Path, probe: Probe) -> dict:
    """C6 alone, then Tier-1, in ``root``: wall and reference seconds."""
    alone = pytest_run(root, [C6], probe)
    tier1 = pytest_run(root, [], probe)
    runs = {"c6_alone": (alone, alone["calls"].get(C6, float("nan"))),
            "tier1": (tier1, tier1["seconds"])}
    runs.update({test[len(GATES):]: (tier1, s) for test, s in tier1["calls"].items()
                 if test.startswith(GATES)})
    return {"exit": max(alone["exit"], tier1["exit"]), "tier1_counts": tier1["counts"],
            "factors": {"c6_alone": alone["factor"], "tier1": tier1["factor"]},
            "times": {name: s for name, (_, s) in runs.items()},
            "ref_times": {name: s * run["factor"] for name, (run, s) in runs.items()}}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def compare(src: list[float], against: list[float], pairs: int) -> dict:
    s, a = quartiles(src), quartiles(against)
    return {
        "src_q1_median_q3": s,
        "against_q1_median_q3": a,
        "median_gap": s[1] - a[1],
        "median_change_pct": (s[1] / a[1] - 1.0) * 100.0,
        "pairs_src_lower": f"{sum(x < y for x, y in zip(src, against))}/{pairs}",
        "against_iqr": a[2] - a[0],
    }


def summary(runs: list[dict], pairs: int) -> dict:
    """Per name, the two sides compared in reference and in wall seconds."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in ("src", "against")}
    names = sorted(set.intersection(*(set(r["times"]) for r in runs)))
    return {name: {unit: compare([r[key][name] for r in by_side["src"]],
                                 [r[key][name] for r in by_side["against"]], pairs)
                   for unit, key in (("ref_s", "ref_times"), ("wall_s", "times"))}
            for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path("."))
    parser.add_argument("--against", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"src": args.src.resolve(), "against": args.against.resolve()}
    probe = Probe()
    runs = []
    for pair in range(args.pairs):
        order = ("src", "against") if pair % 2 == 0 else ("against", "src")
        for side in order:
            runs.append(dict(pair=pair, side=side, first=side == order[0],
                             **tree_times(roots[side], probe)))
            print(f"pair {pair} {side}: tier1 {runs[-1]['times'].get('tier1')} s, "
                  f"{runs[-1]['ref_times'].get('tier1'):.2f} ref s "
                  f"({runs[-1]['tier1_counts']})", file=sys.stderr, flush=True)
    result = {
        "command": "python3 tools/gate_times.py --src <change> --against <parent> "
                   f"--pairs {args.pairs}",
        "tier1": " ".join(["python"] + TIER1),
        "order": "even pairs run --src first, odd pairs --against first; in each tree, "
                 "C6 alone and then Tier-1",
        "summary": summary(runs, args.pairs),
        "runs": runs,
    }
    print(json.dumps(result, indent=1))
    sys.exit(1 if any(r["exit"] != 0 for r in runs) else 0)


if __name__ == "__main__":
    main()
