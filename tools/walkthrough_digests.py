"""The sha256 of every file that the README walkthrough, plus one
``summarize --compress``, writes on seeds 13-15, as one JSON line.

    python3 tools/walkthrough_digests.py [--src .] [--against <tree>]

``--src`` is the root of a checkout: its ``src/`` runs the program and its
README's walkthrough gives the config (as ``tests/test_cli.py`` reads it)
and the commands. Two trees whose lines are equal wrote byte-identical
files. Each seed runs in its own temporary directory, with OpenBLAS
pinned to one thread, and ``evaluate``'s table is kept as
``evaluate.txt``. The keys are ``<seed>/<path>``.

With ``--against``, the root of a second checkout, both trees run; the
keys whose digests differ (or that only one tree wrote) are printed one a
line, and the exit status is 1 if there is any.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (13, 14, 15)
COMPRESS = ("latentsum --config config.json summarize --corpus data/toy --split test "
            "--checkpoint out/extractive.ckpt --vocab out/vocab.json --compress "
            "--compression out/compression.ckpt --out out/compress.sum.jsonl")


def walkthrough(readme: str) -> tuple[dict, list[str]]:
    """The README walkthrough's config and its ``latentsum`` command lines."""
    block = readme.split("cat > config.json <<'EOF'\n", 1)[1]
    config, block = block.split("\nEOF", 1)
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return json.loads(config), [line.strip() for line in block.splitlines()
                                if line.strip().startswith("latentsum ")]


def digests(src: Path, seed: int) -> dict:
    config, commands = walkthrough((src / "README.md").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(src / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "config.json").write_text(json.dumps(dict(config, seed=seed)))
        for line in commands + [COMPRESS]:
            args = [sys.executable, "-m", "latentsum.cli"] + shlex.split(line)[1:]
            done = subprocess.run(args, cwd=work, env=env, capture_output=True, check=False)
            if done.returncode != 0:
                raise SystemExit(f"seed {seed}: `{line}` exited {done.returncode}:\n"
                                 f"{done.stderr.decode(errors='replace')}")
            if "evaluate" in args[3:]:
                (work / "evaluate.txt").write_bytes(done.stdout)
        return {f"{seed}/{path.relative_to(work).as_posix()}":
                hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(work.rglob("*")) if path.is_file()}


def all_digests(src: Path) -> dict:
    return {key: value for seed in SEEDS for key, value in digests(src.resolve(), seed).items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path("."))
    parser.add_argument("--against", type=Path,
                        help="a second checkout to run and compare digests with")
    args = parser.parse_args()
    ours = all_digests(args.src)
    if args.against is None:
        print(json.dumps(ours, sort_keys=True))
        return
    theirs = all_digests(args.against)
    keys = ours.keys() | theirs.keys()
    differ = sorted(key for key in keys if ours.get(key) != theirs.get(key))
    for key in differ:
        print(key)
    print(f"{len(differ)} of {len(keys)} digests differ", file=sys.stderr)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
