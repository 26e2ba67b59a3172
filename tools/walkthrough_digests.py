"""The sha256 of every file that the README walkthrough, plus one
``summarize --compress``, writes on seeds 13-15, as one JSON line.

    python3 tools/walkthrough_digests.py [--src .]

``--src`` is the root of a checkout: its ``src/`` runs the program and its
README's walkthrough gives the config (as ``tests/test_cli.py`` reads it)
and the commands. Two trees whose lines are equal wrote byte-identical
files. Each seed runs in its own temporary directory, with OpenBLAS
pinned to one thread, and ``evaluate``'s table is kept as
``evaluate.txt``. The keys are ``<seed>/<path>``.
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path("."))
    args = parser.parse_args()
    src = args.src.resolve()
    print(json.dumps({key: value for seed in SEEDS for key, value in
                      digests(src, seed).items()}, sort_keys=True))


if __name__ == "__main__":
    main()
