"""The three workloads: set-up, one round of fixed work, and output checks.

Each workload is a closed loop of one caller in one process: a round runs
the workload's pipeline stages one after another through
``latentsum.cli.main`` (or, for ``summarize --compress``, the module
functions it calls, so each document can be timed), and the next round
starts when the previous one ends. Rounds repeat identical work, so their
outputs must be byte-identical. Every stage instance is timed in
reference seconds (see ``speed``), and a stage's time is the median of
its instances.

Why each workload exists:

- train_toy: the README walkthrough up to the two supervised trainings.
  The tape's backward pass and the LSTM dominate it, so changes to the
  tape or the LSTM show here.
- latent_toy: REINFORCE at four samples per document. Only here does the
  frozen scorer's reward (``s_score`` per sentence pair) do real work, so
  a reward matrix shows here and a backward change moves it less.
- infer_wide: inference only, on long documents with uneven sentences and
  a 2k-word vocabulary at d=64. No backward pass runs, so backward-only
  changes must not move it, and padding added by a batched encoder
  costs here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
from schema import percentile, tail
from speed import Interval, SpeedClock

SETUP_REPEATS = 5
MIN_ROUNDS = 3  # so every stage's median is over at least three instances
HARD_STOP_S = 120.0  # stop starting rounds after this, however few samples
TOP_K = 3  # summarize's default --k


class Ledger:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def read_jsonl(path: Path) -> list:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


class Samples:
    """Timings and work counts of the rounds of one run."""

    def __init__(self):
        self.stages: dict[str, list[Interval]] = defaultdict(list)  # stage -> its instances
        self.round_s: list[float] = []  # wall seconds
        # per document, in reference time: `summarize --compress` latency
        # and decode time of each pass
        self.doc_ms: dict[str, list[float]] = defaultdict(list)
        self.decode_s: dict[str, list[float]] = defaultdict(list)
        self.sentences: dict[str, int] = {}  # compressed sentences per document


class Workload:
    name = ""
    config: dict = {}
    corpus_dir = "toy"
    split = "all"  # the split summarized and scored
    passes = 1  # summarize passes per round
    summarizer = "extractive.ckpt"  # the checkpoint that writes the summaries
    setup_repeats = SETUP_REPEATS

    def __init__(self, ls, root: Path, seed: int, ledger: Ledger, tracer, clock: SpeedClock):
        self.ls = ls
        self.root = root
        self.seed = seed
        self.ledger = ledger
        self.tracer = tracer
        self.clock = clock
        self.work = root
        self.samples = Samples()
        self.stage_s: dict[str, float] = {}  # stage -> median reference seconds per instance
        self.round_digests: dict[str, str] | None = None
        self.doc_ids: list[str] = []  # of the summarized split

    def path(self, name: str) -> str:
        return str(self.work / name)

    @property
    def corpus(self) -> str:
        return self.path(self.corpus_dir)

    # -- stages ---------------------------------------------------------------

    def run_cli(self, stage: str, argv: list[str]) -> None:
        """One CLI stage in-process, timed as one instance of ``stage``."""
        out, err = io.StringIO(), io.StringIO()
        code = None
        with self.clock.timed(self.samples.stages[stage]), self.tracer.span(f"stage.{stage}"):
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.ls.cli.main(["--config", self.path("config.json")] + argv)
            except Exception:  # a crashing stage is a failed operation, not a crashed run
                err.write(traceback.format_exc())
        self.ledger.check(f"stage {stage} exits 0", code == 0, err.getvalue().strip()[-600:])

    def compress_summaries(self, checkpoint: str, out: str) -> list[dict]:
        """``summarize --compress`` as ``cli._summary_rows`` does it, timing
        each document. Returns the pre-compression selections."""
        ls = self.ls
        selections: list[dict] = []
        samples, now = self.samples, self.clock.now
        doc_s: dict[str, tuple[float, float]] = {}  # id -> (latency, decode) wall seconds
        with (self.clock.timed(samples.stages["summarize-compress"]) as interval,
              self.tracer.span("stage.summarize-compress")):
            try:
                config = ls.config.load_config(self.path("config.json"))
                vocab = ls.corpus.load_vocab(self.path("vocab.json"))
                records = ls.corpus.encode_records(ls.corpus.load_corpus(self.corpus, self.split),
                                                   vocab)
                model = ls.extractive.load_extractive(checkpoint, vocab)
                compressor = ls.compression.load_compression(self.path("compression.ckpt"), vocab)
                rows = []
                for doc, _ in records:
                    t0 = now()
                    top = model.select_top_k(doc, TOP_K)
                    t1 = now()
                    sentences = [ls.compression.decode_greedy(compressor, vocab, s,
                                                              config.max_decode_len)
                                 for s in top.sentences]
                    t2 = now()
                    doc_s[doc.id] = (t2 - t0, t2 - t1)
                    samples.sentences[doc.id] = len(sentences)
                    self.ledger.check(f"document {doc.id} compressed",
                                      bool(sentences) and all(len(s) for s in sentences))
                    selections.append({"id": doc.id, "summary": [s.text() for s in top.sentences]})
                    rows.append({"id": doc.id, "summary": [s.text() for s in sentences]})
                ls.numerics.atomic_write_text(
                    out, "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
                ok, detail = True, ""
            except Exception:
                ok, detail = False, traceback.format_exc()[-600:]
        for doc_id, (latency, decode) in doc_s.items():
            samples.doc_ms[doc_id].append(latency * interval.factor * 1e3)
            samples.decode_s[doc_id].append(decode * interval.factor)
        self.ledger.check("stage summarize-compress completes", ok, detail)
        return selections

    def summarize(self) -> None:
        """``summarize`` then ``summarize --compress`` over the split, ``passes`` times."""
        checkpoint = self.path(self.summarizer)
        extract = self.work / "extract.sum.jsonl"
        compress = self.work / "compress.sum.jsonl"
        for _ in range(self.passes):
            self.run_cli("summarize", ["summarize", "--corpus", self.corpus, "--split", self.split,
                                       "--checkpoint", checkpoint, "--vocab", self.path("vocab.json"),
                                       "--out", str(extract)])
            selections = self.compress_summaries(checkpoint, str(compress))
            extract_rows = self.check_summaries("summarize", extract)
            self.check_summaries("summarize --compress", compress)
            self.ledger.check("compress path selects what summarize selects",
                              selections == extract_rows)

    # -- checks -----------------------------------------------------------------

    def check_summaries(self, what: str, path: Path) -> list:
        try:
            rows = read_jsonl(path)
        except (OSError, ValueError) as exc:
            self.ledger.check(f"{what} summaries readable", False, str(exc))
            return []
        ids = [row.get("id") for row in rows]
        self.ledger.check(f"{what} summaries cover every {self.split} id once",
                          sorted(ids) == sorted(self.doc_ids) and len(set(ids)) == len(ids))
        self.ledger.check(f"{what} summaries are non-empty",
                          all(isinstance(r.get("summary"), list) and r["summary"]
                              and all(isinstance(s, str) and s.strip() for s in r["summary"])
                              for r in rows))
        return rows

    def check_finite_metrics(self, what: str, path: Path) -> None:
        try:
            rows = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.ledger.check(f"{what} readable", False, str(exc))
            return
        bad = [row for row in rows if not all(_finite(v) for v in row.values())]
        self.ledger.check(f"{what} losses finite", bool(rows) and not bad, str(bad[:2]))

    def check_round(self, files: list[str]) -> None:
        digests = {name: digest(self.work / name) for name in files}
        if self.round_digests is None:
            self.round_digests = digests
        changed = sorted(k for k in digests if digests[k] != self.round_digests[k])
        self.ledger.check("round outputs byte-identical to round 1", not changed, str(changed))

    def r1_f1(self, split: str | None = None) -> float:
        """Macro-averaged ROUGE-1 F1 of the extract summaries, as ``evaluate``
        computes it, over the documents of ``split`` (default: all summarized)."""
        ls = self.ls
        gold = {doc.id: list(summary.sentences)
                for doc, summary in ls.corpus.load_corpus(self.corpus, split or self.split)}
        generated = {row["id"]: [ls.corpus.tokenize(s) for s in row["summary"]]
                     for row in read_jsonl(self.work / "extract.sum.jsonl")}
        return sum(ls.rouge.rouge_n(generated[i], gold[i], 1).f1 for i in gold) / len(gold)

    def check_cli_compress(self) -> None:
        """The CLI's own ``summarize --compress`` writes what the timed path wrote."""
        out = self.work / "compress.cli.sum.jsonl"
        self.run_cli("summarize-compress-cli",
                     ["summarize", "--corpus", self.corpus, "--split", self.split,
                      "--checkpoint", self.path(self.summarizer),
                      "--vocab", self.path("vocab.json"),
                      "--out", str(out), "--compress",
                      "--compression", self.path("compression.ckpt")])
        self.ledger.check("timed compress path matches the CLI byte for byte",
                          digest(out) == digest(self.work / "compress.sum.jsonl"))

    # -- lifecycle --------------------------------------------------------------

    def setup(self, repeat: int) -> dict[str, str]:
        """Build the inputs in a fresh directory; returns their digests."""
        self.work = self.root / f"setup-{repeat}"
        self.work.mkdir(parents=True)
        inputs.write_json(self.work / "config.json", dict(self.config, seed=self.seed))
        files = self.build_inputs()
        self.doc_ids = [row["id"] for row in read_jsonl(Path(self.corpus) / f"{self.split}.jsonl")]
        return {name: digest(self.work / name) for name in files}

    def build_inputs(self) -> list[str]:
        raise NotImplementedError

    def run_round(self) -> list[str]:
        """One round of fixed work; returns the output files to compare."""
        raise NotImplementedError

    def stage_metrics(self) -> dict[str, float]:
        raise NotImplementedError

    def take_stage_times(self) -> None:
        """Each stage's median instance, in reference seconds."""
        for stage, instances in self.samples.stages.items():
            self.stage_s[stage] = statistics.median(i.ref_s for i in instances)

    def doc_ms(self) -> list[float]:
        """Each document's median `summarize --compress` latency over the run."""
        return [statistics.median(v) for v in self.samples.doc_ms.values()]

    def round_ref_s(self) -> float:
        """A round's stages, each at its median, as many times as a round runs it."""
        rounds = len(self.samples.round_s)
        return sum(self.stage_s[stage] * len(instances) / rounds
                   for stage, instances in self.samples.stages.items())

    def common_metrics(self) -> dict[str, float]:
        """The end-to-end figures every workload measures, in reference time."""
        s = self.samples
        docs = self.doc_ms()
        decode_s = sum(statistics.median(v) for v in s.decode_s.values())
        return {
            "run_s": self.round_ref_s(),
            "summarize_docs_per_s": len(self.doc_ids) / self.stage_s["summarize"],
            "compress_sentences_per_s": sum(s.sentences.values()) / decode_s,
            "summarize_doc_ms_p50": percentile(docs, 50),
            "summarize_doc_ms_tail": tail(docs)[0],
            "summary_r1_f1": self.r1_f1(),
        }

    def enough(self) -> bool:
        return len(self.samples.round_s) >= MIN_ROUNDS


def _train_docs(work: Path) -> int:
    return len(read_jsonl(work / "toy" / "train.jsonl"))


class TrainToy(Workload):
    name = "train_toy"
    config = inputs.TRAIN_TOY_CONFIG
    passes = 2

    def build_inputs(self):
        self.run_cli("make-toy", ["make-toy", "--out", self.corpus])
        inputs.write_all_split(Path(self.corpus))
        return ["config.json", "toy/train.jsonl", "toy/valid.jsonl", "toy/test.jsonl",
                "toy/all.jsonl"]

    def run_round(self):
        c, p = self.corpus, self.path
        self.run_cli("make-labels", ["make-labels", "--corpus", c, "--out", p("labels.jsonl")])
        self.run_cli("make-pairs", ["make-pairs", "--corpus", c, "--out", p("pairs.jsonl")])
        self.run_cli("make-pairs-valid", ["make-pairs", "--corpus", c, "--split", "valid",
                                          "--out", p("val_pairs.jsonl")])
        self.run_cli("train-extractive", ["train-extractive", "--corpus", c,
                                          "--labels", p("labels.jsonl"), "--vocab", p("vocab.json"),
                                          "--checkpoint", p("extractive.ckpt"),
                                          "--metrics", p("ext_metrics.json")])
        self.run_cli("train-compression", ["train-compression", "--pairs", p("pairs.jsonl"),
                                           "--val-pairs", p("val_pairs.jsonl"),
                                           "--vocab", p("vocab.json"),
                                           "--checkpoint", p("compression.ckpt"),
                                           "--metrics", p("comp_metrics.json")])
        self.check_finite_metrics("train-extractive metrics", self.work / "ext_metrics.json")
        self.check_finite_metrics("train-compression metrics", self.work / "comp_metrics.json")
        self.summarize()
        return ["labels.jsonl", "pairs.jsonl", "val_pairs.jsonl", "vocab.json", "extractive.ckpt",
                "compression.ckpt", "ext_metrics.json", "comp_metrics.json",
                "extract.sum.jsonl", "compress.sum.jsonl"]

    def stage_metrics(self):
        f = self.stage_s
        docs = _train_docs(self.work)
        tokens = sum(len(row["target"]) + 1 for row in read_jsonl(self.work / "pairs.jsonl"))
        return {
            "labels_docs_per_s": docs / (f["make-labels"] + f["make-pairs"]),
            "extractive_train_docs_per_s":
                docs * self.config["extractive_epochs"] / f["train-extractive"],
            "compression_train_tokens_per_s":
                tokens * self.config["compression_epochs"] / f["train-compression"],
            "extract_r1_f1": self.r1_f1("test"),
        }


class LatentToy(Workload):
    name = "latent_toy"
    config = inputs.LATENT_TOY_CONFIG
    passes = 2
    summarizer = "latent.ckpt"
    setup_repeats = 3  # each set-up trains two checkpoints

    def build_inputs(self):
        c, p = self.corpus, self.path
        self.run_cli("make-toy", ["make-toy", "--out", c])
        inputs.write_all_split(Path(c))
        self.run_cli("make-labels", ["make-labels", "--corpus", c, "--out", p("labels.jsonl")])
        self.run_cli("make-pairs", ["make-pairs", "--corpus", c, "--out", p("pairs.jsonl")])
        self.run_cli("make-pairs-valid", ["make-pairs", "--corpus", c, "--split", "valid",
                                          "--out", p("val_pairs.jsonl")])
        self.run_cli("train-extractive", ["train-extractive", "--corpus", c,
                                          "--labels", p("labels.jsonl"), "--vocab", p("vocab.json"),
                                          "--checkpoint", p("extractive.ckpt"),
                                          "--metrics", p("ext_metrics.json")])
        self.run_cli("train-compression", ["train-compression", "--pairs", p("pairs.jsonl"),
                                           "--val-pairs", p("val_pairs.jsonl"),
                                           "--vocab", p("vocab.json"),
                                           "--checkpoint", p("compression.ckpt"),
                                           "--metrics", p("comp_metrics.json")])
        return ["config.json", "toy/train.jsonl", "toy/all.jsonl", "vocab.json",
                "extractive.ckpt", "compression.ckpt"]

    def run_round(self):
        p = self.path
        self.run_cli("train-latent", ["train-latent", "--corpus", self.corpus,
                                      "--checkpoint", p("extractive.ckpt"),
                                      "--compression", p("compression.ckpt"),
                                      "--vocab", p("vocab.json"), "--out", p("latent.ckpt"),
                                      "--trace", p("reward_trace.jsonl"),
                                      "--metrics", p("latent_metrics.json")])
        self.check_finite_metrics("train-latent metrics", self.work / "latent_metrics.json")
        self.check_rewards()
        self.summarize()
        return ["latent.ckpt", "reward_trace.jsonl", "latent_metrics.json",
                "extract.sum.jsonl", "compress.sum.jsonl"]

    def check_rewards(self):
        try:
            rows = read_jsonl(self.work / "reward_trace.jsonl")
        except (OSError, ValueError) as exc:
            self.ledger.check("reward trace readable", False, str(exc))
            return
        expected = _train_docs(self.work) * self.config["latent_epochs"]
        self.ledger.check("one reward row per document step", len(rows) == expected,
                          f"{len(rows)} rows, expected {expected}")
        out_of_range = [row for row in rows
                        if not all(_finite(row.get(k)) and 0.0 <= row[k] <= 1.0
                                   for k in ("r", "r_p", "r_r"))]
        self.ledger.check("every reward lies in [0, 1]", not out_of_range, str(out_of_range[:2]))
        self.ledger.check("baseline losses finite",
                          all(_finite(row.get("baseline_mse")) for row in rows))

    def stage_metrics(self):
        samples = (_train_docs(self.work) * self.config["num_samples"]
                   * self.config["latent_epochs"])
        return {
            "latent_samples_per_s": samples / self.stage_s["train-latent"],
            "latent_r1_f1": self.r1_f1("test"),
        }


class InferWide(Workload):
    name = "infer_wide"
    config = inputs.WIDE_CONFIG
    corpus_dir = "wide"
    split = "test"

    def build_inputs(self):
        """Seed d=64 models, save them, and load them back bit-exactly."""
        ls = self.ls
        inputs.write_wide_corpus(Path(self.corpus), self.seed)
        config = ls.config.load_config(self.path("config.json"))
        vocab = ls.corpus.build_vocab(ls.corpus.load_corpus(self.corpus, self.split),
                                      min_count=config.min_count)
        ls.numerics.atomic_write_text(self.path("vocab.json"), vocab.to_json() + "\n")
        rng = np.random.default_rng(self.seed)
        models = {
            "extractive.ckpt": (ls.extractive.ExtractiveModel(len(vocab), config.d, rng),
                                ls.extractive.save_extractive, ls.extractive.load_extractive),
            "compression.ckpt": (ls.compression.CompressionModel(len(vocab), config.d, rng),
                                 ls.compression.save_compression,
                                 ls.compression.load_compression),
        }
        for name, (model, save, load) in models.items():
            save(self.path(name), model, config.to_dict(), vocab)
            loaded = load(self.path(name), vocab)
            same = all(a.name == b.name and a.data.dtype == b.data.dtype
                       and a.data.tobytes() == b.data.tobytes()
                       for a, b in zip(model.parameters(), loaded.parameters()))
            self.ledger.check(f"{name} loads back bit-exactly", same)
        return ["config.json", "wide/test.jsonl", "vocab.json", "extractive.ckpt",
                "compression.ckpt"]

    def run_round(self):
        c, p = self.corpus, self.path
        self.run_cli("make-labels", ["make-labels", "--corpus", c, "--split", self.split,
                                     "--out", p("labels.jsonl")])
        self.run_cli("make-pairs", ["make-pairs", "--corpus", c, "--split", self.split,
                                    "--out", p("pairs.jsonl")])
        self.summarize()
        self.run_cli("evaluate", ["evaluate", "--corpus", c, "--split", self.split,
                                  "--generated", f"extract={p('extract.sum.jsonl')}",
                                  "--generated", f"compress={p('compress.sum.jsonl')}",
                                  "--out", p("rouge.txt")])
        return ["labels.jsonl", "pairs.jsonl", "extract.sum.jsonl", "compress.sum.jsonl",
                "rouge.txt"]

    def stage_metrics(self):
        return {"labels_docs_per_s": len(self.doc_ids)
                / (self.stage_s["make-labels"] + self.stage_s["make-pairs"])}


WORKLOAD_CLASSES = {cls.name: cls for cls in (TrainToy, LatentToy, InferWide)}


def run_workload(ls, name: str, root: Path, seed: int, seconds: float, trace: bool, tracer):
    """Set up, then run rounds until they add up to about ``seconds``,
    setting up again after each of the first rounds, so the set-up samples
    fall at different times of the run. Set-up time is not part of
    ``seconds``.

    Untraced: the probe timer runs throughout, so every stage and set-up
    is timed in reference seconds. Traced: no timer; rounds alternate
    untraced and traced, so the tracing overhead is measured in the same
    run, and the second set-up is traced too. Returns (workload, ledger,
    set-up intervals, round wall seconds by kind).
    """
    ledger = Ledger()
    clock = SpeedClock()
    workload = WORKLOAD_CLASSES[name](ls, root, seed, ledger, tracer, clock)
    setups: list[Interval] = []
    setup_digests = []

    @contextlib.contextmanager
    def aside():
        """Work whose timings are not samples of the rounds."""
        rounds_so_far = workload.samples
        workload.samples = Samples()
        try:
            yield
        finally:
            workload.samples = rounds_so_far

    def set_up():
        repeat = len(setups)
        with aside(), clock.timed(setups):
            if trace and repeat == 1:
                with tracer.traced(f"{name}-{seed}-setup", counted=False):
                    setup_digests.append(workload.setup(repeat))
            else:
                setup_digests.append(workload.setup(repeat))
        workload.work = root / "setup-0"

    times = {"traced": [], "untraced": []}
    with contextlib.nullcontext() if trace else clock.running():
        set_up()
        start = time.perf_counter()
        while True:
            traced = trace and len(workload.samples.round_s) % 2 == 1
            t0 = time.perf_counter()
            if traced:
                with tracer.traced(f"{name}-{seed}-round{len(workload.samples.round_s)}"):
                    files = workload.run_round()
            else:
                files = workload.run_round()
            elapsed_round = time.perf_counter() - t0
            workload.samples.round_s.append(elapsed_round)
            times["traced" if traced else "untraced"].append(elapsed_round)
            workload.check_round(files)
            if len(setups) < workload.setup_repeats:
                set_up()
            measured = sum(workload.samples.round_s)
            rounds = len(workload.samples.round_s)
            if time.perf_counter() - start > HARD_STOP_S:
                print(f"stopping after {rounds} rounds at the {HARD_STOP_S:.0f} s cap",
                      file=sys.stderr)
                break
            if (workload.enough() and (not trace or times["traced"])
                    and measured + 0.5 * measured / rounds >= seconds):
                break
        while len(setups) < workload.setup_repeats:
            set_up()
    ledger.check("set-up repeats build identical inputs",
                 all(d == setup_digests[0] for d in setup_digests), str(setup_digests))
    with aside():
        workload.check_cli_compress()
    workload.take_stage_times()
    return workload, ledger, setups, times
