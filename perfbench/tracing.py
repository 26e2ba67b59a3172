"""Traced runs: spans and counts recorded around latentsum's public functions.

The tracer wraps each layer's public functions from outside while it is
installed and restores the originals afterwards, so untraced rounds run
the program untouched. A span is (name, start, end, parent, run id);
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from schema import LAYERS

_NOW = time.perf_counter


def count_tape_nodes(loss) -> int:
    """Nodes ``backward(loss)`` will visit: the same reachability rule."""
    if not loss.requires_grad:
        return 0
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad and id(p) not in seen)
    return len(seen)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, ls):
        self.ls = ls
        self.spans: list = []
        self.run_id = None
        self._stack: list[int] = []
        self._patches: list = []
        self._layer_of: dict[str, str] = {}
        self._counts: Counter = Counter()
        self._distinct: set = set()
        self._doc_id = None
        self.rounds: list[dict] = []  # per traced round: span-derived totals and counts
        # over every traced span, setup included: calls and seconds per name
        self.per_call: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.saved: Counter = Counter()  # checkpoints saved and their bytes

    # -- installation ---------------------------------------------------

    def _targets(self):
        ls = self.ls
        n = ls.numerics
        return (
            ("numerics.tensor", "tensor.backward", n.tensor, "backward", self._pre_backward, None),
            ("numerics.lstm", "lstm.step", n.lstm.LSTMCell, "step", None, None),
            ("numerics.lstm", "lstm.bilstm", n.lstm, "run_bilstm", None, None),
            ("numerics.optim", "optim.adam.step", n.optim.Adam, "step", None, None),
            ("numerics.optim", "optim.sgd.step", n.optim.SGD, "step", None, None),
            ("numerics.optim", "optim.clip", n.optim, "clip_global_norm", None, self._post_clip),
            ("numerics.checkpoint", "checkpoint.save", n.checkpoint, "save_checkpoint",
             None, self._post_save),
            ("numerics.checkpoint", "checkpoint.load", n.checkpoint, "load_checkpoint", None, None),
            ("corpus", "corpus.load", ls.corpus, "load_corpus", None, None),
            ("corpus", "corpus.encode", ls.corpus, "encode_records", None, None),
            ("extractive", "extractive.encode_document", ls.extractive.ExtractiveModel,
             "encode_document", None, None),
            ("extractive", "extractive.decode_labels", ls.extractive.ExtractiveModel,
             "decode_labels", None, None),
            ("extractive", "extractive.nll_loss", ls.extractive.ExtractiveModel, "nll_loss",
             None, None),
            ("extractive", "extractive.select_top_k", ls.extractive.ExtractiveModel,
             "select_top_k", None, None),
            ("compression", "compression.nll_loss", ls.compression.CompressionModel, "nll_loss",
             None, None),
            ("compression", "compression.perplexity", ls.compression, "perplexity", None, None),
            ("compression", "compression.s_score", ls.compression, "s_score",
             self._pre_s_score, None),
            ("compression", "compression.decode_greedy", ls.compression, "decode_greedy",
             None, self._post_decode),
            ("latent", "latent.reinforce_step", ls.latent, "reinforce_step",
             self._pre_reinforce, None),
            ("latent", "latent.reward", ls.latent, "reward", None, None),
            ("labeling", "labeling.oracle_labels", ls.labeling, "oracle_labels", None, None),
            ("labeling", "labeling.compression_pairs", ls.labeling, "compression_pairs",
             None, None),
            ("rouge", "rouge.rouge_n", ls.rouge, "rouge_n", None, None),
            ("rouge", "rouge.rouge_l", ls.rouge, "rouge_l", None, None),
            ("rouge", "rouge.rouge_mean", ls.rouge, "rouge_mean", None, None),
        )

    def _wrap(self, name, original, pre, post):
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            index = tracer._open()
            start = _NOW()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, name, start)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target, including names other modules imported."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "latentsum"]
        try:
            for layer, name, owner, attr, pre, post in self._targets():
                self._layer_of[name] = layer
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original, pre, post)
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(self._patches):
                setattr(holder, attr, original)
            self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start):
        end = _NOW()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name):
        """A span around one pipeline stage (charged to the "cli" layer)."""
        if self.run_id is None:
            yield
            return
        index = self._open()
        start = _NOW()
        try:
            yield
        finally:
            self._close(index, name, start)

    # -- hooks --------------------------------------------------------------

    def _pre_backward(self, args, kwargs):
        self._counts["backward.nodes"] += count_tape_nodes(_arg(args, kwargs, 0, "loss"))

    def _post_clip(self, args, kwargs, norm):
        self._counts["clip.calls"] += 1
        if norm > _arg(args, kwargs, 1, "max_norm"):
            self._counts["clip.applied"] += 1

    def _post_save(self, args, kwargs, _):
        self._counts["checkpoint.saves"] += 1
        self._counts["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _post_decode(self, args, kwargs, sentence):
        self._counts["decode.tokens"] += len(sentence.tokens)

    def _pre_reinforce(self, args, kwargs):
        self._doc_id = _arg(args, kwargs, 2, "doc").id

    def _pre_s_score(self, args, kwargs):
        self._distinct.add((self._doc_id, _arg(args, kwargs, 1, "source"),
                            _arg(args, kwargs, 2, "target")))

    # -- rounds -------------------------------------------------------------

    @contextmanager
    def traced(self, run_id: str, counted: bool = True):
        """Record spans under ``run_id``. A counted round also yields its
        per-round totals and counts; setup spans only feed per-call figures."""
        self.run_id = run_id
        start = len(self.spans)
        self._counts = Counter()
        self._distinct = set()
        try:
            with self.installed():
                yield
        finally:
            self.run_id = None
            spans = self.spans[start:]
            for name, t0, t1, _, _ in spans:
                entry = self.per_call[name]
                entry[0] += 1
                entry[1] += t1 - t0
            for key in ("checkpoint.saves", "checkpoint.bytes"):
                self.saved[key] += self._counts[key]
            if counted:
                self.rounds.append(self._round_summary(spans, start))

    def _round_summary(self, spans, offset) -> dict:
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= offset:
                child[parent - offset] += t1 - t0
        self_time = dict.fromkeys(LAYERS, 0.0)
        rouge_calls = 0
        rouge_s = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            self_time[self._layer_of.get(name, "cli")] += (t1 - t0) - child[i]
            if name.startswith("rouge.") and not (
                    parent >= offset and spans[parent - offset][0].startswith("rouge.")):
                rouge_calls += 1
                rouge_s += t1 - t0
        return {"calls": calls, "total": total, "self": self_time, "spans": len(spans),
                "counts": dict(self._counts), "distinct": len(self._distinct),
                "rouge_calls": rouge_calls, "rouge_s": rouge_s}

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        if not self.rounds:
            raise ValueError("no traced round to report")
        n = len(self.rounds)

        def per_round(fn):
            return sum(fn(r) for r in self.rounds) / n

        def calls(name):
            return per_round(lambda r: r["calls"][name])

        def total_ms(name):
            return per_round(lambda r: r["total"][name]) * 1e3

        def ms_per_call(name):
            count, seconds = self.per_call.get(name, (0, 0.0))
            return seconds * 1e3 / count if count else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        nodes = per_round(lambda r: r["counts"].get("backward.nodes", 0))
        backward_calls = calls("tensor.backward")
        s_calls = calls("compression.s_score")
        out = {
            "tensor.backward.calls": backward_calls,
            "tensor.backward.ms": total_ms("tensor.backward"),
            "tensor.backward.nodes_per_call": ratio(nodes, backward_calls),
            "tensor.backward.us_per_node": ratio(total_ms("tensor.backward") * 1e3, nodes),
            "lstm.step.calls": calls("lstm.step"),
            "lstm.step.us_per_call": ms_per_call("lstm.step") * 1e3,
            "lstm.bilstm.ms": total_ms("lstm.bilstm"),
            "optim.adam.step_ms": ms_per_call("optim.adam.step"),
            "optim.sgd.step_ms": ms_per_call("optim.sgd.step"),
            "optim.clip.ms": total_ms("optim.clip"),
            "optim.clip.applied_share": ratio(
                per_round(lambda r: r["counts"].get("clip.applied", 0)),
                per_round(lambda r: r["counts"].get("clip.calls", 0))),
            "checkpoint.save_ms": ms_per_call("checkpoint.save"),
            "checkpoint.load_ms": ms_per_call("checkpoint.load"),
            "checkpoint.bytes": ratio(self.saved["checkpoint.bytes"],
                                      self.saved["checkpoint.saves"]),
            "corpus.load_ms": ms_per_call("corpus.load"),
            "corpus.encode_ms": ms_per_call("corpus.encode"),
            "extractive.encode_document.ms_per_doc": ms_per_call("extractive.encode_document"),
            "extractive.decode_labels.ms_per_doc": ms_per_call("extractive.decode_labels"),
            "extractive.nll_loss.ms_per_doc": ms_per_call("extractive.nll_loss"),
            "extractive.select_top_k.ms_per_doc": ms_per_call("extractive.select_top_k"),
            "compression.nll_loss.ms_per_pair": ms_per_call("compression.nll_loss"),
            "compression.perplexity.ms": ms_per_call("compression.perplexity"),
            "compression.s_score.calls": s_calls,
            "compression.s_score.us_per_call": ms_per_call("compression.s_score") * 1e3,
            "compression.decode_greedy.ms_per_sentence": ms_per_call("compression.decode_greedy"),
            "compression.decode_greedy.tokens_per_sentence": ratio(
                per_round(lambda r: r["counts"].get("decode.tokens", 0)),
                calls("compression.decode_greedy")),
            "latent.reinforce_step.ms": ms_per_call("latent.reinforce_step"),
            "latent.reward.ms_per_step": ratio(total_ms("latent.reward"),
                                               calls("latent.reinforce_step")),
            "latent.reward.distinct_share": ratio(per_round(lambda r: r["distinct"]), s_calls),
            "labeling.oracle_labels.ms_per_doc": ms_per_call("labeling.oracle_labels"),
            "labeling.compression_pairs.ms_per_doc": ms_per_call("labeling.compression_pairs"),
            "rouge.calls": per_round(lambda r: r["rouge_calls"]),
            "rouge.us_per_call": ratio(per_round(lambda r: r["rouge_s"]) * 1e6,
                                       per_round(lambda r: r["rouge_calls"])),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = per_round(lambda r, k=layer: r["self"][k]) * 1e3
        out["trace.spans"] = per_round(lambda r: r["spans"])
        out["trace.overhead_pct"] = overhead_pct
        return out

    def round_counts(self) -> list[dict]:
        """The exact per-round counts of every traced round, for comparison."""
        return [{"tensor.backward.calls": r["calls"]["tensor.backward"],
                 "tensor.backward.nodes": r["counts"].get("backward.nodes", 0),
                 "lstm.step.calls": r["calls"]["lstm.step"],
                 "compression.s_score.calls": r["calls"]["compression.s_score"],
                 "latent.reward.distinct": r["distinct"]} for r in self.rounds]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
