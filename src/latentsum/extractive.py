"""Hierarchical extractive sentence labeler.

A word-level Bi-LSTM builds sentence vectors by mean pooling, a
sentence-level Bi-LSTM builds context vectors over the document, and a
unidirectional decoder LSTM emits a keep/drop distribution per sentence,
conditioned on the previous label through a label embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import UNK, Document, Sentence
from .errors import DataError
from .labeling import LabelSequence
from .numerics import (
    LSTMCell,
    Parameter,
    Tensor,
    add,
    backward,  # noqa: F401 -- perfbench's tracer test reads latentsum.extractive.backward
    concat,
    dropout,
    embedding_lookup,
    gather_rows,
    init_uniform,
    log_softmax,
    matmul,
    mean_over_axis,
    no_grad,
    run_bilstm,
    slice_axis,
    split_rows,
    tensor_sum,
    transpose,
)
from .numerics.checkpoint import apply_state, load_checkpoint, save_checkpoint
from .numerics.optim import Adam, fit
from .rouge import rouge_mean

START_LABEL = 0

FEED_MODES = ("teacher", "greedy", "sample")


@dataclass
class EncodedDocument:
    """Projected sentence vectors and their document-context vectors."""

    v: list  # |D| tensors of shape (1, d)
    h_e: list  # |D| tensors of shape (1, 2d)

    def __post_init__(self):
        if len(self.v) != len(self.h_e):
            raise DataError(
                f"encoded document is inconsistent: {len(self.v)} sentence vectors "
                f"vs {len(self.h_e)} context vectors"
            )

    def __len__(self) -> int:
        return len(self.v)


@dataclass
class DecodeResult:
    """Per-step decoder outputs for one document."""

    log_probs: Tensor  # (n, 2) log-distributions over {0, 1}, one row per step
    labels: list[int]  # the label chosen (or given) at each step
    h_d: list  # decoder hidden states, (1, d) each

    def prob_true(self) -> list[float]:
        return [float(np.exp(lp)) for lp in self.log_probs.data[:, 1]]


@dataclass
class TopK:
    indices: tuple[int, ...]  # chosen sentence indices in document order
    prob_true: tuple[float, ...]  # p(y_i = 1) for every sentence
    sentences: tuple


class ExtractiveModel:
    def __init__(self, vocab_size: int, d: int, rng, dtype=np.float32):
        self.vocab_size = vocab_size
        self.d = d
        self.dtype = dtype
        self.embed = Parameter("extractive.embed", init_uniform((vocab_size, d), d, rng, dtype))
        self.word_fwd = LSTMCell("extractive.word_fwd", d, d, rng, dtype)
        self.word_bwd = LSTMCell("extractive.word_bwd", d, d, rng, dtype)
        self.proj_w = Parameter("extractive.proj_w", init_uniform((2 * d, d), d, rng, dtype))
        self.proj_b = Parameter("extractive.proj_b", np.zeros((1, d), dtype=dtype))
        self.sent_fwd = LSTMCell("extractive.sent_fwd", d, d, rng, dtype)
        self.sent_bwd = LSTMCell("extractive.sent_bwd", d, d, rng, dtype)
        # decoder input is concat(label embedding, h^E_i): d + 2d
        self.dec = LSTMCell("extractive.dec", 3 * d, d, rng, dtype)
        self.w_e = Parameter("extractive.w_e", init_uniform((d, 2), 2, rng, dtype))
        self.w_o = Parameter("extractive.w_o", init_uniform((2, d), d, rng, dtype))

    def parameters(self) -> list[Parameter]:
        params = [self.embed, self.proj_w, self.proj_b, self.w_e, self.w_o]
        for cell in (self.word_fwd, self.word_bwd, self.sent_fwd, self.sent_bwd, self.dec):
            params.extend(cell.parameters())
        return params

    def _label_embedding(self, label: int) -> Tensor:
        return transpose(slice_axis(self.w_e, 1, label, label + 1))

    def encode_sentence(self, sentence: Sentence, rng=None, training: bool = False,
                        word_dropout: float = 0.0) -> Tensor:
        """Mean of the word-level Bi-LSTM states, shape (1, 2d)."""
        if sentence.ids is None:
            raise DataError("sentence has no vocabulary ids; encode the corpus first")
        ids = list(sentence.ids)
        if training and word_dropout > 0.0:
            ids = [UNK if rng.random() < word_dropout else t for t in ids]
        emb = embedding_lookup(self.embed, ids)
        states, _, _ = run_bilstm(self.word_fwd, self.word_bwd, split_rows(emb))
        stacked = concat(states, axis=0)
        return mean_over_axis(stacked, axis=0, keepdims=True)

    def encode_document(self, doc: Document, rng=None, training: bool = False,
                        drop: float = 0.0, word_dropout: float = 0.0) -> EncodedDocument:
        pooled = [
            self.encode_sentence(s, rng=rng, training=training, word_dropout=word_dropout)
            for s in doc.sentences
        ]
        v = [add(matmul(p, self.proj_w), self.proj_b) for p in pooled]
        if training and drop > 0.0:
            v = [dropout(x, drop, rng, training=True) for x in v]
        h_e, _, _ = run_bilstm(self.sent_fwd, self.sent_bwd, v)
        if training and drop > 0.0:
            h_e = [dropout(x, drop, rng, training=True) for x in h_e]
        return EncodedDocument(v=v, h_e=h_e)

    def decode_labels(self, enc: EncodedDocument, feed: str = "greedy",
                      teacher_labels: LabelSequence | None = None,
                      rng=None) -> DecodeResult:
        """Run the label decoder over an encoded document.

        feed="teacher" conditions each step on the given previous label,
        "greedy" on the argmax prediction, "sample" on a draw from the
        predicted distribution (log-prob of the draw is kept on the tape).
        """
        if feed not in FEED_MODES:
            raise DataError(f"unknown feed mode {feed!r}")
        if feed == "teacher":
            if teacher_labels is None:
                raise DataError("teacher feed requires labels")
            if len(teacher_labels) != len(enc):
                raise DataError(
                    f"teacher labels length {len(teacher_labels)} != document length {len(enc)}"
                )
        if feed == "sample" and rng is None:
            raise DataError("sample feed requires an rng")
        h, c = self.dec.initial_state()
        prev = START_LABEL
        log_probs, labels, h_d = [], [], []
        for i in range(len(enc)):
            x = concat([self._label_embedding(prev), enc.h_e[i]], axis=1)
            h, c = self.dec.step(x, h, c)
            logits = matmul(h, transpose(self.w_o))
            lp = log_softmax(logits, axis=1)
            if feed == "teacher":
                label = teacher_labels.labels[i]
            elif feed == "greedy":
                label = int(np.argmax(lp.data[0]))
            else:
                label = int(rng.random() < np.exp(lp.data[0, 1]))
            log_probs.append(lp)
            labels.append(label)
            h_d.append(h)
            prev = label
        return DecodeResult(log_probs=concat(log_probs, axis=0), labels=labels, h_d=h_d)

    def nll_loss(self, enc: EncodedDocument, labels: LabelSequence) -> Tensor:
        """Negative log-likelihood of the gold labels under teacher feed."""
        dec = self.decode_labels(enc, feed="teacher", teacher_labels=labels)
        return -tensor_sum(gather_rows(dec.log_probs, dec.labels))

    def select_top_k(self, doc: Document, k: int) -> TopK:
        """Greedy-feed inference; rank by p(y_i=1), ties to lower index."""
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        with no_grad():
            enc = self.encode_document(doc)
            dec = self.decode_labels(enc, feed="greedy")
        probs = dec.prob_true()
        order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
        chosen = tuple(sorted(order[: min(k, len(probs))]))
        return TopK(
            indices=chosen,
            prob_true=tuple(probs),
            sentences=tuple(doc.sentences[i] for i in chosen),
        )


def save_extractive(path, model: ExtractiveModel, run_config: dict, vocab):
    snapshot = {"d": model.d, "vocab_size": model.vocab_size, "run": run_config}
    save_checkpoint(path, "extractive", model.parameters(), snapshot, vocab.content_hash())


def load_extractive(path, vocab) -> ExtractiveModel:
    data = load_checkpoint(path, expected_model="extractive",
                           expected_vocab_hash=vocab.content_hash())
    model = ExtractiveModel(
        vocab_size=int(data.config["vocab_size"]),
        d=int(data.config["d"]),
        rng=np.random.default_rng(0),
    )
    apply_state(model.parameters(), data.arrays)
    return model


def evaluate_rouge_mean(model: ExtractiveModel, records, k: int) -> float:
    """Mean rouge_mean of top-k extractions over (doc, summary) records."""
    scores = []
    for doc, summary in records:
        top = model.select_top_k(doc, k)
        scores.append(rouge_mean(list(top.sentences), list(summary.sentences)))
    return float(np.mean(scores)) if scores else 0.0


def label_accuracy(model: ExtractiveModel, records, labels_by_id) -> float:
    """Greedy-feed prediction accuracy against stored labels."""
    hits = total = 0
    with no_grad():
        for doc, _ in records:
            gold = labels_by_id[doc.id]
            dec = model.decode_labels(model.encode_document(doc), feed="greedy")
            hits += sum(int(p == g) for p, g in zip(dec.labels, gold.labels))
            total += len(gold)
    return hits / total if total else 0.0


def train_extractive(model: ExtractiveModel, train_records, labels_by_id: dict,
                     val_records, config, rng) -> list[dict]:
    """Adam on teacher-forced NLL; keeps the checkpoint with the highest
    validation rouge_mean of its top-k extractions."""
    if not train_records:
        raise DataError("cannot train on an empty corpus")
    for doc, _ in train_records:
        if doc.id not in labels_by_id:
            raise DataError(f"no oracle labels for document {doc.id!r}")
    opt = Adam(model.parameters(), lr=config.extractive_lr, beta1=config.beta1,
               beta2=config.beta2, eps=config.adam_eps)

    def item_loss(record):
        doc, _ = record
        gold = labels_by_id[doc.id]
        enc = model.encode_document(
            doc, rng=rng, training=True,
            drop=config.dropout, word_dropout=config.word_dropout,
        )
        loss = model.nll_loss(enc, gold)
        return loss, float(loss.data) / len(gold), 1

    def end_epoch(epoch, loss_sum, steps):
        train_acc = label_accuracy(model, train_records, labels_by_id)
        val_rouge = evaluate_rouge_mean(model, val_records, config.max_select)
        row = {
            "epoch": epoch,
            "train_loss": loss_sum / max(steps, 1),
            "train_acc": train_acc,
            "val_rouge_mean": val_rouge,
        }
        stop = config.stop_at_train_acc is not None and train_acc >= config.stop_at_train_acc
        return row, (val_rouge if val_records else None), stop

    return fit(opt, train_records, item_loss, end_epoch, epochs=config.extractive_epochs,
               batch_size=config.batch_size, clip_norm=config.clip_norm, rng=rng)
