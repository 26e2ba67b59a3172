"""Hierarchical extractive sentence labeler.

A word-level Bi-LSTM builds sentence vectors by mean pooling, a
sentence-level Bi-LSTM builds context vectors over the document, and a
unidirectional decoder LSTM emits a keep/drop distribution per sentence,
conditioned on the previous label through a label embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import UNK, Document
from .errors import DataError
from .numerics import (
    LSTMCell,
    Parameter,
    Tensor,
    add,
    backward,  # noqa: F401 -- perfbench's tracer test reads latentsum.extractive.backward
    concat,
    dropout,
    dropout_mask,
    embedding_lookup,
    gather_rows,
    init_uniform,
    join_masks,
    log_softmax,
    lstm_sequence,
    matmul_gemm,
    matmul_rowwise,
    no_grad,
    run_bilstm,
    segment_mean,
    step_schedule,
    tensor_sum,
    transpose,
)
from .numerics.checkpoint import apply_state, load_checkpoint, save_checkpoint
from .numerics.lstm import lstm_step
from .numerics.optim import Adam, fit
from .numerics.tensor import row_products, stable_log_softmax
from .rouge import rouge_mean

START_LABEL = 0

# words encoded together when a split is labeled in packs: it bounds the
# memory of a pass, and no row's bits depend on the pack
PACK_WORDS = 4096


@dataclass
class EncodedDocument:
    """Projected sentence vectors and their document-context vectors of one
    or more documents, each document's rows contiguous."""

    v: Tensor  # (sum |D|, d), one row per sentence
    h_e: Tensor  # (sum |D|, 2d)
    lengths: tuple[int, ...]  # sentences per document

    def __post_init__(self):
        if self.v.shape[0] != self.h_e.shape[0]:
            raise DataError(
                f"encoded document is inconsistent: {self.v.shape[0]} sentence vectors "
                f"vs {self.h_e.shape[0]} context vectors"
            )

    def __len__(self) -> int:
        return self.v.shape[0]


@dataclass
class EncoderNoise:
    """One document's training noise, in the order ``draw_noise`` draws it;
    each part is None when its dropout is off."""

    dropped: np.ndarray | None = None  # True for each token replaced by UNK
    v: np.ndarray | None = None  # (|D|, d) dropout mask of v
    h_e: np.ndarray | None = None  # (|D|, 2d) dropout mask of h_e


@dataclass
class DecodeResult:
    """Per-step decoder outputs, documents one after another."""

    log_probs: Tensor  # (n, 2) log-distributions over {0, 1}, one row per step
    labels: list[int]  # the given label of each step
    h_d: Tensor  # (n, d) decoder hidden states, one row per step

    def chosen_log_probs(self) -> Tensor:
        """(n, 1) log-probability of each step's label."""
        return gather_rows(self.log_probs, self.labels)


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

    def _pool_sentences(self, sentences, dropped=None) -> Tensor:
        """Mean of each sentence's word-level Bi-LSTM states, shape (n, 2d).

        One embedding lookup and one Bi-LSTM run over all the words, and one
        segment mean. ``dropped`` marks the words replaced by UNK.
        """
        ids, lengths = [], []
        for sentence in sentences:
            if sentence.ids is None:
                raise DataError("sentence has no vocabulary ids; encode the corpus first")
            ids.extend(sentence.ids)
            lengths.append(len(sentence.ids))
        if dropped is not None:
            ids = np.where(dropped, UNK, ids)
        emb = embedding_lookup(self.embed, ids)
        return segment_mean(run_bilstm(self.word_fwd, self.word_bwd, emb, lengths), lengths)

    def draw_noise(self, doc: Document, rng, drop: float = 0.0,
                   word_dropout: float = 0.0) -> EncoderNoise:
        """One document's dropout draws off ``rng``: word dropout (one draw
        per token), then the mask of v, then that of h_e. A zero rate draws
        nothing."""
        dropped = None
        if word_dropout > 0.0:
            dropped = rng.random(sum(len(s.tokens) for s in doc.sentences)) < word_dropout
        n = len(doc.sentences)
        return EncoderNoise(dropped=dropped,
                            v=dropout_mask((n, self.d), drop, rng),
                            h_e=dropout_mask((n, 2 * self.d), drop, rng))

    def encode_documents(self, docs, noise=None) -> EncodedDocument:
        """Several documents as one packed graph: one word-level Bi-LSTM over
        all their sentences, one sentence-level Bi-LSTM with one sequence
        per document.

        ``noise``, one ``EncoderNoise`` per document from ``draw_noise``,
        is applied; without it nothing is dropped.
        """
        if noise is None:
            noise = [EncoderNoise()] * len(docs)
        sentences = [s for doc in docs for s in doc.sentences]
        pooled = self._pool_sentences(sentences, join_masks([n.dropped for n in noise]))
        v = dropout(add(matmul_gemm(pooled, self.proj_w), self.proj_b),
                    join_masks([n.v for n in noise]))
        lengths = tuple(len(doc.sentences) for doc in docs)
        h_e = run_bilstm(self.sent_fwd, self.sent_bwd, v, lengths)
        return EncodedDocument(v=v, h_e=dropout(h_e, join_masks([n.h_e for n in noise])),
                               lengths=lengths)

    def encode_document(self, doc: Document) -> EncodedDocument:
        """Noise-free ``encode_documents`` of one document; only tests and tracing call it."""
        return self.encode_documents([doc])

    def decode_labels(self, enc: EncodedDocument, labels) -> DecodeResult:
        """Score the given labels, one 0/1 value per row of ``enc``, with
        one teacher-forced pass of the label decoder: each step is
        conditioned on the previous given label, and log p(label_i |
        label_<i) goes on the tape. Greedy or sampled labels come from
        ``choose_labels``.
        """
        labels = list(labels)
        if len(labels) != len(enc):
            raise DataError(f"labels length {len(labels)} != encoded length {len(enc)}")
        previous = [START_LABEL] + labels[:-1]
        start = 0
        for n in enc.lengths:
            previous[start] = START_LABEL  # each document starts afresh
            start += n
        previous = embedding_lookup(transpose(self.w_e), previous)
        h_d = lstm_sequence(self.dec, concat([previous, enc.h_e], axis=1), enc.lengths)
        log_probs = log_softmax(matmul_rowwise(h_d, transpose(self.w_o)), axis=1)
        return DecodeResult(log_probs=log_probs, labels=labels, h_d=h_d)

    def choose_labels(self, enc: EncodedDocument, draws=None) -> tuple[list[int], np.ndarray]:
        """Greedy labels, or sampled ones: with ``draws``, one uniform draw
        per row of ``enc``, label i is 1 when its draw is below p(y_i = 1).
        Tape-free, and without ``decode_labels``' scoring pass.

        Each step advances every still-active document's row at once
        through ``lstm_step``, on the decoder's gate-major ``step_weights``
        (made once per parameter version), and through ``decode_labels``'
        output layer. No step is a one-row product: a lone document's step
        runs beside a spare row of the buffers. So each row's bits do not
        depend on the other documents of ``enc``. Returns the labels and
        each row's p(y_i = 1) as its step computed it.
        """
        _, counts, rows, _ = step_schedule(enc.lengths)
        d = self.d
        # decoder inputs concat(label embedding, h_e row), step by step, and
        # a spare row after the last step's
        x = np.zeros((rows.size + 1, 3 * d), dtype=self.dtype)
        x[:-1, d:] = enc.h_e.data[rows]
        # one draw per sentence, taken document by document, read step by step;
        # in the model's dtype, as comparing a Python float with a numpy
        # float32 scalar would round it
        if draws is not None:
            draws = np.asarray(draws)
            if draws.shape != (rows.size,):
                raise DataError(f"{draws.size} draws for {rows.size} sentences")
            draws = draws.astype(x.dtype)[rows]
        emb = self.w_e.data.T  # one row per label
        w_x, w_h, b = self.dec.step_weights()
        w_o = self.w_o.data
        h = np.zeros((max(len(enc.lengths), 2), d), dtype=self.dtype)
        c = np.zeros_like(h)
        prev = np.full(len(enc.lengths), START_LABEL)
        chosen = np.empty(rows.size, dtype=np.int64)
        p_true = np.empty(rows.size, dtype=self.dtype)
        at = 0
        for k in counts.tolist():
            width = max(k, 2)
            x[at : at + k, :d] = emb[prev[:k]]
            h, c, _, _ = lstm_step(x[at : at + width] @ w_x + b, h[:width], c[:width], w_h)
            lp = stable_log_softmax(row_products(h[:k], w_o.T), axis=1)
            p_true[at : at + k] = np.exp(lp[:, 1])
            if draws is None:
                chosen[at : at + k] = np.argmax(lp, axis=1)
            else:
                chosen[at : at + k] = draws[at : at + k] < p_true[at : at + k]
            prev = chosen[at : at + k]
            at += k
        labels = np.empty_like(chosen)
        labels[rows] = chosen
        probs = np.empty_like(p_true)
        probs[rows] = p_true
        return labels.tolist(), probs

    def nll_loss(self, enc: EncodedDocument, labels) -> Tensor:
        """Negative log-likelihood of the gold labels (one per row of
        ``enc``) under teacher feed, summed over the documents of ``enc``."""
        return -tensor_sum(self.decode_labels(enc, labels).chosen_log_probs())

    def greedy_labels(self, docs) -> list[tuple[list[int], np.ndarray]]:
        """Each document's greedy labels and p(y_i = 1), from noise-free
        passes over packs of consecutive documents of at most PACK_WORDS
        words (a longer document is a pack of its own). No row depends on
        its pack, so a document gets the bits it gets alone."""
        out = []
        with no_grad():
            for pack in _packs(docs):
                labels, probs = self.choose_labels(self.encode_documents(pack))
                start = 0
                for doc in pack:
                    end = start + len(doc)
                    out.append((labels[start:end], probs[start:end]))
                    start = end
        return out

    def select_top_k_each(self, docs, k: int) -> list[TopK]:
        """Greedy-feed inference; each document's k sentences of highest
        p(y_i = 1), ties to lower index."""
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        tops = []
        for doc, (_, probs) in zip(docs, self.greedy_labels(docs)):
            probs = probs.tolist()
            order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
            chosen = tuple(sorted(order[: min(k, len(probs))]))
            tops.append(TopK(indices=chosen, prob_true=tuple(probs),
                             sentences=tuple(doc.sentences[i] for i in chosen)))
        return tops

    def select_top_k(self, doc: Document, k: int) -> TopK:
        """The one-document case of ``select_top_k_each``."""
        return self.select_top_k_each([doc], k)[0]


def _packs(docs):
    """Runs of consecutive documents of at most PACK_WORDS words each; a
    longer document makes a run of its own."""
    pack, words = [], 0
    for doc in docs:
        n = sum(len(s.tokens) for s in doc.sentences)
        if pack and words + n > PACK_WORDS:
            yield pack
            pack, words = [], 0
        pack.append(doc)
        words += n
    if pack:
        yield pack


def save_extractive(path, model: ExtractiveModel, run_config: dict, vocab):
    snapshot = {"d": model.d, "vocab_size": model.vocab_size, "run": run_config}
    save_checkpoint(path, "extractive", model.parameters(), snapshot, vocab.content_hash())


def load_extractive(path, vocab) -> ExtractiveModel:
    data = load_checkpoint(path, expected_model="extractive",
                           expected_vocab_hash=vocab.content_hash())
    vocab_size, d = data.config_sizes(vocab_size=("extractive.embed", 0),
                                      d=("extractive.embed", 1))
    model = ExtractiveModel(vocab_size=vocab_size, d=d, rng=None,
                            dtype=data.arrays["extractive.embed"].dtype.type)
    apply_state(model.parameters(), data.arrays)
    return model


def evaluate_rouge_mean(model: ExtractiveModel, records, k: int) -> float:
    """Mean rouge_mean of top-k extractions over (doc, summary) records."""
    tops = model.select_top_k_each([doc for doc, _ in records], k)
    scores = [rouge_mean(list(top.sentences), list(summary.sentences))
              for top, (_, summary) in zip(tops, records)]
    return float(np.mean(scores)) if scores else 0.0


def label_accuracy(model: ExtractiveModel, records, labels_by_id) -> float:
    """Greedy-feed prediction accuracy against stored labels."""
    docs = [doc for doc, _ in records]
    hits = total = 0
    for doc, (predicted, _) in zip(docs, model.greedy_labels(docs)):
        gold = labels_by_id[doc.id]
        hits += sum(int(p == g) for p, g in zip(predicted, gold.labels))
        total += len(gold)
    return hits / total if total else 0.0


def train_extractive(model: ExtractiveModel, train_records, labels_by_id: dict,
                     val_records, config, rng) -> list[dict]:
    """Adam on teacher-forced NLL; keeps the checkpoint with the highest
    validation rouge_mean of its top-k extractions."""
    for doc, _ in train_records:
        if doc.id not in labels_by_id:
            raise DataError(f"no oracle labels for document {doc.id!r}")
        if len(labels_by_id[doc.id]) != len(doc):
            raise DataError(f"document {doc.id!r} has {len(doc)} sentences but "
                            f"{len(labels_by_id[doc.id])} oracle labels")

    def batch_loss(records):
        docs = [doc for doc, _ in records]
        noise = [model.draw_noise(doc, rng, config.dropout, config.word_dropout) for doc in docs]
        enc = model.encode_documents(docs, noise)
        dec = model.decode_labels(enc, [y for doc in docs for y in labels_by_id[doc.id].labels])
        chosen = dec.chosen_log_probs()
        # each document's mean NLL per sentence, as the metric reports it
        ends = np.cumsum(enc.lengths)
        value = sum(-float(chosen.data[end - n : end].sum()) / n
                    for n, end in zip(enc.lengths, ends))
        return -tensor_sum(chosen), value, len(docs)

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

    return fit({"": Adam(model.parameters(), lr=config.extractive_lr)}, train_records,
               batch_loss, end_epoch, epochs=config.extractive_epochs,
               batch_size=config.batch_size, clip_norm=config.clip_norm, rng=rng)
