"""Attention-based sentence compression scorer.

A Bi-LSTM encodes the source sentence; a unidirectional decoder with
additive attention predicts the compressed sentence token by token.
The model's normalized likelihood of a candidate compression is the
per-token geometric-mean probability s = exp(total_logprob / tokens).

Every score runs through one tape-free path: ``_logprobs`` decodes
(source, targets) items ``EVAL_CHUNK`` at a time. ``s_score_matrices``
turns its totals into the s matrices of many (sources, targets) pairs;
``s_score_matrix`` and ``s_score`` are its one-pair and one-cell cases,
and ``perplexity`` pools the same totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BOS, EOS, PAD, Sentence, Vocabulary
from .errors import DataError
from .numerics import (
    LSTMCell,
    Parameter,
    Tensor,
    add,
    concat,
    dropout,
    dropout_mask,
    embedding_lookup,
    gather_rows,
    init_uniform,
    join_masks,
    log_softmax,
    lstm_sequence,
    matmul,
    matmul_rowwise,
    no_grad,
    reshape,
    run_bilstm,
    slice_axis,
    softmax,
    tanh,
    tensor_sum,
)
from .numerics.checkpoint import apply_state, load_checkpoint, save_checkpoint
from .numerics.lstm import lstm_step
from .numerics.optim import Adam, fit
from .numerics.tensor import stable_softmax

# (source, targets) items per no-grad scoring decode: it bounds the
# decode's memory, and no row's bits depend on its pack
EVAL_CHUNK = 32


@dataclass
class TeacherDecode:
    """Stepwise outputs of a teacher-forced decode of one or more targets,
    each target's rows contiguous."""

    log_probs: Tensor  # (T, V) log-distributions, each target's rows in turn
    targets: list[int]  # gold next-token ids, each target's EOS last
    lengths: list[int]  # rows per target: its length plus the EOS

    def total_logprobs(self) -> list[float]:
        """Each target's total log-probability, as a sequential float32 sum
        (numpy's pairwise .sum() rounds differently)."""
        picked = self.log_probs.data[np.arange(len(self.targets)), self.targets]
        ends = np.cumsum(self.lengths)
        return [float(sum(picked[end - n : end])) for n, end in zip(self.lengths, ends)]

    def nll(self) -> Tensor:
        """Negative log-likelihood of every target, summed."""
        return -tensor_sum(gather_rows(self.log_probs, self.targets))


class CompressionModel:
    def __init__(self, vocab_size: int, d: int, rng, attn_size: int | None = None,
                 dtype=np.float32):
        self.vocab_size = vocab_size
        self.d = d
        self.attn_size = d if attn_size is None else attn_size
        self.dtype = dtype
        a = self.attn_size
        self.src_embed = Parameter("compression.src_embed", init_uniform((vocab_size, d), d, rng, dtype))
        self.tgt_embed = Parameter("compression.tgt_embed", init_uniform((vocab_size, d), d, rng, dtype))
        self.enc_fwd = LSTMCell("compression.enc_fwd", d, d, rng, dtype)
        self.enc_bwd = LSTMCell("compression.enc_bwd", d, d, rng, dtype)
        self.dec = LSTMCell("compression.dec", d, d, rng, dtype)
        self.w_init = Parameter("compression.w_init", init_uniform((2 * d, d), d, rng, dtype))
        self.b_init = Parameter("compression.b_init", np.zeros((1, d), dtype=dtype))
        self.w_s = Parameter("compression.w_s", init_uniform((d, a), a, rng, dtype))
        self.u_h = Parameter("compression.u_h", init_uniform((2 * d, a), a, rng, dtype))
        self.v_a = Parameter("compression.v_a", init_uniform((a, 1), 1, rng, dtype))
        self.w_out = Parameter("compression.w_out", init_uniform((3 * d, vocab_size), vocab_size, rng, dtype))
        self.b_out = Parameter("compression.b_out", np.zeros((1, vocab_size), dtype=dtype))

    def parameters(self) -> list[Parameter]:
        params = [self.src_embed, self.tgt_embed, self.w_init, self.b_init,
                  self.w_s, self.u_h, self.v_a, self.w_out, self.b_out]
        for cell in (self.enc_fwd, self.enc_bwd, self.dec):
            params.extend(cell.parameters())
        return params

    def _encode_sources(self, sources):
        """One Bi-LSTM over packed sources: their (sum |S|, 2d) states, each
        source's rows contiguous, and the (len(sources), d) initial decoder
        states s0, one row per source."""
        lengths = np.array([len(source) for source in sources])
        states = run_bilstm(self.enc_fwd, self.enc_bwd,
                            embedding_lookup(self.src_embed, [i for s in sources for i in s]),
                            lengths)
        ends = lengths.cumsum()
        d = self.d
        # each source's last forward state and first backward state, rows
        # 2r and 2r + 1 of the states viewed as (2 sum |S|, d), in one gather
        rows = np.stack([2 * ends - 2, 2 * (ends - lengths) + 1], axis=1).ravel()
        boundary = reshape(embedding_lookup(reshape(states, (2 * int(ends[-1]), d)), rows),
                           (len(sources), 2 * d))
        s0 = tanh(add(matmul(boundary, self.w_init), self.b_init))
        return states, s0

    def _output_logits(self, state: Tensor, context: Tensor) -> Tensor:
        return add(matmul(concat([state, context], axis=1), self.w_out), self.b_out)

    def decode_teacher(self, items, rng=None, drop: float = 0.0) -> TeacherDecode:
        """Teacher-forced decode of (source_ids, targets) items as one packed
        graph; predicts each target token then EOS.

        All sources go through one Bi-LSTM. The decoder reads only gold
        tokens, so the states of every target come from one packed
        recurrence, each target started from its own source's s0. Each
        target attends only its own source's rows, normalized over that
        source's length; the output layer and log_softmax run once over all
        rows. With a nonzero ``drop``, the dropout masks are drawn off
        ``rng`` item by item (the source annotations, then the decoder
        states), so the generator moves as if each item were decoded alone.
        """
        if not items or not all(source and targets and all(targets)
                                for source, targets in items):
            raise DataError("compression needs a non-empty source and non-empty targets")
        d = self.d
        src_len = np.array([len(source) for source, _ in items])
        src_start = src_len.cumsum() - src_len
        counts = [len(item_targets) for _, item_targets in items]
        targets = [target for _, item_targets in items for target in item_targets]
        lengths = np.array([len(target) + 1 for target in targets])
        owner = np.arange(len(items)).repeat(counts)  # each target's item
        item_rows = [sum(len(t) + 1 for t in item_targets) for _, item_targets in items]
        src_masks, dec_masks = [], []
        for n, rows in zip(src_len, item_rows):
            src_masks.append(dropout_mask((n, 2 * d), drop, rng))
            dec_masks.append(dropout_mask((rows, d), drop, rng))

        encoded, s0 = self._encode_sources([source for source, _ in items])
        annotations = dropout(encoded, join_masks(src_masks))  # (sum |S|, 2d)
        projected = matmul(annotations, self.u_h)  # (sum |S|, a)
        inputs = embedding_lookup(self.tgt_embed,
                                  [i for target in targets for i in [BOS, *target]])
        gold = [i for target in targets for i in [*target, EOS]]
        states = dropout(lstm_sequence(self.dec, inputs, lengths,
                                       h0=embedding_lookup(s0, owner)),
                         join_masks(dec_masks))  # (T, d)
        # additive scores v_a^T tanh(W_s s_t + U_h h_k) of every state
        # against its own source:
        # state t's block holds one row per position of that source
        row_item = owner.repeat(lengths)
        width = src_len[row_item]
        shift = (width.cumsum() - width - src_start[row_item]).repeat(width)
        query = embedding_lookup(matmul(states, self.w_s), np.arange(len(gold)).repeat(width))
        key = embedding_lookup(projected, np.arange(shift.size) - shift)
        # one score per row, row by row, so a target's scores have the bits
        # of a one-target decode
        scores = matmul_rowwise(tanh(add(query, key)), self.v_a)
        contexts = []
        end = 0
        for rows, n, start in zip(item_rows, src_len, src_start):
            item_scores = reshape(slice_axis(scores, 0, end, end + rows * n), (rows, int(n)))
            contexts.append(matmul(softmax(item_scores, axis=1),
                                   slice_axis(annotations, 0, start, start + n)))
            end += rows * n
        log_probs = log_softmax(self._output_logits(states, concat(contexts, axis=0)), axis=1)
        return TeacherDecode(log_probs=log_probs, targets=gold, lengths=lengths.tolist())

    def nll_loss(self, source_ids, target_ids) -> Tensor:
        """The one-pair case of ``decode_teacher``'s summed NLL, without dropout."""
        return self.decode_teacher([(source_ids, [target_ids])]).nll()

    def decode_greedy_ids(self, source_ids, max_len: int) -> list[int]:
        """Argmax decoding until EOS or max_len; PAD and BOS are never
        emitted and EOS is masked at the first step so the output is
        non-empty. Masks are assigned: -inf added to a +inf logit is NaN.
        An empty source is refused, as ``decode_teacher`` refuses it.

        The source is encoded once, by one ``run_bilstm`` under
        ``no_grad``, and s0 is ``_encode_sources``' formula in numpy; the
        decoder's gate-major ``step_weights`` are made once per parameter
        version, so a step's input and gates are (4, 1, d) blocks.
        Each step is then numpy arithmetic on arrays, ``lstm_step`` and the
        products of the attention and ``_output_logits`` in their order, so
        no tape node is built per step. The state and the context go into
        one preallocated ``[h | context]`` row in place of a concatenation.
        ``_encode_sources``, ``LSTMCell.step`` and the tests' one-state
        attention are its oracles."""
        if max_len < 1:
            raise DataError(f"max_len must be >= 1, got {max_len}")
        if len(source_ids) == 0:
            raise DataError("compression needs a non-empty source")
        with no_grad():
            ann = run_bilstm(self.enc_fwd, self.enc_bwd,
                             embedding_lookup(self.src_embed, source_ids),
                             [len(source_ids)]).data
        d = self.d
        # s0 from the last forward state and the first backward state
        boundary = np.concatenate([ann[-1:, :d], ann[:1, d:]], axis=1)
        h = np.tanh(boundary @ self.w_init.data + self.b_init.data)
        projected = ann @ self.u_h.data
        w_s, v_a = self.w_s.data, self.v_a.data
        w_out, b_out = self.w_out.data, self.b_out.data
        tgt_embed = self.tgt_embed.data
        w_x, w_h, b = self.dec.step_weights()
        c = np.zeros((1, d), dtype=self.dtype)
        row = np.empty((1, 3 * d), dtype=self.dtype)  # [h | context]
        token = BOS
        out: list[int] = []
        for step in range(max_len):
            xw = tgt_embed[token : token + 1] @ w_x
            xw += b
            h, c, _, _ = lstm_step(xw, h, c, w_h)
            weights = stable_softmax((np.tanh(h @ w_s + projected) @ v_a).T, axis=1)
            row[:, :d] = h
            np.matmul(weights, ann, out=row[:, d:])
            logits = (row @ w_out)[0]
            logits += b_out[0]
            logits[PAD] = -np.inf
            logits[BOS] = -np.inf
            if step == 0:
                logits[EOS] = -np.inf
            token = int(logits.argmax())
            if token == EOS:
                break
            out.append(token)
        return out


def save_compression(path, model: CompressionModel, run_config: dict, vocab):
    snapshot = {
        "d": model.d,
        "attn_size": model.attn_size,
        "vocab_size": model.vocab_size,
        "run": run_config,
    }
    save_checkpoint(path, "compression", model.parameters(), snapshot, vocab.content_hash())


def load_compression(path, vocab) -> CompressionModel:
    data = load_checkpoint(path, expected_model="compression",
                           expected_vocab_hash=vocab.content_hash())
    vocab_size, d, attn_size = data.config_sizes(vocab_size=("compression.src_embed", 0),
                                                 d=("compression.src_embed", 1),
                                                 attn_size=("compression.v_a", 0))
    model = CompressionModel(vocab_size=vocab_size, d=d, rng=None, attn_size=attn_size,
                             dtype=data.arrays["compression.src_embed"].dtype.type)
    apply_state(model.parameters(), data.arrays)
    return model


def _logprobs(model: CompressionModel, items) -> list[tuple[float, int]]:
    """Total teacher-forced log-probability (EOS included) of each target of
    (source, targets) items, and the token count it was summed over, from
    packed decodes of EVAL_CHUNK items at a time."""
    if any(source.ids is None or any(target.ids is None for target in targets)
           for source, targets in items):
        raise DataError("sentences must carry vocabulary ids")
    logprobs = []
    with no_grad():
        for start in range(0, len(items), EVAL_CHUNK):
            dec = model.decode_teacher([(source.ids, [target.ids for target in targets])
                                        for source, targets in items[start : start + EVAL_CHUNK]])
            logprobs.extend(zip(dec.total_logprobs(), dec.lengths))
    return logprobs


def s_score_matrices(model: CompressionModel, pairs) -> list[np.ndarray]:
    """The |sources| x |targets| float64 matrix of s_score(source, target)
    of every (sources, targets) pair, from decodes of EVAL_CHUNK (source,
    targets) items at a time across the pairs: each source is encoded once
    per pair, and no matrix's bits depend on the pairs beside it."""
    logprobs = _logprobs(model, [(source, targets) for sources, targets in pairs
                                 for source in sources])
    matrices, end = [], 0
    for sources, targets in pairs:
        size = len(sources) * len(targets)
        matrices.append(np.exp([total / count for total, count in logprobs[end : end + size]])
                        .reshape(len(sources), len(targets)))
        end += size
    return matrices


def s_score_matrix(model: CompressionModel, sources, targets) -> np.ndarray:
    """|sources| x |targets| matrix of s_score(source, target): the one-pair
    case of ``s_score_matrices``."""
    return s_score_matrices(model, [(sources, targets)])[0]


def s_score(model: CompressionModel, source: Sentence, target: Sentence) -> float:
    """exp(mean per-token log-probability); always in (0, 1]."""
    return float(s_score_matrix(model, [source], [target])[0, 0])


def decode_greedy(model: CompressionModel, vocab: Vocabulary, source: Sentence,
                  max_len: int) -> Sentence:
    if source.ids is None:
        raise DataError("source sentence must carry vocabulary ids")
    ids = model.decode_greedy_ids(source.ids, max_len)
    return Sentence(tokens=vocab.decode(ids), ids=tuple(ids))


def perplexity(model: CompressionModel, pairs) -> float:
    """exp of mean per-token NLL over encoded compression pairs, decoded
    EVAL_CHUNK pairs at a time."""
    total = 0.0
    count = 0
    for logprob, tokens in _logprobs(model, [(p.source, [p.target]) for p in pairs]):
        total += logprob
        count += tokens
    if count == 0:
        raise DataError("perplexity over an empty pair set")
    return float(np.exp(-total / count))


def train_compression(model: CompressionModel, pairs, val_pairs, config, rng) -> list[dict]:
    """Adam on teacher-forced cross-entropy; keeps the checkpoint with the
    lowest validation perplexity."""
    encoded = [(list(p.source.ids), list(p.target.ids)) for p in pairs]

    def batch_loss(batch):
        dec = model.decode_teacher([(source, [target]) for source, target in batch], rng=rng,
                                   drop=config.dropout)
        loss = dec.nll()
        return loss, float(loss.data), sum(dec.lengths)

    def end_epoch(epoch, nll_sum, tokens):
        row = {"epoch": epoch, "train_ppl": float(np.exp(nll_sum / max(tokens, 1)))}
        if not val_pairs:
            return row, None, False
        row["val_ppl"] = perplexity(model, val_pairs)
        return row, -row["val_ppl"], False

    return fit({"": Adam(model.parameters(), lr=config.compression_lr)}, encoded,
               batch_loss, end_epoch, epochs=config.compression_epochs,
               batch_size=config.batch_size, clip_norm=config.clip_norm, rng=rng)
