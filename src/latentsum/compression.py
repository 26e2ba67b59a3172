"""Attention-based sentence compression scorer.

A Bi-LSTM encodes the source sentence; a unidirectional decoder with
additive attention predicts the compressed sentence token by token.
The model's normalized likelihood of a candidate compression is the
per-token geometric-mean probability s = exp(total_logprob / tokens).
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
    embedding_lookup,
    gather_rows,
    init_uniform,
    log_softmax,
    matmul,
    no_grad,
    run_bilstm,
    softmax,
    split_rows,
    tanh,
    tensor_sum,
    transpose,
)
from .numerics.checkpoint import apply_state, load_checkpoint, save_checkpoint
from .numerics.optim import Adam, fit


@dataclass
class TeacherDecode:
    """Stepwise outputs of a teacher-forced decode."""

    log_probs: Tensor  # (T, V) log-distributions, one row per step
    targets: list[int]  # gold next-token ids, EOS last

    @property
    def total_logprob(self) -> float:
        # a sequential float32 sum; numpy's pairwise .sum() rounds differently
        return float(sum(lp[t] for lp, t in zip(self.log_probs.data, self.targets)))

    @property
    def token_count(self) -> int:
        return len(self.targets)


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

    def _encode_source(self, source_ids, rng=None, training: bool = False,
                       drop: float = 0.0):
        emb = embedding_lookup(self.src_embed, list(source_ids))
        states, fwd_last, bwd_last = run_bilstm(self.enc_fwd, self.enc_bwd, split_rows(emb))
        if training and drop > 0.0:
            states = [dropout(s, drop, rng, training=True) for s in states]
        annotations = concat(states, axis=0)  # (|S|, 2d)
        s0 = tanh(add(matmul(concat([fwd_last, bwd_last], axis=1), self.w_init), self.b_init))
        return annotations, s0

    def _attend(self, state: Tensor, annotations: Tensor, projected: Tensor):
        # additive scores: v_a^T tanh(W_s s_t + U_h h_k) per source position
        scores = matmul(tanh(add(matmul(state, self.w_s), projected)), self.v_a)
        weights = softmax(transpose(scores), axis=1)  # (1, |S|)
        context = matmul(weights, annotations)  # (1, 2d)
        return weights, context

    def _output_logits(self, state: Tensor, context: Tensor) -> Tensor:
        return add(matmul(concat([state, context], axis=1), self.w_out), self.b_out)

    def decode_teacher(self, source_ids, target_ids, rng=None,
                       training: bool = False, drop: float = 0.0) -> TeacherDecode:
        """Teacher-forced decode; predicts each target token then EOS."""
        if not source_ids or not target_ids:
            raise DataError("compression needs non-empty source and target")
        annotations, state = self._encode_source(source_ids, rng=rng, training=training, drop=drop)
        projected = matmul(annotations, self.u_h)
        cell_state = Tensor(np.zeros((1, self.d), dtype=self.dtype))
        inputs = [BOS] + list(target_ids)
        targets = list(target_ids) + [EOS]
        log_probs = []
        for token in inputs:
            x = embedding_lookup(self.tgt_embed, [token])
            state, cell_state = self.dec.step(x, state, cell_state)
            out_state = dropout(state, drop, rng, training=True) if training and drop > 0.0 else state
            _, context = self._attend(out_state, annotations, projected)
            log_probs.append(log_softmax(self._output_logits(out_state, context), axis=1))
        return TeacherDecode(log_probs=concat(log_probs, axis=0), targets=targets)

    def nll_loss(self, source_ids, target_ids, rng=None, training: bool = False,
                 drop: float = 0.0) -> Tensor:
        dec = self.decode_teacher(source_ids, target_ids, rng=rng, training=training, drop=drop)
        return -tensor_sum(gather_rows(dec.log_probs, dec.targets))

    def decode_greedy_ids(self, source_ids, max_len: int) -> list[int]:
        """Argmax decoding until EOS or max_len; PAD is never emitted and
        EOS is masked at the first step so the output is non-empty."""
        if max_len < 1:
            raise DataError(f"max_len must be >= 1, got {max_len}")
        with no_grad():
            annotations, state = self._encode_source(source_ids)
            projected = matmul(annotations, self.u_h)
            cell_state = Tensor(np.zeros((1, self.d), dtype=self.dtype))
            token = BOS
            out: list[int] = []
            for step in range(max_len):
                x = embedding_lookup(self.tgt_embed, [token])
                state, cell_state = self.dec.step(x, state, cell_state)
                _, context = self._attend(state, annotations, projected)
                logits = self._output_logits(state, context).data[0].copy()
                logits[PAD] = -np.inf
                logits[BOS] = -np.inf
                if step == 0:
                    logits[EOS] = -np.inf
                token = int(np.argmax(logits))
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
    model = CompressionModel(
        vocab_size=int(data.config["vocab_size"]),
        d=int(data.config["d"]),
        rng=np.random.default_rng(0),
        attn_size=int(data.config["attn_size"]),
    )
    apply_state(model.parameters(), data.arrays)
    return model


def seq2seq_logprob(model: CompressionModel, source: Sentence, target: Sentence) -> tuple[float, int]:
    """Total teacher-forced log-probability of target (EOS included) and
    the token count it was summed over."""
    if source.ids is None or target.ids is None:
        raise DataError("sentences must carry vocabulary ids")
    with no_grad():
        dec = model.decode_teacher(source.ids, target.ids)
    return dec.total_logprob, dec.token_count


def s_score(model: CompressionModel, source: Sentence, target: Sentence) -> float:
    """exp(mean per-token log-probability); always in (0, 1]."""
    total, count = seq2seq_logprob(model, source, target)
    return float(np.exp(total / count))


def decode_greedy(model: CompressionModel, vocab: Vocabulary, source: Sentence,
                  max_len: int) -> Sentence:
    if source.ids is None:
        raise DataError("source sentence must carry vocabulary ids")
    ids = model.decode_greedy_ids(source.ids, max_len)
    return Sentence(tokens=vocab.decode(ids), ids=tuple(ids))


def perplexity(model: CompressionModel, pairs) -> float:
    """exp of mean per-token NLL over encoded compression pairs."""
    total = 0.0
    count = 0
    for pair in pairs:
        logprob, tokens = seq2seq_logprob(model, pair.source, pair.target)
        total += logprob
        count += tokens
    if count == 0:
        raise DataError("perplexity over an empty pair set")
    return float(np.exp(-total / count))


def train_compression(model: CompressionModel, pairs, val_pairs, config, rng) -> list[dict]:
    """Adam on teacher-forced cross-entropy; keeps the checkpoint with the
    lowest validation perplexity."""
    if not pairs:
        raise DataError("cannot train compression on an empty pair set")
    encoded = [(list(p.source.ids), list(p.target.ids)) for p in pairs]
    opt = Adam(model.parameters(), lr=config.compression_lr, beta1=config.beta1,
               beta2=config.beta2, eps=config.adam_eps)

    def item_loss(pair):
        source_ids, target_ids = pair
        loss = model.nll_loss(source_ids, target_ids, rng=rng,
                              training=True, drop=config.dropout)
        return loss, float(loss.data), len(target_ids) + 1

    def end_epoch(epoch, nll_sum, tokens):
        row = {"epoch": epoch, "train_ppl": float(np.exp(nll_sum / max(tokens, 1)))}
        if not val_pairs:
            return row, None, False
        row["val_ppl"] = perplexity(model, val_pairs)
        return row, -row["val_ppl"], False

    return fit(opt, encoded, item_loss, end_epoch, epochs=config.compression_epochs,
               batch_size=config.batch_size, clip_norm=config.clip_norm, rng=rng)
