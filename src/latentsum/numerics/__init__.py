"""Dense-tensor numerics: reverse-mode autodiff, LSTM cells, optimizers,
initialization and the checkpoint format."""

from .tensor import (
    ShapeError, Tensor, Parameter, add, backward, concat, constant, detach, dropout,
    dropout_mask, embedding_lookup, gather_rows, join_masks, log_softmax, matmul,
    matmul_gemm, matmul_rowwise, mul, neg, no_grad, reshape, segment_mean, sigmoid,
    slice_axis, softmax, sub, tensor_sum, tanh, transpose, zero_grads,
)
from .init import init_uniform
from .lstm import LSTMCell, lstm_sequence, run_bilstm, step_schedule
from .optim import Adam, SGD, clip_global_norm, clip_report, fit
from .checkpoint import (
    CheckpointData,
    apply_state,
    atomic_write_text,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "ShapeError", "Tensor", "Parameter", "add", "backward", "concat", "constant",
    "detach", "dropout", "dropout_mask", "embedding_lookup", "gather_rows", "join_masks",
    "log_softmax", "matmul", "matmul_gemm", "matmul_rowwise", "segment_mean",
    "mul", "neg", "no_grad", "reshape", "sigmoid", "slice_axis", "softmax",
    "sub", "tensor_sum", "tanh", "transpose", "zero_grads",
    "init_uniform", "LSTMCell", "lstm_sequence", "run_bilstm", "step_schedule",
    "Adam", "SGD", "clip_global_norm", "clip_report", "fit",
    "CheckpointData", "apply_state", "atomic_write_text",
    "load_checkpoint", "save_checkpoint",
]
