"""Dense-tensor numerics: reverse-mode autodiff, LSTM cells, optimizers,
initialization, and the finite-difference gradient-check harness."""

from .tensor import (
    ShapeError,
    Tensor,
    Parameter,
    add,
    backward,
    concat,
    constant,
    detach,
    dropout,
    embedding_lookup,
    gather_rows,
    log_softmax,
    matmul,
    mean_over_axis,
    mul,
    neg,
    no_grad,
    sigmoid,
    slice_axis,
    softmax,
    sub,
    tensor_sum,
    tanh,
    transpose,
    zero_grads,
)
from .init import init_uniform
from .lstm import LSTMCell, run_bilstm, run_lstm, split_rows
from .optim import Adam, SGD, check_finite, clip_global_norm, fit
from .gradcheck import GradCheckReport, finite_difference_check
from .checkpoint import (
    CheckpointData,
    apply_state,
    atomic_write_text,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "ShapeError", "Tensor", "Parameter", "add", "backward", "concat", "constant",
    "detach", "dropout", "embedding_lookup", "gather_rows", "log_softmax", "matmul",
    "mean_over_axis", "mul", "neg", "no_grad", "sigmoid", "slice_axis", "softmax",
    "sub", "tensor_sum", "tanh", "transpose", "zero_grads",
    "init_uniform", "LSTMCell", "run_bilstm", "run_lstm", "split_rows",
    "Adam", "SGD", "check_finite", "clip_global_norm", "fit",
    "GradCheckReport", "finite_difference_check",
    "CheckpointData", "apply_state", "atomic_write_text",
    "load_checkpoint", "save_checkpoint",
]
