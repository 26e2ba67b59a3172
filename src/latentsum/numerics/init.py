"""Parameter initialization."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


# samples drawn at a time: the float64 draw is this size, not the array's
DRAW_BLOCK = 1 << 16


def init_uniform(shape, columns: int, rng, dtype=np.float32) -> Tensor:
    """Uniform samples in [-1/sqrt(c), +1/sqrt(c)] where c is the column
    count of the weight matrix being initialized, drawn into the array
    DRAW_BLOCK at a time: the generator yields the same stream, so the bits
    and its state are those of one draw of the whole shape. Without ``rng``
    nothing is drawn or allocated: the array is a read-only zero-stride
    view of one zero, the placeholder that a checkpoint loader's model
    holds until ``apply_state`` binds every parameter."""
    if rng is None:
        zero = np.zeros((), dtype=dtype)
        zero.setflags(write=False)
        return Tensor(np.broadcast_to(zero, shape))
    out = np.empty(shape, dtype=dtype)
    bound = 1.0 / np.sqrt(columns)
    flat = out.reshape(-1)
    for start in range(0, flat.size, DRAW_BLOCK):
        block = flat[start:start + DRAW_BLOCK]
        block[...] = rng.uniform(-bound, bound, size=block.size)
    return Tensor(out)
