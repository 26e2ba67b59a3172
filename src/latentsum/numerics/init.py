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
    nothing is drawn and the values are unset: a checkpoint loader builds
    its model so, and ``apply_state`` then binds every parameter."""
    out = np.empty(shape, dtype=dtype)
    if rng is not None:
        bound = 1.0 / np.sqrt(columns)
        flat = out.reshape(-1)
        for start in range(0, flat.size, DRAW_BLOCK):
            block = flat[start:start + DRAW_BLOCK]
            block[...] = rng.uniform(-bound, bound, size=block.size)
    return Tensor(out)
