"""Parameter initialization."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def init_uniform(shape, columns: int, rng, dtype=np.float32) -> Tensor:
    """Uniform samples in [-1/sqrt(c), +1/sqrt(c)] where c is the column
    count of the weight matrix being initialized."""
    bound = 1.0 / np.sqrt(columns)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype))
