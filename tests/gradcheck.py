"""Finite-difference verification of autodiff gradients, the test suite's
one gradient checker (acceptance gate C2 and the per-module checks).

The loss callable must be a deterministic pure function of the parameter
values (fix any sampling or dropout masks before checking) and the
parameters should be 64-bit for the stated tolerances to be meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from latentsum.numerics import backward, zero_grads


@dataclass
class GradCheckReport:
    checked: int
    max_rel_error: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def finite_difference_check(params, loss_fn, rng, num_coords: int = 200,
                            eps: float = 1e-5, rtol: float = 1e-4) -> GradCheckReport:
    """Compare autodiff grads against (f(x+eps) - f(x-eps)) / 2eps on
    randomly sampled parameter coordinates.

    Relative error uses a denominator floor of 1e-3 so that near-zero
    coordinates are judged by an absolute criterion compatible with
    finite-difference noise.
    """
    params = [p for p in params if p.data.size > 0]
    zero_grads(params)
    backward(loss_fn())
    analytic = {id(p): p.grad_or_zeros().copy() for p in params}

    sizes = np.array([p.data.size for p in params], dtype=np.float64)
    probs = sizes / sizes.sum()
    report = GradCheckReport(checked=0, max_rel_error=0.0)
    for _ in range(num_coords):
        p = params[int(rng.choice(len(params), p=probs))]
        flat_index = int(rng.integers(p.data.size))
        index = np.unravel_index(flat_index, p.data.shape)
        # parameter arrays are read-only: bind perturbed copies, then the
        # original array again
        original = p.data
        losses = []
        for step in (eps, -eps):
            perturbed = original.copy()
            perturbed[index] += step
            p.data = perturbed
            losses.append(float(loss_fn().data))
        p.data = original
        fd = (losses[0] - losses[1]) / (2.0 * eps)
        an = float(analytic[id(p)][index])
        rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-3)
        report.checked += 1
        report.max_rel_error = max(report.max_rel_error, rel)
        if rel > rtol:
            report.failures.append((getattr(p, "name", "?"), index, an, fd, rel))
    return report
