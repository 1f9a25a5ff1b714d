"""Central finite-difference gradient checking.

The checker is the independent oracle for every analytic backward pass in the
package: it re-evaluates the forward function with elementwise +/- step
perturbations and compares the quotient against the taped gradient.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tape, Tensor

STEP = 1e-6


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(1, |n|), elementwise."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(n))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def numeric_gradient(forward: Callable[[], float], leaf: Tensor, probe: np.ndarray) -> np.ndarray:
    """Central finite differences of ``forward()`` w.r.t. the flat elements ``probe`` of ``leaf.data``.

    Perturbs the leaf in place and restores it; both evaluations per element
    run without any tape. Returns one derivative per probed element.
    """
    flat = leaf.data.reshape(-1)
    grad = np.empty(len(probe))
    for j, i in enumerate(probe):
        orig = flat[i]
        flat[i] = orig + STEP
        hi = forward()
        flat[i] = orig - STEP
        lo = forward()
        flat[i] = orig
        grad[j] = (hi - lo) / (2.0 * STEP)
    return grad


def check_gradients(
    build: Callable[[], Tensor],
    leaves: Sequence[Tensor],
    max_probe: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare taped gradients of the scalar ``build()`` against finite differences.

    Returns the worst relative error over all probed elements of all leaves.
    ``max_probe`` caps the number of elements probed per leaf (random subset),
    keeping large-parameter checks affordable; the analytic side is always the
    full backward pass.
    """
    with Tape() as tape:
        root = build()
    for leaf in leaves:
        leaf.grad = None
    tape.backward(root)
    analytic = [
        np.zeros(leaf.size) if leaf.grad is None else leaf.grad.reshape(-1).copy() for leaf in leaves
    ]

    def forward() -> float:
        return build().item()

    worst = 0.0
    for leaf, ana in zip(leaves, analytic):
        if max_probe is not None and leaf.size > max_probe:
            r = rng if rng is not None else np.random.default_rng(0)
            probe = r.choice(leaf.size, size=max_probe, replace=False)
        else:
            probe = np.arange(leaf.size)
        worst = max(worst, relative_error(ana[probe], numeric_gradient(forward, leaf, probe)))
    return worst
