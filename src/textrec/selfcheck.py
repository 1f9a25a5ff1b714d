"""Independent oracles and the runtime self-check suite.

Two oracles: the brute-force CTC evaluator enumerates every path, and the
finite-difference (FD) checker compares each taped gradient against central
differences. Neither shares code with the implementations it verifies, so both
stay meaningful as oracles. ``CHECKS`` is the suite, one row of name, tolerance
and check per check; ``run_all`` runs it, and the benchmark runs ``run_all``
before every run and exits on a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from .backbone import AttentionModule, Backbone, BackboneConfig, BasicBlock, BatchNorm2d, map_to_sequence
from .ctc import collapse, ctc_loss, is_feasible
from .heads import BlstmConfig, ContextBranch, SupervisionBranch, lstm_scan
from .tensor import (
    Tape,
    Tensor,
    add,
    conv2d,
    getitem,
    linear,
    mul,
    relu,
    scale_channels,
    sigmoid,
    softmax_rows,
    sum_all,
    tanh,
)

# ---------------------------------------------------------------------------
# oracles


def brute_force_ctc_loss(probs: np.ndarray, label) -> float:
    """-ln of the summed probability of every path collapsing to ``label``.

    Exhaustive enumeration over all A**T paths; only usable at tiny sizes.
    """
    probs = np.asarray(probs, dtype=np.float64)
    t_len, num_classes = probs.shape
    target = [int(k) for k in label]
    total = 0.0
    for path in product(range(num_classes), repeat=t_len):
        if collapse(path) == target:
            p = 1.0
            for t, k in enumerate(path):
                p *= probs[t, k]
            total += p
    return math.inf if total == 0.0 else -math.log(total)


def all_feasible_labels(num_classes: int, num_frames: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Every blank-free label of length <= max_len feasible in ``num_frames``."""
    for length in range(0, max_len + 1):
        for combo in product(range(1, num_classes), repeat=length):
            if is_feasible(combo, num_frames):
                yield combo


def random_row_stochastic(rng: np.random.Generator, t_len: int, num_classes: int) -> np.ndarray:
    m = rng.uniform(0.05, 1.0, size=(t_len, num_classes))
    return m / m.sum(axis=1, keepdims=True)


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


# ---------------------------------------------------------------------------
# check suite
#
# Each check takes its own generator and returns its max error. Where it
# passes that generator to ``check_gradients``, the generator drew the check's
# inputs and then draws the FD probes. ``np.random`` appears at module level
# only in annotations, which stay strings: evaluating it there imports
# numpy.random with this module, which moved infer_paper's benchmark peak RSS
# up by 0.9 MiB.

SEED = 0
ORACLE_TRIALS = 5  # random ProbSequences per (frames, classes) cell of the oracle grid


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  max_err={self.max_error:.3e}  tol={self.tolerance:.0e}"


def _rng(name: str) -> np.random.Generator:
    """Check ``name``'s own generator, seeded from ``SEED`` and the name, so
    that no check's draws move the inputs of another."""
    return np.random.default_rng([SEED, *name.encode()])


def _random_affine(layer, rng: np.random.Generator) -> None:
    """Draw every BN γ in [0.5, 1.5] and β in [-0.5, 0.5], so no check runs at the identity init."""
    for name, p in layer.parameters().items():
        if name.endswith(".gamma"):
            p.data[:] = rng.uniform(0.5, 1.5, p.shape)
        elif name.endswith(".beta"):
            p.data[:] = rng.uniform(-0.5, 0.5, p.shape)


def _random_bn(layer, rng: np.random.Generator) -> None:
    """``_random_affine``, then every running μ in [-0.5, 0.5] and σ² in [0.5, 2]."""
    _random_affine(layer, rng)
    for st in layer.norm_states().values():
        st.running_mean[:] = rng.uniform(-0.5, 0.5, st.running_mean.shape)
        st.running_var[:] = rng.uniform(0.5, 2.0, st.running_var.shape)


def _weighted_check(op: Callable[[Tensor], Tensor]) -> Callable[[np.random.Generator], float]:
    """FD over x and y of sum(op(x) * y)."""

    def check(rng: np.random.Generator) -> float:
        x = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        y = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        return check_gradients(lambda: sum_all(mul(op(x), y)), [x, y], max_probe=64, rng=rng)

    return check


def _linear_check(rng: np.random.Generator) -> float:
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
    c = Tensor(rng.uniform(-2, 2, (6,)), requires_grad=True)
    w2 = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    return check_gradients(lambda: sum_all(mul(linear(a, b, c), w2)), [a, b, c], max_probe=64, rng=rng)


def _conv_check(stride: tuple[int, int], op: Callable[[Tensor], Tensor]) -> Callable[[np.random.Generator], float]:
    def check(rng: np.random.Generator) -> float:
        xi = Tensor(rng.uniform(-2, 2, (1, 2, 5, 5)), requires_grad=True)
        ki = Tensor(rng.uniform(-1, 1, (3, 2, 3, 1)), requires_grad=True)
        return check_gradients(lambda: sum_all(op(conv2d(xi, ki, stride=stride))), [xi, ki], max_probe=64, rng=rng)

    return check


def _scale_channels_check(rng: np.random.Generator) -> float:
    xa = Tensor(rng.uniform(-2, 2, (2, 3, 4, 4)), requires_grad=True)
    ma = Tensor(rng.uniform(0.1, 0.9, (2, 1, 4, 4)), requires_grad=True)
    return check_gradients(lambda: sum_all(scale_channels(xa, ma)), [xa, ma], max_probe=64, rng=rng)


def _ctc_through_softmax_check(rng: np.random.Generator) -> float:
    logits = Tensor(rng.uniform(-2, 2, (8, 5)), requires_grad=True)
    return check_gradients(lambda: ctc_loss(softmax_rows(logits), [1, 2, 1]), [logits], max_probe=64, rng=rng)


def _ctc_oracle_check(rng: np.random.Generator) -> float:
    worst = 0.0
    for t_len in range(1, 6):
        for num_classes in (2, 3):
            for _ in range(ORACLE_TRIALS):
                probs = random_row_stochastic(rng, t_len, num_classes)
                for label in all_feasible_labels(num_classes, t_len, max_len=3):
                    got = float(ctc_loss(Tensor(probs), list(label)).data)
                    want = brute_force_ctc_loss(probs, label)
                    worst = max(worst, abs(got - want))
    return worst


def _ctc_conservation_check(rng: np.random.Generator) -> float:
    worst = 0.0
    for t_len in (1, 2, 3, 4):
        for num_classes in (2, 3):
            probs = random_row_stochastic(rng, t_len, num_classes)
            total = 0.0
            for label in all_feasible_labels(num_classes, t_len, max_len=t_len):
                total += math.exp(-float(ctc_loss(Tensor(probs), list(label)).data))
            worst = max(worst, abs(total - 1.0))
    return worst


def _softmax_rowsum_check(rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(20):
        x = Tensor(rng.uniform(-1000, 1000, (6, 7)))
        rows = softmax_rows(x).data.sum(axis=1)
        worst = max(worst, float(np.max(np.abs(rows - 1.0))))
    return worst


def _determinism_check(rng: np.random.Generator) -> float:
    x = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
    bias = Tensor(np.zeros(3))
    grads = []
    for _ in range(2):  # two fresh tapes over the same inputs
        x.grad = w.grad = None
        with Tape() as tape:
            root = sum_all(sigmoid(linear(x, w, bias)))
        tape.backward(root)
        grads.append((x.grad, w.grad))
    return 0.0 if all(np.array_equal(a, b) for a, b in zip(*grads)) else 1.0


def _feature_pipeline_check(rng: np.random.Generator) -> float:
    cfg = BackboneConfig(stage_channels=(2, 3, 4, 5))
    backbone = Backbone(cfg, rng)
    attention = AttentionModule(cfg.out_channels, rng)
    image = Tensor(rng.uniform(0, 1, (1, 1, 32, 32)), requires_grad=True)

    def pipeline() -> Tensor:
        feats = backbone.forward(image, training=True)
        mask = attention.forward(feats)
        weighted = scale_channels(feats, mask)
        seq = map_to_sequence(weighted)
        return sum_all(tanh(seq))

    return check_gradients(pipeline, [image], max_probe=48, rng=rng)


def _branch_check(
    make: Callable[[np.random.Generator], ContextBranch | SupervisionBranch],
) -> Callable[[np.random.Generator], float]:
    """FD over the (4, 1, 6) input of the CTC loss of ``make(rng)``'s first sample."""

    def check(rng: np.random.Generator) -> float:
        branch = make(rng)
        seq_in = Tensor(rng.uniform(-1, 1, (4, 1, 6)), requires_grad=True)
        return check_gradients(lambda: ctc_loss(getitem(branch.forward(seq_in), (slice(None), 0)), [1, 2]), [seq_in])

    return check


def _lstm_scan_check(rng: np.random.Generator) -> float:
    # both scan directions, every input of the fused op, a batch of two
    seq2 = Tensor(rng.uniform(-1, 1, (4, 2, 3)), requires_grad=True)
    dirs = []
    for reverse in (False, True):
        w_x = Tensor(rng.uniform(-1, 1, (3, 12)), requires_grad=True)
        w_h = Tensor(rng.uniform(-1, 1, (3, 12)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (12,)), requires_grad=True)
        r = Tensor(rng.uniform(-1, 1, (4, 2, 3)))
        dirs.append((w_x, w_h, b, r, reverse))

    def scans() -> Tensor:
        fwd, bwd = (sum_all(mul(lstm_scan(seq2, w_x, w_h, b, rev), r)) for w_x, w_h, b, r, rev in dirs)
        return add(fwd, bwd)

    return check_gradients(scans, [seq2] + [t for d in dirs for t in d[:3]])


def _eval_paths_check(rng: np.random.Generator) -> float:
    # the untracked eval forward against the taped one, at the toy size with
    # one strip's running statistics and random affine parameters: both run
    # BatchNorm2d.normalize's running statistics, so they agree bitwise and
    # this reads 0; one narrow strip keeps the benchmark's memory baseline
    toy = Backbone(BackboneConfig(), rng)
    for st in toy.norm_states().values():
        st.momentum = 1.0
    toy.forward(Tensor(rng.uniform(0, 1, (1, 1, 32, 16))), training=True)
    _random_affine(toy, rng)
    strip = Tensor(rng.uniform(0, 1, (1, 1, 32, 16)))
    untracked = toy.forward(strip, training=False).data
    with Tape():
        taped = toy.forward(strip, training=False).data
    return float(np.max(np.abs(untracked - taped)) / np.max(np.abs(taped)))


def _batch_norm_check(rng: np.random.Generator) -> float:
    # the stem's BN op, FD over its input, γ and β: batch statistics, then taped eval
    bn = BatchNorm2d(4)
    xb = Tensor(rng.uniform(-2, 2, (3, 4, 2, 5)), requires_grad=True)
    rb = Tensor(rng.uniform(-1, 1, (3, 4, 2, 5)))
    _random_bn(bn, rng)
    return max(
        check_gradients(lambda: sum_all(mul(bn.forward(xb, train), rb)), [xb, bn.gamma, bn.beta], max_probe=64, rng=rng)
        for train in (True, False)
    )


def _basic_block_check(rng: np.random.Generator) -> float:
    # the residual block op, FD over its input and every parameter: both
    # shortcut kinds, batch statistics and taped eval, a batch of two
    worst = 0.0
    for in_ch, out_ch, stride in ((3, 3, 1), (3, 4, 2)):
        block = BasicBlock(rng, in_ch, out_ch, stride)
        _random_bn(block, rng)
        xk = Tensor(rng.uniform(-2, 2, (2, in_ch, 4, 6)), requires_grad=True)
        rk = Tensor(rng.uniform(-1, 1, (2, out_ch, 4 // stride, 6 // stride)))
        leaves = [xk, *block.parameters().values()]
        for training in (True, False):
            err = check_gradients(lambda: sum_all(mul(block.forward(xk, training), rk)), leaves, max_probe=32, rng=rng)
            worst = max(worst, err)
    return worst


CHECKS: tuple[tuple[str, float, Callable[[np.random.Generator], float]], ...] = (
    ("grad/mul", 1e-6, _weighted_check(lambda v: v)),
    *((f"grad/{op.__name__}", 1e-6, _weighted_check(op)) for op in (sigmoid, tanh, relu, softmax_rows)),
    ("grad/linear", 1e-6, _linear_check),
    ("grad/conv2d", 1e-6, _conv_check((1, 1), lambda v: v)),
    ("grad/conv2d_strided", 1e-6, _conv_check((2, 2), sigmoid)),
    ("grad/scale_channels", 1e-6, _scale_channels_check),
    ("grad/ctc_through_softmax", 1e-6, _ctc_through_softmax_check),
    ("ctc/oracle_equivalence", 1e-10, _ctc_oracle_check),
    ("ctc/probability_conservation", 1e-9, _ctc_conservation_check),
    ("softmax/rows_sum_to_one", 1e-12, _softmax_rowsum_check),
    ("tape/backward_determinism", 0.0, _determinism_check),
    ("grad/feature_pipeline_32x32", 1e-5, _feature_pipeline_check),
    ("grad/context_branch", 1e-5, _branch_check(lambda rng: ContextBranch(6, BlstmConfig(hidden_size=4), 4, rng))),
    ("grad/supervision_branch", 1e-5, _branch_check(lambda rng: SupervisionBranch(6, 4, rng))),
    ("grad/lstm_scan", 1e-6, _lstm_scan_check),
    ("eval/untracked_equals_taped", 1e-12, _eval_paths_check),
    ("grad/batch_norm", 1e-5, _batch_norm_check),
    ("grad/basic_block", 1e-5, _basic_block_check),
)


def run_all() -> list[CheckResult]:
    """Run the whole self-check suite; returns one result per row of ``CHECKS``, in order."""
    return [CheckResult(name, check(_rng(name)), tol) for name, tol, check in CHECKS]
