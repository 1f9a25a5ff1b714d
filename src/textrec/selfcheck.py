"""Independent oracles and the runtime self-check suite.

The brute-force CTC evaluator enumerates every path; the gradient checks use
central finite differences. Neither shares code with the implementations they
verify, so they stay meaningful as oracles. ``run_all`` powers the
``selfcheck`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

import numpy as np

from .ctc import collapse, ctc_loss, is_feasible
from .gradcheck import check_gradients
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


# ---------------------------------------------------------------------------
# check suite

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


def _op_gradient_checks() -> list[CheckResult]:
    checks: list[CheckResult] = []

    def check(name: str, build: Callable[[], Tensor], leaves, rng: np.random.Generator, tol: float = 1e-6) -> None:
        # rng drew the check's inputs and now draws check_gradients' probes
        err = check_gradients(build, leaves, max_probe=64, rng=rng)
        checks.append(CheckResult(f"grad/{name}", err, tol))

    def same(v: Tensor) -> Tensor:
        return v

    unary = (("mul", same), ("sigmoid", sigmoid), ("tanh", tanh), ("relu", relu), ("softmax_rows", softmax_rows))
    for name, op in unary:
        rng = _rng(f"grad/{name}")
        x = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        y = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        check(name, lambda: sum_all(mul(op(x), y)), [x, y], rng)

    rng = _rng("grad/linear")
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
    c = Tensor(rng.uniform(-2, 2, (6,)), requires_grad=True)
    w2 = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    check("linear", lambda: sum_all(mul(linear(a, b, c), w2)), [a, b, c], rng)

    for name, stride, op in (("conv2d", (1, 1), same), ("conv2d_strided", (2, 2), sigmoid)):
        rng = _rng(f"grad/{name}")
        xi = Tensor(rng.uniform(-2, 2, (1, 2, 5, 5)), requires_grad=True)
        ki = Tensor(rng.uniform(-1, 1, (3, 2, 3, 1)), requires_grad=True)
        check(name, lambda: sum_all(op(conv2d(xi, ki, stride=stride))), [xi, ki], rng)

    rng = _rng("grad/scale_channels")
    xa = Tensor(rng.uniform(-2, 2, (2, 3, 4, 4)), requires_grad=True)
    ma = Tensor(rng.uniform(0.1, 0.9, (2, 1, 4, 4)), requires_grad=True)
    check("scale_channels", lambda: sum_all(scale_channels(xa, ma)), [xa, ma], rng)

    rng = _rng("grad/ctc_through_softmax")
    logits = Tensor(rng.uniform(-2, 2, (8, 5)), requires_grad=True)
    check("ctc_through_softmax", lambda: ctc_loss(softmax_rows(logits), [1, 2, 1]), [logits], rng)
    return checks


def _ctc_oracle_check() -> CheckResult:
    rng = _rng("ctc/oracle_equivalence")
    worst = 0.0
    for t_len in range(1, 6):
        for num_classes in (2, 3):
            for _ in range(ORACLE_TRIALS):
                probs = random_row_stochastic(rng, t_len, num_classes)
                for label in all_feasible_labels(num_classes, t_len, max_len=3):
                    got = float(ctc_loss(Tensor(probs), list(label)).data)
                    want = brute_force_ctc_loss(probs, label)
                    worst = max(worst, abs(got - want))
    return CheckResult("ctc/oracle_equivalence", worst, 1e-10)


def _ctc_conservation_check() -> CheckResult:
    rng = _rng("ctc/probability_conservation")
    worst = 0.0
    for t_len in (1, 2, 3, 4):
        for num_classes in (2, 3):
            probs = random_row_stochastic(rng, t_len, num_classes)
            total = 0.0
            for label in all_feasible_labels(num_classes, t_len, max_len=t_len):
                total += math.exp(-float(ctc_loss(Tensor(probs), list(label)).data))
            worst = max(worst, abs(total - 1.0))
    return CheckResult("ctc/probability_conservation", worst, 1e-9)


def _softmax_rowsum_check() -> CheckResult:
    rng = _rng("softmax/rows_sum_to_one")
    worst = 0.0
    for _ in range(20):
        x = Tensor(rng.uniform(-1000, 1000, (6, 7)))
        rows = softmax_rows(x).data.sum(axis=1)
        worst = max(worst, float(np.max(np.abs(rows - 1.0))))
    return CheckResult("softmax/rows_sum_to_one", worst, 1e-12)


def _determinism_check() -> CheckResult:
    rng = _rng("tape/backward_determinism")
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
    same = all(np.array_equal(a, b) for a, b in zip(*grads))
    return CheckResult("tape/backward_determinism", 0.0 if same else 1.0, 0.0)


def run_all() -> list[CheckResult]:
    """Run the whole self-check suite; returns one result per check."""
    results = _op_gradient_checks()
    results += [_ctc_oracle_check(), _ctc_conservation_check(), _softmax_rowsum_check(), _determinism_check()]
    return results + _pipeline_checks()


def _pipeline_checks() -> list[CheckResult]:
    # imported lazily: backbone/heads sit above this module in the layering
    from .backbone import AttentionModule, Backbone, BackboneConfig, BasicBlock, BatchNorm2d, map_to_sequence
    from .heads import BlstmConfig, ContextBranch, SupervisionBranch, lstm_scan

    checks: list[CheckResult] = []
    rng = _rng("grad/feature_pipeline_32x32")
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

    err = check_gradients(pipeline, [image], max_probe=48, rng=rng)
    checks.append(CheckResult("grad/feature_pipeline_32x32", err, 1e-5))

    for name in ("context_branch", "supervision_branch"):
        rng = _rng(f"grad/{name}")
        if name == "context_branch":
            branch = ContextBranch(6, BlstmConfig(hidden_size=4), num_classes=4, rng=rng)
        else:
            branch = SupervisionBranch(6, num_classes=4, rng=rng)
        seq_in = Tensor(rng.uniform(-1, 1, (4, 1, 6)), requires_grad=True)
        err = check_gradients(
            lambda: ctc_loss(getitem(branch.forward(seq_in), (slice(None), 0)), [1, 2]),
            [seq_in],
            max_probe=None,
        )
        checks.append(CheckResult(f"grad/{name}", err, 1e-5))

    # both scan directions, every input of the fused op, a batch of two
    rng = _rng("grad/lstm_scan")
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

    err = check_gradients(scans, [seq2] + [t for d in dirs for t in d[:3]], max_probe=None)
    checks.append(CheckResult("grad/lstm_scan", err, 1e-6))

    # the untracked eval forward against the taped one, at the toy size with
    # one strip's running statistics and random affine parameters: both run
    # BatchNorm2d.normalize's running statistics, so they agree bitwise and
    # this reads 0; one narrow strip keeps the benchmark's memory baseline
    rng = _rng("eval/bn_fold")
    toy = Backbone(BackboneConfig(), rng)
    for st in toy.norm_states().values():
        st.momentum = 1.0
    toy.forward(Tensor(rng.uniform(0, 1, (1, 1, 32, 16))), training=True)
    _random_affine(toy, rng)
    strip = Tensor(rng.uniform(0, 1, (1, 1, 32, 16)))
    folded = toy.forward(strip, training=False).data
    with Tape():
        unfolded = toy.forward(strip, training=False).data
    err = float(np.max(np.abs(folded - unfolded)) / np.max(np.abs(unfolded)))
    checks.append(CheckResult("eval/bn_fold", err, 1e-12))

    # the stem's BN op, FD over its input, γ and β: batch statistics, then taped eval
    rng = _rng("grad/batch_norm")
    bn = BatchNorm2d(4)
    xb = Tensor(rng.uniform(-2, 2, (3, 4, 2, 5)), requires_grad=True)
    rb = Tensor(rng.uniform(-1, 1, (3, 4, 2, 5)))
    _random_bn(bn, rng)
    errs = [
        check_gradients(lambda: sum_all(mul(bn.forward(xb, train), rb)), [xb, bn.gamma, bn.beta], max_probe=64, rng=rng)
        for train in (True, False)
    ]
    checks.append(CheckResult("grad/batch_norm", max(errs), 1e-5))

    # the residual block op, FD over its input and every parameter: both
    # shortcut kinds, batch statistics and taped eval, a batch of two
    rng = _rng("grad/basic_block")
    worst = 0.0
    for in_ch, out_ch, stride in ((3, 3, 1), (3, 4, 2)):
        block = BasicBlock(rng, in_ch, out_ch, stride)
        _random_bn(block, rng)
        xk = Tensor(rng.uniform(-2, 2, (2, in_ch, 4, 6)), requires_grad=True)
        rk = Tensor(rng.uniform(-1, 1, (2, out_ch, 4 // stride, 6 // stride)))
        for training in (True, False):
            err = check_gradients(
                lambda: sum_all(mul(block.forward(xk, training), rk)),
                [xk, *block.parameters().values()],
                max_probe=32,
                rng=rng,
            )
            worst = max(worst, err)
    checks.append(CheckResult("grad/basic_block", worst, 1e-5))
    return checks


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
