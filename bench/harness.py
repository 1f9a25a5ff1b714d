"""Closed-loop train/infer benchmark of textrec, composed from its public API.

One process, one caller: the next batch starts only when the previous one has
finished. A run sets up (renders the strip pool, builds the model), warms up,
then runs steps for a fixed number of seconds. Untraced runs report the
end-to-end metrics. Traced runs execute every layer under its own ``Tape``
with its input detached as a leaf, time its forward and backward from
outside, and check that the composition reproduces the single-tape step.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "textrec").is_dir():
    raise ImportError(f"textrec sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from textrec import selfcheck  # noqa: E402
from textrec.backbone import AttentionModule, Backbone, BackboneConfig, map_to_sequence  # noqa: E402
from textrec.ctc import Alphabet, ctc_loss, greedy_decode  # noqa: E402
from textrec.datagen import GenConfig, make_split  # noqa: E402
from textrec.heads import BlstmConfig, ContextBranch, SupervisionBranch  # noqa: E402
from textrec.tensor import (  # noqa: E402
    Tape,
    Tensor,
    add,
    getitem,
    linear,
    mul,
    relu,
    reshape,
    scale,
    scale_channels,
    softmax_rows,
    sum_all,
)

LEARNING_RATE = 0.05
MODEL_SEED = 0  # weights are fixed, as a checkpoint would be; --seed draws the strips
SETUP_REPEATS = 3  # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 1.0
WARMUP_S = 1.0
ROWSUM_TOL = 1e-12  # probability rows of both branches sum to 1
TRACE_REL_TOL = 1e-9  # traced per-layer step against the single-tape step
BATCH_TOL = 1e-10  # batched eval outputs against per-sample outputs
CALIBRATION_STRIPS = 2
INFER_GRAD_STRIPS = 2
BACKBONE_LAYERS = ("stem", "stage0", "stage1", "stage2", "stage3", "attention")
HEAD_LAYERS = ("blstm1", "blstm2", "context_out", "supervision")


@dataclass(frozen=True)
class Workload:
    """One benchmark input set: model sizes, strip generator, batch and mode.

    Every label length in ``gen`` gets its own pool, so each batch holds one
    width and the schedule visits the widths round-robin, whatever the seed.
    ``loss_end`` is the mean dual-CTC loss of steps
    [loss_steps - loss_window, loss_steps), counted from the first step.
    """

    name: str
    why: str
    backbone: BackboneConfig
    heads: BlstmConfig
    gen: GenConfig
    batch: int
    train: bool
    batches_per_width: int
    loss_steps: int
    loss_window: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_toy",
            why="shipped toy model, training steps: conv2d backward in the backbone dominates the step",
            backbone=BackboneConfig(),
            heads=BlstmConfig(),
            gen=GenConfig(),
            batch=8,
            train=True,
            batches_per_width=4,
            loss_steps=15,
            loss_window=9,
        ),
        Workload(
            name="train_longline",
            why="light backbone on 16-20 character lines (T=35-43): the per-step BLSTM scan and getitem backward dominate",
            backbone=BackboneConfig(stage_channels=(4, 4, 8, 8)),
            heads=BlstmConfig(hidden_size=64),
            gen=GenConfig(min_len=16, max_len=20),
            batch=2,
            train=True,
            batches_per_width=4,
            loss_steps=15,
            loss_window=10,
        ),
        Workload(
            name="infer_paper",
            why="paper-scale backbone, eval forward plus greedy decode, no tape: backbone forward dominates",
            backbone=BackboneConfig.paper_scale(),
            heads=BlstmConfig(),
            gen=GenConfig(),
            batch=8,
            train=False,
            batches_per_width=2,
            loss_steps=6,
            loss_window=6,
        ),
    )
}


# ---------------------------------------------------------------------------
# set-up: strip pool and model


@dataclass
class Batch:
    images: np.ndarray  # (N, 1, 32, W), one width per batch
    labels: list[list[int]]


@dataclass
class Model:
    backbone: Backbone
    attention: AttentionModule
    context: ContextBranch
    supervision: SupervisionBranch

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for prefix, part in (
            ("backbone", self.backbone),
            ("attention", self.attention),
            ("context", self.context),
            ("supervision", self.supervision),
        ):
            for k, v in part.parameters().items():
                out[f"{prefix}.{k}"] = v
        return out


@dataclass
class Setup:
    model: Model
    batches: list[Batch]
    alphabet: Alphabet
    render_s: float
    strips: int
    widths: int


def _derived_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence((seed, *keys)).generate_state(1)[0])


def setup(w: Workload, seed: int) -> Setup:
    """Render the strip pool, build the model, and (inference) calibrate it."""
    alphabet = Alphabet(w.gen.charset)
    count = w.batch * w.batches_per_width
    t0 = perf_counter()
    pools = []
    for length in range(w.gen.min_len, w.gen.max_len + 1):
        cfg = replace(w.gen, min_len=length, max_len=length)
        train, test = make_split(cfg, count, count, _derived_seed(seed, length))
        pools.append(train if w.train else test)
    render_s = perf_counter() - t0
    batches = []
    for b in range(w.batches_per_width):
        for pool in pools:
            chunk = pool[b * w.batch : (b + 1) * w.batch]
            images = np.concatenate([s.image for s in chunk])
            batches.append(Batch(images, [alphabet.encode(s.label) for s in chunk]))

    rng = np.random.default_rng(MODEL_SEED)
    backbone = Backbone(w.backbone, rng)
    attention = AttentionModule(w.backbone.out_channels, rng)
    features = 4 * w.backbone.out_channels  # /8 of the 32-pixel strip height, times depth
    model = Model(
        backbone,
        attention,
        ContextBranch(features, w.heads, alphabet.num_classes, rng),
        SupervisionBranch(features, alphabet.num_classes, rng),
    )
    if not w.train:
        # An untrained network in eval mode uses the initial running stats and
        # saturates; one batch-statistics pass over fixed strips stands in for
        # a trained model.
        cfg = replace(w.gen, max_len=w.gen.min_len)
        calib = np.concatenate([s.image for s in make_split(cfg, CALIBRATION_STRIPS, 1, MODEL_SEED)[0]])
        states = list(backbone.norm_states().values())
        momenta = [st.momentum for st in states]
        for st in states:
            st.momentum = 1.0
        backbone.forward(Tensor(calib), training=True)
        for st, m in zip(states, momenta):
            st.momentum = m
    return Setup(model, batches, alphabet, render_s, 2 * count * len(pools), len(pools))


def timed_setup(w: Workload, seed: int) -> tuple[Setup, float]:
    """Set up repeatedly; return the last set-up and the median time."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = perf_counter()
        st = setup(w, seed)
        times.append(perf_counter() - t0)
    return st, statistics.median(times)


@contextmanager
def frozen_norm_stats(model: Model):
    """Restore the backbone's running BN statistics after training-mode passes."""
    saved = {k: (s.running_mean.copy(), s.running_var.copy()) for k, s in model.backbone.norm_states().items()}
    try:
        yield
    finally:
        for k, s in model.backbone.norm_states().items():
            s.running_mean[:], s.running_var[:] = saved[k]


# ---------------------------------------------------------------------------
# the step, untraced


def forward(model: Model, images: np.ndarray, training: bool) -> tuple[Tensor, Tensor]:
    f = model.backbone.forward(Tensor(images), training)
    seq = map_to_sequence(scale_channels(f, model.attention.forward(f)))
    return model.context.forward(seq), model.supervision.forward(seq)


def dual_ctc(pc: Tensor, ps: Tensor, labels: list[list[int]]) -> Tensor:
    """Batch mean of per-sample CTC(context) + CTC(supervision)."""
    total = None
    for n, label in enumerate(labels):
        idx = (slice(None), n)
        pair = add(ctc_loss(getitem(pc, idx), label), ctc_loss(getitem(ps, idx), label))
        total = pair if total is None else add(total, pair)
    return scale(total, 1.0 / len(labels))


def sgd(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.data -= LEARNING_RATE * p.grad
        p.grad = None


def rowsum_error(*probs: Tensor) -> float:
    return max(float(np.max(np.abs(p.data.sum(axis=-1) - 1.0))) for p in probs)


def decode_all(pc: Tensor, ps: Tensor) -> list[tuple[list[int], list[int]]]:
    return [(greedy_decode(pc.data[:, n]), greedy_decode(ps.data[:, n])) for n in range(pc.shape[1])]


@dataclass
class StepResult:
    seconds: float
    loss: float
    finite: bool  # loss and every gradient finite
    rowsum_err: float
    decoded_ok: bool = True
    backward_s: float = 0.0
    records: int = 0
    outputs: tuple[np.ndarray, np.ndarray] | None = None


def train_step(model: Model, params: dict[str, Tensor], batch: Batch) -> StepResult:
    t0 = perf_counter()
    with Tape() as tape:
        pc, ps = forward(model, batch.images, training=True)
        loss = dual_ctc(pc, ps, batch.labels)
    t1 = perf_counter()
    tape.backward(loss)
    t2 = perf_counter()
    finite = bool(np.isfinite(loss.data)) and all(np.isfinite(p.grad).all() for p in params.values())
    t3 = perf_counter()
    if finite:
        sgd(params)
    else:
        for p in params.values():
            p.grad = None
    seconds = (t2 - t0) + (perf_counter() - t3)
    return StepResult(seconds, loss.item(), finite, rowsum_error(pc, ps), backward_s=t2 - t1, records=len(tape))


def infer_step(model: Model, batch: Batch, num_classes: int) -> StepResult:
    t0 = perf_counter()
    pc, ps = forward(model, batch.images, training=False)
    decoded = decode_all(pc, ps)
    seconds = perf_counter() - t0
    loss = dual_ctc(pc, ps, batch.labels).item()  # no tape is active: plain numpy
    ok = all(1 <= k < num_classes for pair in decoded for ids in pair for k in ids)
    return StepResult(seconds, loss, math.isfinite(loss), rowsum_error(pc, ps), ok, outputs=(pc.data, ps.data))


# ---------------------------------------------------------------------------
# the step, traced layer by layer


class LayerTrace:
    """Runs each layer under its own Tape with detached leaf inputs.

    Backward replays the layers in reverse; each layer's tape is seeded with
    the real upstream gradient through ``sum_all(mul(out, g))``.
    """

    def __init__(self, training: bool):
        self.training = training
        self.spans: dict[str, float] = {}
        self.records: dict[str, int] = {}
        self._layers: list[tuple[str, Tape | None, Tensor]] = []
        self._leaves: dict[int, list[Tensor]] = {}  # id(layer output) -> leaves detached from it

    def layer(self, name: str, fn, *inputs: Tensor) -> Tensor:
        args = []
        for t in inputs:
            if id(t) in self._leaves:
                leaf = Tensor(t.data, requires_grad=self.training)
                self._leaves[id(t)].append(leaf)
                t = leaf
            args.append(t)
        t0 = perf_counter()
        if self.training:
            with Tape() as tape:
                out = fn(*args)
        else:
            tape, out = None, fn(*args)
        self.spans[f"{name}.fwd"] = perf_counter() - t0
        self.records[name] = len(tape) if tape is not None else 0
        self._layers.append((name, tape, out))
        self._leaves[id(out)] = []
        return out

    def span(self, name: str, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.spans[name] = perf_counter() - t0
        return out

    def backward(self) -> None:
        (name, tape, loss), *rest = reversed(self._layers)
        t0 = perf_counter()
        tape.backward(loss)
        self.spans[f"{name}.bwd"] = perf_counter() - t0
        for name, tape, out in rest:
            t0 = perf_counter()
            g = sum(leaf.grad for leaf in self._leaves[id(out)])
            with tape:
                root = sum_all(mul(out, Tensor(g)))
            tape.backward(root)
            self.spans[f"{name}.bwd"] = perf_counter() - t0
        self._layers.clear()  # drop the tapes and activations once replayed
        self._leaves.clear()


def _stem(backbone: Backbone, training: bool, x: Tensor) -> Tensor:
    return relu(backbone.stem_bn.forward(backbone.stem_conv.forward(x), training))


def _stage(blocks, training: bool, x: Tensor) -> Tensor:
    for block in blocks:
        x = block.forward(x, training)
    return x


def _attention(attention: AttentionModule, f: Tensor) -> Tensor:
    return map_to_sequence(scale_channels(f, attention.forward(f)))


def _context_out(branch: ContextBranch, h: Tensor) -> Tensor:
    """The tail of ContextBranch.forward after the two BLSTM layers."""
    t_len, n, width = h.shape
    logits = linear(reshape(h, (t_len * n, width)), branch.fc_w, branch.fc_b)
    logits = reshape(logits, (t_len, n, branch.fc_b.size))
    probs = softmax_rows(reshape(logits, (t_len * n, branch.fc_b.size)))
    return reshape(probs, (t_len, n, branch.fc_b.size))


def traced_forward(tr: LayerTrace, model: Model, images: np.ndarray) -> tuple[Tensor, Tensor]:
    bb, training = model.backbone, tr.training
    x = tr.layer("backbone.stem", partial(_stem, bb, training), Tensor(images))
    for s, blocks in enumerate(bb.stages):
        x = tr.layer(f"backbone.stage{s}", partial(_stage, blocks, training), x)
    seq = tr.layer("backbone.attention", partial(_attention, model.attention), x)
    h = tr.layer("heads.blstm1", model.context.layer1.forward, seq)
    h = tr.layer("heads.blstm2", model.context.layer2.forward, h)
    pc = tr.layer("heads.context_out", partial(_context_out, model.context), h)
    ps = tr.layer("heads.supervision", model.supervision.forward, seq)
    return pc, ps


@dataclass
class TracedStep:
    seconds: float
    spans: dict[str, float]
    records: dict[str, int]
    loss: float
    outputs: tuple[np.ndarray, np.ndarray]
    decode_s: float
    gflop: float

    def share(self, prefix: str) -> float:
        """Summed time of the spans named ``prefix...`` as a share of the step."""
        return sum(t for k, t in self.spans.items() if k.startswith(prefix)) / self.seconds


def traced_train_step(model: Model, params: dict[str, Tensor], batch: Batch, update: bool) -> TracedStep:
    tr = LayerTrace(training=True)
    t0 = perf_counter()
    pc, ps = traced_forward(tr, model, batch.images)
    loss = tr.layer("ctc.loss", partial(dual_ctc, labels=batch.labels), pc, ps)
    tr.backward()
    if update:
        tr.span("sgd", sgd, params)
    seconds = perf_counter() - t0
    t1 = perf_counter()
    decode_all(pc, ps)  # timed for ctc.decode_ms; not part of a training step
    decode_s = perf_counter() - t1
    gflop = conv_gflop(model, batch.images.shape)
    return TracedStep(seconds, tr.spans, tr.records, loss.item(), (pc.data, ps.data), decode_s, gflop)


def traced_infer_step(model: Model, batch: Batch) -> TracedStep:
    tr = LayerTrace(training=False)
    t0 = perf_counter()
    pc, ps = traced_forward(tr, model, batch.images)
    tr.span("ctc.decode", decode_all, pc, ps)
    seconds = perf_counter() - t0
    gflop = conv_gflop(model, batch.images.shape)
    return TracedStep(seconds, tr.spans, tr.records, float("nan"), (pc.data, ps.data), tr.spans["ctc.decode"], gflop)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale_ = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b))) / scale_


def trace_equivalence(model: Model, params: dict[str, Tensor], batch: Batch) -> dict:
    """Loss and every gradient of the traced step against one single-tape step."""
    with frozen_norm_stats(model):
        with Tape() as tape:
            pc, ps = forward(model, batch.images, training=True)
            loss = dual_ctc(pc, ps, batch.labels)
        t0 = perf_counter()
        tape.backward(loss)
        backward_s = perf_counter() - t0
        ref = {k: p.grad.copy() for k, p in params.items()}
        ref_loss, ref_records = loss.item(), len(tape)
        del tape, pc, ps, loss  # free the single tape before the traced step
        for p in params.values():
            p.grad = None
        traced = traced_train_step(model, params, batch, update=False)
        err = _rel_err(np.asarray(ref_loss), np.asarray(traced.loss))
        for k, p in params.items():
            err = max(err, _rel_err(ref[k], p.grad))
            p.grad = None
    return {
        "max_rel_err": err,
        "records_single_tape": ref_records,
        "records_traced": sum(traced.records.values()),
        "backward_s": backward_s,
        "step": traced,
    }


def tape_held_bytes(model: Model, batch: Batch) -> int:
    """tracemalloc growth from the start of forward to the start of backward."""
    with frozen_norm_stats(model):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                pc, ps = forward(model, batch.images, training=True)
                loss = dual_ctc(pc, ps, batch.labels)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    del tape, pc, ps, loss
    return held


def conv_gflop(model: Model, images_shape: tuple[int, ...]) -> float:
    """Forward multiply-add FLOPs of every backbone and attention convolution."""
    n, _, h, w = images_shape
    flops = 0

    def conv(weight: Tensor, stride, h, w):
        nonlocal flops
        k, c, kh, kw = weight.shape
        ho, wo = -(-h // stride[0]), -(-w // stride[1])
        flops += 2 * n * k * c * kh * kw * ho * wo
        return ho, wo

    bb = model.backbone
    h, w = conv(bb.stem_conv.weight, bb.stem_conv.stride, h, w)
    for blocks in bb.stages:
        for block in blocks:
            ho, wo = conv(block.conv1.weight, block.conv1.stride, h, w)
            conv(block.conv2.weight, block.conv2.stride, ho, wo)
            if block.proj is not None:
                conv(block.proj.weight, block.proj.stride, h, w)
            h, w = ho, wo
    conv(model.attention.conv_w, (1, 1), h, w)
    return flops / 1e9


def batch_invariance_error(model: Model, batch: Batch, batched: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest gap between batched eval outputs and per-sample eval outputs."""
    err = 0.0
    for n in range(batch.images.shape[0]):
        pc, ps = forward(model, batch.images[n : n + 1], training=False)
        err = max(err, float(np.max(np.abs(pc.data[:, 0] - batched[0][:, n]))))
        err = max(err, float(np.max(np.abs(ps.data[:, 0] - batched[1][:, n]))))
    return err


# ---------------------------------------------------------------------------
# runs


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, else the env setting."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(env) if env else None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_selfcheck() -> None:
    failures = [r.line() for r in selfcheck.run_all() if not r.passed]
    if failures:
        raise SystemExit("selfcheck failed:\n" + "\n".join(failures))


def tail(step_s: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 steps beyond it, and its value in ms.

    Under 20 steps no percentile at or above the median has 10 steps beyond
    it, so the slowest step (p100) is reported instead.
    """
    n = len(step_s)
    if n < 20:
        return 100.0, 1000 * max(step_s)
    pct = math.floor(100 * (1 - 10 / n))
    return float(pct), 1000 * float(np.percentile(step_s, pct))


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, dict] = field(default_factory=dict)
    checks: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, name: str, value: float, tol: float) -> None:
        self.checks[name] = value
        if not value <= tol:
            self.correct = False

    def result(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed, "metrics": self.metrics}


class Runner:
    """Drives one workload: warm-up, then steps until time and step budgets are met."""

    def __init__(self, w: Workload, st: Setup, report: Report):
        self.w, self.st, self.report = w, st, report
        self.params = st.model.parameters()
        self.k = 0  # steps attempted so far, warm-up included
        self.losses: list[float] = []
        self.rowsum_err = 0.0

    def batch(self) -> Batch:
        return self.st.batches[self.k % len(self.st.batches)]

    def step(self) -> StepResult | None:
        b, self.k = self.batch(), self.k + 1
        self.report.attempted += 1
        try:
            if self.w.train:
                r = train_step(self.st.model, self.params, b)
            else:
                r = infer_step(self.st.model, b, self.st.alphabet.num_classes)
        except Exception:  # a raising step is counted as failed; the loop goes on
            self.report.failed += 1
            self.report.errors.append(traceback.format_exc(limit=3))
            return None
        self.losses.append(r.loss)
        self.rowsum_err = max(self.rowsum_err, r.rowsum_err)
        if not r.finite:
            self.report.failed += 1
        if not r.decoded_ok:
            self.report.correct = False
        return r

    def warm_up(self, seconds: float) -> StepResult | None:
        t0 = perf_counter()
        first = self.step()
        while perf_counter() - t0 < seconds:
            self.step()
        return first

    def loss_end(self) -> float:
        w = self.w
        return statistics.fmean(self.losses[w.loss_steps - w.loss_window : w.loss_steps])


def run(w: Workload, seed: int, seconds: float, trace: bool, warmup_s: float = WARMUP_S) -> Report:
    """One benchmark run: self-check, set-up, warm-up, then timed or traced steps."""
    report = Report(w.name, seed, trace)
    report.notes["env"] = environment(seed)
    report.notes["config"] = {k: v for k, v in asdict(w).items() if k != "why"}
    run_selfcheck()
    st, setup_s = timed_setup(w, seed)
    runner = Runner(w, st, report)
    first = runner.warm_up(warmup_s)
    if trace:
        _traced(runner, seconds)
    else:
        _untraced(runner, seconds, setup_s)
    if not w.train and first is not None:
        report.check("batch_vs_per_sample_abs", batch_invariance_error(st.model, st.batches[0], first.outputs), BATCH_TOL)
    report.check("rowsum_abs", runner.rowsum_err, ROWSUM_TOL)
    report.notes["fail_frac"] = report.failed / report.attempted
    return report


def _untraced(runner: Runner, seconds: float, setup_s: float) -> None:
    w, report = runner.w, runner.report
    steps: list[float] = []
    n = runner.st.widths
    t0 = perf_counter()
    # whole cycles of the width schedule, so every run times the same mix
    while perf_counter() - t0 < seconds or len(steps) % n or runner.k < w.loss_steps:
        r = runner.step()
        if r is not None:
            steps.append(r.seconds)
    # throughput of each cycle (one batch of every width); the median damps
    # bursts of contention from other tenants of the machine
    cycles = [n * w.batch / sum(steps[i : i + n]) for i in range(0, len(steps) - n + 1, n)]
    pct, tail_ms = tail(steps)
    report.metric("strips_per_s", statistics.median(cycles), "strips/s")
    report.metric("step_ms_p50", 1000 * statistics.median(steps), "ms")
    report.metric("step_ms_tail", tail_ms, "ms")
    report.metric("setup_s", setup_s, "s")
    report.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    report.metric("loss_end", runner.loss_end(), "nats")
    report.notes.update(timed_steps=len(steps), cycles=len(cycles), tail_percentile=pct)


def _median_ms(values: list[float]) -> float:
    return 1000 * statistics.median(values)


def _traced(runner: Runner, seconds: float) -> None:
    """Pairs of (untraced, traced) steps on the same batch, then the gates."""
    w, st, report = runner.w, runner.st, runner.report
    model, params = st.model, runner.params
    untraced: list[StepResult] = []
    traced: list[TracedStep] = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or not traced or len(traced) % st.widths:
        b = runner.batch()
        r = runner.step()
        if r is None:
            continue
        untraced.append(r)
        report.attempted += 1
        if w.train:
            ts = traced_train_step(model, params, b, update=True)
            report.check("traced_loss_finite", 0.0 if math.isfinite(ts.loss) else 1.0, 0.0)
        else:
            ts = traced_infer_step(model, b)
            gap = max(_rel_err(r.outputs[0], ts.outputs[0]), _rel_err(r.outputs[1], ts.outputs[1]))
            report.check("traced_eval_outputs_rel", gap, TRACE_REL_TOL)
        traced.append(ts)

    # The gates run on the widest batch, so per-layer figures compare across
    # runs. Inference steps have no backward: on infer_paper the backward-side
    # figures come from the training-mode step of the equivalence check, run
    # on the first strips of the batch to bound the paper-scale tape's memory.
    widest = st.batches[st.widths - 1]
    n = w.batch if w.train else INFER_GRAD_STRIPS
    check_batch = Batch(widest.images[:n], widest.labels[:n])
    eq = trace_equivalence(model, params, check_batch)
    report.attempted += 1
    report.check("traced_vs_single_tape_rel", eq["max_rel_err"], TRACE_REL_TOL)
    report.check("traced_records_gap", abs(eq["records_traced"] - eq["records_single_tape"]), 0)
    train_steps = traced if w.train else [eq["step"]]

    def layer_ms(name: str) -> float:
        src = traced if name.endswith(".fwd") else train_steps
        return _median_ms([s.spans[name] for s in src])

    for group, layers in (("backbone", BACKBONE_LAYERS), ("heads", HEAD_LAYERS)):
        for layer in layers:
            for d in ("fwd", "bwd"):
                report.metric(f"{group}.{layer}.{d}_ms", layer_ms(f"{group}.{layer}.{d}"), "ms")
        records = [sum(s.records[f"{group}.{l}"] for l in layers) for s in train_steps]
        report.metric(f"{group}.records", statistics.median(records), "count")
    report.metric("ctc.loss.fwd_ms", _median_ms([s.spans["ctc.loss.fwd"] for s in train_steps]), "ms")
    report.metric("ctc.loss.bwd_ms", layer_ms("ctc.loss.bwd"), "ms")
    report.metric("ctc.loss.calls", 2 * w.batch, "count")
    report.metric("ctc.decode_ms", _median_ms([s.decode_s for s in traced]), "ms")

    bb_fwd = [sum(s.spans[f"backbone.{l}.fwd"] for l in BACKBONE_LAYERS) for s in traced]
    report.metric("backbone.gflop", statistics.median(s.gflop for s in traced), "GFLOP")
    report.metric("backbone.fwd_gflop_per_s", statistics.median(s.gflop / t for s, t in zip(traced, bb_fwd)), "GFLOP/s")

    if w.train:
        report.metric("tensor.tape_records", statistics.median(r.records for r in untraced), "count")
        report.metric("tensor.backward_ms", _median_ms([r.backward_s for r in untraced]), "ms")
    else:
        report.metric("tensor.tape_records", eq["records_single_tape"], "count")
        report.metric("tensor.backward_ms", 1000 * eq["backward_s"], "ms")
    report.metric("tensor.tape_held_mb", tape_held_bytes(model, check_batch) / 2**20, "MiB")
    report.metric("datagen.render_ms", 1000 * st.render_s / st.strips, "ms")

    step_ms = _median_ms([s.seconds for s in traced])
    report.metric("trace.step_ms", step_ms, "ms")
    report.metric("trace.overhead_frac", step_ms / _median_ms([r.seconds for r in untraced]) - 1.0, "ratio")
    for group in ("backbone", "heads", "ctc"):
        report.metric(f"{group}.step_frac", statistics.median(s.share(group + ".") for s in traced), "ratio")
    report.metric("trace.covered_frac", statistics.median(s.share("") for s in traced), "ratio")
    report.notes.update(traced_steps=len(traced), untraced_steps=len(untraced))
