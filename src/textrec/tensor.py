"""Dense float64 tensors with taped reverse-mode differentiation.

Everything runs in 64-bit floating point. Operations record themselves onto
the active :class:`Tape` (a thread-local stack), and :meth:`Tape.backward`
consumes the records strictly in reverse execution order, so every tensor's
gradient is complete before any earlier operation consumes it. Backward
leaves ``grad`` set on leaf tensors only: each record, with the arrays its
pull saved and its output's gradient, is released once it has been pulled,
so a tape drives one backward.

Broadcasting is deliberately restricted: elementwise ops require exact shape
matches. The only broadcast products offered are the bias adds built into
``add_bias``/``conv2d`` and the single-channel mask product ``scale_channels``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

_LOCAL = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The single element of a tensor of size 1, whatever its rank."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a tensor of size 1, got shape {self.data.shape}")
        return self.data.item()

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != tensor shape {self.data.shape}")
        if self.grad is None:
            # always a fresh C-ordered copy: pulls may hand the same array to
            # several inputs (add) or return views of their own buffers
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """Take over ``data`` as a trainable tensor.

    The caller hands the array over: a float64 ndarray becomes the tensor's
    storage, uncopied, so a build holds each parameter once and peaks at no
    more than it keeps (as ``torch.from_numpy`` shares its buffer). Lists and
    other dtypes are converted into a new array.
    """
    return Tensor(data, requires_grad=True)


class Tape:
    """Execution-ordered record of differentiable operations, used once.

    Used as a context manager around a forward pass; ``backward`` then drives
    reverse-mode differentiation and consumes the records. ``len`` is the
    number of ops recorded, before and after backward. Ops executed while no
    tape is active are plain numpy computations with no gradient tracking.
    """

    def __init__(self):
        # each record: (output tensor, input tensors, pull function)
        # pull(out_grad) -> per-input gradient arrays (None where not needed)
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._recorded = 0
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self

    def __len__(self) -> int:
        return self._recorded

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], pull: Callable) -> None:
        self._records.append((out, inputs, pull))
        self._recorded += 1

    def backward(self, root: Tensor) -> None:
        """Populate ``grad`` on every leaf tensor that ``root`` depends on, consuming the tape.

        ``root`` must be scalar (shape product 1). Each record is popped
        before its pull runs, and its output's ``grad`` is set to None once
        the pull has returned, so a record's saved arrays, inputs and output
        gradient are freed as soon as no earlier record holds them (the
        release-after-use of PyTorch's autograd, Paszke et al., 2017). Only
        tensors that no record produced keep a ``grad``, and gradients
        accumulate into existing buffers, so leaves keep sums across tapes
        until their ``grad`` is set to None. A second call raises
        ``RuntimeError``.
        """
        if self._consumed:
            raise RuntimeError("backward already ran on this tape; record a new one")
        if root.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
        self._consumed = True
        root.accumulate_grad(np.ones_like(root.data))
        while self._records:
            _pull(*self._records.pop())


def _pull(out: Tensor, inputs: tuple[Tensor, ...], pull: Callable) -> None:
    """Run one record's pull; its gradients are dropped on return, before the next record's pull."""
    if out.grad is None:
        return
    grads = pull(out.grad)
    out.grad = None
    for t, g in zip(inputs, grads):
        if t.requires_grad and g is not None:
            t.accumulate_grad(np.asarray(g, dtype=np.float64))


def tracking(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over ``inputs`` is recorded: a tape is active and some input requires grad."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def apply_op(out_data: np.ndarray, inputs: Sequence[Tensor], pull: Callable) -> Tensor:
    """Create an op output and record it on the active tape if appropriate."""
    track = tracking(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        active_tape().record(out, tuple(inputs), pull)
    return out


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} must match exactly")


# ---------------------------------------------------------------------------
# elementwise and scalar ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return apply_op(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    return apply_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply_op(a.data * c, (a,), lambda g: (g * c,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-F bias vector to the last axis of ``x``."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not fit input {x.shape}")
    f = b.shape[0]

    def pull(g):
        return g, g.reshape(-1, f).sum(axis=0)

    return apply_op(x.data + b.data, (x, b), pull)


def relu(x: Tensor) -> Tensor:
    # the output is its own mask: y > 0 exactly where x > 0 (NaN propagates)
    y = np.maximum(x.data, 0.0)
    return apply_op(y, (x,), lambda g: (g * (y > 0.0),))


# smallest/largest doubles inside the open interval (0, 1); sigmoid output is
# clipped here so the (0,1) range contract survives saturation in float64
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_raw(x.data)
    return apply_op(y, (x,), lambda g: (g * y * (1.0 - y),))


def _sigmoid_raw(v: np.ndarray) -> np.ndarray:
    # e = exp(-|v|) never overflows: 1/(1+e) for v >= 0, e/(1+e) below;
    # the in-place max/min keep outputs strictly in (0,1) and propagate NaN
    e = np.exp(-np.abs(v))
    y = np.where(v >= 0, 1.0, e)
    np.divide(y, 1.0 + e, out=y)
    np.maximum(y, _SIG_LO, out=y)
    return np.minimum(y, _SIG_HI, out=y)


def tanh(x: Tensor) -> Tensor:
    """Taped tanh. No model path records it (``lstm_scan`` calls ``np.tanh``), but the
    reference LSTM that ``tests/test_heads.py`` checks the fused scan against is built
    from it, as are selfcheck's ``grad/tanh`` and its pipeline check's final reduction."""
    y = np.tanh(x.data)
    return apply_op(y, (x,), lambda g: (g * (1.0 - y * y),))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, computed with max subtraction."""
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def pull(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return apply_op(y, (x,), pull)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    return apply_op(np.asarray(x.data.sum()), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return apply_op(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return apply_op(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inv),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of empty tensor list")
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def pull(g):
        return tuple(np.array_split(g, splits, axis=axis))

    return apply_op(np.concatenate(datas, axis=axis), tuple(tensors), pull)


def getitem(x: Tensor, idx) -> Tensor:
    """Basic slicing (slices/ints only); gradients scatter back into place."""
    if not isinstance(idx, tuple):
        idx = (idx,)
    for i in idx:
        if not isinstance(i, (slice, int)):
            raise ShapeError("getitem supports basic slicing only (ints and slices)")
    shape = x.data.shape

    def pull(g):
        buf = np.zeros(shape)
        buf[idx] = g
        return (buf,)

    return apply_op(x.data[idx], (x,), pull)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")

    def pull(g):
        return g @ b.data.T, a.data.T @ g

    return apply_op(a.data @ b.data, (a, b), pull)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    y = matmul(x, w)
    return add_bias(y, b) if b is not None else y


# ---------------------------------------------------------------------------
# 2-D convolution (cross-correlation), NCHW layout


def _same_pad(extent: int, k: int, stride: int) -> tuple[int, int, int]:
    out = -(-extent // stride)  # ceil division
    total = max((out - 1) * stride + k - extent, 0)
    lo = total // 2
    return out, lo, total - lo  # odd padding puts the extra pixel low/right


# A chunk's columns only widen its GEMM (Caffe con Troll batches its lowering
# for that alone, Hadjis et al., arXiv:1504.04343), and they are the memory
# im2col costs (MEC, Cho & Brand, arXiv:1706.06873): each scratch slot lives
# as long as its thread, under every step's peak. So ``_column_chunks`` cuts
# a range into the most whole-sample chunks whose GEMMs all keep at least
# _MIN_GEMM_COLS columns (N·Ho·Wo). A toy stage-0 conv at 8×32×88 gives 2,816
# columns per sample, so its ranges run one-sample chunks and its slots shrink
# from 12.4 to 3.1 MiB; the largest slot of a toy step is then stage 1's
# 6.2 MiB. On a 2-core KVM guest (one BLAS thread) that took `train_toy`'s
# peak RSS from a median 127.9 to 115.5 MiB over 10 benchmark pairs, at the
# same throughput. A 1,024-column floor peaked near 101 MiB, but glibc then
# handed the step's heap back and faulted it in again every step (about
# 9,000 minor faults per step), and the median step grew 5-20%; at 2,048 a
# steady-state step faults 0 times, as the budget-only plan did.
_MIN_GEMM_COLS = 2048

# A chunk's columns also hold at most this many elements (32 MiB) unless one
# sample needs more, which bounds large batches: a full-batch block (about
# 100 MiB at paper scale) would raise peak memory, not reuse it. A split conv
# gives each of its P ranges 1/P of it, so its columns stay within the same
# bound.
_COLS_CHUNK = 1 << 22

# A conv splits its batch across the cores, forward and backward, when its
# work 2·K·C·kh·kw·N·Ho·Wo is at least this many FLOP. A per-conv sweep on a
# 2-core Xeon KVM guest (one BLAS thread, both cores free; the speed-up of the
# split over the serial engine, on the fastest of 30 interleaved runs each):
#   toy, batch 8 at widths 56/72/88:
#     3×3 block convs, 3.3e7-1.04e8: forward 0.91-1.96×, backward 1.11-1.96×;
#     1×1 projections, 3.7e6-5.8e6: forward 0.55-1.03×, backward 0.75-1.58×;
#     stem, 4.1e6-6.5e6: forward 0.73-0.84×, backward 0.78-0.93×;
#   long-line, batch 2 at widths 280/344: the stage-0 convs, 5.2e6-6.3e6,
#     forward 0.99-1.10× and backward 1.16-1.34×; every other conv, at most
#     1.6e6, 0.28-0.97×;
#   paper-scale stem forward, batch 8, 1.65e7-2.6e7: 1.2×.
# So the break-even lies near 5e6 for a backward and near 3e7 for a deep-stage
# forward. The line sits between the largest toy stem or projection and
# long-line conv (6.5e6) and the smallest 3×3 toy block conv (3.3e7): all 8
# of those split, 97% of a toy step's conv FLOP, and a long-line step stays
# serial. At paper scale every block conv and projection splits, and the stem
# from width 72 up.
_SPLIT_FLOP = 2e7

# The cores this process may run on; a split conv runs at most this many ranges.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool() -> None:
    """Build ``_POOL``, the threads that claim a split conv's ranges beside the caller.

    An executor starts no thread before its first ``submit``, so building it
    at import costs nothing. A forked child has none of its parent's
    threads, and work handed to the inherited pool would never run, so the
    child builds its own.
    """
    global _POOL
    _POOL = ThreadPoolExecutor(max(1, _CORES - 1), thread_name_prefix="textrec-conv")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _scratch(size: int, slot: str = "cols") -> np.ndarray:
    """This thread's reusable conv buffer ``slot``, grown to hold ``size`` elements.

    Slot ``cols`` holds one chunk's im2col columns, in every forward and
    again in a taped conv's backward, where it then holds the chunk's column
    gradient. Slot ``pad`` holds the same chunk's same-padded input, which
    ``_windows`` reads the columns from. Slots ``cols1``, ``pad1``,
    ``cols2``, ``pad2``, ... hold the same for the other ranges of a split
    ``conv2d_cnhw`` or ``_conv_backward``. Slot ``col2im``
    holds a taped conv's padded input gradient; each range of a split
    backward writes only its own samples of it. All live as long as the
    thread, so the training and eval paths stop allocating, and
    page-faulting, their largest temporaries per call. So each slot keeps
    the largest chunk any call asked of it under every later peak, which is
    why ``_column_chunks`` sizes chunks by GEMM width (``_MIN_GEMM_COLS``)
    and takes ``pad`` only for a conv that pads.

    Every thread has its own buffers, so callers on different threads never
    share one. A split conv takes every range's buffers on the calling thread
    before ``_run_ranges`` runs the ranges, so a range fills the slot taken
    for it on whichever thread runs it, and a pool thread takes no scratch of
    its own and allocates nothing per chunk: its memory would come from its
    own allocator arena, which keeps it and cannot reuse what the calling
    thread's arena already holds (column buffers taken on the pool thread
    cost a paper-scale eval run about 12 MiB more peak RSS, and chunks padded
    there by a fresh array per chunk left its arena holding 7 MB).
    Whatever a caller gets back is overwritten by the next call for the same
    slot on the same thread, so no op returns a view of it that outlives one
    tape pull, and a dX view of ``col2im`` is consumed before the next conv
    backward runs, even within one pull.
    """
    buf = getattr(_LOCAL, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_LOCAL, slot, buf)
    return buf[:size]


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, pad: np.ndarray | None) -> np.ndarray:
    """(C, kh, kw, N, Ho, Wo) read-only strided view of the kernel windows of
    channel-major (C, N, H, W) ``x``, same-padded.

    A conv that pads writes ``x`` into the front of the flat buffer ``pad``,
    zeroing only the four border strips around the copied interior, and the
    view reads that copy; one that needs no padding (a 1×1 kernel) reads ``x``
    itself, and ``pad`` may then be None.
    """
    c, n, h, wd = x.shape
    ho, pt, pb = _same_pad(h, kh, sh)
    wo, pl, pr = _same_pad(wd, kw, sw)
    if pt or pb or pl or pr:
        xp = pad[: c * n * (pt + h + pb) * (pl + wd + pr)].reshape(c, n, pt + h + pb, pl + wd + pr)
        xp[:, :, :pt] = 0.0
        xp[:, :, pt + h :] = 0.0
        xp[:, :, pt : pt + h, :pl] = 0.0
        xp[:, :, pt : pt + h, pl + wd :] = 0.0
        xp[:, :, pt : pt + h, pl : pl + wd] = x
        x = xp
    sc, sn, sy, sx = x.strides
    shape, strides = (c, kh, kw, n, ho, wo), (sc, sy, sx, sn, sy * sh, sx * sw)
    return np.lib.stride_tricks.as_strided(x, shape, strides, writeable=False)


def _even_bounds(n: int, p: int) -> list[int]:
    """The p + 1 bounds of ``p`` contiguous parts of ``n`` items, as even as whole
    items allow with the larger first (5 = 3 + 2)."""
    return [i * (n // p) + min(i, n % p) for i in range(p + 1)]


def _column_chunks(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, budget: int, tag: str):
    """Iterator of ``(s, e, cols)`` over whole-sample chunks of channel-major ``x``.

    ``cols`` is the (C, kh, kw, e - s, Ho, Wo) im2col of samples ``s:e``. The
    N samples run in the most chunks, sized by ``_even_bounds``, whose GEMMs
    all keep at least ``_MIN_GEMM_COLS`` columns (one chunk if N·Ho·Wo is
    below it), unless a chunk would then exceed ``budget`` elements: then in
    the fewest chunks within it (chunks of one sample if one sample exceeds
    it). The plan depends only on the shapes, so a backward rebuilds the
    forward's chunks. Every chunk is padded by ``_windows`` into the calling
    thread's ``pad{tag}`` scratch, sized for the largest chunk's padded input
    and taken only when the conv pads, and copied into its ``cols{tag}``
    scratch. Both are taken when this is called rather than when it is
    iterated, so a pool thread that iterates it fills its caller's buffers
    and allocates nothing.
    """
    c, n, h, wd = x.shape
    ho, pt, pb = _same_pad(h, kh, sh)
    wo, pl, pr = _same_pad(wd, kw, sw)
    sample = c * kh * kw * ho * wo
    narrowest = -(-_MIN_GEMM_COLS // (ho * wo))  # samples that give a GEMM the floor's columns
    widest = max(1, budget // sample)  # samples whose columns fit the budget
    parts = max(1, n // narrowest, -(-n // widest))
    bounds = _even_bounds(n, parts)
    buf = _scratch(bounds[1] * sample, "cols" + tag)
    padded = c * bounds[1] * (pt + h + pb) * (pl + wd + pr)
    pad = _scratch(padded, "pad" + tag) if pt or pb or pl or pr else None

    def chunks():
        for s, e in zip(bounds, bounds[1:]):
            win = _windows(x[:, s:e], kh, kw, sh, sw, pad)
            cols = buf[: win.size].reshape(win.shape)
            np.copyto(cols, win)
            yield s, e, cols

    return chunks()


def _sample_ranges(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, flop: int) -> list:
    """A conv's batch as ``(lo, chunks)`` per sample range, for ``_run_ranges``.

    A conv over channel-major ``x`` whose work ``flop``, 2·K·C·kh·kw·N·Ho·Wo,
    reaches ``_SPLIT_FLOP`` gets P = min(N, ``_CORES``) contiguous ranges from
    ``_even_bounds``; a smaller conv gets one. Range i starts at sample ``lo``
    and iterates the ``_column_chunks`` of its own samples, with a budget of
    ``_COLS_CHUNK // P`` elements, in the calling thread's scratch slots
    ``cols`` and ``pad`` (i = 0) or ``cols{i}`` and ``pad{i}``. Each range
    plans its chunks from its own sample count, so the GEMM-width floor holds
    per range: the toy stage-0 convs run one-sample chunks in each of two
    ranges of 4, and the paper-scale stage-2 and stage-3 convs one chunk per
    range.
    """
    n = x.shape[1]
    p = 1 if flop < _SPLIT_FLOP else max(1, min(n, _CORES))
    bounds = _even_bounds(n, p)
    return [
        (lo, _column_chunks(x[:, lo:hi], kh, kw, sh, sw, _COLS_CHUNK // p, str(i) if i else ""))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def _run_ranges(tasks: Sequence[Callable[[], None]]) -> None:
    """Run each of ``tasks`` exactly once, on the calling thread and ``_POOL``.

    Tasks 1..P−1 go to ``_POOL`` as futures, and the caller runs task 0 and
    then every task whose future it can still cancel: a future cancels only
    before a pool thread starts it, so ``cancel()`` is the claim. The caller
    waits only for the futures a pool thread has started, never for one whose
    thread has not woken yet: the work-first rule of Cilk (Blumofe &
    Leiserson, JACM 1999). So when the other cores are busy the caller runs
    every task itself, and a lone task runs inline with no future. A task that
    raises does not stop the others; once every task has stopped, the first
    exception the caller caught, or else the first a started future holds, is
    raised on the caller.
    """
    jobs = [_POOL.submit(task) for task in tasks[1:]]
    errors = []
    for task, job in zip(tasks, [None, *jobs]):
        if job is None or job.cancel():
            try:
                task()
            except BaseException as exc:  # raised again on the caller once every task has stopped
                errors.append(exc)
    # the next call reuses the ranges' buffers, so wait for the jobs a pool thread started
    errors += [exc for job in jobs if not job.cancelled() and (exc := job.exception())]
    if errors:
        raise errors[0]


def conv2d_cnhw(
    x: np.ndarray,
    w: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    scale: np.ndarray | None = None,
    shift: np.ndarray | None = None,
) -> np.ndarray:
    """Same-padded conv of a channel-major (C, N, H, W) array, with no tape.

    Returns a fresh (K, N, Ho, Wo) array: the conv output times ``scale``
    plus ``shift`` (per output channel), each step skipped when not given;
    eval-mode BN passes its frozen normalization this way. The batch runs in
    the whole-sample chunks of ``_column_chunks``. Channel-major output is
    what the GEMM writes, so each chunk's ``W @ cols`` lands straight in its
    column block of the output, and the scale and shift run in place on
    that block while it is in cache. A chunk holds the fewest samples that
    still give its GEMM ``_MIN_GEMM_COLS`` columns: the deep stages, whose
    samples have few output pixels, keep one GEMM per range and stay
    GEMM-bound, while the full-resolution stem (and the toy stage 0) run one
    sample per chunk in a quarter of the columns a range of 4 needed.

    A call whose work 2·K·C·kh·kw·N·Ho·Wo reaches ``_SPLIT_FLOP`` splits its
    batch into P = min(N, ``_CORES``) contiguous sample ranges, the per-core
    batch split of Caffe con Troll (Hadjis et al., arXiv:1504.04343), which
    also spreads the im2col copies and the epilogue that a threaded BLAS
    would leave on one core. ``_sample_ranges`` sets P and gives each range
    its own chunk loop, planned from the range's own samples with a budget
    of ``_COLS_CHUNK // P`` elements, in its own scratch slots of the calling
    thread; ``_run_ranges`` runs the ranges on the caller and ``_POOL``, and
    each writes its own column blocks of the one output. An exception raised in any range reaches the caller once
    every range has stopped. Every 3×3 block conv of the toy and paper-scale
    configs splits, and no conv of the long-line config (see
    ``_SPLIT_FLOP``); a smaller call, and every call when P = 1, is one range
    run inline. The pool threads run only this numpy loop and never read or
    record onto a tape.
    """
    k, _, kh, kw = w.shape
    sh, sw = stride
    n = x.shape[1]
    ho, wo = _same_pad(x.shape[2], kh, sh)[0], _same_pad(x.shape[3], kw, sw)[0]
    wmat = w.reshape(k, -1)
    hw = ho * wo
    out = np.empty((k, n, ho, wo))
    flat = out.reshape(k, -1)

    def run(lo: int, chunks) -> None:
        for s, e, cols in chunks:
            y = flat[:, (lo + s) * hw : (lo + e) * hw]
            np.matmul(wmat, cols.reshape(wmat.shape[1], -1), out=y)
            if scale is not None:
                y *= scale[:, None]
            if shift is not None:
                y += shift[:, None]

    _run_ranges([partial(run, *r) for r in _sample_ranges(x, kh, kw, sh, sw, 2 * wmat.size * n * hw)])
    return out


def _conv_backward(
    x: np.ndarray, w: np.ndarray, stride: tuple[int, int], g: np.ndarray, need_dx: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """dW, and dX if ``need_dx``, of ``conv2d_cnhw(x, w, stride)`` for its output gradient ``g``.

    ``x`` and ``g`` are channel-major, (C, N, H, W) and (K, N, Ho, Wo); a
    contiguous ``g`` hands each chunk's (K, n·Ho·Wo) block over as a view.
    The batch runs in the forward's sample ranges and chunks
    (``_sample_ranges``, run by ``_run_ranges``), so a conv whose work
    reaches ``_SPLIT_FLOP`` splits its backward across the cores as its
    forward. Each chunk's columns are rebuilt in its range's scratch slots:
    the range's own dW accumulates ``g @ cols.T`` through its own product
    buffer, and, when dX is needed, ``W.T @ g`` overwrites the columns and
    col2im adds it into the chunk's samples of the reused ``col2im`` buffer,
    zeroed chunk by chunk, so ranges write disjoint slices. The accumulators
    and product buffers are taken here on the calling thread, and a split
    call's partial dWs are summed in range order, so the result does not
    depend on which thread ran which range. dX is a (C, N, H, W) view of the
    ``col2im`` buffer, so it must be consumed (copied, added or multiplied
    into another array) before the next conv backward runs.
    """
    c, n, h, wd = x.shape
    k, _, kh, kw = w.shape
    sh, sw = stride
    ho, pt, pb = _same_pad(h, kh, sh)
    wo, pl, pr = _same_pad(wd, kw, sw)
    wmat = w.reshape(k, -1)
    ranges = _sample_ranges(x, kh, kw, sh, sw, 2 * wmat.size * n * ho * wo)
    dws = np.zeros((len(ranges),) + wmat.shape)
    prods = np.empty_like(dws)
    if need_dx:
        hp, wp = h + pt + pb, wd + pl + pr
        dxp = _scratch(c * n * hp * wp, "col2im").reshape(c, n, hp, wp)

    def run(lo: int, chunks, dw: np.ndarray, prod: np.ndarray) -> None:
        for s, e, cols in chunks:
            s, e = lo + s, lo + e
            g2 = g[:, s:e].reshape(k, -1)
            cmat = cols.reshape(wmat.shape[1], -1)
            dw += np.matmul(g2, cmat.T, out=prod)
            if need_dx:
                np.matmul(wmat.T, g2, out=cmat)  # the chunk's column gradient
                dxp[:, s:e] = 0.0
                for i in range(kh):
                    for j in range(kw):
                        dxp[:, s:e, i : i + sh * ho : sh, j : j + sw * wo : sw] += cols[:, i, j]

    _run_ranges([partial(run, *r, dw, prod) for r, dw, prod in zip(ranges, dws, prods)])
    dx = dxp[:, :, pt : pt + h, pl : pl + wd] if need_dx else None
    dw = dws[0] if len(ranges) == 1 else dws.sum(axis=0)
    return dw.reshape(w.shape), dx


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride: tuple[int, int] = (1, 1),
) -> Tensor:
    """Strided 2-D cross-correlation of NCHW input with KCkhkw kernels.

    Padding is "same": symmetric with the extra pixel on the bottom/right, and
    the output spatial size is ceil(extent / stride).

    Every product is a 2-D GEMM over channel-major columns ``cols`` of shape
    (C·kh·kw, N·Ho·Wo), copied from a read-only strided view (``_windows``)
    of the chunk's input, same-padded into reused scratch. Keeping C and
    kh·kw outermost makes the im2col copy and the col2im adds run over
    contiguous (N, Ho, Wo) blocks, which row-major (N·Ho·Wo, C·kh·kw)
    columns do not.

    The forward is ``conv2d_cnhw`` on the channel-major view of ``x``, taped
    or not, and the result is the NCHW view of its output. A tape keeps only
    the input and the weights, not the columns (9× the input for a 3×3
    kernel). The pull is ``_conv_backward``, which rebuilds each chunk's
    columns in the reused scratch, trading one extra im2col per conv
    for the stored columns (recompute-for-memory, Chen et al.,
    arXiv:1604.06174). Two invariants make it sound:

    - a taped input is not mutated before backward, as ``mul`` and
      ``matmul`` also assume, so the rebuilt columns equal the forward's;
    - every dX view of the ``col2im`` buffer is consumed before the next
      conv backward runs, in this pull or in any other op's (the residual
      block's pull runs several): here ``Tape.backward`` copies or adds the
      returned gradient into the input's own ``grad`` at once.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape}, {w.shape}")
    c = x.shape[1]
    k, ck = w.shape[:2]
    if ck != c:
        raise ShapeError(f"conv2d: input has {c} channels but kernel expects {ck}")
    stride = (int(stride[0]), int(stride[1]))
    if stride[0] < 1 or stride[1] < 1:
        raise ShapeError("conv2d: stride components must be >= 1")
    if b is not None and b.shape != (k,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({k},)")

    xc = x.data.transpose(1, 0, 2, 3)
    out = conv2d_cnhw(xc, w.data, stride, shift=None if b is None else b.data).transpose(1, 0, 2, 3)
    inputs = (x, w) if b is None else (x, w, b)

    def pull(g):
        dw, dx = _conv_backward(xc, w.data, stride, g.transpose(1, 0, 2, 3), x.requires_grad)
        dx = None if dx is None else dx.transpose(1, 0, 2, 3)
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    return apply_op(out, inputs, pull)


def scale_channels(x: Tensor, m: Tensor) -> Tensor:
    """Broadcast product of an NCHW volume with a single-channel N1HW mask."""
    if x.ndim != 4 or m.ndim != 4:
        raise ShapeError("scale_channels expects 4-D tensors")
    n, c, h, w = x.shape
    if m.shape != (n, 1, h, w):
        raise ShapeError(f"scale_channels: mask shape {m.shape} != ({n}, 1, {h}, {w})")

    def pull(g):
        return g * m.data, (g * x.data).sum(axis=1, keepdims=True)

    return apply_op(x.data * m.data, (x, m), pull)


# ---------------------------------------------------------------------------
# layers: the parameter walk and batch-norm running statistics


class BatchNormState:
    """Running statistics owned by a normalization layer (not differentiated)."""

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = 0.1
        self.eps = 1e-5


class Module:
    """A layer whose tensors and running statistics are found by walking its attributes.

    Keys are dotted attribute paths, with list indices as parts
    (``stages.0.0.conv1.weight``, ``stem_bn.state``). The order is each
    ``__init__``'s assignment order, depth first, so a block that assigns each
    conv before its normalization lists the conv weight, then that BN's γ and β.
    """

    def parameters(self) -> dict[str, Tensor]:
        return dict(_walk(self, Tensor, ""))

    def norm_states(self) -> dict[str, BatchNormState]:
        return dict(_walk(self, BatchNormState, ""))


def _walk(node, kind: type, prefix: str):
    for name, value in vars(node).items() if isinstance(node, Module) else enumerate(node):
        if isinstance(value, kind):
            yield f"{prefix}{name}", value
        elif isinstance(value, (Module, list)):
            yield from _walk(value, kind, f"{prefix}{name}.")
