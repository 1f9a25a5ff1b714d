"""Dense float64 tensors with taped reverse-mode differentiation.

Everything runs in 64-bit floating point. Operations record themselves onto
the active :class:`Tape` (one tape per thread), and :meth:`Tape.backward`
consumes the records strictly in reverse execution order, so every tensor's
gradient is complete before any earlier operation consumes it. Backward
leaves ``grad`` set on leaf tensors only: each record, with the arrays its
pull saved and its output's gradient, is released once it has been pulled,
so a tape drives one backward.

Broadcasting is deliberately restricted: elementwise ops require exact shape
matches. The only broadcast products offered are the bias adds built into
``linear``/``conv2d`` and the single-channel mask product ``scale_channels``.
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


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer.

    ``Tensor(data, requires_grad=True)`` builds a trainable leaf. It adopts a
    float64 ndarray as its storage, uncopied, so a build holds each parameter
    once and peaks at no more than it keeps (as ``torch.from_numpy`` shares its
    buffer). Lists and other dtypes are converted into a new array.
    """

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


class Tape:
    """Execution-ordered record of differentiable operations, used once.

    Used as a context manager around a forward pass; ``backward`` then drives
    reverse-mode differentiation and consumes the records. ``len`` is the
    number of ops recorded, before and after backward. Ops executed while no
    tape is active are plain numpy computations with no gradient tracking.
    At most one tape records on a thread: entering another while one is
    active raises ``RuntimeError``, since the outer tape would miss the inner
    one's ops. A tape may be entered again after it is left.
    """

    def __init__(self):
        # each record: (output tensor, input tensors, pull function)
        # pull(out_grad) -> per-input gradient arrays (None where not needed)
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._recorded = 0
        self._consumed = False

    def __enter__(self) -> "Tape":
        if getattr(_LOCAL, "tape", None) is not None:
            raise RuntimeError("a tape is already recording on this thread; tapes do not nest")
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LOCAL.tape = None

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
            t.accumulate_grad(g)


def tracking(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over ``inputs`` is recorded: a tape is active and some input requires grad."""
    return getattr(_LOCAL, "tape", None) is not None and any(t.requires_grad for t in inputs)


def apply_op(out_data: np.ndarray, inputs: Sequence[Tensor], pull: Callable) -> Tensor:
    """Create an op output and record it on the active tape if appropriate."""
    track = tracking(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        _LOCAL.tape.record(out, tuple(inputs), pull)
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
    return apply_op(np.asarray(x.data.sum()), (x,), lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    try:
        y = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {old} to {shape}") from None
    return apply_op(y, (x,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of empty tensor list")
    datas = [t.data for t in tensors]
    try:
        y = np.concatenate(datas, axis=axis)
    except ValueError:
        raise ShapeError(f"concat: shapes {[d.shape for d in datas]} do not join on axis {axis}") from None
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def pull(g):
        return tuple(np.array_split(g, splits, axis=axis))

    return apply_op(y, tuple(tensors), pull)


def is_integer(v) -> bool:
    """Whether ``v`` is an int or a NumPy integer, and not a bool (NumPy reads a bool
    index as a new axis). Strides, class ids and labels are checked with it, since ``int()``
    would truncate 1.7 to 1."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def getitem(x: Tensor, idx) -> Tensor:
    """Basic slicing (slices and ints, NumPy's included); gradients scatter back into place."""
    if not isinstance(idx, tuple):
        idx = (idx,)
    if not all(isinstance(i, slice) or is_integer(i) for i in idx):
        raise ShapeError("getitem supports basic slicing only (ints and slices)")
    shape = x.data.shape
    try:
        y = x.data[idx]
    except IndexError:
        raise ShapeError(f"getitem: index {idx} does not fit shape {shape}") from None

    def pull(g):
        buf = np.zeros(shape)
        buf[idx] = g
        return (buf,)

    return apply_op(y, (x,), pull)


# ---------------------------------------------------------------------------
# linear algebra


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The dense layer ``x @ w + b`` of (M, F) rows, (F, K) weights and a length-K bias, as one op."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} do not fit")

    def pull(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return apply_op(x.data @ w.data + b.data, (x, w, b), pull)


# ---------------------------------------------------------------------------
# 2-D convolution (cross-correlation), NCHW layout
#
# Every conv is GEMMs over channel-major im2col columns, (C·kh·kw, N·Ho·Wo), so
# the im2col copy and the col2im adds run over contiguous (N, Ho, Wo) blocks and
# each GEMM writes its block of the channel-major output in place. A backward
# columnises one of its two operands:
#
# - The adjoint path, for a stride-1 conv with odd kh and kw that needs dX. Its
#   same padding is symmetric, so dX is the same conv of g with the flipped,
#   transposed kernel W̃ (Dumoulin & Visin, arXiv:1603.07285, relation 1), and
#   g's columns (K·kh·kw rows) give dX = W̃·gcols and dWᵀ = x·gcolsᵀ: one
#   im2col, two GEMMs and no col2im.
# - The column path, for every other conv: strided, even-sided, or with no dX
#   to compute (the stem). It rebuilds its forward's columns of x, takes
#   dW = g·colsᵀ, and scatters dX back from Wᵀ·g through kh·kw strided col2im
#   adds (Chellapilla et al., 2006).
#
# ``_plan`` decides how a pass runs over the operand it columnises (x, or g with
# K and C swapped), by four rules:
#
# - The split. A conv whose work 2·K·C·kh·kw·N·Ho·Wo reaches ``_SPLIT_FLOP``
#   cuts its batch into P = min(N, ``_CORES``) contiguous sample ranges, the
#   per-core batch split of Caffe con Troll (Hadjis et al., arXiv:1504.04343);
#   a smaller conv is one range. ``_run_ranges`` runs the ranges, forward and
#   backward alike, and each writes only its own samples of the results. Both
#   backward paths do the same work, so they split alike.
# - The chunk plan. Columns are the memory im2col costs (MEC, Cho & Brand,
#   arXiv:1706.06873), so a range runs in the most whole-sample chunks whose
#   GEMMs all keep at least ``_MIN_GEMM_COLS`` columns (one chunk if the range
#   has fewer), unless a chunk's columns would then exceed ``_COLS_CHUNK // P``
#   elements: then in the fewest chunks within that, one sample each if one
#   sample exceeds it. ``_even_bounds`` sizes the chunks. The plan depends only
#   on the shapes of what it columnises, so a column-path backward rebuilds its
#   forward's columns chunk for chunk; an adjoint-path backward chunks g's.
# - Scratch taken on the caller. Range i fills one slot of the calling thread,
#   ``cols`` or ``cols{i}``, which holds its largest chunk's columns and behind
#   them that chunk's same-padded operand, unless the conv pads nothing (a 1×1
#   kernel reads its operand unpadded). The adjoint path's W̃ is the caller's
#   ``wflip`` slot. So a pool thread that runs a range allocates nothing: its
#   own malloc arena would keep what it took.
# - dX is a view. ``_conv_backward`` returns dX as a view of the calling
#   thread's ``col2im`` slot: the column path's crop of the padded sum it
#   scatters there, the adjoint path's whole slot, which its GEMMs write. Either
#   way it must be consumed (copied, added or multiplied into another array)
#   before the next conv backward runs, even within one pull.


def _same_pad(extent: int, k: int, stride: int) -> tuple[int, int, int]:
    out = -(-extent // stride)  # ceil division
    total = max((out - 1) * stride + k - extent, 0)
    lo = total // 2
    return out, lo, total - lo  # odd padding puts the extra pixel low/right


# At a 1,024-column floor glibc handed a training step's heap back and faulted it
# in again every step (about 9,000 minor faults a step, 5-20% slower); at 2,048 a
# steady-state step faults 0 times.
_MIN_GEMM_COLS = 2048

# A chunk's columns hold at most this many elements (32 MiB) unless one sample needs
# more. In the benchmark workloads this binds only on paper-scale stage 1's
# 128-channel 3×3 convs at widths 72 and 88.
_COLS_CHUNK = 1 << 22

# A per-conv sweep on a 2-core guest (one BLAS thread) put the split's break-even
# near 5e6 FLOP for a backward and near 3e7 for a deep-stage forward. The line
# sits between the largest toy stem, toy projection or long-line conv (6.5e6) and
# the smallest toy 3×3 block conv (3.3e7): every toy block conv splits, and no
# long-line conv does.
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


def _scratch(size: int, slot: str) -> np.ndarray:
    """The calling thread's buffer ``slot``, grown to hold ``size`` elements and
    overwritten by the next request for the same slot on the same thread."""
    buf = getattr(_LOCAL, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_LOCAL, slot, buf)
    return buf[:size]


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, pad: np.ndarray | None) -> np.ndarray:
    """Read-only (C, kh, kw, N, Ho, Wo) view of the same-padded kernel windows of
    channel-major (C, N, H, W) ``x``, padded into the front of the flat buffer
    ``pad``; a conv that pads nothing reads ``x`` itself and may pass None."""
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


def _plan(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, k: int) -> list:
    """``(chunks, buf, pad)`` per sample range of a conv of ``k`` kernels over
    channel-major ``x``: the range's chunk bounds ``(s, e)`` as sample indices of
    ``x``, and the column and padded-input regions of its scratch slot, ``pad``
    None when the conv pads nothing."""
    c, n, h, wd = x.shape
    ho, pt, pb = _same_pad(h, kh, sh)
    wo, pl, pr = _same_pad(wd, kw, sw)
    sample = c * kh * kw * ho * wo  # one sample's columns
    padded = c * (pt + h + pb) * (pl + wd + pr) if pt or pb or pl or pr else 0
    p = 1 if 2 * k * sample * n < _SPLIT_FLOP else max(1, min(n, _CORES))
    narrowest = -(-_MIN_GEMM_COLS // (ho * wo))  # samples that give a GEMM the floor's columns
    widest = max(1, _COLS_CHUNK // p // sample)  # samples whose columns fit the budget
    ranges = _even_bounds(n, p)
    plan = []
    for i, (lo, hi) in enumerate(zip(ranges, ranges[1:])):
        m = hi - lo
        bounds = [lo + b for b in _even_bounds(m, max(1, m // narrowest, -(-m // widest)))]
        most = bounds[1] - lo
        slot = _scratch(most * (sample + padded), f"cols{i}" if i else "cols")
        plan.append((list(zip(bounds, bounds[1:])), slot[: most * sample], slot[most * sample :] if padded else None))
    return plan


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, buf: np.ndarray, pad: np.ndarray | None) -> np.ndarray:
    """The (C, kh, kw, N, Ho, Wo) columns of channel-major ``x``, copied into the
    front of ``buf`` from its windows padded into ``pad``."""
    win = _windows(x, kh, kw, sh, sw, pad)
    cols = buf[: win.size].reshape(win.shape)
    np.copyto(cols, win)
    return cols


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
    pending = list(tasks)
    jobs = [_POOL.submit(lambda i=i: pending[i]()) for i in range(1, len(pending))]
    errors = []
    for task, job in zip(tasks, [None, *jobs]):
        if job is None or job.cancel():
            try:
                task()
            except BaseException as exc:  # raised again on the caller once every task has stopped
                errors.append(exc)
    # the next call reuses the ranges' buffers, so wait for the jobs a pool thread started
    errors += [exc for job in jobs if not job.cancelled() and (exc := job.exception())]
    # a cancelled job stays queued until a pool thread wakes to drop it: it must not keep
    # its task, and the arrays the task holds, alive until then
    pending.clear()
    if errors:
        raise errors[0]


def conv2d_cnhw(x: np.ndarray, w: np.ndarray, stride: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Same-padded conv of a channel-major (C, N, H, W) array, with no tape.

    Returns a fresh (K, N, Ho, Wo) array. An exception raised in any range
    reaches the caller once every range has stopped.
    """
    k, _, kh, kw = w.shape
    sh, sw = stride
    ho, wo = _same_pad(x.shape[2], kh, sh)[0], _same_pad(x.shape[3], kw, sw)[0]
    wmat = w.reshape(k, -1)
    out = np.empty((k, x.shape[1], ho, wo))
    flat = out.reshape(k, -1)

    def run(chunks, buf: np.ndarray, pad: np.ndarray | None) -> None:
        for s, e in chunks:
            y = flat[:, s * ho * wo : e * ho * wo]
            np.matmul(wmat, _im2col(x[:, s:e], kh, kw, sh, sw, buf, pad).reshape(wmat.shape[1], -1), out=y)

    _run_ranges([partial(run, *r) for r in _plan(x, kh, kw, sh, sw, k)])
    return out


def _conv_backward(
    x: np.ndarray, w: np.ndarray, stride: tuple[int, int], g: np.ndarray, need_dx: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """dW, and dX if ``need_dx``, of ``conv2d_cnhw(x, w, stride)`` for its output gradient ``g``.

    ``x`` and ``g`` are channel-major, (C, N, H, W) and (K, N, Ho, Wo). The
    operand the path columnises is ``src``; ``other`` pairs with its columns in
    the dW GEMM, which the adjoint path runs as dWᵀ and returns as a flipped,
    transposed view. Each range's dW, and the product buffer of a range of
    several chunks, is taken on the caller; a split call sums the ranges' dWs
    in place into the first, in range order, so the result does not depend on
    which thread ran which range. dX is a (C, N, H, W) view of the ``col2im``
    slot.
    """
    c, n, h, wd = x.shape
    k, _, kh, kw = w.shape
    sh, sw = stride
    adjoint = need_dx and stride == (1, 1) and kh % 2 == 1 and kw % 2 == 1
    src, other = (g, x) if adjoint else (x, g)
    rows, depth = other.shape[0], src.shape[0] * kh * kw
    plan = _plan(src, kh, kw, sh, sw, rows)
    # range 0's dW, which the call returns, is taken after the other ranges': taken first, it
    # raised a train_toy run's peak RSS by about 4 MiB through where the heap placed it
    parts = [np.empty((rows, depth)) for _ in plan[1:]]
    dw = np.empty((rows, depth))
    prods = [np.empty((rows, depth)) if len(chunks) > 1 else None for chunks, _, _ in plan]
    if adjoint:
        # W̃ is taken on the caller like the columns: a fresh copy per call raised
        # TestSplitBackwardMemory's peak from within 2.1× dW to 3.0×
        wt = _scratch(w.size, "wflip").reshape(c, k, kh, kw)
        np.copyto(wt, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        wt = wt.reshape(c, depth)
        dx = _scratch(x.size, "col2im").reshape(c, n * h * wd)
    elif need_dx:
        ho, pt, pb = _same_pad(h, kh, sh)
        wo, pl, pr = _same_pad(wd, kw, sw)
        wmat, hp, wp = w.reshape(k, depth), h + pt + pb, wd + pl + pr
        # a reused slot, not an owned dX: owning it cost train_toy about 12% of its strips/s
        dxp = _scratch(c * n * hp * wp, "col2im").reshape(c, n, hp, wp)

    def run(chunks, buf: np.ndarray, pad: np.ndarray | None, dw: np.ndarray, prod: np.ndarray | None) -> None:
        for s, e in chunks:
            cols = _im2col(src[:, s:e], kh, kw, sh, sw, buf, pad)
            cmat = cols.reshape(depth, -1)
            o2 = other[:, s:e].reshape(rows, -1)
            if s == chunks[0][0]:
                np.matmul(o2, cmat.T, out=dw)
            else:
                dw += np.matmul(o2, cmat.T, out=prod)
            if adjoint:
                np.matmul(wt, cmat, out=dx[:, s * h * wd : e * h * wd])
            elif need_dx:
                np.matmul(wmat.T, o2, out=cmat)  # the chunk's column gradient
                dxp[:, s:e] = 0.0
                for i in range(kh):
                    for j in range(kw):
                        dxp[:, s:e, i : i + sh * ho : sh, j : j + sw * wo : sw] += cols[:, i, j]

    _run_ranges([partial(run, *r, acc, prod) for r, acc, prod in zip(plan, [dw, *parts], prods)])
    for part in parts:
        dw += part
    if adjoint:
        return dw.reshape(c, k, kh, kw).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], dx.reshape(x.shape)
    return dw.reshape(w.shape), dxp[:, :, pt : pt + h, pl : pl + wd] if need_dx else None


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride: tuple[int, int] = (1, 1),
) -> Tensor:
    """Strided 2-D cross-correlation of NCHW input with KCkhkw kernels.

    Padding is "same": symmetric with the extra pixel on the bottom/right, and
    the output spatial size is ceil(extent / stride). A tape keeps only the
    input and the weights, and the pull builds the columns it needs, of the
    input or of the output gradient (recompute-for-memory, Chen et al.,
    arXiv:1604.06174), so a taped input must not be mutated before backward,
    as ``mul`` and ``linear`` also assume.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape}, {w.shape}")
    c = x.shape[1]
    k, ck = w.shape[:2]
    if ck != c:
        raise ShapeError(f"conv2d: input has {c} channels but kernel expects {ck}")
    if len(stride) != 2 or not all(is_integer(s) and s >= 1 for s in stride):
        raise ShapeError(f"conv2d: stride {stride} must be two integers >= 1")
    stride = tuple(int(s) for s in stride)
    if b is not None and b.shape != (k,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({k},)")

    xc = x.data.transpose(1, 0, 2, 3)
    out = conv2d_cnhw(xc, w.data, stride)
    if b is not None:
        out += b.data[:, None, None, None]
    inputs = (x, w) if b is None else (x, w, b)

    def pull(g):
        dw, dx = _conv_backward(xc, w.data, stride, g.transpose(1, 0, 2, 3), x.requires_grad)
        dx = None if dx is None else dx.transpose(1, 0, 2, 3)
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    return apply_op(out.transpose(1, 0, 2, 3), inputs, pull)


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
