import multiprocessing
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textrec import tensor as T
from textrec.errors import ShapeError
from textrec.gradcheck import check_gradients
from textrec.tensor import Tape, Tensor


def rng():
    return np.random.default_rng(1234)


def sigmoid_two_branch(v):
    """Sign-split sigmoid: 1/(1+exp(-v)) where v >= 0, exp(v)/(1+exp(v)) below, clipped."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


class TestTensor:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_returns_the_one_element_at_any_rank(self, shape):
        value = Tensor(np.full(shape, 2.5)).item()
        assert value == 2.5 and type(value) is float

    def test_item_of_two_elements_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.array([1.0, 2.0])).item()

    def test_parameter_takes_over_a_float64_array(self):
        data = np.arange(6.0).reshape(2, 3)
        p = T.parameter(data)
        assert np.shares_memory(p.data, data) and p.requires_grad

    def test_parameter_converts_a_list(self):
        p = T.parameter([1.0, 2.0, 3.0])
        assert p.data.dtype == np.float64 and np.array_equal(p.data, [1.0, 2.0, 3.0])

    def test_parameter_converts_a_float32_array(self):
        data = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        p = T.parameter(data)
        assert p.data.dtype == np.float64 and np.array_equal(p.data, data)
        assert not np.shares_memory(p.data, data)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        y = T.sigmoid(Tensor(np.zeros((2, 2))))
        assert np.all(y.data == 0.5)

    def test_sigmoid_large_negative_is_positive_finite(self):
        y = T.sigmoid(Tensor(np.array([-50.0])))
        assert y.data[0] > 0.0
        assert np.isfinite(y.data[0])

    def test_sigmoid_open_interval_even_when_saturated(self):
        y = T.sigmoid(Tensor(np.array([-800.0, -40.0, 0.0, 40.0, 800.0])))
        assert np.all(y.data > 0.0)
        assert np.all(y.data < 1.0)

    def test_sigmoid_gradient_at_zero_is_quarter(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        with Tape() as tape:
            root = T.sum_all(T.sigmoid(x))
        tape.backward(root)
        assert x.grad[0] == pytest.approx(0.25, abs=1e-15)

    def test_sigmoid_bitwise_equals_two_branch_form(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 40.0, -40.0,
                          tiny, -tiny, 1e3 * tiny, -1e3 * tiny, np.finfo(np.float64).tiny / 2])
        r = rng()
        values = [edges] + [r.normal(0.0, s, 20_000) for s in (1.0, 10.0, 100.0, 1000.0)]
        for v in values:
            assert np.array_equal(T.sigmoid(Tensor(v)).data, sigmoid_two_branch(v))
        with_nan = np.array([np.nan, -np.nan, 0.0, 1.0, -1.0, np.inf, -np.inf])
        y = T.sigmoid(Tensor(with_nan)).data
        assert np.isnan(y[:2]).all()
        assert np.array_equal(y, sigmoid_two_branch(with_nan), equal_nan=True)

    def test_sigmoid_monotone(self):
        xs = np.linspace(-6, 6, 101)
        y = T.sigmoid(Tensor(xs)).data
        assert np.all(np.diff(y) > 0)

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_mul_grad_is_other_operand(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            root = T.sum_all(T.mul(x, x))
        tape.backward(root)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_relu_matches_masked_form_and_propagates_nan(self):
        # any length: the SIMD body and the scalar tail of np.maximum both see -0.0
        edges = np.array([-0.0, 0.0, -1.0, 2.0, np.inf, -np.inf, np.finfo(np.float64).smallest_subnormal])
        for v in [edges, np.full(37, -0.0), rng().normal(0.0, 1.0, 10_001)]:
            y = T.relu(Tensor(v)).data
            want = np.where(v > 0.0, v, 0.0)
            assert np.array_equal(y, want) and not np.signbit(y).any()
        nan = T.relu(Tensor(np.array([np.nan, -1.0, 1.0]))).data
        assert np.isnan(nan[0]) and nan[1] == 0.0 and nan[2] == 1.0

    def test_relu_gradient_passes_only_positive_inputs(self):
        x = Tensor(np.array([-1.0, -0.0, 0.0, 0.5, 3.0]), requires_grad=True)
        w = Tensor(np.array([2.0, 3.0, 4.0, 5.0, 6.0]))
        with Tape() as tape:
            root = T.sum_all(T.mul(T.relu(x), w))
        tape.backward(root)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 5.0, 6.0])


class TestSoftmax:
    def test_uniform_logits(self):
        y = T.softmax_rows(Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(y.data, np.full((1, 3), 1 / 3), rtol=0, atol=1e-15)

    def test_huge_logits_no_overflow(self):
        y = T.softmax_rows(Tensor(np.array([[1000.0, 1000.0, 999.0]])))
        assert np.all(np.isfinite(y.data))
        assert y.data.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=6),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, rows):
        y = T.softmax_rows(Tensor(np.array(rows, dtype=np.float64)))
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestConv2d:
    def test_identity_scaling_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.full((1, 1, 1, 1), 2.0))
        y = T.conv2d(x, k, stride=(1, 1))
        assert y.shape == (1, 1, 3, 3)
        np.testing.assert_array_equal(y.data, np.full((1, 1, 3, 3), 2.0))

    def test_center_equals_neighborhood_sum(self):
        r = rng()
        x = Tensor(r.uniform(-1, 1, (1, 1, 4, 4)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        y = T.conv2d(x, k, stride=(1, 1))
        assert y.data[0, 0, 1, 1] == pytest.approx(x.data[0, 0, 0:3, 0:3].sum(), rel=1e-14)

    def test_same_padding_output_shape_with_stride(self):
        x = Tensor(np.zeros((2, 3, 7, 5)))
        k = Tensor(np.zeros((4, 3, 3, 3)))
        y = T.conv2d(x, k, stride=(2, 2))
        assert y.shape == (2, 4, 4, 3)  # ceil(7/2), ceil(5/2)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_gradient_with_stride_bias_and_nonlinearity(self):
        r = rng()
        x = Tensor(r.uniform(-2, 2, (2, 2, 6, 5)), requires_grad=True)
        k = Tensor(r.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (3,)), requires_grad=True)
        err = check_gradients(
            lambda: T.sum_all(T.sigmoid(T.conv2d(x, k, b, stride=(2, 2)))),
            [x, k, b],
        )
        assert err < 1e-6


def conv_reference(x, w, b, stride, padding):
    """Direct nested-loop cross-correlation; ``same`` puts the odd pad pixel low/right."""
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    sh, sw = stride
    if padding == "same":
        ho, wo = -(-h // sh), -(-wd // sw)
        pt = max((ho - 1) * sh + kh - h, 0) // 2
        pl = max((wo - 1) * sw + kw - wd, 0) // 2
    else:
        ho, wo = (h - kh) // sh + 1, (wd - kw) // sw + 1
        pt = pl = 0
    out = np.zeros((n, k, ho, wo))
    for ni, ki, i, j in np.ndindex(n, k, ho, wo):
        acc = 0.0 if b is None else b[ki]
        for ci, di, dj in np.ndindex(c, kh, kw):
            r, s = i * sh + di - pt, j * sw + dj - pl
            if 0 <= r < h and 0 <= s < wd:
                acc += x[ni, ci, r, s] * w[ki, ci, di, dj]
        out[ni, ki, i, j] = acc
    return out


def valid_slice(size, k, s):
    """The same-padded outputs along one axis whose window lies inside the input."""
    out = -(-size // s)
    pt = max((out - 1) * s + k - size, 0) // 2
    assert pt % s == 0, "no same-padded window starts at the input's edge"
    return slice(pt // s, pt // s + (size - k) // s + 1)


# conv2d pads to ``same``; a ``valid`` case checks the outputs whose window lies inside
# the input against the unpadded reference. With a 3-tap kernel at stride 2 on an odd
# axis every same-padded window starts on the pad, so those combinations have no valid case.
CONV_GRID = [
    pytest.param(
        kernel, stride, padding, bias,
        id=f"k{kernel[0]}x{kernel[1]}-s{stride[0]}x{stride[1]}-{padding}{'-bias' if bias else ''}",
    )
    for kernel in ((3, 3), (3, 1), (1, 1))
    for stride in ((1, 1), (2, 2), (2, 1))
    for padding in ("same", "valid")
    for bias in (False, True)
    if padding == "same" or all(k == 1 or s == 1 for k, s in zip(kernel, stride))
]


SAME_GRID = [p for p in CONV_GRID if p.values[2] == "same"]


def rel_gap(got, want):
    """max |got - want| relative to max |want|."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestConv2dGrid:
    @staticmethod
    def operands(kernel, bias):
        r = rng()
        x = Tensor(r.uniform(-2, 2, (2, 2, 5, 7)), requires_grad=True)  # odd H and W
        w = Tensor(r.uniform(-1, 1, (3, 2) + kernel), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (3,)), requires_grad=True) if bias else None
        return r, x, w, b

    @staticmethod
    def window(x, kernel, stride, padding):
        """Index of the conv2d outputs that the ``padding`` reference computes."""
        if padding == "same":
            return (...,)
        h, wd = x.shape[2:]
        return (..., valid_slice(h, kernel[0], stride[0]), valid_slice(wd, kernel[1], stride[1]))

    @pytest.mark.parametrize("kernel,stride,padding,bias", CONV_GRID)
    def test_forward_matches_nested_loop(self, kernel, stride, padding, bias):
        _, x, w, b = self.operands(kernel, bias)
        y = T.conv2d(x, w, b, stride=stride).data[self.window(x, kernel, stride, padding)]
        want = conv_reference(x.data, w.data, None if b is None else b.data, stride, padding)
        assert y.shape == want.shape
        np.testing.assert_allclose(y, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding,bias", CONV_GRID)
    def test_weighted_gradient_matches_fd(self, kernel, stride, padding, bias):
        # a random upstream gradient: all-ones cannot tell a flipped kernel in dX;
        # zero outside the window, so a valid case weighs only the unpadded outputs
        r, x, w, b = self.operands(kernel, bias)
        weight = Tensor(np.zeros(T.conv2d(x, w, b, stride=stride).shape))
        window = self.window(x, kernel, stride, padding)
        weight.data[window] = r.uniform(-1, 1, weight.data[window].shape)
        leaves = [x, w] if b is None else [x, w, b]
        err = check_gradients(
            lambda: T.sum_all(T.mul(T.conv2d(x, w, b, stride=stride), weight)), leaves
        )
        assert err < 1e-6

    @pytest.mark.parametrize("kernel,stride,padding,bias", SAME_GRID)
    def test_untracked_matches_tracked(self, kernel, stride, padding, bias):
        _, x, w, b = self.operands(kernel, bias)
        free = T.conv2d(x, w, b, stride=stride)
        with Tape():
            taped = T.conv2d(x, w, b, stride=stride)
        assert taped.requires_grad and not free.requires_grad
        assert rel_gap(free.data, taped.data) <= 1e-12

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 5])
    def test_untracked_chunks_match_tracked(self, monkeypatch, per_chunk):
        # N = 5 in chunks of 1, 2+2+1, 3+2 and one chunk of all five
        r = rng()
        x = Tensor(r.uniform(-2, 2, (5, 2, 5, 7)), requires_grad=True)
        w = Tensor(r.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (3,)), requires_grad=True)
        with Tape():
            taped = T.conv2d(x, w, b, stride=(2, 1))
        sample_scratch = 2 * 3 * 3 * 3 * 7  # one sample's columns: C·kh·kw·Ho·Wo
        monkeypatch.setattr(T, "_COLS_CHUNK", per_chunk * sample_scratch)
        monkeypatch.setattr(T, "_MIN_GEMM_COLS", sys.maxsize)  # the budget alone sets the chunks
        chunks = []
        windows = T._windows
        monkeypatch.setattr(T, "_windows", lambda xs, *a: chunks.append(xs.shape[1]) or windows(xs, *a))
        free = T.conv2d(x, w, b, stride=(2, 1))
        assert len(chunks) == -(-5 // per_chunk)
        assert rel_gap(free.data, taped.data) <= 1e-12

    @staticmethod
    def taped_results(x, w, b, stride):
        """Output, dW, db and dX of one taped conv under a fixed random upstream gradient."""
        for t in (x, w, b):
            t.grad = None
        with Tape() as tape:
            y = T.conv2d(x, w, b, stride=stride)
            weight = Tensor(np.random.default_rng(7).uniform(-1, 1, y.shape))
            root = T.sum_all(T.mul(y, weight))
        tape.backward(root)
        return y.data.copy(), w.grad.copy(), b.grad.copy(), x.grad.copy()

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "kernel,stride", [((3, 3), (1, 1)), ((3, 3), (2, 2)), ((1, 1), (2, 2))], ids=["k3s1", "k3s2", "k1s2"]
    )
    def test_tracked_chunks_match_one_chunk(self, monkeypatch, kernel, stride, per_chunk):
        # N = 5 in chunks of 1, 2+2+1, 3+2 and one chunk of all five, forward and backward
        r = rng()
        x = Tensor(r.uniform(-2, 2, (5, 2, 5, 7)), requires_grad=True)
        w = Tensor(r.uniform(-1, 1, (3, 2) + kernel), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (3,)), requires_grad=True)
        whole = self.taped_results(x, w, b, stride)
        ho, wo = -(-5 // stride[0]), -(-7 // stride[1])
        monkeypatch.setattr(T, "_COLS_CHUNK", per_chunk * 2 * kernel[0] * kernel[1] * ho * wo)
        monkeypatch.setattr(T, "_MIN_GEMM_COLS", sys.maxsize)  # the budget alone sets the chunks
        slots, chunks = [], []
        scratch, windows = T._scratch, T._windows
        monkeypatch.setattr(T, "_scratch", lambda size, slot="cols": slots.append(slot) or scratch(size, slot))
        monkeypatch.setattr(T, "_windows", lambda xs, *a: chunks.append(xs.shape[1]) or windows(xs, *a))
        chunked = self.taped_results(x, w, b, stride)
        assert len(chunks) == 2 * -(-5 // per_chunk)  # forward and backward
        assert slots.count("cols") == 2 and slots.count("col2im") == 1  # taken once per pass
        assert slots.count("pad") == (0 if kernel == (1, 1) else 2)  # a 1×1 kernel pads nothing
        for got, want in zip(chunked, whole):
            assert rel_gap(got, want) <= 1e-12

    def test_chunked_backward_matches_fd(self, monkeypatch):
        r = rng()
        x = Tensor(r.uniform(-2, 2, (5, 2, 5, 7)), requires_grad=True)
        w = Tensor(r.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (3,)), requires_grad=True)
        weight = Tensor(r.uniform(-1, 1, (5, 3, 3, 7)))
        monkeypatch.setattr(T, "_COLS_CHUNK", 2 * 2 * 3 * 3 * 3 * 7)  # chunks of 2+2+1 samples
        monkeypatch.setattr(T, "_MIN_GEMM_COLS", sys.maxsize)
        err = check_gradients(lambda: T.sum_all(T.mul(T.conv2d(x, w, b, stride=(2, 1)), weight)), [x, w, b])
        assert err < 1e-6

    def test_reused_col2im_buffer_never_leaks(self):
        # x feeds a product and two taped convs; the convs' pulls run first, so x's
        # gradient starts as a copy of a col2im view and the other pull reuses that buffer
        r = rng()
        x = Tensor(r.uniform(-2, 2, (2, 2, 5, 7)), requires_grad=True)
        w1 = Tensor(r.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        w2 = Tensor(r.uniform(-1, 1, (3, 2, 1, 1)), requires_grad=True)
        wx = Tensor(r.uniform(-1, 1, (2, 2, 5, 7)))
        wy = Tensor(r.uniform(-1, 1, (2, 3, 5, 7)))

        def build():
            t = T.sum_all(T.mul(x, wx))
            y = T.add(T.conv2d(x, w1), T.conv2d(x, w2))
            return T.add(T.sum_all(T.mul(y, wy)), t)

        assert check_gradients(build, [x, w1, w2]) < 1e-6
        with Tape() as tape:
            root = build()
        for t in (x, w1, w2):
            t.grad = None
        tape.backward(root)
        assert x.grad.flags["OWNDATA"] and x.grad.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(x.grad, T._scratch(1, "col2im").base)
        kept = [t.grad.copy() for t in (x, w1, w2)]
        other = Tensor(r.uniform(-2, 2, (2, 2, 5, 7)), requires_grad=True)
        w3 = Tensor(r.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        with Tape() as tape:
            root = T.sum_all(T.conv2d(other, w3))
        tape.backward(root)  # same shapes: the same col2im buffer, rewritten
        for t, want in zip((x, w1, w2), kept):
            np.testing.assert_array_equal(t.grad, want)

    def test_taped_forward_keeps_no_columns(self):
        # the tape holds the input and weights it already references, not 9x-the-input columns
        r = rng()
        x = Tensor(r.uniform(-1, 1, (4, 16, 32, 88)), requires_grad=True)
        w = Tensor(r.uniform(-1, 1, (16, 16, 3, 3)), requires_grad=True)
        with Tape():
            T.conv2d(x, w)  # grows the reused scratch before measuring
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = T.conv2d(x, w)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held < 2 * y.data.nbytes

    def test_untracked_output_survives_the_next_call(self):
        r = rng()
        w = Tensor(r.uniform(-1, 1, (3, 2, 3, 3)))
        first = T.conv2d(Tensor(r.uniform(-2, 2, (2, 2, 5, 7))), w)
        kept = first.data.copy()
        T.conv2d(Tensor(r.uniform(-2, 2, (2, 2, 5, 7))), w)  # same shapes: same scratch
        np.testing.assert_array_equal(first.data, kept)
        assert not np.shares_memory(first.data, T._scratch(1).base)

    def test_input_without_grad_gets_none_and_weights_match_fd(self):
        r = rng()
        x = Tensor(r.uniform(-2, 2, (2, 2, 5, 7)))
        w = Tensor(r.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (3,)), requires_grad=True)
        weight = Tensor(r.uniform(-1, 1, (2, 3, 3, 4)))

        def build():
            return T.sum_all(T.mul(T.conv2d(x, w, b, stride=(2, 2)), weight))

        err = check_gradients(build, [w, b])
        assert x.grad is None
        assert err < 1e-6
        dw = w.grad.copy()
        x.requires_grad = True
        w.grad = None
        with Tape() as tape:
            root = build()
        tape.backward(root)
        assert x.grad is not None
        np.testing.assert_array_equal(w.grad, dw)


def split_operands(kernel, stride, n, epilogue):
    """Channel-major conv2d_cnhw arguments; with ``epilogue``, scale and shift too."""
    r = rng()
    x = r.uniform(-2, 2, (2, n, 5, 7))  # (C, N, H, W), odd H and W
    w = r.uniform(-1, 1, (3, 2) + kernel)
    if not epilogue:
        return (x, w, stride), {}
    return (x, w, stride), dict(scale=r.uniform(0.5, 1.5, 3), shift=r.uniform(-1, 1, 3))


def on_caller_or_pool(thread_name):
    return thread_name == threading.current_thread().name or thread_name.startswith("textrec-conv")


def range_slots(p, pads=True):
    """The scratch slots a conv of ``p`` ranges takes on the caller, in order: each
    range's columns, and its padded input unless the conv pads nothing."""
    return [slot + (str(i) if i else "") for i in range(p) for slot in ("cols", "pad")[: 1 + pads]]


def fail_second_range(windows):
    """``_windows`` that raises on the 2-sample chunk: the second range of an N = 5 split, on any thread."""

    def fail(xs, *a):
        if xs.shape[1] == 2:
            raise FloatingPointError("range failed")
        return windows(xs, *a)

    return fail


class TestSplitConv:
    """conv2d_cnhw over sample ranges run by ``_run_ranges``, on any machine:
    the threshold and the core count are patched, and the serial engine is
    the same code with the threshold at infinity. The caller and the pool
    both claim ranges, so no test assumes which thread runs which range."""

    @staticmethod
    def serial(monkeypatch, args, kwargs):
        with monkeypatch.context() as m:
            m.setattr(T, "_SPLIT_FLOP", float("inf"))
            return T.conv2d_cnhw(*args, **kwargs)

    @staticmethod
    def traced(monkeypatch):
        """Record (thread name, samples) per chunk and (thread name, slot, size) per scratch request."""
        chunks, requests = [], []
        windows, scratch = T._windows, T._scratch

        def record_windows(xs, *a):
            chunks.append((threading.current_thread().name, xs.shape[1]))
            return windows(xs, *a)

        def record_scratch(size, slot="cols"):
            requests.append((threading.current_thread().name, slot, size))
            return scratch(size, slot)

        monkeypatch.setattr(T, "_windows", record_windows)
        monkeypatch.setattr(T, "_scratch", record_scratch)
        return chunks, requests

    @pytest.mark.parametrize("per_range", [None, 1], ids=["one-chunk", "chunks-of-1"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("kernel,stride,padding,bias", SAME_GRID)
    def test_split_equals_serial(self, monkeypatch, kernel, stride, padding, bias, n, per_range):
        # bias selects the epilogue; N = 1, 2, 5 runs ranges of 1, 1+1 and 3+2 samples.
        # In chunks of one sample both engines run the same GEMMs, so the results are
        # bitwise equal; one chunk per range against one for the batch changes the GEMM
        # widths, which BLAS may round differently, so that pair gets the chunk tests' bound.
        args, kwargs = split_operands(kernel, stride, n, bias)
        sample = 2 * kernel[0] * kernel[1] * -(-5 // stride[0]) * -(-7 // stride[1])
        monkeypatch.setattr(T, "_MIN_GEMM_COLS", sys.maxsize)  # the budget alone sets the chunks
        if per_range is not None:
            monkeypatch.setattr(T, "_COLS_CHUNK", per_range * sample)
        want = self.serial(monkeypatch, args, kwargs)
        if per_range is not None:
            monkeypatch.setattr(T, "_COLS_CHUNK", 2 * per_range * sample)
        monkeypatch.setattr(T, "_SPLIT_FLOP", 0)
        monkeypatch.setattr(T, "_CORES", 2)
        chunks, requests = self.traced(monkeypatch)
        got = T.conv2d_cnhw(*args, **kwargs)
        if per_range is None and n > 1:
            assert rel_gap(got, want) <= 1e-12
        else:
            assert np.array_equal(got, want)
        p = min(n, 2)
        assert all(on_caller_or_pool(thread) for thread, _ in chunks)
        assert {thread for thread, _, _ in requests} == {threading.current_thread().name}
        assert [slot for _, slot, _ in requests] == range_slots(p, kernel != (1, 1))
        assert all(size <= max(T._COLS_CHUNK // p, sample) for _, slot, size in requests if slot.startswith("cols"))
        assert sum(samples for _, samples in chunks) == n
        if per_range is not None:
            assert all(samples == 1 for _, samples in chunks)

    def test_below_threshold_runs_inline(self, monkeypatch):
        args, kwargs = split_operands((3, 3), (1, 1), 5, True)
        work = 2 * 3 * 2 * 9 * 5 * 5 * 7  # 2·K·C·kh·kw·N·Ho·Wo
        monkeypatch.setattr(T, "_CORES", 2)
        monkeypatch.setattr(T, "_SPLIT_FLOP", work + 1)
        chunks, requests = self.traced(monkeypatch)
        below = T.conv2d_cnhw(*args, **kwargs)
        assert {thread for thread, _ in chunks} == {threading.current_thread().name}
        assert [slot for _, slot, _ in requests] == ["cols", "pad"]
        monkeypatch.setattr(T, "_SPLIT_FLOP", work)
        del requests[:]
        at = T.conv2d_cnhw(*args, **kwargs)
        # two ranges, whichever threads ran them
        assert [slot for _, slot, _ in requests] == ["cols", "pad", "cols1", "pad1"]
        assert rel_gap(at, below) <= 1e-12

    def test_worker_exception_reaches_caller_and_next_call_succeeds(self, monkeypatch):
        args, kwargs = split_operands((3, 3), (2, 2), 5, True)
        monkeypatch.setattr(T, "_SPLIT_FLOP", 0)
        monkeypatch.setattr(T, "_CORES", 2)
        want = T.conv2d_cnhw(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(T, "_windows", fail_second_range(T._windows))
            with pytest.raises(FloatingPointError, match="range failed"):
                T.conv2d_cnhw(*args, **kwargs)
        assert np.array_equal(T.conv2d_cnhw(*args, **kwargs), want)

    def test_concurrent_callers_stress(self, monkeypatch):
        # more ranges than pool threads and more callers than cores, with frequent thread
        # switches, forward and backward: a range that wrote another's output block, column
        # slot, dW accumulator or col2im samples would show
        forward = [split_operands(k, s, 5, True) for k, s in [((3, 3), (1, 1)), ((3, 1), (2, 1)), ((1, 1), (2, 2))]]
        backward = [backward_operands(k, s, 5, nchw) for k, s, nchw in [((3, 3), (1, 1), False), ((3, 1), (2, 1), True)]]
        calls = [lambda a=a, kw=kw: (T.conv2d_cnhw(*a, **kw),) for a, kw in forward]
        calls += [lambda a=a: split_backward(a) for a in backward]
        monkeypatch.setattr(T, "_SPLIT_FLOP", 0)
        monkeypatch.setattr(T, "_CORES", 3)
        wants = [call() for call in calls]
        bad = []

        def caller(offset):
            for i in range(30):
                j = (i + offset) % len(calls)
                if not all(np.array_equal(a, b) for a, b in zip(calls[j](), wants[j])):
                    bad.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
    def test_forked_child_runs_split_convs(self, monkeypatch):
        # the child inherits the started pool but none of its threads
        args, kwargs = split_operands((3, 3), (1, 1), 5, True)
        monkeypatch.setattr(T, "_SPLIT_FLOP", 0)
        monkeypatch.setattr(T, "_CORES", 2)
        want = T.conv2d_cnhw(*args, **kwargs)
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(T.conv2d_cnhw(*args, **kwargs)))
        child.start()
        try:
            got = results.get(timeout=30)  # a child waiting on threads it lacks times out here
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0 and np.array_equal(got, want)

    def test_scratch_is_per_thread(self):
        mine = T._scratch(64, "cols")
        theirs = []
        t = threading.Thread(target=lambda: theirs.append(T._scratch(64, "cols")))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive() and len(theirs) == 1
        assert not np.shares_memory(mine, theirs[0])
        assert np.shares_memory(mine, T._scratch(64, "cols"))  # reused on the same thread


def backward_operands(kernel, stride, n, nchw_grad):
    """Channel-major ``_conv_backward`` arguments with dX needed. With ``nchw_grad`` the
    output gradient is the channel-major view of an NCHW array, as ``conv2d``'s pull hands
    it over; otherwise it is contiguous, as the residual block's pull hands it over."""
    r = rng()
    x = r.uniform(-2, 2, (2, n, 5, 7))
    w = r.uniform(-1, 1, (3, 2) + kernel)
    ho, wo = -(-5 // stride[0]), -(-7 // stride[1])
    g = r.uniform(-1, 1, (n, 3, ho, wo)).transpose(1, 0, 2, 3) if nchw_grad else r.uniform(-1, 1, (3, n, ho, wo))
    return x, w, stride, g, True


def split_backward(args):
    """dW and a copy of the dX view of one ``_conv_backward`` call."""
    dw, dx = T._conv_backward(*args)
    return dw, dx.copy()


class TestSplitBackward:
    """``_conv_backward`` over the forward's sample ranges, patched as in ``TestSplitConv``."""

    @staticmethod
    def split(monkeypatch):
        monkeypatch.setattr(T, "_SPLIT_FLOP", 0)
        monkeypatch.setattr(T, "_CORES", 2)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("kernel,stride,padding,bias", SAME_GRID)
    def test_split_equals_serial(self, monkeypatch, kernel, stride, padding, bias, n):
        # bias selects the NCHW-view gradient; N = 1, 2, 5 runs ranges of 1, 1+1 and 3+2
        # samples, whose partial dWs are summed, so dW may round differently from one sum
        args = backward_operands(kernel, stride, n, bias)
        with monkeypatch.context() as m:
            m.setattr(T, "_SPLIT_FLOP", float("inf"))
            want = split_backward(args)
        self.split(monkeypatch)
        chunks, requests = TestSplitConv.traced(monkeypatch)
        got = split_backward(args)
        for a, b in zip(got, want):
            assert a.shape == b.shape and rel_gap(a, b) <= 1e-12
        assert [slot for _, slot, _ in requests] == range_slots(min(n, 2), kernel != (1, 1)) + ["col2im"]
        assert {thread for thread, _, _ in requests} == {threading.current_thread().name}
        assert all(on_caller_or_pool(thread) for thread, _ in chunks)
        assert sorted(samples for _, samples in chunks) == sorted([n // 2 + n % 2, n // 2][: min(n, 2)])

    def test_repeated_split_calls_are_bitwise_equal(self, monkeypatch):
        # three ranges (2 + 2 + 1 samples), whose partial dWs would round differently
        # if they were summed in the order the threads finished rather than in range order
        args = backward_operands((3, 3), (1, 1), 5, False)
        self.split(monkeypatch)
        monkeypatch.setattr(T, "_CORES", 3)
        first = split_backward(args)
        for _ in range(20):
            for a, b in zip(split_backward(args), first):
                assert np.array_equal(a, b)

    def test_ranges_running_together_keep_their_own_buffers(self, monkeypatch):
        # both ranges reach their GEMMs at once, on two threads, as on two free cores;
        # a dW accumulator, product buffer or column slot shared between ranges would show
        r = rng()
        x, w, g = r.uniform(-1, 1, (16, 2, 16, 32)), r.uniform(-1, 1, (32, 16, 3, 3)), r.uniform(-1, 1, (32, 2, 16, 32))
        args = (x, w, (1, 1), g, True)
        with monkeypatch.context() as m:
            m.setattr(T, "_SPLIT_FLOP", float("inf"))
            want = split_backward(args)
        self.split(monkeypatch)
        together, windows, threads = threading.Barrier(2, timeout=30), T._windows, []

        def meet(xs, *a):
            threads.append(threading.current_thread().name)
            together.wait()
            return windows(xs, *a)

        monkeypatch.setattr(T, "_windows", meet)
        for _ in range(10):
            for a, b in zip(split_backward(args), want):
                assert rel_gap(a, b) <= 1e-12
        assert len(set(threads)) == 2

    def test_stalled_pool_leaves_every_range_to_the_caller(self, monkeypatch):
        # a pool whose only thread is busy, as when the second core is unavailable:
        # the caller claims both ranges instead of waiting for the pool to wake
        args = backward_operands((3, 3), (2, 2), 5, False)
        with monkeypatch.context() as m:
            m.setattr(T, "_SPLIT_FLOP", float("inf"))
            want = split_backward(args)
        self.split(monkeypatch)
        pool, release = ThreadPoolExecutor(1, thread_name_prefix="textrec-conv"), threading.Event()
        monkeypatch.setattr(T, "_POOL", pool)
        pool.submit(release.wait, 30)
        try:
            chunks, _ = TestSplitConv.traced(monkeypatch)
            got = split_backward(args)
        finally:
            release.set()
            pool.shutdown(wait=True)
        assert [samples for _, samples in chunks] == [3, 2]
        assert {thread for thread, _ in chunks} == {threading.current_thread().name}
        for a, b in zip(got, want):
            assert rel_gap(a, b) <= 1e-12

    def test_range_exception_reaches_caller_and_next_call_succeeds(self, monkeypatch):
        args = backward_operands((3, 3), (2, 2), 5, True)
        self.split(monkeypatch)
        want = split_backward(args)
        with monkeypatch.context() as m:
            m.setattr(T, "_windows", fail_second_range(T._windows))
            with pytest.raises(FloatingPointError, match="range failed"):
                T._conv_backward(*args)
        for a, b in zip(split_backward(args), want):
            assert np.array_equal(a, b)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
    def test_forked_child_runs_split_backward(self, monkeypatch):
        args = backward_operands((3, 3), (1, 1), 5, False)
        self.split(monkeypatch)
        want = split_backward(args)
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(split_backward(args)))
        child.start()
        try:
            got = results.get(timeout=30)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestChunkPlan:
    """The chunks ``_sample_ranges`` plans at the benchmark workloads' shapes, two ranges
    as on two cores, recorded per ``_windows`` call as ``TestSplitConv.traced`` does."""

    @staticmethod
    def planned(monkeypatch, c, k, kernel, stride, n, h, w):
        """Samples per chunk of one forward and one backward, and the slots they took."""
        monkeypatch.setattr(T, "_CORES", 2)
        x, wt = np.zeros((c, n, h, w)), np.zeros((k, c, kernel, kernel))
        chunks, requests = TestSplitConv.traced(monkeypatch)
        y = T.conv2d_cnhw(x, wt, (stride, stride))
        forward = [samples for _, samples in chunks]
        del chunks[:]
        T._conv_backward(x, wt, (stride, stride), y, True)
        return forward, [samples for _, samples in chunks], [slot for _, slot, _ in requests]

    def test_toy_stage0_conv_runs_one_sample_chunks(self, monkeypatch):
        # 2,816 output columns per sample already reach the GEMM-width floor
        forward, backward, slots = self.planned(monkeypatch, 16, 16, 3, 1, 8, 32, 88)
        assert forward == backward == [1] * 8
        assert slots == 2 * range_slots(2) + ["col2im"]

    @pytest.mark.parametrize(
        "c,k,kernel,stride,h,w",
        [
            (128, 256, 3, 2, 16, 44),
            (256, 256, 3, 1, 8, 22),
            (128, 256, 1, 2, 16, 44),
            (256, 512, 3, 2, 8, 22),
            (512, 512, 3, 1, 4, 11),
            (256, 512, 1, 2, 8, 22),
        ],
        ids=["stage2-conv1", "stage2-conv2", "stage2-proj", "stage3-conv1", "stage3-conv2", "stage3-proj"],
    )
    def test_paper_deep_stage_convs_run_one_chunk_per_range(self, monkeypatch, c, k, kernel, stride, h, w):
        # 4 samples of 176 or 44 output columns stay below the floor: one GEMM per range
        forward, backward, _ = self.planned(monkeypatch, c, k, kernel, stride, 8, h, w)
        assert sorted(forward) == sorted(backward) == [4, 4]

    @pytest.mark.parametrize("force", ["floor", "budget"])
    def test_two_chunks_of_five_split_three_two(self, monkeypatch, force):
        # one range of N = 5 (35 output columns per sample); the floor at 2 samples, or a
        # budget of 4 samples, gives 2 chunks, balanced as 3 + 2 rather than 4 + 1
        monkeypatch.setattr(T, "_SPLIT_FLOP", float("inf"))
        if force == "floor":
            monkeypatch.setattr(T, "_MIN_GEMM_COLS", 2 * 35)
        else:
            monkeypatch.setattr(T, "_MIN_GEMM_COLS", sys.maxsize)
            monkeypatch.setattr(T, "_COLS_CHUNK", 4 * 2 * 9 * 35)
        forward, backward, slots = self.planned(monkeypatch, 2, 3, 3, 1, 5, 5, 7)
        assert forward == backward == [3, 2]
        assert slots == 2 * range_slots(1) + ["col2im"]


def reference_windows(x, kh, kw, sh, sw, pad):
    """``_windows`` built as ``np.pad`` and ``sliding_window_view`` build it, ignoring ``pad``."""
    _, pt, pb = T._same_pad(x.shape[2], kh, sh)
    _, pl, pr = T._same_pad(x.shape[3], kw, sw)
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    return win.transpose(0, 4, 5, 1, 2, 3)


class TestPadScratch:
    """Each chunk is same-padded into its range's ``pad`` slot, which an earlier, larger
    conv leaves full of its own values: here NaN, so any element the pad does not
    write would show in every output and gradient."""

    @staticmethod
    def stale_pads():
        for slot in ("pad", "pad1"):
            T._scratch(1 << 12, slot)[:] = np.nan

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    @pytest.mark.parametrize("extent", [(5, 7), (6, 8)], ids=["odd", "even"])
    @pytest.mark.parametrize("kernel,stride,padding,bias", SAME_GRID)
    def test_stale_pad_slots_match_np_pad_bitwise(self, monkeypatch, kernel, stride, padding, bias, extent, split):
        # N = 5 in chunks of 3 + 2 (serial) or ranges of 3 and 2 (split); at stride 2 an even
        # extent pads one pixel below or right only. bias selects the epilogue and the
        # NCHW-view gradient. The reference is the same engine on np.pad windows.
        r = rng()
        x = r.uniform(-2, 2, (5, 2) + extent).transpose(1, 0, 2, 3)  # channel-major view
        w = r.uniform(-1, 1, (3, 2) + kernel)
        ho, wo = -(-extent[0] // stride[0]), -(-extent[1] // stride[1])
        g = r.uniform(-1, 1, (5, 3, ho, wo)).transpose(1, 0, 2, 3) if bias else r.uniform(-1, 1, (3, 5, ho, wo))
        kwargs = dict(scale=r.uniform(0.5, 1.5, 3), shift=r.uniform(-1, 1, 3)) if bias else {}
        monkeypatch.setattr(T, "_MIN_GEMM_COLS", 2 * ho * wo)
        monkeypatch.setattr(T, "_CORES", 2)
        monkeypatch.setattr(T, "_SPLIT_FLOP", 0 if split else float("inf"))
        with monkeypatch.context() as m:
            m.setattr(T, "_windows", reference_windows)
            want = T.conv2d_cnhw(x, w, stride, **kwargs), *split_backward((x, w, stride, g, True))
        self.stale_pads()
        y = T.conv2d_cnhw(x, w, stride, **kwargs)
        self.stale_pads()
        got = y, *split_backward((x, w, stride, g, True))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("extent", [(5, 7), (6, 8)], ids=["odd", "even"])
    @pytest.mark.parametrize(
        "kernel,stride", [((3, 3), (2, 2)), ((3, 1), (1, 1)), ((1, 1), (2, 2))], ids=["k3x3-s2", "k3x1-s1", "k1x1-s2"]
    )
    def test_windows_are_read_only_and_equal_np_pad(self, kernel, stride, extent):
        x = rng().uniform(-2, 2, (2, 3) + extent)
        pad = np.full(1 << 12, np.nan)
        win = T._windows(x, *kernel, *stride, pad)
        assert not win.flags.writeable
        assert np.array_equal(win, reference_windows(x, *kernel, *stride, None))
        assert np.shares_memory(win, x) == (kernel == (1, 1))  # a 1×1 kernel pads nothing


class TestRunRanges:
    def test_each_task_runs_exactly_once(self):
        for count in (1, 2, 7):
            ran = []
            T._run_ranges([lambda i=i: ran.append(i) for i in range(count)])
            assert sorted(ran) == list(range(count))

    def test_the_pool_claims_a_range_the_caller_leaves(self):
        # the caller's range waits until a pool thread has started the second one, so the
        # caller cannot cancel that job and must neither run it again nor skip waiting for it
        started, ran = threading.Event(), []

        def caller_range():
            assert started.wait(timeout=30)
            ran.append(threading.current_thread().name)

        def pool_range():
            started.set()
            time.sleep(0.05)
            ran.append(threading.current_thread().name)

        T._run_ranges([caller_range, pool_range])
        assert len(ran) == 2 and ran[0] == threading.current_thread().name
        assert ran[1].startswith("textrec-conv")

    def test_exception_arrives_after_every_started_range_stops(self):
        # one range fails while the other, started on its own thread, still runs;
        # the call returns only when both have stopped
        for failing in ("caller", "pool"):
            started, finished = threading.Event(), []

            def caller_range():
                assert started.wait(timeout=30)
                if failing == "caller":
                    raise FloatingPointError("range failed")
                time.sleep(0.2)
                finished.append(True)

            def pool_range():
                started.set()
                if failing == "pool":
                    raise FloatingPointError("range failed")
                time.sleep(0.2)
                finished.append(True)

            with pytest.raises(FloatingPointError, match="range failed"):
                T._run_ranges([caller_range, pool_range])
            assert finished == [True], failing


class TestBackward:
    def test_identity_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 1.0)
            root = T.sum_all(y)
        tape.backward(root)
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_non_scalar_root_raises(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_backward_consumes_the_tape_and_fills_leaves_only(self):
        r = rng()
        x = Tensor(r.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = Tensor(r.uniform(-1, 1, (4, 2)), requires_grad=True)
        with Tape() as tape:
            y = T.matmul(x, w)
            z = T.tanh(y)
            zz = T.mul(z, z)
            root = T.sum_all(zz)
        tape.backward(root)
        assert len(tape) == 4 and not tape._records
        assert [t.grad for t in (y, z, zz, root)] == [None] * 4
        # d(Σ z²)/dy = 2z(1 - z²), the arithmetic of mul's and tanh's pulls
        dy = (z.data + z.data) * (1.0 - z.data * z.data)
        np.testing.assert_array_equal(x.grad, dy @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ dy)

    def test_second_backward_on_a_tape_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            root = T.sum_all(T.scale(x, 3.0))
        tape.backward(root)
        with pytest.raises(RuntimeError):
            tape.backward(root)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_a_pulled_record_is_freed_before_the_earlier_pull_runs(self):
        freed = []

        def record(x, saved, later=None):
            def pull(g):
                if later is not None:
                    freed.append(later() is None)
                return (g * saved,)

            return T.apply_op(x.data * saved, (x,), pull)

        x = Tensor(np.ones(3), requires_grad=True)
        later_saved = np.full(3, 2.0)
        later = weakref.ref(later_saved)
        with Tape() as tape:
            a = record(x, np.full(3, 3.0), later)
            root = T.sum_all(record(a, later_saved))
        del later_saved  # now only the later record's pull holds it
        tape.backward(root)
        assert freed == [True]
        np.testing.assert_array_equal(x.grad, np.full(3, 6.0))

    def test_backward_through_a_chain_releases_each_gradient(self):
        # each intermediate grad is released once pulled, so about 2 MiB are alive at once:
        # keeping every intermediate grad would peak at 10 MiB
        x = Tensor(np.ones(1 << 17), requires_grad=True)  # 1 MiB
        with Tape() as tape:
            y = x
            for _ in range(8):
                y = T.scale(y, 1.5)
            root = T.sum_all(y)
        del y
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tape.backward(root)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20
        np.testing.assert_array_equal(x.grad, np.full(1 << 17, 1.5**8))

    def test_composite_conv_sigmoid_sum_matches_fd(self):
        r = rng()
        x = Tensor(r.uniform(-1, 1, (1, 1, 4, 6)), requires_grad=True)
        k = Tensor(r.uniform(-1, 1, (2, 1, 3, 3)), requires_grad=True)
        err = check_gradients(lambda: T.sum_all(T.sigmoid(T.conv2d(x, k))), [x, k])
        assert err < 1e-6

    def test_gradients_accumulate_for_shared_input(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            root = T.sum_all(T.add(x, x))
        tape.backward(root)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_add_same_input_twice_matches_fd(self):
        # add's pull hands one array to both inputs; the outer add reuses x
        r = rng()
        x = Tensor(r.uniform(-1, 1, (3, 4)), requires_grad=True)
        weight = Tensor(r.uniform(-1, 1, (3, 4)))
        err = check_gradients(lambda: T.sum_all(T.mul(T.add(T.add(x, x), x), weight)), [x])
        assert err < 1e-6

    def test_tensor_feeding_two_ops_matches_fd(self):
        # add runs after mul, so its pull reaches a and b first and mul's then adds into a
        r = rng()
        a = Tensor(r.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (3, 4)), requires_grad=True)
        c = Tensor(r.uniform(-1, 1, (3, 4)))
        weight = Tensor(r.uniform(-1, 1, (3, 4)))

        def build():
            t = T.mul(a, c)
            s = T.add(a, b)
            return T.sum_all(T.add(T.mul(s, weight), t))

        err = check_gradients(build, [a, b])
        assert err < 1e-6

    def test_transposed_view_gradient_matches_fd(self):
        # conv2d's dX is a transposed view; the stored gradient must be an owned C-ordered copy
        r = rng()
        x = Tensor(r.uniform(-1, 1, (2, 3, 4, 5)), requires_grad=True)
        k = Tensor(r.uniform(-1, 1, (2, 3, 3, 3)), requires_grad=True)
        wx = Tensor(r.uniform(-1, 1, (2, 3, 4, 5)))
        wy = Tensor(r.uniform(-1, 1, (2, 2, 4, 5)))

        def build():
            t = T.sum_all(T.mul(x, wx))
            return T.add(T.sum_all(T.mul(T.conv2d(x, k), wy)), t)

        err = check_gradients(build, [x, k])
        assert err < 1e-6
        with Tape() as tape:
            root = T.sum_all(T.mul(T.conv2d(x, k), wy))
        x.grad = None
        tape.backward(root)
        assert x.grad.flags["C_CONTIGUOUS"] and x.grad.flags["OWNDATA"]

    def test_no_tape_means_no_tracking(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = T.scale(x, 3.0)
        assert y.requires_grad is False

    def test_finite_outputs_on_bounded_inputs(self):
        r = rng()
        x = Tensor(r.uniform(-2, 2, (2, 3, 8, 8)))
        k = Tensor(r.uniform(-2, 2, (4, 3, 3, 3)))
        y = T.tanh(T.conv2d(x, k))
        assert np.all(np.isfinite(y.data))


class TestShapeOps:
    def test_concat_and_split_gradients(self):
        r = rng()
        a = Tensor(r.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = Tensor(r.uniform(-1, 1, (2, 2)), requires_grad=True)
        w = Tensor(r.uniform(-1, 1, (2, 5)))
        err = check_gradients(lambda: T.sum_all(T.mul(T.concat([a, b], axis=1), w)), [a, b])
        assert err < 1e-6

    def test_stack_getitem_roundtrip(self):
        r = rng()
        parts = [Tensor(r.uniform(-1, 1, (2, 3))) for _ in range(4)]
        stacked = Tensor(np.stack([p.data for p in parts], axis=0))
        assert stacked.shape == (4, 2, 3)
        np.testing.assert_array_equal(T.getitem(stacked, 2).data, parts[2].data)

    def test_getitem_gradient_scatters(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            root = T.sum_all(T.getitem(x, (slice(1, 3), slice(0, 2))))
        tape.backward(root)
        expected = np.zeros((3, 4))
        expected[1:3, 0:2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_transpose_reshape_gradients(self):
        r = rng()
        x = Tensor(r.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        w = Tensor(r.uniform(-1, 1, (4, 6)))
        err = check_gradients(
            lambda: T.sum_all(T.mul(T.reshape(T.transpose(x, (2, 0, 1)), (4, 6)), w)), [x]
        )
        assert err < 1e-6


class TestScaleChannels:
    def test_broadcast_product(self):
        r = rng()
        x = Tensor(r.uniform(-1, 1, (2, 3, 4, 5)))
        m = Tensor(r.uniform(0, 1, (2, 1, 4, 5)))
        y = T.scale_channels(x, m)
        for c in range(3):
            np.testing.assert_allclose(y.data[:, c], x.data[:, c] * m.data[:, 0], rtol=0, atol=0)

    def test_spatial_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.scale_channels(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 1, 4, 5))))

    def test_gradient(self):
        r = rng()
        x = Tensor(r.uniform(-1, 1, (2, 3, 2, 3)), requires_grad=True)
        m = Tensor(r.uniform(0.1, 0.9, (2, 1, 2, 3)), requires_grad=True)
        err = check_gradients(lambda: T.sum_all(T.scale_channels(x, m)), [x, m])
        assert err < 1e-6
