import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textrec.ctc import (
    BLANK,
    Alphabet,
    _interleave,
    _log_alpha,
    collapse,
    ctc_loss,
    greedy_decode,
    is_feasible,
    label_min_frames,
)
from textrec.errors import DataError, InfeasibleLabelError
from textrec.gradcheck import check_gradients
from textrec.selfcheck import random_row_stochastic
from textrec.tensor import Tape, Tensor, softmax_rows


class TestAlphabet:
    def test_full_scale_has_37_classes(self):
        assert Alphabet().num_classes == 37

    def test_blank_reserved_at_zero(self):
        a = Alphabet("ab")
        assert a.encode("ab") == [1, 2]
        assert a.decode([1, 2]) == "ab"

    def test_unknown_character_rejected(self):
        with pytest.raises(DataError):
            Alphabet("ab").encode("ax")

    def test_duplicate_characters_rejected(self):
        with pytest.raises(DataError):
            Alphabet("aa")


class TestCollapse:
    def test_merges_runs_then_drops_blanks(self):
        assert collapse([0, 1, 1, 0, 2]) == [1, 2]

    def test_blank_separates_repeats(self):
        assert collapse([1, 0, 1]) == [1, 1]

    def test_all_blank_is_empty(self):
        for n in range(1, 6):
            assert collapse([0] * n) == []

    @given(st.lists(st.integers(1, 3), min_size=0, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_on_blankfree_repeatfree_paths(self, symbols):
        dedup = [s for i, s in enumerate(symbols) if i == 0 or s != symbols[i - 1]]
        assert collapse(dedup) == dedup


class TestFeasibility:
    def test_min_frames_counts_adjacent_repeats(self):
        assert label_min_frames([1, 1]) == 3
        assert label_min_frames([1, 2, 1]) == 3
        assert label_min_frames([2, 2, 2]) == 5

    def test_infeasible_raises_not_inf(self):
        probs = Tensor(np.full((2, 3), 1 / 3))
        with pytest.raises(InfeasibleLabelError):
            ctc_loss(probs, [1, 1])


class TestLossValues:
    def test_single_frame_single_path(self):
        probs = Tensor(np.array([[0.3, 0.7]]))
        loss = float(ctc_loss(probs, [1]).data)
        assert loss == pytest.approx(-math.log(0.7), abs=1e-12)
        assert loss == pytest.approx(0.356675, abs=1e-6)

    def test_two_frames_uniform(self):
        # admissible paths {aa, a-, -a} with p = 0.75 each frame uniform
        probs = Tensor(np.full((2, 2), 0.5))
        loss = float(ctc_loss(probs, [1]).data)
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)
        assert loss == pytest.approx(0.287682, abs=1e-6)

    def test_empty_label_all_blank_mass(self):
        probs = Tensor(np.array([[0.6, 0.4], [0.9, 0.1]]))
        loss = float(ctc_loss(probs, []).data)
        assert loss == pytest.approx(-math.log(0.6 * 0.9), abs=1e-12)

    def test_scale_monotonicity(self):
        # raising the probability along an admissible path never raises the loss
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs = random_row_stochastic(rng, 4, 3)
            label = [1, 2]
            base = float(ctc_loss(Tensor(probs), label).data)
            boosted = probs.copy()
            path = [1, 0, 2, 0]  # collapses to the label
            for t, k in enumerate(path):
                boosted[t, k] += 0.2
            boosted /= boosted.sum(axis=1, keepdims=True)
            assert float(ctc_loss(Tensor(boosted), label).data) <= base + 1e-12


def _loss_and_gradient(probs: np.ndarray, label) -> tuple[float, np.ndarray]:
    leaf = Tensor(probs, requires_grad=True)
    with Tape() as tape:
        loss = ctc_loss(leaf, label)
    tape.backward(loss)
    return float(loss.data), leaf.grad


class TestLossGradient:
    def test_gradient_wrt_probs_matches_fd(self):
        rng = np.random.default_rng(6)
        # the second label has adjacent repeats, where the lattice may not skip the blank
        for t_len, label in ((5, [2, 1]), (12, [1, 1, 2, 1, 3, 3])):
            probs = Tensor(random_row_stochastic(rng, t_len, 4), requires_grad=True)
            # FD perturbs rows off the simplex; the analytic gradient is defined
            # on the open box, so the comparison is still valid.
            err = check_gradients(lambda: ctc_loss(probs, label), [probs])
            assert err < 1e-6

    def test_each_frame_holds_unit_occupancy(self):
        # every path visits one node per frame, so sum_k p[t, k] * dL/dp[t, k]
        # = -(total occupancy of frame t) = -1; at the long-line shapes
        rng = np.random.default_rng(12)
        for _ in range(6):
            t_len = int(rng.integers(35, 44))
            label = [int(k) for k in rng.integers(1, 37, int(rng.integers(16, 21)))]
            label[5] = label[4]
            label[11] = label[10]
            logits = rng.normal(0.0, 2.0, (t_len, 37))
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            _, grad = _loss_and_gradient(probs, label)
            assert np.max(np.abs((probs * grad).sum(axis=1) + 1.0)) < 1e-12

    def test_exact_zero_gives_the_gradient_limit(self):
        rng = np.random.default_rng(9)
        probs = random_row_stochastic(rng, 5, 4)
        probs[2, 3] = 0.0  # class 3 is on no path of the label
        loss, grad = _loss_and_gradient(probs, [1, 2])
        assert np.isfinite(loss) and np.all(np.isfinite(grad)) and grad[2, 3] == 0.0
        # a zero that kills some of the label's paths: the derivative is the
        # limit of the derivative as the probability goes to 0
        tiny = probs.copy()
        probs[1, 1] = 0.0
        tiny[1, 1] = 1e-200
        (loss, grad), (_, near) = _loss_and_gradient(probs, [1, 2]), _loss_and_gradient(tiny, [1, 2])
        assert np.isfinite(loss) and np.all(np.isfinite(grad)) and grad[1, 1] < 0.0
        np.testing.assert_allclose(grad, near, rtol=1e-12)

    def test_label_on_no_live_path_gives_inf_and_zero_gradient(self):
        rng = np.random.default_rng(10)
        probs = random_row_stochastic(rng, 5, 4)
        probs[:, 2] = 0.0
        loss, grad = _loss_and_gradient(probs, [1, 2])
        assert loss == math.inf and not grad.any()

    def test_gradient_descent_on_probs_reduces_loss(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        losses = []
        for _ in range(50):
            with Tape() as tape:
                loss = ctc_loss(softmax_rows(logits), [1, 2, 3])
            logits.grad = None
            tape.backward(loss)
            logits.data -= 0.5 * logits.grad
            losses.append(float(loss.data))
        assert losses[-1] < losses[0] * 0.5


def log_alpha_reference(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """The lattice recursion written with fresh arrays per frame, as first shipped."""
    t_len, s_len = emit.shape
    skip = 2 + np.flatnonzero((ext[2:] != BLANK) & (ext[2:] != ext[:-2]))
    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, :2] = 0.0
    for t in range(1, t_len):
        prev = alpha[t - 1] + emit[t - 1]
        alpha[t] = prev
        alpha[t, 1:] = np.logaddexp(prev[1:], prev[:-1])
        alpha[t, skip] = np.logaddexp(alpha[t, skip], prev[skip - 2])
    return alpha


class TestLattice:
    @pytest.mark.parametrize("t_len,label_len", [(1, 0), (6, 1), (11, 4), (35, 16), (43, 18)])
    def test_alpha_and_beta_equal_the_reference_recursion_bitwise(self, t_len, label_len):
        rng = np.random.default_rng(t_len)
        for _ in range(4):
            # three symbols, so labels repeat and the lattice loses some skips
            ext = _interleave([int(k) for k in rng.integers(1, 4, label_len)])
            probs = random_row_stochastic(rng, t_len, 4)
            probs[rng.random(probs.shape) < 0.05] = 0.0  # -inf emissions
            with np.errstate(divide="ignore"):
                emit = np.log(probs)[:, ext]
            rev_emit, rev_ext = emit[::-1, ::-1], ext[::-1]
            assert np.array_equal(_log_alpha(emit, ext), log_alpha_reference(emit, ext))
            assert np.array_equal(_log_alpha(rev_emit, rev_ext), log_alpha_reference(rev_emit, rev_ext))


class TestGreedyDecode:
    def test_spec_path(self):
        # per-row argmaxes: a a blank b b -> "ab"
        a = Alphabet("ab")
        probs = np.array(
            [
                [0.1, 0.8, 0.1],
                [0.2, 0.7, 0.1],
                [0.9, 0.05, 0.05],
                [0.1, 0.2, 0.7],
                [0.3, 0.2, 0.5],
            ]
        )
        assert a.decode(greedy_decode(probs)) == "ab"

    def test_all_blank_rows_decode_empty(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2]])
        assert greedy_decode(probs) == []

    def test_tie_breaks_toward_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert greedy_decode(probs) == []  # blank (index 0) wins the tie

    @given(st.integers(1, 8), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_equals_collapse_of_argmax_rows(self, t_len, num_classes, seed):
        rng = np.random.default_rng(seed)
        probs = random_row_stochastic(rng, t_len, num_classes)
        assert greedy_decode(probs) == collapse(np.argmax(probs, axis=1))


class TestFeasibilityHelpers:
    @given(st.lists(st.integers(1, 4), min_size=0, max_size=5), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_is_feasible_matches_min_frames(self, label, t_len):
        assert is_feasible(label, t_len) == (t_len >= label_min_frames(label))
