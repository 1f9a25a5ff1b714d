import numpy as np
import pytest

from textrec.ctc import ctc_loss
from textrec.errors import ShapeError
from textrec.heads import BlstmConfig, ContextBranch, LstmDirection, SupervisionBranch, lstm_scan
from textrec.selfcheck import check_gradients
from textrec.tensor import (
    Tape,
    Tensor,
    add,
    concat,
    getitem,
    linear,
    mul,
    sigmoid,
    sum_all,
    tanh,
)


def seq_tensor(t, n, f, seed=0, requires_grad=False):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1, 1, (t, n, f)), requires_grad=requires_grad)


def reference_lstm(seq, w_x, w_h, b, reverse):
    """The per-step LSTM graph from taped primitives: a list of (N, H) states."""
    t_len, n, _ = seq.shape
    h_sz = w_h.shape[0]
    h = Tensor(np.zeros((n, h_sz)))
    c = Tensor(np.zeros((n, h_sz)))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outputs = [None] * t_len
    for t in order:
        x_t = getitem(seq, t)  # (N, F)
        z = linear(concat([x_t, h], 1), concat([w_x, w_h], 0), b)
        gi = sigmoid(getitem(z, (slice(None), slice(0, h_sz))))
        gf = sigmoid(getitem(z, (slice(None), slice(h_sz, 2 * h_sz))))
        gg = tanh(getitem(z, (slice(None), slice(2 * h_sz, 3 * h_sz))))
        go = sigmoid(getitem(z, (slice(None), slice(3 * h_sz, 4 * h_sz))))
        c = add(mul(gf, c), mul(gi, gg))
        h = mul(go, tanh(c))
        outputs[t] = h
    return outputs


class TestBlstmConfig:
    def test_output_is_twice_hidden(self):
        assert BlstmConfig(hidden_size=32).output_size == 64


class TestLstmDirection:
    def test_zero_weights_keep_state_zero(self):
        cell = LstmDirection(np.random.default_rng(0), 5, 4, reverse=False)
        cell.w_x.data[:] = 0.0
        cell.w_h.data[:] = 0.0
        cell.bias.data[:] = 0.0
        outs = cell.forward(seq_tensor(6, 2, 5, seed=1))
        for t in range(6):
            np.testing.assert_array_equal(outs.data[t], 0.0)

    def test_forget_bias_initialized_to_one(self):
        cell = LstmDirection(np.random.default_rng(0), 5, 4, reverse=False)
        h = 4
        np.testing.assert_array_equal(cell.bias.data[h : 2 * h], 1.0)
        np.testing.assert_array_equal(cell.bias.data[:h], 0.0)
        np.testing.assert_array_equal(cell.bias.data[2 * h :], 0.0)

    def test_weights_within_init_range(self):
        cell = LstmDirection(np.random.default_rng(0), 64, 32, reverse=False)
        assert np.all(np.abs(cell.w_x.data) <= 0.08)
        assert np.all(np.abs(cell.w_h.data) <= 0.08)

    def test_reverse_direction_sees_future(self):
        cell = LstmDirection(np.random.default_rng(2), 3, 4, reverse=True)
        seq = seq_tensor(5, 1, 3, seed=3)
        base = cell.forward(seq).data.copy()
        bumped = Tensor(seq.data.copy())
        bumped.data[4] += 0.5
        out = cell.forward(bumped).data
        assert not np.array_equal(base[0], out[0])  # step 0 depends on step 4


class TestLstmScan:
    @staticmethod
    def make(t, n, f=5, h=4, reverse=False, seed=0):
        rng = np.random.default_rng(seed)
        cell = LstmDirection(rng, f, h, reverse=reverse)
        cell.bias.data[:] += rng.uniform(-0.5, 0.5, 4 * h)  # exercise every bias entry
        seq = Tensor(rng.uniform(-1, 1, (t, n, f)), requires_grad=True)
        upstream = Tensor(rng.uniform(-1, 1, (t, n, h)))
        return cell, seq, upstream

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [1, 6])
    def test_matches_per_step_reference(self, t, n, reverse):
        cell, seq, r = self.make(t, n, reverse=reverse, seed=10 * t + n)
        leaves = [seq, cell.w_x, cell.w_h, cell.bias]

        with Tape() as tape:
            steps = reference_lstm(seq, cell.w_x, cell.w_h, cell.bias, reverse)
            root = sum_all(mul(steps[0], getitem(r, 0)))
            for i in range(1, t):
                root = add(root, sum_all(mul(steps[i], getitem(r, i))))
        tape.backward(root)
        want_out = np.stack([s.data for s in steps])
        want_grads = [leaf.grad.copy() for leaf in leaves]
        for leaf in leaves:
            leaf.grad = None

        with Tape() as tape:
            out = lstm_scan(seq, cell.w_x, cell.w_h, cell.bias, reverse)
            root = sum_all(mul(out, r))
        tape.backward(root)
        assert len(tape) == 3  # lstm_scan, mul, sum_all
        np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
        for leaf, want in zip(leaves, want_grads):
            np.testing.assert_allclose(leaf.grad, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_fd(self, reverse):
        cell, seq, r = self.make(5, 3, f=4, h=3, reverse=reverse, seed=21)
        err = check_gradients(
            lambda: sum_all(mul(lstm_scan(seq, cell.w_x, cell.w_h, cell.bias, reverse), r)),
            [seq, cell.w_x, cell.w_h, cell.bias],
        )
        assert err < 1e-6

    def test_no_input_gradient_when_not_required(self):
        cell, _, r = self.make(4, 2)
        seq = seq_tensor(4, 2, 5, seed=3)
        with Tape() as tape:
            root = sum_all(mul(cell.forward(seq), r))
        tape.backward(root)
        assert seq.grad is None
        assert cell.w_x.grad is not None and np.any(cell.w_x.grad != 0.0)

    def test_mismatched_weights_rejected(self):
        cell, seq, _ = self.make(3, 1)
        with pytest.raises(ShapeError):
            lstm_scan(seq, cell.w_h, cell.w_h, cell.bias, False)


class TestContextBranch:
    def make(self, f=6, hidden=4, classes=4, seed=0):
        return ContextBranch(f, BlstmConfig(hidden_size=hidden), classes, np.random.default_rng(seed))

    def test_length_one_sequence(self):
        branch = self.make()
        probs = branch.forward(seq_tensor(1, 1, 6, seed=1))
        assert probs.shape == (1, 1, 4)
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_length_preserved_rows_normalized(self):
        branch = self.make()
        probs = branch.forward(seq_tensor(7, 3, 6, seed=2))
        assert probs.shape == (7, 3, 4)
        np.testing.assert_allclose(probs.data.sum(axis=2), 1.0, rtol=0, atol=1e-12)
        assert np.all(probs.data >= 0.0)

    def test_empty_sequence_rejected(self):
        branch = self.make()
        with pytest.raises(ShapeError):
            branch.forward(Tensor(np.zeros((0, 1, 6))))

    def test_bidirectional_information_flow(self):
        # perturbing the first input changes the LAST output step
        branch = self.make(seed=5)
        seq = seq_tensor(5, 1, 6, seed=6)
        base = branch.forward(seq).data.copy()
        bumped = Tensor(seq.data.copy())
        bumped.data[0] += 0.5
        out = branch.forward(bumped).data
        assert not np.allclose(base[4], out[4])

    def test_jacobian_block_nonzero_off_diagonal(self):
        branch = self.make(seed=7)
        seq = seq_tensor(4, 1, 6, seed=8, requires_grad=True)
        from textrec.tensor import Tape

        with Tape() as tape:
            probs = branch.forward(seq)
            root = sum_all(getitem(probs, (2, 0, 1)))  # P(class 1) at step t=2
        tape.backward(root)
        assert np.any(seq.grad[0] != 0.0)  # depends on input step s=0

    def test_parameters_list_both_layers_then_the_output_map(self):
        branch = self.make()
        directions = [d for layer in (branch.layer1, branch.layer2) for d in (layer.fwd, layer.bwd)]
        want = [t for d in directions for t in (d.w_x, d.w_h, d.bias)] + [branch.fc_w, branch.fc_b]
        params = branch.parameters()
        assert list(params)[0] == "layer1.fwd.w_x" and list(params)[-2:] == ["fc_w", "fc_b"]
        assert len(params) == len(want) == 14 and all(a is b for a, b in zip(params.values(), want))

    def test_parameter_gradients_match_fd(self):
        branch = self.make(f=3, hidden=2, classes=3, seed=11)
        seq = seq_tensor(3, 1, 3, seed=12)
        params = list(branch.parameters().values())
        err = check_gradients(
            lambda: ctc_loss(getitem(branch.forward(seq), (slice(None), 0)), [1]),
            params,
            max_probe=24,
            rng=np.random.default_rng(13),
        )
        assert err < 1e-5


class TestSupervisionBranch:
    def make(self, f=6, classes=4, seed=0):
        return SupervisionBranch(f, classes, np.random.default_rng(seed))

    def test_rows_normalized(self):
        probs = self.make().forward(seq_tensor(5, 2, 6, seed=1))
        assert probs.shape == (5, 2, 4)
        np.testing.assert_allclose(probs.data.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            self.make().forward(Tensor(np.zeros((0, 1, 6))))

    def test_step_locality(self):
        branch = self.make(seed=2)
        seq = seq_tensor(6, 1, 6, seed=3)
        base = branch.forward(seq).data.copy()
        bumped = Tensor(seq.data.copy())
        bumped.data[2] += 1.0
        out = branch.forward(bumped).data
        diff = np.any(base != out, axis=(1, 2))
        assert diff[2] and not np.any(diff[np.arange(6) != 2])

    def test_identical_vectors_give_identical_rows(self):
        branch = self.make(seed=4)
        seq = seq_tensor(5, 1, 6, seed=5)
        seq.data[3] = seq.data[1]
        probs = branch.forward(seq).data
        np.testing.assert_array_equal(probs[1], probs[3])

    def test_gradient_locality(self):
        # gradient from one output row lands only on that input vector
        from textrec.tensor import Tape

        branch = self.make(seed=6)
        seq = seq_tensor(5, 1, 6, seed=7, requires_grad=True)
        with Tape() as tape:
            probs = branch.forward(seq)
            root = sum_all(getitem(probs, (3, 0, 2)))  # P(class 2) at step t=3
        tape.backward(root)
        assert np.any(seq.grad[3] != 0.0)
        others = np.delete(np.arange(5), 3)
        np.testing.assert_array_equal(seq.grad[others], 0.0)

    def test_gradient_matches_fd(self):
        branch = self.make(seed=8)
        seq = seq_tensor(4, 1, 6, seed=9, requires_grad=True)
        err = check_gradients(
            lambda: ctc_loss(getitem(branch.forward(seq), (slice(None), 0)), [1, 2]), [seq]
        )
        assert err < 1e-6


class TestBatchedEquivalence:
    def test_batched_forward_matches_per_sample(self):
        # padding-free batches must reproduce single-sample outputs exactly
        branch = ContextBranch(5, BlstmConfig(hidden_size=3), 4, np.random.default_rng(14))
        rng = np.random.default_rng(15)
        batch = Tensor(rng.uniform(-1, 1, (6, 3, 5)))
        joint = branch.forward(batch).data
        for i in range(3):
            single = branch.forward(Tensor(batch.data[:, i : i + 1, :])).data
            np.testing.assert_allclose(joint[:, i : i + 1, :], single, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: BlstmConfig(hidden_size=0), ValueError),
        (lambda: SupervisionBranch(4, 3, np.random.default_rng(0)).forward(Tensor(np.zeros((2, 4)))), ShapeError),
        (lambda: lstm_scan(*(Tensor(np.zeros(s)) for s in ((3, 5), (5, 16), (4, 16), (16,))), False), ShapeError),
    ],
    ids=["hidden-size", "sequence-rank", "lstm_scan-rank"],
)
def test_rejects(call, error):
    with pytest.raises(error):
        call()
