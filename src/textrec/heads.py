"""The two supervised branches over the feature sequence.

Context branch: two bidirectional LSTM layers, then a shared per-step linear
map and row softmax, so every output step sees the whole input sequence.
Supervision branch: one linear classifier applied independently at each step
(weights shared across positions), then row softmax.

Sequences are (T, N, F) tensors; both branches return (T, N, A) probability
sequences whose rows sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import (
    Module,
    Tensor,
    _sigmoid_raw,
    apply_op,
    concat,
    linear,
    parameter,
    reshape,
    softmax_rows,
)

INIT_RANGE = 0.08  # weights drawn uniform in [-0.08, 0.08]


@dataclass(frozen=True)
class BlstmConfig:
    """Recurrent sizing; two bidirectional layers are fixed by the architecture."""

    hidden_size: int = 32

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be positive")

    @property
    def output_size(self) -> int:
        """Per-step output width: forward and backward states concatenated."""
        return 2 * self.hidden_size


def _uniform(rng: np.random.Generator, *shape: int) -> Tensor:
    return parameter(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape))


def lstm_scan(seq: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, reverse: bool) -> Tensor:
    """One LSTM direction over a (T, N, F) sequence as a single taped op.

    Returns the hidden states as a (T, N, H) tensor indexed by input position;
    ``reverse`` scans from the last step to the first. The input products of
    all steps are one (T·N, F) @ (F, 4H) GEMM; only the recurrent product
    ``h @ w_h`` runs per step. Gates are laid out (input, forget, cell
    candidate, output) along the 4H axis, with the sigmoid gates clipped into
    (0, 1) exactly as the ``sigmoid`` op clips them.

    Stored for backward: the activated gates (T, N, 4H), the tanh of the cell
    states (T, N, H), and the cell and hidden states, (T + 1, N, H) each with
    the zero state the scan starts from as their first row (last in
    ``reverse``), so the output and the states entering each step are views
    of them. The backward pass is hand-written BPTT: one reverse scan yields
    dZ (T, N, 4H), and then each of dW_x, dW_h and dX is one GEMM and db one
    sum. dX is skipped when ``seq`` does not require a gradient.
    """
    if seq.ndim != 3:
        raise ShapeError(f"lstm_scan expects a (T, N, F) sequence, got {seq.shape}")
    t_len, n, f = seq.shape
    h_sz = w_h.shape[0]
    if w_x.shape != (f, 4 * h_sz) or w_h.shape != (h_sz, 4 * h_sz) or b.shape != (4 * h_sz,):
        raise ShapeError(
            f"lstm_scan: weights {w_x.shape}, {w_h.shape}, {b.shape} do not fit input {seq.shape}"
        )
    g_sl = slice(2 * h_sz, 3 * h_sz)  # the tanh cell-candidate block
    x2 = seq.data.reshape(t_len * n, f)
    zx = (x2 @ w_x.data).reshape(t_len, n, 4 * h_sz)
    gates = np.empty((t_len, n, 4 * h_sz))
    tcell = np.empty((t_len, n, h_sz))
    # step t reads the states in row t + p and writes row t + o
    o = 0 if reverse else 1
    p = 1 - o
    cell = np.zeros((t_len + 1, n, h_sz))
    hid = np.zeros((t_len + 1, n, h_sz))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    for t in order:
        z = zx[t] + hid[t + p] @ w_h.data + b.data
        a = gates[t]
        a[:] = _sigmoid_raw(z)
        np.tanh(z[:, g_sl], out=a[:, g_sl])
        cell[t + o] = a[:, h_sz : 2 * h_sz] * cell[t + p] + a[:, :h_sz] * a[:, g_sl]
        np.tanh(cell[t + o], out=tcell[t])
        np.multiply(a[:, 3 * h_sz :], tcell[t], out=hid[t + o])

    def pull(g):
        h_prev, c_prev = hid[p : p + t_len], cell[p : p + t_len]
        i_g, f_g = gates[..., :h_sz], gates[..., h_sz : 2 * h_sz]
        g_g, o_g = gates[..., g_sl], gates[..., 3 * h_sz :]
        # everything but dc and dh, for all steps at once: blockwise over
        # (i, f, g, o), dz = (dc, dc, dc, dh) * partner
        deriv = gates * (1.0 - gates)
        deriv[..., g_sl] = 1.0 - g_g * g_g
        partner = np.concatenate([g_g, c_prev, i_g, tcell], axis=2) * deriv
        dc_dh = o_g * (1.0 - tcell * tcell)
        dz = np.empty_like(gates)
        # (T, N, 4, H) views: dc broadcasts over the first three gate blocks
        partner4 = partner.reshape(t_len, n, 4, h_sz)
        dz4 = dz.reshape(t_len, n, 4, h_sz)
        w_ht = w_h.data.T
        dh_rec = np.zeros((n, h_sz))
        dc_rec = np.zeros((n, h_sz))
        for t in reversed(order):
            dh = g[t] + dh_rec
            dc = dh * dc_dh[t] + dc_rec
            np.multiply(dc[:, None], partner4[t, :, :3], out=dz4[t, :, :3])
            np.multiply(dh, partner4[t, :, 3], out=dz4[t, :, 3])
            dc_rec = dc * f_g[t]
            dh_rec = dz[t] @ w_ht
        dz2 = dz.reshape(t_len * n, 4 * h_sz)
        dw_x = x2.T @ dz2
        dw_h = h_prev.reshape(t_len * n, h_sz).T @ dz2
        db = dz2.sum(axis=0)
        dx = (dz2 @ w_x.data.T).reshape(seq.shape) if seq.requires_grad else None
        return dx, dw_x, dw_h, db

    return apply_op(hid[o : o + t_len], (seq, w_x, w_h, b), pull)


class LstmDirection(Module):
    """Single-direction LSTM scanned over a (T, N, F) sequence by ``lstm_scan``.

    Gate layout along the 4H axis is (input, forget, cell candidate, output).
    The forget-gate bias starts at 1.0; all weight matrices start uniform in
    [-0.08, 0.08], remaining biases at zero. ``lstm_scan`` keeps the gates,
    cell states, their tanh and the hidden states of every step for backward.
    """

    def __init__(self, rng, input_size: int, hidden_size: int, reverse: bool):
        h = hidden_size
        self.reverse = reverse
        self.w_x = _uniform(rng, input_size, 4 * h)
        self.w_h = _uniform(rng, h, 4 * h)
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0
        self.bias = parameter(bias)

    def forward(self, seq: Tensor) -> Tensor:
        """Hidden states of every step, (T, N, H), indexed by input position."""
        return lstm_scan(seq, self.w_x, self.w_h, self.bias, self.reverse)


class BlstmLayer(Module):
    def __init__(self, rng, input_size: int, hidden_size: int):
        self.fwd = LstmDirection(rng, input_size, hidden_size, reverse=False)
        self.bwd = LstmDirection(rng, input_size, hidden_size, reverse=True)

    def forward(self, seq: Tensor) -> Tensor:
        return concat([self.fwd.forward(seq), self.bwd.forward(seq)], axis=2)  # (T, N, 2H)


def _check_sequence(seq: Tensor) -> tuple[int, int, int]:
    if seq.ndim != 3:
        raise ShapeError(f"expected a (T, N, F) sequence, got {seq.shape}")
    t_len, n, f = seq.shape
    if t_len < 1:
        raise ShapeError("sequence must contain at least one step")
    return t_len, n, f


def _softmax_steps(logits: Tensor) -> Tensor:
    """Row softmax over the class axis of a (T, N, A) tensor."""
    t_len, n, a = logits.shape
    flat = softmax_rows(reshape(logits, (t_len * n, a)))
    return reshape(flat, (t_len, n, a))


class ContextBranch(Module):
    """Two-layer BLSTM, shared per-step linear map, softmax over the alphabet."""

    def __init__(self, input_size: int, config: BlstmConfig, num_classes: int, rng):
        self.config = config
        self.layer1 = BlstmLayer(rng, input_size, config.hidden_size)
        self.layer2 = BlstmLayer(rng, config.output_size, config.hidden_size)
        self.fc_w = _uniform(rng, config.output_size, num_classes)
        self.fc_b = parameter(np.zeros(num_classes))

    def forward(self, seq: Tensor) -> Tensor:
        t_len, n, _ = _check_sequence(seq)
        h = self.layer2.forward(self.layer1.forward(seq))
        flat = reshape(h, (t_len * n, self.config.output_size))
        logits = linear(flat, self.fc_w, self.fc_b)
        return _softmax_steps(reshape(logits, (t_len, n, self.fc_b.size)))


class SupervisionBranch(Module):
    """Position-independent character classifier with weights shared across steps."""

    def __init__(self, input_size: int, num_classes: int, rng):
        self.fc_w = _uniform(rng, input_size, num_classes)
        self.fc_b = parameter(np.zeros(num_classes))

    def forward(self, seq: Tensor) -> Tensor:
        t_len, n, f = _check_sequence(seq)
        probs = softmax_rows(linear(reshape(seq, (t_len * n, f)), self.fc_w, self.fc_b))
        return reshape(probs, (t_len, n, self.fc_b.size))
