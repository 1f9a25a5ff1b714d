"""Connectionist temporal classification: alphabet, collapse, loss, decoding.

The loss sums path probabilities over every frame labeling that collapses to
the target (merge repeats, then drop blanks) via the forward-backward
recursion over the blank-interleaved label. All recursions run in log space
with log-sum-exp, so long sequences cannot underflow. Blank is always class 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InfeasibleLabelError, ShapeError
from .tensor import Tensor, apply_op

BLANK = 0

NEG_INF = -np.inf


@dataclass(frozen=True)
class Alphabet:
    """Ordered character set plus the reserved blank at index 0.

    Class ``k`` (k >= 1) is ``characters[k - 1]``; blank is not a character.
    The full-scale alphabet is the 26 lowercase letters plus the 10 digits,
    for 37 classes in total.
    """

    characters: str = "abcdefghijklmnopqrstuvwxyz0123456789"
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.characters)) != len(self.characters):
            raise DataError("alphabet characters must be unique")
        if not self.characters:
            raise DataError("alphabet must contain at least one character")
        object.__setattr__(self, "_index", {ch: i + 1 for i, ch in enumerate(self.characters)})

    @property
    def num_classes(self) -> int:
        """Character count plus one for blank."""
        return len(self.characters) + 1

    def encode(self, text: str) -> list[int]:
        ids = []
        for ch in text:
            k = self._index.get(ch)
            if k is None:
                raise DataError(f"character {ch!r} is not in the alphabet")
            ids.append(k)
        return ids

    def decode(self, ids) -> str:
        chars = []
        for k in ids:
            k = int(k)
            if not 1 <= k < self.num_classes:
                raise DataError(f"class index {k} is outside the alphabet")
            chars.append(self.characters[k - 1])
        return "".join(chars)


def collapse(path) -> list[int]:
    """Merge maximal runs of identical symbols, then delete blanks."""
    out = []
    prev = None
    for p in path:
        p = int(p)
        if p != prev and p != BLANK:
            out.append(p)
        prev = p
    return out


def label_min_frames(label) -> int:
    """Shortest ProbSequence that can emit ``label``: length plus adjacent repeats."""
    label = list(label)
    repeats = sum(1 for a, b in zip(label, label[1:]) if a == b)
    return len(label) + repeats


def is_feasible(label, num_frames: int) -> bool:
    return num_frames >= label_min_frames(label)


def _validate_label(label, num_classes: int) -> list[int]:
    ids = [int(k) for k in label]
    for k in ids:
        if k == BLANK:
            raise DataError("labels must not contain the blank symbol")
        if not 1 <= k < num_classes:
            raise DataError(f"label symbol {k} outside alphabet of {num_classes} classes")
    return ids


def _interleave(label: list[int]) -> np.ndarray:
    ext = np.full(2 * len(label) + 1, BLANK, dtype=np.int64)
    ext[1::2] = label
    return ext


def ctc_forward_backward(log_probs: np.ndarray, label: list[int]):
    """Log-space alpha/beta over the blank-interleaved label.

    Both tables include the emission at their own timestep, so the total
    probability of paths passing through (t, s) is alpha + beta - emission.
    Returns (log alpha, log beta, log total probability).
    """
    t_len, _ = log_probs.shape
    ext = _interleave(label)
    s_len = len(ext)
    emit = log_probs[:, ext]  # (T, S)

    # positions allowed to skip over the preceding blank (distinct neighbors)
    skip = np.zeros(s_len, dtype=bool)
    skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    idx = np.flatnonzero(skip)

    la = np.full((t_len, s_len), NEG_INF)
    la[0, 0] = emit[0, 0]
    if s_len > 1:
        la[0, 1] = emit[0, 1]
    for t in range(1, t_len):
        prev = la[t - 1]
        m = prev.copy()
        m[1:] = np.logaddexp(m[1:], prev[:-1])
        m[idx] = np.logaddexp(m[idx], prev[idx - 2])
        la[t] = m + emit[t]

    lb = np.full((t_len, s_len), NEG_INF)
    lb[-1, -1] = emit[-1, -1]
    if s_len > 1:
        lb[-1, -2] = emit[-1, -2]
    for t in range(t_len - 2, -1, -1):
        nxt = lb[t + 1]
        m = nxt.copy()
        m[:-1] = np.logaddexp(m[:-1], nxt[1:])
        m[idx - 2] = np.logaddexp(m[idx - 2], nxt[idx])
        lb[t] = m + emit[t]

    log_p = la[-1, -1] if s_len == 1 else np.logaddexp(la[-1, -1], la[-1, -2])
    return la, lb, log_p


def ctc_loss(probs: Tensor, label) -> Tensor:
    """Negative log probability of ``label`` under a (T, A) ProbSequence.

    The gradient w.r.t. the probabilities is the analytic CTC gradient.
    Structurally infeasible labels (too few frames) raise
    :class:`InfeasibleLabelError` instead of returning infinity.
    """
    if probs.ndim != 2:
        raise ShapeError(f"ctc_loss expects a (T, A) tensor, got {probs.shape}")
    t_len, num_classes = probs.shape
    ids = _validate_label(label, num_classes)
    if not is_feasible(ids, t_len):
        raise InfeasibleLabelError(
            f"label of length {len(ids)} needs at least {label_min_frames(ids)} frames, got {t_len}"
        )

    with np.errstate(divide="ignore"):
        log_probs = np.log(probs.data)
    la, lb, log_p = ctc_forward_backward(log_probs, ids)
    loss = -log_p

    ext = _interleave(ids)
    emit = log_probs[:, ext]
    with np.errstate(invalid="ignore"):
        through = la + lb - emit  # (T, S) log mass of paths passing through (t, s)
    through[np.isneginf(la + lb)] = NEG_INF

    grad = np.zeros_like(probs.data)
    if np.isfinite(log_p):
        for k in np.unique(ext):
            cols = through[:, ext == k]
            lse = np.logaddexp.reduce(cols, axis=1)
            ok = ~np.isneginf(lse)
            grad[ok, k] = -np.exp(lse[ok] - log_probs[ok, k] - log_p)

    return apply_op(np.asarray(loss), (probs,), lambda g: (float(g) * grad,))


def greedy_decode(probs) -> list[int]:
    """Best-path decoding: collapse the per-row argmax path.

    Ties break toward the lowest class index.
    """
    data = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    if data.ndim != 2:
        raise ShapeError(f"greedy_decode expects a (T, A) array, got {data.shape}")
    return collapse(np.argmax(data, axis=1))
