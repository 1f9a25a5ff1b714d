"""Connectionist temporal classification: alphabet, collapse, loss, decoding.

The loss sums path probabilities over every frame labeling that collapses to
the target (merge repeats, then drop blanks), on the lattice of the
blank-interleaved label. One recursion gives alpha; beta is the same recursion
on the lattice reversed in time and label order, since the blank-skip rule
reads the same both ways. Neither table holds its own frame's emission, so
dL/dy[t, k] = -(occupancy / y) summed over the class-k nodes = -alpha * beta / p,
scattered once onto the classes (Graves et al., 2006, section 4.2). It stays
finite at an exact zero y. All of it runs in log space with log-sum-exp, so
long sequences cannot underflow. Blank is always class 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InfeasibleLabelError, ShapeError
from .tensor import Tensor, apply_op, is_integer

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

    def __post_init__(self):
        if len(set(self.characters)) != len(self.characters):
            raise DataError("alphabet characters must be unique")
        if not self.characters:
            raise DataError("alphabet must contain at least one character")

    @property
    def num_classes(self) -> int:
        """Character count plus one for blank."""
        return len(self.characters) + 1

    def encode(self, text: str) -> list[int]:
        ids = []
        for ch in text:
            k = self.characters.find(ch)
            if k < 0:
                raise DataError(f"character {ch!r} is not in the alphabet")
            ids.append(k + 1)
        return ids

    def decode(self, ids) -> str:
        chars = []
        for k in ids:
            if not is_integer(k) or not 1 <= k < self.num_classes:
                raise DataError(f"class index {k!r} is not an integer inside the alphabet")
            chars.append(self.characters[k - 1])
        return "".join(chars)


def collapse(path) -> list[int]:
    """Merge maximal runs of identical symbols, then delete blanks."""
    out = []
    prev = None
    for p in path:
        if not is_integer(p):
            raise DataError(f"path symbol {p!r} is not an integer")
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
    ids = []
    for k in label:
        if not is_integer(k):
            raise DataError(f"label symbol {k!r} is not an integer")
        if k == BLANK:
            raise DataError("labels must not contain the blank symbol")
        if not 1 <= k < num_classes:
            raise DataError(f"label symbol {k} outside alphabet of {num_classes} classes")
        ids.append(int(k))
    return ids


def _interleave(label: list[int]) -> np.ndarray:
    ext = np.full(2 * len(label) + 1, BLANK, dtype=np.int64)
    ext[1::2] = label
    return ext


def _log_alpha(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Log mass of the label prefixes that reach node (t, s) before frame t emits.

    ``emit`` is the (T, S) table of log probabilities of the extended label
    ``ext`` per frame. A path starts on the leading blank or the first symbol;
    each frame it stays, moves one node on, or skips the blank between two
    distinct symbols. Reversing ``emit`` in time and label order, and ``ext``
    in label order, gives the same recursion for the suffixes.
    """
    t_len, s_len = emit.shape
    skip = 2 + np.flatnonzero((ext[2:] != BLANK) & (ext[2:] != ext[:-2]))
    src = skip - 2
    alpha = np.full((t_len, s_len), NEG_INF)
    alpha[0, :2] = 0.0
    prev = np.empty(s_len)
    for t in range(1, t_len):
        row = alpha[t]
        np.add(alpha[t - 1], emit[t - 1], out=prev)
        row[0] = prev[0]
        np.logaddexp(prev[1:], prev[:-1], out=row[1:])
        row[skip] = np.logaddexp(row[skip], prev[src])
    return alpha


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

    grad = np.zeros_like(probs.data)
    if t_len == 0:  # the empty label's one path, of no frames, has probability 1
        return apply_op(np.asarray(0.0), (probs,), lambda g: (grad,))
    ext = _interleave(ids)
    with np.errstate(divide="ignore"):
        emit = np.log(probs.data)[:, ext]  # (T, S)
    alpha = _log_alpha(emit, ext)
    log_p = np.logaddexp.reduce(alpha[-1, -2:] + emit[-1, -2:])

    if np.isfinite(log_p):
        beta = _log_alpha(emit[::-1, ::-1], ext[::-1])[::-1, ::-1]
        np.add.at(grad, (slice(None), ext), -np.exp(alpha + beta - log_p))

    return apply_op(np.asarray(-log_p), (probs,), lambda g: (float(g) * grad,))


def greedy_decode(probs) -> list[int]:
    """Best-path decoding: collapse the per-row argmax path.

    Ties break toward the lowest class index.
    """
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ShapeError(f"greedy_decode expects a (T, A) array, got {probs.shape}")
    return collapse(np.argmax(probs, axis=1))
