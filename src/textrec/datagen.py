"""Procedural text-strip rendering: the package's training data source.

Labels are drawn over a configurable character subset and rendered from a
built-in 5x7 bitmap font (letter glyphs use uppercase letterforms; labels stay
lowercase), dark ink on a light background, with uniform pixel noise pulling
values toward mid-gray. The glyph geometry is fixed: each glyph is scaled 3x
to 15x21 pixels, glyphs are 2 pixels apart, and the outer margins are 2
pixels. Rendering is deterministic given (label, seed), canvases are always
32 pixels tall, and widths are padded up to a multiple of 8. The pitch of 17
pixels per character makes W >= 17 * len(label) + 2 > 16 * len(label), so
every label is CTC-feasible at its rendered width: W/8 >= 2 * len(label).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DataError

CANVAS_HEIGHT = 32
GLYPH_ROWS = 7
GLYPH_COLS = 5
SCALE = 3  # font pixels are SCALE x SCALE canvas pixels
SPACING = 2  # blank columns between neighbouring glyphs
MARGIN = 2  # blank columns before the first glyph and after the last
NOISE = 0.1  # amplitude of the uniform noise pulling pixels toward gray

# classic 5x7 dot-matrix letterforms
_FONT_ROWS = {
    "a": (".###.", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "b": ("####.", "#...#", "#...#", "####.", "#...#", "#...#", "####."),
    "c": (".###.", "#...#", "#....", "#....", "#....", "#...#", ".###."),
    "d": ("####.", "#...#", "#...#", "#...#", "#...#", "#...#", "####."),
    "e": ("#####", "#....", "#....", "####.", "#....", "#....", "#####"),
    "f": ("#####", "#....", "#....", "####.", "#....", "#....", "#...."),
    "g": (".###.", "#...#", "#....", "#.###", "#...#", "#...#", ".###."),
    "h": ("#...#", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "i": (".###.", "..#..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "j": ("..###", "...#.", "...#.", "...#.", "...#.", "#..#.", ".##.."),
    "k": ("#...#", "#..#.", "#.#..", "##...", "#.#..", "#..#.", "#...#"),
    "l": ("#....", "#....", "#....", "#....", "#....", "#....", "#####"),
    "m": ("#...#", "##.##", "#.#.#", "#.#.#", "#...#", "#...#", "#...#"),
    "n": ("#...#", "##..#", "#.#.#", "#..##", "#...#", "#...#", "#...#"),
    "o": (".###.", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "p": ("####.", "#...#", "#...#", "####.", "#....", "#....", "#...."),
    "q": (".###.", "#...#", "#...#", "#...#", "#.#.#", "#..#.", ".##.#"),
    "r": ("####.", "#...#", "#...#", "####.", "#.#..", "#..#.", "#...#"),
    "s": (".####", "#....", "#....", ".###.", "....#", "....#", "####."),
    "t": ("#####", "..#..", "..#..", "..#..", "..#..", "..#..", "..#.."),
    "u": ("#...#", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "v": ("#...#", "#...#", "#...#", "#...#", ".#.#.", ".#.#.", "..#.."),
    "w": ("#...#", "#...#", "#...#", "#.#.#", "#.#.#", "##.##", "#...#"),
    "x": ("#...#", "#...#", ".#.#.", "..#..", ".#.#.", "#...#", "#...#"),
    "y": ("#...#", "#...#", ".#.#.", "..#..", "..#..", "..#..", "..#.."),
    "z": ("#####", "....#", "...#.", "..#..", ".#...", "#....", "#####"),
    "0": (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    "1": ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "2": (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    "3": ("#####", "...#.", "..#..", "...#.", "....#", "#...#", ".###."),
    "4": ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    "5": ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    "6": ("..##.", ".#...", "#....", "####.", "#...#", "#...#", ".###."),
    "7": ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    "8": (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    "9": (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
}


def _glyph_bitmap(ch: str) -> np.ndarray:
    rows = _FONT_ROWS[ch]
    return np.array([[cell == "#" for cell in row] for row in rows], dtype=bool)


@dataclass(frozen=True)
class GenConfig:
    """Sampling knobs for the synthetic task.

    The default task draws labels of length 3-5 over the 8-symbol subset
    {a, b, c, d, e, 1, 2, 3}.
    """

    charset: str = "abcde123"
    min_len: int = 3
    max_len: int = 5

    def __post_init__(self):
        unknown = [ch for ch in self.charset if ch not in _FONT_ROWS]
        if unknown:
            raise DataError(f"unsupported characters in charset: {unknown}")
        if len(set(self.charset)) != len(self.charset):
            raise DataError("charset characters must be unique")
        if not 1 <= self.min_len <= self.max_len:
            raise DataError("need 1 <= min_len <= max_len")


@dataclass
class Sample:
    """One rendered strip: grayscale image in [0, 1], its label, and the seed."""

    image: np.ndarray  # (1, 1, 32, W) float64
    label: str
    seed: int

    @property
    def width(self) -> int:
        return self.image.shape[3]


def rendered_width(label_len: int) -> int:
    raw = label_len * GLYPH_COLS * SCALE + (label_len - 1) * SPACING + 2 * MARGIN
    return 8 * math.ceil(raw / 8)


def render(label: str, config: GenConfig, seed: int) -> Sample:
    """Render one label deterministically; dark glyphs on a light background."""
    if not label:
        raise DataError("cannot render an empty label")
    bad = [ch for ch in label if ch not in config.charset]
    if bad:
        raise DataError(f"label {label!r} contains characters outside the charset: {bad}")

    canvas = np.ones((CANVAS_HEIGHT, rendered_width(len(label))))
    top = (CANVAS_HEIGHT - GLYPH_ROWS * SCALE) // 2
    x = MARGIN
    for ch in label:
        bitmap = np.repeat(np.repeat(_glyph_bitmap(ch), SCALE, 0), SCALE, 1)
        gh, gw = bitmap.shape
        canvas[top : top + gh, x : x + gw][bitmap] = 0.0
        x += gw + SPACING

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = rng.uniform(0.0, NOISE, size=canvas.shape)
    canvas = canvas + n * (1.0 - 2.0 * canvas)  # pull both extremes toward gray

    return Sample(image=canvas[None, None, :, :], label=label, seed=seed)


def _label_space_size(config: GenConfig) -> int:
    a = len(config.charset)
    return sum(a**length for length in range(config.min_len, config.max_len + 1))


def _sample_distinct_labels(config: GenConfig, count: int, rng: np.random.Generator) -> list[str]:
    space = _label_space_size(config)
    if space < count:
        raise DataError(
            f"label space has only {space} distinct strings but {count} are needed; "
            "use longer labels or a larger alphabet"
        )
    if space <= 1 << 20:
        universe = [
            "".join(combo)
            for length in range(config.min_len, config.max_len + 1)
            for combo in product(config.charset, repeat=length)
        ]
        picked = rng.choice(len(universe), size=count, replace=False)
        return [universe[i] for i in picked]
    # huge spaces: rejection sampling, length weighted by string counts
    lengths = np.arange(config.min_len, config.max_len + 1)
    weights = np.array([len(config.charset) ** int(l) for l in lengths], dtype=np.float64)
    weights /= weights.sum()
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        length = int(rng.choice(lengths, p=weights))
        chars = rng.choice(list(config.charset), size=length)
        label = "".join(chars)
        if label not in seen:
            seen.add(label)
            out.append(label)
    return out


def make_split(
    config: GenConfig, n_train: int, n_test: int, seed: int
) -> tuple[list[Sample], list[Sample]]:
    """Render disjoint train/test sets: no test label string appears in train."""
    if n_train < 1 or n_test < 1:
        raise DataError("n_train and n_test must both be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    labels = _sample_distinct_labels(config, n_train + n_test, rng)
    samples = []
    for idx, label in enumerate(labels):
        sample_seed = int(np.random.SeedSequence((seed, 1, idx)).generate_state(1)[0])
        samples.append(render(label, config, sample_seed))
    return samples[:n_train], samples[n_train:]
