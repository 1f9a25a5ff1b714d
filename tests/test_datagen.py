import numpy as np
import pytest

from textrec.datagen import MARGIN, GenConfig, make_split, render, rendered_width
from textrec.errors import DataError


class TestSplit:
    def test_train_and_test_labels_are_disjoint(self):
        train, test = make_split(GenConfig(), n_train=200, n_test=100, seed=3)
        train_labels = {s.label for s in train}
        test_labels = {s.label for s in test}
        assert len(train_labels) == 200 and len(test_labels) == 100
        assert not train_labels & test_labels

    def test_same_seed_gives_identical_images(self):
        a_train, a_test = make_split(GenConfig(), n_train=12, n_test=4, seed=9)
        b_train, b_test = make_split(GenConfig(), n_train=12, n_test=4, seed=9)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.label == b.label and a.seed == b.seed
            assert np.array_equal(a.image, b.image)

    def test_label_space_too_small_rejected(self):
        cfg = GenConfig(charset="ab", min_len=3, max_len=3)  # 8 distinct labels
        with pytest.raises(DataError):
            make_split(cfg, n_train=6, n_test=3, seed=0)


class TestWidth:
    def test_every_length_is_ctc_feasible(self):
        cfg = GenConfig(min_len=1, max_len=40)
        for length in range(1, 41):
            width = render("a" * length, cfg, 0).width
            assert width % 8 == 0
            assert width // 8 >= 2 * length, (length, width)
            assert width == rendered_width(length)

    def test_default_widths(self):
        assert [rendered_width(n) for n in (3, 4, 5)] == [56, 72, 88]

    def test_glyphs_fit_the_canvas(self):
        # noise moves a pixel at most 0.1 toward gray, so 0.5 still separates ink
        sample = render("abcde", GenConfig(), 0)
        ink = np.flatnonzero((sample.image[0, 0] < 0.5).any(axis=0))
        assert ink[0] >= MARGIN
        assert ink[-1] < sample.width - MARGIN


class TestRejection:
    @pytest.mark.parametrize("charset", ["ab!", "aab", "ABC"])
    def test_bad_charset_rejected(self, charset):
        with pytest.raises(DataError):
            GenConfig(charset=charset)

    def test_empty_label_rejected(self):
        with pytest.raises(DataError):
            render("", GenConfig(), 0)

    def test_label_outside_charset_rejected(self):
        with pytest.raises(DataError):
            render("az", GenConfig(), 0)
