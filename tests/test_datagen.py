from itertools import product

import numpy as np
import pytest

from textrec.datagen import GenConfig, make_split, render, rendered_width
from textrec.errors import DataError


def accepted_configs():
    for scale, spacing, margin in product(range(1, 5), range(0, 17), range(0, 4)):
        try:
            yield GenConfig(scale=scale, spacing=spacing, margin=margin)
        except DataError:
            pass


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
    def test_every_accepted_config_is_ctc_feasible(self):
        configs = list(accepted_configs())
        assert len(configs) > 100
        for cfg in configs:
            for length in range(1, 7):
                width = render("a" * length, cfg, 0).width
                assert width == rendered_width(length, cfg)
                assert width % 8 == 0
                assert width // 8 >= 2 * length, (cfg, length, width)

    def test_tight_pitch_gets_the_floor(self):
        # 5 px glyphs + 11 px spacing: "ab" needs 21 px of ink but 4 frames
        cfg = GenConfig(scale=1, spacing=11, margin=0)
        assert render("ab", cfg, 0).width == 32

    def test_default_widths(self):
        assert [rendered_width(n, GenConfig()) for n in (3, 4, 5)] == [56, 72, 88]

    def test_glyphs_fit_the_canvas(self):
        sample = render("abcde", GenConfig(noise=0.0), 0)
        ink = np.flatnonzero((sample.image[0, 0] < 0.5).any(axis=0))
        assert ink[0] >= GenConfig().margin
        assert ink[-1] < sample.width - GenConfig().margin


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
