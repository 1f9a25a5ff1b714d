import numpy as np
import pytest

from textrec.backbone import (
    AttentionModule,
    Backbone,
    BackboneConfig,
    map_to_sequence,
)
from textrec.errors import ShapeError
from textrec.gradcheck import check_gradients
from textrec.tensor import Tape, Tensor, scale_channels, sum_all, tanh


def sequence_to_columns(seq: np.ndarray, height: int, depth: int) -> np.ndarray:
    """Inverse of the map-to-sequence flattening for one sample: (W, H*D) -> (D, H, W)."""
    w = seq.shape[0]
    return seq.reshape(w, height, depth).transpose(2, 1, 0)


def make_backbone(channels=(2, 3, 4, 5), seed=0):
    cfg = BackboneConfig(stage_channels=channels)
    return cfg, Backbone(cfg, np.random.default_rng(seed))


class TestBackboneConfig:
    def test_toy_defaults(self):
        cfg = BackboneConfig()
        assert cfg.stage_blocks == (1, 1, 1, 1)
        assert cfg.stage_channels == (16, 32, 64, 128)
        assert cfg.out_channels == 128

    def test_paper_scale(self):
        cfg = BackboneConfig.paper_scale()
        assert cfg.stage_blocks == (3, 4, 6, 3)
        assert cfg.out_channels == 512

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(stage_blocks=(1, 1, 1))
        with pytest.raises(ValueError):
            BackboneConfig(stage_channels=(0, 1, 1, 1))


class TestExtractFeatures:
    def test_stride_eight_toy_shape(self):
        cfg = BackboneConfig()
        bb = Backbone(cfg, np.random.default_rng(0))
        image = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 1, 32, 128)))
        feats = bb.forward(image, training=False)
        assert feats.shape == (1, 128, 4, 16)

    def test_stride_eight_square_input(self):
        _, bb = make_backbone()
        feats = bb.forward(Tensor(np.zeros((1, 1, 32, 32))), training=False)
        assert feats.shape[2:] == (4, 4)

    @pytest.mark.parametrize("h,w", [(32, 40), (40, 64), (64, 72)])
    def test_stride_invariant_across_sizes(self, h, w):
        _, bb = make_backbone()
        feats = bb.forward(Tensor(np.zeros((1, 1, h, w))), training=False)
        assert feats.shape[2:] == (h // 8, w // 8)

    def test_non_multiple_of_eight_rejected_before_compute(self):
        _, bb = make_backbone()
        with pytest.raises(ShapeError):
            bb.forward(Tensor(np.zeros((1, 1, 32, 33))), training=False)
        with pytest.raises(ShapeError):
            bb.forward(Tensor(np.zeros((1, 1, 36, 32))), training=False)

    def test_non_grayscale_input_rejected(self):
        _, bb = make_backbone()
        with pytest.raises(ShapeError):
            bb.forward(Tensor(np.zeros((1, 3, 32, 32))), training=False)

    def test_height_below_32_rejected(self):
        _, bb = make_backbone()
        with pytest.raises(ShapeError):
            bb.forward(Tensor(np.zeros((1, 1, 24, 32))), training=False)

    def test_zero_input_gives_zero_features(self):
        # biases are zero at init (convs bias-free, norm shift zero), so a
        # zero image stays zero through the whole stack
        _, bb = make_backbone()
        for training in (True, False):
            feats = bb.forward(Tensor(np.zeros((1, 1, 32, 40))), training=training)
            np.testing.assert_array_equal(feats.data, 0.0)

    def test_paper_scale_smoke(self):
        cfg = BackboneConfig.paper_scale()
        bb = Backbone(cfg, np.random.default_rng(0))
        feats = bb.forward(Tensor(np.zeros((1, 1, 32, 32))), training=False)
        assert feats.shape == (1, 512, 4, 4)


class TestBnFold:
    @staticmethod
    def calibrated(seed=0):
        """Toy backbone with running statistics from one batch and random affine BN parameters."""
        r = np.random.default_rng(seed)
        bb = Backbone(BackboneConfig(), r)
        for st in bb.norm_states().values():
            st.momentum = 1.0
        bb.forward(Tensor(r.uniform(0, 1, (4, 1, 32, 48))), training=True)
        for name, p in bb.parameters().items():
            if name.endswith(".gamma"):
                p.data[:] = r.uniform(0.5, 1.5, p.shape)
            elif name.endswith(".beta"):
                p.data[:] = r.uniform(-0.5, 0.5, p.shape)
        return bb, r

    def test_folded_eval_matches_taped_eval(self):
        bb, r = self.calibrated()
        image = Tensor(r.uniform(0, 1, (3, 1, 32, 40)))
        folded = bb.forward(image, training=False)
        with Tape() as tape:
            ref = bb.forward(image, training=False)
        assert not folded.requires_grad and len(tape) > 0
        gap = np.max(np.abs(folded.data - ref.data)) / np.max(np.abs(ref.data))
        assert gap <= 1e-12

    def test_block_eval_matches_taped_block(self):
        # block by block on NCHW tensors, as a per-layer trace runs them:
        # stage0's block has the identity shortcut, the others a projection
        bb, r = self.calibrated(seed=2)
        x = Tensor(r.uniform(0, 2, (2, 16, 32, 24)))
        for block in [blocks[0] for blocks in bb.stages]:
            free = block.forward(x, training=False)
            with Tape():
                ref = block.forward(x, training=False)
            assert not free.requires_grad and ref.requires_grad
            assert np.max(np.abs(free.data - ref.data)) / np.max(np.abs(ref.data)) <= 1e-12
            x = Tensor(ref.data)

    def test_taped_eval_keeps_bn_gradients_and_running_stats(self):
        bb, r = self.calibrated(seed=1)
        stats = {k: (s.running_mean.copy(), s.running_var.copy()) for k, s in bb.norm_states().items()}
        with Tape() as tape:
            root = sum_all(tanh(bb.forward(Tensor(r.uniform(0, 1, (2, 1, 32, 32))), training=False)))
        tape.backward(root)
        for name, p in bb.parameters().items():
            assert p.grad is not None and np.any(p.grad != 0.0), name
        for k, s in bb.norm_states().items():
            assert np.array_equal(s.running_mean, stats[k][0]) and np.array_equal(s.running_var, stats[k][1])


class TestAttention:
    def test_zero_weights_give_half_mask(self):
        att = AttentionModule(3, np.random.default_rng(0))
        att.conv_w.data[:] = 0.0
        att.conv_b.data[:] = 0.0
        mask = att.forward(Tensor(np.random.default_rng(1).normal(size=(1, 3, 4, 6))))
        np.testing.assert_array_equal(mask.data, np.full((1, 1, 4, 6), 0.5))

    def test_mask_shape_and_open_range(self):
        att = AttentionModule(5, np.random.default_rng(2))
        feats = Tensor(np.random.default_rng(3).normal(0, 10, (2, 5, 4, 9)))
        mask = att.forward(feats)
        assert mask.shape == (2, 1, 4, 9)
        assert np.all(mask.data > 0.0)
        assert np.all(mask.data < 1.0)

    def test_mask_column_locality(self):
        # 3x1 kernel: mask column w depends only on feature column w
        att = AttentionModule(4, np.random.default_rng(4))
        feats = np.random.default_rng(5).normal(size=(1, 4, 6, 8))
        base = att.forward(Tensor(feats)).data
        bumped = feats.copy()
        bumped[:, :, :, 3] += 1.0
        out = att.forward(Tensor(bumped)).data
        changed = np.any(base != out, axis=(0, 1, 2))
        assert changed[3]
        assert not np.any(changed[np.arange(8) != 3])

    def test_gradient_matches_fd(self):
        att = AttentionModule(2, np.random.default_rng(6))
        feats = Tensor(np.random.default_rng(7).uniform(-1, 1, (1, 2, 4, 5)), requires_grad=True)
        err = check_gradients(lambda: sum_all(att.forward(feats)), [feats])
        assert err < 1e-6


class TestApplyAttention:
    """The mask is applied by ``scale_channels``: every channel times the shared mask."""

    def test_identity_mask(self):
        feats = Tensor(np.random.default_rng(0).normal(size=(1, 3, 2, 4)))
        mask = Tensor(np.ones((1, 1, 2, 4)))
        np.testing.assert_array_equal(scale_channels(feats, mask).data, feats.data)

    def test_uniform_half_mask_scales(self):
        feats = Tensor(np.random.default_rng(1).normal(size=(1, 3, 2, 4)))
        mask = Tensor(np.full((1, 1, 2, 4), 0.5))
        np.testing.assert_allclose(scale_channels(feats, mask).data, feats.data * 0.5, rtol=0)

    def test_masking_one_position_zeroes_exactly_that_fiber(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(1, 3, 4, 5)) + 1.0
        mask = np.full((1, 1, 4, 5), 0.7)
        mask[0, 0, 2, 3] = 0.0
        out = scale_channels(Tensor(feats), Tensor(mask)).data
        assert np.all(out[0, :, 2, 3] == 0.0)
        untouched = np.ones((4, 5), dtype=bool)
        untouched[2, 3] = False
        np.testing.assert_allclose(out[0][:, untouched], feats[0][:, untouched] * 0.7, rtol=0)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            scale_channels(Tensor(np.zeros((1, 3, 4, 5))), Tensor(np.zeros((1, 1, 4, 4))))


class TestMapToSequence:
    def test_shape_arithmetic(self):
        feats = Tensor(np.zeros((1, 8, 4, 16)))
        seq = map_to_sequence(feats)
        assert seq.shape == (16, 1, 32)

    def test_column_locality(self):
        rng = np.random.default_rng(3)
        vol = rng.normal(size=(1, 6, 4, 10))
        base = map_to_sequence(Tensor(vol)).data
        bumped = vol.copy()
        bumped[0, :, :, 3] += 1.0
        out = map_to_sequence(Tensor(bumped)).data
        diff = np.any(base != out, axis=(1, 2))
        assert diff[3] and not np.any(diff[np.arange(10) != 3])

    def test_roundtrip_bijection(self):
        rng = np.random.default_rng(4)
        vol = rng.normal(size=(1, 6, 4, 10))
        seq = map_to_sequence(Tensor(vol)).data[:, 0, :]  # (W, H*D)
        back = sequence_to_columns(seq, height=4, depth=6)
        np.testing.assert_array_equal(back, vol[0])

    def test_height_major_then_channel_order(self):
        # vector[w][h*D + c] == volume[c, h, w]
        vol = np.arange(2 * 3 * 4, dtype=float).reshape(1, 2, 3, 4)
        seq = map_to_sequence(Tensor(vol)).data
        for w in range(4):
            for h in range(3):
                for c in range(2):
                    assert seq[w, 0, h * 2 + c] == vol[0, c, h, w]


class TestEndToEndPipeline:
    def test_gradient_through_full_pipeline_32x32(self):
        cfg, bb = make_backbone()
        att = AttentionModule(cfg.out_channels, np.random.default_rng(8))
        image = Tensor(np.random.default_rng(9).uniform(0, 1, (1, 1, 32, 32)), requires_grad=True)

        def pipeline():
            feats = bb.forward(image, training=True)
            weighted = scale_channels(feats, att.forward(feats))
            return sum_all(tanh(map_to_sequence(weighted)))

        err = check_gradients(pipeline, [image], max_probe=64, rng=np.random.default_rng(10))
        assert err < 1e-5
