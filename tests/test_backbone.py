import sys
import threading
import tracemalloc

import numpy as np
import pytest

import textrec.tensor as T
from textrec.backbone import (
    AttentionModule,
    Backbone,
    BackboneConfig,
    BasicBlock,
    BatchNorm2d,
    map_to_sequence,
)
from textrec.datagen import rendered_width
from textrec.errors import ShapeError
from textrec.selfcheck import _random_affine, _random_bn, check_gradients
from textrec.tensor import Tape, Tensor, add, mul, relu, scale_channels, sum_all, tanh


def reference_block(block: BasicBlock, x: Tensor, training: bool) -> Tensor:
    """The residual block as the chain of separate NCHW taped ops it replaces."""
    y = relu(block.bn1.forward(block.conv1.forward(x), training))
    y = block.bn2.forward(block.conv2.forward(y), training)
    if block.proj is None:
        shortcut = x
    else:
        shortcut = block.proj_bn.forward(block.proj.forward(x), training)
    return relu(add(y, shortcut))


def rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny))


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


def random_block(in_ch, out_ch, stride, seed=0):
    """A block with random affine BN parameters and running statistics."""
    r = np.random.default_rng(seed)
    block = BasicBlock(r, in_ch, out_ch, stride)
    _random_bn(block, r)
    return block


def taped_block_results(forward, block, x, training, weight):
    """Output, running statistics, and the gradients of x and every parameter."""
    params = block.parameters()
    for t in (x, *params.values()):
        t.grad = None
    with Tape() as tape:
        y = forward(block, x, training)
        root = sum_all(mul(y, weight))
    tape.backward(root)
    stats = [a.copy() for st in block.norm_states().values() for a in (st.running_mean, st.running_var)]
    return [y.data.copy(), *stats, x.grad.copy(), *(p.grad.copy() for p in params.values())], len(tape)


# (in, out, stride): the identity shortcut, then a projection for channels, stride or both
BLOCK_SHAPES = [(4, 4, 1), (3, 5, 1), (4, 4, 2), (3, 5, 2)]
BLOCK_IDS = ["identity", "proj_ch", "proj_s2", "proj_ch_s2"]


def identical(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


class TestBatchNorm2d:
    def test_training_normalizes_batch(self):
        bn = BatchNorm2d(2)
        y = bn.forward(Tensor(np.random.default_rng(1234).normal(5.0, 3.0, (4, 2, 3, 3))), training=True)
        assert abs(y.data.mean()) < 1e-12
        assert y.data.std() == pytest.approx(1.0, rel=1e-3)

    def test_eval_uses_running_stats(self):
        y = BatchNorm2d(1).forward(Tensor(np.zeros((1, 1, 2, 2))), training=False)
        np.testing.assert_array_equal(y.data, np.zeros((1, 1, 2, 2)))

    def test_wrong_shape_rejected(self):
        bn = BatchNorm2d(3)
        for shape in [(1, 2, 4, 4), (1, 4, 4, 4), (3, 4, 4)]:
            with pytest.raises(ShapeError):
                bn.forward(Tensor(np.zeros(shape)), training=True)


class TestParameterWalk:
    """Keys are attribute paths in ``__init__``'s assignment order: the order of a block's gradients."""

    @pytest.mark.parametrize("in_ch,out_ch,stride,count", [(4, 4, 1, 6), (3, 5, 2, 9)], ids=["identity", "proj"])
    def test_block_lists_each_conv_then_its_bn(self, in_ch, out_ch, stride, count):
        block = BasicBlock(np.random.default_rng(0), in_ch, out_ch, stride)
        layers = [(block.conv1, block.bn1), (block.conv2, block.bn2), (block.proj, block.proj_bn)][: count // 3]
        want = [t for conv, bn in layers for t in (conv.weight, bn.gamma, bn.beta)]
        assert identical(list(block.parameters().values()), want)
        assert identical(list(block.norm_states().values()), [bn.state for _, bn in layers])

    @pytest.mark.parametrize(
        "cfg,tensors,states",
        [(BackboneConfig(), 36, 12), (BackboneConfig.paper_scale(), 108, 36)],
        ids=["toy", "paper"],
    )
    def test_backbone_lists_the_stem_then_each_block(self, cfg, tensors, states):
        bb = Backbone(cfg, np.random.default_rng(0))
        params = bb.parameters()
        assert list(params)[:4] == ["stem_conv.weight", "stem_bn.gamma", "stem_bn.beta", "stages.0.0.conv1.weight"]
        assert len(params) == tensors and len({id(p) for p in params.values()}) == tensors
        blocks = [p for stage in bb.stages for block in stage for p in block.parameters().values()]
        want = [bb.stem_conv.weight, bb.stem_bn.gamma, bb.stem_bn.beta, *blocks]
        assert identical(list(params.values()), want)
        assert len(bb.norm_states()) == states and list(bb.norm_states())[0] == "stem_bn.state"


class TestBuildMemory:
    def test_backbone_build_peaks_at_what_it_holds(self):
        # Tensor(..., requires_grad=True) takes over each freshly drawn array, so
        # building holds every parameter once and never a second copy of the largest weight
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bb = Backbone(BackboneConfig(), rng)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held, grown = current - base, peak - base
        assert sum(p.data.nbytes for p in bb.parameters().values()) <= held
        assert grown <= 1.01 * held


class TestBlockOp:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("in_ch,out_ch,stride", BLOCK_SHAPES, ids=BLOCK_IDS)
    def test_matches_reference_chain(self, in_ch, out_ch, stride, training, n):
        x = Tensor(np.random.default_rng(1).uniform(-2, 2, (n, in_ch, 6, 10)), requires_grad=True)
        ho, wo = -(-6 // stride), -(-10 // stride)
        weight = Tensor(np.random.default_rng(2).uniform(-1, 1, (n, out_ch, ho, wo)))
        got, records = taped_block_results(BasicBlock.forward, random_block(in_ch, out_ch, stride), x, training, weight)
        want, _ = taped_block_results(reference_block, random_block(in_ch, out_ch, stride), x, training, weight)
        assert records == 3  # the block, the product, the sum
        assert len(got) == len(want)
        # one BN formula in every mode: the block's output is the chain's, bit for bit
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got, want):
            assert a.shape == b.shape and rel_gap(a, b) <= 1e-12

    @pytest.mark.parametrize("per_chunk", [1, 2])
    @pytest.mark.parametrize("in_ch,out_ch,stride", BLOCK_SHAPES, ids=BLOCK_IDS)
    def test_chunked_matches_reference_chain(self, monkeypatch, in_ch, out_ch, stride, per_chunk):
        # N = 5 in chunks of 1 or 2+2+1 samples for conv1's columns (the other convs' own sizes)
        x = Tensor(np.random.default_rng(3).uniform(-2, 2, (5, in_ch, 6, 10)), requires_grad=True)
        ho, wo = -(-6 // stride), -(-10 // stride)
        weight = Tensor(np.random.default_rng(4).uniform(-1, 1, (5, out_ch, ho, wo)))
        want, _ = taped_block_results(reference_block, random_block(in_ch, out_ch, stride), x, True, weight)
        monkeypatch.setattr(T, "_COLS_CHUNK", per_chunk * in_ch * 9 * ho * wo)
        monkeypatch.setattr(T, "_MIN_GEMM_COLS", sys.maxsize)  # the budget alone sets the chunks
        got, _ = taped_block_results(BasicBlock.forward, random_block(in_ch, out_ch, stride), x, True, weight)
        for a, b in zip(got, want):
            assert rel_gap(a, b) <= 1e-12

    @pytest.mark.parametrize("in_ch,out_ch,stride", [(4, 4, 1), (3, 5, 2)], ids=["identity", "proj"])
    def test_input_gradient_owns_its_memory(self, in_ch, out_ch, stride):
        block = random_block(in_ch, out_ch, stride)
        x = Tensor(np.random.default_rng(5).uniform(-2, 2, (2, in_ch, 6, 10)), requires_grad=True)
        with Tape() as tape:
            root = sum_all(tanh(block.forward(x, training=True)))
        tape.backward(root)
        kept = x.grad.copy()
        assert x.grad.flags["OWNDATA"] and x.grad.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(x.grad, T._scratch(1, "col2im").base)
        with Tape() as tape:  # a second backward rewrites the col2im buffer
            root = sum_all(block.forward(Tensor(np.ones_like(x.data), requires_grad=True), training=True))
        tape.backward(root)
        np.testing.assert_array_equal(x.grad, kept)

    @pytest.mark.parametrize("stage,bound", [(0, 3.5), (1, 4.5)], ids=["identity", "proj"])
    def test_taped_block_holds_little_more_than_its_saved_arrays(self, stage, bound):
        # x̂ per BN and the output: 3x the output, 4x with a projection. The pull rebuilds the
        # inner ReLU output; keeping it would hold 4x and 5x
        block = Backbone(BackboneConfig(), np.random.default_rng(0)).stages[stage][0]
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (4, 16, 32, 88)), requires_grad=True)
        with Tape():
            block.forward(x, training=True)  # grows the reused scratch before measuring
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = block.forward(x, training=True)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held <= bound * y.data.nbytes

    @pytest.mark.parametrize("stage,bound", [(0, 3.13), (1, 4.44)], ids=["identity", "proj"])
    def test_untracked_eval_block_overwrites_its_normalized_convs(self, stage, bound):
        # with nothing recorded, γ·x̂ + β runs in place on x̂, so the peak stays at or
        # below that of the BN-folded eval block this path replaced (3.128× and 4.431×
        # the output); a copy of each x̂ adds 1× the output per BN
        block = Backbone(BackboneConfig(), np.random.default_rng(0)).stages[stage][0]
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (4, 16, 32, 88)))
        block.forward(x, training=False)  # grows the reused scratch before measuring
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = block.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not y.requires_grad
        assert peak <= bound * y.data.nbytes

    def test_backbone_records_stem_ops_and_one_per_block(self):
        cfg = BackboneConfig()
        bb = Backbone(cfg, np.random.default_rng(0))
        for training in (True, False):
            with Tape() as tape:
                bb.forward(Tensor(np.zeros((1, 1, 32, 32)), requires_grad=True), training=training)
            assert len(tape) == 3 + sum(cfg.stage_blocks)


class TestEvalPaths:
    @staticmethod
    def calibrated(seed=0):
        """Toy backbone with running statistics from one batch and random affine BN parameters."""
        r = np.random.default_rng(seed)
        bb = Backbone(BackboneConfig(), r)
        for st in bb.norm_states().values():
            st.momentum = 1.0
        bb.forward(Tensor(r.uniform(0, 1, (4, 1, 32, 48))), training=True)
        _random_affine(bb, r)
        return bb, r

    def test_untracked_eval_matches_taped_eval(self):
        bb, r = self.calibrated()
        image = Tensor(r.uniform(0, 1, (3, 1, 32, 40)))
        untracked = bb.forward(image, training=False)
        with Tape() as tape:
            ref = bb.forward(image, training=False)
        assert not untracked.requires_grad and len(tape) > 0
        assert np.array_equal(untracked.data, ref.data)

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
            assert np.array_equal(free.data, ref.data)
            x = Tensor(ref.data)

    def test_eval_forward_is_stem_ops_then_blocks(self):
        # the composition a per-layer trace times, layer by layer, must be the forward itself
        bb, r = self.calibrated(seed=4)
        image = Tensor(r.uniform(0, 1, (2, 1, 32, 40)))
        x = relu(bb.stem_bn.forward(bb.stem_conv.forward(image), False))
        for blocks in bb.stages:
            for block in blocks:
                x = block.forward(x, False)
        assert np.array_equal(bb.forward(image, training=False).data, x.data)

    @pytest.mark.parametrize("cols_chunk", [None, 1], ids=["default-chunks", "one-sample-chunks"])
    def test_split_eval_matches_serial_and_per_sample(self, monkeypatch, cols_chunk):
        # every conv split over two threads, as a paper-scale eval forward splits its 3×3
        # convs. In one-sample chunks both engines run the same GEMMs and agree bitwise;
        # otherwise the GEMM widths differ, which BLAS may round differently. The harness
        # requires batched outputs within 1e-10 of per-sample ones.
        bb, r = self.calibrated(seed=3)
        image = Tensor(r.uniform(0, 1, (5, 1, 32, 40)))
        if cols_chunk is not None:
            monkeypatch.setattr(T, "_COLS_CHUNK", cols_chunk)
        monkeypatch.setattr(T, "_MIN_GEMM_COLS", sys.maxsize)  # the budget alone sets the chunks
        monkeypatch.setattr(T, "_CORES", 2)
        monkeypatch.setattr(T, "_SPLIT_FLOP", float("inf"))
        serial = bb.forward(image, training=False).data
        monkeypatch.setattr(T, "_SPLIT_FLOP", 0)
        split = bb.forward(image, training=False).data
        if cols_chunk is None:
            assert rel_gap(split, serial) <= 1e-12
        else:
            assert np.array_equal(split, serial)
        per_sample = np.concatenate([bb.forward(Tensor(image.data[i : i + 1]), training=False).data for i in range(5)])
        assert np.max(np.abs(split - per_sample)) <= 1e-10

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


def backbone_convs(cfg: BackboneConfig, w: int, h: int = 32) -> dict[str, tuple]:
    """Every backbone conv and the attention conv on an h×w input, by name: the kernel
    shape, the stride and the conv's input size."""
    bb = Backbone(cfg, np.random.default_rng(0))
    out = {"stem": (bb.stem_conv.weight.shape, bb.stem_conv.stride, h, w)}
    for s, blocks in enumerate(bb.stages):
        for b, block in enumerate(blocks):
            name = f"stage{s}.block{b}"
            out[f"{name}.conv1"] = (block.conv1.weight.shape, block.conv1.stride, h, w)
            if block.proj is not None:
                out[f"{name}.proj"] = (block.proj.weight.shape, block.proj.stride, h, w)
            h, w = -(-h // block.conv1.stride[0]), -(-w // block.conv1.stride[1])
            out[f"{name}.conv2"] = (block.conv2.weight.shape, block.conv2.stride, h, w)
    out["attention"] = (AttentionModule(cfg.out_channels, np.random.default_rng(1)).conv_w.shape, (1, 1), h, w)
    return out


def conv_work(cfg: BackboneConfig, n: int, w: int, h: int = 32) -> dict[str, int]:
    """The work 2·K·C·kh·kw·N·Ho·Wo of every conv of ``backbone_convs``, at batch n."""
    return {
        name: 2 * np.prod(shape) * n * -(-hi // stride[0]) * -(-wi // stride[1])
        for name, (shape, stride, hi, wi) in backbone_convs(cfg, w, h).items()
    }


class TestSplitThreshold:
    """Which convs of the two training configs split their batch across cores."""

    def test_toy_training_splits_every_3x3_block_conv_only(self):
        # batch 8 at the widths of the default label lengths 3-5
        assert [rendered_width(n) for n in range(3, 6)] == [56, 72, 88]
        for w in (56, 72, 88):
            work = conv_work(BackboneConfig(), 8, w)
            split = {name for name, f in work.items() if f >= T._SPLIT_FLOP}
            assert split == {name for name in work if name.endswith(("conv1", "conv2"))}, w
            assert len(split) == 8

    def test_long_line_training_splits_no_conv(self):
        # batch 2 at the widths of label lengths 16-20
        widths = [rendered_width(n) for n in range(16, 21)]
        assert (widths[0], widths[-1]) == (280, 344)
        for w in widths:
            assert max(conv_work(BackboneConfig(stage_channels=(4, 4, 8, 8)), 2, w).values()) < T._SPLIT_FLOP


TOY_WIDTHS = [rendered_width(n) for n in range(3, 6)]  # the default label lengths 3-5
WORKLOADS = {  # the benchmark workloads' backbones, batch sizes and widths
    "toy": (BackboneConfig(), 8, TOY_WIDTHS),
    "longline": (BackboneConfig(stage_channels=(4, 4, 8, 8)), 2, [rendered_width(n) for n in range(16, 21)]),
    "paper": (BackboneConfig.paper_scale(), 8, TOY_WIDTHS),
}

# Samples per chunk, range by range, of every workload conv on two cores. A layer is
# "stem", "attention", "stageS" (each 3×3 conv of stage S) or "stageS.proj"; a dict
# gives the plan per width, and ``budget_bound`` names the only exceptions.
ONE_EACH = [[1, 1, 1, 1], [1, 1, 1, 1]]
TWO_RANGES_OF_FOUR = [[4], [4]]
PLANS = {
    "toy": {
        "stem": {56: [[2, 2, 2, 2]], 72: [[1] * 8], 88: [[1] * 8]},
        "stage0": {56: [[2, 2], [2, 2]], 72: ONE_EACH, 88: ONE_EACH},
        "stage1": TWO_RANGES_OF_FOUR,
        "stage1.proj": {56: [[8]], 72: [[4, 4]], 88: [[4, 4]]},
        "stage2": TWO_RANGES_OF_FOUR,
        "stage2.proj": [[8]],
        "stage3": TWO_RANGES_OF_FOUR,
        "stage3.proj": [[8]],
        "attention": [[8]],
    },
    "longline": {"stem": [[1, 1]], "stage0": [[1, 1]], "stage1": [[1, 1]], "stage1.proj": [[1, 1]]},
    "paper": {
        "stem": {56: [[2, 2, 2, 2]], 72: ONE_EACH, 88: ONE_EACH},
        "stage0": {56: [[2, 2], [2, 2]], 72: ONE_EACH, 88: ONE_EACH},
        "attention": [[8]],
    },
}
OTHER_LAYERS = {"toy": None, "longline": [[2]], "paper": TWO_RANGES_OF_FOUR}  # the layers PLANS leaves out


def budget_bound(workload: str, width: int, name: str, shape: tuple) -> bool:
    """The only workload convs whose chunks ``_COLS_CHUNK`` sets: paper stage 1's seven
    128-channel 3×3 convs at widths 72 and 88 run 2 + 2 samples per range, where the
    GEMM-width floor alone would run one chunk of 4."""
    return workload == "paper" and width in (72, 88) and name.startswith("stage1.") and shape[1:] == (128, 3, 3)


def workload_plans(workload: str, budget: int):
    """(width, name, kernel shape, samples per chunk per range) of every conv of a workload
    on two cores under a ``_COLS_CHUNK`` of ``budget``, after checking each range's
    bounds and scratch."""
    cfg, n, widths = WORKLOADS[workload]
    plans = []

    def plan_all():
        for width in widths:
            for name, (shape, stride, h, w) in backbone_convs(cfg, width).items():
                k, c, kh, kw = shape
                plan = T._plan(np.broadcast_to(0.0, (c, n, h, w)), kh, kw, *stride, k)
                bounds = [b for chunks, _, _ in plan for b in chunks]
                assert [s for s, _ in bounds] == [0] + [e for _, e in bounds[:-1]] and bounds[-1][1] == n
                ho, pt, pb = T._same_pad(h, kh, stride[0])
                wo, pl, pr = T._same_pad(w, kw, stride[1])
                for i, (chunks, buf, pad) in enumerate(plan):
                    most = max(e - s for s, e in chunks)
                    slot = T._scratch(1, f"cols{i}" if i else "cols").base  # the caller's slot
                    assert buf.size == most * c * kh * kw * ho * wo and np.shares_memory(buf, slot)
                    if (kh, kw) == (1, 1):
                        assert pad is None  # a 1×1 conv reads its input unpadded
                    else:
                        assert pad.size == most * c * (pt + h + pb) * (pl + w + pr) and np.shares_memory(pad, slot)
                        assert not np.shares_memory(buf, pad)
                plans.append((width, name, shape, [[e - s for s, e in chunks] for chunks, _, _ in plan]))

    # on a thread of its own, whose scratch is freed when it ends
    with pytest.MonkeyPatch.context() as m:
        m.setattr(T, "_CORES", 2)
        m.setattr(T, "_COLS_CHUNK", budget)
        t = threading.Thread(target=plan_all)
        t.start()
        t.join(timeout=120)
    assert not t.is_alive()
    return plans


class TestWorkloadPlans:
    """``_plan`` for every conv of the three benchmark workloads at their widths."""

    @pytest.mark.parametrize("workload", list(WORKLOADS))
    def test_every_conv_runs_its_pinned_plan(self, workload):
        plans = workload_plans(workload, T._COLS_CHUNK)
        assert len(plans) == len(WORKLOADS[workload][2]) * len(backbone_convs(WORKLOADS[workload][0], 56))
        for width, name, shape, sizes in plans:
            layer = name.split(".")[0] + (".proj" if name.endswith(".proj") else "")
            want = PLANS[workload].get(layer, OTHER_LAYERS[workload])
            want = want[width] if isinstance(want, dict) else want
            if budget_bound(workload, width, name, shape):
                want = [[2, 2], [2, 2]]
            assert sizes == want, (width, name)

    @pytest.mark.parametrize("workload", list(WORKLOADS))
    def test_the_column_budget_binds_only_at_paper_stage1(self, workload):
        bounded = workload_plans(workload, T._COLS_CHUNK)
        free = workload_plans(workload, sys.maxsize)
        changed = [(width, name) for (width, name, _, a), (_, _, _, b) in zip(bounded, free) if a != b]
        bound = [(width, name, sizes) for width, name, shape, sizes in free if budget_bound(workload, width, name, shape)]
        assert changed == [(width, name) for width, name, _ in bound]
        assert len(changed) == (14 if workload == "paper" else 0)
        assert all(sizes == TWO_RANGES_OF_FOUR for _, _, sizes in bound)


class TestScratchHighWater:
    """The scratch one toy training step at 8×32×88 takes: the convs of the backbone and
    attention, forward and backward, two ranges as on two cores, on a fresh thread whose
    scratch starts empty."""

    @staticmethod
    def toy_step(monkeypatch):
        """(thread ident, slot, size) per scratch request, the bytes each slot of the
        step's thread holds after it, and that thread's ident."""
        monkeypatch.setattr(T, "_CORES", 2)
        cfg = BackboneConfig()
        bb = Backbone(cfg, np.random.default_rng(0))
        att = AttentionModule(cfg.out_channels, np.random.default_rng(1))
        r = np.random.default_rng(2)
        image = Tensor(r.uniform(0, 1, (8, 1, 32, 88)))
        weight = Tensor(r.uniform(-1, 1, (8, cfg.out_channels, 4, 11)))
        requests, held, caller = [], {}, []
        scratch = T._scratch

        def record(size, slot):
            requests.append((threading.get_ident(), slot, size))
            return scratch(size, slot)

        monkeypatch.setattr(T, "_scratch", record)

        def step():
            caller.append(threading.get_ident())
            with Tape() as tape:
                f = bb.forward(image, training=True)
                root = sum_all(mul(scale_channels(f, att.forward(f)), weight))
            tape.backward(root)
            held.update((slot, v.nbytes) for slot, v in vars(T._LOCAL).items() if isinstance(v, np.ndarray))

        t = threading.Thread(target=step)
        t.start()
        t.join(timeout=120)
        assert not t.is_alive() and held
        return requests, held, caller[0]

    def test_toy_training_step_keeps_column_slots_within_7_mib(self, monkeypatch):
        # The largest slot is stage 1's conv2 with one chunk per range: 288 rows × 2,816
        # columns (6.19 MiB) and behind them 4 samples of its 32-channel input, 16×44
        # padded to 18×46 (0.81 MiB). A 32 MiB budget alone gave stage 0 chunks of 4
        # samples (12.4 MiB of columns).
        requests, held, _ = self.toy_step(monkeypatch)
        limit = 7.0 * 2**20
        assert max(8 * size for _, slot, size in requests if slot.startswith("cols")) <= limit
        assert max(nbytes for slot, nbytes in held.items() if slot.startswith("cols")) <= limit

    def test_split_step_pads_in_scratch_taken_on_the_caller(self, monkeypatch):
        # No chunk is padded by a fresh np.pad array, and every scratch request comes from
        # the step's own thread, so a pool thread that claims a range allocates nothing
        # per chunk in its own malloc arena, which would keep the memory.
        def refuse(*args, **kwargs):
            raise AssertionError("the conv path pads into scratch, not through np.pad")

        monkeypatch.setattr(np, "pad", refuse)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", refuse)
        requests, _, caller = self.toy_step(monkeypatch)
        assert "cols1" in {slot for _, slot, _ in requests}  # the step split its convs
        assert {ident for ident, _, _ in requests} == {caller}
        assert T._POOL.submit(lambda: sorted(vars(T._LOCAL))).result(timeout=30) == []


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

    def test_one_record_whose_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 5)), requires_grad=True)
        weight = Tensor(rng.uniform(-1, 1, (5, 2, 12)))
        with Tape() as tape:
            map_to_sequence(x)
        assert len(tape) == 1
        assert check_gradients(lambda: sum_all(mul(map_to_sequence(x), weight)), [x]) < 1e-6

    def test_height_major_then_channel_order(self):
        # vector[w][h*D + c] == volume[c, h, w]
        vol = np.arange(2 * 3 * 4, dtype=float).reshape(1, 2, 3, 4)
        seq = map_to_sequence(Tensor(vol)).data
        for w in range(4):
            for h in range(3):
                for c in range(2):
                    assert seq[w, 0, h * 2 + c] == vol[0, c, h, w]


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_backbone()[1].forward(Tensor(np.zeros((1, 32, 32))), training=False),
        lambda: map_to_sequence(Tensor(np.zeros((1, 4, 4)))),
    ],
    ids=["backbone-rank", "map_to_sequence-rank"],
)
def test_rejects(call):
    with pytest.raises(ShapeError):
        call()
