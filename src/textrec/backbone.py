"""Feature extraction: residual backbone, text attention mask, map-to-sequence.

The backbone is a residual network whose overall spatial stride is pinned to 8
in both axes: a 3x3 stride-1 stem over one grayscale channel (no maxpool)
followed by four residual stages with strides (1, 2, 2, 2). The attention
module turns the feature volume into a single-channel sigmoid mask (3-high by
1-wide convolution), and map-to-sequence flattens each width column into one
feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import (
    BatchNormState,
    Tensor,
    _bn_backward,
    _bn_normalize,
    _conv_backward,
    apply_op,
    batch_norm,
    conv2d,
    conv2d_cnhw,
    parameter,
    relu,
    reshape,
    sigmoid,
    tracking,
    transpose,
)

STAGE_STRIDES = (1, 2, 2, 2)  # with the stride-1 stem this realizes /8 overall


@dataclass(frozen=True)
class BackboneConfig:
    """Sizing knobs for the feature extractor.

    The defaults are the desk-scale ("toy") sizes; ``paper_scale()`` selects
    the 34-layer layout whose final feature depth is 512.
    """

    stage_blocks: tuple[int, int, int, int] = (1, 1, 1, 1)
    stage_channels: tuple[int, int, int, int] = (16, 32, 64, 128)

    def __post_init__(self):
        if len(self.stage_blocks) != 4 or len(self.stage_channels) != 4:
            raise ValueError("stage_blocks and stage_channels must each have 4 entries")
        if any(b < 1 for b in self.stage_blocks) or any(c < 1 for c in self.stage_channels):
            raise ValueError("stage sizes must be positive")

    @property
    def out_channels(self) -> int:
        return self.stage_channels[3]

    @classmethod
    def paper_scale(cls) -> "BackboneConfig":
        return cls(stage_blocks=(3, 4, 6, 3), stage_channels=(64, 128, 256, 512))


def _he_conv(rng: np.random.Generator, out_ch: int, in_ch: int, kh: int, kw: int) -> Tensor:
    std = np.sqrt(2.0 / (in_ch * kh * kw))
    return parameter(rng.normal(0.0, std, size=(out_ch, in_ch, kh, kw)))


class Conv2d:
    """Bias-free convolution layer (normalization supplies the shift)."""

    def __init__(self, rng, in_ch: int, out_ch: int, kernel: tuple[int, int], stride=(1, 1)):
        self.weight = _he_conv(rng, out_ch, in_ch, *kernel)
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride)

    def parameters(self) -> dict[str, Tensor]:
        return {"w": self.weight}


class BatchNorm2d:
    def __init__(self, channels: int):
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.state = BatchNormState(channels)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.state, training)

    def parameters(self) -> dict[str, Tensor]:
        return {"gamma": self.gamma, "beta": self.beta}


def _folded(conv: Conv2d, bn: BatchNorm2d, x: np.ndarray, residual=None, relu=False) -> np.ndarray:
    """``bn.forward(conv.forward(x), training=False)`` as one channel-major conv, with no tape.

    In eval mode BN is the fixed per-channel map y·a + (β - μ·a) with
    a = γ/√(σ² + ε), so it folds into the conv: ``conv2d_cnhw`` applies it to
    each chunk's GEMM output, then adds ``residual`` and applies ReLU.
    """
    st = bn.state
    a = bn.gamma.data / np.sqrt(st.running_var + st.eps)
    return conv2d_cnhw(x, conv.weight.data, conv.stride, a, bn.beta.data - st.running_mean * a, residual, relu)


class BasicBlock:
    """conv-norm-relu, conv-norm, shortcut add, relu.

    The shortcut is the identity unless channels or stride change, in which
    case a 1x1 projection (with its own normalization) is used.
    """

    def __init__(self, rng, in_ch: int, out_ch: int, stride: int):
        self.conv1 = Conv2d(rng, in_ch, out_ch, (3, 3), stride=(stride, stride))
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(rng, out_ch, out_ch, (3, 3))
        self.bn2 = BatchNorm2d(out_ch)
        if in_ch != out_ch or stride != 1:
            self.proj = Conv2d(rng, in_ch, out_ch, (1, 1), stride=(stride, stride))
            self.proj_bn = BatchNorm2d(out_ch)
        else:
            self.proj = None
            self.proj_bn = None

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if not training and not tracking((x, *self.parameters().values())):
            # channel-major views in and out cost no copy, so blocks chain freely
            xc = x.data.transpose(1, 0, 2, 3)
            y = _folded(self.conv1, self.bn1, xc, relu=True)
            shortcut = xc if self.proj is None else _folded(self.proj, self.proj_bn, xc)
            out = _folded(self.conv2, self.bn2, y, residual=shortcut, relu=True)
            return Tensor(out.transpose(1, 0, 2, 3))
        return self._op(x, training)

    def _op(self, x: Tensor, training: bool) -> Tensor:
        """The block as one taped op over the channel-major view of ``x``.

        Each conv is ``conv2d_cnhw``, and ``_bn_normalize`` turns its output
        into x̂ in place: batch statistics in training, running ones in taped
        eval, with the running estimates updated as ``batch_norm`` updates
        them. γ, β, the shortcut add and the ReLUs then run in place on the
        inner activation and the output. The tape keeps each BN's x̂, the
        inner ReLU output and the block output, 4× the output (5× with a
        projection); the input is alive anyway (the memory argument of
        In-Place ABN, Rota Bulò et al., arXiv:1712.02616).

        The backward is hand-written: output ReLU mask → BN2 → conv2 → inner
        ReLU mask → BN1 → conv1, then the identity shortcut, or the
        projection BN and 1×1 conv. Every gradient is handed over as a
        channel-major (K, N·Ho·Wo) matrix, and each conv's dX view of the
        ``col2im`` scratch is consumed before the next conv backward runs.
        """
        xc = x.data.transpose(1, 0, 2, 3)

        def conv_norm(src: np.ndarray, conv: Conv2d, bn: BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
            xhat = conv2d_cnhw(src, conv.weight.data, conv.stride)
            return xhat, _bn_normalize(xhat, bn.state, training)

        def affine(xhat: np.ndarray, bn: BatchNorm2d) -> np.ndarray:
            y = xhat * bn.gamma.data[:, None, None, None]
            y += bn.beta.data[:, None, None, None]
            return y

        xhat1, inv1 = conv_norm(xc, self.conv1, self.bn1)
        inner = affine(xhat1, self.bn1)
        np.maximum(inner, 0.0, out=inner)
        xhat2, inv2 = conv_norm(inner, self.conv2, self.bn2)
        out = affine(xhat2, self.bn2)
        if self.proj is None:
            out += xc
        else:
            xhatp, invp = conv_norm(xc, self.proj, self.proj_bn)
            out += affine(xhatp, self.proj_bn)
        np.maximum(out, 0.0, out=out)
        k = out.shape[0]

        def bn_back(g: np.ndarray, xhat: np.ndarray, bn: BatchNorm2d, inv: np.ndarray):
            dy, dgamma, dbeta = _bn_backward(g.reshape(k, -1), xhat.reshape(k, -1), bn.gamma.data, inv, training)
            return dy.reshape(xhat.shape), dgamma, dbeta

        def pull(g):
            gout = np.empty_like(out)
            np.multiply(g.transpose(1, 0, 2, 3), out > 0.0, out=gout)
            dy2, dgamma2, dbeta2 = bn_back(gout, xhat2, self.bn2, inv2)
            dw2, dinner = _conv_backward(inner, self.conv2.weight.data, self.conv2.stride, dy2, True)
            dy1 = np.multiply(dinner, inner > 0.0, out=np.empty_like(inner))
            dy1, dgamma1, dbeta1 = bn_back(dy1, xhat1, self.bn1, inv1)
            dw1, dx = _conv_backward(xc, self.conv1.weight.data, self.conv1.stride, dy1, x.requires_grad)
            grads = [dw1, dgamma1, dbeta1, dw2, dgamma2, dbeta2]
            if self.proj is None:
                if dx is not None:
                    gout += dx
                    dx = gout
            else:
                if dx is not None:
                    dx = dx.copy()
                dyp, dgammap, dbetap = bn_back(gout, xhatp, self.proj_bn, invp)
                dwp, dxp = _conv_backward(xc, self.proj.weight.data, self.proj.stride, dyp, x.requires_grad)
                if dx is not None:
                    dx += dxp
                grads += [dwp, dgammap, dbetap]
            return (None if dx is None else dx.transpose(1, 0, 2, 3), *grads)

        # parameters() lists each conv's weight, then its BN's γ and β: the order of the gradients
        return apply_op(out.transpose(1, 0, 2, 3), (x, *self.parameters().values()), pull)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, layer in (("conv1", self.conv1), ("bn1", self.bn1), ("conv2", self.conv2), ("bn2", self.bn2)):
            for k, v in layer.parameters().items():
                out[f"{name}.{k}"] = v
        if self.proj is not None:
            for k, v in self.proj.parameters().items():
                out[f"proj.{k}"] = v
            for k, v in self.proj_bn.parameters().items():
                out[f"proj_bn.{k}"] = v
        return out

    def norm_states(self) -> dict[str, BatchNormState]:
        out = {"bn1": self.bn1.state, "bn2": self.bn2.state}
        if self.proj_bn is not None:
            out["proj_bn"] = self.proj_bn.state
        return out


class Backbone:
    """Residual feature extractor producing a 1/8-resolution volume."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        self.config = config
        self.stem_conv = Conv2d(rng, 1, config.stage_channels[0], (3, 3))
        self.stem_bn = BatchNorm2d(config.stage_channels[0])
        self.stages: list[list[BasicBlock]] = []
        in_ch = config.stage_channels[0]
        for stage, (blocks, out_ch, stride) in enumerate(
            zip(config.stage_blocks, config.stage_channels, STAGE_STRIDES)
        ):
            stage_blocks = []
            for b in range(blocks):
                stage_blocks.append(BasicBlock(rng, in_ch, out_ch, stride if b == 0 else 1))
                in_ch = out_ch
            self.stages.append(stage_blocks)

    def forward(self, image: Tensor, training: bool) -> Tensor:
        """Grayscale image (N, 1, H, W), H and W multiples of 8, H >= 32 -> (N, D, H/8, W/8)."""
        if image.ndim != 4:
            raise ShapeError(f"backbone expects (N, 1, H, W), got {image.shape}")
        n, c, h, w = image.shape
        if c != 1:
            raise ShapeError(f"backbone expects 1 grayscale channel, got {c}")
        if h % 8 != 0 or w % 8 != 0:
            raise ShapeError(f"input spatial dims must be multiples of 8, got {h}x{w}")
        if h < 32:
            raise ShapeError(f"input height must be at least 32, got {h}")
        # one path in every mode: folding BN into the stem saves under 1% of a paper-scale eval forward
        x = relu(self.stem_bn.forward(self.stem_conv.forward(image), training))
        for stage_blocks in self.stages:
            for block in stage_blocks:
                x = block.forward(x, training)
        return x

    def parameters(self) -> dict[str, Tensor]:
        out = {"stem.conv.w": self.stem_conv.weight}
        for k, v in self.stem_bn.parameters().items():
            out[f"stem.bn.{k}"] = v
        for s, stage_blocks in enumerate(self.stages):
            for b, block in enumerate(stage_blocks):
                for k, v in block.parameters().items():
                    out[f"stage{s}.block{b}.{k}"] = v
        return out

    def norm_states(self) -> dict[str, BatchNormState]:
        out = {"stem.bn": self.stem_bn.state}
        for s, stage_blocks in enumerate(self.stages):
            for b, block in enumerate(stage_blocks):
                for k, v in block.norm_states().items():
                    out[f"stage{s}.block{b}.{k}"] = v
        return out


class AttentionModule:
    """Single-channel sigmoid mask from a 3-high, 1-wide same convolution.

    The kernel spans 3 in height and 1 in width, so the mask at a width
    position depends only on that column of the feature volume.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv_w = _he_conv(rng, 1, channels, 3, 1)
        self.conv_b = parameter(np.zeros(1))

    def forward(self, features: Tensor) -> Tensor:
        return sigmoid(conv2d(features, self.conv_w, self.conv_b, stride=(1, 1)))

    def parameters(self) -> dict[str, Tensor]:
        return {"conv.w": self.conv_w, "conv.b": self.conv_b}


def map_to_sequence(features: Tensor) -> Tensor:
    """Convert (N, D, H, W) features to a (W, N, H*D) sequence of column vectors.

    Column w of the volume maps bijectively to sequence vector w; components
    are ordered height-major, then channel.
    """
    if features.ndim != 4:
        raise ShapeError(f"map_to_sequence expects (N, D, H, W), got {features.shape}")
    n, d, h, w = features.shape
    cols = transpose(features, (3, 0, 2, 1))  # (W, N, H, D)
    return reshape(cols, (w, n, h * d))
