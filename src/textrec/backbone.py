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
    Module,
    Tensor,
    _conv_backward,
    apply_op,
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


class Conv2d(Module):
    """Bias-free convolution layer (normalization supplies the shift)."""

    def __init__(self, rng, in_ch: int, out_ch: int, kernel: tuple[int, int], stride=(1, 1)):
        self.weight = _he_conv(rng, out_ch, in_ch, *kernel)
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride)


class BatchNorm2d(Module):
    """Per-channel batch normalization with affine γ, β (Ioffe & Szegedy, arXiv:1502.03167).

    Every BN formula lives here, over C-contiguous channel-major (C, N, H, W)
    arrays: the stem runs them through ``forward``, ``BasicBlock`` directly.
    Training normalizes by the batch statistics over (N, H, W) and moves the
    running estimates toward them. Eval applies the running statistics as
    x̂ = y·inv + shift (``frozen``), the arithmetic of the ``conv2d_cnhw``
    epilogue through which the block applies them, so every eval x̂ agrees.
    """

    def __init__(self, channels: int):
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.state = BatchNormState(channels)

    def frozen(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval's per-channel ``(inv, shift)``, so that x̂ = y·inv + shift."""
        st = self.state
        inv = 1.0 / np.sqrt(st.running_var + st.eps)
        return inv, -st.running_mean * inv

    def normalize(self, y: np.ndarray, training: bool) -> np.ndarray:
        """Overwrite ``y`` with x̂ and return inv = 1/√(σ² + ε) per channel."""
        y2 = y.reshape(y.shape[0], -1)
        if not training:
            inv, shift = self.frozen()
            y2 *= inv[:, None]
            y2 += shift[:, None]
            return inv
        st = self.state
        m = y2.mean(axis=1)
        y2 -= m[:, None]
        v = np.einsum("ij,ij->i", y2, y2) / y2.shape[1]
        st.running_mean += st.momentum * (m - st.running_mean)
        st.running_var += st.momentum * (v - st.running_var)
        inv = 1.0 / np.sqrt(v + st.eps)
        y2 *= inv[:, None]
        return inv

    def affine(self, xhat: np.ndarray, copy: bool) -> np.ndarray:
        """γ·x̂ + β, written over ``xhat`` unless ``copy``."""
        y = np.multiply(xhat, self.gamma.data[:, None, None, None], out=np.empty_like(xhat) if copy else xhat)
        y += self.beta.data[:, None, None, None]
        return y

    def backward(
        self, g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, training: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dX (a fresh array shaped like ``xhat``), dγ and dβ of γ·x̂ + β for output gradient ``g``."""
        c = xhat.shape[0]
        g2, xhat2 = g.reshape(c, -1), xhat.reshape(c, -1)
        dgamma = np.einsum("ij,ij->i", g2, xhat2)
        dbeta = g2.sum(axis=1)
        gain = (self.gamma.data * inv)[:, None]
        if not training:
            return (g2 * gain).reshape(xhat.shape), dgamma, dbeta
        # the batch sums of dxhat = γ·g are γ·dβ and γ·dγ, so γ factors out:
        # dx = γ·inv·(g - (dβ + xhat·dγ) / count)
        count = g2.shape[1]
        dx = xhat2 * (dgamma / count)[:, None]
        dx += (dbeta / count)[:, None]
        np.subtract(g2, dx, out=dx)
        dx *= gain
        return dx.reshape(xhat.shape), dgamma, dbeta

    def forward(self, x: Tensor, training: bool) -> Tensor:
        """The taped op over NCHW ``x``; the result is the NCHW view of a channel-major array."""
        if x.ndim != 4 or x.shape[1] != self.gamma.shape[0]:
            raise ShapeError(f"BatchNorm2d({self.gamma.shape[0]}) expects NCHW input, got {x.shape}")
        inputs = (x, self.gamma, self.beta)
        xhat = x.data.transpose(1, 0, 2, 3).copy()
        inv = self.normalize(xhat, training)
        out = self.affine(xhat, copy=tracking(inputs))

        def pull(g):
            dx, dgamma, dbeta = self.backward(g.transpose(1, 0, 2, 3), xhat, inv, training)
            return dx.transpose(1, 0, 2, 3), dgamma, dbeta

        return apply_op(out.transpose(1, 0, 2, 3), inputs, pull)


class BasicBlock(Module):
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
        """The block as one op over the channel-major view of ``x``, in every mode.

        Each conv is ``conv2d_cnhw``; ``BatchNorm2d`` makes its output x̂ in
        place, in eval through the conv's epilogue. γ, β, the shortcut add and
        the ReLUs then run in place on the inner activation and the output, so
        traced and untraced eval run the same arithmetic and agree bitwise.

        A recorded op keeps each BN's x̂, the inner ReLU output and the block
        output, 4× the output (5× with a projection); the input is alive anyway
        (the memory argument of In-Place ABN, Rota Bulò et al.,
        arXiv:1712.02616). An untracked one overwrites each x̂ with γ·x̂ + β.

        The backward is hand-written: output ReLU mask → BN2 → conv2 → inner
        ReLU mask → BN1 → conv1, then the identity shortcut, or the
        projection BN and 1×1 conv. Every gradient is handed over as a
        channel-major (K, N·Ho·Wo) matrix, and each conv's dX view of the
        ``col2im`` scratch is consumed before the next conv backward runs.
        """
        xc = x.data.transpose(1, 0, 2, 3)
        # parameters() follows __init__'s assignment order, each conv's weight then its BN's γ and β:
        # the order of the gradients that pull returns
        inputs = (x, *self.parameters().values())
        # γ·x̂ + β overwrites x̂ when nothing keeps it: a copy per BN raises an untracked block's
        # peak memory from about 3.1× its output to 4.1× (6.1× with a projection) and made a
        # paper-scale eval forward about 3% slower in interleaved runs
        keep = tracking(inputs)

        def conv_norm(src: np.ndarray, conv: Conv2d, bn: BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
            if training:
                xhat = conv2d_cnhw(src, conv.weight.data, conv.stride)
                return xhat, bn.normalize(xhat, True)
            inv, shift = bn.frozen()
            return conv2d_cnhw(src, conv.weight.data, conv.stride, inv, shift), inv

        xhat1, inv1 = conv_norm(xc, self.conv1, self.bn1)
        inner = self.bn1.affine(xhat1, keep)
        np.maximum(inner, 0.0, out=inner)
        xhat2, inv2 = conv_norm(inner, self.conv2, self.bn2)
        out = self.bn2.affine(xhat2, keep)
        if self.proj is None:
            out += xc
        else:
            xhatp, invp = conv_norm(xc, self.proj, self.proj_bn)
            out += self.proj_bn.affine(xhatp, keep)
        np.maximum(out, 0.0, out=out)

        def pull(g):
            gout = np.empty_like(out)
            np.multiply(g.transpose(1, 0, 2, 3), out > 0.0, out=gout)
            dy2, dgamma2, dbeta2 = self.bn2.backward(gout, xhat2, inv2, training)
            dw2, dinner = _conv_backward(inner, self.conv2.weight.data, self.conv2.stride, dy2, True)
            dy1 = np.multiply(dinner, inner > 0.0, out=np.empty_like(inner))
            dy1, dgamma1, dbeta1 = self.bn1.backward(dy1, xhat1, inv1, training)
            dw1, dx = _conv_backward(xc, self.conv1.weight.data, self.conv1.stride, dy1, x.requires_grad)
            grads = [dw1, dgamma1, dbeta1, dw2, dgamma2, dbeta2]
            if self.proj is None:
                if dx is not None:
                    gout += dx
                    dx = gout
            else:
                if dx is not None:
                    dx = dx.copy()
                dyp, dgammap, dbetap = self.proj_bn.backward(gout, xhatp, invp, training)
                dwp, dxp = _conv_backward(xc, self.proj.weight.data, self.proj.stride, dyp, x.requires_grad)
                if dx is not None:
                    dx += dxp
                grads += [dwp, dgammap, dbetap]
            return (None if dx is None else dx.transpose(1, 0, 2, 3), *grads)

        return apply_op(out.transpose(1, 0, 2, 3), inputs, pull)


class Backbone(Module):
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
        # the stem and every block run one path in every mode, so traced and untraced eval agree
        # bitwise; folding BN into the stem would save under 1% of a paper-scale eval forward
        x = relu(self.stem_bn.forward(self.stem_conv.forward(image), training))
        for stage_blocks in self.stages:
            for block in stage_blocks:
                x = block.forward(x, training)
        return x


class AttentionModule(Module):
    """Single-channel sigmoid mask from a 3-high, 1-wide same convolution.

    The kernel spans 3 in height and 1 in width, so the mask at a width
    position depends only on that column of the feature volume.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv_w = _he_conv(rng, 1, channels, 3, 1)
        self.conv_b = parameter(np.zeros(1))

    def forward(self, features: Tensor) -> Tensor:
        return sigmoid(conv2d(features, self.conv_w, self.conv_b, stride=(1, 1)))


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
