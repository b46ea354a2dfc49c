"""DNN layer shape descriptions.

Layers carry exactly the quantities the performance models need: MAC counts
(the paper's F0), weight/activation footprints (the paper's D0), and the
spatial dimensions that drive systolic-array tiling (K, C, OX, OY in the
paper's Table II notation: K = output channels, C = input channels,
OX/OY = output width/height).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import require


class LayerKind(enum.Enum):
    """Kind of a DNN layer."""

    CONV = "conv"
    FC = "fc"
    POOL = "pool"


@dataclass(frozen=True)
class ConvLayer:
    """A 2-D convolution layer.

    Attributes:
        name: Layer name (paper Table I naming, e.g. ``"L2.0 CONV1"``).
        in_channels: Input channels C.
        out_channels: Output channels K.
        kernel: Square kernel size R = S.
        stride: Stride.
        in_size: Square input feature-map size IX = IY.
        padding: Zero padding on each side.
        groups: Channel groups (1 = dense conv; groups == C = depthwise).
    """

    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    in_size: int
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        require(self.in_channels >= 1, "in_channels must be >= 1")
        require(self.out_channels >= 1, "out_channels must be >= 1")
        require(self.kernel >= 1, "kernel must be >= 1")
        require(self.stride >= 1, "stride must be >= 1")
        require(self.in_size >= self.kernel - self.padding,
                f"{self.name}: input smaller than kernel")
        require(self.padding >= 0, "padding must be non-negative")
        require(self.groups >= 1, "groups must be >= 1")
        require(self.in_channels % self.groups == 0,
                f"{self.name}: groups must divide input channels")
        require(self.out_channels % self.groups == 0,
                f"{self.name}: groups must divide output channels")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.CONV

    @property
    def channel_groups(self) -> int:
        """Channel group count (1 for dense layers)."""
        return self.groups

    @property
    def group_in_channels(self) -> int:
        """Input channels per group."""
        return self.in_channels // self.groups

    @property
    def out_size(self) -> int:
        """Output feature-map size OX = OY."""
        return (self.in_size + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def weights(self) -> int:
        """Weight (parameter) count."""
        return (self.out_channels * self.group_in_channels
                * self.kernel * self.kernel)

    @property
    def macs(self) -> int:
        """Multiply-accumulate count F0 for one inference."""
        return self.weights * self.out_size * self.out_size

    @property
    def input_elements(self) -> int:
        """Input feature-map element count."""
        return self.in_channels * self.in_size * self.in_size

    @property
    def output_elements(self) -> int:
        """Output feature-map element count."""
        return self.out_channels * self.out_size * self.out_size


@dataclass(frozen=True)
class FCLayer:
    """A fully connected layer.

    Attributes:
        name: Layer name.
        in_features: Input feature count.
        out_features: Output feature count.
    """

    name: str
    in_features: int
    out_features: int

    def __post_init__(self) -> None:
        require(self.in_features >= 1, "in_features must be >= 1")
        require(self.out_features >= 1, "out_features must be >= 1")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.FC

    @property
    def channel_groups(self) -> int:
        """FC layers are dense (one group)."""
        return 1

    @property
    def in_channels(self) -> int:
        """FC viewed as 1x1 conv: C = in_features."""
        return self.in_features

    @property
    def out_channels(self) -> int:
        """FC viewed as 1x1 conv: K = out_features."""
        return self.out_features

    @property
    def kernel(self) -> int:
        return 1

    @property
    def stride(self) -> int:
        return 1

    @property
    def out_size(self) -> int:
        """FC output has a single spatial position."""
        return 1

    @property
    def weights(self) -> int:
        return self.in_features * self.out_features

    @property
    def macs(self) -> int:
        return self.weights

    @property
    def input_elements(self) -> int:
        return self.in_features

    @property
    def output_elements(self) -> int:
        return self.out_features


@dataclass(frozen=True)
class PoolLayer:
    """A pooling layer (no weights; contributes data movement only).

    Attributes:
        name: Layer name.
        channels: Channel count.
        kernel: Pooling window size.
        stride: Stride.
        in_size: Square input feature-map size.
        padding: Zero padding on each side.
    """

    name: str
    channels: int
    kernel: int
    stride: int
    in_size: int
    padding: int = 0

    def __post_init__(self) -> None:
        require(self.channels >= 1, "channels must be >= 1")
        require(self.kernel >= 1, "kernel must be >= 1")
        require(self.stride >= 1, "stride must be >= 1")
        require(self.padding >= 0, "padding must be non-negative")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.POOL

    @property
    def channel_groups(self) -> int:
        """Pooling operates per channel; grouping is irrelevant."""
        return 1

    @property
    def in_channels(self) -> int:
        return self.channels

    @property
    def out_channels(self) -> int:
        return self.channels

    @property
    def out_size(self) -> int:
        return (self.in_size + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def weights(self) -> int:
        return 0

    @property
    def macs(self) -> int:
        """Pooling comparisons/adds counted as ops."""
        return self.channels * self.out_size * self.out_size * self.kernel * self.kernel

    @property
    def input_elements(self) -> int:
        return self.channels * self.in_size * self.in_size

    @property
    def output_elements(self) -> int:
        return self.channels * self.out_size * self.out_size


#: Union type of all layers.
Layer = ConvLayer | FCLayer | PoolLayer


def shape_key(layer: Layer) -> tuple:
    """Hashable fingerprint of a layer's *shape*, excluding its name.

    Two layers with equal shape keys are indistinguishable to every
    performance/energy model in this repository (all derived quantities —
    MACs, weights, element counts, loop nests — are functions of these
    fields), so per-layer results memoize on this key: ResNet's repeated
    residual-block shapes evaluate once per design fingerprint.
    """
    if isinstance(layer, ConvLayer):
        return ("conv", layer.in_channels, layer.out_channels, layer.kernel,
                layer.stride, layer.in_size, layer.padding, layer.groups)
    if isinstance(layer, FCLayer):
        return ("fc", layer.in_features, layer.out_features)
    if isinstance(layer, PoolLayer):
        return ("pool", layer.channels, layer.kernel, layer.stride,
                layer.in_size, layer.padding)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


def weight_bits(layer: Layer, precision_bits: int = 8) -> int:
    """Weight storage of ``layer`` in bits at the given precision."""
    require(precision_bits >= 1, "precision must be >= 1 bit")
    return layer.weights * precision_bits


def arithmetic_intensity(layer: Layer, precision_bits: int = 8) -> float:
    """Operations per bit of weight traffic — the paper's Obs. 5 knob."""
    bits = weight_bits(layer, precision_bits)
    if bits == 0:
        return math.inf
    return layer.macs / bits
