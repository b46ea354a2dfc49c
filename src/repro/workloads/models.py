"""Full-network builders for the models the paper evaluates (Fig. 5).

Networks are flat layer lists with Table-I style names (``"L2.0 CONV1"``,
``"L3.0 DS"``) so per-layer results can be compared against the paper row by
row.  Parameter counts reproduce the well-known totals the paper quotes
(ResNet-18 ~12 M, ResNet-152 ~60 M), which is what makes the Fig. 9 capacity
sweep meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import require
from repro.workloads.layers import ConvLayer, FCLayer, Layer, PoolLayer


@dataclass(frozen=True)
class Network:
    """An ordered DNN workload.

    Attributes:
        name: Network name, e.g. ``"resnet18"``.
        layers: Layers in execution order.
    """

    name: str
    layers: tuple[Layer, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require(len(self.layers) > 0, "a network needs at least one layer")
        names = [layer.name for layer in self.layers]
        require(len(names) == len(set(names)), f"{self.name}: duplicate layer names")

    @property
    def total_macs(self) -> int:
        """Total MACs (the paper's F0) for one inference."""
        return sum(layer.macs for layer in self.layers)

    @cached_property
    def total_weights(self) -> int:
        """Total parameter count (summed once: a network is immutable and
        shared per workload)."""
        return sum(layer.weights for layer in self.layers)

    def weight_bits(self, precision_bits: int = 8) -> int:
        """Total weight storage in bits."""
        return self.total_weights * precision_bits

    def weighted_layers(self) -> tuple[Layer, ...]:
        """Layers that carry weights (conv + fc)."""
        return tuple(layer for layer in self.layers if layer.weights > 0)

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no layer named {name!r} in {self.name!r}")


def alexnet() -> Network:
    """AlexNet (ImageNet, single-tower shapes, groups folded in)."""
    return Network(
        name="alexnet",
        layers=(
            ConvLayer("CONV1", in_channels=3, out_channels=96, kernel=11, stride=4,
                      in_size=227),
            PoolLayer("POOL1", channels=96, kernel=3, stride=2, in_size=55),
            ConvLayer("CONV2", in_channels=96, out_channels=256, kernel=5, stride=1,
                      in_size=27, padding=2),
            PoolLayer("POOL2", channels=256, kernel=3, stride=2, in_size=27),
            ConvLayer("CONV3", in_channels=256, out_channels=384, kernel=3, stride=1,
                      in_size=13, padding=1),
            ConvLayer("CONV4", in_channels=384, out_channels=384, kernel=3, stride=1,
                      in_size=13, padding=1),
            ConvLayer("CONV5", in_channels=384, out_channels=256, kernel=3, stride=1,
                      in_size=13, padding=1),
            PoolLayer("POOL5", channels=256, kernel=3, stride=2, in_size=13),
            FCLayer("FC6", in_features=9216, out_features=4096),
            FCLayer("FC7", in_features=4096, out_features=4096),
            FCLayer("FC8", in_features=4096, out_features=1000),
        ),
    )


def vgg16(compact_classifier: bool = False) -> Network:
    """VGG-16 (ImageNet).

    ``compact_classifier`` replaces the 124 M-parameter FC head with a
    pooled 512-wide head (conv trunk unchanged), bringing the model to
    ~28 M parameters so it fits the 64 MB on-chip RRAM of the case-study
    chip.  The full model (~138 M parameters) cannot be stored on-chip at
    8-bit precision; the compact variant is the substitution we evaluate in
    the Fig. 5 experiment (see EXPERIMENTS.md).
    """
    layers: list[Layer] = []
    size = 224
    channels = 3
    block_widths = ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3))
    for block_index, (width, depth) in enumerate(block_widths, start=1):
        for conv_index in range(1, depth + 1):
            layers.append(ConvLayer(
                name=f"CONV{block_index}_{conv_index}",
                in_channels=channels, out_channels=width, kernel=3, stride=1,
                in_size=size, padding=1,
            ))
            channels = width
        layers.append(PoolLayer(f"POOL{block_index}", channels=channels, kernel=2,
                                stride=2, in_size=size))
        size //= 2
    if compact_classifier:
        layers.append(PoolLayer("GAP", channels=512, kernel=7, stride=7, in_size=7))
        layers.append(FCLayer("FC6", in_features=512, out_features=512))
        layers.append(FCLayer("FC8", in_features=512, out_features=1000))
        return Network(name="vgg16c", layers=tuple(layers))
    layers.append(FCLayer("FC6", in_features=512 * 7 * 7, out_features=4096))
    layers.append(FCLayer("FC7", in_features=4096, out_features=4096))
    layers.append(FCLayer("FC8", in_features=4096, out_features=1000))
    return Network(name="vgg16", layers=tuple(layers))


_RESNET_STAGE_SIZES = (56, 28, 14, 7)
_RESNET_STAGE_WIDTHS = (64, 128, 256, 512)


def _resnet_basic(name: str, blocks_per_stage: tuple[int, int, int, int]) -> Network:
    """ResNet with basic (two 3x3 conv) blocks — ResNet-18/34."""
    layers: list[Layer] = [
        ConvLayer("CONV1", in_channels=3, out_channels=64, kernel=7, stride=2,
                  in_size=224, padding=3),
        PoolLayer("POOL", channels=64, kernel=3, stride=2, in_size=112, padding=1),
    ]
    in_channels = 64
    for stage, (width, blocks, size) in enumerate(
            zip(_RESNET_STAGE_WIDTHS, blocks_per_stage, _RESNET_STAGE_SIZES), start=1):
        for block in range(blocks):
            first = block == 0
            stride = 2 if (first and stage > 1) else 1
            in_size = size * stride
            if first and stage > 1:
                layers.append(ConvLayer(
                    name=f"L{stage}.0 DS",
                    in_channels=in_channels, out_channels=width, kernel=1,
                    stride=2, in_size=in_size,
                ))
            layers.append(ConvLayer(
                name=f"L{stage}.{block} CONV1",
                in_channels=in_channels, out_channels=width, kernel=3,
                stride=stride, in_size=in_size, padding=1,
            ))
            layers.append(ConvLayer(
                name=f"L{stage}.{block} CONV2",
                in_channels=width, out_channels=width, kernel=3, stride=1,
                in_size=size, padding=1,
            ))
            in_channels = width
    layers.append(FCLayer("FC", in_features=512, out_features=1000))
    return Network(name=name, layers=tuple(layers))


def _resnet_bottleneck(name: str, blocks_per_stage: tuple[int, int, int, int]) -> Network:
    """ResNet with bottleneck (1x1 / 3x3 / 1x1) blocks — ResNet-50/152."""
    layers: list[Layer] = [
        ConvLayer("CONV1", in_channels=3, out_channels=64, kernel=7, stride=2,
                  in_size=224, padding=3),
        PoolLayer("POOL", channels=64, kernel=3, stride=2, in_size=112, padding=1),
    ]
    expansion = 4
    in_channels = 64
    for stage, (width, blocks, size) in enumerate(
            zip(_RESNET_STAGE_WIDTHS, blocks_per_stage, _RESNET_STAGE_SIZES), start=1):
        out_channels = width * expansion
        for block in range(blocks):
            first = block == 0
            stride = 2 if (first and stage > 1) else 1
            in_size = size * stride
            if first:
                layers.append(ConvLayer(
                    name=f"L{stage}.0 DS",
                    in_channels=in_channels, out_channels=out_channels, kernel=1,
                    stride=stride, in_size=in_size,
                ))
            layers.append(ConvLayer(
                name=f"L{stage}.{block} CONV1",
                in_channels=in_channels, out_channels=width, kernel=1,
                stride=1, in_size=in_size,
            ))
            layers.append(ConvLayer(
                name=f"L{stage}.{block} CONV2",
                in_channels=width, out_channels=width, kernel=3, stride=stride,
                in_size=in_size, padding=1,
            ))
            layers.append(ConvLayer(
                name=f"L{stage}.{block} CONV3",
                in_channels=width, out_channels=out_channels, kernel=1, stride=1,
                in_size=size,
            ))
            in_channels = out_channels
    layers.append(FCLayer("FC", in_features=512 * expansion, out_features=1000))
    return Network(name=name, layers=tuple(layers))


def resnet18() -> Network:
    """ResNet-18 (~11.7 M parameters; the paper's Table I / Fig. 9 workload)."""
    return _resnet_basic("resnet18", (2, 2, 2, 2))


def resnet34() -> Network:
    """ResNet-34 (~21.8 M parameters)."""
    return _resnet_basic("resnet34", (3, 4, 6, 3))


def resnet50() -> Network:
    """ResNet-50 (~25.6 M parameters)."""
    return _resnet_bottleneck("resnet50", (3, 4, 6, 3))


def resnet152() -> Network:
    """ResNet-152 (~60 M parameters; the paper's 64 MB sizing workload)."""
    return _resnet_bottleneck("resnet152", (3, 8, 36, 3))


def vgg16_compact() -> Network:
    """VGG-16 with the compact classifier head (fits 64 MB RRAM)."""
    return vgg16(compact_classifier=True)


def mobilenet_v1() -> Network:
    """MobileNetV1 (ImageNet, ~4.2 M parameters).

    Thirteen depthwise-separable blocks: a depthwise 3x3 (groups = C)
    followed by a pointwise 1x1.  Depthwise layers occupy one array row
    and one column per group on a weight-stationary systolic array — the
    known-hostile workload class for this architecture, included to probe
    the M3D benefit where the substrate is least favourable.
    """
    layers: list[Layer] = [
        ConvLayer("CONV1", in_channels=3, out_channels=32, kernel=3,
                  stride=2, in_size=224, padding=1),
    ]
    # (input channels, output channels, stride of the depthwise stage)
    blocks = ((32, 64, 1), (64, 128, 2), (128, 128, 1), (128, 256, 2),
              (256, 256, 1), (256, 512, 2), (512, 512, 1), (512, 512, 1),
              (512, 512, 1), (512, 512, 1), (512, 512, 1), (512, 1024, 2),
              (1024, 1024, 1))
    size = 112
    for index, (in_ch, out_ch, stride) in enumerate(blocks, start=1):
        layers.append(ConvLayer(
            name=f"B{index}.DW", in_channels=in_ch, out_channels=in_ch,
            kernel=3, stride=stride, in_size=size, padding=1,
            groups=in_ch))
        size = size // stride
        layers.append(ConvLayer(
            name=f"B{index}.PW", in_channels=in_ch, out_channels=out_ch,
            kernel=1, stride=1, in_size=size))
    layers.append(PoolLayer("GAP", channels=1024, kernel=7, stride=7,
                            in_size=7))
    layers.append(FCLayer("FC", in_features=1024, out_features=1000))
    return Network(name="mobilenet_v1", layers=tuple(layers))


_BUILDERS = {
    "alexnet": alexnet,
    "vgg16": vgg16,
    "vgg16c": vgg16_compact,
    "mobilenet_v1": mobilenet_v1,
    "resnet18": resnet18,
    "resnet34": resnet34,
    "resnet50": resnet50,
    "resnet152": resnet152,
}


def available_networks() -> tuple[str, ...]:
    """Names accepted by :func:`build_network`."""
    return tuple(sorted(_BUILDERS))


def build_network(name: str) -> Network:
    """Build a network by name (see :func:`available_networks`)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown network {name!r}; choose from {available_networks()}")
    return _BUILDERS[name]()
