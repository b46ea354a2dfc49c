"""DNN workload definitions used throughout the paper's evaluation.

The paper evaluates AlexNet, VGG, and ResNet-family models (Fig. 5), with a
per-layer breakdown for ResNet-18 (Table I).  This package defines layer
shapes and full-network builders; a layer's N# (maximum parallel
partitions) is :meth:`repro.arch.systolic.SystolicArrayConfig.k_tiles`.
"""

from repro.workloads.layers import (
    ConvLayer,
    FCLayer,
    Layer,
    LayerKind,
    PoolLayer,
    shape_key,
)
from repro.workloads.models import (
    Network,
    alexnet,
    available_networks,
    build_network,
    resnet18,
    resnet34,
    resnet50,
    resnet152,
    vgg16,
)

__all__ = [
    "Layer",
    "LayerKind",
    "ConvLayer",
    "FCLayer",
    "PoolLayer",
    "shape_key",
    "Network",
    "alexnet",
    "vgg16",
    "resnet18",
    "resnet34",
    "resnet50",
    "resnet152",
    "build_network",
    "available_networks",
]
