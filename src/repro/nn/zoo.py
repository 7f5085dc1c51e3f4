"""Full-size layer profiles of ResNet-50 and VGG-16.

The timing experiments (Fig 2/3/4) need the *per-layer* parameter and
FLOP profile of the paper's real models — not trainable weights. This
module constructs those profiles layer by layer from the published
architectures:

* ResNet-50 (He et al., 2016): 7×7 stem, bottleneck stages
  [3, 4, 6, 3], 1000-way classifier — ≈25.6 M parameters, ≈4.1 GFLOPs
  forward per 224×224 image. (The paper quotes "23 M", the common
  figure excluding batch-norm and classifier bias terms; both are in
  range here and a test pins the exact count.)
* VGG-16 (configuration D): 13 conv layers + 3 FC layers — ≈138.4 M
  parameters, with fc6 alone holding ≈74 % of them. That skew is the
  root cause of the paper's layer-wise-sharding bottleneck finding
  (§VI-C), so it must be preserved exactly.

Profiles expose per-layer parameter sizes (for sharding), FLOPs (for
the compute-time model), and serialized byte sizes (for the
communication-time model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.nn.module import Module

__all__ = [
    "LayerProfile",
    "ModelProfile",
    "resnet50_profile",
    "vgg16_profile",
    "mini_profile_from_model",
]


@dataclass(frozen=True)
class LayerProfile:
    """Size/cost profile of one parameterised layer.

    ``params`` counts trainable scalars, ``flops`` is the forward-pass
    floating-point operation count per input image (multiply-adds
    counted as 2 ops). Layers with ``params == 0`` (pooling, ReLU) are
    omitted from profiles — they carry no communication and negligible
    compute relative to conv/fc layers.
    """

    name: str
    kind: str  # "conv" | "fc" | "bn"
    params: int
    flops: int

    def __post_init__(self) -> None:
        if self.params < 0 or self.flops < 0:
            raise ValueError("params and flops must be non-negative")


@dataclass(frozen=True)
class ModelProfile:
    """Ordered per-layer profile of a model."""

    name: str
    layers: tuple[LayerProfile, ...]
    input_hw: int = 224
    bytes_per_param: int = 4  # float32 on the wire, as in TF 1.x

    # Cached: profiles are frozen and shared between runs (interned
    # with their plans), and every build and prediction reads these.
    @cached_property
    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @cached_property
    def total_flops(self) -> int:
        """Forward FLOPs per image."""
        return sum(layer.flops for layer in self.layers)

    @property
    def train_flops(self) -> int:
        """Forward + backward FLOPs per image (backward ≈ 2× forward)."""
        return 3 * self.total_flops

    @property
    def total_bytes(self) -> int:
        return self.total_params * self.bytes_per_param

    def layer_param_sizes(self) -> list[int]:
        return [layer.params for layer in self.layers]

    def layer_byte_sizes(self) -> list[int]:
        return [layer.params * self.bytes_per_param for layer in self.layers]

    def largest_layer_fraction(self) -> float:
        """Fraction of all parameters held by the single largest layer
        (≈0.74 for VGG-16 — drives the sharding-skew finding)."""
        total = self.total_params
        if total == 0:
            return 0.0
        return max(layer.params for layer in self.layers) / total


def _conv(
    name: str,
    in_ch: int,
    out_ch: int,
    kernel: int,
    hw_out: int,
    *,
    bias: bool = False,
) -> LayerProfile:
    params = kernel * kernel * in_ch * out_ch + (out_ch if bias else 0)
    flops = 2 * kernel * kernel * in_ch * out_ch * hw_out * hw_out
    return LayerProfile(name=name, kind="conv", params=params, flops=flops)


def _bn(name: str, channels: int, hw: int) -> LayerProfile:
    # 2 trainable scalars per channel; ~4 ops per activation.
    return LayerProfile(name=name, kind="bn", params=2 * channels, flops=4 * channels * hw * hw)


def _fc(name: str, in_features: int, out_features: int) -> LayerProfile:
    return LayerProfile(
        name=name,
        kind="fc",
        params=in_features * out_features + out_features,
        flops=2 * in_features * out_features,
    )


def resnet50_profile(*, num_classes: int = 1000, input_hw: int = 224) -> ModelProfile:
    """Layer profile of ResNet-50 as evaluated in the paper."""
    layers: list[LayerProfile] = []
    hw = input_hw // 2  # stem conv, stride 2
    layers.append(_conv("conv1", 3, 64, 7, hw))
    layers.append(_bn("conv1.bn", 64, hw))
    hw //= 2  # 3x3 max pool, stride 2

    stage_blocks = (3, 4, 6, 3)
    stage_width = (64, 128, 256, 512)
    in_ch = 64
    for stage_idx, (blocks, width) in enumerate(zip(stage_blocks, stage_width)):
        out_ch = width * 4
        for block_idx in range(blocks):
            stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
            if stride == 2:
                hw //= 2
            prefix = f"conv{stage_idx + 2}_{block_idx + 1}"
            layers.append(_conv(f"{prefix}.a", in_ch, width, 1, hw))
            layers.append(_bn(f"{prefix}.a.bn", width, hw))
            layers.append(_conv(f"{prefix}.b", width, width, 3, hw))
            layers.append(_bn(f"{prefix}.b.bn", width, hw))
            layers.append(_conv(f"{prefix}.c", width, out_ch, 1, hw))
            layers.append(_bn(f"{prefix}.c.bn", out_ch, hw))
            if block_idx == 0:
                layers.append(_conv(f"{prefix}.proj", in_ch, out_ch, 1, hw))
                layers.append(_bn(f"{prefix}.proj.bn", out_ch, hw))
            in_ch = out_ch
    layers.append(_fc("fc", in_ch, num_classes))
    return ModelProfile(name="resnet50", layers=tuple(layers), input_hw=input_hw)


def vgg16_profile(*, num_classes: int = 1000, input_hw: int = 224) -> ModelProfile:
    """Layer profile of VGG-16 (configuration D) as evaluated in the paper."""
    conv_plan = [  # (blocks, out_channels)
        (2, 64),
        (2, 128),
        (3, 256),
        (3, 512),
        (3, 512),
    ]
    layers: list[LayerProfile] = []
    hw = input_hw
    in_ch = 3
    for stage_idx, (blocks, out_ch) in enumerate(conv_plan):
        for block_idx in range(blocks):
            name = f"conv{stage_idx + 1}_{block_idx + 1}"
            layers.append(_conv(name, in_ch, out_ch, 3, hw, bias=True))
            in_ch = out_ch
        hw //= 2  # 2x2 max pool after each stage
    flat = in_ch * hw * hw  # 512 * 7 * 7 = 25088 at 224x224
    layers.append(_fc("fc6", flat, 4096))
    layers.append(_fc("fc7", 4096, 4096))
    layers.append(_fc("fc8", 4096, num_classes))
    return ModelProfile(name="vgg16", layers=tuple(layers), input_hw=input_hw)


def mini_profile_from_model(model: Module, name: str = "mini") -> ModelProfile:
    """Derive a :class:`ModelProfile` from a runnable numpy model.

    FLOPs are approximated as ``2 × params`` per layer (dense-layer
    identity); the full-mode experiments only need relative layer
    sizes for sharding, not precise FLOPs (compute time is measured in
    virtual units there).
    """
    layers = tuple(
        LayerProfile(name=param_name, kind="fc", params=param.size, flops=2 * param.size)
        for param_name, param in model.named_parameters()
    )
    return ModelProfile(name=name, layers=layers, input_hw=0)
