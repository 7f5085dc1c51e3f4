"""Runnable model architectures.

``MiniResNet`` and ``MiniVGG`` are the trainable, scaled-down stand-ins
for the paper's ResNet-50 and VGG-16 (see DESIGN.md §2): they preserve
the *structural signatures* the paper's analysis leans on — residual
connections + batch norm for the ResNet family, and a convolution
stack feeding a disproportionately large fully-connected layer for the
VGG family (in real VGG-16 the first FC layer holds ~75 % of all
parameters, which is what makes layer-wise sharding skewed in §VI-C).
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.layers import Dense, Flatten, Identity
from repro.nn.module import Module, Sequential
from repro.nn.normalization import BatchNorm2d

__all__ = ["MLP", "ResidualBlock", "MiniResNet", "MiniVGG", "build_model", "arguments_to_fit"]


class MLP(Sequential):
    """Plain multi-layer perceptron over flat feature vectors.

    Used for the fastest accuracy experiments: the distributed
    algorithms' aggregation semantics are architecture-independent, so
    convergence *ordering* results transfer from this model.
    """

    def __init__(
        self,
        in_features: int,
        hidden: tuple[int, ...],
        num_classes: int,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: list[Module] = []
        width = in_features
        for h in hidden:
            layers.append(Dense(width, h, rng=rng))
            layers.append(ReLU())
            width = h
        layers.append(Dense(width, num_classes, rng=rng))
        super().__init__(*layers)
        self.in_features = in_features
        self.num_classes = num_classes
        self.input_shape = (in_features,)


class ResidualBlock(Module):
    """Basic 2-conv residual block (the ResNet-18/34 'basic block').

    When ``stride > 1`` or the channel count changes, the shortcut is a
    1×1 strided convolution + batch norm (projection shortcut).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, rng=rng, bias=False
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=rng, bias=False)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, rng=rng, bias=False),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()
        self.relu_out = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.bn2.forward(
            self.conv2.forward(self.relu1.forward(self.bn1.forward(self.conv1.forward(x))))
        )
        skip = self.shortcut.forward(x)
        return self.relu_out.forward(main + skip)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu_out.backward(grad_out)
        grad_skip = self.shortcut.backward(grad_sum)
        grad_main = self.conv1.backward(
            self.bn1.backward(self.relu1.backward(self.conv2.backward(self.bn2.backward(grad_sum))))
        )
        return grad_main + grad_skip


class MiniResNet(Sequential):
    """Small residual CNN — the compute-intensive model family.

    Structure: stem conv → ``len(stage_channels)`` stages of
    ``blocks_per_stage`` residual blocks (stride-2 downsample at each
    stage boundary after the first) → global average pool → classifier,
    chained in ``layers`` under their attribute names.
    """

    def __init__(
        self,
        *,
        in_channels: int = 3,
        num_classes: int = 10,
        stage_channels: tuple[int, ...] = (8, 16),
        blocks_per_stage: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if not stage_channels:
            raise ValueError("need at least one stage")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_classes = num_classes
        self.input_shape = (in_channels, None, None)  # any height and width
        self.stem = Conv2d(in_channels, stage_channels[0], 3, padding=1, rng=rng, bias=False)
        self.stem_bn = BatchNorm2d(stage_channels[0])
        self.stem_relu = ReLU()
        blocks: list[Module] = []
        prev = stage_channels[0]
        for stage_idx, channels in enumerate(stage_channels):
            for block_idx in range(blocks_per_stage):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                blocks.append(ResidualBlock(prev, channels, stride=stride, rng=rng))
                prev = channels
        self.blocks = Sequential(*blocks)
        self.pool = GlobalAvgPool2d()
        self.fc = Dense(prev, num_classes, rng=rng)
        self.layers = [self.stem, self.stem_bn, self.stem_relu, self.blocks, self.pool, self.fc]


class MiniVGG(Sequential):
    """Small VGG-style CNN — the communication-intensive model family.

    The classifier head deliberately dominates the parameter count
    (``fc_width`` defaults put ≳70 % of parameters into the first FC
    layer, mirroring real VGG-16's fc6).
    """

    def __init__(
        self,
        *,
        in_channels: int = 3,
        num_classes: int = 10,
        conv_channels: tuple[int, ...] = (8, 16),
        fc_width: int = 128,
        input_hw: int = 8,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if not conv_channels:
            raise ValueError("need at least one conv stage")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_classes = num_classes
        self.input_shape = (in_channels, input_hw, input_hw)
        layers: list[Module] = []
        prev = in_channels
        hw = input_hw
        for channels in conv_channels:
            layers.append(Conv2d(prev, channels, 3, padding=1, rng=rng))
            layers.append(ReLU())
            layers.append(MaxPool2d(2))
            prev = channels
            hw //= 2
        if hw < 1:
            raise ValueError("input_hw too small for the number of pooling stages")
        self.features = Sequential(*layers)
        self.flatten = Flatten()
        flat_dim = prev * hw * hw
        self.fc1 = Dense(flat_dim, fc_width, rng=rng)
        self.fc_relu = ReLU()
        self.fc2 = Dense(fc_width, num_classes, rng=rng)
        self.layers = [self.features, self.flatten, self.fc1, self.fc_relu, self.fc2]


#: The constructor argument behind each axis of a model's ``input_shape``.
_SHAPE_ARGUMENTS = {1: ("in_features",), 3: ("in_channels", "input_hw", "input_hw")}


def arguments_to_fit(
    model: Module, sample_shape: tuple[int, ...], num_classes: int
) -> dict[str, int] | None:
    """``None`` when ``model`` takes samples of ``sample_shape`` in
    ``num_classes`` classes; otherwise the constructor arguments it
    would take them with — none when no argument would do (vectors
    against images)."""
    if len(model.input_shape) != len(sample_shape):
        return {}
    names = _SHAPE_ARGUMENTS.get(len(sample_shape), ())
    lacking = {
        name: have
        for name, takes, have in zip(names, model.input_shape, sample_shape)
        if takes not in (None, have)
    }
    if model.num_classes != num_classes:
        lacking["num_classes"] = num_classes
    return lacking or None


def build_model(name: str, *, seed: int = 0, **kwargs) -> Module:
    """Factory used by experiment configs: the same seed constructs
    bit-identical initial parameters."""
    rng = np.random.default_rng(seed)
    name = name.lower()
    if name == "mlp":
        kwargs = dict(in_features=32, hidden=(64, 64), num_classes=10) | kwargs
        model: Module = MLP(rng=rng, **kwargs)
    elif name in ("miniresnet", "resnet"):
        model = MiniResNet(rng=rng, **kwargs)
    elif name in ("minivgg", "vgg"):
        model = MiniVGG(rng=rng, **kwargs)
    else:
        raise ValueError(f"unknown model {name!r}; expected mlp/miniresnet/minivgg")
    return model
