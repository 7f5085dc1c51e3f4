"""``Module.predict``: the forward pass of a model nobody will
back-propagate. Same output as ``forward``, nothing kept for
``backward``, and ``_retain`` restored on every module whatever happens."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.nn.models import MLP, MiniResNet, MiniVGG, ResidualBlock

IMAGES = (4, 3, 8, 8)
VECTORS = (4, 6)

# (factory, input shape, the attribute ``forward`` caches for ``backward``)
LAYERS = {
    "dense": (lambda: Dense(6, 5), VECTORS, "_x"),
    "dropout": (lambda: Dropout(0.5), VECTORS, "_mask"),
    "flatten": (Flatten, IMAGES, None),
    "identity": (Identity, VECTORS, None),
    "relu": (ReLU, IMAGES, "_mask"),
    "leaky_relu": (LeakyReLU, IMAGES, "_mask"),
    "sigmoid": (Sigmoid, VECTORS, "_out"),
    "tanh": (Tanh, VECTORS, "_out"),
    "softmax": (Softmax, VECTORS, "_out"),
    "batchnorm1d": (lambda: BatchNorm1d(6), VECTORS, "_cache"),
    "batchnorm2d": (lambda: BatchNorm2d(3), IMAGES, "_cache"),
    "conv2d": (lambda: Conv2d(3, 5, 3, padding=1), IMAGES, "_patches"),
    "conv2d_strided": (lambda: Conv2d(3, 5, 3, stride=2, bias=False), IMAGES, "_patches"),
    "maxpool2d": (lambda: MaxPool2d(2), IMAGES, "_winner"),
    "avgpool2d": (lambda: AvgPool2d(2), IMAGES, None),
    "global_avgpool2d": (GlobalAvgPool2d, IMAGES, None),
}

MODELS = {
    "sequential": (lambda: Sequential(Dense(6, 5), ReLU(), Dense(5, 3)), VECTORS),
    "mlp": (lambda: MLP(6, (8, 8), 3), VECTORS),
    "residual_block": (lambda: ResidualBlock(3, 4, stride=2), IMAGES),
    "miniresnet": (MiniResNet, IMAGES),
    "minivgg": (MiniVGG, IMAGES),
}


def sample(shape) -> np.ndarray:
    return np.random.default_rng(11).normal(size=shape)


def reseed(module: Module) -> None:
    """Dropout draws its mask from its own generator: same draw again."""
    for layer in module.modules():
        if isinstance(layer, Dropout):
            layer._rng = np.random.default_rng(5)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("name", [*LAYERS, *MODELS])
def test_predict_equals_forward(name, training):
    factory, shape = (LAYERS.get(name) or MODELS[name])[:2]
    module = factory()
    x = sample(shape)
    module.forward(x)  # batch norm's running statistics move off their defaults
    module.train() if training else module.eval()
    reseed(module)
    expected = module.forward(x)
    reseed(module)
    got = module.predict(x)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", [n for n, spec in LAYERS.items() if spec[2] is not None])
def test_predict_keeps_nothing_for_backward(name):
    factory, shape, cache = LAYERS[name]
    layer = factory()
    x = sample(shape)
    out = layer.forward(x)
    assert getattr(layer, cache) is not None
    layer.backward(np.ones_like(out))  # fine after forward
    layer.predict(x)
    assert getattr(layer, cache) is None
    if name == "dropout":  # no mask means identity, as in eval mode
        assert layer.backward(out) is out
    else:
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.ones_like(out))


@pytest.mark.parametrize("name", ["miniresnet", "minivgg"])
def test_model_holds_no_activation_after_predict(name):
    factory, shape = MODELS[name]
    model = factory()
    x = sample(shape)
    model.forward(x)
    model.predict(x)
    for module in model.modules():
        for attribute in ("_patches", "_mask", "_cache", "_x", "_out", "_winner"):
            assert getattr(module, attribute, None) is None, (type(module).__name__, attribute)
    with pytest.raises(RuntimeError, match="before forward"):
        model.backward(np.ones((shape[0], 10)))


class Failing(Module):
    def forward(self, x):
        raise FloatingPointError("diverged")


def test_retain_is_restored_when_forward_raises():
    model = Sequential(Dense(6, 5), ReLU(), Sequential(Dense(5, 5), Failing()), Dense(5, 3))
    with pytest.raises(FloatingPointError, match="diverged"):
        model.predict(sample(VECTORS))
    modules = list(model.modules())
    assert len(modules) == 7
    assert all(module._retain for module in modules)
    # ... so the next forward keeps its caches again.
    model.layers[0].forward(sample(VECTORS))
    assert model.layers[0]._x is not None


def test_retain_is_off_only_inside_predict():
    seen = []

    class Probe(Module):
        def forward(self, x):
            seen.append(self._retain)
            return x

    model = Sequential(Probe(), Sequential(Probe()))
    model.forward(sample(VECTORS))
    model.predict(sample(VECTORS))
    model.forward(sample(VECTORS))
    assert seen == [True, True, False, False, True, True]
