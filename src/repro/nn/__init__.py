"""Pure-numpy deep-learning substrate.

This subpackage replaces the TensorFlow 1.12 substrate used by the
paper. It provides:

* :mod:`repro.nn.module` — ``Parameter``/``Module`` abstractions with
  explicit ``forward``/``backward`` passes and flat-vector views of the
  parameters and gradients (the representation the distributed
  algorithms exchange).
* layers (dense, convolution, pooling, batch-norm, ReLU) in
  :mod:`repro.nn.layers`, :mod:`repro.nn.conv`,
  :mod:`repro.nn.normalization`, :mod:`repro.nn.activations`.
* losses (:mod:`repro.nn.losses`), optimizers (:mod:`repro.nn.optim`)
  and learning-rate schedules (:mod:`repro.nn.schedules`) matching the
  paper's training recipe (momentum SGD, linear-scaling rule, gradual
  warm-up, step decay).
* runnable models (:mod:`repro.nn.models`) and full-size layer
  profiles of ResNet-50 / VGG-16 (:mod:`repro.nn.zoo`) consumed by the
  timing simulator.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "module": ("Module", "Parameter", "Sequential"),
        "layers": ("Dense", "Flatten", "Identity"),
        "activations": ("ReLU",),
        "conv": ("Conv2d", "MaxPool2d", "GlobalAvgPool2d"),
        "normalization": ("BatchNorm2d",),
        "losses": ("Loss", "SoftmaxCrossEntropy"),
        "optim": ("Optimizer", "SGD"),
        "schedules": (
            "LRSchedule",
            "StepDecaySchedule",
            "WarmupStepSchedule",
            "scaled_learning_rate",
        ),
        "models": ("MLP", "MiniResNet", "MiniVGG", "ResidualBlock", "build_model"),
        "zoo": (
            "LayerProfile",
            "ModelProfile",
            "resnet50_profile",
            "vgg16_profile",
            "mini_profile_from_model",
        ),
    },
)
