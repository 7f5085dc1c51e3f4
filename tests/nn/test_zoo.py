"""Tests for the full-size ResNet-50 / VGG-16 layer profiles.

These pin the published architecture facts the timing model relies on.
"""

import numpy as np
import pytest

from repro.nn import build_model
from repro.nn.zoo import LayerProfile, ModelProfile, mini_profile_from_model, resnet50_profile, vgg16_profile


class TestResNet50Profile:
    def test_total_parameters_match_published(self):
        """ResNet-50 has 25.557M parameters (with BN and fc bias)."""
        profile = resnet50_profile()
        assert profile.total_params == 25_557_032

    def test_forward_flops_match_published(self):
        """≈4.1 GMACs ⇒ ≈8.2 GFLOPs with multiply-adds counted as 2."""
        profile = resnet50_profile()
        assert 7.5e9 < profile.total_flops < 9.0e9

    def test_layer_count(self):
        profile = resnet50_profile()
        convs = [l for l in profile.layers if l.kind == "conv"]
        # 1 stem + 3×(3,4,6,3) bottleneck convs + 4 projections = 53.
        assert len(convs) == 53

    def test_classifier_size(self):
        profile = resnet50_profile()
        fc = [l for l in profile.layers if l.kind == "fc"]
        assert len(fc) == 1
        assert fc[0].params == 2048 * 1000 + 1000

    def test_train_flops_is_3x_forward(self):
        profile = resnet50_profile()
        assert profile.train_flops == 3 * profile.total_flops

    def test_no_layer_dominates(self):
        """ResNet-50's parameters are spread out — layer-wise sharding
        balances well (contrast with VGG-16)."""
        profile = resnet50_profile()
        assert max(layer.params for layer in profile.layers) < 0.15 * profile.total_params


class TestVGG16Profile:
    def test_total_parameters_match_published(self):
        """VGG-16 has 138.36M parameters."""
        profile = vgg16_profile()
        assert profile.total_params == 138_357_544

    def test_fc6_holds_majority(self):
        """fc6 is 25088×4096 ≈ 74 % of all parameters — the skew behind
        the paper's sharding bottleneck finding (§VI-C)."""
        profile = vgg16_profile()
        fc6 = next(l for l in profile.layers if l.name == "fc6")
        assert fc6.params == 25088 * 4096 + 4096
        assert fc6.params == max(layer.params for layer in profile.layers)
        assert 0.70 < fc6.params / profile.total_params < 0.78

    def test_conv_layer_count(self):
        profile = vgg16_profile()
        convs = [l for l in profile.layers if l.kind == "conv"]
        assert len(convs) == 13

    def test_vgg_is_communication_intensive(self):
        """The paper's model dichotomy: VGG-16 moves ~5.4× the bytes of
        ResNet-50 per iteration (138M vs 25.6M params) and also has a
        higher bytes-per-FLOP ratio."""
        vgg = vgg16_profile()
        resnet = resnet50_profile()
        assert vgg.total_params > 5 * resnet.total_params
        assert (vgg.total_bytes / vgg.total_flops) > (
            resnet.total_bytes / resnet.total_flops
        )


class TestModelProfileBasics:
    def test_total_bytes(self):
        profile = ModelProfile(
            name="toy",
            layers=(
                LayerProfile("a", "fc", params=10, flops=20),
                LayerProfile("b", "fc", params=30, flops=60),
            ),
        )
        assert profile.total_bytes == 160

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            LayerProfile("bad", "fc", params=-1, flops=0)

    def test_custom_class_count(self):
        p100 = resnet50_profile(num_classes=100)
        p1000 = resnet50_profile(num_classes=1000)
        assert p1000.total_params - p100.total_params == 2048 * 900 + 900


class TestMiniProfile:
    def test_matches_model_layout(self):
        model = build_model("mlp", seed=0, in_features=4, hidden=(8,), num_classes=3)
        profile = mini_profile_from_model(model)
        assert profile.total_params == model.num_parameters()
        assert len(profile.layers) == len(list(model.named_parameters()))
        names = [l.name for l in profile.layers]
        assert names == [n for n, _ in model.named_parameters()]
