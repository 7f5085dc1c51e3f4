"""Tests for scalability analysis helpers."""

from repro.analysis.scalability import ideal_single_worker_throughput
from repro.nn.zoo import resnet50_profile, vgg16_profile
from repro.sim.cluster import TITAN_V


class TestIdealThroughput:
    def test_resnet_plausible(self):
        tput = ideal_single_worker_throughput(resnet50_profile(), 128, TITAN_V)
        # TITAN V, fp32, batch 128: low hundreds of images/second.
        assert 100 < tput < 600

    def test_vgg_slower_than_resnet(self):
        resnet = ideal_single_worker_throughput(resnet50_profile(), 128, TITAN_V)
        vgg = ideal_single_worker_throughput(vgg16_profile(), 96, TITAN_V)
        assert vgg < resnet / 2
