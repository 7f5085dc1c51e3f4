"""Tests for cluster specifications."""

import pytest

from repro.sim.cluster import TITAN_V, ClusterSpec, GPUSpec, MachineSpec, paper_cluster


class TestGPUSpec:
    def test_titan_v_matches_paper(self):
        assert TITAN_V.tflops == pytest.approx(14.90)
        assert TITAN_V.memory_gb == 12.0

    def test_effective_flops(self):
        gpu = GPUSpec("x", tflops=10.0, memory_gb=8, efficiency=0.5)
        assert gpu.effective_flops == pytest.approx(5e12)

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUSpec("x", tflops=0, memory_gb=8)
        with pytest.raises(ValueError):
            GPUSpec("x", tflops=1, memory_gb=8, efficiency=0)


class TestPaperCluster:
    def test_matches_paper_setting(self):
        spec = paper_cluster(bandwidth_gbps=56)
        assert spec.machines == 6
        assert spec.machine.gpus == 4
        assert spec.total_gpus == 24
        assert spec.machine.gpu is TITAN_V

    def test_bandwidth_variants(self):
        assert paper_cluster(bandwidth_gbps=10).network_bandwidth_gbps == 10

    def test_goodput_below_line_rate(self):
        spec = paper_cluster(bandwidth_gbps=10)
        assert spec.network_bytes_per_s < 10e9 / 8


class TestPlacement:
    def test_block_placement(self):
        spec = paper_cluster()
        assert spec.machine_of_worker(0) == 0
        assert spec.machine_of_worker(3) == 0
        assert spec.machine_of_worker(4) == 1
        assert spec.machine_of_worker(23) == 5

    def test_out_of_range(self):
        spec = paper_cluster()
        with pytest.raises(ValueError):
            spec.machine_of_worker(24)


class TestValidation:
    def test_machine_spec(self):
        with pytest.raises(ValueError):
            MachineSpec(gpus=0)

    def test_cluster_spec(self):
        with pytest.raises(ValueError):
            ClusterSpec(machines=0, machine=MachineSpec(gpus=4), network_bandwidth_gbps=10)
        with pytest.raises(ValueError):
            ClusterSpec(machines=2, machine=MachineSpec(gpus=4), network_bandwidth_gbps=-1)
