"""Gradient-fault injection: effect semantics and byte-identical replay.

Mirrors tests/faults/test_determinism.py for the data plane: the same
(run seed, fault seed, schedule) must reproduce the same corrupted
trajectory bit-for-bit, and each fault kind must have exactly its
documented effect on a gradient.
"""

import numpy as np
import pytest

from repro.core.runner import execute_run
from repro.faults.config import FaultConfig, FaultEvent
from repro.faults.gradfaults import GradFaultModel
from repro.io import to_jsonable

from tests.conftest import small_full_config


# -- unit: the corruption model itself -----------------------------------


def model(seed=0):
    return GradFaultModel(np.random.default_rng(seed))


def grad(n=8):
    return np.linspace(-1.0, 1.0, n)


class TestEffects:
    def test_bitflip_changes_exactly_one_element(self):
        m = model()
        m.arm(FaultEvent(time=0.0, kind="bitflip", worker=0), now=0.0)
        out, applied = m.corrupt(0, grad(), now=0.1)
        assert applied == ["bitflip"]
        assert (out != grad()).sum() == 1

    def test_nan_inject_sets_exactly_one_nan(self):
        m = model()
        m.arm(FaultEvent(time=0.0, kind="nan_inject", worker=0), now=0.0)
        out, applied = m.corrupt(0, grad(), now=0.1)
        assert applied == ["nan_inject"]
        assert np.isnan(out).sum() == 1

    def test_oneshot_disarms_after_firing(self):
        m = model()
        m.arm(FaultEvent(time=0.0, kind="bitflip", worker=0), now=0.0)
        m.corrupt(0, grad(), now=0.1)
        out, applied = m.corrupt(0, grad(), now=0.2)
        assert applied == [] and np.array_equal(out, grad())

    def test_grad_scale_window(self):
        m = model()
        m.arm(
            FaultEvent(time=0.0, kind="grad_scale", worker=0, duration=1.0, scale=7.0),
            now=0.0,
        )
        inside, _ = m.corrupt(0, grad(), now=0.5)
        assert np.allclose(inside, 7.0 * grad())
        outside, applied = m.corrupt(0, grad(), now=1.5)
        assert applied == [] and np.array_equal(outside, grad())

    def test_sign_flip_negates(self):
        m = model()
        m.arm(FaultEvent(time=0.0, kind="sign_flip", worker=0, duration=1.0), now=0.0)
        out, _ = m.corrupt(0, grad(), now=0.5)
        assert np.allclose(out, -grad())

    def test_byzantine_is_persistent_and_amplified(self):
        m = model()
        m.arm(FaultEvent(time=0.0, kind="byzantine", worker=0, scale=10.0), now=0.0)
        for now in (0.1, 5.0, 1e6):
            out, applied = m.corrupt(0, grad(), now=now)
            assert applied == ["byzantine"]
            assert np.allclose(out, -10.0 * grad())
        assert m.corrupt(0, grad(), now=1e9)[1] == ["byzantine"]

    def test_byzantine_duration_bounds_the_attack(self):
        m = model()
        m.arm(
            FaultEvent(time=0.0, kind="byzantine", worker=0, duration=1.0), now=0.0
        )
        m.corrupt(0, grad(), now=0.5)
        out, applied = m.corrupt(0, grad(), now=2.0)
        assert applied == [] and np.array_equal(out, grad())

    def test_other_workers_untouched(self):
        m = model()
        m.arm(FaultEvent(time=0.0, kind="byzantine", worker=0), now=0.0)
        out, applied = m.corrupt(1, grad(), now=0.5)
        assert applied == [] and np.array_equal(out, grad())

    def test_timing_mode_passes_none_but_consumes_oneshot(self):
        m = model()
        m.arm(FaultEvent(time=0.0, kind="bitflip", worker=0), now=0.0)
        out, applied = m.corrupt(0, None, now=0.1)
        assert out is None and applied == ["bitflip"]
        # Consumed: a later gradient is NOT corrupted.
        _, applied = m.corrupt(0, grad(), now=0.2)
        assert applied == []

    def test_corruption_draws_are_seed_deterministic(self):
        outs = []
        for _ in range(2):
            m = model(seed=7)
            m.arm(FaultEvent(time=0.0, kind="bitflip", worker=0), now=0.0)
            out, _ = m.corrupt(0, grad(), now=0.1)
            outs.append(out)
        assert np.array_equal(outs[0], outs[1])


# -- end-to-end: corrupted runs replay byte-identically ------------------


def faulted_config(kind, **event_kwargs):
    event = FaultEvent(time=0.05, kind=kind, worker=2, **event_kwargs)
    return small_full_config("bsp", faults=FaultConfig(events=(event,)))


class TestReplay:
    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("bitflip", {}),
            ("byzantine", {"scale": 10.0}),
            ("grad_scale", {"duration": 0.1, "scale": 50.0}),
            ("sign_flip", {"duration": 0.1}),
        ],
    )
    def test_corrupted_run_is_byte_identical(self, kind, kwargs):
        cfg = faulted_config(kind, **kwargs)
        first = to_jsonable(execute_run(cfg))
        second = to_jsonable(execute_run(cfg))
        assert first == second
        assert first["metadata"]["faults"]["grad_corruptions"][kind] >= 1

    def test_corruption_perturbs_the_trajectory(self):
        plain = execute_run(small_full_config("bsp"))
        hostile = execute_run(faulted_config("byzantine", scale=10.0))
        assert hostile.train_loss != plain.train_loss

    def test_decentralized_corruption_replays(self):
        event = FaultEvent(time=0.05, kind="byzantine", worker=1, scale=10.0)
        cfg = small_full_config("ad-psgd", faults=FaultConfig(events=(event,)))
        assert to_jsonable(execute_run(cfg)) == to_jsonable(execute_run(cfg))
