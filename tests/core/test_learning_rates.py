"""Each update receives the rate DESIGN §8's table names for it.

One full-mode mini run per algorithm at N = 4. Every replica step
(``LocalComputation.apply_gradient``) and every PS step
(``PSShard.apply_gradient``, and ``apply_entry_gradient`` for ASP's
per-layer folds) is recorded with the rate it received, the rate the
table's ``Runtime`` method gives at that instant, and the momentum the
step applies. Then, with every gradient the same vector, each
algorithm's consensus moves as far per N gradients as BSP's.
"""

import numpy as np
import pytest

from repro.comm.ps import PSShard
from repro.core.runner import DistributedRunner
from repro.core.worker import LocalComputation

from tests.conftest import small_full_config

MU = 0.9  # RunConfig's momentum

#: DESIGN §8: algorithm -> {update site: (Runtime rate method, momentum)}
TABLE = {
    "bsp": {"ps": ("lr", MU)},
    "ar-sgd": {"replica": ("lr_at_round", MU)},
    "asp": {"ps": ("fold_lr", 0.0)},
    "ssp": {"replica": ("lr_local", MU), "ps": ("fold_lr", 0.0)},
    "easgd": {"replica": ("lr", MU)},
    "gosgd": {"replica": ("lr", MU)},
    "ad-psgd": {"replica": ("lr", MU)},
}
PARAMS = {"ssp": {"staleness": 3}, "easgd": {"tau": 2}, "gosgd": {"p": 0.5}}


def steps(algorithm, monkeypatch, **overrides):
    """(site, rate received, rate the table's method gives, momentum)
    of every step of one run."""
    config = small_full_config(
        algorithm, algorithm_params=PARAMS.get(algorithm, {}), epochs=1.0, **overrides
    )
    assert config.momentum == MU
    runner = DistributedRunner(config)
    rt = runner.runtime
    replica_method = TABLE[algorithm].get("replica", ("lr", None))[0]
    ps_method = TABLE[algorithm].get("ps", ("lr", None))[0]
    seen = []

    def table_rate(method, comp=None):
        if method == "lr_at_round":
            slot = next(s for s in rt.workers if s.comp is comp)
            return rt.lr_at_round(slot.iterations)
        return getattr(rt, method)()

    replica_step, ps_step, entry_step = (
        LocalComputation.apply_gradient, PSShard.apply_gradient, PSShard.apply_entry_gradient
    )

    def on_replica(self, grad, lr):
        seen.append(("replica", lr, table_rate(replica_method, self), self.optimizer.momentum))
        return replica_step(self, grad, lr)

    def on_ps(self, grad, lr):
        seen.append(("ps", lr, table_rate(ps_method), self.optimizer.momentum))
        return ps_step(self, grad, lr)

    def on_entry(self, msg, lr):
        seen.append(("ps", lr, table_rate("fold_lr"), 0.0))  # plain SGD on one entry
        return entry_step(self, msg, lr)

    monkeypatch.setattr(LocalComputation, "apply_gradient", on_replica)
    monkeypatch.setattr(PSShard, "apply_gradient", on_ps)
    monkeypatch.setattr(PSShard, "apply_entry_gradient", on_entry)
    runner.run()
    return seen


@pytest.mark.parametrize("algorithm", sorted(TABLE))
def test_every_step_receives_the_tabled_rate(algorithm, monkeypatch):
    seen = steps(algorithm, monkeypatch, num_workers=4)
    assert {site for site, *_ in seen} == set(TABLE[algorithm])
    for site, received, tabled, momentum in seen:
        assert received == tabled, (site, received, tabled)
        assert momentum == TABLE[algorithm][site][1], site


# -- the invariant the table rests on ----------------------------------------

ETA = 0.05  # constant rate: no warm-up, no decay
STEADY, LAST = 80, 200  # window, in units of N gradients: momentum is steady at its start


def distance_per_n_gradients(algorithm, monkeypatch, params=None, n=4):
    """How far the run's consensus moves per N gradients, as a multiple
    of BSP's steady step ``ETA/(1-MU)``, when every gradient is the same
    vector (weight decay 0, no jitter, no speed spread).

    The consensus is the PS for ASP and SSP, the mean replica for the
    decentralised algorithms; for EASGD it is also read as the workers'
    mean, and as the workers and the center together over N.
    """
    config = small_full_config(
        algorithm, algorithm_params=params or PARAMS.get(algorithm, {}), num_workers=n,
        epochs=25.0, weight_decay=0.0, speed_spread=0.0, jitter_sigma=0.0,
    )
    runner = DistributedRunner(config)
    rt, alg = runner.runtime, runner.algorithm
    rt.schedule = lambda epoch: ETA
    levels = {}
    calls = 0

    def level():
        workers = sum(slot.comp.params for slot in rt.workers) / n
        seen = {"consensus": alg.global_params(), "workers": workers}
        if algorithm == "easgd":
            seen["workers + center"] = workers + alg._ps_global_params() / n
        return {name: -float(p.mean()) for name, p in seen.items()}

    def gradient(self):
        nonlocal calls
        calls += 1
        if calls in (STEADY * n, LAST * n):
            levels[calls] = level()
        return np.ones_like(self.params)

    monkeypatch.setattr(LocalComputation, "gradient", gradient)
    runner.run()
    start, end = levels[STEADY * n], levels[LAST * n]
    step = ETA / (1 - MU)
    return {name: (end[name] - start[name]) / (LAST - STEADY) / step for name in start}


@pytest.mark.parametrize("algorithm", sorted(TABLE))
def test_the_consensus_moves_as_far_per_n_gradients_as_bsp(algorithm, monkeypatch):
    """DESIGN §8: each tabled rate gives BSP's distance per N
    gradients. GoSGD at p = 0.01 (Table II's); its larger p below."""
    bsp = distance_per_n_gradients("bsp", monkeypatch)["consensus"]
    assert bsp == pytest.approx(1.0, rel=0.01)
    params = {"p": 0.01} if algorithm == "gosgd" else None
    moved = distance_per_n_gradients(algorithm, monkeypatch, params)
    name = "workers + center" if algorithm == "easgd" else "consensus"
    assert moved[name] == pytest.approx(bsp, rel=0.01)


def test_where_the_mean_replica_lags(monkeypatch):
    """Two measured exceptions to the table's "the mean replica moves as
    far as BSP". EASGD's elastic exchange conserves the workers' sum
    plus the center, so the N + 1 variables share N workers' steps and
    the workers' mean moves N/(N + 1) as far. A GoSGD push parks its
    weight in the receiver's mailbox until that worker's next
    iteration, where it takes no step: at p = 0.5 the mean lags by a
    fifth."""
    bsp = distance_per_n_gradients("bsp", monkeypatch)["consensus"]
    easgd = distance_per_n_gradients("easgd", monkeypatch)
    assert easgd["workers"] == pytest.approx(bsp * 4 / 5, rel=0.01)
    gosgd = distance_per_n_gradients("gosgd", monkeypatch, {"p": 0.5})["consensus"]
    assert 0.75 * bsp < gosgd < 0.85 * bsp
