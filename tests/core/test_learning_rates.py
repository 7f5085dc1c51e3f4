"""Each update receives the rate DESIGN §8's table names for it.

One full-mode mini run per algorithm at N = 4. Every replica step
(``LocalComputation.apply_gradient``) and every PS step
(``PSShard.apply_gradient``, and ``apply_entry_gradient`` for ASP's
per-layer folds) is recorded with the rate it received, the rate the
table's ``Runtime`` method gives at that instant, and the momentum the
step applies.
"""

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
