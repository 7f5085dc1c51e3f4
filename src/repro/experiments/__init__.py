"""Experiment drivers: one module per evaluation axis of the paper.

* :mod:`repro.experiments.config` — canonical scaled configurations
  (DESIGN.md §6 scale mapping);
* :mod:`repro.experiments.executor` — parallel sweep executor with a
  content-addressed run cache (all drivers submit their grids here);
* :mod:`repro.experiments.session` — durable sweep sessions (journal,
  resume, run policy);
* :mod:`repro.experiments.accuracy` — Table II, Fig 1, Table IV;
* :mod:`repro.experiments.sensitivity` — Table III;
* :mod:`repro.experiments.scalability` — Fig 2, Fig 3;
* :mod:`repro.experiments.optimizations` — Fig 4;
* :mod:`repro.experiments.faults` — fault-tolerance grid (beyond the
  paper: throughput retained under crash/rejoin/degrade/partition);
* :mod:`repro.experiments.byzantine` — Byzantine-resilience grid.

Every driver returns a structured result object with a ``render()``
method that prints the same rows/series the paper reports. Drivers
accept an ``executor=`` keyword; without one they use the process-wide
default (serial, cache-free — identical to bare for-loop execution).

The package itself imports nothing: import the submodule you need, so
that ``repro sweep list`` (which needs only ``session``) does not load
the simulator.
"""
