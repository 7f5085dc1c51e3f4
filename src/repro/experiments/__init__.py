"""Experiments: one artefact spec per evaluation axis of the paper.

* :mod:`repro.experiments.config` — canonical scaled configurations
  (DESIGN.md §6 scale mapping);
* :mod:`repro.experiments.executor` — parallel sweep executor with a
  content-addressed run cache (every artefact submits its grid here);
* :mod:`repro.experiments.session` — durable sweep sessions (journal,
  resume, run policy);
* :mod:`repro.experiments.artefact` — the :class:`Artefact` spec, the
  one runner (``run_artefact``) and the one renderer (``render``);
* :mod:`repro.experiments.accuracy` — Table II, Fig 1, Table IV;
* :mod:`repro.experiments.sensitivity` — Table III;
* :mod:`repro.experiments.scalability` — Fig 2, Fig 3;
* :mod:`repro.experiments.optimizations` — Fig 4;
* :mod:`repro.experiments.ablations` — the three ablations;
* :mod:`repro.experiments.faults` — fault-tolerance grids (beyond the
  paper: throughput retained under crash/rejoin/degrade/partition, and
  the rack-scale chaos matrix);
* :mod:`repro.experiments.byzantine` — Byzantine-resilience grid.

``run_artefact(artefact("fig2"), executor=...)`` returns a table that
keeps every seed's value and raw result per cell; ``render`` prints
the rows/series the paper reports. Without an executor the
process-wide default runs the grid (serial, cache-free — identical to
a bare for-loop).

The package itself imports nothing: import the submodule you need, so
that ``repro sweep list`` (which needs only ``session``) does not load
the simulator.
"""
