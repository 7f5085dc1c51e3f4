"""Gradient-fault model: silent data-plane corruption.

Where :mod:`repro.faults.netfaults` perturbs *when* messages arrive,
this module perturbs *what* a worker computes. The fault controller
arms events here as the injector replays the schedule; the gradient
production hook (:func:`repro.core.worker.produce_gradient`) calls
:meth:`GradFaultModel.corrupt` on every gradient, so all seven
algorithms are corruptible without per-algorithm code.

Effect semantics (see :mod:`repro.faults.config` for the taxonomy):

* one-shot kinds (``bitflip``, ``nan_inject``) fire on the worker's
  *next* gradient after the event time, then disarm;
* windowed kinds (``grad_scale``, ``sign_flip``) apply to every
  gradient inside ``[time, time + duration)``;
* ``byzantine`` is persistent from ``time`` (bounded by ``duration``
  if given): the worker sends ``-scale * grad``, the inner-product
  attack that reliably destroys mean aggregation while staying
  finite — exactly the case robust aggregators must survive.

Corruption draws (bit positions, element indices) come from the fault
controller's dedicated RNG stream, so a given ``(RunConfig,
FaultConfig)`` pair replays bit-identically and the data/compute
streams are never perturbed.
"""

from __future__ import annotations

import numpy as np

from repro.faults.config import FaultEvent

__all__ = ["GradFaultModel", "DEFAULT_GRAD_SCALE", "DEFAULT_BYZANTINE_SCALE"]

DEFAULT_GRAD_SCALE = 100.0
DEFAULT_BYZANTINE_SCALE = 10.0


class GradFaultModel:
    """Per-worker corruption state armed by the fault controller."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        # wid -> pending one-shot events (consumed FIFO).
        self._oneshot: dict[int, list[FaultEvent]] = {}
        # wid -> list of (kind, until, scale); until=inf for persistent.
        self._active: dict[int, list[tuple[str, float, float]]] = {}
        self.corruptions: dict[str, int] = {}

    def arm(self, event: FaultEvent, now: float) -> None:
        """Activate one scheduled gradient fault (injector callback)."""
        assert event.worker is not None
        wid = event.worker
        if event.kind in ("bitflip", "nan_inject"):
            self._oneshot.setdefault(wid, []).append(event)
            return
        if event.kind == "grad_scale":
            scale = event.scale if event.scale is not None else DEFAULT_GRAD_SCALE
            until = now + (event.duration or 0.0)
        elif event.kind == "sign_flip":
            scale = -1.0
            until = now + (event.duration or 0.0)
        else:  # byzantine
            scale = event.scale if event.scale is not None else DEFAULT_BYZANTINE_SCALE
            until = now + event.duration if event.duration is not None else np.inf
        self._active.setdefault(wid, []).append((event.kind, until, scale))

    def corrupt(
        self, wid: int, grad: np.ndarray | None, now: float
    ) -> tuple[np.ndarray | None, list[str]]:
        """Apply this worker's armed faults to one gradient.

        Returns the (possibly corrupted) gradient and the list of fault
        kinds applied. Timing mode (``grad is None``) passes through
        untouched — there is no data plane to corrupt — but one-shot
        events are still consumed so replay stays schedule-faithful.
        """
        applied: list[str] = []
        pending = self._oneshot.pop(wid, None)
        if pending:
            for event in pending:
                applied.append(event.kind)
                if grad is None:
                    continue
                grad = grad.copy()
                idx = int(self.rng.integers(grad.size))
                if event.kind == "bitflip":
                    bits = grad[idx : idx + 1].view(np.uint64)
                    bits ^= np.uint64(1) << np.uint64(int(self.rng.integers(64)))
                else:  # nan_inject
                    grad[idx] = np.nan
        windows = self._active.get(wid)
        if windows:
            live = [(k, until, s) for k, until, s in windows if now < until]
            if len(live) != len(windows):
                if live:
                    self._active[wid] = live
                else:
                    del self._active[wid]
            for kind, _until, scale in live:
                applied.append(kind)
                if grad is None:
                    continue
                if kind == "grad_scale":
                    grad = grad * scale
                elif kind == "sign_flip":
                    grad = -grad
                else:  # byzantine
                    grad = -scale * grad
        for kind in applied:
            self.corruptions[kind] = self.corruptions.get(kind, 0) + 1
        return grad, applied

    def summary(self) -> dict:
        return dict(self.corruptions)
