"""The fault controller: injector, failure detector, membership driver.

One controller per faulty run. It owns:

* **injection** — the :class:`FaultSchedule` is replayed at its
  virtual-time stamps, one fault queued at a time (crashes kill
  processes, outages crash whole machines, link events arm the
  :class:`LinkFaultModel`);
* the **failure detector** — every worker announces liveness to the
  monitor on machine 0 on a fixed beat. Workers that started beating
  together (all of them at ``start()``, or one rejoin) form a cohort
  that ticks on one queue event per period; a beat's arrival is folded
  in arithmetically, with no delivery event. The start cohort's tick
  also scans for silence: a worker whose heartbeats stop is evicted
  after ``max_suspect_rounds`` of exponentially backed-off suspicion. A
  crash is detected *honestly*: the controller kills the worker's
  processes and lets the silence be noticed, it never short-circuits
  detection;
* **membership changes** — on every eviction or rejoin the comm epoch
  is bumped (in-flight messages from the old view drop at delivery),
  every algorithm process is killed, mailboxes are flushed, and
  ``algorithm.on_membership_change`` rebuilds shard state and respawns
  the live workers. The kill-and-respawn protocol is uniform across all
  seven algorithms; what differs per algorithm is only the shard/state
  reconciliation each override performs;
* **elastic rejoin** — a crash with ``rejoin_after`` waits out the
  delay, pulls a model snapshot over the simulated network
  (:mod:`repro.faults.checkpoint`), restores the worker slot, and
  re-enters it into membership. A crash or eviction that leaves no
  live worker and no pending rejoin ends the run at once.

Everything is driven by virtual time and a dedicated RNG stream, so a
given ``(RunConfig, FaultConfig)`` pair is bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.endpoints import HEARTBEAT_BYTES, Node
from repro.faults.checkpoint import capture_snapshot, restore_snapshot
from repro.faults.config import (
    CRASH,
    DEGRADE,
    DROP,
    FAULT_TABLE,
    GRAD,
    HOLD,
    FaultConfig,
    FaultEvent,
    FaultSchedule,
    check_fault_targets,
)
from repro.faults.gradfaults import GradFaultModel
from repro.faults.membership import Membership
from repro.faults.netfaults import LinkFaultModel
from repro.sim.engine import Process, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import TrainingAlgorithm
    from repro.core.runner import Runtime
    from repro.core.worker import WorkerSlot

__all__ = ["FaultController"]

# Mixed into the RNG seed sequence so the fault stream never collides
# with the data/compute/jitter streams derived from the run seed.
_RNG_STREAM_TAG = 0xFA017

# The failure detector's monitor runs on machine 0: heartbeats travel
# there over the control plane.
_MONITOR_MACHINE = 0


@dataclass(slots=True, eq=False)
class _Cohort:
    """Workers that started beating together (all at ``start()``, or one
    rejoin), in worker order, and their newest tick whose beats have all
    landed but are not yet written into the last-seen times."""

    wids: list[int]
    nodes: list[Node]
    scans: bool  # the start cohort's tick also runs the detector's scan
    landed: tuple | None = None


class FaultController:
    def __init__(
        self,
        runtime: "Runtime",
        algorithm: "TrainingAlgorithm",
        config: FaultConfig,
    ) -> None:
        self.rt = runtime
        self.algorithm = algorithm
        self.config = config
        self.schedule = FaultSchedule.from_config(config)
        # An empty schedule never consumes the fault stream; skipping
        # the PCG64/SeedSequence construction keeps the armed-but-idle
        # detector's fixed cost down. (Bit-safe: the stream's first
        # draw, when it exists, is unchanged.)
        self.rng = (
            np.random.default_rng(
                [
                    runtime.config.seed & 0x7FFFFFFF,
                    config.seed & 0x7FFFFFFF,
                    _RNG_STREAM_TAG,
                ]
            )
            if len(self.schedule)
            else None
        )
        self._validate_events(runtime)
        self.membership = Membership(range(runtime.config.num_workers))
        self.link_model = LinkFaultModel(self.rng)
        self.grad_model = GradFaultModel(self.rng)
        cluster = runtime.config.cluster
        if cluster.hierarchical:
            self.link_model.rack_of = cluster.rack_of_machine
        # Only schedules that hold or drop messages can ever arm the
        # model; leaving ``network.fault_model`` unset otherwise keeps
        # every transfer on the bare (faults-off) guard. Same idea for
        # the per-gradient corruption hook.
        effects = {FAULT_TABLE[e.kind].effect for e in self.schedule}
        self._delays_vary = bool(effects & {HOLD, DROP})
        if self._delays_vary:
            runtime.ctx.network.fault_model = self.link_model
        self._grad_armed = GRAD in effects
        # Processes owned by the training protocol: killed wholesale on
        # membership changes; a crash kills only its worker's entries.
        self._procs: list[tuple[Process, int | None]] = []
        self._cohorts: list[_Cohort] = []
        self._cohort_of: dict[int, _Cohort] = {}
        # Beats on the wire, one entry per tick (see ``_fold``), and the
        # arrival times of those an epoch bump made stale.
        self._flight: list[tuple] = []
        self._stale: list[float] = []
        self._bumped_at = -float("inf")
        self._last_seen: dict[int, float] = {}
        self._suspicion: dict[int, int] = {}
        #: Workers whose processes are gone (crashed or fenced).
        self.dead: set[int] = set()
        # Crashed workers whose rejoin is still on its way.
        self._rejoining: set[int] = set()
        self.evictions: list[dict] = []
        self.rejoins: list[dict] = []
        self.quarantines: list[dict] = []
        self.events_applied: list[FaultEvent] = []
        self.iterations_lost = 0
        # (scope, target) -> rate fractions of its open degrade windows.
        self._degraded: dict[tuple[str | None, int | None], list[float]] = {}
        # The schedule's next fault, and when the start cohort scans next.
        self._next_fault = 0
        self._fault_queued = False
        self._scan_at = 0.0

    def _validate_events(self, runtime: "Runtime") -> None:
        """Reject events that cannot touch this cluster.

        RunConfig validates worker/machine/rack ranges at construction,
        but a FaultConfig can reach the controller by other routes
        (direct instantiation, ``dataclasses.replace`` on internals), so
        the controller re-checks at start — an out-of-range or
        no-op-by-construction event is a spec bug, never a silent pass.
        """
        cfg = runtime.config
        check_fault_targets(self.schedule, cfg.num_workers, cfg.cluster)
        for event in self.schedule:
            spec = FAULT_TABLE[event.kind]
            if spec.effect == CRASH and spec.scope != "worker" and not self._workers_of(event):
                raise ValueError(
                    f"{event.kind} targets {spec.scope} {getattr(event, spec.scope)}, "
                    "which hosts no workers — the event would be a silent no-op"
                )

    def _workers_of(self, event: FaultEvent) -> list[int]:
        """The workers in a crash event's scope, in worker order."""
        scope = FAULT_TABLE[event.kind].scope
        if scope == "worker":
            return [event.worker]
        if scope == "machine":
            machines = {event.machine}
        else:
            machines = set(self.rt.config.cluster.machines_of_rack(event.rack))
        return [slot.wid for slot in self.rt.workers if slot.machine in machines]

    @staticmethod
    def _target(event: FaultEvent) -> tuple[str | None, int | None]:
        """``(scope, index)``: ``("rack", 2)``, or ``(None, None)`` for the spine."""
        scope = FAULT_TABLE[event.kind].scope
        return scope, None if scope is None else getattr(event, scope)

    # -- registration ----------------------------------------------------
    def register(self, process: Process, owner: int | None) -> None:
        """Track an algorithm process (``owner`` = worker id, or None
        for shard serve lanes). Called by ``Runtime.spawn``."""
        self._procs.append((process, owner))
        # Respawns accumulate dead entries; prune occasionally.
        if len(self._procs) > 16 * self.rt.config.num_workers + 64:
            self._procs = [(p, o) for p, o in self._procs if p.alive]

    def start(self) -> None:
        """Start the detector and queue the first fault (after algorithm setup)."""
        now = self.rt.engine.now
        live = self.membership.live_sorted()
        self._last_seen = dict.fromkeys(live, now)
        self._scan_at = now + self.config.heartbeat_interval
        self._start_cohort(live, scans=True)
        self._queue_fault()

    # -- failure detection -----------------------------------------------
    def _start_cohort(self, wids: list[int], *, scans: bool = False) -> None:
        """Start ``wids`` beating together, on one tick per period."""
        cohort = _Cohort(wids, [self.rt.workers[wid].node for wid in wids], scans)
        self._cohorts.append(cohort)
        for wid in wids:
            self._cohort_of[wid] = cohort
        self.rt.engine._at(self.config.heartbeat_interval, self._tick, (cohort,))

    def _silence(self, wid: int) -> None:
        """Stop the worker's beat: a dead worker never announces its own death."""
        cohort = self._cohort_of.pop(wid, None)
        if cohort is not None:
            self._seen(cohort)  # new lists: beats in flight keep the old ones
            i = cohort.wids.index(wid)
            cohort.wids = cohort.wids[:i] + cohort.wids[i + 1 :]
            cohort.nodes = cohort.nodes[:i] + cohort.nodes[i + 1 :]

    def _tick(self, cohort: _Cohort) -> None:
        """One beat period of a cohort: land the beats due by now, send
        each member's beat, and (on the start cohort) scan for silence.
        A beat's delay is drawn at its send instant, so drop windows draw
        the shared fault stream in order; its arrival is folded in later.
        The start cohort ticks until the run stops: it carries the scan.
        """
        rt = self.rt
        engine = rt.engine
        now = engine.now
        interval = self.config.heartbeat_interval
        if rt.stopping:
            if cohort.scans:
                # Beats still on the wire land after the stop, and the
                # latest of them can set the run's final virtual time.
                self._fold()
                pending = [entry[1] for entry in self._flight] + self._stale
                if pending:
                    engine._at_time(max(pending), self._fold, ())
            return
        self._fold()
        # With every earlier beat landed, none made stale in two periods,
        # nobody suspect and every live worker beating, each live worker
        # was last seen within a period: the scan (timeout >= 2 periods)
        # could find nobody overdue.
        quiet = (
            not self._flight
            and not self._suspicion
            and self._bumped_at < now - 2 * interval
            and self.dead.isdisjoint(self.membership.live)
        )
        oob_delay = rt.ctx.network.oob_delay
        arrivals: list[float] = []
        arrive = arrivals.append
        nbytes, monitor = HEARTBEAT_BYTES, _MONITOR_MACHINE
        for node in cohort.nodes:
            node.sent_messages += 1
            node.sent_bytes += nbytes
            arrive(now + oob_delay(node.machine, monitor, nbytes))
        if arrivals:
            self._flight.append((now, max(arrivals), cohort, cohort.wids, arrivals))
        if cohort.scans:
            # A fault due by the next scan goes into the queue ahead of it.
            self._scan_at = now + interval
            self._queue_fault()
        if arrivals or cohort.scans:
            engine._at(interval, self._tick, (cohort,))
        if cohort.scans and not quiet:
            self._scan()

    def _fold(self) -> None:
        """Land every beat whose arrival time has passed: a live beat
        refreshes its sender's last-seen time, clears its suspicion and
        records the message; a stale one counts as a stale-epoch drop.
        A flight entry is one tick's (send time, latest arrival, cohort,
        wids, arrivals)."""
        rt = self.rt
        now = rt.engine.now
        if self._stale:
            in_flight = [arrival for arrival in self._stale if arrival > now]
            rt.ctx.dropped_messages += len(self._stale) - len(in_flight)
            self._stale = in_flight
        if not self._flight:
            return
        landed, waiting = [], []
        for entry in self._flight:
            if entry[1] <= now:
                landed.append(entry)
            elif min(entry[4]) > now:
                waiting.append(entry)
            else:  # part of the tick has landed: split it in two
                time, _, cohort, wids, arrivals = entry
                for part, due in ((landed, True), (waiting, False)):
                    ids, times = zip(*[(w, a) for w, a in zip(wids, arrivals) if (a <= now) is due])
                    part.append((time, max(times), cohort, ids, times))
        self._flight = waiting
        per_beat = self._delays_vary or self._suspicion or rt.obs is not None
        last_seen = self._last_seen
        for _, _, cohort, wids, arrivals in landed:
            if not per_beat and wids is cohort.wids:
                cohort.landed = wids, arrivals  # each beat of a worker takes one delay
                continue
            self._seen(cohort)
            for wid, arrival in zip(wids, arrivals):
                if arrival > last_seen.get(wid, -1.0):
                    last_seen[wid] = arrival
                self._suspicion.pop(wid, None)
        obs = rt.obs
        if obs is not None:
            # In landing order, as the deliveries would have come.
            beats = [
                (arrival, time, wid)
                for time, _, _, wids, arrivals in landed
                for wid, arrival in zip(wids, arrivals)
            ]
            beats.sort(key=itemgetter(0))
            workers = rt.workers
            for arrival, time, wid in beats:
                obs.on_message(
                    src_machine=workers[wid].machine,
                    dst_machine=_MONITOR_MACHINE,
                    kind="hb",
                    nbytes=HEARTBEAT_BYTES,
                    t_send=time,
                    t_recv=arrival,
                )

    def _seen(self, *cohorts: _Cohort) -> None:
        """Write the cohorts' (default: all) landed ticks into the last-seen times."""
        for cohort in cohorts or self._cohorts:
            if cohort.landed is not None:
                self._last_seen.update(zip(*cohort.landed))
                cohort.landed = None

    def _scan(self) -> None:
        """Suspicion with exponential backoff.

        A worker overdue past ``heartbeat_timeout`` becomes suspect;
        each further overdue scan multiplies the deadline by
        ``backoff_factor``; past ``max_suspect_rounds`` the worker is
        declared dead and evicted (with a fencing kill first — STONITH
        — so a merely-partitioned worker cannot resurface in the old
        epoch).
        """
        cfg = self.config
        now = self.rt.engine.now
        self._seen()
        for wid in self.membership.live_sorted():
            last = self._last_seen.get(wid, now)
            rounds = self._suspicion.get(wid, 0)
            deadline = cfg.heartbeat_timeout * (cfg.backoff_factor**rounds)
            if now - last <= deadline:
                continue
            rounds += 1
            self._suspicion[wid] = rounds
            self._record("suspect", worker=wid, detail=f"round={rounds}")
            if rounds > cfg.max_suspect_rounds:
                self._suspicion.pop(wid, None)
                self._evict(wid)

    # -- fault injection -------------------------------------------------
    def _queue_fault(self) -> None:
        """Queue the next fault once its predecessor has fired and it is
        due by the next scan: after the predecessor's effects, and never
        one that a stopped run falls short of."""
        events = self.schedule.events
        i = self._next_fault
        if not self._fault_queued and i < len(events) and events[i].time <= self._scan_at:
            self._fault_queued = True
            self.rt.engine._at_time(events[i].time, self._inject, ())

    def _inject(self) -> None:
        """Apply the queued fault and every later one that shares its stamp."""
        rt = self.rt
        events = self.schedule.events
        i = self._next_fault
        while not rt.stopping and i < len(events) and events[i].time <= rt.engine.now:
            self._apply(events[i])
            i += 1
        self._next_fault = i
        self._fault_queued = False
        if not rt.stopping:
            self._queue_fault()

    def _apply(self, event: FaultEvent) -> None:
        self.events_applied.append(event)
        self._EFFECTS[FAULT_TABLE[event.kind].effect](self, event)

    def _outage(self, event: FaultEvent) -> None:
        """Crash every worker in the scope at once. Detection is honest,
        like a single crash: the monitor evicts the silent batch."""
        if FAULT_TABLE[event.kind].scope != "worker":  # a worker's is its crash record
            self._record_scoped(event.kind, event)
        for wid in self._workers_of(event):
            self._crash(wid, rejoin_after=event.rejoin_after)

    def _hold(self, event: FaultEvent) -> None:
        self._record_scoped(event.kind, event, f"duration={event.duration}")
        self.link_model.hold(*self._target(event), self.rt.engine.now + event.duration)

    def _drop(self, event: FaultEvent) -> None:
        self._record_scoped(event.kind, event, f"prob={event.drop_prob}")
        self.link_model.drop(
            *self._target(event), self.rt.engine.now + event.duration, event.drop_prob
        )

    def _degrade(self, event: FaultEvent) -> None:
        """Open one degrade window. Overlapping windows on one target
        each close only themselves, and the slowest open one sets the
        rate: the max-severity rule partitions follow."""
        self._record_scoped(event.kind, event, f"fraction={event.rate_fraction}")
        target = self._target(event)
        fractions = self._degraded.setdefault(target, [])
        fractions.append(event.rate_fraction)
        self._set_rate(target, min(fractions))
        self.rt.engine._at(event.duration, self._restore, (event,))

    def _restore(self, event: FaultEvent) -> None:
        """Close one degrade window, recorded as the kind's first word + ``_restore``."""
        target = self._target(event)
        fractions = self._degraded[target]
        fractions.remove(event.rate_fraction)
        self._set_rate(target, min(fractions, default=1.0))
        self._record_scoped(f"{event.kind.partition('_')[0]}_restore", event)

    def _set_rate(self, target: tuple[str | None, int | None], fraction: float) -> None:
        network = self.rt.ctx.network
        scope, index = target
        if scope == "machine":
            network.scale_machine_rate(index, fraction)
        elif scope == "rack":
            network.scale_rack_uplink(index, fraction)
        else:
            network.scale_spine(fraction)

    def _arm_gradient(self, event: FaultEvent) -> None:
        self.grad_model.arm(event, self.rt.engine.now)
        self._record(
            f"arm_{event.kind}",
            worker=event.worker,
            machine=self.rt.workers[event.worker].machine,
        )

    _EFFECTS = {
        CRASH: _outage,
        HOLD: _hold,
        DROP: _drop,
        DEGRADE: _degrade,
        GRAD: _arm_gradient,
    }

    # -- gradient corruption ---------------------------------------------
    def corrupt_gradient(self, slot: "WorkerSlot", grad):
        """Apply any armed gradient faults to one worker's fresh
        gradient (called from the gradient-production hook)."""
        if not self._grad_armed:
            return grad
        grad, applied = self.grad_model.corrupt(slot.wid, grad, self.rt.engine.now)
        for kind in applied:
            self._record(kind, worker=slot.wid, machine=slot.machine)
        return grad

    def _crash(self, wid: int, *, rejoin_after: float | None = None) -> None:
        """Kill a worker's processes. Detection is left to the monitor."""
        if wid in self.dead or not self.membership.is_live(wid):
            return
        rt = self.rt
        slot = rt.workers[wid]
        self.dead.add(wid)
        self.iterations_lost += slot.iterations
        self._kill_owned(wid)
        self._silence(wid)
        slot.node.flush()
        rt.tracer.flush_open(rt.engine.now, worker=wid)
        self._record("crash", worker=wid, machine=slot.machine)
        if rejoin_after is not None:
            self._rejoining.add(wid)
            rt.engine.spawn(self._rejoin(wid, rejoin_after), name=f"rejoin.w{wid}")
        self._stop_if_deserted()

    def _stop_if_deserted(self) -> bool:
        """End the run once nobody is left to train and nobody is
        coming back: every member is dead and no rejoin is pending."""
        deserted = not self._rejoining and self.membership.live <= self.dead
        if deserted:
            self.rt.stopping = True
        return deserted

    def _kill_owned(self, wid: int) -> None:
        for process, owner in self._procs:
            if owner == wid and process.alive:
                process.kill()

    def _evict(self, wid: int, kind: str = "evict") -> None:
        """Fence ``wid`` and restart the protocol without it.

        A sole member that is merely partitioned stays; a dead one goes,
        so a pending rejoin can go through. An eviction that leaves only
        dead members and no pending rejoin ends the run instead of
        restarting the protocol.
        """
        members = self.membership
        if not members.is_live(wid) or (len(members) <= 1 and wid not in self.dead):
            return
        self._suspicion.pop(wid, None)
        rt = self.rt
        slot = rt.workers[wid]
        # Fencing: even if the worker is only partitioned, its processes
        # die now — it must not keep mutating state in the old epoch.
        self._kill_owned(wid)
        self._silence(wid)
        self.dead.add(wid)
        rt.tracer.flush_open(rt.engine.now, worker=wid)
        log = self.quarantines if kind == "quarantine" else self.evictions
        log.append({"time": rt.engine.now, "worker": wid, "iterations": slot.iterations})
        self._record(kind, worker=wid, machine=slot.machine)
        members.evict(wid)
        if not self._stop_if_deserted():
            self._membership_changed()

    def quarantine(self, wid: int) -> None:
        """Evict a worker the *data plane* convicted (repeated gradient
        corruption or screening rejections), mirroring the failure
        detector's eviction but attributed separately.

        Must not be called from inside a registered process — the
        membership change kills them all, including the caller. Callers
        defer through ``engine._immediate(controller.quarantine, (wid,))``
        instead.
        """
        self._evict(wid, "quarantine")

    # -- membership protocol ---------------------------------------------
    def _membership_changed(self) -> None:
        """Uniform kill-and-respawn: restart the protocol over the live
        set. Shard parameters and worker models persist; round state and
        in-flight messages do not."""
        rt = self.rt
        # Beats that landed before the bump count; the rest go stale.
        self._fold()
        self._stale += [arrival for entry in self._flight for arrival in entry[4]]
        self._flight = []
        self._bumped_at = rt.engine.now
        rt.ctx.epoch += 1
        procs, self._procs = self._procs, []
        for process, _owner in procs:
            if process.alive:
                process.kill()
        for node in rt.nodes_by_id.values():
            node.flush()
        rt.tracer.flush_open(rt.engine.now)
        self.algorithm.on_membership_change(rt)

    # -- elastic rejoin --------------------------------------------------
    def _rejoin(self, wid: int, delay: float):
        rt = self.rt
        cfg = self.config
        yield Timeout(delay)
        # The cluster must have noticed the death first: rejoining while
        # the old incarnation is still a member would fork the view.
        while wid not in self.membership.evicted and not rt.stopping:
            yield Timeout(cfg.heartbeat_interval)
        if rt.stopping:
            return
        snapshot = capture_snapshot(rt, self.algorithm)
        slot = rt.workers[wid]
        live = self.membership.live
        # With no PS and no live peer the rejoiner reloads its own
        # replica: nothing crosses the network.
        if rt.ps_nodes or live:
            src_node: Node = rt.ps_nodes[0] if rt.ps_nodes else rt.workers[min(live)].node
            src_node.sent_messages += 1
            src_node.sent_bytes += snapshot.nbytes
            yield rt.ctx.network.transfer(src_node.machine, slot.machine, snapshot.nbytes)
            if rt.stopping:
                return
        restore_snapshot(rt, slot, snapshot)
        self.dead.discard(wid)
        self._rejoining.discard(wid)
        self.membership.join(wid)
        self.rejoins.append(
            {"time": rt.engine.now, "worker": wid, "iterations": snapshot.iterations}
        )
        self._record("rejoin", worker=wid, machine=slot.machine)
        self._seen()
        self._last_seen[wid] = rt.engine.now
        self._membership_changed()
        self._start_cohort([wid])

    # -- reporting -------------------------------------------------------
    def _record(
        self,
        kind: str,
        *,
        worker: int | None = None,
        machine: int | None = None,
        detail: str = "",
    ) -> None:
        obs = self.rt.obs
        if obs is not None:
            obs.fault_event(
                now=self.rt.engine.now,
                kind=kind,
                worker=worker,
                machine=machine,
                detail=detail,
            )

    def _record_scoped(self, name: str, event: FaultEvent, param: str = "") -> None:
        """A machine-, rack- or spine-scoped event's record: ``machine=``
        for a machine, a ``rack=`` detail for a rack, then ``param``."""
        scope, target = self._target(event)
        rack = f"rack={target}" if scope == "rack" else ""
        self._record(
            name,
            machine=target if scope == "machine" else None,
            detail=" ".join(part for part in (rack, param) if part),
        )

    def summary(self) -> dict:
        """Fault outcome, attached to result metadata. Beats that landed
        by the end of the run count, also on a run cut at its horizon."""
        self._fold()
        return {
            "events_applied": len(self.events_applied),
            "evictions": self.evictions,
            "rejoins": self.rejoins,
            "quarantines": self.quarantines,
            "grad_corruptions": self.grad_model.summary(),
            "iterations_lost": self.iterations_lost,
            "final_live_workers": self.membership.live_sorted(),
            "membership_generation": self.membership.generation,
            "stale_epoch_drops": self.rt.ctx.dropped_messages,
            "messages_delayed": self.link_model.messages_delayed,
            "retransmits": self.link_model.retransmits,
        }
