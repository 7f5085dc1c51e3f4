"""The fault controller: injector, failure detector, membership driver.

One controller per faulty run. It owns:

* the **injector** process — replays the :class:`FaultSchedule` at its
  virtual-time stamps (crashes kill processes, outages crash whole
  machines, link events arm the :class:`LinkFaultModel`);
* the **failure detector** — every worker announces liveness to the
  monitor on machine 0 on a fixed beat (a self-rescheduling callback
  chain — no generator, no per-beat process machinery); the
  monitor evicts a worker whose heartbeats stop, after
  ``max_suspect_rounds`` of exponentially backed-off suspicion. A crash
  is detected *honestly*: the controller kills the worker's processes
  and lets the silence be noticed, it never short-circuits detection;
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
        if effects & {HOLD, DROP}:
            runtime.ctx.network.fault_model = self.link_model
        self._grad_armed = GRAD in effects
        # Processes owned by the training protocol: killed wholesale on
        # membership changes; a crash kills only its worker's entries.
        self._procs: list[tuple[Process, int | None]] = []
        # Heartbeat cancellation tokens: a beat carries the token it was
        # started under and goes silent the moment the slot's token moves
        # on (crash/evict/quarantine bump it; rejoin starts a new chain).
        self._hb_token: dict[int, int] = {}
        self._hb_inline = False  # set for real in start()
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
        """Spawn the detector and injector (after algorithm setup)."""
        rt = self.rt
        # Armed-but-idle fast path: with no scheduled faults, no robust
        # layer (quarantines), no observer, and beat delivery faster
        # than the beat period, nothing can ever go overdue — the epoch
        # never bumps and the monitor never suspects, under either
        # delivery semantics. A beat may then record its own arrival
        # inline (one queue event per beat) instead of scheduling a
        # delivery callback.
        net = rt.ctx.network
        self._hb_inline = (
            len(self.schedule) == 0
            and rt.robust is None
            and rt.obs is None
            and max(net._latency, net._intra_latency)
            < self.config.heartbeat_interval
        )
        if self._hb_inline:
            # The live set is provably constant, so all beat chains
            # collapse into one group tick per period: one queue event
            # where the per-worker chains would cost ``num_workers``.
            # And since nothing can ever go overdue, the monitor's scan
            # can never reach a suspicion — it has no observable effect
            # and is elided entirely.
            self._hb_slots = [
                (wid, rt.workers[wid].node)
                for wid in self.membership.live_sorted()
            ]
            rt.engine._at(self.config.heartbeat_interval, self._hb_tick_all, ())
        else:
            for wid in self.membership.live_sorted():
                self._start_heartbeat(wid)
            rt.engine.spawn(self._monitor(), name="fd.monitor")
        if len(self.schedule):
            rt.engine.spawn(self._injector(), name="fault.injector")

    def _start_heartbeat(self, wid: int) -> None:
        token = self._hb_token.get(wid, 0) + 1
        self._hb_token[wid] = token
        self.rt.engine._at(
            self.config.heartbeat_interval, self._hb_tick, (wid, token)
        )

    def _stop_heartbeat(self, wid: int) -> None:
        """Invalidate the worker's beat chain: the next tick sees a
        stale token and falls silent — a dead worker never announces
        its own death."""
        if wid in self._hb_token:
            self._hb_token[wid] += 1

    def _hb_tick(self, wid: int, token: int) -> None:
        """One beat: wire accounting, schedule the delivery, reschedule.

        This is the armed-but-idle hot path — a plain callback chain,
        two queue events per beat (tick + delivery) and nothing else.
        """
        rt = self.rt
        if token != self._hb_token.get(wid) or rt.stopping:
            return
        node = rt.workers[wid].node
        node.sent_messages += 1
        node.sent_bytes += HEARTBEAT_BYTES
        engine = rt.engine
        delay = rt.ctx.network.oob_delay(node.machine, _MONITOR_MACHINE, HEARTBEAT_BYTES)
        engine._at(delay, self._hb_arrival, (wid, rt.ctx.epoch, engine.now))
        engine._at(self.config.heartbeat_interval, self._hb_tick, (wid, token))

    def _hb_tick_all(self) -> None:
        """One beat for every worker at once — the armed-but-idle path.

        Valid only under the ``_hb_inline`` proof in ``start``: the
        live set never changes, the epoch never bumps, and nothing can
        go overdue, so each arrival folds into the beat itself (the
        same wire accounting and ``last_seen`` values the per-worker
        chains produce, in the same worker order) and the whole
        cluster's beats ride a single queue event per period.
        """
        rt = self.rt
        if rt.stopping:
            return
        engine = rt.engine
        network = rt.ctx.network
        now = engine.now
        last_seen = self._last_seen
        for wid, node in self._hb_slots:
            node.sent_messages += 1
            node.sent_bytes += HEARTBEAT_BYTES
            last_seen[wid] = now + network.oob_delay(
                node.machine, _MONITOR_MACHINE, HEARTBEAT_BYTES
            )
        engine._at(self.config.heartbeat_interval, self._hb_tick_all, ())

    def _hb_arrival(self, wid: int, epoch: int, send_time: float) -> None:
        """Slim heartbeat delivery: the detector's arrival hook.

        Replicates what a mailbox'd heartbeat would have done by the
        next monitor tick — stale-epoch drop accounting, liveness
        timestamp, suspicion clearing, observer message record — without
        the Message/Signal/mailbox event chain. Detection decisions read
        this state only at monitor ticks, so updating it at delivery
        time is behaviourally identical to draining a mailbox at the
        tick.
        """
        rt = self.rt
        ctx = rt.ctx
        if ctx.epoch != epoch:
            ctx.dropped_messages += 1
            return
        now = rt.engine.now
        if now > self._last_seen.get(wid, -1.0):
            self._last_seen[wid] = now
        self._suspicion.pop(wid, None)
        obs = rt.obs
        if obs is not None:
            obs.on_message(
                src_machine=rt.workers[wid].machine,
                dst_machine=_MONITOR_MACHINE,
                kind="hb",
                nbytes=HEARTBEAT_BYTES,
                t_send=send_time,
                t_recv=now,
            )

    # -- fault injection -------------------------------------------------
    def _injector(self):
        rt = self.rt
        step = max(4 * self.config.heartbeat_interval, 1e-6)
        for event in self.schedule:
            while rt.engine.now < event.time and not rt.stopping:
                yield Timeout(min(step, event.time - rt.engine.now))
            if rt.stopping:
                return
            self._apply(event)

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
        self._stop_heartbeat(wid)
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

    # -- failure detection -----------------------------------------------
    def _monitor(self):
        """Heartbeat monitor: suspicion with exponential backoff.

        A worker overdue past ``heartbeat_timeout`` becomes suspect;
        each further overdue check multiplies the deadline by
        ``backoff_factor``; past ``max_suspect_rounds`` the worker is
        declared dead and evicted (with a fencing kill first — STONITH
        — so a merely-partitioned worker cannot resurface in the old
        epoch).
        """
        rt = self.rt
        cfg = self.config
        self._last_seen = {wid: rt.engine.now for wid in self.membership.live_sorted()}
        while not rt.stopping:
            yield Timeout(cfg.heartbeat_interval)
            if rt.stopping:
                return
            now = rt.engine.now
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
        self._stop_heartbeat(wid)
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
        self._last_seen[wid] = rt.engine.now
        self._membership_changed()
        self._start_heartbeat(wid)

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
        """Fault outcome, attached to result metadata."""
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
