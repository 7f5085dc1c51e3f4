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
    GRAD_FAULT_KINDS,
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

# Event kinds that arm the link-fault model on the network (anything
# that manifests as held or retransmitted messages).
_LINK_FAULT_KINDS = ("partition", "drop", "tor_outage", "uplink_flap")

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
        # Only schedules containing link events can ever arm the model;
        # leaving ``network.fault_model`` unset otherwise keeps every
        # transfer on the bare (faults-off) guard. Same idea for the
        # per-gradient corruption hook.
        if any(e.kind in _LINK_FAULT_KINDS for e in self.schedule):
            runtime.ctx.network.fault_model = self.link_model
        self._grad_armed = any(e.kind in GRAD_FAULT_KINDS for e in self.schedule)
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
        # (kind, machine or rack) -> rate fractions of its open degrade windows.
        self._degraded: dict[tuple[str, int | None], list[float]] = {}

    def _validate_events(self, runtime: "Runtime") -> None:
        """Reject events that cannot touch this cluster.

        RunConfig validates worker/machine/rack ranges at construction,
        but a FaultConfig can reach the controller by other routes
        (direct instantiation, ``dataclasses.replace`` on internals), so
        the controller re-checks at start — an out-of-range or
        no-op-by-construction event is a spec bug, never a silent pass.
        """
        cfg = runtime.config
        cluster = cfg.cluster
        check_fault_targets(self.schedule, cfg.num_workers, cluster)
        for event in self.schedule:
            if event.kind == "machine_outage" and not any(
                slot.machine == event.machine for slot in runtime.workers
            ):
                raise ValueError(
                    f"machine_outage targets machine {event.machine}, which "
                    "hosts no workers — the event would be a silent no-op"
                )
            if event.kind == "rack_outage":
                machines = set(cluster.machines_of_rack(event.rack))
                if not any(slot.machine in machines for slot in runtime.workers):
                    raise ValueError(
                        f"rack_outage targets rack {event.rack}, which hosts "
                        "no workers — the event would be a silent no-op"
                    )

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
        if event.kind in GRAD_FAULT_KINDS:
            assert event.worker is not None
            self.grad_model.arm(event, self.rt.engine.now)
            self._record(
                f"arm_{event.kind}",
                worker=event.worker,
                machine=self.rt.workers[event.worker].machine,
            )
        elif event.kind == "crash":
            assert event.worker is not None
            self._crash(event.worker, rejoin_after=event.rejoin_after)
        elif event.kind == "machine_outage":
            self._record("machine_outage", machine=event.machine)
            for slot in self.rt.workers:
                if slot.machine == event.machine:
                    self._crash(slot.wid, rejoin_after=event.rejoin_after)
        elif event.kind == "link_degrade":
            assert event.machine is not None and event.rate_fraction is not None
            self._record(
                "link_degrade",
                machine=event.machine,
                detail=f"fraction={event.rate_fraction}",
            )
            self._degrade(event, event.machine)
        elif event.kind == "partition":
            assert event.machine is not None and event.duration is not None
            self._record(
                "partition", machine=event.machine, detail=f"duration={event.duration}"
            )
            self.link_model.partition(
                event.machine, self.rt.engine.now + event.duration
            )
        elif event.kind == "drop":
            assert event.drop_prob is not None and event.duration is not None
            self._record(
                "drop", machine=event.machine, detail=f"prob={event.drop_prob}"
            )
            self.link_model.set_drop(
                event.machine, self.rt.engine.now + event.duration, event.drop_prob
            )
        elif event.kind == "rack_outage":
            # Correlated crash: every worker under the ToR dies at once.
            # Detection is honest, like a single crash — the whole
            # rack's heartbeats go silent and the monitor evicts the
            # batch within one suspicion cycle.
            assert event.rack is not None
            self._record("rack_outage", detail=f"rack={event.rack}")
            machines = set(self.rt.config.cluster.machines_of_rack(event.rack))
            for slot in self.rt.workers:
                if slot.machine in machines:
                    self._crash(slot.wid)
        elif event.kind == "tor_outage":
            assert event.rack is not None and event.duration is not None
            self._record(
                "tor_outage",
                detail=f"rack={event.rack} duration={event.duration}",
            )
            self.link_model.rack_partition(
                event.rack, self.rt.engine.now + event.duration
            )
        elif event.kind == "uplink_degrade":
            assert event.rack is not None and event.rate_fraction is not None
            self._record(
                "uplink_degrade",
                detail=f"rack={event.rack} fraction={event.rate_fraction}",
            )
            self._degrade(event, event.rack)
        elif event.kind == "uplink_flap":
            assert event.rack is not None and event.drop_prob is not None
            assert event.duration is not None
            self._record(
                "uplink_flap",
                detail=f"rack={event.rack} prob={event.drop_prob}",
            )
            self.link_model.set_rack_drop(
                event.rack, self.rt.engine.now + event.duration, event.drop_prob
            )
        elif event.kind == "spine_degrade":
            assert event.rate_fraction is not None
            self._record(
                "spine_degrade", detail=f"fraction={event.rate_fraction}"
            )
            self._degrade(event, None)

    def _degrade(self, event: FaultEvent, target: int | None) -> None:
        """Open one degrade window. Overlapping windows on one target
        each close only themselves, and the slowest open one sets the
        rate: the max-severity rule partitions follow."""
        assert event.duration is not None
        fractions = self._degraded.setdefault((event.kind, target), [])
        fractions.append(event.rate_fraction)
        self._set_rate(event.kind, target, min(fractions))
        self.rt.engine._at(
            event.duration, self._restore, (event.kind, target, event.rate_fraction)
        )

    def _restore(self, kind: str, target: int | None, fraction: float) -> None:
        fractions = self._degraded[kind, target]
        fractions.remove(fraction)
        self._set_rate(kind, target, min(fractions, default=1.0))
        if kind == "link_degrade":
            self._record("link_restore", machine=target)
        elif kind == "uplink_degrade":
            self._record("uplink_restore", detail=f"rack={target}")
        else:
            self._record("spine_restore")

    def _set_rate(self, kind: str, target: int | None, fraction: float) -> None:
        network = self.rt.ctx.network
        if kind == "link_degrade":
            network.scale_machine_rate(target, fraction)
        elif kind == "uplink_degrade":
            network.scale_rack_uplink(target, fraction)
        else:
            network.scale_spine(fraction)

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
