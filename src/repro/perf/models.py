"""Closed-form iteration-time models of the seven algorithms.

Each model consumes a :class:`~repro.core.config.RunConfig` and reads
the inputs the discrete-event runner builds from their constructors —
layer profile, sharding plan, comm plan, per-worker speed draws,
cost-model constants, cluster geometry — and produces an iteration-time estimate in O(layers
+ machines) instead of O(events). Two model families:

* **round-chain models** (BSP, AR-SGD): one synchronous round is a
  chain of pipelined stages; each stage is a small busy-period
  recursion over the comm-plan entries (bus drain, NIC serialisation,
  PS ingress, PS processing), and the round time is the end of the
  chain. Stochastic compute (persistent speeds × lognormal jitter)
  enters through the expected *maximum* over the participating
  workers, computed by numerically integrating the max-CDF.
* **throughput-bound models** (ASP, SSP, EASGD, GoSGD, AD-PSGD): the
  asynchronous algorithms behave like a closed queueing network; the
  cluster rate is the minimum of the compute rate (sum of per-worker
  cycle rates) and every shared station's service capacity (NIC tx/rx
  per machine, intra-machine bus, PS shard lanes, ToR uplinks).

The models are *calibrated against the discrete-event engine* (see
``tests/perf``): within 10 % of simulated throughput at N ≤ 64 for all
seven algorithms on the flat paper topology at fig-2 settings.
Hierarchical fabrics and collectives reuse the same machinery with
extra uplink stations/stages but are validated more loosely —
cross-check a sampled point against the engine before trusting a new
regime (see EXPERIMENTS.md, "Scaling to 10,000 workers").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.comm.hierarchical import DEFAULT_TREE_ARITY
from repro.comm.ps import place_shards
from repro.core.base import is_centralized
from repro.core.config import RunConfig
from repro.core.runner import compute_model, timing_plans
from repro.nn.zoo import ModelProfile
from repro.optimizations.sharding import ShardingPlan
from repro.optimizations.waitfree import CommPlan

__all__ = [
    "PerfEstimate",
    "ModelInputs",
    "build_inputs",
    "estimate_iteration",
    "expected_max_lognormal",
    "SUPPORTED_ALGORITHMS",
]

SUPPORTED_ALGORITHMS = ("bsp", "asp", "ssp", "easgd", "ar-sgd", "gosgd", "ad-psgd")


# --------------------------------------------------------------------------
# order statistics of jittered compute times
# --------------------------------------------------------------------------


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Vectorised standard-normal CDF (Abramowitz & Stegun 7.1.26,
    |error| < 1.5e-7 — numpy has no erf and scipy is not a dependency)."""
    z = np.abs(x) / math.sqrt(2.0)
    t = 1.0 / (1.0 + 0.3275911 * z)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    erf = 1.0 - poly * np.exp(-z * z)
    return np.where(x >= 0, 0.5 * (1.0 + erf), 0.5 * (1.0 - erf))


def expected_max_lognormal(values: np.ndarray, sigma: float) -> float:
    """E[max_i v_i·J_i] for independent lognormal jitters J_i ~ LN(0, σ²).

    This is the expected duration of a synchronisation barrier over
    workers with mean compute times ``values``. Computed by integrating
    the survival function of the maximum: values are bucketed into at
    most 64 weighted atoms (exact for the top contenders), so the cost
    is O(n) once and ~16k flops after, independent of worker count.
    A barrier depends only on its worker set, so results are memoised
    on the exact inputs: a sweep over algorithms and bandwidths
    integrates once per set of compute times.
    """
    values = np.ascontiguousarray(values, dtype=float)
    return _expected_max(values.tobytes(), sigma)


@functools.lru_cache(maxsize=32)
def _expected_max(values: bytes, sigma: float) -> float:
    v = np.frombuffer(values)
    v = v[v > 0]
    if v.size == 0:
        return 0.0
    vmax = float(v.max())
    if sigma <= 0:
        return vmax
    # Only values within 8σ of the leader can plausibly win the max.
    v = v[v >= vmax * math.exp(-8.0 * sigma)]
    mu = np.sort(np.log(v))
    if mu.size > 64:
        top = mu[-8:]
        rest = mu[:-8]
        atoms: list[float] = []
        weights: list[float] = []
        for chunk in np.array_split(rest, 56):
            if chunk.size:
                atoms.append(float(chunk.mean()))
                weights.append(float(chunk.size))
        atom_arr = np.concatenate([np.asarray(atoms), top])
        weight_arr = np.concatenate([np.asarray(weights), np.ones(top.size)])
    else:
        atom_arr = mu
        weight_arr = np.ones(mu.size)
    n_eff = max(float(weight_arr.sum()), 2.0)
    lo = vmax * math.exp(-4.0 * sigma)
    hi = vmax * math.exp(sigma * (math.sqrt(2.0 * math.log(n_eff)) + 5.0))
    t = np.linspace(lo, hi, 257)
    z = (np.log(t)[:, None] - atom_arr[None, :]) / sigma
    log_f = (np.log(np.clip(_norm_cdf(z), 1e-300, 1.0)) * weight_arr[None, :]).sum(
        axis=1
    )
    tail = 1.0 - np.exp(log_f)
    return lo + _trapezoid(tail, t)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """∫y dx by the trapezoid rule, evaluated as numpy 2's
    ``np.trapezoid`` does (numpy 1.x has no ``trapezoid``)."""
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


# --------------------------------------------------------------------------
# shared model inputs
# --------------------------------------------------------------------------


@dataclass
class ModelInputs:
    """Everything the per-algorithm models need, built once per config.

    Reads what ``DistributedRunner._build`` builds, from the same
    constructors: the interned profile and plans of ``timing_plans``,
    the speed draws and base time of ``compute_model``, the cluster's
    rates — so prediction and simulation disagree only through the
    analytic approximations, never through inputs.
    """

    cfg: RunConfig
    profile: ModelProfile
    sharding: ShardingPlan
    plan: CommPlan

    N: int  # workers
    L: int  # machines actually hosting workers
    g: int  # GPUs per machine (max group size)
    gm: np.ndarray  # workers per machine, len = cluster.machines
    machine_of: np.ndarray  # machine of each worker, len = N
    S: int  # PS shards (1 for decentralized algorithms)

    r: float  # network bytes/s per NIC direction
    beta: float  # intra-machine bus bytes/s
    lat: float  # network one-way latency
    ilat: float  # bus latency
    ov: float  # per-message software overhead
    agg: float  # PS aggregation seconds/byte
    red: float  # worker-side reduce seconds/byte

    M: int  # dense model bytes on the wire
    entry_bytes: np.ndarray  # per comm-plan entry
    entry_offset: np.ndarray
    entry_shard: np.ndarray
    B: np.ndarray  # bytes per shard
    Bm: np.ndarray  # shard bytes colocated with machine m
    shard_machine: np.ndarray

    c: np.ndarray  # per-worker mean compute seconds (base/speed)
    sigma: float
    Ej: float  # mean lognormal jitter factor exp(σ²/2)
    cmax: float = field(init=False)  # E[max_i c_i·J_i]

    # hierarchical fabric (None rates => flat)
    racks: int = 1
    mpr: int = 0  # machines per rack (0 = flat)
    r_up: float = 0.0  # ToR uplink bytes/s
    spine: float = 0.0  # extra one-way spine latency

    def __post_init__(self) -> None:
        self.cmax = expected_max_lognormal(self.c, self.sigma)

    @property
    def hierarchical(self) -> bool:
        return self.racks > 1

    def xlat(self) -> float:
        """One-way latency of a typical inter-machine hop: inter-rack
        hops pay the spine; weight by the chance a hop crosses racks."""
        if not self.hierarchical:
            return self.lat
        frac_cross = (self.racks - 1) / self.racks
        return self.lat + self.spine * frac_cross

    def rack_bytes(self, machine: int) -> float:
        """Shard bytes hosted inside ``machine``'s rack."""
        if not self.hierarchical:
            return float(self.B.sum())
        rack = machine // self.mpr
        lo, hi = rack * self.mpr, (rack + 1) * self.mpr
        return float(self.Bm[lo:hi].sum())


def build_inputs(cfg: RunConfig) -> ModelInputs:
    if cfg.mode != "timing":
        raise ValueError("analytic models support timing mode only")
    algo = cfg.algorithm.lower().replace("_", "-")
    if algo not in SUPPORTED_ALGORITHMS:
        raise ValueError(f"no analytic model for algorithm {cfg.algorithm!r}")
    if cfg.dgc or cfg.robust is not None or cfg.faults is not None:
        raise ValueError(
            "analytic models cover the dense fault-free paths only "
            "(dgc/robust/faults need the discrete-event engine)"
        )

    requested = cfg.num_ps_shards if is_centralized(algo) else 1
    profile, sharding, plan = timing_plans(
        cfg.profile_name, requested, cfg.sharding_strategy, cfg.wait_free_bp
    )

    cluster = cfg.cluster
    N = cfg.num_workers
    g_cfg = cluster.machine.gpus
    L = (N + g_cfg - 1) // g_cfg
    gm = np.clip(N - g_cfg * np.arange(cluster.machines), 0, g_cfg)

    compute = compute_model(cfg, profile)
    sigma = cfg.jitter_sigma
    comm = cfg.comm_model

    entries = plan.entries
    entry_bytes = np.array([e.nbytes for e in entries], dtype=float)
    entry_offset = np.array([e.ready_offset for e in entries], dtype=float)
    entry_shard = np.array([e.shard_id for e in entries], dtype=np.int64)
    S = sharding.num_shards
    B = np.array(sharding.shard_bytes(), dtype=float)
    shard_machine = np.array(place_shards(S, cluster.machines), dtype=np.int64)
    Bm = np.zeros(cluster.machines, dtype=float)
    np.add.at(Bm, shard_machine, B)

    hier = cluster.hierarchical
    return ModelInputs(
        cfg=cfg,
        profile=profile,
        sharding=sharding,
        plan=plan,
        N=N,
        L=L,
        g=int(gm[:L].max()) if L else 1,
        gm=gm,
        machine_of=np.arange(N) // g_cfg,
        S=S,
        r=cluster.network_bytes_per_s,
        beta=cluster.intra_bytes_per_s,
        lat=cluster.network_latency_s,
        ilat=cluster.machine.intra_latency_s,
        ov=comm.per_message_overhead_s,
        agg=comm.agg_seconds_per_byte,
        red=comm.reduce_seconds_per_byte,
        M=plan.total_bytes,
        entry_bytes=entry_bytes,
        entry_offset=entry_offset,
        entry_shard=entry_shard,
        B=B,
        Bm=Bm,
        shard_machine=shard_machine,
        c=compute.base_time / compute.speeds,
        sigma=sigma,
        Ej=math.exp(sigma * sigma / 2.0),
        racks=cluster.num_racks if hier else 1,
        mpr=cluster.machines_per_rack or 0 if hier else 0,
        r_up=cluster.uplink_bytes_per_s if hier else 0.0,
        spine=cluster.spine_latency if hier else 0.0,
    )


@dataclass
class PerfEstimate:
    """Analytic estimate of one config's steady-state timing."""

    algorithm: str
    round_time: float  # seconds per synchronous round / mean worker cycle
    throughput: float  # images/s, cluster aggregate
    regime: str
    breakdown: dict[str, float]  # seconds by category along the iteration
    bounds: dict[str, float]  # named candidate bounds (rates or stage ends)


def _chain_breakdown(*stages: tuple[str, float]) -> dict[str, float]:
    """Seconds by category of an iteration whose ``(category, seconds)``
    stages run one after another. A stage is credited the difference of
    the running finish times around it, not its raw duration; stages
    that add no time are left out."""
    out: dict[str, float] = {}
    finish = 0.0
    for category, seconds in stages:
        start, finish = finish, finish + float(seconds)
        if finish - start > 0:
            out[category] = out.get(category, 0.0) + (finish - start)
    return out


# --------------------------------------------------------------------------
# round-chain models: BSP, AR-SGD
# --------------------------------------------------------------------------


def _bsp_local_agg(mi: ModelInputs) -> np.ndarray:
    """When each entry's group mean is complete on the worst machine:
    g−1 peer copies of the entry drain over the bus, and the leader
    holds the mean when the slowest copy lands."""
    o, b = mi.entry_offset, mi.entry_bytes
    if mi.g == 1:
        return o * mi.cmax
    # A peer shares its machine with the worker before it.
    peers = np.diff(mi.machine_of, prepend=-1) == 0
    cbar_peer = float(mi.c[peers].mean()) * mi.Ej
    complete = np.empty(len(b))
    busfin = 0.0
    for e in range(len(b)):
        busfin = max(o[e] * cbar_peer, busfin) + (mi.g - 1) * b[e] / mi.beta
        complete[e] = max(busfin, o[e] * mi.cmax + b[e] / mi.beta) + mi.ilat
    return complete


def _bsp_leader_tx(
    mi: ModelInputs, complete: np.ndarray, frac_remote: float
) -> tuple[np.ndarray, float]:
    """A leader's NIC serialises the ``frac_remote`` share of each entry
    that leaves its machine, in plan order: when each entry starts
    transmitting at the slowest leader, and when the last one ends."""
    b = mi.entry_bytes
    dep = np.empty(len(b))
    txfin = 0.0
    for e in range(len(b)):
        dep[e] = start = max(complete[e], txfin)
        txfin = start + frac_remote * b[e] / mi.r
    return dep, txfin


def _bsp_shard_fold(mi: ModelInputs, arrive: np.ndarray, fan_in: int) -> np.ndarray:
    """When each shard has applied the round: ``fan_in`` copies of each
    entry arrive from ``arrive`` on, fan_in − 1 of them serialise into
    the shard machine's NIC, and the shard folds every copy at the PS
    aggregation rate."""
    b, sid = mi.entry_bytes, mi.entry_shard
    rxdone = np.zeros(mi.S)
    sdone = np.zeros(mi.S)
    for e in range(len(b)):
        s = sid[e]
        first_del = max(rxdone[s], arrive[e]) + b[e] / mi.r
        rxdone[s] = max(rxdone[s], arrive[e]) + (fan_in - 1) * b[e] / mi.r
        proc = mi.ov + b[e] * mi.agg
        sdone[s] = max(max(sdone[s], first_del) + fan_in * proc, rxdone[s] + proc)
    return sdone + mi.ov + mi.B * mi.agg  # apply step


def _bsp_estimate(
    mi: ModelInputs, complete: np.ndarray, t_out: float, bound: str
) -> PerfEstimate:
    """The round after its global stage ends at ``t_out``: the leaders
    broadcast the new model over the bus, and the four stages make the
    estimate."""
    cmax = mi.cmax
    bcast = (mi.g - 1) * mi.M / mi.beta + mi.ilat if mi.g > 1 else 0.0
    T = t_out + bcast
    local_done = float(complete[-1])
    return PerfEstimate(
        algorithm="bsp",
        round_time=T,
        throughput=mi.N * mi.cfg.batch_size / T,
        regime="compute-bound" if T < 2 * cmax else "network-bound",
        breakdown=_chain_breakdown(
            ("compute", cmax),
            ("local_agg", max(0.0, local_done - cmax)),
            ("global_agg", max(0.0, t_out - local_done)),
            ("local_agg", bcast),
        ),
        bounds={"round": T, "compute": cmax, bound: t_out},
    )


def _predict_bsp(mi: ModelInputs) -> PerfEstimate:
    if mi.cfg.ps_topology == "tree":
        return _predict_bsp_tree(mi)
    E = len(mi.entry_bytes)
    b, sid = mi.entry_bytes, mi.entry_shard
    L, S = mi.L, mi.S
    # Phase 1 — local aggregation on the worst machine.
    complete = _bsp_local_agg(mi)

    xlat = mi.xlat()
    if L > 1:
        # Phase 2 — each leader's NIC carries the (L−1)/L share of
        # every entry that is bound for other machines' shards.
        dep, txfin = _bsp_leader_tx(mi, complete, (L - 1) / L)
        arr = dep + xlat
        if mi.hierarchical:
            # The rack's ToR uplink carries every leader-in-rack copy of
            # every cross-rack entry; its drain can gate arrivals.
            lpr = min(mi.mpr, L)
            frac_cross = (mi.racks - 1) / mi.racks
            upfin = 0.0
            for e in range(E):
                upfin = max(dep[e] + mi.lat, upfin) + lpr * frac_cross * b[e] / mi.r_up
                arr[e] = max(arr[e], upfin + mi.spine)

        # Phase 3 — each shard takes one copy from every leader.
        shard_done = _bsp_shard_fold(mi, arr, L)

        # Phase 4 — replies. Every shard replies to the leaders in the
        # same order (the order the leaders' forwards arrived), so the
        # reply copies reach the leaders in *aligned waves*: leader k's
        # replies all ride wave k. The round ends when the last-wave
        # leader has drained its replies — a busy period over one
        # arrival per shard, where shard s's copy leaves its (possibly
        # still busy) tx port after the L−2 earlier waves and then
        # serialises on the leader's rx. When the shards finish
        # together (small S, interleaved slices) this degenerates to
        # shard-tx serialisation followed by a full rx drain — the
        # dominant BSP cost at 10 Gbps — and when they finish spread
        # out (large S, narrow slices) the straggler shard's tx
        # overlaps the earlier drains (both regimes engine-traced).
        start_s = np.maximum(shard_done, txfin)
        arrivals = start_s + max(L - 2, 0) * mi.B / mi.r
        service = mi.B / mi.r
        remote_reply = mi.shard_machine[:S] != (L - 1)
        t = 0.0
        for i in np.argsort(arrivals):
            if remote_reply[i]:
                t = max(t, float(arrivals[i])) + float(service[i])
        t_replies = (t if t > 0.0 else float(np.max(start_s))) + xlat
        if mi.hierarchical:
            # Reply bytes leaving a rack's shards cross its uplink too.
            down = max(
                (L - min(mi.mpr, L)) * mi.rack_bytes(int(mi.shard_machine[s]))
                for s in range(S)
            )
            t_replies = max(
                t_replies, float(np.min(shard_done)) + mi.spine + down / mi.r_up
            )
    else:
        # Single machine: forwards and replies ride the bus.
        busfwd = 0.0
        deliver = np.empty(E)
        for e in range(E):
            busfwd = max(complete[e], busfwd) + b[e] / mi.beta
            deliver[e] = busfwd + mi.ilat
        sdone = np.zeros(S)
        for e in range(E):
            s = sid[e]
            sdone[s] = max(sdone[s], deliver[e]) + mi.ov + b[e] * mi.agg
        shard_done = sdone + mi.ov + mi.B * mi.agg
        t_replies = float(np.max(shard_done + mi.B / mi.beta)) + mi.ilat

    return _bsp_estimate(mi, complete, t_replies, "replies")


def _predict_bsp_tree(mi: ModelInputs) -> PerfEstimate:
    """BSP with per-rack aggregators (``ps_topology='tree'``).

    Same chain as flat BSP, but machine leaders feed a rack aggregator
    (fan-in = machines per rack, intra-rack traffic) and the shards'
    fan-in drops to the rack count; replies retrace the tree.
    """
    E = len(mi.entry_bytes)
    b, L = mi.entry_bytes, mi.L
    R = mi.racks if mi.hierarchical else 1
    lpr = min(mi.mpr, L) if mi.hierarchical else L
    complete = _bsp_local_agg(mi)

    # Leaders → rack aggregator (intra-rack hop, lpr−1 remote copies),
    # with the aggregator paying the PS agg rate per received copy.
    dep, _ = _bsp_leader_tx(mi, complete, 1.0)
    ragg_rx = 0.0
    ragg_done = np.empty(E)
    for e in range(E):
        ragg_rx = max(dep[e] + mi.lat, ragg_rx) + max(lpr - 1, 0) * b[e] / mi.r
        ragg_done[e] = ragg_rx + lpr * (mi.ov + b[e] * mi.agg)

    # Rack aggregators → shards: fan-in R, spine-crossing hop.
    xlat = mi.lat + (mi.spine if R > 1 else 0.0)
    shard_done = _bsp_shard_fold(mi, ragg_done + xlat, R)

    # Replies retrace the tree: shard → R aggregators → lpr leaders.
    t_shard_out = float(np.max(shard_done + max(R - 1, 0) * mi.B / mi.r)) + xlat
    t_ragg_out = t_shard_out + max(lpr - 1, 0) * mi.M / mi.r + mi.lat
    return _bsp_estimate(mi, complete, t_ragg_out, "tree_out")


def _ring_step_costs(mi: ModelInputs, step_bytes: float) -> float:
    """Per-step cadence of a worker ring: the slowest hop's delivery.

    Per step every worker forwards ``step_bytes``; intra-machine hops
    share the bus (g−1 of them per machine, or the whole ring when it
    never leaves a machine) while each machine's NIC carries exactly
    one cross-machine hop.
    """
    if mi.L > 1:
        intra = mi.ilat + max(mi.g - 1, 0) * step_bytes / mi.beta if mi.g > 1 else 0.0
        cross = mi.xlat() + step_bytes / mi.r
        return max(intra, cross)
    return mi.ilat + mi.N * step_bytes / mi.beta


def _predict_arsgd(mi: ModelInputs) -> PerfEstimate:
    scheme = mi.cfg.collective or "ring"
    if scheme != "ring" and mi.L > 1:
        return _predict_arsgd_hier(mi, scheme)
    o, b = mi.entry_offset, mi.entry_bytes
    N = mi.N
    if N == 1:
        T = mi.cmax
        return PerfEstimate(
            "ar-sgd",
            T,
            mi.cfg.batch_size / T,
            "compute-bound",
            _chain_breakdown(("compute", T)),
            {"round": T},
        )
    # All per-entry rings run concurrently over the same ports: in
    # steady state each of the 2(N−1) step slots moves the summed
    # per-entry chunk bytes and performs every entry's chunk reduction.
    step_bytes = float(b.sum()) / N
    hop = _ring_step_costs(mi, step_bytes)
    red_step = float(np.sum(mi.ov + (b / N) * mi.red))
    p_rs = hop + red_step
    p_ag = hop
    t_comm = (N - 1) * (p_rs + p_ag)
    start = float(o.min()) * mi.cmax
    # A late entry's own ring still needs its 2(N−1) steps after its
    # readiness on the slowest worker.
    tail = max(
        float(o[e]) * mi.cmax
        + (N - 1)
        * (
            2 * _ring_step_costs(mi, b[e] / N)
            + (mi.ov + (b[e] / N) * mi.red)
        )
        for e in range(len(b))
    )
    T = max(start + t_comm, tail)

    regime = "latency-bound" if hop > 4 * step_bytes / mi.r else (
        "compute-bound" if T < 2 * mi.cmax else "network-bound"
    )
    return PerfEstimate(
        algorithm="ar-sgd",
        round_time=T,
        throughput=N * mi.cfg.batch_size / T,
        regime=regime,
        breakdown=_chain_breakdown(
            ("compute", mi.cmax), ("global_agg", max(0.0, T - mi.cmax))
        ),
        bounds={"round": T, "compute": mi.cmax, "ring": t_comm},
    )


def _predict_arsgd_hier(mi: ModelInputs, scheme: str) -> PerfEstimate:
    """AR-SGD with the hring / tree collective (three-phase schedule)."""
    g, L = mi.g, mi.L
    total = float(mi.entry_bytes.sum())
    # Phase 1: members ship full entry vectors to the machine leader
    # (bus) which folds them serially at the worker reduce rate.
    t1 = (g - 1) * total / mi.beta + mi.ilat + (g - 1) * (
        mi.ov + total * mi.red
    ) if g > 1 else 0.0
    xlat = mi.lat + (mi.spine if mi.racks > 1 else 0.0)
    if scheme == "hring":
        chunk = total / L
        hop = xlat + chunk / mi.r
        t2 = 2 * (L - 1) * hop + (L - 1) * (mi.ov + chunk * mi.red)
    else:  # tree
        arity = DEFAULT_TREE_ARITY
        depth = max(1, math.ceil(math.log(L, arity))) if L > 1 else 0
        cross_levels = (
            min(depth, max(1, math.ceil(math.log(max(mi.racks, 1), arity))))
            if mi.racks > 1
            else 0
        )
        per_level_up = arity * (total / mi.r + mi.ov + total * mi.red)
        per_level_down = arity * total / mi.r
        t2 = depth * (per_level_up + per_level_down + 2 * mi.lat) + cross_levels * (
            2 * mi.spine
        )
    t3 = (g - 1) * total / mi.beta + mi.ilat if g > 1 else 0.0
    T = mi.cmax + t1 + t2 + t3

    return PerfEstimate(
        algorithm="ar-sgd",
        round_time=T,
        throughput=mi.N * mi.cfg.batch_size / T,
        regime="network-bound" if (t1 + t2 + t3) > mi.cmax else "compute-bound",
        breakdown=_chain_breakdown(
            ("compute", mi.cmax), ("local_agg", t1), ("global_agg", t2), ("local_agg", t3)
        ),
        bounds={"round": T, "compute": mi.cmax, "combine": t2},
    )


# --------------------------------------------------------------------------
# throughput-bound models: ASP, SSP, EASGD, GoSGD, AD-PSGD
# --------------------------------------------------------------------------

# Effective utilization ceilings of the NIC ports under sustained PS
# push traffic, calibrated against the discrete-event engine (flat
# topology, g = 4 workers/machine, fig-2 settings). A tx port that
# *blocks* its senders never reaches line rate: the g colocated workers
# synchronize through the shared queue and the port idles during their
# overlapping compute phases. An rx port is an open FIFO drain and gets
# much closer to saturation before delivery delays feed back.
_BLOCKING_TX_CEILING = 0.72
_FIFO_RX_CEILING = 0.93


def _shard_proc_seconds(mi: ModelInputs) -> np.ndarray:
    """PS seconds consumed per shard by one full worker gradient set."""
    proc = np.zeros(mi.S)
    np.add.at(proc, mi.entry_shard, mi.ov + mi.entry_bytes * mi.agg)
    return proc


def _ps_station_bounds(
    mi: ModelInputs,
    *,
    push_freq: float = 1.0,
    reply_freq: float = 1.0,
    proc_freq: float = 1.0,
    lanes: int = 2,
) -> dict[str, float]:
    """Capacity bounds (worker-iterations/s) of every shared station in
    a PS algorithm. ``*_freq`` scale per-iteration traffic (e.g. 1/τ
    for EASGD's periodic exchange, 1/(s+1) for SSP's pulls)."""
    Lm = np.arange(mi.cfg.cluster.machines) < mi.L
    gm = mi.gm.astype(float)
    Bm = mi.Bm
    M = float(mi.M)
    bounds: dict[str, float] = {}
    # NIC per machine (each direction): worker pushes out + shard
    # replies out; symmetric bytes arrive on rx. The worst machine
    # alone is too pessimistic when shard bytes are uneven: a
    # saturated port throttles its *local* senders first (they block
    # on tx serialisation; remote pullers only lag by the wait-free
    # slack), so load rebalances toward the machines hosting smaller
    # shards — engine per-worker rates split ~0.63 vs 0.93 iters/s at
    # N = 64, 10 Gbps. The midpoint of the worst and the load-mean
    # work tracks that multi-class equilibrium across N ≤ 64.
    tx_bytes = gm * (M - Bm) * push_freq + (mi.N - gm) * Bm * reply_freq
    tx_l = tx_bytes[Lm]
    if tx_l.size and float(tx_l.max()) > 0:
        work = 0.5 * (float(tx_l.max()) + float(tx_l.mean()))
        bounds["nic"] = mi.N * mi.r / work
    else:
        bounds["nic"] = math.inf
    # Intra-machine bus: colocated pushes + colocated replies.
    bus_bytes = gm * Bm * (push_freq + reply_freq)
    with np.errstate(divide="ignore"):
        bus = np.where(bus_bytes[Lm] > 0, mi.N * mi.beta / bus_bytes[Lm], np.inf)
    bounds["bus"] = float(bus.min()) if bus.size else math.inf
    # PS shard lanes: aggregation seconds per worker gradient set.
    proc = _shard_proc_seconds(mi) * proc_freq
    with np.errstate(divide="ignore"):
        bounds["shard"] = float((lanes / proc).min())
    # ToR uplinks: cross-rack pushes and replies.
    if mi.hierarchical:
        racks = mi.racks
        up = np.zeros(racks)
        for k in range(racks):
            lo, hi = k * mi.mpr, (k + 1) * mi.mpr
            Gk = float(gm[lo:hi].sum())
            Bk = float(Bm[lo:hi].sum())
            up[k] = max(
                Gk * (M - Bk) * push_freq + (mi.N - Gk) * Bk * reply_freq,
                Gk * (M - Bk) * reply_freq + (mi.N - Gk) * Bk * push_freq,
            )
        with np.errstate(divide="ignore"):
            uplink = np.where(up > 0, mi.N * mi.r_up / up, np.inf)
        bounds["uplink"] = float(uplink.min())
    return bounds


def _rate_estimate(
    mi: ModelInputs,
    cycle: np.ndarray,
    bounds: dict[str, float],
    *,
    algorithm: str,
    cycle_stages: list[tuple[str, float]],
) -> PerfEstimate:
    """Combine per-worker cycle rates with station capacity bounds."""
    compute_rate = float(np.sum(1.0 / cycle))
    cap = min(bounds.values()) if bounds else math.inf
    # Smooth min: the transition from compute- to capacity-bound is not
    # sharp in a closed network (queueing starts before saturation).
    p = 8.0
    rate = (compute_rate**-p + cap**-p) ** (-1.0 / p) if math.isfinite(cap) else (
        compute_rate
    )
    binding = (
        "compute"
        if compute_rate <= cap
        else min(bounds, key=lambda k: bounds[k])
    )
    all_bounds = dict(bounds)
    all_bounds["compute"] = compute_rate
    return PerfEstimate(
        algorithm=algorithm,
        round_time=mi.N / rate,
        throughput=rate * mi.cfg.batch_size,
        regime=f"{binding}-bound",
        breakdown=_chain_breakdown(*cycle_stages),
        bounds=all_bounds,
    )


def _worker_machine_arrays(mi: ModelInputs) -> tuple[np.ndarray, np.ndarray]:
    """Per-worker (remote_push_bytes, local_push_bytes) to the shards."""
    Bm_w = mi.Bm[mi.machine_of]
    return mi.M - Bm_w, Bm_w


def _predict_asp(mi: ModelInputs) -> PerfEstimate:
    layerwise = mi.plan.wait_free
    remote, local = _worker_machine_arrays(mi)
    if layerwise:
        # Wait-free workers never block on the round trip (per-layer
        # pulls stream back under a one-third-of-model slack), so the
        # compute rate is the pure compute cycle; the stations cap it.
        cycle = mi.c * mi.Ej
    else:
        # Full-set workers block for the S replies every iteration.
        proc = _shard_proc_seconds(mi)
        rtt = (
            2 * remote / mi.r
            + 2 * local / mi.beta
            + 2 * mi.xlat()
            + float(np.max(proc))
            + mi.ov
            + float(np.max(mi.B)) * mi.agg
        )
        cycle = mi.c * mi.Ej + rtt
    bounds = _ps_station_bounds(mi, lanes=2)
    push = float(np.mean(remote / mi.r + local / mi.beta))
    return _rate_estimate(
        mi,
        cycle,
        bounds,
        algorithm="asp",
        cycle_stages=[
            ("compute", float(np.mean(mi.c)) * mi.Ej),
            ("global_agg", float(np.mean(cycle - mi.c * mi.Ej)) + push),
        ],
    )


def _predict_ssp(mi: ModelInputs) -> PerfEstimate:
    staleness = int(mi.cfg.algorithm_params.get("staleness", 3))
    remote, local = _worker_machine_arrays(mi)
    pull_freq = 1.0 / (staleness + 1)
    # Every iteration the worker blocks on its own NIC serialisation
    # (block_tx). Wait-free streaming hides most of it under backprop:
    # against the engine roughly half the serialisation escapes the
    # overlap as an end-of-iteration tail (measured at both 10 and
    # 56 Gbps across N = 4..64).
    serialize = remote / mi.r + local / mi.beta
    tx_block = 0.5 * serialize if mi.plan.wait_free else serialize
    # A fetch (every staleness+1 iterations) round-trips the model.
    fetch = (
        2 * mi.xlat()
        + remote / mi.r
        + local / mi.beta
        + mi.S * mi.ov
    )
    cycle = mi.c * mi.Ej + tx_block + fetch * pull_freq
    bounds = _ps_station_bounds(mi, reply_freq=pull_freq, lanes=2)
    # The open-network NIC capacity is too optimistic once pushes load
    # the fabric: a *blocking* tx port serving g closed-loop workers
    # idles in synchronized compute gaps and tops out near 72 %
    # utilization (engine measurement, N = 12..56 at 10 Gbps, matching
    # 4-customer MVA at the knee), while the rx port is an open FIFO
    # drain that saturates near line rate. Replace the generic bound
    # with the two derated ceilings — rx is what bends the curve when
    # every machine hosts a shard (one port hits 97 % at N = 64).
    bounds.pop("nic", None)
    Lm = np.arange(mi.cfg.cluster.machines) < mi.L
    gm_l = mi.gm.astype(float)[Lm]
    Bm_l = mi.Bm[Lm]
    M = float(mi.M)
    tx_work = gm_l * (M - Bm_l) + (mi.N - gm_l) * Bm_l * pull_freq
    rx_work = (mi.N - gm_l) * Bm_l + gm_l * (M - Bm_l) * pull_freq
    with np.errstate(divide="ignore"):
        tx_cap = np.where(
            tx_work > 0, mi.N * _BLOCKING_TX_CEILING * mi.r / tx_work, np.inf
        )
        rx_cap = np.where(
            rx_work > 0, mi.N * _FIFO_RX_CEILING * mi.r / rx_work, np.inf
        )
    if tx_cap.size:
        bounds["nic_tx"] = float(tx_cap.min())
        bounds["nic_rx"] = float(rx_cap.min())
    return _rate_estimate(
        mi,
        cycle,
        bounds,
        algorithm="ssp",
        cycle_stages=[
            ("compute", float(np.mean(mi.c)) * mi.Ej),
            ("global_agg", float(np.mean(tx_block))),
            ("global_agg", float(np.mean(fetch)) * pull_freq),
        ],
    )


def _predict_easgd(mi: ModelInputs) -> PerfEstimate:
    tau = int(mi.cfg.algorithm_params.get("tau", 8))
    remote, local = _worker_machine_arrays(mi)
    # Exchange every τ iterations: push the slice params to each shard,
    # block for the S replies (each shard folds at the PS agg rate).
    # The g colocated workers share one cadence (same τ, ~5 % speed
    # jitter), so their exchanges convoy through the shared NIC and
    # bus: a worker waits behind (g−1)/2 peer serialisations on
    # average, in both directions (engine: +5..10 % cycle at 10 Gbps,
    # growing with the remote fraction, invisible at 56 Gbps).
    convoy = 1.0 + (mi.gm[mi.machine_of].astype(float) - 1.0) / 2.0
    exchange = (
        convoy * (2 * remote / mi.r + 2 * local / mi.beta)
        + 2 * mi.xlat()
        + float(np.max(mi.ov + mi.B * mi.agg))
    )
    cycle = mi.c * mi.Ej + exchange / tau
    freq = 1.0 / tau
    bounds = _ps_station_bounds(
        mi, push_freq=freq, reply_freq=freq, proc_freq=freq, lanes=2
    )
    return _rate_estimate(
        mi,
        cycle,
        bounds,
        algorithm="easgd",
        cycle_stages=[
            ("compute", float(np.mean(mi.c)) * mi.Ej),
            ("global_agg", float(np.mean(exchange)) / tau),
        ],
    )


def _predict_gosgd(mi: ModelInputs) -> PerfEstimate:
    p = float(mi.cfg.algorithm_params.get("p", 0.01))
    gm_w = mi.gm[mi.machine_of].astype(float)
    if mi.N > 1:
        frac_remote = (mi.N - gm_w) / (mi.N - 1)
    else:
        frac_remote = np.zeros(mi.N)
    # A push blocks the sender until its NIC/bus finishes serialising
    # the full model (merges at the receiver are free in virtual time).
    push = frac_remote * mi.M / mi.r + (1.0 - frac_remote) * mi.M / mi.beta
    cycle = mi.c * mi.Ej + p * push
    # Station bound: NIC of a machine carries its workers' remote
    # pushes plus incoming ones (symmetric).
    tx_per_iter = float(np.mean(frac_remote)) * p * mi.M * mi.g
    bounds = {
        "nic": mi.N * mi.r / tx_per_iter if tx_per_iter > 0 else math.inf,
    }
    return _rate_estimate(
        mi,
        cycle,
        bounds,
        algorithm="gosgd",
        cycle_stages=[
            ("compute", float(np.mean(mi.c)) * mi.Ej),
            ("global_agg", float(np.mean(p * push))),
        ],
    )


def _predict_adpsgd(mi: ModelInputs) -> PerfEstimate:
    # Compute never blocks on communication in this simulator (the
    # token store is unbounded), so the rate is exactly the sum of the
    # workers' compute rates; exchanges ride along concurrently.
    cycle = mi.c * mi.Ej
    return _rate_estimate(
        mi,
        cycle,
        {},
        algorithm="ad-psgd",
        cycle_stages=[("compute", float(np.mean(cycle)))],
    )


_MODELS: dict[str, Callable[[ModelInputs], PerfEstimate]] = {
    "bsp": _predict_bsp,
    "asp": _predict_asp,
    "ssp": _predict_ssp,
    "easgd": _predict_easgd,
    "ar-sgd": _predict_arsgd,
    "gosgd": _predict_gosgd,
    "ad-psgd": _predict_adpsgd,
}


def estimate_iteration(cfg: RunConfig) -> PerfEstimate:
    """Analytic steady-state estimate for one run configuration."""
    mi = build_inputs(cfg)
    algo = cfg.algorithm.lower().replace("_", "-")
    return _MODELS[algo](mi)
