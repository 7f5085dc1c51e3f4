"""Property-based tests (hypothesis) on the core data structures and
invariants: the event engine, sharding plans, DGC, collectives, gossip,
the network FIFO model, and the flat-parameter views.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.comm.collectives import chunk_slices, ring_allreduce_plan
from repro.comm.endpoints import CommContext, Node, last_per_port
from repro.comm.gossip import GossipState, gossip_merge, gossip_send_share
from repro.nn import MLP
from repro.nn.zoo import LayerProfile, ModelProfile
from repro.optimizations.dgc import DGCCompressor, DGCConfig
from repro.optimizations.sharding import make_sharding_plan
from repro.optimizations.waitfree import make_comm_plan
from repro.sim.cluster import hierarchical_cluster, paper_cluster
from repro.sim.engine import AllOf, Engine, Signal, Timeout
from repro.sim.network import Network, Port

from tests.conftest import densify, port_stats

COMMON = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- engine
@COMMON
@given(
    delays=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    )
)
def test_engine_time_is_monotone(delays):
    """Virtual time never goes backwards, whatever the process mix."""
    eng = Engine()
    observed = []

    def proc(ds):
        for d in ds:
            yield Timeout(d)
            observed.append(eng.now)

    for ds in delays:
        eng.spawn(proc(ds))
    eng.run()
    assert observed == sorted(observed)
    assert eng.now == pytest.approx(max(sum(ds) for ds in delays))


@COMMON
@given(
    arrivals=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=5, allow_nan=False),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_port_fifo_no_overlap(arrivals):
    """Port reservations never overlap and never precede their arrival."""
    port = Port("p", rate=1e6)
    arrivals = sorted(arrivals)  # causal order
    prev_end = 0.0
    for now, nbytes in arrivals:
        start, end = port.reserve(now, nbytes)
        assert start >= now
        assert start >= prev_end - 1e-12
        assert end == pytest.approx(start + nbytes / 1e6)
        prev_end = end


_ACTIONS = st.one_of(
    # Sleeps are the fabric's own latencies (intra-machine, NIC, spine)
    # and most messages are empty, so timers expire at delivery instants.
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 1e-5, 5e-5, 1.5e-4])),
    st.tuples(
        st.just("send"),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0, 0, 4050]),
        st.sampled_from("ab"),
    ),
    st.tuples(st.just("recv"), st.sampled_from("ab")),
    # A blocking send of one message per destination (equal sizes: ties
    # on every port), returning when the sender's ports have serialised
    # them all.
    st.tuples(
        st.just("bsend"),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        st.sampled_from([0, 4050]),
        st.sampled_from("ab"),
    ),
)


def per_message_blocking_send(node, dsts, kind, nbytes):
    """The old blocking send: a completion on every message."""
    signals = []
    for dst in dsts:
        tx = Signal()
        signals.append(tx)
        node.send_nowait(dst, kind, nbytes=nbytes, tx_done=tx)
    return AllOf(signals)


def per_port_blocking_send(node, dsts, kind, nbytes):
    """Fire-and-forget sends, a completion on each port's last message."""
    tails = last_per_port(node.machine, [dst.machine for dst in dsts])
    signals = []
    for index, dst in enumerate(dsts):
        tx = None
        if index in tails:
            tx = Signal()
            signals.append(tx)
        node.send_nowait(dst, kind, nbytes=nbytes, tx_done=tx)
    return AllOf(signals)


@COMMON
@given(
    scripts=st.lists(st.lists(_ACTIONS, max_size=8), min_size=2, max_size=4),
    racks=st.booleans(),
)
# The smallest tie: node1's timer expires at the instant node0's own
# message lands, so an unconditional in-place resume would run node0
# ahead of node1.
@example(
    scripts=[[("send", 0, 0, "a"), ("recv", "a")], [("sleep", 1e-05), ("send", 0, 0, "a")]],
    racks=False,
)
def test_tail_delivery_is_the_lane_order(scripts, racks):
    """Random process networks over ``Node.send_nowait`` send and receive
    in the same global ``(time, process, message)`` order whether the getter
    is resumed in place or (predicate forced false) through the zero-delay
    lane, and whether a blocking send waits on each port's last message or
    (the old way) on one Signal per message."""

    def run(lane_only, blocking_send=per_port_blocking_send):
        eng = Engine()
        if lane_only:
            eng._idle_now = lambda: False
        spec = (
            hierarchical_cluster(machines=4, machines_per_rack=2)
            if racks
            else paper_cluster(bandwidth_gbps=10, machines=2, gpus_per_machine=2)
        )
        net = Network(eng, spec)
        ctx = CommContext(engine=eng, network=net, cluster=spec)
        nodes = [Node(ctx, i, i % spec.machines) for i in range(len(scripts))]
        trace = []

        def body(node, script):
            for action in script:
                if action[0] == "sleep":
                    yield Timeout(action[1])
                elif action[0] == "send":
                    dst = nodes[action[1] % len(nodes)]
                    node.send_nowait(dst, action[3], nbytes=action[2])
                    trace.append((eng.now, node.name, "sent", dst.name))
                elif action[0] == "bsend":
                    dsts = [nodes[i % len(nodes)] for i in action[1]]
                    yield blocking_send(node, dsts, action[3], action[2])
                    trace.append((eng.now, node.name, "sent", [dst.name for dst in dsts]))
                else:
                    msg = yield node.recv(action[1])
                    trace.append(
                        (eng.now, node.name, msg.src, msg.kind, msg.nbytes, msg.send_time)
                    )

        for node, script in zip(nodes, scripts):
            eng.spawn(body(node, script), node.name)
        eng.run()
        leftovers = [
            (node.name, kind, len(box)) for node in nodes for kind, box in node._mailboxes.items()
        ]
        return (trace, eng.now, port_stats(net), leftovers), eng.events_processed

    tail, tail_events = run(lane_only=False)
    lane, lane_events = run(lane_only=True)
    per_message, per_message_events = run(lane_only=False, blocking_send=per_message_blocking_send)
    assert tail == lane == per_message
    assert tail_events <= lane_events
    assert tail_events <= per_message_events


# ---------------------------------------------------------------- sharding
def random_profile(draw_sizes):
    layers = tuple(
        LayerProfile(name=f"L{i}", kind="fc", params=s, flops=max(2 * s, 1))
        for i, s in enumerate(draw_sizes)
    )
    return ModelProfile(name="prop", layers=layers, input_hw=0)


@COMMON
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30),
    shards=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from(["layerwise-rr", "layerwise-greedy", "element-balanced"]),
)
def test_sharding_plan_is_partition(sizes, shards, strategy):
    """Every strategy yields an exact partition of the flat vector."""
    profile = random_profile(sizes)
    plan = make_sharding_plan(profile, shards, strategy=strategy)
    plan.validate()
    assert sum(s.num_elements for s in plan.shards) == profile.total_params


@COMMON
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=20),
    shards=st.integers(min_value=1, max_value=6),
)
def test_gather_scatter_roundtrip(sizes, shards):
    profile = random_profile(sizes)
    plan = make_sharding_plan(profile, shards)
    flat = np.random.default_rng(0).normal(size=profile.total_params)
    rebuilt = np.zeros_like(flat)
    for shard in plan.shards:
        shard.scatter(rebuilt, shard.gather(flat))
    assert np.array_equal(rebuilt, flat)


@COMMON
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=15),
    shards=st.integers(min_value=1, max_value=4),
    wait_free=st.booleans(),
)
def test_comm_plan_conserves_bytes(sizes, shards, wait_free):
    """Splitting messages by layer must never change the total volume."""
    profile = random_profile(sizes)
    plan = make_sharding_plan(profile, shards)
    comm = make_comm_plan(profile, plan, wait_free=wait_free)
    assert comm.total_bytes == profile.total_bytes
    offsets = [e.ready_offset for e in comm.entries]
    assert offsets == sorted(offsets)
    assert all(0.0 <= o <= 1.0 for o in offsets)


# ---------------------------------------------------------------- DGC
@COMMON
@given(
    n=st.integers(min_value=2, max_value=500),
    ratio=st.floats(min_value=0.01, max_value=1.0),
    steps=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_dgc_mass_conservation(n, ratio, steps, seed):
    """Without momentum/clipping: sent + accumulated == total, always."""
    cfg = DGCConfig(
        final_ratio=ratio, warmup_start_ratio=1.0, warmup_epochs=0.0, momentum=0.0, clip_norm=1e12
    )
    comp = DGCCompressor(n, cfg)
    rng = np.random.default_rng(seed)
    total = np.zeros(n)
    sent = np.zeros(n)
    for _ in range(steps):
        g = rng.normal(size=n)
        total += g
        sparse = comp.compress(g)
        assert sparse.nnz == min(max(1, int(round(ratio * n))), n)
        sent += densify(sparse)
    np.testing.assert_allclose(sent + comp.accumulation, total, atol=1e-9)


@COMMON
@given(
    n=st.integers(min_value=10, max_value=300),
    seed=st.integers(min_value=0, max_value=100),
)
def test_dgc_selects_exactly_the_top_magnitudes(n, seed):
    cfg = DGCConfig(final_ratio=0.1, warmup_epochs=0.0, momentum=0.0, clip_norm=1e12)
    comp = DGCCompressor(n, cfg)
    g = np.random.default_rng(seed).normal(size=n)
    sparse = comp.compress(g)
    k = sparse.nnz
    kth_largest = np.sort(np.abs(g))[-k]
    assert np.min(np.abs(sparse.values)) >= kth_largest - 1e-12


# ---------------------------------------------------------------- collectives
@COMMON
@given(
    world=st.integers(min_value=1, max_value=12),
    total=st.integers(min_value=0, max_value=200),
)
def test_chunk_slices_partition(world, total):
    slices = chunk_slices(total, world)
    assert len(slices) == world
    covered = [i for s in slices for i in range(s.start, s.stop)]
    assert covered == list(range(total))


@COMMON
@given(world=st.integers(min_value=2, max_value=10))
def test_ring_plan_schedules_align(world):
    """Rank r's send at step s must be exactly what rank r+1 expects to
    receive — for every rank, every step."""
    plans = [ring_allreduce_plan(r, world) for r in range(world)]
    for r in range(world):
        right = (r + 1) % world
        for step_idx in range(2 * (world - 1)):
            assert plans[r][step_idx].send_chunk == plans[right][step_idx].recv_chunk


@COMMON
@given(world=st.integers(min_value=2, max_value=8), seed=st.integers(0, 50))
def test_ring_allreduce_computes_exact_sum(world, seed):
    rng = np.random.default_rng(seed)
    total = world * 3 + 1
    slices = chunk_slices(total, world)
    data = [rng.normal(size=total) for _ in range(world)]
    bufs = [d.copy() for d in data]
    plans = [ring_allreduce_plan(r, world) for r in range(world)]
    for step_idx in range(2 * (world - 1)):
        sends = [
            ((r + 1) % world, bufs[r][slices[plans[r][step_idx].send_chunk]].copy())
            for r in range(world)
        ]
        for dst, payload in sends:
            step = plans[dst][step_idx]  # the receiver applies its own plan
            if step.reduce:
                bufs[dst][slices[step.recv_chunk]] += payload
            else:
                bufs[dst][slices[step.recv_chunk]] = payload
    expected = np.sum(data, axis=0)
    for buf in bufs:
        np.testing.assert_allclose(buf, expected, rtol=1e-10)


# ---------------------------------------------------------------- gossip
@COMMON
@given(
    n=st.integers(min_value=2, max_value=10),
    ops=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=50),
)
def test_gossip_weight_conservation(n, ops):
    """Any sequence of send/merge pairs conserves total weight exactly."""
    states = [GossipState(weight=1.0 / n) for _ in range(n)]
    values = [np.array([float(i)]) for i in range(n)]
    for src, dst in ops:
        src %= n
        dst %= n
        if src == dst:
            continue
        share = gossip_send_share(states[src])
        values[dst] = gossip_merge(values[src].copy(), share, states[dst], values[dst])
    assert sum(s.weight for s in states) == pytest.approx(1.0)


@COMMON
@given(
    n=st.integers(min_value=2, max_value=8),
    ops=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40),
)
def test_gossip_weighted_average_invariant(n, ops):
    """Σ wᵢ·xᵢ is invariant under gossip exchanges (push-sum core)."""
    rng = np.random.default_rng(0)
    states = [GossipState(weight=1.0 / n) for _ in range(n)]
    values = [rng.normal(size=3) for _ in range(n)]
    invariant = sum(s.weight * v for s, v in zip(states, values))
    for src, dst in ops:
        src %= n
        dst %= n
        if src == dst:
            continue
        share = gossip_send_share(states[src])
        values[dst] = gossip_merge(values[src].copy(), share, states[dst], values[dst])
    now = sum(s.weight * v for s, v in zip(states, values))
    np.testing.assert_allclose(now, invariant, atol=1e-12)


# ---------------------------------------------------------------- flat views
@COMMON
@given(
    hidden=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=100),
)
def test_flat_parameter_roundtrip(hidden, seed):
    model = MLP(4, tuple(hidden), 3, rng=np.random.default_rng(seed))
    flat = model.get_flat_parameters()
    noise = np.random.default_rng(seed + 1).normal(size=flat.size)
    model.set_flat_parameters(noise)
    assert np.array_equal(model.get_flat_parameters(), noise)
    assert sum(param.size for param in model.parameters()) == flat.size


# ---------------------------------------------------------------- schedules
@COMMON
@given(
    n=st.integers(min_value=1, max_value=64),
    base=st.floats(min_value=1e-4, max_value=1.0),
    total=st.floats(min_value=1.0, max_value=200.0),
)
def test_paper_schedule_invariants(n, base, total):
    """The schedule the runner builds: warm-up never exceeds the peak
    rate; rate is non-increasing after warm-up; final rate is base·n·10⁻³."""
    from repro.core.runner import DistributedRunner
    from repro.experiments.config import timing_config

    config = timing_config("bsp", num_workers=n, base_lr=base, epochs=total)
    s = DistributedRunner(config).runtime.schedule
    peak = base * n
    warm_end = (5.0 / 90.0) * total
    grid = np.linspace(0, total, 97)
    values = [s(e) for e in grid]
    assert all(v <= peak * (1 + 1e-9) for v in values)
    post = [v for e, v in zip(grid, values) if e >= warm_end]
    assert all(a >= b - 1e-12 for a, b in zip(post, post[1:]))
    assert s(total) == pytest.approx(peak * 1e-3)


# ---------------------------------------------------------------- partition
@COMMON
@given(
    n=st.integers(min_value=10, max_value=300),
    workers=st.integers(min_value=1, max_value=12),
    classes=st.integers(min_value=2, max_value=6),
    stratified=st.booleans(),
    seed=st.integers(min_value=0, max_value=50),
)
def test_partition_is_disjoint_and_complete(n, workers, classes, stratified, seed):
    from repro.data import make_gaussian_blobs, partition_dataset

    if n < workers or n < classes:
        return
    data = make_gaussian_blobs(num_samples=n, num_classes=classes, seed=seed)
    # Tag every sample with a unique feature value to track identity.
    data.x[:, 0] = np.arange(n)
    shards = partition_dataset(
        data, workers, rng=np.random.default_rng(seed), stratified=stratified
    )
    ids = np.concatenate([s.x[:, 0] for s in shards])
    assert len(ids) == n
    assert len(np.unique(ids)) == n


# ---------------------------------------------------------------- loader
@COMMON
@given(
    n=st.integers(min_value=8, max_value=100),
    batch=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=20),
)
def test_loader_epoch_covers_every_sample(n, batch, seed):
    from repro.data import BatchLoader, make_gaussian_blobs

    if batch > n:
        return
    data = make_gaussian_blobs(num_samples=n, num_classes=4, seed=seed)
    data.x[:, 0] = np.arange(n)
    loader = BatchLoader(data, batch, rng=np.random.default_rng(seed))
    per_epoch = n // batch
    seen = set()
    for _ in range(per_epoch):
        x, _ = loader.next_batch()
        seen.update(int(v) for v in x[:, 0])
    assert len(seen) == per_epoch * batch  # no sample repeats in an epoch


# ---------------------------------------------------------------- complexity
@COMMON
@given(
    m=st.integers(min_value=1, max_value=10**9),
    n=st.integers(min_value=1, max_value=64),
    s=st.integers(min_value=0, max_value=50),
    tau=st.integers(min_value=1, max_value=50),
    p=st.floats(min_value=0.0, max_value=1.0),
    l=st.integers(min_value=1, max_value=8),
)
def test_table1_complexity_orderings(m, n, s, tau, p, l):
    """Closed-form sanity: volumes are non-negative, bounded by ASP's
    2MN, and monotone in their hyperparameters."""
    from repro.core.complexity import communication_complexity

    asp = communication_complexity("asp", m=m, n=n)
    for algo, kw in [
        ("bsp", dict(l=l)),
        ("ssp", dict(s=s)),
        ("easgd", dict(tau=tau)),
        ("gosgd", dict(p=p)),
        ("ad-psgd", {}),
    ]:
        vol = communication_complexity(algo, m=m, n=n, **kw)
        assert 0 <= vol <= asp + 1e-9
    assert communication_complexity("ssp", m=m, n=n, s=s) >= communication_complexity(
        "ssp", m=m, n=n, s=s + 1
    )
    assert communication_complexity("easgd", m=m, n=n, tau=tau) >= communication_complexity(
        "easgd", m=m, n=n, tau=tau + 1
    )


# ---------------------------------------------------------------- tracing
@COMMON
@given(
    spans=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["compute", "local_agg", "global_agg", "comm"]),
            st.floats(min_value=0, max_value=10),
            st.floats(min_value=0, max_value=10),
        ),
        max_size=30,
    )
)
def test_tracer_fractions_always_normalised(spans):
    from repro.sim.trace import PhaseTracer

    tracer = PhaseTracer()
    for worker, phase, a, b in spans:
        start, end = min(a, b), max(a, b)
        tracer.record(worker, phase, start, end)
    frac = tracer.fractions()
    total = sum(frac.values())
    assert total == pytest.approx(1.0) or total == 0.0
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in frac.values())
