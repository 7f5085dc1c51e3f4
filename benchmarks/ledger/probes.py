"""Isolated probes: one layer's public API at a workload's shapes.

Each looped probe repeats its call until ``loop_s`` has passed and
reports the median per-operation time of ``loops`` such loops; each
one-shot probe (a whole small run) reports the median of ``loops``
calls. They say which layer moved when an end-to-end number does; they
carry no bound and no claim rests on them alone.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

import numpy as np

from repro.core.runner import DistributedRunner, execute_run
from repro.data.loader import BatchLoader
from repro.data.synthetic import make_spirals, make_synthetic_images
from repro.experiments.config import MINI_DATASET, MINI_MODEL, timing_config
from repro.faults.config import FaultConfig
from repro.nn import (
    SGD,
    BatchNorm2d,
    Conv2d,
    Dense,
    MaxPool2d,
    ReLU,
    SoftmaxCrossEntropy,
    build_model,
)
from repro.obs import ObsConfig, analyze_run, build_trace
from repro.perf.predict import predict_run
from repro.sim.cluster import hierarchical_cluster, paper_cluster
from repro.sim.engine import Engine, Get, Timeout
from repro.sim.events import EventQueue
from repro.sim.network import Network

from workloads import worker_iters

ALGORITHMS = {  # metric stem -> algorithm name
    "bsp": "bsp",
    "asp": "asp",
    "ssp": "ssp",
    "easgd": "easgd",
    "arsgd": "ar-sgd",
    "gosgd": "gosgd",
    "adpsgd": "ad-psgd",
}


def _noop(*_args) -> None:
    pass


def spin() -> float:
    """A fixed pure-Python loop plus a fixed matmul loop, in seconds (best
    of three): the host's speed right now, independent of the repo."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        a = np.ones((256, 256)) * 1.0001
        for _ in range(50):
            a = a @ a
            a /= a.max()
        best = min(best, time.perf_counter() - start)
    return best


def host() -> dict:
    """The spin plus the identity of the numerical stack."""
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass  # older numpy: no structured build info
    return {
        "spin_s": spin(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "executable": sys.executable,
    }


class _Timer:
    def __init__(self, loop_s: float, loops: int) -> None:
        self.loop_s = loop_s
        self.loops = loops

    def per_op(self, fn, ops_per_call: int = 1) -> float:
        """Median seconds per operation of ``fn`` looped for ``loop_s``."""
        fn()  # first call pays lazy set-up
        samples = []
        for _ in range(self.loops):
            calls = 0
            start = time.perf_counter()
            while True:
                fn()
                calls += 1
                elapsed = time.perf_counter() - start
                if elapsed >= self.loop_s:
                    break
            samples.append(elapsed / (calls * ops_per_call))
        return statistics.median(samples)

    def one_shot(self, fn):
        """Median seconds of ``loops`` single calls, and the last value."""
        samples, value = [], None
        for _ in range(self.loops):
            start = time.perf_counter()
            value = fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples), value


def _us(seconds: float) -> dict:
    return {"value": seconds * 1e6, "unit": "us"}


def _sim_probes(timer: _Timer, out: dict) -> None:
    rng = np.random.default_rng(0)
    delays = rng.uniform(0.0, 1.0, size=1000).tolist()
    for suffix, depth in (("d1k", 1_000), ("d100k", 100_000)):
        queue = EventQueue()
        for t in rng.uniform(0.0, 1.0, size=depth).tolist():
            queue.push_call(t, _noop, ())
        now = [0.0]

        def push_pop(queue=queue, now=now):
            base = now[0]
            for delay in delays:
                queue.push_call(base + delay, _noop, ())
                base = queue.pop().time
            now[0] = base

        out[f"sim.events.push_pop_us.{suffix}"] = _us(timer.per_op(push_pop, len(delays)))

    hops = 2000

    def store_ping_pong():
        engine = Engine()
        ping, pong = engine.store(), engine.store()

        def server():
            for _ in range(hops):
                yield Get(ping)
                pong.put(1)

        def client():
            for _ in range(hops):
                ping.put(1)
                yield Get(pong)

        engine.spawn(server())
        engine.spawn(client())
        engine.run()

    out["sim.engine.store_hop_us"] = _us(timer.per_op(store_ping_pong, 2 * hops))

    def timeouts():
        engine = Engine()

        def sleeper():
            for _ in range(hops):
                yield Timeout(1.0)

        engine.spawn(sleeper())
        engine.run()

    out["sim.engine.timeout_us"] = _us(timer.per_op(timeouts, hops))

    parties, rounds = 256, 10

    def barrier_rounds():
        engine = Engine()
        barrier = engine.barrier(parties)

        def party():
            for _ in range(rounds):
                yield barrier.wait()

        for _ in range(parties):
            engine.spawn(party())
        engine.run()

    out["sim.engine.barrier_us.p256"] = _us(timer.per_op(barrier_rounds, parties * rounds))

    messages = 1000
    fabrics = (
        ("flat", paper_cluster(bandwidth_gbps=10.0), 1),
        ("hier", hierarchical_cluster(machines=32, machines_per_rack=16), 16),
    )
    for suffix, cluster, dst in fabrics:

        def transfers(cluster=cluster, dst=dst):
            engine = Engine()
            network = Network(engine, cluster)
            for _ in range(messages):
                network.transfer_cb(0, dst, 1 << 20, _noop, ())
            engine.run()

        out[f"sim.network.transfer_us.{suffix}"] = _us(timer.per_op(transfers, messages))


def _core_probes(timer: _Timer, out: dict) -> None:
    for stem, algorithm in ALGORITHMS.items():
        config = timing_config(
            algorithm, num_workers=16, bandwidth_gbps=10.0, measure_iters=20
        )
        iters = worker_iters(config)

        def run(config=config):
            runner = DistributedRunner(config)
            runner.run()
            return runner.engine.events_processed

        seconds, events = timer.one_shot(run)
        out[f"core.{stem}.host_us_per_iter"] = _us(seconds / iters)
        out[f"core.{stem}.events_per_iter"] = {"value": events / iters, "unit": "ratio"}


def _nn_probes(timer: _Timer, out: dict) -> None:
    rng = np.random.default_rng(0)
    batch = 16
    layers = (
        ("dense", Dense(64, 64, rng=rng), (batch, 64)),
        ("conv2d", Conv2d(8, 16, 3, padding=1, rng=rng), (batch, 8, 8, 8)),
        ("batchnorm2d", BatchNorm2d(16), (batch, 16, 8, 8)),
        ("maxpool2d", MaxPool2d(2), (batch, 16, 8, 8)),
        ("relu", ReLU(), (batch, 64)),
    )
    for name, layer, shape in layers:
        x = rng.normal(size=shape)
        layer.train()
        grad = np.ones_like(layer.forward(x))

        def fwd_bwd(layer=layer, x=x, grad=grad):
            layer.forward(x)
            layer.backward(grad)

        out[f"nn.{name}.fwd_bwd_us"] = _us(timer.per_op(fwd_bwd))

    loss = SoftmaxCrossEntropy()
    logits = rng.normal(size=(batch, 5))
    labels = rng.integers(0, 5, size=batch)

    def loss_fwd_bwd():
        loss.forward(logits, labels)
        loss.backward()

    out["nn.loss.fwd_bwd_us"] = _us(timer.per_op(loss_fwd_bwd))

    models = (
        ("mlp", build_model(MINI_MODEL["model_name"], **MINI_MODEL["model_kwargs"])),
        ("resnet", build_model("miniresnet")),
    )
    for suffix, model in models:
        optimizer = SGD(model, momentum=0.9, weight_decay=1e-4)
        flat = model.get_flat_parameters()

        def flat_io(model=model, flat=flat):
            model.set_flat_parameters(model.get_flat_parameters())
            model.set_flat_gradients(flat)
            model.get_flat_gradients()

        out[f"nn.module.named_parameters_us.{suffix}"] = _us(
            timer.per_op(lambda model=model: list(model.named_parameters()))
        )
        out[f"nn.module.flat_io_us.{suffix}"] = _us(timer.per_op(flat_io))
        out[f"nn.optim.step_us.{suffix}"] = _us(
            timer.per_op(lambda optimizer=optimizer: optimizer.step(0.01))
        )


def _data_probes(timer: _Timer, out: dict) -> None:
    seconds, spirals = timer.one_shot(lambda: make_spirals(seed=0, **MINI_DATASET["dataset_kwargs"]))
    out["data.make_spirals_s"] = {"value": seconds, "unit": "s"}
    seconds, _ = timer.one_shot(lambda: make_synthetic_images(seed=0, num_samples=2000))
    out["data.make_synthetic_images_s"] = {"value": seconds, "unit": "s"}
    loader = BatchLoader(spirals, 16, rng=np.random.default_rng(0))
    out["data.next_batch_us"] = _us(timer.per_op(loader.next_batch))


def _perf_probes(timer: _Timer, out: dict) -> None:
    for suffix, workers in (("n24", 24), ("n10000", 10_000)):
        config = timing_config("bsp", num_workers=workers)
        seconds = timer.per_op(lambda config=config: predict_run(config))
        out[f"perf.predict_ms.{suffix}"] = {"value": seconds * 1e3, "unit": "ms"}


def _obs_fault_probes(timer: _Timer, out: dict) -> None:
    """The bench_obs_overhead.py / bench_faults.py protocols on one run."""
    config = timing_config("bsp", num_workers=16, bandwidth_gbps=10.0, measure_iters=20)
    off_s, _ = timer.one_shot(lambda: execute_run(config))

    def observed():
        runner = DistributedRunner(config, obs=ObsConfig(enabled=True))
        runner.run()
        return runner

    on_s, runner = timer.one_shot(observed)
    out["obs.record_overhead"] = {"value": on_s / off_s - 1.0, "unit": "ratio"}
    seconds, _ = timer.one_shot(
        lambda: build_trace(
            tracer=runner.ctx.tracer, observer=runner.observer, cluster=config.cluster
        )
    )
    out["obs.trace_build_s"] = {"value": seconds, "unit": "s"}
    seconds, _ = timer.one_shot(lambda: analyze_run(runner))
    out["obs.analyze_s"] = {"value": seconds, "unit": "s"}

    armed = timing_config(
        "bsp",
        num_workers=16,
        bandwidth_gbps=10.0,
        measure_iters=20,
        faults=FaultConfig(
            heartbeat_interval=0.25,
            heartbeat_timeout=0.6,
            backoff_factor=1.0,
            max_suspect_rounds=1,
        ),
    )
    armed_s, _ = timer.one_shot(lambda: execute_run(armed))
    out["faults.armed_overhead"] = {"value": armed_s / off_s - 1.0, "unit": "ratio"}


#: Looped probes timed by ``_Timer.per_op`` — the ones ``--seconds`` is
#: divided among (one-shot probes cost what their run costs).
LOOPED_PROBES = 2 + 3 + 2 + 6 + 6 + 1 + 2


def run_all(seconds: float, loops: int) -> dict:
    """All probes, then the closing host spin."""
    timer = _Timer(seconds / (loops * LOOPED_PROBES), loops)
    out: dict[str, dict] = {}
    for group in (
        _sim_probes,
        _core_probes,
        _nn_probes,
        _data_probes,
        _perf_probes,
        _obs_fault_probes,
    ):
        group(timer, out)
    return {"per_layer": out, "spin_s": spin()}
