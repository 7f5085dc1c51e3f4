"""The ledger's five workloads.

Each workload builds its ``RunConfig`` grid from ``--seed`` once, then
``run_pass()`` executes the identical fixed work any number of times and
returns what the correctness checks and counts need. The program under
test receives only the generated configs.

Sizes are frozen in :data:`SIZES` (``full`` is what ``BENCHMARK.json``
measures; ``smoke`` exercises the same code in a fraction of the time
and is for checking the harness, not for performance numbers).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.history import ThroughputResult, TrainingHistory
from repro.core.runner import DistributedRunner, RunConfig
from repro.experiments.config import PAPER_HYPERPARAMS, mini_accuracy_config, timing_config
from repro.experiments.executor import SweepExecutor
from repro.experiments.scalability import FIG2_ALGORITHMS, scale_worker_counts
from repro.perf import predict as perf_predict
from repro.sim.cluster import hierarchical_cluster, paper_cluster

__all__ = ["SIZES", "WORKLOADS", "PassResult", "make_workload", "check_pass"]

ALL_ALGORITHMS = tuple(PAPER_HYPERPARAMS)  # the seven, in the paper's order
# run_fig2 applies wait-free BP to the PS-based gradient senders only.
WAIT_FREE = ("bsp", "asp", "ssp")

SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "timing_grid": {"measure_iters": 2, "warmup_iters": 1},
        "accuracy_grid": {"epochs": 2.0},
        "conv_train": {"miniresnet_epochs": 0.5, "minivgg_epochs": 1.0},
        "scale_hier": {
            "measure_iters": 1,
            "warmup_iters": 1,
            "workers": {"bsp": 256, "hring": 512, "ring": 128},
        },
        "sweep_ops": {
            "seeds": 3,
            "warm_repeats": 10,
            "predict_repeats": 1,
            "help_repeats": 2,
            "fig3_iters": 2,
        },
    },
    "smoke": {
        "timing_grid": {"measure_iters": 1, "warmup_iters": 0},
        "accuracy_grid": {"epochs": 0.2},
        "conv_train": {"miniresnet_epochs": 0.05, "minivgg_epochs": 0.1},
        "scale_hier": {
            "measure_iters": 1,
            "warmup_iters": 0,
            "workers": {"bsp": 64, "hring": 128, "ring": 32},
        },
        "sweep_ops": {
            "seeds": 1,
            "warm_repeats": 2,
            "predict_repeats": 1,
            "help_repeats": 1,
            "fig3_iters": 1,
        },
    },
}

#: Full-mode accuracies may differ from the seed-0 reference by this much
#: (numpy/BLAS builds differ in the last bits, so no cross-host digest).
ACCURACY_TOLERANCE = 0.03


@dataclass
class PassResult:
    """What one pass did, for the checks and the counts."""

    work: int = 0  # fixed work units of the pass (the workload's ``work_unit``)
    attempted: int = 0  # operations: cells, predictions, CLI invocations
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # operation label -> digest
    throughputs: dict[str, float] = field(default_factory=dict)  # timing cells
    accuracies: dict[str, float] = field(default_factory=dict)  # full-mode cells
    counts: dict[str, int] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)  # sweep_ops only, seconds


def _digest(document: dict) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def result_digest(result: TrainingHistory | ThroughputResult) -> str:
    """Digest of every simulated statistic a result carries."""
    if isinstance(result, ThroughputResult):
        return _digest(
            {
                "throughput": result.throughput,
                "measured_time": result.measured_time,
                "measured_images": result.measured_images,
                "breakdown": {k: float(v) for k, v in result.breakdown.items()},
                "total_network_bytes": result.metadata["total_network_bytes"],
                "total_messages": result.metadata["total_messages"],
            }
        )
    return _digest(
        {
            "epochs": result.epochs,
            "times": result.times,
            "test_accuracy": result.test_accuracy,
            "train_loss": result.train_loss,
        }
    )


def worker_iters(config: RunConfig) -> int:
    """Simulated worker-iterations of one timing-mode run."""
    return config.num_workers * (config.measure_iters + config.warmup_iters)


class Workload:
    """Base: a labelled grid of configs executed one after another."""

    name = ""
    work_unit = ""
    #: Whether the analytic model is checked against this workload's cells.
    reports_predict_err = False

    def __init__(self, seed: int, sizes: dict, tmp: Path) -> None:
        self.sizes = sizes
        self.labels: list[str] = []
        self.configs: list[RunConfig] = []

    def add(self, label: str, config: RunConfig) -> None:
        self.labels.append(label)
        self.configs.append(config)

    def reset(self) -> None:
        """Untimed preparation before each pass."""

    def run_pass(self) -> PassResult:
        out = PassResult()
        executor = SweepExecutor(jobs=1, cache=False)
        results = _map(executor, self.configs, self.labels, out)
        self._collect(results, out)
        out.counts["experiments.executor.cells"] = len(self.configs)
        out.counts["experiments.executor.executed"] = executor.total_stats.executed
        out.counts["experiments.executor.cache_hits"] = executor.total_stats.cache_hits
        return out

    def _collect(self, results: list, out: PassResult) -> None:
        """Add one executed grid's digests, work and counts to ``out``."""
        messages = volume = iters = 0
        for label, config, result in zip(self.labels, self.configs, results):
            out.digests[label] = result_digest(result)
            messages += result.metadata["total_messages"]
            volume += result.metadata["total_network_bytes"]
            if isinstance(result, ThroughputResult):
                out.throughputs[label] = result.throughput
                iters += worker_iters(config)
            else:
                out.accuracies[label] = result.final_test_accuracy
                iters += result.total_iterations
        out.work += iters
        for name, value in (
            ("core.worker_iters", iters),
            ("sim.network.messages", messages),
            ("sim.network.bytes", volume),
        ):
            out.counts[name] = out.counts.get(name, 0) + value

    def predict_rel_err(self, reference_pass: PassResult) -> float | None:
        """Max relative error of the analytic model against the engine
        over this workload's cells (timing workloads only)."""
        if not self.reports_predict_err:
            return None
        worst = 0.0
        for label, config in zip(self.labels, self.configs):
            engine = reference_pass.throughputs[label]
            predicted = perf_predict.predict_run(config).throughput
            worst = max(worst, abs(predicted - engine) / engine)
        return worst


def _map(executor: SweepExecutor, configs, labels, out: PassResult) -> list:
    """``executor.map`` as one batch of operations: if it raises, every
    cell of the batch counts as failed and the pass goes on."""
    out.attempted += len(configs)
    try:
        return executor.map(configs)
    except Exception:  # noqa: BLE001 - the benchmark must report, not die
        traceback.print_exc()
        out.failures.extend(f"{label}: raised" for label in labels)
        return []


class TimingGrid(Workload):
    """Fig 2/3 protocol, timing mode: thirty shallow engine runs."""

    name = "timing_grid"
    work_unit = "worker-iterations"
    reports_predict_err = True

    def __init__(self, seed, sizes, tmp):
        super().__init__(seed, sizes, tmp)
        for algo in FIG2_ALGORITHMS:
            for bandwidth in (10.0, 56.0):
                for model, workers in (("resnet50", 8), ("resnet50", 24), ("vgg16", 24)):
                    self.add(
                        f"{algo}/{bandwidth:g}g/{model}/n{workers}",
                        timing_config(
                            algo,
                            num_workers=workers,
                            bandwidth_gbps=bandwidth,
                            model=model,
                            measure_iters=sizes["measure_iters"],
                            warmup_iters=sizes["warmup_iters"],
                            wait_free_bp=algo in WAIT_FREE,
                            seed=seed,
                        ),
                    )


class AccuracyGrid(Workload):
    """Table II / Fig 1 protocol, full mode: the mini MLP on spirals."""

    name = "accuracy_grid"
    work_unit = "sgd-iterations"

    def __init__(self, seed, sizes, tmp):
        super().__init__(seed, sizes, tmp)
        for algo in ALL_ALGORITHMS:
            self.add(
                f"{algo}/mlp/n24",
                mini_accuracy_config(
                    algo, num_workers=24, epochs=sizes["epochs"], seed=seed
                ),
            )


class ConvTrain(Workload):
    """Full mode with the CNNs the paper's models stand for."""

    name = "conv_train"
    work_unit = "sgd-iterations"

    def __init__(self, seed, sizes, tmp):
        super().__init__(seed, sizes, tmp)
        for algo in ("bsp", "ad-psgd"):
            for model in ("miniresnet", "minivgg"):
                self.add(
                    f"{algo}/{model}/n8",
                    RunConfig(
                        algorithm=algo,
                        mode="full",
                        cluster=paper_cluster(
                            bandwidth_gbps=56.0, machines=2, gpus_per_machine=4
                        ),
                        num_workers=8,
                        batch_size=16,
                        model_name=model,
                        dataset_name="synthetic_images",
                        dataset_kwargs={"num_samples": 2000},
                        epochs=sizes[f"{model}_epochs"],
                        compute_time_override=0.05,
                        seed=seed,
                    ),
                )


class ScaleHier(Workload):
    """Three deep timing runs on an oversubscribed leaf/spine fabric."""

    name = "scale_hier"
    work_unit = "worker-iterations"
    reports_predict_err = True

    def __init__(self, seed, sizes, tmp):
        super().__init__(seed, sizes, tmp)
        cells = (
            ("bsp", "bsp", None),
            ("hring", "ar-sgd", "hring"),
            ("ring", "ar-sgd", "ring"),
        )
        for key, algo, collective in cells:
            workers = sizes["workers"][key]
            self.add(
                f"{algo}/{collective or 'flat-ps'}/n{workers}",
                timing_config(
                    algo,
                    num_workers=workers,
                    bandwidth_gbps=56.0,
                    cluster=hierarchical_cluster(
                        machines=math.ceil(workers / 4),
                        machines_per_rack=16,
                        oversubscription=4.0,
                        bandwidth_gbps=56.0,
                    ),
                    collective=collective,
                    measure_iters=sizes["measure_iters"],
                    warmup_iters=sizes["warmup_iters"],
                    seed=seed,
                ),
            )

    def run_pass(self) -> PassResult:
        out = PassResult()
        results = []
        for label, config in zip(self.labels, self.configs):
            out.attempted += 1
            try:
                results.append(DistributedRunner(config).run())
            except Exception:  # noqa: BLE001 - report the cell, run the rest
                traceback.print_exc()
                out.failures.append(f"{label}: raised")
        if not out.failures:
            self._collect(results, out)
        out.counts["experiments.executor.cells"] = len(self.configs)
        out.counts["experiments.executor.executed"] = len(results)
        out.counts["experiments.executor.cache_hits"] = 0
        return out


class SweepOps(Workload):
    """The operations path: many tiny cells, so per-cell overhead —
    fingerprint, cache, journal, runner build, CLI start — is the work."""

    name = "sweep_ops"
    work_unit = "operations"

    def __init__(self, seed, sizes, tmp):
        super().__init__(seed, sizes, tmp)
        for algo in ALL_ALGORITHMS:
            for workers in (2, 4, 8):
                for bandwidth in (10.0, 56.0):
                    for cell_seed in range(seed, seed + sizes["seeds"]):
                        self.add(
                            f"{algo}/{bandwidth:g}g/n{workers}/s{cell_seed}",
                            timing_config(
                                algo,
                                num_workers=workers,
                                bandwidth_gbps=bandwidth,
                                measure_iters=3,
                                warmup_iters=1,
                                seed=cell_seed,
                            ),
                        )
        self.ladder = [
            timing_config(algo, num_workers=workers, bandwidth_gbps=bandwidth, seed=seed)
            for algo in ALL_ALGORITHMS
            for bandwidth in (10.0, 56.0)
            for workers in scale_worker_counts(10000)
        ]
        self.dir = tmp / "sweep_ops"

    def reset(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def _cli(self, label: str, *args: str, out: PassResult) -> None:
        out.attempted += 1
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            out.failures.append(f"{label}: exit {done.returncode}")

    def run_pass(self) -> PassResult:
        out = PassResult()
        sizes = self.sizes
        configs, labels = self.configs, self.labels
        stats = []
        phase_digests: dict[str, list[str]] = {}

        def timed(phase: str, fn):
            start = time.perf_counter()
            value = fn()
            out.phases[phase] = time.perf_counter() - start
            return value

        def mapped(phase: str, executor: SweepExecutor, repeats: int = 1):
            results = []
            for _ in range(repeats):
                results = _map(executor, configs, labels, out)
                stats.append(executor.last_stats)
            phase_digests[phase] = [result_digest(r) for r in results]
            return results

        # (a) cold map into an empty cache; (b) warm maps, all hits.
        plain = SweepExecutor(jobs=1, cache=True, cache_dir=self.dir / "cache")
        cold = timed("experiments.executor.cold_s", lambda: mapped("cold", plain))
        timed(
            "experiments.executor.warm_s",
            lambda: mapped("warm", plain, sizes["warm_repeats"]),
        )
        if plain.last_stats.executed != 0:
            out.failures.append("warm map executed runs")
        # (c) cold journaled map into a fresh cache and session; (d) re-map
        # of the finished session.
        durable = SweepExecutor(
            jobs=1,
            cache=True,
            cache_dir=self.dir / "cache-durable",
            durable=True,
            session_root=self.dir / "sessions",
        )
        journaled = timed("experiments.session.cold_s", lambda: mapped("journaled", durable))
        timed(
            "experiments.session.resume_s",
            lambda: mapped("resumed", durable, sizes["warm_repeats"]),
        )
        if durable.last_stats.executed != 0:
            out.failures.append("re-map of a finished session executed runs")
        # (e) two-process pool, cache off.
        pool = SweepExecutor(jobs=2, cache=False)
        timed("experiments.executor.pool_s", lambda: mapped("pool", pool))
        for phase, digests in phase_digests.items():
            if digests != phase_digests["cold"]:
                out.failures.append(f"phase {phase} results differ from the cold map")

        # (f) the analytic ladder to N = 10,000.
        def ladder():
            for _ in range(sizes["predict_repeats"]):
                for config in self.ladder:
                    out.attempted += 1
                    if not perf_predict.predict_run(config).throughput > 0:
                        out.failures.append("prediction without throughput")

        timed("perf.ladder_s", ladder)

        # (g) the CLI from a cold interpreter.
        def helps():
            for i in range(sizes["help_repeats"]):
                self._cli(f"cli/help/{i}", "--help", out=out)

        timed("cli.help_s", helps)
        timed(
            "cli.fig3_s",
            lambda: self._cli(
                "cli/fig3",
                *("run", "fig3", "--no-cache", "--jobs", "1"),
                *("--iters", str(sizes["fig3_iters"])),
                out=out,
            ),
        )

        # Counts cover the engine runs of this process, phases (a) and
        # (c): the pool's runs, like their events, are not visible here.
        self._collect(cold, out)
        self._collect(journaled, out)
        out.work = out.attempted
        out.counts["experiments.executor.cells"] = sum(s.total for s in stats)
        out.counts["experiments.executor.executed"] = sum(s.executed for s in stats)
        out.counts["experiments.executor.cache_hits"] = sum(s.cache_hits for s in stats)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TimingGrid, AccuracyGrid, ConvTrain, ScaleHier, SweepOps)
}


def make_workload(name: str, seed: int, scale: str, tmp: Path) -> Workload:
    return WORKLOADS[name](seed, SIZES[scale][name], tmp)


def check_pass(result: PassResult, warmup: PassResult, reference: dict | None) -> list[str]:
    """Failed operations of one pass.

    Every pass must reproduce the warm-up pass bit for bit. For the seed
    the reference was written for, timing cells must also match the
    reference digests and full-mode accuracies stay within
    :data:`ACCURACY_TOLERANCE` of the reference values; for any other
    seed, throughputs must be positive and accuracies finite.
    """
    failures = list(result.failures)
    if result.failures:
        return failures
    for label, digest in result.digests.items():
        if warmup.digests.get(label) != digest:
            failures.append(f"{label}: differs from the warm-up pass")
    for label, throughput in result.throughputs.items():
        if not throughput > 0:
            failures.append(f"{label}: no throughput")
        if reference is not None and reference["digests"].get(label) != result.digests[label]:
            failures.append(f"{label}: differs from the reference digest")
    for label, accuracy in result.accuracies.items():
        if not math.isfinite(accuracy):
            failures.append(f"{label}: accuracy is not finite")
        elif reference is not None:
            expected = reference["accuracies"].get(label)
            if expected is None or abs(accuracy - expected) > ACCURACY_TOLERANCE:
                failures.append(f"{label}: accuracy {accuracy:.4f}, reference {expected}")
    return failures
