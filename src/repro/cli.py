"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro list
    python -m repro run table2 [--workers 24] [--epochs 30] [--seeds 0,1]
    python -m repro run table3
    python -m repro run table4
    python -m repro run fig1
    python -m repro run fig2 [--model resnet50|vgg16]
    python -m repro run fig3
    python -m repro run fig4 [--model resnet50] [--bandwidth 10]
    python -m repro run fig2 --jobs 8 --cache-dir /tmp/repro-cache
    python -m repro run fig2 --analytic --max-workers 10000
    python -m repro predict bsp --workers 1024 [--bandwidth 10]
    python -m repro predict all --max-workers 10000 --output curves.json
    python -m repro predict ssp --workers 64 --validate
    python -m repro train bsp --workers 8 --epochs 10
    python -m repro trace fig3 --out fig3_trace.json
    python -m repro run fig3 --trace-out fig3_trace.json
    python -m repro analyze fig3 [--iters 10] [--json report.json]
    python -m repro analyze bsp --workers 4 --iters 5 --check
    python -m repro run fig3 --analyze
    python -m repro train asp --workers 8 --analyze --output out.json
    python -m repro faults [--workers 8] [--scenarios crash,partition]
    python -m repro faults --rack-scale [--scenarios rack-outage,tor-outage]
    python -m repro byzantine [--byzantine 1] [--aggregators mean,median,krum]
    python -m repro train bsp --fault-spec faults.json --fault-seed 3
    python -m repro run fig2 --fault-spec faults.json
    python -m repro run fig2 --session nightly --run-timeout 600 --retries 3
    python -m repro sweep list
    python -m repro sweep show <session> [--json out.json] [--trace-out t.json]
    python -m repro sweep resume <session> [--jobs 8]

Every ``run`` prints the paper-style table and, with ``--output FILE``,
also writes the structured result as JSON (see :mod:`repro.io`),
wrapped together with the sweep statistics.

Sweeps fan out over a process pool (``--jobs``, default: all cores)
and reuse previous runs from a content-addressed cache keyed by the
full run config (``--cache-dir``, default ``~/.cache/repro``; disable
with ``--no-cache``). Per-run progress goes to stderr; a one-line
sweep summary (submitted / cached / executed / wall time) is printed
after every sweep.

``faults`` runs the fault-tolerance grid: named failure scenarios
(crash, crash-rejoin, NIC degrade, partition, packet loss) against
every algorithm, reporting throughput retained vs the fault-free
baseline. ``faults --rack-scale`` swaps in the rack-scale chaos
matrix: fabric failure domains (rack outage, ToR outage, uplink
degrade/flap, spine degrade) against the hierarchical protocol
variants (BSP flat/tree-PS, AR-SGD ring/tree/hring) on a leaf/spine
cluster. ``byzantine`` runs the Byzantine-resilience grid: hostile
workers sending sign-flipped amplified gradients against every
algorithm, one column per robust aggregation rule, reporting accuracy
retained vs the attack-free baseline. ``--fault-spec FILE`` on
``run``/``train`` injects a
JSON-specified fault schedule into those runs instead
(:meth:`repro.faults.FaultConfig.save` writes the format); the fault
summary lands in the ``--output`` JSON under ``"faults"``.

``--session [NAME]`` on ``run``/``faults``/``byzantine`` makes the
sweep *durable*: every run's lifecycle is journaled to an append-only
session log keyed by the grid fingerprint, so a sweep killed at any
instant (SIGKILL, OOM, power loss) resumes idempotently — either by
re-running the same command or via ``repro sweep resume <session>``.
Completed runs are never re-executed (they are cache hits); output is
bit-identical to an uninterrupted sweep. ``--resume`` refuses to
start a *new* session (a typo that changes the grid fails loudly
instead of silently starting over). ``--run-timeout``/``--retries``
enable the per-run policy: hung runs are killed at their
deadline and retried with exponential backoff, and after the attempt
budget a cell is reported as permanently failed instead of aborting
the grid. During any sweep the first SIGINT/SIGTERM stops cleanly
(finished runs cached, journal flushed, how to resume printed, exit
130); a second signal hard-exits. ``repro sweep list/show/resume``
manage sessions; ``sweep show --trace-out`` exports the journal as a
Perfetto trace.

``predict`` evaluates the closed-form iteration-time models of
:mod:`repro.perf` — milliseconds per configuration at any N, including
N = 10,000 — printing predicted iteration time, throughput, speedup,
the binding regime, and (single-point mode) the critical-path
breakdown and per-station capacity bounds. ``--max-workers`` predicts
a whole scaling curve; ``--validate`` cross-checks against the
discrete-event engine (within 10 % at N ≤ 64). ``run fig2
--analytic [--max-workers N]`` swaps the engine for the same models
across the whole fig2 grid. The models assume fault-free runs:
``predict --fault-spec FILE`` warns and predicts as if fault-free, or
refuses outright with ``--strict``.

``trace`` (or ``--trace-out`` on ``run``/``train``) exports a
Chrome/Perfetto trace-event JSON of one instrumented run — load it at
https://ui.perfetto.dev or chrome://tracing. ``run --trace-out``
instruments a *representative* run of the experiment (the sweep
itself stays uninstrumented and cacheable); ``train --trace-out``
instruments the actual training run.

``analyze`` (or ``--analyze`` on ``run``/``train``) reconstructs the
causal span DAG of one instrumented run, extracts the per-iteration
critical path, and prints where the wall time went
(compute/comm/wait), which workers or links straggle, and what-if
projections (free comm, 10x links, slowest worker removed). The
target is an experiment name (representative run) or a bare algorithm
name (timing run). ``--json`` writes the full report; ``--trace-out``
adds a critical-path highlight lane to the Perfetto export;
``--check`` exits non-zero unless the attribution is conservative
(sums to wall time) — the CI smoke mode. Sweeps additionally report a
per-algorithm attribution summary derived from their traced results,
and ``--output`` JSON carries it under ``"attribution_summary"``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

__all__ = ["main", "build_parser"]

# Everything heavier than argparse (numpy, the engine, repro.io) is
# imported inside the command handlers: `repro --help`, bad-usage
# errors and `repro sweep list` should not pay for the simulator.

EXPERIMENTS = ("table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of Ko et al., IPDPS 2021.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and algorithms")

    run = sub.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--workers", type=int, default=None, help="worker count (accuracy experiments)")
    run.add_argument("--epochs", type=float, default=None, help="training epochs (accuracy experiments)")
    run.add_argument("--seeds", type=str, default="0", help="comma-separated seeds")
    run.add_argument("--model", choices=("resnet50", "vgg16"), default="resnet50")
    run.add_argument("--bandwidth", type=float, default=10.0, help="Gbps (fig4)")
    run.add_argument("--iters", type=int, default=None, help="measured iterations (timing experiments)")
    run.add_argument("--output", type=str, default=None, help="write JSON result here")
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel simulator processes for the sweep (default: all cores)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not populate the run cache",
    )
    run.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="run-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    run.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="also export a Perfetto trace of one representative run here",
    )
    run.add_argument(
        "--analytic",
        action="store_true",
        help=(
            "fig2 only: evaluate the grid with the closed-form models of "
            "repro.perf instead of the discrete-event engine"
        ),
    )
    run.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="fig2 only: extend the worker ladder up to this N (e.g. 10000)",
    )
    _add_analyze_arg(run)
    _add_profile_arg(run)
    _add_fault_spec_args(run)
    _add_durable_args(run)

    train = sub.add_parser("train", help="train one algorithm and print its history")
    train.add_argument("algorithm")
    train.add_argument("--workers", type=int, default=4)
    train.add_argument("--epochs", type=float, default=10.0)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--fabric", choices=("10g", "56g"), default="56g")
    train.add_argument("--output", type=str, default=None)
    train.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="export a Perfetto trace of this training run here",
    )
    _add_analyze_arg(train)
    _add_profile_arg(train)
    _add_fault_spec_args(train)

    faults = sub.add_parser(
        "faults", help="fault-tolerance grid: failure scenarios x algorithms"
    )
    faults.add_argument(
        "--scenarios",
        type=str,
        default=None,
        help="comma-separated scenario names (default: all)",
    )
    faults.add_argument(
        "--algorithms",
        type=str,
        default=None,
        help="comma-separated algorithm names (default: all seven)",
    )
    faults.add_argument(
        "--rack-scale",
        action="store_true",
        help=(
            "run the rack-scale chaos matrix instead: fabric fault scenarios "
            "(rack/ToR/uplink/spine) x hierarchical collectives on a "
            "leaf/spine cluster; --scenarios/--algorithms then select fabric "
            "scenarios and protocol-variant cells (e.g. ar-sgd/hring)"
        ),
    )
    faults.add_argument(
        "--machines-per-rack",
        type=int,
        default=16,
        help="rack width for --rack-scale (default 16)",
    )
    faults.add_argument(
        "--oversubscription",
        type=float,
        default=4.0,
        help="ToR uplink oversubscription for --rack-scale (default 4.0)",
    )
    faults.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count (default: 8, or 256 with --rack-scale)",
    )
    faults.add_argument(
        "--iters", type=int, default=None,
        help="measured iterations (default: 20, or 6 with --rack-scale)",
    )
    faults.add_argument("--model", choices=("resnet50", "vgg16"), default="resnet50")
    faults.add_argument("--bandwidth", type=float, default=10.0, help="Gbps")
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--fault-seed", type=int, default=0)
    faults.add_argument("--output", type=str, default=None)
    faults.add_argument("--jobs", type=int, default=None)
    faults.add_argument("--no-cache", action="store_true")
    faults.add_argument("--cache-dir", type=str, default=None)
    _add_durable_args(faults)

    byz = sub.add_parser(
        "byzantine",
        help="Byzantine-resilience grid: robust aggregators x algorithms",
    )
    byz.add_argument(
        "--algorithms",
        type=str,
        default=None,
        help="comma-separated algorithm names (default: all seven)",
    )
    byz.add_argument(
        "--aggregators",
        type=str,
        default=None,
        help="comma-separated aggregation rules (default: mean,median,trimmed_mean,krum)",
    )
    byz.add_argument("--workers", type=int, default=8)
    byz.add_argument(
        "--byzantine", type=int, default=1, help="number of hostile workers"
    )
    byz.add_argument(
        "--scale", type=float, default=10.0, help="attack amplification (-scale*grad)"
    )
    byz.add_argument("--epochs", type=float, default=20.0)
    byz.add_argument("--seed", type=int, default=0)
    byz.add_argument("--fault-seed", type=int, default=0)
    byz.add_argument("--output", type=str, default=None)
    byz.add_argument("--jobs", type=int, default=None)
    byz.add_argument("--no-cache", action="store_true")
    byz.add_argument("--cache-dir", type=str, default=None)
    _add_durable_args(byz)

    predict = sub.add_parser(
        "predict",
        help="analytic iteration-time prediction (closed form, no simulation)",
    )
    predict.add_argument(
        "algorithm",
        help="algorithm name, or 'all' for every supported algorithm",
    )
    predict.add_argument("--workers", type=int, default=24)
    predict.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="predict a whole scaling curve up to this N instead of one point",
    )
    predict.add_argument("--model", choices=("resnet50", "vgg16"), default="resnet50")
    predict.add_argument("--bandwidth", type=float, default=10.0, help="Gbps")
    predict.add_argument(
        "--validate",
        action="store_true",
        help=(
            "also run the discrete-event engine on the same config(s) and "
            "report the relative error (single-point mode; slow at large N)"
        ),
    )
    predict.add_argument("--output", type=str, default=None, help="write JSON here")
    predict.add_argument(
        "--strict",
        action="store_true",
        help=(
            "refuse (exit non-zero) instead of warning when the config "
            "carries a fault schedule the analytic models cannot honour"
        ),
    )
    _add_fault_spec_args(predict)

    analyze = sub.add_parser(
        "analyze",
        help="critical-path analysis of one instrumented run",
    )
    analyze.add_argument(
        "target",
        help="experiment name (representative run) or algorithm name (timing run)",
    )
    analyze.add_argument("--workers", type=int, default=None)
    analyze.add_argument("--iters", type=int, default=None, help="measured iterations (timing runs)")
    analyze.add_argument("--epochs", type=float, default=None, help="training epochs (accuracy experiments)")
    analyze.add_argument("--model", choices=("resnet50", "vgg16"), default="resnet50")
    analyze.add_argument("--bandwidth", type=float, default=10.0, help="Gbps (timing runs)")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--json", type=str, default=None, help="write the full analysis report here"
    )
    analyze.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="also export a Perfetto trace with the critical path highlighted",
    )
    analyze.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero unless the attribution is conservative "
            "(compute+comm+wait sums to wall time; CI smoke mode)"
        ),
    )
    _add_fault_spec_args(analyze)

    sweep = sub.add_parser(
        "sweep", help="durable sweep sessions: list, inspect, resume"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_list = sweep_sub.add_parser(
        "list", help="list known sessions, newest first"
    )
    sweep_list.add_argument(
        "--json", action="store_true", help="print machine-readable summaries"
    )
    sweep_show = sweep_sub.add_parser(
        "show", help="per-run states and journal of one session"
    )
    sweep_show.add_argument("session", help="session id, unique prefix, or name")
    sweep_show.add_argument(
        "--json", type=str, default=None, help="write the session state JSON here"
    )
    sweep_show.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="export the journal as a Perfetto trace (lanes per run, "
        "spans per attempt, instants for retries/kills/signals)",
    )
    sweep_resume = sweep_sub.add_parser(
        "resume", help="re-execute the unfinished runs of a session"
    )
    sweep_resume.add_argument("session", help="session id, unique prefix, or name")
    sweep_resume.add_argument(
        "--jobs", type=int, default=None, help="pool width (default: all cores)"
    )
    sweep_resume.add_argument(
        "--no-cache",
        action="store_true",
        help="override the manifest: ignore the shared run cache",
    )
    sweep_resume.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="override the manifest's run-cache directory",
    )
    sweep_resume.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per run attempt",
    )
    sweep_resume.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per run before permanent failure (default 3)",
    )

    trace = sub.add_parser(
        "trace", help="export a Perfetto trace of one representative run"
    )
    trace.add_argument(
        "experiment", choices=tuple(e for e in EXPERIMENTS if e != "table1")
    )
    trace.add_argument("--out", type=str, required=True, help="trace JSON path")
    trace.add_argument("--workers", type=int, default=None)
    trace.add_argument("--iters", type=int, default=None, help="measured iterations (timing experiments)")
    trace.add_argument("--epochs", type=float, default=None, help="training epochs (accuracy experiments)")
    trace.add_argument("--model", choices=("resnet50", "vgg16"), default="resnet50")
    trace.add_argument("--bandwidth", type=float, default=10.0, help="Gbps (timing experiments)")
    trace.add_argument("--seed", type=int, default=0)
    return parser


def _add_profile_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--profile",
        type=str,
        default=None,
        metavar="PSTATS_FILE",
        help=(
            "profile the command under cProfile: dump raw pstats here and "
            "print the top-20 functions by cumulative time to stderr"
        ),
    )


def _add_analyze_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "critical-path analysis of the instrumented run: print the "
            "compute/comm/wait attribution report (and include it in "
            "--output JSON)"
        ),
    )


def _add_fault_spec_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--fault-spec",
        type=str,
        default=None,
        help="JSON fault schedule (FaultConfig.save format) injected into the run(s)",
    )
    sub.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="override the fault schedule's RNG seed",
    )


def _add_durable_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--session",
        type=str,
        nargs="?",
        const="",
        default=None,
        metavar="NAME",
        help=(
            "journal this sweep as a durable session (optionally named NAME); "
            "re-running the same grid auto-resumes it, and "
            "'repro sweep resume' finishes it after a crash"
        ),
    )
    sub.add_argument(
        "--resume",
        action="store_true",
        help=(
            "durable, but refuse to start a new session: only resume one "
            "whose journal already exists for this exact grid"
        ),
    )
    sub.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per run attempt; hung runs are killed and retried",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "attempts per run before it is classified permanently failed "
            "(default 3; failed cells degrade, they do not abort the sweep)"
        ),
    )


def _build_policy(args: argparse.Namespace) -> "Any | None":
    """Build the RunPolicy implied by ``--run-timeout``/``--retries``."""
    if args.run_timeout is None and args.retries is None:
        return None
    from repro.experiments.session import RunPolicy

    kwargs: dict[str, Any] = {}
    if args.run_timeout is not None:
        kwargs["timeout_s"] = args.run_timeout
    if args.retries is not None:
        kwargs["max_attempts"] = args.retries
    return RunPolicy(**kwargs)


def _install_fault_spec(args: argparse.Namespace) -> "Any | None":
    """Load ``--fault-spec`` (if given) and make it the process-wide
    default so every config built afterwards carries it."""
    if not getattr(args, "fault_spec", None):
        return None
    from repro.experiments.config import set_default_faults
    from repro.faults import FaultConfig

    faults = FaultConfig.load(args.fault_spec)
    if args.fault_seed is not None:
        faults = faults.with_seed(args.fault_seed)
    set_default_faults(faults)
    return faults


def _run_faults_cmd(args: argparse.Namespace) -> tuple[str, Any]:
    from repro.experiments.faults import (
        FAULT_ALGORITHMS,
        FAULT_SCENARIOS,
        RACK_FAULT_CELLS,
        run_faults,
        run_rack_faults,
    )

    if args.rack_scale:
        kwargs = dict(
            num_workers=args.workers if args.workers is not None else 256,
            machines_per_rack=args.machines_per_rack,
            oversubscription=args.oversubscription,
            model=args.model,
            bandwidth_gbps=args.bandwidth,
            measure_iters=args.iters if args.iters is not None else 6,
            seed=args.seed,
            fault_seed=args.fault_seed,
        )
        if args.scenarios:
            kwargs["scenarios"] = tuple(s for s in args.scenarios.split(",") if s)
        if args.algorithms:
            wanted = [a for a in args.algorithms.split(",") if a]
            by_label = {label: cell for cell in RACK_FAULT_CELLS
                        for label in (cell[0],)}
            unknown = [a for a in wanted if a not in by_label]
            if unknown:
                raise SystemExit(
                    f"unknown rack-scale cells {unknown}; "
                    f"known: {sorted(by_label)}"
                )
            kwargs["cells"] = tuple(by_label[a] for a in wanted)
        result = run_rack_faults(**kwargs)
        return result.render(), result

    kwargs = dict(
        num_workers=args.workers if args.workers is not None else 8,
        model=args.model,
        bandwidth_gbps=args.bandwidth,
        measure_iters=args.iters if args.iters is not None else 20,
        seed=args.seed,
        fault_seed=args.fault_seed,
    )
    if args.scenarios:
        kwargs["scenarios"] = tuple(s for s in args.scenarios.split(",") if s)
    else:
        kwargs["scenarios"] = tuple(FAULT_SCENARIOS)
    if args.algorithms:
        kwargs["algorithms"] = tuple(a for a in args.algorithms.split(",") if a)
    else:
        kwargs["algorithms"] = FAULT_ALGORITHMS
    result = run_faults(**kwargs)
    return result.render(), result


def _run_byzantine_cmd(args: argparse.Namespace) -> tuple[str, Any]:
    from repro.experiments.byzantine import (
        DEFAULT_AGGREGATORS,
        ROBUST_ALGORITHMS,
        run_byzantine,
    )

    kwargs: dict[str, Any] = dict(
        num_workers=args.workers,
        byzantine=args.byzantine,
        scale=args.scale,
        epochs=args.epochs,
        seed=args.seed,
        fault_seed=args.fault_seed,
    )
    kwargs["algorithms"] = (
        tuple(a for a in args.algorithms.split(",") if a)
        if args.algorithms
        else ROBUST_ALGORITHMS
    )
    kwargs["aggregators"] = (
        tuple(a for a in args.aggregators.split(",") if a)
        if args.aggregators
        else DEFAULT_AGGREGATORS
    )
    result = run_byzantine(**kwargs)
    return result.render(), result


def _run_experiment(args: argparse.Namespace) -> tuple[str, Any]:
    """Dispatch to the experiment drivers; returns (rendered, result)."""
    seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    acc_kwargs: dict[str, Any] = {"seeds": seeds}
    if args.workers is not None:
        acc_kwargs["num_workers"] = args.workers
    if args.epochs is not None:
        acc_kwargs["epochs"] = args.epochs

    if args.experiment == "table1":
        from repro.analysis.tables import format_table
        from repro.core.complexity import table1_rows

        rows = table1_rows()
        text = format_table(
            ["name", "category", "convergence rate", "comm complexity"],
            [[r["name"], r["category"], r["convergence_rate"], r["comm_complexity"]] for r in rows],
            title="Table I — summary of distributed training algorithms",
        )
        return text, rows
    if args.experiment == "table2":
        from repro.experiments.accuracy import run_table2

        result = run_table2(**acc_kwargs)
        return result.render(), result
    if args.experiment == "table3":
        from repro.experiments.sensitivity import run_table3

        kwargs = {"seeds": seeds}
        if args.epochs is not None:
            kwargs["epochs"] = args.epochs
        result = run_table3(**kwargs)
        return result.render(), result
    if args.experiment == "table4":
        from repro.experiments.accuracy import run_table4

        result = run_table4(**acc_kwargs)
        return result.render(), result
    if args.experiment == "fig1":
        from repro.analysis.ascii import fig1_chart
        from repro.experiments.accuracy import fig1_series, run_table2

        result = run_table2(fabric="56g", **acc_kwargs)
        series = fig1_series(result)
        return fig1_chart(series), series
    if args.experiment == "fig2":
        from repro.analysis.ascii import fig2_chart
        from repro.experiments.scalability import run_fig2

        kwargs: dict[str, Any] = {"model": args.model}
        if args.iters is not None:
            kwargs["measure_iters"] = args.iters
        if args.analytic:
            kwargs["analytic"] = True
        if args.max_workers is not None:
            kwargs["max_workers"] = args.max_workers
        result = run_fig2(**kwargs)
        return result.render() + "\n\n" + fig2_chart(result), result
    if args.experiment == "fig3":
        from repro.experiments.scalability import run_fig3

        kwargs = {}
        if args.iters is not None:
            kwargs["measure_iters"] = args.iters
        result = run_fig3(**kwargs)
        return result.render(), result
    if args.experiment == "fig4":
        from repro.experiments.optimizations import run_fig4

        kwargs = {"model": args.model, "bandwidth_gbps": args.bandwidth}
        if args.iters is not None:
            kwargs["measure_iters"] = args.iters
        result = run_fig4(**kwargs)
        return result.render(), result
    raise ValueError(f"unknown experiment {args.experiment!r}")  # pragma: no cover


def _instrumented_run(
    cfg: Any, trace_path: str | None, label: str, *, analyze: bool = False
) -> tuple[Any, dict | None]:
    """Run ``cfg`` with observability on; optionally export its
    Perfetto trace and/or run critical-path analysis.

    One observed run serves both outputs: the trace (with the
    extracted critical path as a highlight lane when analyzing) and
    the analysis report. Returns ``(result, report-or-None)``.
    """
    from repro.core.runner import DistributedRunner
    from repro.obs import ObsConfig, analyze_run, write_trace

    runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))
    result = runner.run()
    report = None
    if analyze:
        report = analyze_run(runner, keep_segments=trace_path is not None)
    if trace_path is not None:
        path = write_trace(
            trace_path,
            tracer=runner.ctx.tracer,
            observer=runner.observer,
            cluster=cfg.cluster,
            label=label,
            critpath=report,
        )
        print(f"[trace written to {path}]")
    if report is not None:
        # The raw path segments only matter to the trace export.
        report.pop("segments", None)
    return result, report


def _run_train(args: argparse.Namespace) -> tuple[str, Any]:
    from repro.analysis.tables import format_table
    from repro.core.runner import DistributedRunner
    from repro.experiments.config import mini_accuracy_config

    cfg = mini_accuracy_config(
        args.algorithm,
        num_workers=args.workers,
        epochs=args.epochs,
        seed=args.seed,
        fabric=args.fabric,
    )
    if args.trace_out or args.analyze:
        history, report = _instrumented_run(
            cfg,
            args.trace_out,
            f"repro train {args.algorithm}",
            analyze=args.analyze,
        )
    else:
        history = DistributedRunner(cfg).run()
        report = None
    rows = [
        [round(e, 2), round(t, 1), acc]
        for e, t, acc in zip(history.epochs, history.times, history.test_accuracy)
    ]
    text = format_table(
        ["epoch", "virtual secs", "test accuracy"],
        rows,
        title=f"{history.algorithm} — {args.workers} workers",
    )
    text += f"\nfinal accuracy: {history.final_test_accuracy:.4f}"
    payload = history.to_dict()
    if report is not None:
        from repro.analysis.ascii import attribution_report

        text += "\n\n" + attribution_report(report)
        payload["analysis"] = report
        payload["attribution_summary"] = report["summary"]
    fault_summary = history.metadata.get("faults")
    if fault_summary is not None:
        payload["faults"] = fault_summary
        text += (
            f"\nfaults: {len(fault_summary['evictions'])} evictions, "
            f"{len(fault_summary['rejoins'])} rejoins, "
            f"final live workers {fault_summary['final_live_workers']}"
        )
    return text, payload


def _run_predict(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments.config import timing_config
    from repro.experiments.scalability import _supports, scale_worker_counts
    from repro.perf import SUPPORTED_ALGORITHMS, cross_validate, predict_run

    _install_fault_spec(args)

    name = args.algorithm.lower().replace("_", "-")
    algorithms = sorted(SUPPORTED_ALGORITHMS) if name == "all" else [name]
    unknown = [a for a in algorithms if a not in SUPPORTED_ALGORITHMS]
    if unknown:
        raise SystemExit(
            f"unknown algorithm {unknown[0]!r}: expected one of "
            f"{', '.join(sorted(SUPPORTED_ALGORITHMS))} or 'all'"
        )
    counts = (
        scale_worker_counts(args.max_workers)
        if args.max_workers is not None
        else (args.workers,)
    )

    def make_cfg(algo: str, n: int) -> Any:
        return timing_config(
            algo,
            num_workers=n,
            bandwidth_gbps=args.bandwidth,
            model=args.model,
            wait_free_bp=_supports(algo, "waitfree"),
        )

    payload: dict[str, Any] = {"predictions": [], "validations": []}
    rows = []
    for algo in algorithms:
        for n in counts:
            try:
                pred = predict_run(make_cfg(algo, n), strict=args.strict)
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
            payload["predictions"].append(pred.to_dict())
            rows.append(
                [
                    algo,
                    n,
                    f"{pred.iteration_time * 1e3:.1f}",
                    f"{pred.throughput:.0f}",
                    f"{pred.speedup:.1f}",
                    pred.regime,
                    f"{pred.elapsed_s * 1e3:.1f}",
                ]
            )
    print(
        format_table(
            ["algorithm", "workers", "iter ms", "images/s", "speedup", "regime", "model ms"],
            rows,
            title=(
                f"Analytic prediction — {args.model} @ {args.bandwidth:g} Gbps"
            ),
        )
    )
    if len(algorithms) == 1 and len(counts) == 1:
        pred = predict_run(make_cfg(algorithms[0], counts[0]), strict=args.strict)
        print("\nbreakdown (critical-path seconds per round):")
        for cat, secs in sorted(pred.breakdown.items()):
            print(f"  {cat:12s} {secs:8.4f}")
        print("capacity bounds (worker-iterations/s):")
        for station, rate in sorted(pred.bounds.items()):
            shown = "inf" if rate == float("inf") else f"{rate:.2f}"
            print(f"  {station:12s} {shown:>10s}")
    if args.validate:
        vrows = []
        for algo in algorithms:
            for n in counts:
                cv = cross_validate(make_cfg(algo, n))
                payload["validations"].append(cv.to_dict())
                vrows.append(
                    [
                        algo,
                        n,
                        f"{cv.simulated.throughput:.0f}",
                        f"{cv.prediction.throughput:.0f}",
                        f"{cv.rel_error:+.1%}",
                        f"{cv.speedup_vs_engine:.0f}x",
                    ]
                )
        print()
        print(
            format_table(
                ["algorithm", "workers", "engine", "analytic", "rel err", "speedup"],
                vrows,
                title="Cross-validation — analytic vs discrete-event",
            )
        )
    if args.output:
        from repro.io import save_json

        path = save_json(payload, args.output)
        print(f"\n[result written to {path}]")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.experiments.config import representative_config

    cfg = representative_config(
        args.experiment,
        workers=args.workers,
        iters=args.iters,
        epochs=args.epochs,
        model=args.model,
        bandwidth_gbps=args.bandwidth,
        seed=args.seed,
    )
    _instrumented_run(cfg, args.out, f"repro trace {args.experiment}")
    return 0


def _analyze_config(args: argparse.Namespace) -> Any:
    """Resolve the ``analyze`` target to one RunConfig: an experiment
    name maps to its representative run, a bare algorithm name to a
    small timing run."""
    from repro.core import ALGORITHMS
    from repro.experiments.config import representative_config, timing_config

    target = args.target.lower()
    if target in EXPERIMENTS:
        return representative_config(
            target,
            workers=args.workers,
            iters=args.iters,
            epochs=args.epochs,
            model=args.model,
            bandwidth_gbps=args.bandwidth,
            seed=args.seed,
        )
    key = target.replace("_", "-")
    if key not in ALGORITHMS:
        raise SystemExit(
            f"unknown analyze target {args.target!r}: expected an experiment "
            f"({', '.join(e for e in EXPERIMENTS if e != 'table1')}) "
            f"or an algorithm ({', '.join(sorted(ALGORITHMS))})"
        )
    kwargs: dict[str, Any] = dict(
        num_workers=args.workers if args.workers is not None else 8,
        bandwidth_gbps=args.bandwidth,
        model=args.model,
        seed=args.seed,
    )
    if args.iters is not None:
        kwargs["measure_iters"] = args.iters
    return timing_config(key, **kwargs)


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.ascii import attribution_report

    cfg = _analyze_config(args)
    result, report = _instrumented_run(
        cfg, args.trace_out, f"repro analyze {args.target}", analyze=True
    )
    if cfg.algorithm == "bsp" and getattr(result, "breakdown", None):
        from repro.analysis.breakdown import fig3_crosscheck

        report["fig3_crosscheck"] = fig3_crosscheck(
            result.breakdown, report["fractions"]
        )
    print(attribution_report(report))
    crosscheck = report.get("fig3_crosscheck")
    if crosscheck is not None:
        print(
            f"\nFig 3 model cross-check: "
            f"{'agrees' if crosscheck['agrees'] else 'DISAGREES'} "
            f"(compute-fraction diff {crosscheck['diffs']['compute']:.3f}, "
            f"tolerance {crosscheck['tolerance']:.2f})"
        )
    if args.json:
        from repro.io import save_json

        path = save_json(report, args.json)
        print(f"\n[report written to {path}]")
    if args.check:
        attributed = (
            report["totals"]["compute"]
            + report["totals"]["comm"]
            + report["totals"]["wait"]
        )
        total = report["totals"]["total"]
        gap = abs(attributed - total)
        ok = (
            report["windows"] > 0
            and report["max_residual"] <= 1e-6
            and gap <= 1e-6
            and report["truncated_windows"] == 0
        )
        measured = getattr(result, "measured_time", None)
        if ok and measured is not None and cfg.mode == "timing":
            ok = abs(total - measured) <= 1e-6 * max(1.0, measured)
        print(
            f"\ncheck: {'OK' if ok else 'FAILED'} — {report['windows']} window(s), "
            f"attributed-vs-wall gap {gap:.2e}, "
            f"max per-window residual {report['max_residual']:.2e}, "
            f"{report['truncated_windows']} truncated"
        )
        return 0 if ok else 1
    return 0


def _run_sweep_cmd(args: argparse.Namespace) -> int:
    from repro.experiments.session import (
        SweepSession,
        describe_session,
        list_sessions,
    )

    if args.sweep_command == "list":
        sessions = list_sessions()
        if args.json:
            print(json.dumps(sessions, indent=2, sort_keys=True))
            return 0
        if not sessions:
            print("no sweep sessions (run a sweep with --session to start one)")
            return 0
        for summary in sessions:
            print(describe_session(summary, created=True))
        return 0

    try:
        session = SweepSession.open(args.session)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.sweep_command == "show":
        print(session.summary())
        labels = {
            entry["fingerprint"]: entry["label"]
            for entry in session.manifest["runs"]
        }
        for fp in session.fingerprints:
            state = session.states[fp]
            attempts = session.attempts.get(fp, 0)
            extra = f" (attempts: {attempts})" if attempts > 1 else ""
            print(f"  {fp[:12]}  {state:9s}  {labels[fp]}{extra}")
        recovery = session.recovery
        if recovery["torn_tail"] or recovery["corrupt"]:
            print(
                f"journal recovery: {recovery['torn_tail']} torn tail line(s), "
                f"{recovery['corrupt']} corrupt line(s) dropped"
            )
        if args.json:
            from repro.io import save_json

            path = save_json(session.to_dict(), args.json)
            print(f"[session state written to {path}]")
        if args.trace_out:
            from repro.obs import write_session_trace

            path = write_session_trace(
                args.trace_out,
                session.records(),
                label=f"sweep session {session.id}",
                labels=labels,
            )
            print(f"[session trace written to {path}]")
        return 0

    # resume: re-execute the unfinished cells of the journaled grid.
    from repro.experiments.executor import SweepExecutor
    from repro.experiments.session import install_signal_guard

    if session.completed:
        print(session.summary())
        print("nothing to resume — re-run the original command to render output")
        return 0
    configs = session.load_configs()
    cache = bool(session.manifest.get("cache", True)) and not args.no_cache
    cache_dir = args.cache_dir or session.manifest.get("cache_dir")
    executor = SweepExecutor(
        jobs=args.jobs,
        cache=cache,
        cache_dir=cache_dir,
        progress=lambda line: print(line, file=sys.stderr),
        policy=_build_policy(args),
    )
    guard = install_signal_guard(executor)
    try:
        rc = _interruptible_sweep(lambda: executor.map(configs, session=session))
    finally:
        guard.uninstall()
    if rc is not None:
        return rc
    print(session.summary())
    print(f"sweep stats: {executor.total_stats.summary()}")
    stats = executor.total_stats
    if stats.failed:
        failed = [
            f"  {fp[:12]}  {entry['label']}"
            for entry, fp in (
                (e, e["fingerprint"]) for e in session.manifest["runs"]
            )
            if session.states.get(fp) == "failed"
        ]
        print("permanently failed cells:")
        print("\n".join(failed))
    else:
        print(
            "session complete — re-run the original command to render its "
            "tables (all runs are now cache hits)"
        )
    return 0


def _interruptible_sweep(run: "Callable[[], Any]") -> int | None:
    """Run a sweep body; on a clean interruption or preemption
    print how to resume and return the exit code (None = ran to
    completion — the caller renders its output)."""
    from repro.experiments.session import SweepInterrupted, SweepPreempted

    try:
        run()
    except SweepPreempted as exc:
        print(f"\n[sweep preempted: {exc}]", file=sys.stderr)
        print(f"[resume with: {exc.resume_command}]", file=sys.stderr)
        return 75  # EX_TEMPFAIL: yielded, try again later
    except SweepInterrupted as exc:
        print(f"\n[sweep interrupted: {exc}]", file=sys.stderr)
        print(f"[resume with: {exc.resume_command}]", file=sys.stderr)
        return 130  # conventional SIGINT exit
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    profile_out = getattr(args, "profile", None)
    if not profile_out:
        return _dispatch(args)
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        return _dispatch(args)
    finally:
        prof.disable()
        prof.dump_stats(profile_out)
        print(
            f"\n[profile written to {profile_out}; top 20 by cumulative time]",
            file=sys.stderr,
        )
        pstats.Stats(prof, stream=sys.stderr).sort_stats("cumulative").print_stats(20)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        from repro.core import ALGORITHMS

        print("experiments:", ", ".join(EXPERIMENTS))
        print("algorithms: ", ", ".join(sorted(ALGORITHMS)))
        return 0
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "predict":
        return _run_predict(args)
    if args.command == "sweep":
        return _run_sweep_cmd(args)
    sweep_stats = None
    _install_fault_spec(args)
    if args.command == "analyze":
        return _run_analyze(args)
    if args.command in ("run", "faults", "byzantine"):
        from repro.experiments.executor import SweepExecutor, set_default_executor
        from repro.experiments.session import install_signal_guard

        durable = args.session is not None or args.resume
        executor = SweepExecutor(
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            progress=lambda line: print(line, file=sys.stderr),
            policy=_build_policy(args),
            durable=durable,
            session_name=args.session or None,
            require_existing_session=args.resume,
        )
        set_default_executor(executor)
        guard = install_signal_guard(executor)
        outcome: dict[str, Any] = {}

        def _body() -> None:
            if args.command == "faults":
                outcome["rendered"] = _run_faults_cmd(args)
            elif args.command == "byzantine":
                outcome["rendered"] = _run_byzantine_cmd(args)
            else:
                outcome["rendered"] = _run_experiment(args)

        try:
            rc = _interruptible_sweep(_body)
        except FileNotFoundError as exc:
            if not args.resume:
                raise
            # --resume refused to start a fresh session for this grid.
            raise SystemExit(str(exc))
        finally:
            guard.uninstall()
        if rc is not None:
            return rc
        text, result = outcome["rendered"]
        if executor.total_stats.total:
            sweep_stats = executor.total_stats
        if executor.last_session is not None:
            print(
                f"[durable session {executor.last_session.id}: "
                f"{executor.last_session.summary()}]",
                file=sys.stderr,
            )
    else:
        text, result = _run_train(args)
    print(text)
    if sweep_stats is not None:
        print(f"\nsweep stats: {sweep_stats.summary()}")
        if sweep_stats.attribution:
            from repro.obs import attribution_summary_line

            for algo, attr in sweep_stats.attribution.items():
                print(f"attribution[{algo}]: {attribution_summary_line(attr)}")
    analysis = None
    if args.command == "run" and (args.trace_out or getattr(args, "analyze", False)):
        from repro.experiments.config import representative_config

        try:
            cfg = representative_config(
                args.experiment,
                workers=args.workers,
                iters=args.iters,
                epochs=args.epochs,
                model=args.model,
                bandwidth_gbps=args.bandwidth,
            )
        except ValueError as exc:
            print(f"[no instrumented run: {exc}]", file=sys.stderr)
        else:
            _, analysis = _instrumented_run(
                cfg,
                args.trace_out,
                f"repro run {args.experiment}",
                analyze=args.analyze,
            )
            if analysis is not None:
                from repro.analysis.ascii import attribution_report

                print()
                print(
                    attribution_report(
                        analysis,
                        title=(
                            f"Critical-path analysis — {args.experiment} "
                            f"(representative {cfg.algorithm} run)"
                        ),
                    )
                )
    if args.output:
        if args.command in ("run", "faults", "byzantine") and sweep_stats is not None:
            payload: Any = {"result": result, "sweep_stats": sweep_stats.to_dict()}
            if sweep_stats.attribution:
                from repro.obs import attribution_summary_line

                payload["attribution_summary"] = {
                    algo: attribution_summary_line(attr)
                    for algo, attr in sweep_stats.attribution.items()
                }
            if analysis is not None:
                payload["analysis"] = analysis
                payload["attribution_summary"] = analysis["summary"]
        else:
            payload = result
        from repro.io import save_json

        path = save_json(payload, args.output)
        print(f"\n[result written to {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
