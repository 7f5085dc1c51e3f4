"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro list
    python -m repro run table2 [--workers 24] [--epochs 30] [--seeds 0,1]
    python -m repro run fig2 [--model resnet50|vgg16] [--jobs 8] [--cache-dir DIR]
    python -m repro run fig4 [--model resnet50] [--bandwidth 10]
    python -m repro run fig2 --analytic --max-workers 10000
    python -m repro run fig3 [--trace-out trace.json] [--analyze] [--output out.json]
    python -m repro run fig2 --session nightly --run-timeout 600 --retries 3
    python -m repro train bsp --workers 8 --epochs 10 [--fault-spec faults.json]
    python -m repro predict bsp --workers 1024 [--bandwidth 10] [--validate]
    python -m repro predict all --max-workers 10000 --output curves.json
    python -m repro trace fig3 --out fig3_trace.json
    python -m repro analyze bsp --workers 4 --iters 5 --check [--json report.json]
    python -m repro faults [--workers 8] [--scenarios crash,partition]
    python -m repro faults --rack-scale [--scenarios rack-outage,tor-outage]
    python -m repro byzantine [--byzantine 1] [--aggregators mean,median,krum]
    python -m repro sweep list
    python -m repro sweep show <session> [--json out.json] [--trace-out t.json]
    python -m repro sweep resume <session> [--jobs 8]

README.md explains each family — fast and durable sweeps, fault
injection, Byzantine resilience, analytic prediction, traces and
critical-path analysis; ``python -m repro <command> --help`` lists a
command's options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, NoReturn

__all__ = ["main", "build_parser"]

# Everything heavier than argparse (numpy, the engine, repro.io) is
# imported inside the command handlers: `repro --help`, bad-usage
# errors and `repro sweep list` should not pay for the simulator.

EXPERIMENTS = ("table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4")


def _comma_list(item: Callable[[str], Any] = str) -> Callable[[str], tuple]:
    """An argparse ``type=``: a non-empty comma-separated list of ``item``."""

    def parse(text: str) -> tuple:
        try:
            items = tuple(item(s) for s in text.split(",") if s)
        except ValueError:
            items = ()
        if not items:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {item.__name__}, got {text!r}"
            )
        return items

    return parse


_SWITCH: dict[str, Any] = {"action": "store_true"}

#: Every option, spelled once. A command takes the ones it lists in
#: build_parser(); where commands differ on a default, each sets its own.
OPTIONS: dict[str, dict[str, Any]] = {
    # What a run or a sweep simulates.
    "--workers": dict(type=int, help="worker count (default: the command's own)"),
    "--epochs": dict(type=float, help="training epochs (accuracy runs)"),
    "--iters": dict(type=int, help="measured iterations (timing runs)"),
    "--model": dict(choices=("resnet50", "vgg16"), default="resnet50"),
    "--bandwidth": dict(type=float, default=10.0, help="Gbps (timing runs)"),
    "--fabric": dict(choices=("10g", "56g"), default="56g"),
    "--seed": dict(type=int, default=0),
    "--seeds": dict(type=_comma_list(int), default="0", help="comma-separated seeds"),
    "--max-workers": dict(type=int, help="predict a whole scaling curve up to this N "
                          "instead of one point (run: fig2 only, e.g. 10000)"),
    "--analytic": dict(_SWITCH, help="fig2 only: evaluate the grid with the closed-form "
                       "models of repro.perf instead of the discrete-event engine"),
    # Grids beyond the paper.
    "--scenarios": dict(type=_comma_list(), help="comma-separated scenario names "
                        "(default: all)"),
    "--algorithms": dict(type=_comma_list(), help="comma-separated algorithm names "
                         "(default: all seven; with --rack-scale, cells such as ar-sgd/hring)"),
    "--rack-scale": dict(_SWITCH, help="run the rack-scale chaos matrix instead: fabric "
                         "fault scenarios (rack/ToR/uplink/spine) x hierarchical collectives "
                         "on a leaf/spine cluster (default: 256 workers, 6 iterations)"),
    "--machines-per-rack": dict(type=int, help="rack width for --rack-scale (default 16)"),
    "--oversubscription": dict(type=float, help="ToR uplink oversubscription for "
                               "--rack-scale (default 4.0)"),
    "--aggregators": dict(type=_comma_list(), help="comma-separated aggregation rules "
                          "(default: mean,median,trimmed_mean,krum)"),
    "--byzantine": dict(type=int, default=1, help="number of hostile workers"),
    "--scale": dict(type=float, default=10.0, help="attack amplification (-scale*grad)"),
    "--fault-spec": dict(type=str, help="JSON fault schedule (FaultConfig.save format) "
                         "injected into the run(s)"),
    "--fault-seed": dict(type=int, help="override the fault schedule's RNG seed"),
    # The sweep executor.
    "--jobs": dict(type=int, help="parallel simulator processes (default: all cores)"),
    "--no-cache": dict(_SWITCH, help="ignore and do not populate the run cache"),
    "--cache-dir": dict(type=str, help="run-cache directory "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)"),
    "--session": dict(type=str, nargs="?", const="", metavar="NAME",
                      help="journal this sweep as a durable session (optionally named "
                      "NAME); re-running the same grid auto-resumes it, and "
                      "'repro sweep resume' finishes it after a crash"),
    "--resume": dict(_SWITCH, help="durable, but refuse to start a new session: only "
                     "resume one whose journal already exists for this exact grid"),
    "--run-timeout": dict(type=float, metavar="SECONDS", help="wall-clock deadline per "
                          "run attempt; hung runs are killed and retried"),
    "--retries": dict(type=int, metavar="N", help="attempts per run before it is "
                      "classified permanently failed (default 3; failed cells degrade, "
                      "they do not abort the sweep)"),
    # What a command writes.
    "--output": dict(type=str, help="write the JSON result here"),
    "--json": dict(type=str, help="write the full report (sweep show: the session "
                   "state) as JSON here"),
    "--out": dict(type=str, required=True, help="trace JSON path"),
    "--trace-out": dict(type=str, help="also export a Perfetto trace here: of one "
                        "representative run (run), of this run (train), with the critical "
                        "path highlighted (analyze), of the journal (sweep show)"),
    "--analyze": dict(_SWITCH, help="critical-path analysis of the instrumented run: "
                      "print the compute/comm/wait attribution report (and include it "
                      "in --output JSON)"),
    "--check": dict(_SWITCH, help="exit non-zero unless the attribution is conservative "
                    "(compute+comm+wait sums to wall time; CI smoke mode)"),
    "--validate": dict(_SWITCH, help="also run the discrete-event engine on the same "
                       "config(s) and report the relative error (single-point mode; "
                       "slow at large N)"),
    "--strict": dict(_SWITCH, help="refuse (exit non-zero) instead of warning when the "
                     "config carries a fault schedule the analytic models cannot honour"),
    "--profile": dict(type=str, metavar="PSTATS_FILE", help="profile the command under "
                      "cProfile: dump raw pstats here and print the top-20 functions by "
                      "cumulative time to stderr"),
}
SHAPE = ("--workers", "--iters", "--epochs", "--model", "--bandwidth")
FAULT_SPEC = ("--fault-spec", "--fault-seed")
SWEEP = ("--jobs", "--no-cache", "--cache-dir")
DURABLE = ("--session", "--resume", "--run-timeout", "--retries")
SESSION = {"session": dict(help="session id, unique prefix, or name")}


def _command(group: Any, name: str, summary: str, *options: str,
             args: dict[str, dict] | None = None, **defaults: Any) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with its positionals ``args``, the
    listed ``options`` and its own ``defaults`` for them."""
    parser = group.add_parser(name, help=summary)
    for dest, kwargs in (args or {}).items():
        parser.add_argument(dest, **kwargs)
    for flag in options:
        parser.add_argument(flag, **OPTIONS[flag])
    parser.set_defaults(**defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of Ko et al., IPDPS 2021.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "list", "list available experiments and algorithms")
    _command(sub, "run", "regenerate one table/figure",
             *SHAPE, "--seeds", "--analytic", "--max-workers", "--output", "--trace-out",
             "--analyze", "--profile", *FAULT_SPEC, *SWEEP, *DURABLE,
             args={"experiment": dict(choices=EXPERIMENTS)})
    _command(sub, "train", "train one algorithm and print its history",
             "--workers", "--epochs", "--seed", "--fabric", "--output", "--trace-out",
             "--analyze", "--profile", *FAULT_SPEC,
             args={"algorithm": {}}, workers=4, epochs=10.0)
    _command(sub, "faults", "fault-tolerance grid: failure scenarios x algorithms",
             "--scenarios", "--algorithms", "--rack-scale", "--machines-per-rack",
             "--oversubscription", "--workers", "--iters", "--model", "--bandwidth",
             "--seed", "--fault-seed", "--output", *SWEEP, *DURABLE, fault_seed=0)
    _command(sub, "byzantine", "Byzantine-resilience grid: robust aggregators x algorithms",
             "--algorithms", "--aggregators", "--workers", "--byzantine", "--scale",
             "--epochs", "--seed", "--fault-seed", "--output", *SWEEP, *DURABLE,
             workers=8, epochs=20.0, fault_seed=0)
    _command(sub, "predict", "analytic iteration-time prediction (closed form, no simulation)",
             "--workers", "--max-workers", "--model", "--bandwidth", "--validate",
             "--output", "--strict", *FAULT_SPEC, workers=24,
             args={"algorithm": dict(help="algorithm name, or 'all' for every "
                                     "supported algorithm")})
    _command(sub, "analyze", "critical-path analysis of one instrumented run",
             *SHAPE, "--seed", "--json", "--trace-out", "--check", *FAULT_SPEC,
             args={"target": dict(help="experiment name (representative run) or "
                                  "algorithm name (timing run)")})
    sweep = sub.add_parser("sweep", help="durable sweep sessions: list, inspect, resume")
    sessions = sweep.add_subparsers(dest="sweep_command", required=True)
    _command(sessions, "list", "list known sessions, newest first").add_argument(
        "--json", action="store_true", help="print machine-readable summaries"
    )
    _command(sessions, "show", "per-run states and journal of one session",
             "--json", "--trace-out", args=SESSION)
    _command(sessions, "resume", "re-execute the unfinished runs of a session",
             *SWEEP, "--run-timeout", "--retries", args=SESSION)
    _command(sub, "trace", "export a Perfetto trace of one representative run",
             "--out", *SHAPE, "--seed", args={"experiment": dict(choices=EXPERIMENTS[1:])})
    return parser


def _usage_error(args: argparse.Namespace, message: str) -> NoReturn:
    """Reject bad input as argparse does: one line on stderr, exit 2."""
    print(f"repro {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _known(
    args: argparse.Namespace,
    option: str,
    names: tuple[str, ...] | None,
    known: Any,
    *,
    algorithms: bool = False,
) -> tuple[str, ...] | None:
    """``names`` if each is in ``known`` (algorithm names in any case,
    ``_`` for ``-``), else a usage error that lists the known set."""
    unknown = [
        n for n in names or ()
        if (n.lower().replace("_", "-") if algorithms else n) not in known
    ]
    if unknown:
        _usage_error(
            args, f"{option}: unknown {', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )
    return names


def _given(**kwargs: Any) -> dict[str, Any]:
    """The keyword arguments the user set; ``None`` keeps the artefact's default."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _write_json(payload: Any, path: str, what: str = "result", lead: str = "\n") -> None:
    from repro.io import save_json

    print(f"{lead}[{what} written to {save_json(payload, path)}]")


def _with_analysis(payload: dict, report: dict | None) -> dict:
    """``payload`` carrying a critical-path report, if there is one."""
    if report is not None:
        payload["analysis"] = report
        payload["attribution_summary"] = report["summary"]
    return payload


def _build_policy(args: argparse.Namespace) -> "Any | None":
    """Build the RunPolicy implied by ``--run-timeout``/``--retries``."""
    if args.run_timeout is None and args.retries is None:
        return None
    from repro.experiments.session import RunPolicy

    return RunPolicy(**_given(timeout_s=args.run_timeout, max_attempts=args.retries))


def _install_fault_spec(args: argparse.Namespace) -> None:
    """Load ``--fault-spec`` (if given) and make it the process-wide
    default so every config built afterwards carries it."""
    if not getattr(args, "fault_spec", None):
        return
    from repro.experiments.config import set_default_faults
    from repro.faults import FaultConfig

    faults = FaultConfig.load(args.fault_spec)
    if args.fault_seed is not None:
        faults = faults.with_seed(args.fault_seed)
    set_default_faults(faults)


#: option -> the artefact shape key it sets, where the two names differ
_SHAPE_KEYS = {"workers": "num_workers", "iters": "measure_iters", "bandwidth": "bandwidth_gbps"}


def _run_artefact_cmd(args: argparse.Namespace) -> tuple[str, Any]:
    """``run``, ``faults [--rack-scale]`` and ``byzantine``: look the
    artefact up by name, run its grid at the shape the options give
    and render it; returns (rendered, ``--output`` record)."""
    if args.command == "faults":
        name = "rack-faults" if args.rack_scale else "faults"
        if not args.rack_scale and (args.machines_per_rack, args.oversubscription) != (None, None):
            _usage_error(args, "--machines-per-rack and --oversubscription need --rack-scale")
    else:
        name = args.experiment if args.command == "run" else args.command
    if name == "table1":
        from repro.analysis.tables import format_table
        from repro.core.complexity import table1_rows

        rows = table1_rows()
        text = format_table(
            ["name", "category", "convergence rate", "comm complexity"],
            [[r["name"], r["category"], r["convergence_rate"], r["comm_complexity"]] for r in rows],
            title="Table I — summary of distributed training algorithms",
        )
        return text, rows
    from repro.experiments.artefact import artefact, render, run_artefact

    spec = artefact(name)
    keys = dict(_SHAPE_KEYS, algorithms="cells" if name == "rack-faults" else "algorithms")
    shape = _given(**{keys.get(dest, dest): getattr(args, dest) for dest in spec.cli})
    for dest in spec.cli:
        key = keys.get(dest, dest)
        if key in spec.choices:
            option = "--" + dest.replace("_", "-")
            _known(args, option, shape.get(key), spec.choices[key], algorithms=key == "algorithms")
    executor = None
    if name == "fig2" and args.analytic:
        from repro.experiments.scalability import Analytic

        executor = Analytic()
    seeds = args.seeds if "seeds" in args else (args.seed,)
    table = run_artefact(spec, seeds=seeds, executor=executor, **shape)
    return render(table), table.record()


def _representative(args: argparse.Namespace, experiment: str) -> Any:
    """The one run ``trace``, ``analyze <experiment>`` and ``run
    --trace-out/--analyze`` instrument: the experiment's representative
    config at the command's shape and (first) seed."""
    from repro.experiments.config import representative_config

    return representative_config(
        experiment,
        workers=args.workers,
        iters=args.iters,
        epochs=args.epochs,
        model=args.model,
        bandwidth_gbps=args.bandwidth,
        seed=args.seeds[0] if "seeds" in args else args.seed,
    )


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


def _run_train(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.core.runner import DistributedRunner
    from repro.experiments.config import mini_accuracy_config
    from repro.io import to_jsonable

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
    payload = _with_analysis(to_jsonable(history), report)
    if report is not None:
        from repro.analysis.ascii import attribution_report

        text += "\n\n" + attribution_report(report)
    fault_summary = history.metadata.get("faults")
    if fault_summary is not None:
        payload["faults"] = fault_summary
        text += (
            f"\nfaults: {len(fault_summary['evictions'])} evictions, "
            f"{len(fault_summary['rejoins'])} rejoins, "
            f"final live workers {fault_summary['final_live_workers']}"
        )
    print(text)
    if args.output:
        _write_json(payload, args.output)
    return 0


def _run_predict(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments.config import timing_config
    from repro.experiments.scalability import WAITFREE_ALGORITHMS, scale_worker_counts
    from repro.perf import SUPPORTED_ALGORITHMS, cross_validate, predict_run

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
            wait_free_bp=algo in WAITFREE_ALGORITHMS,
        )

    payload: dict[str, Any] = {"predictions": [], "validations": []}
    rows = []
    for algo in algorithms:
        for n in counts:
            try:
                pred = predict_run(make_cfg(algo, n), strict=args.strict)
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
            payload["predictions"].append(pred)
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
    if len(rows) == 1:
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
        _write_json(payload, args.output)
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    cfg = _representative(args, args.experiment)
    _instrumented_run(cfg, args.out, f"repro trace {args.experiment}")
    return 0


def _analyze_config(args: argparse.Namespace) -> Any:
    """Resolve the ``analyze`` target to one RunConfig: an experiment
    name maps to its representative run, a bare algorithm name to a
    small timing run."""
    from repro.core import ALGORITHMS
    from repro.experiments.config import timing_config

    target = args.target.lower()
    if target in EXPERIMENTS:
        return _representative(args, target)
    key = target.replace("_", "-")
    if key not in ALGORITHMS:
        raise SystemExit(
            f"unknown analyze target {args.target!r}: expected an experiment "
            f"({', '.join(EXPERIMENTS[1:])}) "
            f"or an algorithm ({', '.join(sorted(ALGORITHMS))})"
        )
    return timing_config(
        key,
        num_workers=args.workers if args.workers is not None else 8,
        bandwidth_gbps=args.bandwidth,
        model=args.model,
        seed=args.seed,
        **_given(measure_iters=args.iters),
    )


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
        _write_json(report, args.json, "report")
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
            _write_json(session.to_dict(), args.json, "session state", lead="")
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
    try:
        configs = session.load_configs()
    except ValueError as exc:
        raise SystemExit(str(exc))
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


def _run_grid(args: argparse.Namespace) -> int:
    """``run``, ``faults`` and ``byzantine``: one sweep through the
    executor, then its table, stats and (``run``) instrumented run."""
    from repro.analysis.breakdown import attribution_summary_line
    from repro.experiments.executor import SweepExecutor, set_default_executor
    from repro.experiments.session import install_signal_guard

    executor = SweepExecutor(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=lambda line: print(line, file=sys.stderr),
        policy=_build_policy(args),
        durable=args.session is not None or args.resume,
        session_name=args.session or None,
        require_existing_session=args.resume,
    )
    set_default_executor(executor)
    guard = install_signal_guard(executor)
    outcome: dict[str, Any] = {}
    try:
        rc = _interruptible_sweep(
            lambda: outcome.setdefault("rendered", _run_artefact_cmd(args))
        )
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
    sweep_stats = executor.total_stats if executor.total_stats.total else None
    if executor.last_session is not None:
        print(
            f"[durable session {executor.last_session.id}: "
            f"{executor.last_session.summary()}]",
            file=sys.stderr,
        )
    print(text)
    if sweep_stats is not None:
        print(f"\nsweep stats: {sweep_stats.summary()}")
        for algo, attr in sweep_stats.attribution.items():
            print(f"attribution[{algo}]: {attribution_summary_line(attr)}")
    analysis = None
    if args.command == "run" and (args.trace_out or args.analyze):
        try:
            cfg = _representative(args, args.experiment)
        except ValueError as exc:
            print(f"[no instrumented run: {exc}]", file=sys.stderr)
        else:
            _, analysis = _instrumented_run(
                cfg, args.trace_out, f"repro run {args.experiment}", analyze=args.analyze
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
        if sweep_stats is None:
            payload = result
        else:
            payload = {"result": result, "sweep_stats": sweep_stats}
            if sweep_stats.attribution:
                payload["attribution_summary"] = {
                    algo: attribution_summary_line(attr)
                    for algo, attr in sweep_stats.attribution.items()
                }
            _with_analysis(payload, analysis)
        _write_json(payload, args.output)
    return 0


#: Set to 1 unless the user set them: on these small models a second
#: BLAS thread only spins, and ``--jobs`` is how a sweep goes parallel
#: (EXPERIMENTS "Fast sweeps"). numpy reads them once, when it loads.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
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
    _install_fault_spec(args)
    handlers = {
        "train": _run_train,
        "predict": _run_predict,
        "trace": _run_trace,
        "analyze": _run_analyze,
        "sweep": _run_sweep_cmd,
    }
    return handlers.get(args.command, _run_grid)(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
