"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9"])

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "fig4", "--model", "vgg16", "--bandwidth", "56", "--seeds", "0,1"]
        )
        assert args.experiment == "fig4"
        assert args.model == "vgg16"
        assert args.bandwidth == 56.0
        assert args.seeds == (0, 1)


class TestUsageErrors:
    """Bad or ignored input is refused up front: exit 2, one error line
    naming the known choices, no traceback and no run."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "table1", "--seeds", "0,x"], "argument --seeds: expected"),
            (["run", "table2", "--seeds", ","], "argument --seeds: expected"),
            (["faults", "--scenarios", "nonesuch"], "known: crash, crash-rejoin"),
            (["byzantine", "--aggregators", "nonesuch"], "known: krum, mean"),
            (["faults", "--algorithms", "nonesuch"], "known: ad-psgd, ar-sgd"),
            (["faults", "--rack-scale", "--algorithms", "nonesuch"], "known: ar-sgd/hring"),
            (["faults", "--oversubscription", "8"], "need --rack-scale"),
            (["faults", "--machines-per-rack", "4"], "need --rack-scale"),
            (["run", "fig3", "--model", "vgg16"], "fig3 does not take --model; it takes --iters"),
            (["run", "table3", "--workers", "4"], "does not take --workers; it takes --epochs"),
            (["run", "fig2", "--bandwidth", "5"], "run fig2 does not take --bandwidth"),
            (["run", "fig2", "--bandwidth", "0"], "argument --bandwidth: expected a positive"),
            (["run", "fig4", "--analytic"], "run fig4 does not take --analytic"),
            (["run", "fig3", "--max-workers", "64"], "run fig3 does not take --max-workers"),
            (["run", "table1", "--epochs", "1"], "table1 does not take --epochs; it takes none"),
        ],
        ids=[
            "seeds-not-int",
            "seeds-empty",
            "unknown-scenario",
            "unknown-aggregator",
            "unknown-algorithm",
            "unknown-rack-cell",
            "oversubscription-without-rack-scale",
            "machines-per-rack-without-rack-scale",
            "run-drops-model",
            "run-drops-workers",
            "run-drops-bandwidth",
            "run-zero-bandwidth",
            "run-drops-analytic",
            "run-drops-max-workers",
            "run-table1-takes-no-shape",
        ],
    )
    def test_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert "error:" in last and message in last

    def test_the_representative_run_takes_the_shape_options(self, tmp_path, monkeypatch):
        """``--trace-out``/``--analyze`` instrument one run at the shape
        the options give, so fig2 accepts --workers then."""
        import repro.cli as cli
        import repro.experiments.artefact as artefacts

        shapes, handed = [], []
        table = type("Table", (), {"record": lambda self: {}})()
        monkeypatch.setattr(
            artefacts, "run_artefact", lambda spec, **shape: shapes.append(shape) or table
        )
        monkeypatch.setattr(artefacts, "render", lambda table: "table")
        monkeypatch.setattr(
            cli, "_instrumented_run", lambda cfg, *a, **kw: handed.append(cfg) or (None, None)
        )
        argv = ["run", "fig2", "--workers", "8", "--trace-out", str(tmp_path / "t.json")]
        assert main([*argv, "--no-cache"]) == 0
        assert "num_workers" not in shapes[0]
        assert [cfg.num_workers for cfg in handed] == [8]

    def test_algorithm_names_keep_their_spellings(self):
        from repro.cli import _known

        args = build_parser().parse_args(["faults", "--algorithms", "AR_SGD,bsp"])
        known = ("ar-sgd", "bsp")
        names = _known(args, "--algorithms", args.algorithms, known, algorithms=True)
        assert names == ("AR_SGD", "bsp")


class TestDriverDefaults:
    """Options a command leaves unset take the artefact's defaults, which
    are the values the CLI used to spell out."""

    @pytest.mark.parametrize(
        "argv, artefact, expected",
        [
            (["faults"], "faults", dict(num_workers=8, measure_iters=20)),
            (
                ["faults", "--rack-scale"],
                "rack-faults",
                dict(num_workers=256, measure_iters=6, machines_per_rack=16, oversubscription=4.0),
            ),
        ],
    )
    def test_unset_options_resolve(self, argv, artefact, expected, monkeypatch):
        import repro.cli as cli
        import repro.experiments.artefact as artefacts

        seen = {}

        def capture(spec, **shape):
            seen["name"] = spec.name
            seen.update(spec.shape, **shape)
            raise SystemExit

        monkeypatch.setattr(artefacts, "run_artefact", capture)
        with pytest.raises(SystemExit):
            cli._run_artefact_cmd(build_parser().parse_args(argv))
        assert seen["name"] == artefact
        assert {key: seen[key] for key in expected} == expected


def test_light_commands_do_not_load_the_simulator(tmp_path):
    """``--help``, a usage error and ``sweep list`` import neither the
    runner, ``nn`` nor the engine (numpy may load: ``repro.io`` needs it)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "heavy = {'repro.core.runner', 'repro.nn', 'repro.sim.engine'} & set(sys.modules)\n"
        "assert not heavy, heavy\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, REPRO_SESSION_DIR=str(tmp_path))
    for argv in (["sweep", "list"], ["--help"], ["run", "fig9"]):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, (argv, done.stderr)


def test_cli_runs_blas_on_one_thread_unless_told_otherwise():
    """``main()`` sets the BLAS thread variables before numpy loads, so
    the process has one thread; a value the user set wins."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.cli import BLAS_THREAD_VARIABLES

    if not Path("/proc/self/task").is_dir():
        pytest.skip("counts threads through /proc")
    script = (
        "import os, sys\n"
        "from repro.cli import main\n"
        "main(['list'])\n"
        "assert 'numpy' in sys.modules\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def threads_and_setting(env):
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.split()[-2:]

    assert threads_and_setting(env) == ["1", "1"]
    assert threads_and_setting(dict(env, OPENBLAS_NUM_THREADS="2"))[1] == "2"


class TestCommands:
    def test_list_prints_algorithms(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bsp" in out and "ad-psgd" in out
        assert "table2" in out and "fig4" in out

    def test_table1_runs_instantly(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "AD-PSGD" in out

    def test_train_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "history.json"
        code = main(
            [
                "train",
                "bsp",
                "--workers",
                "2",
                "--epochs",
                "1",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        data = json.loads(out_file.read_text())
        assert data["algorithm"].startswith("BSP")
        assert 0.0 <= data["test_accuracy"][-1] <= 1.0

    def test_run_table2_tiny(self, capsys, monkeypatch):
        # Shrink the protocol so the CLI path is testable in seconds.
        import dataclasses

        import repro.experiments.accuracy as acc

        table2 = acc.ARTEFACTS["table2"]
        tiny = dataclasses.replace(table2, shape={**table2.shape, "algorithms": ("bsp",)})
        monkeypatch.setitem(acc.ARTEFACTS, "table2", tiny)
        assert main(["run", "table2", "--workers", "2", "--epochs", "1"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestTraceExport:
    def test_trace_command_writes_perfetto_json(self, tmp_path, capsys):
        out_file = tmp_path / "fig3.json"
        code = main(
            ["trace", "fig3", "--workers", "2", "--iters", "2", "--out", str(out_file)]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        trace = json.loads(out_file.read_text())
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" and e.get("cat") == "phase" for e in events)
        assert any(e["ph"] == "C" for e in events)

    def test_trace_rejects_table1(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "table1", "--out", "x.json"])

    def test_run_trace_out_and_sweep_stats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_file = tmp_path / "result.json"
        trace_file = tmp_path / "trace.json"
        code = main(
            [
                "run", "fig3",
                "--iters", "2",
                "--workers", "2",
                "--jobs", "1",
                "--output", str(out_file),
                "--trace-out", str(trace_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep stats:" in out
        data = json.loads(out_file.read_text())
        assert {"result", "sweep_stats"} <= set(data)
        assert data["sweep_stats"]["executed"] > 0
        # Timing sweeps carry phase breakdowns, so the attribution
        # summary rides along for free.
        assert "bsp" in data["attribution_summary"]
        assert "compute" in data["attribution_summary"]["bsp"]
        trace = json.loads(trace_file.read_text())
        assert trace["traceEvents"]

    def test_run_instruments_the_first_seed(self, monkeypatch, capsys):
        import repro.cli as cli

        handed = []
        monkeypatch.setattr(cli, "_run_artefact_cmd", lambda args: ("table", {}))
        monkeypatch.setattr(
            cli, "_instrumented_run", lambda cfg, *a, **kw: handed.append(cfg) or (None, None)
        )
        assert main(["run", "table2", "--seeds", "3,4", "--analyze", "--no-cache"]) == 0
        assert [cfg.seed for cfg in handed] == [3]


class TestAnalyze:
    def test_parser_accepts_analyze(self):
        args = build_parser().parse_args(
            ["analyze", "bsp", "--workers", "4", "--iters", "3", "--check"]
        )
        assert args.command == "analyze"
        assert args.target == "bsp"
        assert args.check

    def test_analyze_algorithm_check_passes(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        code = main(
            [
                "analyze", "bsp",
                "--workers", "4",
                "--iters", "3",
                "--check",
                "--json", str(report_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "Critical-path analysis" in out
        assert "what-if projections" in out
        assert "check: OK" in out
        report = json.loads(report_file.read_text())
        assert report["algorithm"] == "bsp"
        attributed = sum(report["totals"][k] for k in ("compute", "comm", "wait"))
        assert abs(attributed - report["totals"]["total"]) <= 1e-6

    def test_analyze_experiment_target(self, capsys):
        code = main(["analyze", "fig3", "--workers", "2", "--iters", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Critical-path analysis" in out
        # fig3's representative run is BSP: the Fig 3 cross-check runs.
        assert "Fig 3 model cross-check" in out

    def test_analyze_trace_out_gets_critpath_lane(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code = main(
            [
                "analyze", "bsp",
                "--workers", "2",
                "--iters", "2",
                "--trace-out", str(trace_file),
            ]
        )
        assert code == 0
        trace = json.loads(trace_file.read_text())
        assert any(e.get("cat") == "critpath" for e in trace["traceEvents"])

    def test_analyze_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["analyze", "nonesuch"])

    def test_train_analyze_payload(self, tmp_path, capsys):
        out_file = tmp_path / "history.json"
        code = main(
            [
                "train", "bsp",
                "--workers", "2",
                "--epochs", "1",
                "--analyze",
                "--output", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Critical-path analysis" in out
        data = json.loads(out_file.read_text())
        assert data["attribution_summary"].startswith("compute ")
        assert data["analysis"]["windows"] > 0


class TestDurableSweepCLI:
    """The sweep subcommand family and the drivers' durable flags."""

    @pytest.fixture(autouse=True)
    def isolated_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SESSION_DIR", str(tmp_path / "sessions"))
        self.tmp_path = tmp_path

    def _run(self, *extra):
        return main(
            [
                "faults",
                "--scenarios", "crash",
                "--algorithms", "bsp",
                "--workers", "2",
                "--iters", "2",
                "--jobs", "1",
                *extra,
            ]
        )

    def test_parser_accepts_durable_flags(self):
        args = build_parser().parse_args(
            ["run", "fig3", "--session", "--run-timeout", "5", "--retries", "2"]
        )
        assert args.session == ""  # durable, unnamed
        assert args.run_timeout == 5.0
        assert args.retries == 2
        named = build_parser().parse_args(["run", "fig3", "--session", "nightly"])
        assert named.session == "nightly"
        plain = build_parser().parse_args(["run", "fig3"])
        assert plain.session is None and plain.resume is False

    def test_durable_sweep_then_list_show_resume(self, capsys):
        assert self._run("--session", "t1") == 0
        err = capsys.readouterr().err
        assert "journal at" in err
        assert "[durable session" in err

        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "complete" in out

        assert main(["sweep", "show", "t1"]) == 0
        out = capsys.readouterr().out
        assert "1/1 done" in out and "bsp/timing" in out

        assert main(["sweep", "resume", "t1"]) == 0
        out = capsys.readouterr().out
        assert "nothing to resume" in out

    def test_sweep_show_json_and_trace(self, capsys, tmp_path):
        assert self._run("--session", "t2") == 0
        capsys.readouterr()
        state = tmp_path / "state.json"
        trace = tmp_path / "trace.json"
        assert main(
            ["sweep", "show", "t2", "--json", str(state), "--trace-out", str(trace)]
        ) == 0
        data = json.loads(state.read_text())
        assert data["completed"] is True
        assert data["counts"]["done"] == 1
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)

    def test_sweep_resume_completes_interrupted_session(self, capsys):
        # Build an interrupted session directly (stop after 0 runs
        # would never journal; instead journal a start then abandon by
        # opening) — simplest honest setup: a durable sweep stopped by
        # request_stop before any run completes.
        from repro.experiments.config import timing_config
        from repro.experiments.executor import SweepExecutor
        from repro.experiments.session import SweepInterrupted

        grid = [
            timing_config("bsp", num_workers=n, measure_iters=2, warmup_iters=1)
            for n in (1, 2)
        ]
        ex = SweepExecutor(jobs=1, durable=True)
        ex.request_stop("test setup")
        with pytest.raises(SweepInterrupted):
            ex.map(grid)
        sid = ex.last_session.id
        capsys.readouterr()
        assert main(["sweep", "resume", sid]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out
        assert "session complete" in out

    def test_plain_sweep_stops_cleanly_on_first_signal(self, capsys, monkeypatch):
        """No --session: the guard is installed all the same, so the
        first SIGINT is a clean exit 130, not a KeyboardInterrupt."""
        import os
        import signal

        import repro.experiments.session as session_module

        real_install = session_module.install_signal_guard
        previous = signal.getsignal(signal.SIGINT)

        def install_then_signal(executor):
            guard = real_install(executor)
            os.kill(os.getpid(), signal.SIGINT)
            return guard

        monkeypatch.setattr(
            session_module, "install_signal_guard", install_then_signal
        )
        assert self._run() == 130
        err = capsys.readouterr().err
        assert "sweep interrupted" in err
        assert "re-run the same command" in err
        assert signal.getsignal(signal.SIGINT) is previous  # guard removed

    def test_sweep_resume_honours_manifest_cache_dir(self, capsys):
        assert self._run("--session", "t3") == 0
        manifest_files = list(
            (self.tmp_path / "sessions").glob("*/grid.json")
        )
        assert manifest_files
        manifest = json.loads(manifest_files[0].read_text())
        assert manifest["cache_dir"] is None  # env default, not a flag

    def test_unknown_session_exits_cleanly(self):
        with pytest.raises(SystemExit, match="no sweep session"):
            main(["sweep", "show", "nonesuch"])

    def test_resume_flag_rejects_fresh_grid(self, capsys):
        with pytest.raises(SystemExit, match="no existing session"):
            self._run("--resume")

    def test_resume_flag_accepts_existing_grid(self, capsys):
        assert self._run("--session") == 0
        capsys.readouterr()
        assert self._run("--resume") == 0
        err = capsys.readouterr().err
        assert "0 to execute" in err
