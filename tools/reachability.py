#!/usr/bin/env python3
"""Which ``src/repro`` code the commands, artefacts and ledger enter.

Prints two lists:

* **never entered** — every function under ``src/repro`` that no entry
  point calls, recorded with a call-only ``sys.settrace`` /
  ``threading.settrace`` hook while these run in this process:

  - every ``repro`` subcommand through ``repro.cli.main``, with
    ``--jobs 1`` so that runs stay in-process;
  - every artefact at ``tests/experiments/test_artefacts.py``'s ``TINY``
    shapes;
  - ``examples/*.py``;
  - the ledger's five workloads at ``smoke`` size and its probes
    (``benchmarks/ledger`` is imported, never written).

  Code that only pool worker processes run is not seen.
* **unreferenced** — every top-level definition or method whose name
  no identifier in ``src/``, ``examples/`` or ``benchmarks/`` spells
  except where it is defined. Names in ``ALLOWLIST``
  are looked up by string.

Usage::

    python tools/reachability.py           # both lists (a few minutes)
    python tools/reachability.py --check   # the static list only: exit 1
                                           # on any name outside ALLOWLIST

Stdlib only; the entry points themselves need numpy.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCANNED = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")

#: Definitions no identifier names that are used all the same.
ALLOWLIST = {
    # The algorithm registry: @register_algorithm files each class under
    # its paper name, and RunConfig(algorithm=...) looks it up.
    "ADPSGD", "ARSGD", "ASP", "BSP", "EASGD", "GoSGD", "SSP",
    # The runner builds a dataset as ``make_<RunConfig.dataset_name>``.
    "make_gaussian_blobs",
    # README's recipe for writing a --fault-spec file.
    "FaultConfig.save",
    # The ring AllReduce schedule's statement: core.worker.ring_allreduce
    # computes it step by step, and tests/ check the two agree.
    "ring_allreduce_plan",
}


# -- the static list ----------------------------------------------------------


def _sources(roots=SCANNED):
    for root in roots:
        yield from sorted(root.rglob("*.py"))


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each
    top-level function or class and each method of a top-level class;
    the first line is the first decorator's."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, _first_line(node), node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        qualname = f"{node.name}.{item.name}"
                        yield qualname, item.name, _first_line(item), item.end_lineno


def _first_line(node: ast.AST) -> int:
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])


def _identifiers(tree: ast.AST):
    """Every identifier ``tree`` spells outside ``def``/``class``
    names: names, attributes, keywords, parameters and imports, f-string
    expressions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            yield from node.names


def unreferenced() -> list[tuple[str, int, str, int]]:
    """(file, line, qualified name, lines) of every definition whose
    name no identifier in the scanned trees spells."""
    used: set[str] = set()
    for path in _sources():
        used.update(_identifiers(ast.parse(path.read_text())))
    return [
        (_rel(path), first, qualname, last - first + 1)
        for path in _sources((PACKAGE,))
        for qualname, name, first, last in _definitions(ast.parse(path.read_text()))
        if name not in used
    ]


# -- the dynamic list ---------------------------------------------------------


def _functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, lines) of every function
    under ``src/repro``, nested ones included."""
    out = {}

    def visit(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = _first_line(child)
                out[(path, first)] = (qualname, child.end_lineno - first + 1)
                visit(child, qualname + ".", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for path in _sources((PACKAGE,)):
        visit(ast.parse(path.read_text()), "", _rel(path))
    return out


def _commands(tmp: Path) -> list[list[str]]:
    """Every subcommand, at shapes small enough to run in seconds."""
    from repro.faults.config import FaultConfig, FaultEvent

    spec = tmp / "faults.json"
    FaultConfig((FaultEvent(time=0.05, kind="crash", worker=1, rejoin_after=0.05),)).save(spec)
    jobs = ("--jobs", "1")
    return [
        ["list"],
        ["run", "table1", "--output", str(tmp / "table1.json")],
        ["run", "table2", "--workers", "2", "--epochs", "0.25", *jobs],
        ["run", "fig1", "--workers", "2", "--epochs", "0.25", "--seeds", "0,1", *jobs],
        ["run", "table3", "--epochs", "0.05", *jobs],
        ["run", "table4", "--workers", "2", "--epochs", "0.25", *jobs, "--no-cache"],
        ["run", "fig2", "--iters", "1", *jobs, "--session", "fig2"],
        ["run", "fig2", "--analytic", "--max-workers", "64"],
        ["run", "fig3", "--iters", "1", *jobs, "--trace-out", str(tmp / "fig3.json"),
         "--analyze", "--output", str(tmp / "fig3-out.json")],
        ["run", "fig4", "--iters", "1", *jobs, "--retries", "2", "--fault-spec", str(spec),
         "--profile", str(tmp / "fig4.pstats")],
        ["train", "bsp", "--workers", "2", "--epochs", "0.5", "--trace-out",
         str(tmp / "train.json"), "--analyze", "--output", str(tmp / "train-out.json")],
        ["train", "asp", "--workers", "2", "--epochs", "0.5", "--fault-spec", str(spec),
         "--fault-seed", "3"],
        ["faults", "--workers", "4", "--iters", "2", "--scenarios", "crash-rejoin,flaky",
         "--algorithms", "bsp,ad-psgd", *jobs],
        ["faults", "--rack-scale", "--workers", "32", "--machines-per-rack", "4", "--iters", "3",
         "--scenarios", "rack-outage", "--algorithms", "ar-sgd/hring,bsp/tree", *jobs],
        ["byzantine", "--workers", "4", "--epochs", "1", "--algorithms", "bsp,gosgd",
         "--aggregators", "mean,median", *jobs],
        ["predict", "bsp", "--workers", "8", "--validate", "--output", str(tmp / "predict.json"),
         "--fault-spec", str(spec)],
        ["predict", "all", "--max-workers", "1024"],
        ["analyze", "bsp", "--workers", "4", "--iters", "3", "--check", "--json",
         str(tmp / "analyze.json"), "--trace-out", str(tmp / "analyze-trace.json")],
        ["analyze", "fig3", "--workers", "4", "--iters", "2"],
        ["trace", "fig2", "--workers", "4", "--iters", "2", "--out", str(tmp / "trace.json")],
        ["sweep", "list"],
        ["sweep", "list", "--json"],
        ["sweep", "show", "fig2", "--json", str(tmp / "session.json"), "--trace-out",
         str(tmp / "session-trace.json")],
        ["sweep", "resume", "fig2", *jobs],
    ]


def _tiny_shapes() -> dict:
    """``TINY`` of ``tests/experiments/test_artefacts.py``, evaluated
    without importing the test module."""
    from repro.experiments.scalability import Analytic

    path = ROOT / "tests" / "experiments" / "test_artefacts.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TINY"]:
            return eval(compile(ast.Expression(node.value), str(path), "eval"),
                        {"Analytic": Analytic, "dict": dict})
    raise LookupError(f"no TINY in {path}")


#: example -> its arguments (the small shapes its test uses)
EXAMPLES = {
    "compare_algorithms.py": ("2", "0.5"),
    "scalability_study.py": ("resnet50", "2"),
}


def _entry_points(tmp: Path):
    """(label, thunk) of every entry point."""
    from repro.cli import main
    from repro.experiments.artefact import artefact, render, run_artefact

    for argv in _commands(tmp):
        yield "repro " + " ".join(argv), lambda argv=argv: main(argv)
    for key, (name, shape) in _tiny_shapes().items():
        yield f"artefact {key}", lambda name=name, shape=shape: render(
            run_artefact(artefact(name), **shape)
        )
    for path in sorted((ROOT / "examples").glob("*.py")):
        def example(path=path):
            sys.argv = [str(path), *EXAMPLES.get(path.name, ())]
            runpy.run_path(str(path), run_name="__main__")
        yield f"example {path.name}", example
    ledger = ROOT / "benchmarks" / "ledger"
    sys.path.insert(0, str(ledger))
    import probes
    import workloads

    for name in workloads.WORKLOADS:
        def workload(name=name):
            work = workloads.make_workload(name, 0, "smoke", tmp / "ledger")
            work.reset()
            work.predict_rel_err(work.run_pass())
        yield f"ledger {name}", workload
    yield "ledger probes", lambda: probes.run_all(0.05, 1)


def never_entered() -> tuple[list[tuple[str, int, str, int]], list[str]]:
    """(file, line, qualified name, lines) of every function no entry
    point enters, and the entry points that raised. The hook is on from
    the first import, so what runs at import time counts too."""
    entered: set = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    failed = []
    saved_env, saved_argv, saved_cwd = dict(os.environ), list(sys.argv), os.getcwd()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory(prefix="reachability-") as name:
            tmp = Path(name)
            os.environ.update(
                REPRO_CACHE_DIR=str(tmp / "cache"), REPRO_SESSION_DIR=str(tmp / "sessions")
            )
            os.chdir(tmp)
            for label, thunk in _entry_points(tmp):
                print(f"[{label}]", file=sys.stderr, flush=True)
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        thunk()
                except SystemExit as exc:
                    if exc.code not in (0, None):
                        failed.append(f"{label}: exit {exc.code}")
                except Exception as exc:  # noqa: BLE001 - report every entry point
                    failed.append(f"{label}: {type(exc).__name__}: {exc}")
                finally:
                    _reset_defaults()
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
        sys.argv = saved_argv
    seen = {(_rel(Path(code.co_filename)), code.co_firstlineno) for code in entered}
    found = [
        (path, line, qualname, lines)
        for (path, line), (qualname, lines) in sorted(_functions().items())
        if (path, line) not in seen
    ]
    return found, failed


def _reset_defaults() -> None:
    """Undo what a command installs process-wide (``--fault-spec``, the
    CLI's executor), so that it does not leak into the next one."""
    from repro.experiments.config import set_default_faults
    from repro.experiments.executor import set_default_executor

    set_default_faults(None)
    set_default_executor(None)


# -- report -------------------------------------------------------------------


def _rel(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(ROOT))
    except ValueError:
        return str(path)


def _print(title: str, rows: list[tuple[str, int, str, int]]) -> None:
    print(f"{title}: {len(rows)} ({sum(r[3] for r in rows)} lines)")
    for path, line, qualname, lines in rows:
        print(f"  {path}:{line}  {qualname}  ({lines} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="the static list only; exit 1 "
                        "on any unreferenced name outside the allowlist")
    args = parser.parse_args(argv)
    static = unreferenced()
    if args.check:
        offending = [row for row in static if row[2] not in ALLOWLIST]
        stale = sorted(ALLOWLIST - {qualname for _, _, qualname, _ in static})
        _print("unreferenced outside the allowlist", offending)
        if stale:
            print(f"allowlisted but referenced or gone: {', '.join(stale)}")
        return 1 if offending or stale else 0
    sys.path.insert(0, str(ROOT / "src"))
    dynamic, failed = never_entered()
    _print("never entered", dynamic)
    print()
    _print("unreferenced", static)
    for line in failed:
        print(f"entry point failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
