"""The performance ledger: the repo's one benchmark.

Two ways in, one measuring path:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one
  workload, the form ``BENCHMARK.json`` names. The last line of standard
  output is one JSON object with ``correct``, ``attempted``, ``failed``
  and ``metrics``: the end-to-end metrics with ``--trace 0`` (tracing
  never loaded), the per-layer metrics with ``--trace 1``.
* ``run.py --seed 0 [--out FILE]`` — the whole ledger: every workload
  untraced and traced, then the probes at full length; prints every
  metric by name with its unit and writes one JSON record with
  provenance. ``--smoke`` runs the same at a fraction of the size,
  ``--workload`` restricts it to one workload, ``--write-reference``
  regenerates ``reference.json``.

This process never imports numpy or ``repro``. Each sample is a fresh
child interpreter (``child.py``) with BLAS threads pinned to one, a
fixed hash seed, bytecode writing off and ``REPRO_CACHE_DIR`` /
``REPRO_SESSION_DIR`` / ``HOME`` inside a scratch directory of the
checkout that is removed at exit, so ``~/.cache/repro`` is never read
or written. Children run one after another: a closed loop, one client.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".ledger_tmp"

WORKLOADS = ("timing_grid", "accuracy_grid", "conv_train", "scale_hier", "sweep_ops")

#: Default of ``--seconds``: ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 12
#: Fresh processes per untraced run. Set-up time and peak memory are
#: per-process numbers, so a run takes several and reports the median.
SETUP_SAMPLES = 3
#: Probe budget of a full ledger run: >= 0.3 s per loop, 5 loops each.
PROBE_SECONDS, PROBE_LOOPS = 60.0, 5
CHILD_TIMEOUT_S = 170

#: End-to-end metrics: unit, which direction is better, and the bound by
#: which one may worsen (a share of the base value, except ``fail_share``
#: and ``predict_rel_err``, which are absolute). The first four are the
#: ``end_to_end`` section of BENCHMARK.json; the bounds come from the
#: run-to-run spread measured on the reference host (see README).
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "work_per_s": ("work/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
    "fail_share": ("ratio", "lower", 0.0),
    "predict_rel_err": ("ratio", "lower", 0.005),
}


class Children:
    """Starts ``child.py`` processes inside one scratch directory."""

    def __init__(self, scale: str, reference: Path) -> None:
        self.scale = scale
        self.reference = reference
        self.tmp: Path | None = None

    def __enter__(self) -> "Children":
        if not (ROOT / "src" / "repro").is_dir():
            raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _env(self) -> dict[str, str]:
        tmp = str(self.tmp)
        return {
            **os.environ,
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
            # A run leaves nothing in the source tree. (A tree that
            # already holds bytecode caches sets up ~0.2 s faster.)
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": str(ROOT / "src"),
            "REPRO_CACHE_DIR": f"{tmp}/cache",
            "REPRO_SESSION_DIR": f"{tmp}/sessions",
            "HOME": f"{tmp}/home",
        }

    def spawn(self, mode: str, **options) -> dict:
        """Run one child to completion and return its JSON result."""
        command = [
            sys.executable,
            str(HERE / "child.py"),
            *("--mode", mode),
            *("--scale", self.scale),
            *("--reference", str(self.reference)),
            *("--tmp", str(self.tmp)),
            *("--spawned-at", repr(time.time())),
        ]
        for key, value in options.items():
            command += [f"--{key}", str(value)]
        # Own process group, so a timeout can take the child's pool
        # workers and CLI subprocesses down with it.
        child = subprocess.Popen(
            command,
            env=self._env(),
            cwd=self.tmp,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        if child.returncode != 0:
            raise SystemExit(f"{mode} child exited with code {child.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


def _summary(values: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def measure(children: Children, workload: str, seed: int, seconds: float, samples: int) -> dict:
    """Untraced end-to-end metrics: ``samples`` fresh processes, each
    setting up once and then timing passes for its share of ``seconds``."""
    runs = [
        children.spawn("timed", workload=workload, seed=seed, seconds=seconds / samples)
        for _ in range(samples)
    ]
    first = runs[0]
    failures = [f for run in runs for f in run["failures"]]
    if any(run["digests"] != first["digests"] for run in runs):
        failures.append("processes disagree on simulated results")
    attempted = sum(run["attempted"] for run in runs)
    walls = [wall for run in runs for wall in run["walls"]]
    end_to_end = {
        "wall_s": _summary(walls, "s"),
        "work_per_s": _summary([first["work"] / wall for wall in walls], "work/s"),
        "peak_rss_mb": _summary([run["peak_rss_mb"] for run in runs], "MB"),
        "setup_s": _summary([run["setup_s"] for run in runs], "s"),
        "fail_share": {"value": len(failures) / attempted, "unit": "ratio"},
    }
    if first["predict_rel_err"] is not None:
        end_to_end["predict_rel_err"] = {"value": first["predict_rel_err"], "unit": "ratio"}
    return {
        "end_to_end": end_to_end,
        "work": first["work"],
        "work_unit": first["work_unit"],
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "digests": first["digests"],
        "accuracies": first["accuracies"],
    }


def trace(children: Children, workload: str, seed: int, seconds: float) -> dict:
    """Per-layer spans and counts of one workload (one traced process)."""
    run = children.spawn("traced", workload=workload, seed=seed, seconds=seconds)
    return {
        "per_layer": run["per_layer"],
        "span_tree": run["span_tree"],
        "attempted": run["attempted"],
        "failed": min(len(run["failures"]), run["attempted"]),
        "failures": run["failures"],
        "digests": run["digests"],
    }


def probe(children: Children, start_spin_s: float, seconds: float, loops: int) -> dict:
    """The isolated probes, closed by a second host spin."""
    run = children.spawn("probes", seconds=seconds, loops=loops)
    per_layer = run["per_layer"]
    per_layer["ledger.host_spin_s.start"] = {"value": start_spin_s, "unit": "s"}
    per_layer["ledger.host_spin_s.end"] = {"value": run["spin_s"], "unit": "s"}
    return per_layer


def run_contract(args) -> int:
    """One workload in the form BENCHMARK.json names."""
    samples = 1 if args.smoke else SETUP_SAMPLES
    with Children("smoke" if args.smoke else "full", args.reference) as children:
        if args.trace == 0:
            result = measure(children, args.workload, args.seed, args.seconds, samples)
            metrics = {
                name: metric
                for name, metric in result["end_to_end"].items()
                if name not in ("fail_share", "predict_rel_err")
            }
        else:
            start_spin_s = children.spawn("spin")["spin_s"]
            result = trace(children, args.workload, args.seed, args.seconds / 2)
            metrics = result["per_layer"]
            metrics.update(probe(children, start_spin_s, args.seconds / 2, 3))
        for failure in result["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": result["failed"] == 0,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {
                        name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in metrics.items()
                    },
                }
            )
        )
    return 0


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _format(metric: dict) -> str:
    text = f"{metric['value']:.6g} {metric['unit']}"
    if "n" in metric:
        text += f"  (median of {metric['n']}; min {metric['min']:.6g}, max {metric['max']:.6g})"
    return text


def run_ledger(args) -> int:
    """Every workload untraced and traced, the probes, one record."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = "smoke" if args.smoke else "full"
    samples = 1 if args.smoke else SETUP_SAMPLES
    seconds = 0.0 if args.smoke else args.seconds
    record = {
        "schema": 1,
        "provenance": {
            "git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "loadavg_start": os.getloadavg(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "scale": scale,
            "seconds": seconds,
            "setup_samples": samples,
        },
        "workloads": {},
    }
    with Children(scale, args.reference) as children:
        host = children.spawn("spin")
        spins = [host.pop("spin_s")]
        record["provenance"].update(host)
        for name in names:
            if name != names[0]:
                spins.append(children.spawn("spin")["spin_s"])
            entry = measure(children, name, args.seed, seconds, samples)
            if args.traced:
                traced = trace(children, name, args.seed, seconds / 2)
                entry["per_layer"] = traced["per_layer"]
                entry["span_tree"] = traced["span_tree"]
                if traced["digests"] != entry["digests"]:
                    traced["failures"].append("traced pass changed simulated results")
                entry["traced_failures"] = traced["failures"]
            record["workloads"][name] = entry
        budget = (1.0, 1) if args.smoke else (PROBE_SECONDS, PROBE_LOOPS)
        record["probes"] = probe(children, spins[0], *budget)
    # The host's speed sampled before each workload and after the probes:
    # a slow spell of the machine shows here, not only in the results.
    spins.append(record["probes"]["ledger.host_spin_s.end"]["value"])
    record["provenance"]["host_spin_s"] = spins
    record["provenance"]["noisy"] = max(spins) / min(spins) - 1.0 > 0.10
    record["provenance"]["loadavg_end"] = os.getloadavg()
    record["claim"] = None

    failed = 0
    for name, entry in record["workloads"].items():
        print(f"\n== {name} — end to end, untraced "
              f"({entry['work']} {entry['work_unit']} per pass)")
        for metric, value in entry["end_to_end"].items():
            print(f"  {metric:<44} {_format(value)}")
        print("  (fewer than ten samples lie beyond any percentile above the "
              "median, so none is reported)")
        failures = entry["failures"] + entry.get("traced_failures", [])
        failed += len(failures)
        for failure in failures:
            print(f"  FAILED {failure}")
        if "per_layer" in entry:
            print(f"-- {name} — per layer, traced pass")
            for metric, value in entry["per_layer"].items():
                print(f"  {metric:<44} {_format(value)}")
    print("\n== probes")
    for metric, value in record["probes"].items():
        print(f"  {metric:<44} {_format(value)}")

    out = args.out
    if out is None:
        (SCRATCH / "records").mkdir(parents=True, exist_ok=True)
        out = SCRATCH / "records" / f"ledger-seed{args.seed}-{scale}-{int(time.time())}.json"
    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    noisy = " (host speed drifted > 10 %: noisy)" if record["provenance"]["noisy"] else ""
    print(f"\nrecord written to {out}{noisy}")
    return 1 if failed else 0


def write_reference(args) -> int:
    """Regenerate reference.json from one pass per workload, seed 0."""
    document = {"seed": 0, "scales": {}}
    for scale in ("full", "smoke"):
        with Children(scale, args.reference) as children:
            document["scales"][scale] = {
                name: children.spawn("reference", workload=name, seed=0) for name in WORKLOADS
            }
    (HERE / "reference.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The performance ledger (see benchmarks/ledger/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time one run spends in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload and print one result line: "
                             "0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--traced", action=argparse.BooleanOptionalAction, default=True,
                        help="full ledger: add the traced pass per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 sizes, one process and one pass per workload")
    parser.add_argument("--out", type=Path, help="where the full ledger writes its record")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_reference:
        return write_reference(args)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_contract(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
