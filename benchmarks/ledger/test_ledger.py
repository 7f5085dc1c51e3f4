"""Self-test of the ledger. Run explicitly: ``pytest benchmarks/ledger``
(not part of tier-1; takes about a minute)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=600
    )


def _result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _snapshot(directory: Path, skip: tuple[str, ...] = ()) -> dict[str, tuple[int, int]] | None:
    """Relative path -> (size, mtime) of every file under ``directory``."""
    if not directory.exists():
        return None
    files = {}
    for base, dirs, names in os.walk(directory):
        dirs[:] = [d for d in dirs if d not in skip]
        for name in names:
            path = Path(base) / name
            stat = path.stat()
            files[str(path.relative_to(directory))] = (stat.st_size, stat.st_mtime_ns)
    return files


# -- the benchmark as BENCHMARK.json describes it ---------------------------


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    for metric in BENCHMARK["end_to_end"]:
        unit, better, _bound = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_contract_run_emits_every_named_metric_and_nothing_unnamed(trace, section):
    result = _result_line(
        _ledger("--workload", "sweep_ops", "--seed", "0", "--seconds", "0",
                "--trace", trace, "--smoke")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    assert set(result["metrics"]["wall_s" if trace == "0" else "cli.fig3_s"]) == {"value", "unit"}


def test_corrupted_reference_digest_counts_as_failed_operations(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    digests = reference["scales"]["smoke"]["timing_grid"]["digests"]
    label = next(iter(digests))
    digests[label] = "0" * 16
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    result = _result_line(
        _ledger("--workload", "timing_grid", "--seed", "0", "--seconds", "0", "--trace", "0",
                "--smoke", "--reference", str(corrupted))
    )
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    """One full smoke ledger run, with the trees it must not touch
    snapshotted around it."""
    out = tmp_path_factory.mktemp("ledger") / "record.json"
    user_cache = Path.home() / ".cache" / "repro"
    before = (_snapshot(user_cache), _snapshot(ROOT, skip=(".git", ".ledger_tmp")))
    done = _ledger("--smoke", "--seed", "0", "--out", str(out))
    after = (_snapshot(user_cache), _snapshot(ROOT, skip=(".git", ".ledger_tmp")))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout, before, after


def test_smoke_ledger_reports_all_workloads_without_failures(smoke_record):
    record, stdout, _before, _after = smoke_record
    assert list(record["workloads"]) == list(run.WORKLOADS)
    assert record["claim"] is None
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for name, entry in record["workloads"].items():
        reported = set(entry["end_to_end"])
        assert reported >= {"wall_s", "work_per_s", "peak_rss_mb", "setup_s", "fail_share"}
        assert ("predict_rel_err" in reported) == (name in ("timing_grid", "scale_hier"))
        assert entry["end_to_end"]["fail_share"]["value"] == 0
        assert entry["failures"] == [] and entry["traced_failures"] == []
        assert set(entry["per_layer"]) | set(record["probes"]) == per_layer
        for metric in reported:
            assert f"  {metric} " in stdout
    for metric in per_layer:
        assert f"  {metric} " in stdout


def test_traced_pass_attributes_its_wall_time_to_named_spans(smoke_record):
    record, *_ = smoke_record
    for name, entry in record["workloads"].items():
        root = entry["span_tree"][f">{spans.ROOT_SPAN}"]
        named = sum(
            edge["self_s"] for key, edge in entry["span_tree"].items()
            if not key.endswith(f">{spans.ROOT_SPAN}")
        )
        assert named + root["self_s"] == pytest.approx(root["total_s"], rel=1e-6)
        assert named >= 0.9 * root["total_s"], name


def test_record_carries_provenance(smoke_record):
    record, *_ = smoke_record
    provenance = record["provenance"]
    for key in ("git_sha", "git_dirty", "nproc", "python", "numpy", "blas", "platform",
                "loadavg_start", "loadavg_end", "seed", "scale", "noisy"):
        assert key in provenance
    assert provenance["scale"] == "smoke" and provenance["seed"] == 0


def test_a_run_touches_neither_the_user_cache_nor_the_repo_tree(smoke_record):
    _record, _stdout, before, after = smoke_record
    assert before == after


# -- span arithmetic --------------------------------------------------------


def test_self_time_is_duration_minus_covered_child_time():
    now = [0.0]
    recorder = spans.SpanRecorder(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = recorder.wrap("leaf", lambda: tick(2.0))

    def middle_body():
        tick(1.0)
        leaf()
        leaf()
        tick(0.5)

    middle = recorder.wrap("middle", middle_body)

    def root_body():
        tick(0.25)
        middle()
        leaf()

    recorder.wrap("root", root_body)()

    assert recorder.edges[("", "root")] == [1, 7.75, 0.25]
    assert recorder.edges[("root", "middle")] == [1, 5.5, 1.5]
    assert recorder.edges[("middle", "leaf")] == [2, 4.0, 4.0]
    assert recorder.edges[("root", "leaf")] == [1, 2.0, 2.0]
    by_name = recorder.by_name()
    assert by_name["leaf"] == {"n": 3, "self_s": 6.0}
    # Self times partition the root's duration exactly.
    assert sum(entry["self_s"] for entry in by_name.values()) == 7.75


def test_a_span_that_raises_is_still_closed():
    now = [0.0]
    recorder = spans.SpanRecorder(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap("outer", recorder.wrap("inner", boom))()
    assert recorder.edges[("outer", "inner")] == [1, 1.0, 1.0]
    assert recorder.edges[("", "outer")] == [1, 1.0, 0.0]


# -- compare.py verdicts ------------------------------------------------------


def _record(wall=(1.0, 0.99, 1.01), fail_share=0.0, digest="aa"):
    value, low, high = wall
    return {
        "provenance": {"git_sha": "x", "git_dirty": False, "seed": 0, "scale": "full"},
        "workloads": {
            "timing_grid": {
                "digests": {"cell": digest},
                "end_to_end": {
                    "wall_s": {"value": value, "unit": "s", "n": 9, "min": low, "max": high},
                    "fail_share": {"value": fail_share, "unit": "ratio"},
                },
            }
        },
    }


def _verdicts(base, new):
    rows, identical = compare.compare(base, new)
    return {row[1]: row[5] for row in rows}, identical


BOUND = run.END_TO_END["wall_s"][2]


def _wall(median, half_width=0.01):
    return (median, median - half_width, median + half_width)


def test_compare_within_bound_is_ok():
    verdicts, identical = _verdicts(_record(), _record(wall=_wall(1 + 0.8 * BOUND)))
    assert verdicts == {"wall_s": "ok", "fail_share": "ok"} and identical


def test_compare_beyond_bound_is_worse():
    verdicts, _ = _verdicts(_record(), _record(wall=_wall(1 + 1.2 * BOUND)))
    assert verdicts["wall_s"] == "worse"


def test_compare_wide_spread_is_unresolved_unless_every_pass_is_better():
    noisy = _wall(1 + 1.2 * BOUND, half_width=0.8 * BOUND)
    verdicts, _ = _verdicts(_record(), _record(wall=noisy))
    assert verdicts["wall_s"] == "unresolved"
    verdicts, _ = _verdicts(_record(wall=noisy), _record(wall=_wall(0.5, half_width=0.4 * BOUND)))
    assert verdicts["wall_s"] == "ok"


def test_compare_failed_operation_is_worse_and_changed_digest_is_reported(tmp_path):
    new = _record(fail_share=0.01, digest="bb")
    verdicts, identical = _verdicts(_record(), new)
    assert verdicts["fail_share"] == "worse" and not identical
    paths = []
    for name, record in (("base", _record()), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    assert compare.main([str(p) for p in paths]) == 1
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
