"""Every field of ``predict_run`` pinned bit for bit over a fixed grid.

The analytic models' accuracy is checked against the engine elsewhere
(``test_predict.py``, within 10 %); this file freezes what they
*compute*, so a refactor of the predictor that claims to change
nothing is checked to the last bit. Each float is stored as
``float.hex``, the convention of the engine digest pins; ``bounds`` and
``breakdown`` keep their key order.

The grid: every algorithm × both models × both bandwidths × N in
{1, 4, 24, 1024}; BSP, ASP and SSP again with wait-free BP, with six
shards and with both; BSP with ``ps_topology="tree"`` at N = 24 on the
flat fabric; and on a leaf/spine fabric at N = 256 (64 machines, 16
per rack), BSP flat and tree and AR-SGD's ring, hring and tree.

A deliberate change to a model re-pins with
``PYTHONPATH=src python tests/perf/test_prediction_pins.py``, which
prints every case it moves: old -> new throughput and the fields that
changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.config import timing_config
from repro.perf import SUPPORTED_ALGORITHMS, predict_run
from repro.sim.cluster import hierarchical_cluster

PINS_PATH = Path(__file__).parent / "prediction_pins.json"


def pinned_grid() -> dict[str, dict]:
    """Case name -> ``timing_config`` arguments."""
    grid: dict[str, dict] = {}
    for model in ("resnet50", "vgg16"):
        for bw in (10.0, 56.0):
            for algo in SUPPORTED_ALGORITHMS:
                for n in (1, 4, 24, 1024):
                    base = dict(algorithm=algo, num_workers=n, bandwidth_gbps=bw, model=model)
                    grid[f"{algo}/{model}/{bw:g}G/N{n}"] = base
                    if algo in ("bsp", "asp", "ssp"):
                        grid[f"{algo}/{model}/{bw:g}G/N{n}/wf"] = dict(base, wait_free_bp=True)
                        grid[f"{algo}/{model}/{bw:g}G/N{n}/s6"] = dict(base, num_ps_shards=6)
                        grid[f"{algo}/{model}/{bw:g}G/N{n}/wf-s6"] = dict(
                            base, wait_free_bp=True, num_ps_shards=6
                        )
            for wf in (False, True):
                grid[f"bsp-tree/{model}/{bw:g}G/N24/wf={wf}"] = dict(
                    algorithm="bsp", num_workers=24, bandwidth_gbps=bw, model=model,
                    ps_topology="tree", wait_free_bp=wf,
                )
            hier = dict(num_workers=256, bandwidth_gbps=bw, model=model)
            for name, extra in (
                ("bsp", dict(algorithm="bsp")),
                ("bsp-tree", dict(algorithm="bsp", ps_topology="tree")),
                ("ar-sgd-ring", dict(algorithm="ar-sgd", collective="ring")),
                ("ar-sgd-hring", dict(algorithm="ar-sgd", collective="hring")),
                ("ar-sgd-tree", dict(algorithm="ar-sgd", collective="tree")),
            ):
                grid[f"hier/{name}/{model}/{bw:g}G/N256"] = dict(hier, hier_fabric=True, **extra)
    return grid


def _config(args: dict):
    args = dict(args)
    algorithm = args.pop("algorithm")
    if args.pop("hier_fabric", False):
        args["cluster"] = hierarchical_cluster(
            machines=args["num_workers"] // 4, bandwidth_gbps=args["bandwidth_gbps"]
        )
    return timing_config(algorithm, **args)


def _hex_items(mapping: dict[str, float]) -> list[list[str]]:
    return [[key, float(value).hex()] for key, value in mapping.items()]


def record(args: dict) -> dict:
    """Every field of one prediction, floats as ``float.hex``."""
    p = predict_run(_config(args))
    return {
        "throughput": float(p.throughput).hex(),
        "iteration_time": float(p.iteration_time).hex(),
        "speedup": float(p.speedup).hex(),
        "regime": p.regime,
        "bounds": _hex_items(p.bounds),
        "breakdown": _hex_items(p.breakdown),
    }


def record_grid() -> dict[str, dict]:
    return {name: record(args) for name, args in pinned_grid().items()}


def test_grid_matches_its_pins():
    pins = json.loads(PINS_PATH.read_text())
    assert set(pins) == set(pinned_grid())
    got = record_grid()
    diffs = [name for name in pins if got[name] != pins[name]]
    assert not diffs, f"{len(diffs)} predictions moved, e.g. {diffs[0]}: " + json.dumps(
        {"pinned": pins[diffs[0]], "now": got[diffs[0]]}
    )


def report_moves(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per case whose record moved: old -> new throughput and
    the fields that changed, or that the case is new or dropped."""
    lines = [f"{name}: dropped" for name in sorted(set(old) - set(new))]
    for name in sorted(new):
        before = old.get(name)
        if before == new[name]:
            continue
        if before is None:
            lines.append(f"{name}: new case")
            continue
        fields = [key for key in new[name] if before.get(key) != new[name][key]]
        lines.append(
            f"{name}: throughput {float.fromhex(before['throughput'])!r} -> "
            f"{float.fromhex(new[name]['throughput'])!r}; changed {', '.join(fields)}"
        )
    return lines


def test_a_repin_reports_each_moved_case():
    same = {"throughput": (3.0).hex(), "regime": "compute-bound"}
    old = {"a": {"throughput": (1.0).hex(), "regime": "compute-bound"}, "b": same, "gone": same}
    new = {"a": {"throughput": (2.0).hex(), "regime": "compute-bound"}, "b": same, "c": same}
    assert report_moves(old, new) == [
        "gone: dropped",
        "a: throughput 1.0 -> 2.0; changed throughput",
        "c: new case",
    ]


if __name__ == "__main__":
    old = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    new = record_grid()
    for line in report_moves(old, new):
        print(line)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(new.items())]
    PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(new)} cases to {PINS_PATH}", file=sys.stderr)
