"""Regression gate: compare two ledger records from the same host.

``compare.py BASE.json NEW.json`` prints one row per workload ×
end-to-end metric — base, new, ratio (new ÷ base), verdict — then
whether every simulated result is identical, and exits non-zero if any
row is ``worse``.

Verdicts:

* ``ok``         — new is not worse than base by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — the spread between passes (max − min, as a share of
  the median) of either record exceeds the bound, so the two medians
  cannot be told apart at that resolution — unless every pass of new
  reads better than every pass of base, which is ``ok``.

``fail_share`` and ``predict_rel_err`` have absolute bounds (0 and
0.005); a higher ``fail_share`` is always ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import END_TO_END

ABSOLUTE = ("fail_share", "predict_rel_err")


def _spread(metric: dict) -> float:
    if "min" not in metric or not metric["value"]:
        return 0.0
    return (metric["max"] - metric["min"]) / abs(metric["value"])


def verdict(name: str, base: dict, new: dict) -> str:
    """Judge one end-to-end metric of one workload."""
    _unit, better, bound = END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["value"] - base["value"])
    if name not in ABSOLUTE:
        worsening /= abs(base["value"])
    if max(_spread(base), _spread(new)) > bound:
        if better == "lower":
            clearly_better = new.get("max", new["value"]) < base.get("min", base["value"])
        else:
            clearly_better = new.get("min", new["value"]) > base.get("max", base["value"])
        return "ok" if clearly_better else "unresolved"
    return "worse" if worsening > bound else "ok"


def compare(base: dict, new: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, base, new, ratio, verdict)`` and whether
    all simulated results (every digest of every shared workload) agree."""
    rows = []
    identical = True
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        identical &= base_entry["digests"] == new_entry["digests"]
        for name in END_TO_END:
            b = base_entry["end_to_end"].get(name)
            n = new_entry["end_to_end"].get(name)
            if b is None or n is None:
                continue
            ratio = n["value"] / b["value"] if b["value"] else float("nan")
            rows.append((workload, name, b["value"], n["value"], ratio, verdict(name, b, n)))
    return rows, identical


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    for label, record in (("base", base), ("new", new)):
        prov = record["provenance"]
        print(
            f"{label}: {prov['git_sha']}{' (dirty)' if prov['git_dirty'] else ''} "
            f"seed {prov['seed']} {prov['scale']}"
            f"{' NOISY' if prov.get('noisy') else ''}"
        )
    rows, identical = compare(base, new)
    print(f"{'workload':<14} {'metric':<16} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for workload, name, b, n, ratio, judged in rows:
        print(f"{workload:<14} {name:<16} {b:>12.6g} {n:>12.6g} {ratio:>9.3f}  {judged}")
    print(f"results_identical: {str(identical).lower()}")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
