"""Result serialization: save/load experiment results as JSON.

Every result type the experiments produce reduces to plain JSON
so that runs can be archived, diffed against the paper's values, and
re-rendered without re-running the simulation (the CLI's ``--output``
flag uses this). The two primitive result types round-trip through
their own ``to_dict``/``from_dict`` (:mod:`repro.core.history`).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "to_jsonable",
    "atomic_write_text",
    "save_json",
    "load_json",
]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert results/numpy values to JSON-compatible data.

    Dict keys that are tuples (e.g. ``(bandwidth, workers)``) become
    ``"|"``-joined strings; dataclasses become dicts; numpy scalars and
    arrays become Python numbers and lists. Non-finite floats (NaN/inf
    — a diverged loss, a faulted gradient norm) become ``None``: bare
    ``NaN`` tokens are not valid JSON and break strict parsers.
    Unserialisable leaves (the embedded ``RunConfig``) are replaced by
    their ``repr``.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(key, tuple):
                key = "|".join(str(k) for k in key)
            out[str(key)] = to_jsonable(value)
        return out
    if is_dataclass(obj) and not isinstance(obj, type):
        try:
            return to_jsonable(asdict(obj))
        except Exception:
            return repr(obj)
    return repr(obj)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    Readers never observe a half-written file, and a crash mid-write
    leaves the previous contents intact — the durability contract the
    run cache and checkpoint snapshots rely on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def save_json(obj: Any, path: str | Path) -> Path:
    """Serialise ``obj`` (any experiment result) to ``path`` atomically.

    ``allow_nan=False`` backstops the finite-or-null conversion in
    :func:`to_jsonable`: a non-finite value that slips through raises
    instead of silently emitting invalid JSON.
    """
    text = json.dumps(to_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    return atomic_write_text(path, text + "\n")


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())
