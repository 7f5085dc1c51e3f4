"""The one JSON codec: results, configs, fault specs and snapshots.

:func:`to_jsonable` reduces any value to plain JSON data;
:func:`from_jsonable` rebuilds a value of a declared type from it. The
run cache, the session manifest, ``--fault-spec`` files, checkpoints
and ``--output`` all go through this pair. Non-finite floats stay
floats (``json`` writes ``NaN``/``Infinity``), so a NaN loss
round-trips; only :func:`save_json`'s strict files turn them to null.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import types
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["to_jsonable", "from_jsonable", "atomic_write_text", "save_json"]


def to_jsonable(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-compatible data.

    Dataclasses become dicts of their fields, tuples become lists, dict
    keys become strings (tuple keys such as ``(bandwidth, workers)``
    are ``"|"``-joined), numpy scalars and arrays become Python numbers
    and lists. Anything else unserialisable is replaced by its ``repr``.
    """
    return _encoder(type(obj))(obj)


def from_jsonable(cls: Any, data: Any) -> Any:
    """Rebuild a value of type ``cls`` from :func:`to_jsonable` data.

    A dataclass's missing fields take their defaults; a key that names
    no field raises ``ValueError``, so data of another shape is refused
    rather than half-read. A value typed ``Any`` (the items of
    ``RunConfig.algorithm_params``, say) comes back as JSON data: a
    tuple there returns as a list, which fingerprints the same.
    """
    return _decoder(cls)(data)


# -- encoding ------------------------------------------------------------
#
# The form a value takes depends only on its type, so ``_encoder``
# decides it once per type (the fingerprint writer's idiom).


def _identity(obj: Any) -> Any:
    return obj


def _encode_dict(obj: dict) -> dict:
    out = {}
    for key, value in obj.items():
        if isinstance(key, tuple):
            key = "|".join(str(k) for k in key)
        out[str(key)] = to_jsonable(value)
    return out


def _dataclass_encoder(cls: type) -> Callable[[Any], dict]:
    names = tuple(f.name for f in fields(cls))

    def encode(obj) -> dict:
        return {name: to_jsonable(getattr(obj, name)) for name in names}

    return encode


@functools.lru_cache(maxsize=None)
def _encoder(cls: type) -> Callable[[Any], Any]:
    if cls is type(None) or issubclass(cls, (bool, int, str)):
        return _identity
    if issubclass(cls, (float, np.floating)):
        return float
    if issubclass(cls, np.integer):
        return int
    if issubclass(cls, np.bool_):
        return bool
    if issubclass(cls, np.ndarray):
        return lambda obj: to_jsonable(obj.tolist())
    if issubclass(cls, (list, tuple)):
        return lambda obj: [to_jsonable(v) for v in obj]
    if issubclass(cls, dict):
        return _encode_dict
    if is_dataclass(cls):
        return _dataclass_encoder(cls)
    return repr


# -- decoding ------------------------------------------------------------
#
# ``_decoder`` turns a type into a reader once. Plain JSON types read as
# themselves; a container whose items read as themselves is one copy.

_PLAIN = (Any, bool, int, float, str, type(None))


def _dataclass_decoder(cls: type) -> Callable[[Any], Any]:
    hints = typing.get_type_hints(cls)
    # Keyed and valued by the class's own (interned) field names, so the
    # constructor call matches its parameters by identity instead of
    # comparing each JSON-decoded key against every parameter name.
    names = {f.name: f.name for f in fields(cls) if f.init}
    readers = tuple(
        (name, read) for name in names if (read := _decoder(hints[name])) is not _identity
    )

    def decode(data):
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} reads a JSON object, got {data!r:.60}")
        try:
            kwargs = {names[key]: value for key, value in data.items()}
        except KeyError as unknown:
            raise ValueError(f"{cls.__name__} has no field {unknown.args[0]!r}") from None
        for name, read in readers:
            if name in kwargs:
                kwargs[name] = read(kwargs[name])
        return cls(**kwargs)

    return decode


@functools.lru_cache(maxsize=None)
def _decoder(tp: Any) -> Callable[[Any], Any]:
    if tp in _PLAIN:
        return _identity
    if is_dataclass(tp):
        return _dataclass_decoder(tp)
    if tp is np.ndarray:
        return np.asarray
    origin = typing.get_origin(tp) or tp
    args = typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        options = [a for a in args if a is not type(None)]
        if all(_decoder(a) is _identity for a in options):
            return _identity
        if len(options) == 1:
            read = _decoder(options[0])
            return lambda data: None if data is None else read(data)
    elif origin is tuple and args and args[-1] is not ...:
        reads = tuple(map(_decoder, args))
        return lambda data: tuple(read(x) for read, x in zip(reads, data, strict=True))
    elif origin in (list, tuple):
        read = _decoder(args[0]) if args else _identity
        if read is _identity:
            return origin
        return lambda data: origin(map(read, data))
    elif origin is dict and (not args or args[0] is str):
        read = _decoder(args[1]) if args else _identity
        if read is _identity:
            return dict
        return lambda data: {k: read(v) for k, v in data.items()}
    raise TypeError(f"from_jsonable cannot rebuild values of type {tp!r}")


# -- files ---------------------------------------------------------------


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


def _finite_or_null(data: Any) -> Any:
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    if isinstance(data, list):
        return [_finite_or_null(v) for v in data]
    if isinstance(data, dict):
        return {k: _finite_or_null(v) for k, v in data.items()}
    return data


def save_json(obj: Any, path: str | Path) -> Path:
    """Serialise ``obj`` (any experiment result) to ``path`` atomically.

    The file is strict JSON: a non-finite float (a diverged loss, a
    faulted gradient norm) is written as ``null``, never as a bare
    ``NaN``/``Infinity`` token that strict parsers reject.
    """
    text = json.dumps(
        _finite_or_null(to_jsonable(obj)), indent=2, sort_keys=True, allow_nan=False
    )
    return atomic_write_text(path, text + "\n")
