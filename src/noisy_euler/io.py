"""Deterministic output files and execution helpers.

CSV output follows RFC 4180 (CRLF line endings, UTF-8) with floats printed at
17 significant digits, so identical runs produce byte-identical files.  JSON
output is sorted-key, two-space indented.  ``from_jsonable`` is the inverse of
``to_jsonable`` for the frozen config dataclasses: it reads their field
annotations, so a manifest or device spec with an unknown key or a value of
the wrong JSON type is rejected with the key's path.  Both take a value that
is already plain JSON by its exact type before any general probe, so a
command pays for the dataclass, ``numbers`` and ``typing`` checks only where
a value needs them; a manifest converts its config once.  ``parallel_map``
preserves input order, so the worker count (the CLI's --jobs) never changes
results, only wall time.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import os
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

FLOAT_FORMAT = "%.17g"

# BLAS/OpenMP pool sizes that parallel_map's workers get where the caller left
# them unset: each worker is one process on one core, and a BLAS pool per
# worker oversubscribes the machine (jobs=2 ran 2 x 246-gate RB circuits in
# 3.4 s against 1.0 s with jobs=1 on 2 vCPUs).
WORKER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def format_value(value) -> str:
    """One CSV cell: a float (np.float64 too) at 17 significant digits, an
    int, a string, or None as empty."""
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot format {type(value).__name__} as a CSV cell")


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` to ``path`` as CSV, each cell through
    ``format_value``, in one ``writerows`` call."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(format_value, row) for row in rows)
    return path


def to_jsonable(obj):
    """Recursively convert dataclasses, numpy scalars and non-finite floats
    into plain JSON-serializable types.  A set is refused: its order follows
    the string hash, which changes between interpreter runs.

    A value that is already plain JSON returns at once by its exact type:
    an int, str, bool or None, a finite float, and a list or tuple's items in
    turn.  Anything else, subclasses such as ``np.float64`` included, takes
    the general path; a dataclass is converted field by field."""
    tp = type(obj)
    if tp is float:
        if math.isfinite(obj):
            return obj
    elif tp is int or tp is str or tp is bool or obj is None:
        return obj
    elif tp is list or tp is tuple:
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, str):  # a str subclass
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _json_kind(tp) -> str:
    """What a JSON value decoded as ``tp`` must be, for error messages."""
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        return "a list" if args[-1] is Ellipsis else f"a list of {len(args)} items"
    return {float: "a finite number", int: "an integer", bool: "a boolean",
            str: "a string"}[tp]


@functools.cache
def _dataclass_fields(tp) -> tuple[dict, dict]:
    """A dataclass's init fields by name and its resolved annotations, read
    once per class (``typing.get_type_hints`` evaluates the annotation
    strings on every call).  Every caller gets the same two dicts: read only."""
    return {f.name: f for f in fields(tp) if f.init}, typing.get_type_hints(tp)


def from_jsonable(tp, value, where: str):
    """Decode the parsed JSON ``value`` as ``tp``, the inverse of
    ``to_jsonable`` for the config dataclasses.

    A dataclass is read from an object by its fields' annotations: an
    unknown key is an error, and a missing key takes the field's default or,
    without one, is an error.  ``X | None`` admits null, tuples are read from
    lists, a ``float`` is any finite number, and ``int``, ``bool`` and ``str``
    must be exactly that JSON type.  Faults, including a ValueError from a
    dataclass's own checks, raise ValueError naming the path from ``where``;
    a check whose message begins with a field's name ("rng_seed must be ...")
    names that field's path ("config.rng_seed must be ...").  A scalar of the
    type asked for is read before any dataclass or ``typing`` probe.
    """
    if tp is type(value) and tp in (int, bool, str):
        return value
    if tp is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # finite, and no integer too large for a float
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, got {value!r}")
        known, hints = _dataclass_fields(tp)
        unknown = sorted(set(value) - set(known))
        if unknown:
            raise ValueError(f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; "
                             f"known keys: {', '.join(known)}")
        for name, f in known.items():
            if name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{where} is missing key {name!r}")
        kwargs = {k: from_jsonable(hints[k], v, f"{where}.{k}") for k, v in value.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            field = str(exc).split(" ", 1)[0]
            raise ValueError(f"{where}.{exc}" if field in known else f"{where}: {exc}") from None
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else from_jsonable(inner, value, where)
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(from_jsonable(t, v, f"{where}[{i}]")
                         for i, (t, v) in enumerate(zip(items, value)))
    raise ValueError(f"{where} must be {_json_kind(tp)}, got {value!r}")


def write_json(path, obj) -> Path:
    path = Path(path)
    text = json.dumps(to_jsonable(obj), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def save_manifest(
    path,
    *,
    command: str,
    config: dict,
    rng_seed: int,
    outputs,
    duration_seconds: float,
    tag: str,
) -> Path:
    """Record everything needed to replay a run (see CLI --from-manifest).
    ``write_json`` converts the document, the config with it, once."""
    from . import __version__

    doc = {
        "command": command,
        "config": config,
        "rng_seed": rng_seed,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "duration_seconds": duration_seconds,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "tag": tag,
    }
    return write_json(path, doc)


def load_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("command", "config"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"{path}: not a run manifest (missing {key!r})")
    if not isinstance(doc["config"], dict):
        raise ValueError(f"{path}: manifest config must be an object, got {doc['config']!r}")
    return doc


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Order-preserving map over items; jobs > 1 uses a process pool.

    Results do not depend on jobs: items are dispatched and collected in
    input order and workers share no state.  Workers are spawned, not
    forked, so each loads numpy afresh; each ``WORKER_THREAD_VARS`` entry the
    caller left unset reads "1" in the workers, and ``os.environ`` is
    restored afterwards.  fn must be picklable by reference.  The pool's
    modules are imported only here, so a serial run does not load them.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    added = [name for name in WORKER_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(items)),
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            return list(pool.map(fn, items))
    finally:
        for name in added:
            os.environ.pop(name, None)
