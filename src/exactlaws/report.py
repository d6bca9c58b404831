"""Canonical report serialization: diffable, hashable JSON and CSV tables.

Canonical form sorts object keys and prints floats with 17 significant
digits, so equal configurations produce byte-identical reports.  Volatile
information (timestamps, host) lives under the top-level "provenance" key,
which the canonical hash excludes.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import platform

import numpy as np

__all__ = [
    "canonical_json",
    "canonical_hash",
    "write_report",
    "write_csv",
    "provenance",
]


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in canonical report")
    return format(float(x), ".17g")


def _encode(obj, pieces: list) -> None:
    if obj is None or obj is True or obj is False:
        pieces.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int,)):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(_format_float(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("canonical reports require string keys")
            if i:
                pieces.append(",")
            pieces.append(json.dumps(key, ensure_ascii=False))
            pieces.append(":")
            _encode(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(",")
            _encode(item, pieces)
        pieces.append("]")
    elif isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, np.integer):
        pieces.append(str(int(obj)))
    elif isinstance(obj, np.floating):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), pieces)
    else:
        raise TypeError(f"cannot canonicalize object of type {type(obj)!r}")


def canonical_json(obj) -> str:
    pieces: list[str] = []
    _encode(obj, pieces)
    return "".join(pieces)


def canonical_hash(obj) -> str:
    """SHA-256 of the canonical form, with the provenance key stripped."""
    if isinstance(obj, dict):
        obj = {k: v for k, v in obj.items() if k != "provenance"}
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_report(path, obj) -> str:
    """Write canonical JSON (plus newline); returns the canonical hash."""
    text = canonical_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return canonical_hash(obj)


def write_csv(path, rows) -> None:
    """Write rows of cells; floats use the canonical 17-digit format."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            cells = [
                _format_float(c) if isinstance(c, float) else str(c) for c in row
            ]
            fh.write(",".join(cells))
            fh.write("\n")


def provenance() -> dict:
    from . import __version__

    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "package": "exactlaws",
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
