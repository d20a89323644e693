"""Canonical JSON / CSV writers for reproducible reports.

Reports must be byte-identical across reruns, so floats are rendered with
12 significant digits and dictionary keys are sorted.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np


def _canon(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return '"nan"'
        if v in (float("inf"), float("-inf")):
            return f'"{v}"'
        return format(v, ".12g")
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, dict):
        items = sorted((str(k), v) for k, v in value.items())
        return "{" + ",".join(f'{_canon(k)}:{_canon(v)}' for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(data) -> str:
    return _canon(data)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def write_report(path, data: dict) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(canonical_json(data))
        handle.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence],
              comments: Sequence[str] = ()) -> None:
    """Plain 12-significant-digit CSV with optional leading comment lines."""
    with open(path, "w", newline="") as handle:
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(
                format(float(v), ".12g") if isinstance(v, (float, np.floating))
                else str(v) for v in row) + "\n")
