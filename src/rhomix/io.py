"""JSON/CSV input and output.

All floats are emitted with 17 significant digits so that serialized values
round-trip exactly; serialization is fully deterministic (sorted keys, no
timestamps), which is what makes byte-identical reruns possible.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError

INDENT = 2  # spaces per nesting level of dumps


def fmt17(x) -> str:
    x = float(x)
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e16:
        return repr(x)  # keep a trailing ".0" for whole floats
    return f"{x:.17g}"


def _dump(obj, parts, level):
    pad = " " * (INDENT * level)
    pad2 = " " * (INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = list(obj)
        for n, k in enumerate(keys):
            parts.append(pad2 + json.dumps(str(k)) + ": ")
            _dump(obj[k], parts, level + 1)
            parts.append(",\n" if n < len(keys) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            parts.append("[]")
            return
        parts.append("[\n")
        for n, v in enumerate(seq):
            parts.append(pad2)
            _dump(v, parts, level + 1)
            parts.append(",\n" if n < len(seq) - 1 else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        parts.append(json.dumps(obj))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt17(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    else:
        parts.append(json.dumps(str(obj)))


def dumps(obj) -> str:
    parts: list[str] = []
    _dump(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def parse_number(v) -> float:
    """Accept probabilities given either as doubles or as decimal strings."""
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValidationError(f"{v!r} is not a number") from None


def parse_matrix(rows):
    """A list of equal-length rows of numbers as a 2-d float array."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows) \
            or len({len(row) for row in rows}) > 1:
        raise ValidationError("a matrix must be a list of equal-length rows of numbers")
    return np.array([[parse_number(v) for v in row] for row in rows], dtype=float)


def csv_lines(header_comment: str, columns: list[str], rows) -> str:
    lines = [f"# {header_comment}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt17(v) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def spin_grid_text(grid) -> str:
    """PGM-style text rendering of a 2D spin configuration (-1/+1 -> 0/1)."""
    g = np.asarray(grid)
    if g.ndim == 1:
        g = g[None, :]
    lines = ["P2", f"{g.shape[1]} {g.shape[0]}", "1"]
    for row in g:
        lines.append(" ".join("1" if v > 0 else "0" for v in row))
    return "\n".join(lines) + "\n"
