"""JSON/CSV input and output.

All floats are emitted with 17 significant digits so that serialized values
round-trip exactly; serialization is fully deterministic (sorted keys, no
timestamps), which is what makes byte-identical reruns possible.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np

from .errors import ValidationError

INDENT = 2  # spaces per nesting level of dumps


def fmt17(x) -> str:
    x = float(x)
    if math.isfinite(x):
        # repr keeps a trailing ".0" for whole floats
        return repr(x) if x.is_integer() and abs(x) < 1e16 else f"{x:.17g}"
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _dump(obj, level: int) -> str:
    """The text of ``obj`` at nesting ``level``; a container joins its items' texts once."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(str(k)) + ": " + _dump(v, level + 1) for k, v in obj.items()]
        return _join("{", items, "}", level)
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not seq:
            return "[]"
        return _join("[", [_dump(v, level + 1) for v in seq], "]", level)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return _quote(str(obj))


def _join(opening: str, items: list, closing: str, level: int) -> str:
    """``items`` one per line, indented one level below ``level``, between the brackets."""
    inner = "\n" + " " * (INDENT * (level + 1))
    return opening + inner + ("," + inner).join(items) + "\n" + " " * (INDENT * level) + closing


def dumps(obj) -> str:
    return _dump(obj, 0) + "\n"


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
