"""Deterministic JSON emission with 17-significant-digit floats.

The standard json module prints shortest round-trip floats; reports here
pin 17 significant digits instead so identical runs emit identical bytes
and downstream parsers recover the exact double.
"""

from __future__ import annotations

import math


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj, _level: int = 0) -> str:
    """Serialize dicts/lists/scalars, indented by two spaces per level;
    float values get 17 significant digits.

    Key order is insertion order, matching the dataclass to_dict methods,
    so output is byte-stable across runs.
    """
    pad, end_pad = "  " * (_level + 1), "  " * _level
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [pad + dumps(str(k), _level + 1) + ": " + dumps(v, _level + 1) for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + dumps(v, _level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
