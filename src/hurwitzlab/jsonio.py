"""Deterministic JSON emission with 17-significant-digit floats.

The standard json module prints shortest round-trip floats; reports here
pin 17 significant digits instead so identical runs emit identical bytes
and downstream parsers recover the exact double.
"""

from __future__ import annotations

import math


def _quote(s: str) -> str:
    """s as a JSON string, each % doubled for the closing %-format of dumps."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("%", "%%") + '"'


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars, indented by two spaces per level, with
    17 significant digits per float and keys in insertion order (that of the
    dataclass to_dict methods), so output is byte-stable across runs.  One walk
    writes "%.17g" in place of each finite float; one %-format fills them in."""
    floats: list[float] = []
    return _template(obj, 0, floats) % tuple(floats)


def _template(obj, level: int, floats: list) -> str:
    """The text of obj at indent level, each finite float a "%.17g" appended
    to floats in text order; nan and ±inf become null, "inf" and "-inf"."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            floats.append(obj)
            return "%.17g"
        return "null" if obj != obj else '"inf"' if obj > 0 else '"-inf"'
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _quote(obj)
    pad, end = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, dict):
        items = [pad + _quote(str(k)) + ": " + t for k, t in zip(obj, _templates(list(obj.values()), level + 1, floats))]
        return "{" + ",".join(items) + end + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [pad + t for t in _templates(obj, level + 1, floats)]
        return "[" + ",".join(items) + end + "]" if items else "[]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _templates(values, level: int, floats: list) -> list[str]:
    """_template of each value; all exact floats with a finite sum, so each finite (a spectrum map), taken whole."""
    if all(type(v) is float for v in values) and math.isfinite(sum(values)):
        floats.extend(values)
        return ["%.17g"] * len(values)
    return [_template(v, level, floats) for v in values]
