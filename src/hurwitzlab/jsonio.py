"""Deterministic JSON emission with 17-significant-digit floats.

The standard json module prints shortest round-trip floats; reports here
pin 17 significant digits instead so identical runs emit identical bytes
and downstream parsers recover the exact double.
"""

from __future__ import annotations


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dumps(obj, _level: int = 0) -> str:
    """Serialize dicts/lists/scalars, indented by two spaces per level;
    float values get 17 significant digits.

    Key order is insertion order, matching the dataclass to_dict methods,
    so output is byte-stable across runs.  A list's items, or a dict's
    values, that are all exactly floats are formatted in one pass
    (`_texts`); any other item recurses.
    """
    pad, end_pad = "  " * (_level + 1), "  " * _level
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _texts([float(obj)], _level)[0]
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        texts = _texts(list(obj.values()), _level + 1)
        items = [pad + _quote(str(k)) + ": " + v for k, v in zip(obj, texts)]
        return "{\n" + ",\n".join(items) + "\n" + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + v for v in _texts(obj, _level + 1)]
        return "[\n" + ",\n".join(items) + "\n" + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _texts(values, level: int) -> list[str]:
    """dumps(v, level) of every value, by one %-join when all are exactly floats."""
    if not all(type(v) is float for v in values):
        return [dumps(v, level) for v in values]
    text = "\n".join(["%.17g"] * len(values)) % tuple(values)
    if "n" in text:  # nan, inf and -inf are the only "%.17g" texts with an n
        text = text.replace("nan", "null").replace("inf", '"inf"').replace('-"inf"', '"-inf"')
    return text.split("\n")
