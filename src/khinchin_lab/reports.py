"""Verdict records and deterministic JSON/CSV emission.

Every verification routine returns a VerdictReport; the emitters round
floats to 12 significant digits, render rationals as "num/den" strings and
keep a fixed field order, so identical runs produce byte-identical output.
All indented JSON the package prints comes from `to_json`, which writes the
bytes of `json.dumps(value, indent=2, allow_nan=False)` without leaving
garbage for the cycle collector.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from numbers import Rational
from typing import Any

__all__ = ["VerdictReport", "format_reports", "sig12", "to_json", "to_jsonable"]


def sig12(x: float) -> float:
    """Round to 12 significant digits (report precision)."""
    return float(f"{float(x):.12g}")


def to_jsonable(value: Any) -> Any:
    """A value normalized for report emission: 12-digit floats, rationals
    as "num/den" strings, containers and arrays as lists and dicts."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Rational) and not isinstance(value, int):
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return sig12(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return to_jsonable(value.tolist())
    return str(value)


@dataclass
class VerdictReport:
    """Outcome of one verified claim.

    `margin` is the signed distance to the failure boundary (nonnegative
    when the claim holds with room); `witness` carries the extremal point
    or counterexample data, if any.
    """

    claim: str
    params: dict = field(default_factory=dict)
    passed: bool = True
    margin: float = 0.0
    witness: Any = None

    def to_obj(self) -> dict:
        return {
            "claim": self.claim,
            "params": to_jsonable(self.params),
            "pass": bool(self.passed),
            "margin": sig12(self.margin),
            "witness": to_jsonable(self.witness),
        }


def to_json(value: Any) -> str:
    """`json.dumps(value, indent=2, allow_nan=False) + "\n"`, byte for byte.

    With `indent`, `json.dumps` runs the pure-Python encoder, whose nested
    closures form a reference cycle that every call leaves to the cycle
    collector; this writer holds no state between calls.  NaN and infinities
    raise ValueError and other types TypeError, as in `json`.
    """
    parts: list[str] = []
    _write_json(value, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _json_float(x: float) -> str:
    if x != x or x in (math.inf, -math.inf):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return float.__repr__(x)


def _json_key(key: Any) -> str:
    # the key conversions of json.dumps
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_json(value: Any, parts: list[str], newline: str) -> None:
    """Append the JSON of `value` to `parts`; `newline` is the line break and
    indent of the enclosing level."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts.append(sep + _encode_str(_json_key(key)) + ": ")
            _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        text = json.dumps(value, separators=(",", ":"))
    else:
        text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def format_reports(reports, fmt: str = "json") -> str:
    """Render reports as a JSON document or a flat CSV table.

    A single report becomes one JSON object; several become an array in
    input order.  CSV flattens params into sorted columns.
    """
    reports = list(reports)
    if fmt == "json":
        objs = [r.to_obj() for r in reports]
        payload = objs[0] if len(objs) == 1 else objs
        return to_json(payload)
    if fmt == "csv":
        objs = [r.to_obj() for r in reports]
        param_keys = sorted({k for o in objs for k in o["params"]})
        header = ["claim", *[f"param.{k}" for k in param_keys], "pass", "margin", "witness"]
        lines = [",".join(header)]
        for o in objs:
            row = [o["claim"]]
            row += [_csv_cell(o["params"].get(k)) for k in param_keys]
            row += [_csv_cell(o["pass"]), _csv_cell(o["margin"]), _csv_cell(o["witness"])]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
