import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchin_lab.reports import VerdictReport, format_reports, sig12, to_json, to_jsonable


def test_sig12_rounding():
    assert sig12(1.0) == 1.0
    assert sig12(1 / 3) == 0.333333333333
    assert sig12(123456789.123456789) == 123456789.123
    assert sig12(-2.5e-17) == -2.5e-17


def test_to_obj_key_order():
    rep = VerdictReport(claim="c", params={"b": 1, "a": 2}, passed=True,
                        margin=0.5, witness=None)
    obj = rep.to_obj()
    assert list(obj) == ["claim", "params", "pass", "margin", "witness"]
    assert obj["pass"] is True
    assert obj["witness"] is None


def test_jsonable_conversions():
    out = to_jsonable({
        "frac": Fraction(3, 4),
        "whole": Fraction(8, 2),
        "arr": np.array([1.0, 2.0]),
        "nested": [Fraction(1, 3), {"x": None, "y": False}],
        "f": 0.1 + 0.2,
    })
    assert out["frac"] == "3/4"
    assert out["whole"] == "4"
    assert out["arr"] == [1.0, 2.0]
    assert out["nested"][0] == "1/3"
    assert out["nested"][1] == {"x": None, "y": False}
    assert out["f"] == 0.3


def test_format_json_single_and_list():
    rep = VerdictReport("claim-a", {"p": 3}, True, 0.25, {"g": Fraction(1, 4)})
    single = json.loads(format_reports([rep], "json"))
    assert single["claim"] == "claim-a"
    assert single["witness"]["g"] == "1/4"
    many = json.loads(format_reports([rep, rep], "json"))
    assert isinstance(many, list) and len(many) == 2


def test_format_csv_layout():
    reps = [
        VerdictReport("c1", {"beta": 2, "alpha": 1}, True, 0.1, None),
        VerdictReport("c2", {"alpha": 3}, False, -0.2, {"note": 'say "hi"'}),
    ]
    lines = format_reports(reps, "csv").strip().split("\n")
    assert lines[0].split(",")[0] == "claim"
    header = lines[0].split(",")
    assert "param.alpha" in header and "param.beta" in header
    assert header.index("param.alpha") < header.index("param.beta")
    assert header[-3:] == ["pass", "margin", "witness"]
    # quotes in a witness cell survive the round trip
    rows = list(csv.reader(io.StringIO(format_reports(reps, "csv"))))
    cell = json.loads(rows[2][-1])
    assert cell == {"note": 'say "hi"'}
    assert rows[1][-1] == ""


_SCALARS = (st.none() | st.booleans() | st.integers(-2**80, 2**80)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 2**64, -2**70])
            | st.text(max_size=6)
            | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\u2028", "\U0001f600", "\ud800"]))
_KEYS = (st.text(max_size=4) | st.integers(-2**70, 2**70) | st.booleans() | st.none()
         | st.floats(allow_nan=False, allow_infinity=False))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300)
@given(value=_VALUES)
def test_to_json_is_json_dumps_indent_2(value):
    assert to_json(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1, math.nan],
                                   {"a": {"b": (math.inf,)}}, {math.nan: 1}])
def test_to_json_rejects_nan_and_infinities(value):
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        to_json(value)


@pytest.mark.parametrize("value", [object(), [Fraction(1, 2)], {(1, 2): 3}])
def test_to_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        to_json(value)
