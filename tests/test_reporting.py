import json
import math

import numpy as np
import pytest

from mlscert import reporting as rep


def test_float_format_round_trips():
    for x in (0.1, 1.0 / 3.0, 2.0**-52, 1e308, -1.2345678901234567e-300):
        assert float(rep.format_float(x)) == x


def test_float_special_tokens():
    assert rep.format_float(float("nan")) == "NaN"
    assert rep.format_float(float("inf")) == "Infinity"
    assert rep.format_float(float("-inf")) == "-Infinity"


def test_json_sorted_keys_and_stability():
    a = rep.canonical_json({"b": 1, "a": [2.5, None, True]})
    b = rep.canonical_json({"a": [2.5, None, True], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_json_numpy_coercion():
    text = rep.canonical_json(
        {"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True),
         "arr": np.array([1.0, 2.0])}
    )
    parsed = json.loads(text)
    assert parsed == {"i": 3, "f": 0.5, "b": True, "arr": [1.0, 2.0]}


def test_json_specials_parse_back():
    text = rep.canonical_json({"v": [float("nan"), float("inf")]})
    parsed = json.loads(text)  # stdlib accepts NaN/Infinity tokens
    assert math.isnan(parsed["v"][0]) and math.isinf(parsed["v"][1])


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        rep.canonical_json({"x": object()})
    with pytest.raises(TypeError):
        rep.canonical_json({1: "non-string key"})


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "out.json"
    rep.atomic_write(target, "first\n")
    rep.atomic_write(target, "second\n")
    assert target.read_text() == "second\n"
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_csv_text_format():
    text = rep.csv_text(["x", "y"], [[0.5, 1], [float("nan"), -2]])
    lines = text.split("\n")
    assert lines[0] == "x,y"
    assert lines[1] == "0.5,1"
    assert lines[2].startswith("NaN,")
    assert text.endswith("\n")


def test_csv_uses_unix_newlines():
    assert "\r" not in rep.csv_text(["a", "b"], [[1.0, "x"], [2.0, "y"]])
