import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError):
        rep.atomic_write(tmp_path / "taken", "text\n")
    with pytest.raises(FileNotFoundError):
        rep.atomic_write(tmp_path / "missing" / "out.json", "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


# --- the writers against a per-value reference -------------------------------
#
# ``ref_json`` and ``ref_csv`` format every value on its own, as the
# serializer did before it had a table path; the real writers must give
# the same bytes for every input, lists and tuples of rows included.


def _ref_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _ref_serialize(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_ref_float(obj))
    elif isinstance(obj, np.bool_):
        out.append("true" if bool(obj) else "false")
    elif isinstance(obj, np.ndarray):
        _ref_serialize(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            out.append(("," if i else "") + json.dumps(key) + ":")
            _ref_serialize(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _ref_serialize(item, out)
        out.append("]")
    else:
        raise TypeError(type(obj).__name__)


def ref_json(obj) -> str:
    out: list = []
    _ref_serialize(obj, out)
    return "".join(out)


def _ref_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _ref_float(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def ref_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_ref_cell(v) for v in row])
    return buf.getvalue()


MAX_DOUBLE = 1.7976931348623157e308
SPECIALS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.225073858507201e-308,
    MAX_DOUBLE, -MAX_DOUBLE, 1e16, 1e17, 2**1024, -(2**1030) - 1, 2**1100,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
COLUMNS = {float: FINITE, int: st.integers(-(10**20), 10**20)}
# a cell that may break the table path: a special value or a foreign type
ODD_CELLS = st.one_of(
    st.sampled_from(SPECIALS),
    st.booleans(),
    FINITE.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(max_size=3),
)
SEQUENCES = st.sampled_from([list, tuple])


@st.composite
def row_lists(draw, kinds):
    """Cells of one row of the given column kinds, sometimes disturbed."""
    cells = [draw(COLUMNS[k]) for k in kinds]
    disturb = draw(st.integers(0, 23))
    if disturb == 0 and cells:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(ODD_CELLS)
    elif disturb == 1:
        cells.append(draw(st.one_of(FINITE, st.integers())))
    elif disturb == 2 and cells:
        cells.pop()
    elif disturb == 3 and cells:
        i = draw(st.integers(0, len(cells) - 1))
        cells[i] = float(cells[i]) if type(cells[i]) is int else int(cells[i])
    return draw(SEQUENCES)(cells)


@st.composite
def tables(draw):
    """A list or tuple of rows that mostly share one float/int signature."""
    kinds = draw(st.lists(st.sampled_from([float, int]), max_size=5))
    rows = draw(st.lists(row_lists(kinds), max_size=6))
    return draw(SEQUENCES)(rows)


FLAT = st.lists(st.one_of(FINITE, st.integers(-(10**20), 10**20)), max_size=8) | st.lists(
    st.one_of(FINITE, ODD_CELLS), max_size=5
)
DOCUMENTS = st.one_of(
    tables(),
    FLAT,
    FLAT.map(tuple),
    st.lists(tables(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(tables(), FLAT, FINITE), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_canonical_json_equals_per_value_reference(doc):
    assert rep.canonical_json(doc) == ref_json(doc)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_csv_text_equals_per_value_reference(rows):
    header = ["a", "b,c"]
    assert rep.csv_text(header, rows) == ref_csv(header, rows)


FALLBACKS = {
    "nan": [[1.0, math.nan], [2.0, 3.0]],
    "inf": [[math.inf, 1.0]],
    "-inf flat": [-math.inf, 0.5],
    "sum overflows": [[MAX_DOUBLE, 1.0], [MAX_DOUBLE, 2.0]],
    "int past 2**1024 with floats": [[2**1024, 1.5]],
    "int past 2**1024 alone": [2**1100, 3],
    "bool": [[1.0, True]],
    "np.float64": [[np.float64(0.5), 1.0]],
    "np.int64": [np.int64(3), 1.0],
    "np.bool_": [[np.bool_(False), 2.0]],
    "string": [["a", 1.0]],
    "ragged": [[1.0, 2.0], [3.0]],
    "ragged, whole rows' worth of cells": [[1.0, 2.0], [3.0], (4.0, 5.0, 6.0)],
    "mixed signatures": [[1.0, 2], [3.0, 4.0]],
    "mixed row kinds": [[1.0], 2.0],
    "dict rows": [{"a": 1.0}],
    "nested deeper": [[[1.0, 2.0]]],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallback_triggers_take_the_per_value_path(name):
    """Edge values written one value at a time: NaN, +-inf, ints past
    2**1024, bools, numpy scalars, strings, and ragged, nested and empty
    rows.  Only a finite 2-D float64 array takes the table form, so no list
    here does; each prints the per-value reference bytes in JSON, as a list
    and as a tuple, and, when every row is a list or tuple, in CSV."""
    doc = FALLBACKS[name]
    assert rep._json_table(doc) is None
    assert rep.canonical_json(doc) == ref_json(doc)
    assert rep.canonical_json({"t": tuple(doc)}) == ref_json({"t": tuple(doc)})
    if all(isinstance(row, (list, tuple)) for row in doc):
        assert rep._table(doc) is None
        assert rep.csv_text(["h"], doc) == ref_csv(["h"], doc)


def test_list_and_tuple_cells_print_per_value_bytes():
    """Lists and tuples of float and int cells, written one value at a
    time (only float arrays take the table form), print these bytes in
    JSON and CSV."""
    rows = [[0.1, 2, -0.0], (5e-324, -3, 1e16)]
    assert rep.canonical_json(rows) == "[[0.10000000000000001,2,-0],[4.9406564584124654e-324,-3,10000000000000000]]"
    assert rep.canonical_json((1.0, 2**70)) == "[1,1180591620717411303424]"
    assert rep.canonical_json([[], ()]) == "[[],[]]"
    assert rep.csv_text(["x", "k", "y"], rows[:1] * 2) == "x,k,y\n" + "0.10000000000000001,2,-0\n" * 2


# --- float arrays: the table form of ``fit`` and ``bound`` -------------------

# finite cells with the edge cases of %.17g and of a sum that overflows
ARRAY_CELLS = st.one_of(
    FINITE,
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, MAX_DOUBLE,
                     -MAX_DOUBLE]),
)


@st.composite
def float_arrays(draw):
    """An (n, k) float64 array, 1 <= n <= 8 and 1 <= k <= 6, sometimes
    with a NaN or +-inf entry."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    arr = np.array(draw(st.lists(ARRAY_CELLS, min_size=n * k, max_size=n * k))).reshape(n, k)
    if draw(st.integers(0, 3)) == 0:
        arr[draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return arr


@settings(max_examples=300, deadline=None)
@given(float_arrays())
def test_float_arrays_write_as_their_rows(arr):
    """A 2-D float array gives the bytes of its ``tolist()`` rows in both
    writers; only an array with a NaN or +-inf entry leaves the table path."""
    rows = arr.tolist()
    assert (rep._table(arr) is None) == (not np.isfinite(arr).all())
    assert rep.canonical_json(arr) == rep.canonical_json(rows) == ref_json(rows)
    assert rep.canonical_json({"t": arr}) == ref_json({"t": rows})
    assert rep.csv_text(["a", "b"], arr) == rep.csv_text(["a", "b"], rows) == ref_csv(["a", "b"], rows)


class _Sub(np.ndarray):
    pass


ARRAY_FALLBACKS = {
    "nan": np.array([[1.0, math.nan], [2.0, 3.0]]),
    "-inf": np.array([[-math.inf]]),
    "no rows": np.zeros((0, 3)),
    "no columns": np.zeros((2, 0)),
    "int": np.array([[1, -2], [3, 2**40]]),
    "float32": np.array([[0.1, 2.5]], dtype=np.float32),
    "bool": np.array([[True, False]]),
    "1-d": np.array([0.5, -0.0]),
    "3-d": np.arange(8.0).reshape(2, 2, 2),
    "subclass": np.arange(4.0).reshape(2, 2).view(_Sub),
}


@pytest.mark.parametrize("name", sorted(ARRAY_FALLBACKS))
def test_other_arrays_take_their_tolist_route(name):
    arr = ARRAY_FALLBACKS[name]
    assert rep._table(arr) is None
    assert rep.canonical_json({"t": arr}) == ref_json({"t": arr.tolist()})
    if arr.ndim == 2:
        assert rep.csv_text(["h"], arr) == ref_csv(["h"], arr.tolist())


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**53) + 1, 2**53 - 1))
def test_integral_float_below_2_53_prints_as_its_int(k):
    """Why ``bound``'s k0 may ride in a float column."""
    assert rep.canonical_json(np.array([[float(k)]])) == rep.canonical_json([[k]]) == f"[[{k}]]"
