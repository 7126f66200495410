"""Deterministic serialization for certificates and reports.

Identical inputs must yield byte-identical outputs, so JSON is written by a
small canonical serializer: keys sorted, floats at 17 significant digits
(enough to round-trip a double), no whitespace variation, no locale
dependence, no timestamps.  Files are written atomically (temp file in the
target directory, then rename); a failed write leaves no temp file behind.

Tables take one path and everything else another.  A table is a list or
tuple of list or tuple rows that all have one type signature made only of
exact ``float`` and ``int`` cells, every one finite; a flat list or tuple
of such cells is the one-row case.  A 2-D ``float64`` ndarray with at
least one entry, every one finite, is a table too, of float columns; this
is the form ``fit`` and ``bound`` hand over, built as numpy columns with
no Python per cell.  Its text comes from a single ``%`` operation: a
template built from the signature (``%.17g`` per float, ``%d`` per int,
with the brackets and commas of JSON or of CSV) applied to the flattened
cells.  One builtin ``sum`` checks the cells of a list table without a
branch per value: it is finite exactly when no cell is NaN or +-inf and
nothing overflows, and an ``OverflowError`` (an int too large for a
double) counts as not finite; an array is checked by one
``np.isfinite(...).all()``.  Any other value takes the per-value path,
which alone decides its bytes: NaN and +-inf tokens, ``bool``, numpy
scalars, strings, ragged or mixed rows, dicts, and tables whose sum is not
finite.  Any other array goes through its ``tolist()``: one with a NaN or
+-inf entry, an empty one, another dtype or another number of dimensions.

An integer column may ride in a float array: ``%.17g`` prints an integral
double below 2**53 with the digits ``%d`` prints for the int (``3.0`` and
``3`` both print ``3``), so ``bound``'s nearest-node index ``k0`` is a
float column of its points table with unchanged bytes.

``"%.17g" % x`` and ``format(x, ".17g")`` give the same digits: both pass
the double, the ``g`` type and precision 17 with no flags to CPython's
``PyOS_double_to_string`` (the ``#`` flag and the empty type, which add
flags, are not used).  ``format_float`` is the one-value case and uses the
same spec string, so a float prints the same on either path; so does an
int, since ``"%d" % n == str(n)`` for an exact ``int``.
"""

import csv
import io
import json
import math
import os
from itertools import chain

import numpy as np

__all__ = [
    "format_float",
    "canonical_json",
    "atomic_write",
    "csv_text",
]

#: the %-spec of a finite double: 17 significant digits round-trip it
_FLOAT_SPEC = "%.17g"
#: the %-spec of each cell type the table path takes, keyed by exact type
_SPECS = {float: _FLOAT_SPEC, int: "%d"}
_ROW_TYPES = {list, tuple}


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a double; round-trips exactly."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return _FLOAT_SPEC % x


def _finite(cells: tuple) -> bool:
    try:
        return math.isfinite(sum(cells))
    except OverflowError:
        return False


def _table(rows):
    """(specs of one row, cells in row order) of a table, or None.

    ``rows`` must be a 2-D float64 ndarray with entries, all finite, or a
    non-empty list or tuple of list or tuple rows of one length whose
    cells have, column by column, one exact type in ``_SPECS``, and whose
    ``sum`` is finite; anything else gives None.
    """
    if type(rows) is np.ndarray:
        if rows.ndim == 2 and rows.dtype == np.float64 and rows.size and np.isfinite(rows).all():
            return [_FLOAT_SPEC] * rows.shape[1], tuple(rows.ravel().tolist())
        return None
    if type(rows) not in _ROW_TYPES or not rows or not set(map(type, rows)) <= _ROW_TYPES:
        return None
    first = rows[0]
    if set(map(len, rows)) != {len(first)}:
        return None
    signature = tuple(map(type, first))
    cells = tuple(chain.from_iterable(rows))
    if tuple(map(type, cells)) != signature * len(rows) or not set(signature) <= _SPECS.keys():
        return None
    return ([_SPECS[t] for t in signature], cells) if _finite(cells) else None


def _json_table(obj):
    """JSON text of a table or of a flat list of cells (one row), or None."""
    flat = type(obj) in _ROW_TYPES and bool(obj) and type(obj[0]) in _SPECS
    table = _table((obj,) if flat else obj)
    if table is None:
        return None
    specs, cells = table
    row = "[" + ",".join(specs) + "]"
    return (row if flat else "[" + ",".join([row] * len(obj)) + "]") % cells


def _serialize(obj, out: list) -> None:
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
        out.append(format_float(float(obj)))
    elif isinstance(obj, np.bool_):
        out.append("true" if bool(obj) else "false")
    elif isinstance(obj, np.ndarray):
        table = _json_table(obj)
        if table is None:
            _serialize(obj.tolist(), out)
        else:
            out.append(table)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _serialize(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        table = _json_table(obj)
        if table is not None:
            out.append(table)
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _serialize(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, 17-digit floats, no whitespace."""
    out: list = []
    _serialize(obj, out)
    return "".join(out)


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename.

    When the open, the write or the rename fails, the temp file is removed
    and the ``OSError`` propagates.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def csv_text(header, rows) -> str:
    """CSV text: the header, then one line per row, each ending in a newline.

    A table (see the module docstring) is written in one ``%`` operation;
    any other rows, an array through its ``tolist()``, go through
    ``csv.writer`` cell by cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    table = _table(rows)
    if table is None:
        for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()
    specs, cells = table
    return buf.getvalue() + ("\n".join([",".join(specs)] * len(rows)) + "\n") % cells
