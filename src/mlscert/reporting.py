"""Deterministic serialization for certificates and reports.

Identical inputs must yield byte-identical outputs, so JSON is written by a
small canonical serializer: keys sorted, floats at 17 significant digits
(enough to round-trip a double), no whitespace variation, no locale
dependence, no timestamps.  Files are written atomically (temp file in the
target directory, then rename); a failed write leaves no temp file behind.

A table takes one path and everything else another.  A table is a 2-D
``float64`` ndarray with at least one entry, every one finite: the form
``fit`` and ``bound`` hand over, built as numpy columns with no Python per
cell.  One ``np.isfinite(...).all()`` checks it, and its text comes from a
single ``%`` operation: a template of ``%.17g`` per cell, with the
brackets and commas of JSON or of CSV, applied to the flattened cells.
Every other value takes the per-value path, which alone decides its bytes:
lists and tuples, NaN and +-inf tokens, ``bool``, numpy scalars, strings
and dicts.  Any other array goes through its ``tolist()``: one with a NaN
or +-inf entry, an empty one, another dtype or another number of
dimensions.

An integer column may ride in a float array: ``%.17g`` prints an integral
double below 2**53 with the digits ``%d`` prints for the int (``3.0`` and
``3`` both print ``3``), so ``bound``'s nearest-node index ``k0`` is a
float column of its points table with unchanged bytes.

``"%.17g" % x`` and ``format(x, ".17g")`` give the same digits: both pass
the double, the ``g`` type and precision 17 with no flags to CPython's
``PyOS_double_to_string`` (the ``#`` flag and the empty type, which add
flags, are not used).  ``format_float`` is the one-value case and uses the
same spec string, so a float prints the same on either path.
"""

import csv
import io
import json
import math
import os

import numpy as np

__all__ = [
    "format_float",
    "canonical_json",
    "atomic_write",
    "csv_text",
]

#: the %-spec of a finite double: 17 significant digits round-trip it
_FLOAT_SPEC = "%.17g"


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a double; round-trips exactly."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return _FLOAT_SPEC % x


def _table(rows):
    """The cells of a table in row order, or None: ``rows`` must be a 2-D
    float64 ndarray with entries, all finite."""
    if (type(rows) is np.ndarray and rows.ndim == 2 and rows.dtype == np.float64
            and rows.size and np.isfinite(rows).all()):
        return tuple(rows.ravel().tolist())
    return None


def _json_table(obj):
    """JSON text of a table, or None."""
    cells = _table(obj)
    if cells is None:
        return None
    row = "[" + ",".join([_FLOAT_SPEC] * obj.shape[1]) + "]"
    return ("[" + ",".join([row] * len(obj)) + "]") % cells


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
    cells = _table(rows)
    if cells is None:
        for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()
    line = ",".join([_FLOAT_SPEC] * rows.shape[1])
    return buf.getvalue() + ("\n".join([line] * len(rows)) + "\n") % cells
