"""Deterministic serialization for certificates and reports.

Identical inputs must yield byte-identical outputs, so JSON is written by a
small canonical serializer: keys sorted, floats at 17 significant digits
(enough to round-trip a double), no whitespace variation, no locale
dependence, no timestamps.  Files are written atomically (temp file in the
target directory, then rename).
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


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a double; round-trips exactly."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


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
        _serialize(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
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
    """Write text to path via a temp file in the same directory + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()
