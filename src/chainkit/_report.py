"""Deterministic JSON serialization for reports.

Floats are rendered as ``%.17g`` (enough digits to round-trip IEEE doubles;
infinities and NaN as the strings "Infinity", "-Infinity" and "NaN") and map
keys are emitted sorted, so identical configs and inputs produce
byte-identical reports.
"""

from __future__ import annotations

from collections.abc import Sequence
from json.encoder import encode_basestring

import numpy as np


def _float(x: float) -> str:
    if x - x == 0.0:  # finite: inf - inf and nan - nan are nan
        return "%.17g" % x
    return '"NaN"' if x != x else '"Infinity"' if x > 0 else '"-Infinity"'


class Rows(Sequence):
    """A read-only table of equal-length numpy columns, one row per index.

    Row i is ``{name: column[i].item()}``, the dict a row loop would build.
    """

    def __init__(self, **columns: np.ndarray):
        if len({len(c) for c in columns.values()}) > 1:
            raise ValueError("columns must have equal lengths")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Rows(**{k: c[i] for k, c in self.columns.items()})
        i = range(len(self))[i]  # negative from the end, IndexError past it
        return {k: c[i].item() for k, c in self.columns.items()}

    def __iter__(self):
        keys, cols = tuple(self.columns), tuple(self.columns.values())
        for i in range(0, len(self), 4096):  # tolist() one block, never a whole column
            for row in zip(*(c[i:i + 4096].tolist() for c in cols)):
                yield dict(zip(keys, row))


def _rows(rows: Rows) -> str:
    """Every row through one %-format when the columns are ints and finite floats."""
    cols = sorted(rows.columns.items())
    if not all(c.dtype.kind in "iu" or c.dtype.kind == "f" and np.isfinite(c).all()
               for _, c in cols):
        return _render(list(rows))  # "NaN", "Infinity", bools, ... as a row loop renders them
    fmt = "{" + ",".join(encode_basestring(k).replace("%", "%%")
                         + (":%d" if c.dtype.kind in "iu" else ":%.17g") for k, c in cols) + "}"
    return "[" + ",".join(map(fmt.__mod__, zip(*(c.tolist() for _, c in cols)))) + "]"


def _render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, dict):
        return "{" + ",".join([encode_basestring(str(k)) + ":" + _render(obj[k])
                               for k in sorted(obj, key=str)]) + "}"
    if isinstance(obj, Rows):
        return _rows(obj)
    if isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind in "fiu":
        obj = obj.tolist()  # the Python ints and floats of its numpy scalars
    if isinstance(obj, (list, tuple, np.ndarray, range)):  # a 0-d array fails to iterate
        return "[" + ",".join([_render(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def dumps(obj) -> str:
    return _render(obj)  # recursion stays in _render, so dumps runs once per report


def write_report(payload: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(payload))
        fh.write("\n")
