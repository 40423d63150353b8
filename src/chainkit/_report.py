"""Deterministic JSON serialization for reports.

Floats are rendered as ``%.17g`` (enough digits to round-trip IEEE doubles;
infinities and NaN as the strings "Infinity", "-Infinity" and "NaN") and map
keys are emitted sorted, so identical configs and inputs produce
byte-identical reports.
"""

from __future__ import annotations

import functools
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
        return _seq(list(rows))  # "NaN", "Infinity", bools, ... as a row loop renders them
    fmt = "{" + ",".join(encode_basestring(k).replace("%", "%%")
                         + (":%d" if c.dtype.kind in "iu" else ":%.17g") for k, c in cols) + "}"
    return "[" + ",".join(map(fmt.__mod__, zip(*(c.tolist() for _, c in cols)))) + "]"


def _seq(seq) -> str:
    get = _RENDER.get
    return "[" + ",".join([get(type(v), _subclass)(v) for v in seq]) + "]"


# equal tuples share an entry, so only tuples of exact str keys may be cached
@functools.lru_cache(maxsize=256)
def _key_prefixes(keys: tuple) -> tuple[tuple[str, str], ...]:
    """('"key":', key) for each key, in the order of the keys' str."""
    return tuple((encode_basestring(str(k)) + ":", k) for k in sorted(keys, key=str))


def _dict(obj: dict) -> str:
    keys = tuple(obj)
    exact = all(type(k) is str for k in keys)
    prefixes = (_key_prefixes if exact else _key_prefixes.__wrapped__)(keys)
    get = _RENDER.get
    return "{" + ",".join([p + get(type(v := obj[k]), _subclass)(v)
                           for p, k in prefixes]) + "}"


def _subclass(obj) -> str:  # every type without an entry in _RENDER
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, dict):
        return _dict(obj)
    if isinstance(obj, (list, tuple, np.ndarray, frozenset, set, range)):
        return _seq(sorted(obj) if isinstance(obj, (set, frozenset)) else obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


# exact types; tolist() gives the Python ints and floats that a numeric
# array's numpy scalars convert to, and a 0-d array fails to iterate
_RENDER = {
    type(None): lambda _: "null", bool: lambda b: "true" if b else "false",
    int: int.__repr__, float: _float, np.float64: lambda x: _float(float(x)),
    str: encode_basestring, dict: _dict, list: _seq, tuple: _seq,
    np.ndarray: lambda a: _seq(a.tolist() if a.dtype.kind in "fiu" else a), Rows: _rows,
}


def dumps(obj) -> str:
    return _RENDER.get(type(obj), _subclass)(obj)


def write_report(payload: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(payload))
        fh.write("\n")
