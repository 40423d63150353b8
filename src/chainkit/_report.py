"""Deterministic JSON serialization for reports.

Floats are rendered as ``%.17g`` (enough digits to round-trip IEEE doubles;
infinities and NaN as the strings "Infinity", "-Infinity" and "NaN") and map
keys are emitted sorted, so identical configs and inputs produce
byte-identical reports; bulk floats go through one exact numpy kernel, ``g17_cells``.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from json.encoder import encode_basestring

import numpy as np

# A cell: col 0 the sign, 1-17 the integer digits (or "0.000" below 0.1), 18 the dot,
# 19-35 the fraction digits, 36-40 "e+dd" or "e-ddd", 41 NUL for a separator; unused are NUL.
WIDTH = 42
_DECADES = 282  # decades -282..282: those of [1e-280, 1e280], read one off either way


@functools.cache
def _g17_tables():
    """Per decade e: 10**(16 - e) as hi (correctly rounded) + lo, cell constants and masks."""
    es = range(-_DECADES, _DECADES + 1)
    ratios = [(10 ** max(16 - e, 0), 10 ** max(e - 16, 0)) for e in es]  # 10**(16 - e) = P / Q
    hi = np.array([P / Q for P, Q in ratios])  # int / int is correctly rounded, as is the rest:
    lo = np.array([(P * d - m * Q) / (Q * d) for (P, Q), (m, d)
                   in zip(ratios, map(float.as_integer_ratio, hi.tolist()))])
    consts = np.array([sign + (b"0.000"[:1 - e] if -4 <= e < 0 else b"").ljust(35, b"\0")
                       + (b"e%+03d" % e if not -4 <= e < 17 else b"").rjust(5, b"\0")
                       for e in es for sign in (b"\0", b"-")], f"S{WIDTH}")
    q, last, col = np.ogrid[-1:17, :17, :WIDTH]  # integer digits 0..q, fraction q+1..last
    masks = ((1 <= col) & (col <= q + 1) | (20 + q <= col) & (col < 20 + last)
             | (col == 18) & (0 <= q) & (q < last)).astype(np.uint8) * 255
    masks = masks[[1 + e if 0 <= e < 17 else 0 if -4 <= e < 0 else 1 for e in es]]
    quads = (np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10
             + 48).astype(np.uint8)
    return (hi, lo, consts.view(np.uint8).reshape(-1, WIDTH), masks.reshape(-1, WIDTH),
            quads.view(np.uint32).ravel(), np.where(quads > 48, np.arange(1, 5), 0).max(axis=1))


def g17_cells(values, e: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """'%.17g' % v of each float of ``values`` as NUL-padded uint8 cells, shape
    ``values.shape + (WIDTH,)``, and the flat mask of the cells numpy wrote.

    With e the decade read (floor(log10 |x|) unless given; one off near a power of ten),
    y = |x| 10**(16 - e) = p + r (Dekker's two-product of |x| and hi, plus |x| lo) rounds
    to n = p + floor(r) + (frac(r) > 1/2).  r is off by under 2**-46: y < 2**57, hi + lo
    is exact to 2**-106 relative, and rounding r (|r| < 16) and |x| lo adds 2**-49 each.
    Python writes the cell for 0, inf, nan and |x| outside [1e-280, 1e280], for
    |frac(r) - 1/2| <= 2**-30 (a tie, or too close to one to round by r), for y < 1e16
    (e read high) and for n >= 1e17 (e read low, or the rounding carries)."""
    hi, lo, consts, masks, quads, tails = _g17_tables()
    x = np.asarray(values, np.float64).ravel()
    a = np.abs(x)
    certain = (a >= 1e-280) & (a <= 1e280)  # false for 0, inf and nan too
    a[~certain] = 1.0
    e = (np.floor(np.log10(a)).astype(np.intp) if e is None else e) + _DECADES
    H = hi.take(e)
    p = a * H
    ah = 134217729.0 * a - (134217729.0 * a - a)  # Dekker's splits into 26-bit halves
    Hh = 134217729.0 * H - (134217729.0 * H - H)
    al, Hl = a - ah, H - Hh
    r = ((ah * Hh - p) + ah * Hl + al * Hh) + al * Hl + a * lo.take(e)
    frac = r - np.floor(r)
    n = p.astype(np.int64) + np.floor(r).astype(np.int64) + (frac > 0.5)
    certain &= (abs(frac - 0.5) > 2 ** -30) & ((p > 1e16) | (p == 1e16) & (r >= 0)) & (n < 10 ** 17)
    lead, mid = np.divmod((n // 10 ** 8).astype(np.int32), 10 ** 8)  # garbage if uncertain
    g = np.stack([*np.divmod(mid, 10 ** 4), *np.divmod((n % 10 ** 8).astype(np.int32), 10 ** 4)], 1)
    t = tails.take(g)
    cells = np.zeros((x.size, WIDTH), np.uint8)
    cells[:, 1] = cells[:, 19] = lead + 48
    cells[:, 2:18] = cells[:, 20:36] = quads.take(g).view(np.uint8).reshape(x.size, 16)
    cells[:, 18] = ord(".")
    cells &= masks.take(17 * e + np.where(t > 0, t + np.arange(0, 16, 4), 0).max(axis=1), axis=0)
    cells |= consts.take(2 * e + np.signbit(x), axis=0)
    if (miss := np.flatnonzero(~certain)).size:
        text = [b"%.17g" % v for v in x[miss].tolist()]
        cells[miss] = np.array(text, f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return cells.reshape(np.shape(values) + (WIDTH,)), certain


def _cells(column: np.ndarray) -> np.ndarray:
    """The cells of an int (str) or float column, each distinct value (bits) once."""
    floats = column.dtype.kind == "f"
    values, where = np.unique(column.astype(float).view(np.int64) if floats else column,
                              return_inverse=True)
    return (g17_cells(values.view(float))[0] if floats else values.astype("S").view(np.uint8)
            .reshape(values.size, -1)).take(where, axis=0)


def render_block(*parts) -> str:
    """Row-aligned parts side by side, NULs dropped: bytes (on every row), cells or S strings."""
    rows = next(len(p) for p in parts if not isinstance(p, bytes))
    M = np.concatenate([np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
                        if isinstance(p, bytes) else p.view(np.uint8).reshape(rows, p[:1].nbytes)
                        for p in parts], axis=1)
    return M[M != 0].tobytes().decode()


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
    """Blocks of rows through ``render_block`` when the columns are ints and finite floats."""
    cols = sorted(rows.columns.items())
    if not all(c.dtype.kind in "iu" or c.dtype.kind == "f" and np.isfinite(c).all()
               for _, c in cols):
        return _render(list(rows))  # "NaN", "Infinity", bools, ... as a row loop renders them
    heads = [(",{"[i == 0] + encode_basestring(k) + ":").encode() for i, (k, _) in enumerate(cols)]
    blocks = [render_block(*[p for h, (_, c) in zip(heads, cols)
                             for p in (h, _cells(c[i:i + 4096]))], b"},")
              for i in range(0, len(rows), 4096)] or [","]
    return "".join(["[", *blocks[:-1], blocks[-1][:-1], "]"])  # one copy of the text


def _render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)  # finite when x - x == 0: inf - inf and nan - nan are nan
        return ("%.17g" % x if x - x == 0.0 else '"NaN"' if x != x
                else '"Infinity"' if x > 0 else '"-Infinity"')
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
