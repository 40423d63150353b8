"""Deterministic JSON serialization for reports.

Floats are rendered with 17 significant digits (enough to round-trip IEEE
doubles) and map keys are emitted sorted, so identical configs and inputs
produce byte-identical reports.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring

import numpy as np


def _render(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            out.append('"Infinity"' if x > 0 else '"-Infinity"')
        elif math.isnan(x):
            out.append('"NaN"')
        else:
            out.append(f"{x:.17g}")
    elif isinstance(obj, str):
        # the string encoder of json.dumps(obj, ensure_ascii=False)
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            _render(str(k), out)
            out.append(":")
            _render(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray, frozenset, set, range)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def dumps(obj) -> str:
    out: list = []
    _render(obj, out)
    return "".join(out)


def write_report(payload: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(payload))
        fh.write("\n")
