"""Finite metric measure spaces: construction, balls, volumes, diagnostics.

Balls are always open: B(x, r) = {y : d(x, y) < r}.  All suprema over a
continuous radius are replaced by scans over the distinct distances (from
a centre, or between any two points) where the relevant step functions
actually change; the scans are therefore exact, not approximate.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dirichlet import GraphDirichletForm

TRIANGLE_CHECK_LIMIT = 1500


class SpaceError(ValueError):
    pass


@dataclass
class FiniteMetricMeasureSpace:
    """Point set with a symmetric distance matrix and positive point masses."""

    dist: np.ndarray
    measure: np.ndarray
    provenance: dict = field(default_factory=lambda: {"type": "explicit"})
    graph: GraphDirichletForm | None = None

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        self.measure = np.asarray(self.measure, dtype=float)
        n = self.dist.shape[0]
        if self.dist.shape != (n, n):
            raise SpaceError("distance matrix must be square")
        if self.measure.shape != (n,):
            raise SpaceError("measure vector has wrong length")
        if not (np.isfinite(self.dist).all() and np.isfinite(self.measure).all()):
            raise SpaceError("distances and measure weights must be finite numbers")
        if (self.measure <= 0).any():
            raise SpaceError("all measure weights must be strictly positive")
        if not np.array_equal(self.dist, self.dist.T):
            raise SpaceError("distance matrix must be symmetric")
        if np.diagonal(self.dist).any():
            raise SpaceError("distance matrix must have zero diagonal")
        if np.count_nonzero(self.dist <= 0) > n:  # the zero diagonal gives n
            raise SpaceError("off-diagonal distances must be positive")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def total_mass(self) -> float:
        return float(self.measure.sum())

    def critical_radii(self) -> np.ndarray:
        """Sorted distinct pairwise distances, all positive."""
        return np.unique(self.dist[np.triu_indices(self.n, 1)])


def _check_triangle(dist: np.ndarray) -> None:
    n = dist.shape[0]
    for k in range(n):
        via_k = dist[:, k, None] + dist[None, k, :]
        bad = dist > via_k + 1e-12 * (1.0 + dist)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise SpaceError(
                f"triangle inequality violated: d({i},{j})={dist[i, j]} > "
                f"d({i},{k})+d({k},{j})={via_k[i, j]}"
            )


def build_space(spec: dict) -> FiniteMetricMeasureSpace:
    """Construct a space from a metric-construction descriptor.

    ``spec`` has a "type" of "euclidean", "snowflake" or "explicit" plus
    "coords" / ("coords", "beta") / "matrix", and an optional "measure"
    (default: uniform unit weights).  Snowflake distances are the Euclidean
    ones raised to the power 2/beta, beta >= 2.  An explicit matrix is
    triangle-checked up to TRIANGLE_CHECK_LIMIT points, larger ones with a warning.
    """
    kind = spec.get("type")
    if kind in ("euclidean", "snowflake"):
        coords = np.atleast_2d(np.asarray(_key(spec, "coords"), dtype=float))
        if coords.shape[0] == 1 and coords.shape[1] > 1 and np.ndim(spec["coords"]) == 1:
            coords = coords.T
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        provenance = {"type": kind, "coords": coords.tolist()}
        if kind == "snowflake":
            beta = float(_key(spec, "beta"))
            if beta < 2:
                raise SpaceError("snowflake exponent 2/beta must lie in (0, 1]")
            dist = dist ** (2.0 / beta)
            provenance["beta"] = beta
    elif kind == "explicit":
        dist = np.asarray(_key(spec, "matrix"), dtype=float)
        provenance = {"type": "explicit"}
    else:
        raise SpaceError(f"unknown metric construction {kind!r}")

    n = dist.shape[0]
    measure = np.asarray(spec.get("measure", np.ones(n)), dtype=float)
    space = FiniteMetricMeasureSpace(dist, measure, provenance)
    if kind == "explicit" and n > TRIANGLE_CHECK_LIMIT:
        warnings.warn(f"skipping O(n^3) triangle-inequality check for n={n}")
    elif kind == "explicit":
        _check_triangle(dist)
    return space


def _key(spec: dict, name: str):
    if name not in spec:
        raise SpaceError(f"metric spec lacks {name!r}")
    return spec[name]


def space_from_graph(form: GraphDirichletForm) -> FiniteMetricMeasureSpace:
    """Graph-backed space whose ``dist`` is the form's read-only geodesic matrix."""
    dist = form.geodesic_distances()
    if not np.isfinite(dist).all():
        raise SpaceError("graph is disconnected; geodesic metric is not finite")
    return FiniteMetricMeasureSpace(
        dist, form.vertex_measure.copy(), {"type": "graph-geodesic"}, graph=form
    )


def check_ids(space: FiniteMetricMeasureSpace, *ids) -> None:
    """SpaceError naming the first id that is not an integer or lies outside
    0..n-1.  Bools and floats (2.0 too) are not ids.  An array of ids, unless
    empty, must have an integer dtype (another names its first entry with a
    fraction, else its first) and is checked in one pass, in row-major order."""
    for i in ids:
        if isinstance(i, np.ndarray):
            if i.dtype.kind not in "iu" and i.size:
                v = i.ravel()
                k = np.argmax(v != np.trunc(v)) if v.dtype.kind == "f" else 0
                raise SpaceError(f"point id {v[k]} is not an integer")
            ok = (i >= 0) & (i < space.n)
            if ok.all():
                continue
            i = i.flat[np.argmin(ok)]
        elif isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
            raise SpaceError(f"point id {i} is not an integer")
        if not 0 <= i < space.n:
            raise SpaceError(f"unknown point id {i}")


def _pair_ids(space, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The checked ids (xs, ys) of ``pairs``: a (k, 2) array, or rows of two
    ids whose entries are typed before any conversion (np.asarray would turn a
    bool among ints into an int); rows of Python ints are read in one flat pass."""
    arr = pairs
    if not isinstance(pairs, np.ndarray):
        try:
            kinds = {(type(x), type(y)) for x, y in pairs}
        except (TypeError, ValueError):  # a row that is not two entries
            row = next(r for r in pairs if np.ndim(r) != 1 or len(r) != 2)
            raise SpaceError(f"a pair must be a row of two point ids; got {row!r}") from None
        if any(issubclass(k, (bool, np.bool_)) for kind in kinds for k in kind):
            v = next(v for row in pairs for v in row if isinstance(v, (bool, np.bool_)))
            raise SpaceError(f"point id {v} is not an integer")
        flat = itertools.chain.from_iterable(pairs)
        arr = (np.fromiter(flat, int, 2 * len(pairs)).reshape(-1, 2) if kinds == {(int, int)}
               else np.asarray(pairs))
    if not arr.size:
        return np.empty((2, 0), int)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SpaceError(f"pairs must be a (k, 2) array of point ids; got shape {arr.shape}")
    check_ids(space, arr)  # before the cast, which would truncate 3.7 to 3
    return arr.astype(int, copy=False).T


def ball(space: FiniteMetricMeasureSpace, x: int, r: float) -> np.ndarray:
    """Indices of the open ball B(x, r); always contains x for r > 0."""
    check_ids(space, x)
    if not r > 0:  # NaN fails too
        raise SpaceError("ball radius must be positive")
    return np.flatnonzero(space.dist[x] < r)


def ball_volume(space: FiniteMetricMeasureSpace, x: int, r: float) -> float:
    """V(x, r) = m(B(x, r)) at one radius, summed in index order."""
    return float(space.measure[ball(space, x, r)].sum())


def distance_profile(row: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct distances r_0 < r_1 < ... of one centre's ``row`` and, per
    weight vector, the weight of each closed ball {d <= r_k} summed in sorted
    order; the open ball B(x, r) is the closed one at the largest r_k < r."""
    d, last, *balls = sorted_profiles(row, *weights)
    return (d[last], *(b[last] for b in balls))


def sorted_profiles(rows: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each distance row of ``rows`` sorted (a row of a block sorts as it would
    alone), the mask of the last of each run of equal distances and, per weight
    vector, the weight of the closed ball {d <= d_j} at each sorted position."""
    order = np.argsort(rows, axis=-1)
    d = np.take_along_axis(rows, order, axis=-1)
    last = np.concatenate([d[..., 1:] != d[..., :-1], np.ones_like(d[..., :1], bool)], axis=-1)
    return (d, last, *(np.cumsum(w[order], axis=-1) for w in weights))


def doubling_constant(space: FiniteMetricMeasureSpace) -> float:
    """sup over x and r > 0 of m(B(x,2r)) / m(B(x,r)).

    V(x, .) and V(x, 2 .) change only where r or 2r meets a distance from x,
    and the worst ratio on each constancy interval is realized at its left
    end +, so scanning r over x's own distances and their halves is exact.
    """
    if space.n == 0:
        raise SpaceError("space is empty")
    best = 1.0
    for x in range(space.n):
        radii, vol = distance_profile(space.dist[x], space.measure)
        r = np.r_[radii, radii / 2]
        # realize balls at radius r+: {dist <= r}
        i_r = np.searchsorted(radii, r, side="right") - 1
        i_2r = np.searchsorted(radii, 2 * r, side="right") - 1
        best = float(np.max(vol[i_2r] / vol[i_r], initial=best))
    return best


def uniform_perfectness(space: FiniteMetricMeasureSpace) -> dict:
    """Check B(x,r) != X implies B(x,r) \\ B(x, r/2) nonempty at every scale.

    Between consecutive distinct distances lo < hi from x the annulus
    [r/2, r) of a proper ball is empty exactly for 2 lo < r <= hi, so the
    check fails iff some hi > 2 lo; the largest r / lo over proper balls,
    hi / lo, is the best constant C for which it holds with r/C.
    """
    if space.n < 2:
        raise SpaceError("uniform perfectness needs at least two points")
    worst = None
    required_C = 1.0
    for x in range(space.n):
        pos = distance_profile(space.dist[x])[0][1:]  # r_0 = d(x, x) = 0
        lo, hi = pos[:-1], pos[1:]
        gap = hi > 2 * lo
        if worst is None and gap.any():
            k = np.argmax(gap)
            # the first empty scale: the gap's midpoint, or its end hi when
            # the midpoint rounds down onto 2 lo
            mid = 0.5 * (2 * lo[k] + hi[k])
            worst = (x, float(mid if mid > 2 * lo[k] else hi[k]))
        required_C = float(np.max(hi / lo, initial=required_C))
    return {"holds_at_2": worst is None, "worst_scale": worst, "required_C": required_C}


def save_space(space: FiniteMetricMeasureSpace, path) -> None:
    prov = space.provenance
    metric: dict = {"type": prov.get("type", "explicit")}
    if metric["type"] in ("euclidean", "snowflake"):
        metric["coords"] = prov["coords"]
        if metric["type"] == "snowflake":
            metric["beta"] = prov["beta"]
    else:
        metric["type"] = "explicit"
        metric["matrix"] = [[float(f"{v:.17g}") for v in row] for row in space.dist]
    payload = {"points": space.n, "metric": metric, "measure": list(space.measure)}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_space(path) -> FiniteMetricMeasureSpace:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("metric"), dict):
        raise SpaceError("space file must be a JSON object with a 'metric' object")
    spec = dict(payload["metric"])
    if "measure" in payload:
        spec["measure"] = payload["measure"]
    space = build_space(spec)
    if space.n != payload.get("points", space.n):
        raise SpaceError("point count does not match metric data")
    return space
