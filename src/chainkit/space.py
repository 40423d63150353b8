"""Finite metric measure spaces: construction, balls, volumes, diagnostics.

Balls are always open: B(x, r) = {y : d(x, y) < r}.  All suprema over a
continuous radius are replaced by scans over the critical set of distinct
pairwise distances, where the relevant step functions actually change; the
scans are therefore exact, not approximate.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

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
        off = self.dist[~np.eye(n, dtype=bool)]
        if n > 1 and (off <= 0).any():
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
    """Graph-backed space: points are vertices, metric is graph-geodesic."""
    dist = form.geodesic_distances()
    if not np.isfinite(dist).all():
        raise SpaceError("graph is disconnected; geodesic metric is not finite")
    return FiniteMetricMeasureSpace(
        dist.copy(), form.vertex_measure.copy(), {"type": "graph-geodesic"}, graph=form
    )


def ball(space: FiniteMetricMeasureSpace, x: int, r: float) -> np.ndarray:
    """Indices of the open ball B(x, r); always contains x for r > 0."""
    if not 0 <= x < space.n:
        raise SpaceError(f"unknown point id {x}")
    if r <= 0:
        raise SpaceError("ball radius must be positive")
    return np.flatnonzero(space.dist[x] < r)


def ball_volume(space: FiniteMetricMeasureSpace, x: int, r: float) -> float:
    return float(space.measure[ball(space, x, r)].sum())


def doubling_constant(space: FiniteMetricMeasureSpace) -> float:
    """sup over x and critical radii r of m(B(x,2r)) / m(B(x,r)).

    V(x, .) is a step function changing only at distances from x, so scanning
    r over half the distinct distances (and the distances themselves) is exact.
    """
    if space.n == 0:
        raise SpaceError("space is empty")
    best = 1.0
    all_d = np.unique(space.dist)
    pos = all_d[all_d > 0]
    # the ratio changes only when r or 2r crosses a distance value, and the
    # worst ratio on each constancy interval is realized at its left end +
    candidates = np.unique(np.concatenate([pos / 2.0, pos]))
    if not candidates.size:
        return best
    for x in range(space.n):
        order = np.argsort(space.dist[x])
        d = space.dist[x][order]
        vol = np.cumsum(space.measure[order])
        # realize balls at radius r+: {dist <= r}
        i_r = np.searchsorted(d, candidates, side="right")
        i_2r = np.searchsorted(d, 2 * candidates, side="right")
        best = max(best, float(np.max(vol[i_2r - 1] / vol[i_r - 1])))
    return best


def uniform_perfectness(space: FiniteMetricMeasureSpace) -> dict:
    """Check B(x,r) != X implies B(x,r) \\ B(x, r/2) nonempty at all critical scales.

    Also reports the best (largest annulus) constant C for which the check
    holds with r/C at every tested scale.
    """
    if space.n < 2:
        raise SpaceError("uniform perfectness needs at least two points")
    worst = None
    required_C = 1.0
    for x in range(space.n):
        d = np.unique(space.dist[x])
        pos = d[d > 0]
        # the predicate changes only when r or r/2 crosses a distance value
        breaks = np.unique(np.concatenate([pos, 2 * pos]))
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        r = np.unique(np.concatenate([breaks, mids]))
        r = r[(r > pos[0]) & (r <= pos[-1])]
        # |{pos < r}| >= 1 since r > pos[0]; the annulus [r/2, r) holds
        # |{pos < r}| - |{pos < r/2}| distances
        inside = np.searchsorted(pos, r, side="left")
        proper = inside < pos.size  # B(x, r) != X
        empty = proper & (inside == np.searchsorted(pos, r / 2, side="left"))
        if worst is None and empty.any():
            worst = (x, float(r[np.argmax(empty)]))
        if proper.any():
            required_C = max(required_C, float(np.max(r[proper] / pos[inside[proper] - 1])))
    return {"holds_at_2": worst is None, "worst_scale": worst, "required_C": required_C}


@dataclass
class VolumeProfile:
    """Step-exact volume function V(x, r) sampled at its jump radii."""

    center: int
    radii: np.ndarray
    volumes: np.ndarray

    def at(self, r: float) -> float:
        """V(x, r) = m({d < r}) for an arbitrary radius."""
        i = np.searchsorted(self.radii, r, side="left")
        return float(self.volumes[i - 1]) if i > 0 else 0.0


def volume_profile(space: FiniteMetricMeasureSpace, x: int) -> VolumeProfile:
    if not 0 <= x < space.n:
        raise SpaceError(f"unknown point id {x}")
    order = np.argsort(space.dist[x])
    d = space.dist[x][order]
    cum = np.cumsum(space.measure[order])
    radii = np.unique(d)
    # cumulative mass of the closed ball {d <= radius}
    counts = np.searchsorted(d, radii, side="right") - 1
    return VolumeProfile(center=x, radii=radii, volumes=cum[counts])


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
