"""Scale functions, their regularity certificates, and the conjugate transform.

A scale function is a strictly increasing bijection of (0, inf) onto itself
with two-sided power-law control: C^-1 (R/r)^b1 <= psi(R)/psi(r) <= C (R/r)^b2.
Every kind is a chain of power-law pieces psi(r) = y0 (r/x0)^p (a table is
log-log linear between its rows), so the conjugate transform
phi(s) = sup_{r>0} (s/r - 1/psi(r)) is exact: on a piece with p > 1 the
stationary point gives c^(-1/(p-1)) times the power closed form

    phi(s) = s^(p/(p-1)) * p^(-1/(p-1)) * (1 - 1/p),    c = x0^p / y0,

and otherwise the sup sits at a piece end.  All grid certificates produced
here are grid-verified statements, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

GRID_POINTS_PER_DECADE = 64


class ScaleError(ValueError):
    pass


@dataclass
class ScaleFunction:
    """Space-time scaling profile with claimed regularity (beta1, beta2, C).

    kind is "power" (params: beta), "piecewise" (params: breakpoints,
    exponents) or "table" (params: r, values; log-log linear interpolation).
    """

    kind: str
    beta1: float
    beta2: float
    C_reg: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):  # every kind's claim; NaN fails too
        if not (0 < self.beta1 <= self.beta2 < math.inf and 0 < self.C_reg < math.inf):
            raise ScaleError("claimed exponents need finite 0 < beta1 <= beta2 and C > 0")

    def __call__(self, r):
        return self.value(r)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if not (r > 0).all():
            raise ScaleError("scale functions are defined for r > 0")
        if self.kind == "table":
            out = _table_eval(self.params["r"], self.params["values"], r)
        else:
            out = _power_pieces(r, *self.pieces)
        return float(out) if out.ndim == 0 else out

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        if not (v > 0).all():
            raise ScaleError("inverse is defined for v > 0")
        if self.kind == "table":
            out = _table_eval(self.params["values"], self.params["r"], v)
        else:
            x0, y0, p = self.pieces[2:]
            # psi(lo[i]) = y0[i] past the first piece, which starts at psi(0) = 0
            ends = np.concatenate(([0.0], y0[1:], [np.inf]))
            out = _power_pieces(v, ends[:-1], ends[1:], y0, x0, 1.0 / p)
        return float(out) if out.ndim == 0 else out

    @cached_property
    def pieces(self) -> tuple[np.ndarray, ...]:
        """Arrays (lo, hi, x0, y0, p) with psi(r) = y0 (r/x0)^p on (lo, hi]: one
        piece (0, inf) for a power, k + 1 for k breakpoints, and one per pair of
        consecutive rows of a table (p its log-log slope)."""
        if self.kind == "power":
            return (np.zeros(1), np.full(1, np.inf), np.ones(1), np.ones(1),
                    np.array([self.params["beta"]]))
        if self.kind == "piecewise":  # psi(r) = r^p[0] up to the first breakpoint
            bp, ex = self.params["breakpoints"], self.params["exponents"]
            x0, y0 = [1.0] + bp, [1.0]
            for i, b in enumerate(bp):  # the pieces join continuously
                y0.append(y0[i] * (b / x0[i]) ** ex[i])
            return (np.array([0.0] + bp), np.array(bp + [math.inf]), np.array(x0),
                    np.array(y0), np.array(ex))
        if self.kind == "table":
            r, v = self.params["r"], self.params["values"]
            return r[:-1], r[1:], r[:-1], v[:-1], np.diff(np.log(v)) / np.diff(np.log(r))
        raise ScaleError(f"unknown scale-function kind {self.kind!r}")

    @property
    def knots(self) -> np.ndarray:
        """The finite positive piece ends of psi (none for a power), so psi(r)/r
        is monotone between consecutive knots."""
        ends = np.append(self.pieces[0], self.pieces[1][-1])
        return ends[(ends > 0) & (ends < np.inf)]


def power_scale(beta: float) -> ScaleFunction:
    if not 0 < beta < math.inf:
        raise ScaleError("power exponent must be a finite number > 0")
    return ScaleFunction("power", beta1=beta, beta2=beta, C_reg=1.0,
                         params={"beta": float(beta)})


def piecewise_scale(breakpoints, exponents, beta1=None, beta2=None,
                    C_reg=1.0) -> ScaleFunction:
    """Continuous piecewise power law.

    ``exponents`` has one more entry than ``breakpoints``; exponent i applies
    below breakpoint i (the last one above all breakpoints).  Normalized so
    that psi(first breakpoint) = first breakpoint ** exponent[0].
    """
    breakpoints = [float(b) for b in breakpoints]
    exponents = [float(e) for e in exponents]
    if len(exponents) != len(breakpoints) + 1:
        raise ScaleError("need one more exponent than breakpoints")
    if not np.isfinite(breakpoints + exponents).all():
        raise ScaleError("piecewise breakpoints and exponents must be finite")
    if any(e <= 0 for e in exponents):
        raise ScaleError("piecewise exponents must be positive")
    if any(b <= 0 for b in breakpoints):
        raise ScaleError("piecewise breakpoints must be positive")
    if sorted(breakpoints) != breakpoints:
        raise ScaleError("breakpoints must be increasing")
    b1 = min(exponents) if beta1 is None else beta1
    b2 = max(exponents) if beta2 is None else beta2
    return ScaleFunction("piecewise", beta1=b1, beta2=b2, C_reg=C_reg,
                         params={"breakpoints": breakpoints, "exponents": exponents})


def tabulated_scale(r, values, beta1, beta2, C_reg) -> ScaleFunction:
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != values.shape or r.size < 2:
        raise ScaleError("table needs two equal-length columns with >= 2 rows")
    if not (np.isfinite(r).all() and np.isfinite(values).all()):
        raise ScaleError("tabulated scale data must be finite")
    if (np.diff(r) <= 0).any() or (np.diff(values) <= 0).any():
        raise ScaleError("tabulated scale data must be strictly increasing")
    if (r <= 0).any() or (values <= 0).any():
        raise ScaleError("tabulated scale data must be positive")
    return ScaleFunction("table", beta1=beta1, beta2=beta2, C_reg=C_reg,
                         params={"r": r, "values": values})


def _power_pieces(q, lo, hi, x0, y0, powers):
    """y0[i] * (q / x0[i]) ** powers[i] on (lo[i], hi[i]]; the pieces cover q > 0."""
    if len(powers) == 1:  # no masks, but the same 1-D array and power loop
        return (y0[0] * (q.reshape(-1) / x0[0]) ** powers[0]).reshape(q.shape)
    out = np.empty_like(q, dtype=float)
    for i, p in enumerate(powers):
        mask = (q > lo[i]) & (q <= hi[i])
        out[mask] = y0[i] * (q[mask] / x0[i]) ** p
    return out


def _table_eval(xs, ys, q):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    q = np.asarray(q, dtype=float)
    if (q < xs[0]).any() or (q > xs[-1]).any():
        raise ScaleError("query outside the tabulated range")
    return np.exp(np.interp(np.log(q), np.log(xs), np.log(ys)))


def _geometric_grid(lo: float, hi: float) -> np.ndarray:
    decades = math.log10(hi / lo)
    npts = max(2, int(math.ceil(decades * GRID_POINTS_PER_DECADE)) + 1)
    return np.geomspace(lo, hi, npts)


def _log_ratios(grid, vals):
    """log(v_j / v_i) and log(g_j / g_i) over the grid pairs i < j."""
    lg = np.log(grid)
    lv = np.log(vals)
    i, j = np.triu_indices(grid.size, 1)
    return lv[j] - lv[i], lg[j] - lg[i]


def _power_law_certificate(grid, vals, b_lo, b_hi, C_claim, window) -> dict:
    """The smallest C >= 1 with C^-1 (g_j/g_i)^b_lo <= v_j/v_i <= C (g_j/g_i)^b_hi
    over the grid pairs i < j, and whether it is <= C_claim."""
    if not (vals > 0).all():  # no power law reaches 0, and log 0 would hide it
        best_C = math.inf
    else:
        ratio, span = _log_ratios(grid, vals)
        best_C = max(1.0, float(np.exp(np.max(ratio - b_hi * span))),
                     float(np.exp(np.max(b_lo * span - ratio))))
    return {"ok": best_C <= C_claim * (1 + 1e-12), "best_C": best_C,
            "window": [float(window[0]), float(window[1])], "grid_points": int(grid.size)}


def verify_regularity(psi: ScaleFunction, window) -> dict:
    """Grid certificate for C^-1 (R/r)^b1 <= psi(R)/psi(r) <= C (R/r)^b2.

    Returns the smallest C making both bounds hold on a geometric grid over
    the window, and whether it is <= psi.C_reg.
    """
    r_min, r_max = window
    if not 0 < r_min < r_max:
        raise ScaleError("window must satisfy 0 < r_min < r_max")
    grid = _geometric_grid(r_min, r_max)
    vals = psi.value(grid)
    if (np.diff(vals) <= 0).any():
        raise ScaleError("scale function is not increasing on the window")
    return _power_law_certificate(grid, vals, psi.beta1, psi.beta2, psi.C_reg, window)


@dataclass
class PhiTransform:
    """Conjugate transform phi(s) = sup_{r>0} (s/r - 1/psi(r)), exact per piece.

    The sup is the largest of the stationary values of the pieces with p > 1
    whose maximiser lies on the piece, the values at the finite piece ends and
    0 (the limit as r -> inf).  phi is nonnegative, nondecreasing and convex
    as a sup of affine functions of s.  A table gives psi on its range only:
    phi is then the sup over that range, and it raises when that sup is not
    inside the range.
    """

    source: ScaleFunction

    def __call__(self, s):
        if np.ndim(s) == 0:
            return self.value(float(s))
        return np.array([self.value(float(v)) for v in np.asarray(s).ravel()])

    def value(self, s: float) -> float:
        if not 0 < s < math.inf:  # NaN fails too
            raise ScaleError("phi is defined for finite s > 0")
        psi = self.source
        lo, hi, x0, y0, p = psi.pieces
        ends = psi.knots
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lc = p * np.log(x0) - np.log(y0)  # log c, where 1/psi(r) = c r^-p on a piece
            if lo[0] == 0 and (p[0] < 1 or (p[0] == 1 and math.log(s) > lc[0])):
                raise ScaleError(f"phi is infinite at s={s}: s/r - 1/psi(r) is "
                                 f"unbounded as r -> 0")
            log_r = (np.log(p) + lc - math.log(s)) / (p - 1.0)  # stationary point
            inner = (p > 1) & (log_r > np.log(lo)) & (log_r <= np.log(hi))
            # c^(-1/(p-1)) phi_1(s) = phi_1(s c^(-1/p)) for the power closed form phi_1
            cands = [phi_power_closed_form(p[k], s * np.exp(-lc[k] / p[k]))
                     for k in np.flatnonzero(inner)]
            at_ends = s / ends - 1.0 / psi.value(ends)
            best = float(np.max(np.r_[cands, at_ends, -np.inf]))
        if hi[-1] == math.inf:
            best = max(best, 0.0)
        elif best <= max(at_ends[0], at_ends[-1], 0.0):
            raise ScaleError(f"phi at s={s} has its sup outside the tabulated range "
                             f"[{lo[0]}, {hi[-1]}]")
        if not math.isfinite(best):
            raise ScaleError(f"phi is not finite at s={s}")
        return best


def phi_power_closed_form(beta: float, s: float) -> float:
    """phi for psi(r) = r^beta: stationary point r* = (beta/s)^(1/(beta-1))."""
    if beta <= 1:
        raise ScaleError("closed form requires beta > 1")
    try:
        phi = s ** (beta / (beta - 1.0)) * beta ** (-1.0 / (beta - 1.0)) * (1.0 - 1.0 / beta)
    except OverflowError:
        phi = math.inf
    if not math.isfinite(phi):
        raise ScaleError(f"phi of r^{beta} is not finite at s={s}")
    return phi


def verify_phi_regularity(phi: PhiTransform, window) -> dict:
    """Grid certificate for the conjugate exponent bounds on phi(S)/phi(s).

    The exponents are beta2/(beta2-1) (lower) and beta1/(beta1-1) (upper);
    requires beta1 > 1 for the source scale function.
    """
    psi = phi.source
    if psi.beta1 <= 1:
        raise ScaleError("phi regularity requires beta1 > 1")
    s_min, s_max = window
    if not 0 < s_min <= s_max:
        raise ScaleError("window must satisfy 0 < s_min <= s_max")
    if s_min == s_max:
        return {"ok": True, "best_C": 1.0, "window": [float(s_min), float(s_max)],
                "grid_points": 1}
    grid = _geometric_grid(s_min, s_max)
    vals = np.array([phi.value(float(s)) for s in grid])
    return _power_law_certificate(grid, vals, psi.beta2 / (psi.beta2 - 1.0),
                                  psi.beta1 / (psi.beta1 - 1.0), psi.C_reg, window)


def walk_dimension_lower_check(psi: ScaleFunction, space_diam: float, window) -> dict:
    """Check psi(r)/psi(s) >= C1^-1 (r/s)^2 on a grid over the window.

    Returns the smallest admissible C1 and flags failure when the observed
    growth exponent stays below 2 over a full decade (or no C1 below 1e6
    works).
    """
    r_min, r_max = window
    if not 0 < r_min < r_max <= space_diam:
        raise ScaleError("window must lie inside (0, space diameter]")
    grid = _geometric_grid(r_min, r_max)
    ratio, span = _log_ratios(grid, psi.value(grid))
    C1 = max(1.0, float(np.exp(np.max(2.0 * span - ratio))))
    decade = span >= math.log(10.0) * (1 - 1e-12)
    min_decade_slope = float(np.min(ratio[decade] / span[decade])) if decade.any() else 2.0
    ok = C1 <= 1e6 and min_decade_slope >= 2.0 - 1e-9
    return {"ok": ok, "C1": C1, "min_decade_exponent": min_decade_slope,
            "window": [float(r_min), float(r_max)]}


def parse_psi_spec(spec: str) -> ScaleFunction:
    """Parse a CLI scale-function spec.

    Formats: "power:BETA", "piecewise:r1,b1;r2,b2;...;bLAST" (exponent b_i
    below breakpoint r_i, trailing exponent above the last breakpoint) or
    "table:PATH.csv" (two columns r, psi(r), strictly increasing; claimed
    exponents may follow as ":beta1,beta2,C").
    """
    kind, _, rest = spec.partition(":")
    if kind == "power":
        return power_scale(float(rest))
    if kind == "piecewise":
        parts = rest.split(";")
        breakpoints, exponents = [], []
        for part in parts[:-1]:
            r, b = part.split(",")
            breakpoints.append(float(r))
            exponents.append(float(b))
        exponents.append(float(parts[-1]))
        return piecewise_scale(breakpoints, exponents)
    if kind == "table":
        path, _, claimed = rest.partition(":")
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if claimed:
            b1, b2, C = (float(v) for v in claimed.split(","))
        else:
            slopes = np.diff(np.log(data[:, 1])) / np.diff(np.log(data[:, 0]))
            b1, b2, C = float(slopes.min()), float(slopes.max()), 2.0
        return tabulated_scale(data[:, 0], data[:, 1], b1, b2, C)
    raise ScaleError(f"unrecognized scale-function spec {spec!r}")
