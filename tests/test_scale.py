import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainkit.scale import (
    PhiTransform,
    ScaleError,
    parse_psi_spec,
    phi_power_closed_form,
    piecewise_scale,
    power_scale,
    tabulated_scale,
    verify_phi_regularity,
    verify_regularity,
    walk_dimension_lower_check,
)


def test_power_scale_value_and_inverse():
    psi = power_scale(2.5)
    assert psi(2.0) == pytest.approx(2.0 ** 2.5)
    assert psi.inverse(psi(7.0)) == pytest.approx(7.0)
    with pytest.raises(ScaleError):
        psi(0.0)
    with pytest.raises(ScaleError):
        psi.inverse(-1.0)


def test_piecewise_scale_is_continuous():
    psi = piecewise_scale([1.0, 4.0], [2.0, 3.0, 2.0])
    for b in (1.0, 4.0):
        below = psi(b * (1 - 1e-12))
        above = psi(b * (1 + 1e-12))
        assert below == pytest.approx(above, rel=1e-9)
    # hand values: r <= 1 is r^2; between, 1 * (r/1)^3
    assert psi(0.5) == pytest.approx(0.25)
    assert psi(2.0) == pytest.approx(8.0)
    assert psi.inverse(psi(3.0)) == pytest.approx(3.0)


def test_piecewise_scale_rejects_bad_input():
    with pytest.raises(ScaleError):
        piecewise_scale([2.0, 1.0], [2.0, 2.0, 2.0])
    with pytest.raises(ScaleError):
        piecewise_scale([1.0], [2.0])


def test_tabulated_scale_loglog_interpolation():
    r = np.array([1.0, 10.0, 100.0])
    psi = tabulated_scale(r, r ** 2, 2.0, 2.0, 1.001)
    assert psi(3.0) == pytest.approx(9.0, rel=1e-12)
    with pytest.raises(ScaleError):
        psi(0.5)  # outside the table
    with pytest.raises(ScaleError):
        tabulated_scale(r, np.array([1.0, 1.0, 2.0]), 2.0, 2.0, 1.0)


def test_verify_regularity_power_is_tight():
    cert = verify_regularity(power_scale(2.0), (1e-2, 1e2))
    assert cert["ok"]
    assert cert["best_C"] == pytest.approx(1.0, abs=1e-9)


def test_verify_regularity_catches_wrong_claim():
    psi = piecewise_scale([1.0], [2.0, 3.0], beta1=2.5, beta2=2.5, C_reg=1.0)
    cert = verify_regularity(psi, (1e-2, 1e2))
    assert not cert["ok"]
    assert cert["best_C"] > 1.0


def test_phi_closed_form_beta_2():
    # psi(r) = r^2: sup_r(s/r - r^-2) at r = 2/s gives s^2/4
    assert phi_power_closed_form(2.0, 1.0) == pytest.approx(0.25)
    assert phi_power_closed_form(2.0, 3.0) == pytest.approx(9.0 / 4.0)


@given(st.floats(1.2, 4.0), st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_phi_numeric_matches_closed_form(beta, s):
    # r^beta as a one-piece piecewise psi: the numeric sup, not the closed form
    num = PhiTransform(piecewise_scale([], [beta])).value(s)
    assert num == pytest.approx(phi_power_closed_form(beta, s), rel=1e-6)


def test_phi_transform_monotone_and_convex():
    phi = PhiTransform(piecewise_scale([1.0], [2.0, 3.0]))
    s = np.geomspace(0.1, 10.0, 40)
    v = np.array([phi.value(float(x)) for x in s])
    assert (np.diff(v) >= -1e-15).all()
    # convexity in s on a uniform grid
    u = np.linspace(0.1, 10.0, 40)
    w = np.array([phi.value(float(x)) for x in u])
    assert (np.diff(w, 2) >= -1e-9).all()


def test_phi_regularity_certificate():
    cert = verify_phi_regularity(PhiTransform(power_scale(3.0)), (1e-2, 1e2))
    assert cert["ok"]
    with pytest.raises(ScaleError):
        verify_phi_regularity(PhiTransform(power_scale(1.0)), (0.1, 1.0))


def test_walk_dimension_lower_check_gate():
    assert not walk_dimension_lower_check(power_scale(1.5), 50.0, (0.1, 10.0))["ok"]
    assert walk_dimension_lower_check(power_scale(2.0), 50.0, (0.1, 10.0))["ok"]
    with pytest.raises(ScaleError):
        walk_dimension_lower_check(power_scale(2.0), 5.0, (0.1, 10.0))


def test_parse_psi_spec_power_and_piecewise():
    assert parse_psi_spec("power:2").value(3.0) == pytest.approx(9.0)
    pw = parse_psi_spec("piecewise:1,2;3")
    assert pw.value(0.5) == pytest.approx(0.25)
    assert pw.value(2.0) == pytest.approx(8.0)
    with pytest.raises(ScaleError):
        parse_psi_spec("mystery:1")


def test_parse_psi_spec_table(tmp_path):
    path = tmp_path / "table.csv"
    r = np.geomspace(0.1, 10.0, 20)
    np.savetxt(path, np.c_[r, r ** 2], delimiter=",")
    psi = parse_psi_spec(f"table:{path}")
    assert psi.value(1.0) == pytest.approx(1.0, rel=1e-9)
    assert math.isclose(psi.beta1, 2.0, rel_tol=1e-6)


# The piecewise evaluators and grid certificates as they were before each got
# one code path in chainkit.scale, kept as references.
def ref_piecewise_eval(breakpoints, exponents, r):
    out = np.empty_like(r, dtype=float)
    edges = [0.0] + list(breakpoints) + [math.inf]
    scale = 1.0
    anchor = 1.0
    for i, e in enumerate(exponents):
        lo, hi = edges[i], edges[i + 1]
        mask = (r > lo) & (r <= hi) if i < len(exponents) - 1 else (r > lo)
        out[mask] = scale * (r[mask] / anchor) ** e
        if i < len(breakpoints):
            b = breakpoints[i]
            scale = scale * (b / anchor) ** e
            anchor = b
    return out


def ref_piecewise_inverse(breakpoints, exponents, v):
    vals = []
    scale, anchor = 1.0, 1.0
    for i, b in enumerate(breakpoints):
        scale = scale * (b / anchor) ** exponents[i]
        anchor = b
        vals.append(scale)
    out = np.empty_like(v, dtype=float)
    scale, anchor = 1.0, 1.0
    vedges = [0.0] + vals + [math.inf]
    for i, e in enumerate(exponents):
        lo, hi = vedges[i], vedges[i + 1]
        mask = (v > lo) & (v <= hi) if i < len(exponents) - 1 else (v > lo)
        out[mask] = anchor * (v[mask] / scale) ** (1.0 / e)
        if i < len(breakpoints):
            scale = vals[i]
            anchor = breakpoints[i]
    return out


def ref_grid(lo, hi):
    npts = max(2, int(math.ceil(math.log10(hi / lo) * 64)) + 1)
    return np.geomspace(lo, hi, npts)


def ref_verify_regularity(psi, window):
    r_min, r_max = window
    if not 0 < r_min < r_max:
        raise ScaleError("window must satisfy 0 < r_min < r_max")
    grid = ref_grid(r_min, r_max)
    vals = psi.value(grid)
    if (np.diff(vals) <= 0).any():
        raise ScaleError("scale function is not increasing on the window")
    lr = np.log(grid)
    lv = np.log(vals)
    i, j = np.triu_indices(grid.size, 1)
    ratio = lv[j] - lv[i]
    span = lr[j] - lr[i]
    best_C = max(1.0, float(np.exp(np.max(ratio - psi.beta2 * span))),
                 float(np.exp(np.max(psi.beta1 * span - ratio))))
    return {"ok": best_C <= psi.C_reg * (1 + 1e-12), "best_C": best_C,
            "window": [float(r_min), float(r_max)], "grid_points": int(grid.size)}


def ref_verify_phi_regularity(phi, window):
    psi = phi.source
    if psi.beta1 <= 1:
        raise ScaleError("phi regularity requires beta1 > 1")
    s_min, s_max = window
    if not 0 < s_min <= s_max:
        raise ScaleError("window must satisfy 0 < s_min <= s_max")
    if s_min == s_max:
        return {"ok": True, "best_C": 1.0, "window": [float(s_min), float(s_max)],
                "grid_points": 1}
    grid = ref_grid(s_min, s_max)
    vals = np.array([phi.value(float(s)) for s in grid])
    ls = np.log(grid)
    lv = np.log(vals)
    i, j = np.triu_indices(grid.size, 1)
    ratio = lv[j] - lv[i]
    span = ls[j] - ls[i]
    e_hi = psi.beta1 / (psi.beta1 - 1.0)
    e_lo = psi.beta2 / (psi.beta2 - 1.0)
    best_C = max(1.0, float(np.exp(np.max(ratio - e_hi * span))),
                 float(np.exp(np.max(e_lo * span - ratio))))
    return {"ok": best_C <= psi.C_reg * (1 + 1e-12), "best_C": best_C,
            "window": [float(s_min), float(s_max)], "grid_points": int(grid.size)}


def ref_walk_dimension_lower_check(psi, space_diam, window):
    r_min, r_max = window
    if not 0 < r_min < r_max <= space_diam:
        raise ScaleError("window must lie inside (0, space diameter]")
    grid = ref_grid(r_min, r_max)
    vals = psi.value(grid)
    lr = np.log(grid)
    lv = np.log(vals)
    i, j = np.triu_indices(grid.size, 1)
    ratio = lv[j] - lv[i]
    span = lr[j] - lr[i]
    C1 = max(1.0, float(np.exp(np.max(2.0 * span - ratio))))
    decade = span >= math.log(10.0) * (1 - 1e-12)
    min_decade_slope = float(np.min(ratio[decade] / span[decade])) if decade.any() else 2.0
    ok = C1 <= 1e6 and min_decade_slope >= 2.0 - 1e-9
    return {"ok": ok, "C1": C1, "min_decade_exponent": min_decade_slope,
            "window": [float(r_min), float(r_max)]}


@dataclass
class MemoPhi(PhiTransform):
    """PhiTransform that computes each numeric sup once, so a certificate and
    its reference read the same values at the cost of one."""

    def __post_init__(self):
        self.memo = {}

    def value(self, s):
        if s not in self.memo:
            self.memo[s] = super().value(s)
        return self.memo[s]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ScaleError, ArithmeticError) as err:  # beta == 1 divides by zero
        return f"{type(err).__name__}: {err}"


def around(points):
    """Each point and its floating-point neighbours on both sides."""
    p = np.asarray(points, dtype=float)
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


log_r = st.floats(-3.0, 3.0)
exponent = st.floats(0.3, 4.0)


@st.composite
def scale_functions(draw):
    kind = draw(st.sampled_from(["power", "piecewise", "table"]))
    if kind == "power":
        return power_scale(draw(exponent))
    if kind == "piecewise":
        k = draw(st.integers(0, 3))
        bp = sorted(10.0 ** np.array(draw(st.lists(log_r, min_size=k, max_size=k))))
        ex = draw(st.lists(exponent, min_size=k + 1, max_size=k + 1))
        # claimed exponents may be too narrow, so some certificates fail
        return piecewise_scale(bp, ex, beta1=min(ex) + draw(st.floats(0.0, 0.5)),
                               beta2=max(ex) - draw(st.floats(0.0, 0.5)),
                               C_reg=draw(st.floats(1.0, 3.0)))
    lr = np.unique(np.round(draw(st.lists(log_r, min_size=2, max_size=6)), 1))
    if lr.size < 2:
        lr = np.array([-3.0, 3.0])
    slopes = np.array(draw(st.lists(exponent, min_size=lr.size - 1, max_size=lr.size - 1)))
    lv = np.concatenate([[0.0], np.cumsum(slopes * np.diff(lr))])
    return tabulated_scale(10.0 ** lr, np.exp(lv * math.log(10.0)),
                           float(slopes.min()) + draw(st.floats(0.0, 0.5)),
                           float(slopes.max()) - draw(st.floats(0.0, 0.5)),
                           draw(st.floats(1.0, 3.0)))


@given(st.integers(0, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_piecewise_value_and_inverse_match_references(k, data):
    bp = sorted(10.0 ** np.array(data.draw(st.lists(log_r, min_size=k, max_size=k))))
    ex = data.draw(st.lists(exponent, min_size=k + 1, max_size=k + 1))
    psi = piecewise_scale(bp, ex)
    r = np.concatenate([around(bp + [1.0]),
                        10.0 ** np.array(data.draw(st.lists(st.floats(-4.0, 4.0), max_size=8)))])
    assert np.array_equal(psi.value(r), ref_piecewise_eval(bp, ex, r))
    knots = ref_piecewise_eval(bp, ex, np.array(bp))
    v = np.concatenate([around(np.r_[knots, 1.0]), psi.value(r)])
    assert np.array_equal(psi.inverse(v), ref_piecewise_inverse(bp, ex, v))
    for q in r[:3]:  # scalars too
        assert psi.value(float(q)) == float(ref_piecewise_eval(bp, ex, np.array(q)))


@given(scale_functions(), log_r, st.floats(-1.0, 3.0), st.floats(-0.3, 0.3),
       st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_certificates_match_references(psi, lo, width, log_s, phi_width):
    window = (10.0 ** lo, 10.0 ** (lo + width))
    assert outcome(verify_regularity, psi, window) == outcome(ref_verify_regularity, psi, window)
    diam = 10.0 ** (lo + width + 0.5 * phi_width)
    assert (outcome(walk_dimension_lower_check, psi, diam, window)
            == outcome(ref_walk_dimension_lower_check, psi, diam, window))
    # short s windows: every grid point of a non-power phi is a numeric sup,
    # which can come out as 0.0 (log 0 warns in both certificates alike)
    phi = MemoPhi(psi)
    s_window = (10.0 ** log_s, 10.0 ** (log_s + 0.25 * phi_width))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert (outcome(verify_phi_regularity, phi, s_window)
                == outcome(ref_verify_phi_regularity, phi, s_window))
