import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # r^beta as a one-piece piecewise psi: the piecewise parser and pieces path
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
    """PhiTransform that computes each value once, so a certificate and its
    reference read the same values at the cost of one."""

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
        # claimed exponents may be too narrow, so some certificates fail, but
        # keep beta1 <= beta2 (an inverted claim is an input error)
        beta1 = min(ex) + draw(st.floats(0.0, 0.5))
        beta2 = max(beta1, max(ex) - draw(st.floats(0.0, 0.5)))
        return piecewise_scale(bp, ex, beta1=beta1, beta2=beta2, C_reg=draw(st.floats(1.0, 3.0)))
    lr = np.unique(np.round(draw(st.lists(log_r, min_size=2, max_size=6)), 1))
    if lr.size < 2:
        lr = np.array([-3.0, 3.0])
    slopes = np.array(draw(st.lists(exponent, min_size=lr.size - 1, max_size=lr.size - 1)))
    lv = np.concatenate([[0.0], np.cumsum(slopes * np.diff(lr))])
    # a table's claim must keep beta1 <= beta2 (an inverted one is an input error)
    beta1 = float(slopes.min()) + draw(st.floats(0.0, 0.5))
    beta2 = max(beta1, float(slopes.max()) - draw(st.floats(0.0, 0.5)))
    return tabulated_scale(10.0 ** lr, np.exp(lv * math.log(10.0)), beta1, beta2,
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


def masked_power_pieces(q, edges, x0, y0, powers):
    """The masked loop every psi took before the one-piece fast path."""
    out = np.empty_like(q, dtype=float)
    for i, p in enumerate(powers):
        mask = (q > edges[i]) & (q <= edges[i + 1])
        out[mask] = y0[i] * (q[mask] / x0[i]) ** p
    return out


@given(st.floats(0.05, 8.0), st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_one_piece_fast_path_is_bit_identical_to_the_masked_loop(beta, log_r):
    psi = power_scale(beta)
    x0, y0, p = psi.pieces[2:]
    r = np.exp(np.array(log_r))
    value = masked_power_pieces(r, [0.0, np.inf], x0, y0, p)
    inverse = masked_power_pieces(r, [0.0, np.inf], y0, x0, 1.0 / p)
    assert psi.value(r).tobytes() == value.tobytes()
    assert psi.inverse(r).tobytes() == inverse.tobytes()
    for q in r[:4].tolist():  # a scalar takes the same 1-element loop
        assert psi.value(q).hex() == float(masked_power_pieces(
            np.asarray(q), [0.0, np.inf], x0, y0, p)).hex()
        assert psi.inverse(q).hex() == float(masked_power_pieces(
            np.asarray(q), [0.0, np.inf], y0, x0, 1.0 / p)).hex()


@given(scale_functions(), log_r, st.floats(-1.0, 3.0), st.floats(-0.3, 0.3),
       st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_certificates_match_references(psi, lo, width, log_s, phi_width):
    window = (10.0 ** lo, 10.0 ** (lo + width))
    assert outcome(verify_regularity, psi, window) == outcome(ref_verify_regularity, psi, window)
    diam = 10.0 ** (lo + width + 0.5 * phi_width)
    assert (outcome(walk_dimension_lower_check, psi, diam, window)
            == outcome(ref_walk_dimension_lower_check, psi, diam, window))
    # short s windows; the reference certifies a vanishing phi through log 0, so
    # a draw whose phi reaches 0 on the grid skips the comparison
    phi = MemoPhi(psi)
    s_window = (10.0 ** log_s, 10.0 ** (log_s + 0.25 * phi_width))
    got = outcome(verify_phi_regularity, phi, s_window)
    if all(v > 0 for v in phi.memo.values()):
        assert got == outcome(ref_verify_phi_regularity, phi, s_window)


# The conjugate transform as it was before psi was read as power-law pieces:
# a +-3-decade bracket around the power maximiser, a log-grid scan and a
# golden-section search, kept as a reference that phi must never fall below.
# Returns the sup it found and where (inf for the 0 of r -> inf).
def ref_numeric_phi(psi, s):
    b1 = max(psi.beta1, 1.0 + 1e-9)
    b2 = max(psi.beta2, b1)
    cands = [(b / s) ** (1.0 / (b - 1.0)) for b in (b1, b2)]
    lo = min(cands) / 1e3
    hi = max(cands) * 1e3

    def objective(r):
        return s / r - 1.0 / float(psi.value(r))

    grid = ref_grid(lo, hi)
    vals = np.array([objective(r) for r in grid])
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, grid.size - 1)]
    return max(ref_golden_max(objective, math.log(a), math.log(b)),
               (float(vals[k]), grid[k]), (0.0, math.inf))


def ref_golden_max(f, lo, hi):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while hi - lo > 1e-8:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = f(math.exp(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = f(math.exp(d))
    return max((fc, math.exp(c)), (fd, math.exp(d)))


def refined_max(f, r, base):
    """Largest f on the sorted points r, each local maximum refined by four
    rounds of 64 points, first between its neighbours on the sorted base grid
    (r adds points one ulp from the knots, too close to bracket a maximum),
    then between its neighbours in the last round; returns (max, argmax).
    Refining only adds points, so each maximum keeps the larger of its own
    value and the refined one."""
    v = f(r)
    best, arg = -math.inf, math.nan
    for k in np.flatnonzero((v >= np.r_[-np.inf, v[:-1]]) & (v >= np.r_[v[1:], -np.inf])):
        top = (float(v[k]), float(r[k]))
        lo = base[max(np.searchsorted(base, r[k], "left") - 1, 0)]
        hi = base[min(np.searchsorted(base, r[k], "right"), base.size - 1)]
        for _ in range(4):
            g = np.geomspace(lo, hi, 64)
            k = int(np.argmax(f(g)))
            lo, hi = g[max(k - 1, 0)], g[min(k + 1, g.size - 1)]
        top = max(top, (float(f(g[k:k + 1])[0]), float(g[k])))
        if top[0] > best:
            best, arg = top
    return best, arg


@given(scale_functions(), st.floats(-3.0, 3.0))
@example(piecewise_scale([1.0], [1.0, 0.3125]), -6.103515625e-05)
# f peaks at the knot (2.3e-10); its refinement peaks lower (-3.9e-10)
@example(piecewise_scale([1.0000000002302585], [2.0, 0.5]), 0.0)
# f peaks on the points at the table's first r, whose next point is one ulp
# above it; the sup lies inside the first base-grid step
@example(tabulated_scale(10.0 ** np.array([-1.8, -1.0, 0.0, 1.0, 2.0]),
                         10.0 ** np.array([0.0, 1.6, 2.6, 3.6, 4.6]), 1.0, 2.0, 1.0), -1.5)
@settings(max_examples=150, deadline=None)
def test_phi_is_the_sup_over_r(psi, log_s):
    s = 10.0 ** log_s

    def f(r):
        return s / r - 1.0 / psi.value(r)

    def noise(r):  # rounding of the two terms of f
        return 1e-12 * (s / r + 1.0 / psi.value(r))

    # 250 points a decade over (1e-12, 1e12) or over a table's range
    lo, hi = psi.params["r"][[0, -1]] if psi.kind == "table" else (1e-12, 1e12)
    base = np.geomspace(lo, hi, int(250 * math.log10(hi / lo)) + 2)
    pts = np.unique(np.r_[base, around(psi.knots)])
    pts = pts[(pts >= lo) & (pts <= hi)]
    top, arg = refined_max(f, pts, base)
    try:
        phi = PhiTransform(psi).value(s)
    except ScaleError as err:
        if psi.kind == "table":  # the sup over the range is at an end, or below 0
            assert max(f(pts[[0, -1]]).max(), 0.0) >= top - noise(arg)
        elif "infinite" in str(err):  # unbounded as r -> 0: psi grows at most linearly
            assert psi.pieces[4][0] <= 1
        else:  # the first piece's closed form, in logs, is beyond the largest float
            p = psi.pieces[4][0]
            assert (p * math.log(s) - math.log(p)) / (p - 1) + math.log1p(-1 / p) > 709.78
        return
    assert math.isfinite(phi) and phi >= 0
    assert (f(pts) <= phi + 1e-12 * abs(phi) + noise(pts)).all()
    if 1e-10 <= arg <= 1e10:  # the sup is also at least f's limit 0 as r -> infinity
        assert phi <= max(top, 0.0) + 1e-6 * abs(top) + noise(arg)
    with np.errstate(all="ignore"):
        try:
            ref, at = ref_numeric_phi(psi, s)
        except (ScaleError, ArithmeticError):
            return
    assert phi >= ref * (1 - 1e-12) - (noise(at) if at < math.inf else 0.0)


@given(st.floats(1.05, 4.0), st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_power_phi_is_the_closed_form(beta, s):
    cf = phi_power_closed_form(beta, s)
    assert PhiTransform(power_scale(beta)).value(s) == cf
    assert PhiTransform(piecewise_scale([], [beta])).value(s) == cf


def test_power_phi_closed_form_overflow_is_a_scale_error():
    with pytest.raises(ScaleError, match="not finite"):
        phi_power_closed_form(1.001953125, 10.0)
    with pytest.raises(ScaleError, match="not finite"):
        phi_power_closed_form(2.0, math.inf)
    with pytest.raises(ScaleError):
        PhiTransform(power_scale(1.001953125)).value(10.0)


def test_phi_positive_where_the_bracketed_search_gave_zero():
    phi = PhiTransform(piecewise_scale([0.00894], [3.858, 1.505]))
    assert all(phi.value(float(s)) > 0 for s in np.linspace(1.01, 1.10, 10))


def test_phi_of_a_table_is_the_sup_inside_its_range():
    r = np.array([1.0, 2.0, 4.0])
    phi = PhiTransform(tabulated_scale(r, r ** 2, 2.0, 2.0, 1.0))
    # s/r - r^-2 peaks at r = 2/s, so s = 1 peaks at the middle row
    assert phi.value(1.0) == 0.25
    assert phi.value(0.8) == pytest.approx(phi_power_closed_form(2.0, 0.8), rel=1e-12)
    for s in (0.1, 10.0):  # peaks at r = 20 and r = 0.2, beyond the table
        with pytest.raises(ScaleError, match="outside the tabulated range"):
            phi.value(s)


def test_phi_certificate_fails_on_a_vanishing_phi():
    # the last exponent 0.8 < 1 makes phi(s) = 0 for s <= 0.1
    phi = PhiTransform(piecewise_scale([1.0, 2.0], [2.0, 3.0, 0.8], beta1=1.3, beta2=3.0))
    assert phi.value(0.05) == 0.0
    cert = verify_phi_regularity(phi, (0.01, 1.0))
    assert not cert["ok"] and cert["best_C"] == math.inf


def test_nan_is_rejected():
    for psi in (power_scale(2.0), piecewise_scale([1.0], [2.0, 3.0])):
        with pytest.raises(ScaleError):
            psi.value(np.array([math.nan, 2.0]))
        with pytest.raises(ScaleError):
            psi.inverse(math.nan)
        with pytest.raises(ScaleError):
            PhiTransform(psi).value(math.nan)


@pytest.mark.parametrize("make", [
    lambda: power_scale(math.nan),
    lambda: power_scale(math.inf),
    lambda: power_scale(-2.0),
    lambda: piecewise_scale([1.0], [2.0, math.inf]),
    lambda: piecewise_scale([-1.0], [2.0, 3.0]),
    lambda: piecewise_scale([0.0], [2.0, 3.0]),
    lambda: piecewise_scale([math.nan], [2.0, 3.0]),
    lambda: piecewise_scale([1.0], [2.0, 3.0], beta1=3.0, beta2=1.0),
    lambda: piecewise_scale([1.0], [2.0, 3.0], beta1=math.nan),
    lambda: piecewise_scale([1.0], [2.0, 3.0], beta1=0.0),
    lambda: piecewise_scale([1.0], [2.0, 3.0], beta2=math.inf),
    lambda: piecewise_scale([1.0], [2.0, 3.0], C_reg=math.nan),
    lambda: piecewise_scale([1.0], [2.0, 3.0], C_reg=0.0),
    lambda: piecewise_scale([1.0], [2.0, 3.0], beta1=3.0, beta2=1.0, C_reg=-5.0),
    lambda: tabulated_scale([1.0, 2.0, 3.0], [1.0, math.nan, 9.0], 1.0, 2.0, 2.0),
    lambda: tabulated_scale([1.0, 2.0, 3.0], [1.0, 4.0, 9.0], 2.0, 2.0, math.nan),
    lambda: tabulated_scale([1.0, 2.0, 3.0], [1.0, 4.0, 9.0], 2.0, math.inf, 2.0),
    lambda: tabulated_scale([1.0, 2.0, 3.0], [1.0, 4.0, 9.0], 0.0, 2.0, 2.0),
    lambda: tabulated_scale([1.0, 2.0, 3.0], [1.0, 4.0, 9.0], 3.0, 1.0, 2.0),
    lambda: tabulated_scale([1.0, 2.0, 3.0], [1.0, 4.0, 9.0], 2.0, 2.0, 0.0),
])
def test_malformed_scale_parameters_are_errors(make):
    with pytest.raises(ScaleError):
        make()


@pytest.mark.parametrize("claim", [(2.0, 2.0, math.nan), (math.nan,) * 3, (3.0, 1.0, -5.0)])
def test_piecewise_and_table_reject_a_claim_alike(claim):
    with pytest.raises(ScaleError) as table:
        tabulated_scale([1.0, 2.0], [1.0, 4.0], *claim)
    with pytest.raises(ScaleError) as piecewise:
        piecewise_scale([1.0], [2.0, 3.0], *claim)
    assert str(piecewise.value) == str(table.value)
