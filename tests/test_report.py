"""The exact %.17g kernel of ``_report`` against Python's '%.17g' % v."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainkit import _report
from chainkit._report import WIDTH, g17_cells, render_block


def texts(values) -> list[str]:
    """The kernel's text of each value, through the block renderer."""
    cells, _ = g17_cells(np.asarray(values, np.float64).ravel())
    cells[:, -1] = ord("\n")
    return render_block(cells).split("\n")[:-1]


def reference(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, np.float64).ravel().tolist()]


def fallback(values) -> np.ndarray:
    """Where the kernel leaves a value to Python."""
    return ~g17_cells(values)[1]


def decade(x: float) -> int:
    """The exact decade of a positive finite x: 10**e <= x < 10**(e + 1)."""
    f, e = Fraction(x), math.floor(math.log10(x))
    return e - 1 if f < Fraction(10) ** e else e + 1 if f >= Fraction(10) ** (e + 1) else e


def ties(near: bool, seed: int = 0) -> np.ndarray:
    """Doubles x whose 17-digit scaling y = x 10**(16 - e), e the decade of x,
    is n + 1/2 exactly or, when ``near``, within 2**-20 of it but not on it.

    Per decade e and binade 2**s, y = m A / B for x = m 2**s, so the residues
    m A = (B + d) / 2 mod B give every m with |frac(y) - 1/2| = |d| / 2B.
    Exact ties (d = 0) need B even: decades -6..15, where 10**(16 - e) and so
    the kernel's y are exact; 2**50 + k + 1/4 is the one at e = 15, s = -2.
    Near ties also come from decades -9..-7 and 17..41, whose 10**(16 - e) is rounded; where
    B > 2**53 few residues give an m < 2**53, so d runs up to 64 there.
    """
    rng = np.random.default_rng(seed)
    out = []
    for e in range(-9, 42) if near else range(-6, 16):
        for s in range(math.floor(e * math.log2(10)) - 53, math.ceil((e + 1) * math.log2(10)) - 51):
            scale = Fraction(2) ** s * Fraction(10) ** (16 - e)
            A, B = scale.numerator, scale.denominator
            span = (1, 2) if B < 2 ** 53 else range(1, 65)
            for d in [v for k in span for v in (-k, k)] if near else (0,):
                if B < (2 ** 20 if near else 2) or (B + d) % 2:
                    continue
                m0 = (B + d) // 2 * pow(A, -1, B) % B
                lo, hi = -(-(2 ** 52 - m0) // B), (2 ** 53 - 1 - m0) // B
                for t in ({lo, hi, int(rng.integers(lo, hi + 1))} if lo <= hi else ()):
                    x = math.ldexp(m0 + t * B, s)
                    if decade(x) == e:
                        out.append(x)
    return np.array(out)


def powers_of_ten() -> np.ndarray:
    """Every double nearest a power of ten and both of its float neighbours."""
    p = np.array([float(Fraction(10) ** k) for k in range(-323, 309)])
    return np.concatenate([np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)])


def edge_values() -> np.ndarray:
    rng = np.random.default_rng(5)
    big = [float(2 ** j + d) for j in range(53, 64) for d in (-2 ** (j - 52), 0, 2 ** (j - 52))]
    big += [float(v) for v in rng.integers(2 ** 53, 2 ** 63, 2000, dtype=np.int64).tolist()]
    sub = rng.integers(1, 2 ** 52, 2000, dtype=np.int64).view(np.float64)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e-280, 1e280]
    tie = [2 ** 50 + k + f for k in range(200) for f in (0.25, 0.75)]
    v = np.concatenate([powers_of_ten(), big, sub, special, tie, ties(False), ties(True)])
    return np.concatenate([v, -v])


def test_the_kernel_equals_percent_g_on_the_edge_families():
    values = edge_values()
    assert texts(values) == reference(values)


def test_a_decade_read_one_off_either_way_still_gives_percent_g():
    rng = np.random.default_rng(6)
    x = np.concatenate([edge_values(), rng.random(20_000) * 10.0 ** rng.integers(-30, 30, 20_000)])
    a = np.abs(x)
    a[~((a >= 1e-280) & (a <= 1e280))] = 1.0
    for shift in (-1, 1):
        cells, certain = g17_cells(x, np.floor(np.log10(a)).astype(np.intp) + shift)
        cells[:, -1] = ord("\n")
        assert render_block(cells).split("\n")[:-1] == reference(x)
        assert certain.mean() < 0.1  # a read off by one is caught, not rounded


def test_the_kernel_equals_percent_g_on_a_million_random_bit_patterns():
    rng = np.random.default_rng(2026)
    for _ in range(10):
        values = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
        assert texts(values) == reference(values)


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_the_kernel_equals_percent_g_on_any_floats(values):
    assert texts(values) == reference(values)


def tie_distance(x: float) -> Fraction:
    """|frac(y) - 1/2| for the 17-digit scaling y of x."""
    y = Fraction(x) * Fraction(10) ** (16 - decade(x))
    return abs(y - math.floor(y) - Fraction(1, 2))


def test_ties_are_ties_and_near_ties_are_near():
    assert all(tie_distance(x) == 0 for x in ties(False).tolist())
    assert all(0 < tie_distance(x) <= Fraction(1, 2 ** 20) for x in ties(True).tolist())


def test_every_tie_and_near_tie_falls_back_and_few_random_values_do():
    assert fallback(ties(False)).all()
    assert fallback(-ties(False)).all()
    near = ties(True)
    close = near[[tie_distance(x) <= Fraction(1, 2 ** 31) for x in near.tolist()]]
    assert close.size > 100 and fallback(close).all()  # rounded or not, the margin holds
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2 ** 63, 1_000_000, dtype=np.int64).view(np.float64)
    values = values[(values >= 1e-280) & (values <= 1e280)]
    assert values.size > 900_000
    assert fallback(values).mean() < 1e-3


def test_cells_keep_the_shape_and_fall_back_for_zero_and_non_finite():
    cells, certain = g17_cells(np.array([[0.0, -0.0, 1.5], [math.inf, -math.inf, math.nan]]))
    assert cells.shape == (2, 3, WIDTH) and certain.tolist() == [0, 0, 1, 0, 0, 0]
    assert fallback([0.0, -0.0, math.inf, math.nan, 1e-281, 1e281]).all()
    assert render_block(b"[", cells[0], b"]") == "[0][-0][1.5]"


def test_render_block_takes_constants_bytes_strings_and_cells():
    heads = np.array([b"a", b"bcd"])
    cells, _ = g17_cells([0.5, -2.0])
    assert render_block(heads, b"=", cells, b";") == "a=0.5;bcd=-2;"


@pytest.mark.parametrize("values", [[0.1, 0.2], [1e-5, 123456789.0], [-1e100, 1e17]])
def test_tables_are_built_on_first_call(values):
    _report._g17_tables.cache_clear()
    assert _report._g17_tables.cache_info().currsize == 0
    assert texts(values) == reference(values)
    assert _report._g17_tables.cache_info().currsize == 1
