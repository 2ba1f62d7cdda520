"""Exact series arithmetic and the diagram-counting generating functions.

The anchor points are independent of the implementation: the square root
series is compared against Catalan numbers, each generating function
against its defining functional equation by multiplying denominators
back, against the truncated-series assembly of the oracles, and the
closed form against the exact assembly by cross-multiplying and, in lowest
terms, coefficient for coefficient.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_product, series_inverse, series_product, truncated_assembly
from schubsmooth.poly import Polynomial, gcd
from schubsmooth.series import (
    D_FACTORS,
    P_FACTORS,
    Q_FACTORS,
    IntSeries,
    RootFraction,
    alpha,
    catalan,
    exact_parts,
    series_A_assembled,
    series_A_closed,
    series_AB,
    series_Abar,
    series_AF,
    series_AM,
    series_Astar,
    sqrt_one_minus_4t,
)

TABLE = (5, 31, 173, 891, 4373, 20833, 97333, 448663)


# ----------------------------------------------------------------------
# IntSeries arithmetic


def test_construction_and_indexing():
    s = IntSeries.of(4, 1, -4)
    assert s.coeffs == (1, -4, 0, 0, 0)
    assert s.order == 4
    assert s[0] == 1 and s[1] == -4 and s[4] == 0
    with pytest.raises(IndexError):
        s[5]
    with pytest.raises(IndexError):
        s[-1]
    with pytest.raises(ValueError):
        IntSeries(())
    with pytest.raises(ValueError):
        IntSeries.of(-1, 1)
    assert IntSeries.one(2).coeffs == (1, 0, 0)
    # coefficients must be integers, not anything int() accepts
    with pytest.raises(TypeError):
        IntSeries.of(3, 0.5, 1.9)
    with pytest.raises(TypeError):
        IntSeries(("7", 2))


def test_binary_operations_truncate_to_common_order():
    a = IntSeries.of(5, 1, 1, 1, 1, 1, 1)
    b = IntSeries.of(3, 1, 2)
    assert (a - b).coeffs == (0, -1, 1, 1)
    assert (a * b).coeffs == (1, 3, 3, 3)


S = RootFraction((), (1,), (1,))
ONE = RootFraction.poly(1)
T = RootFraction.poly(0, 1)


def is_zero(x: RootFraction) -> bool:
    return x.p.coeffs == () and x.q.coeffs == ()


def test_exact_integer_division():
    assert RootFraction((2, 4, 6), (), (2,)).expand(2).coeffs == (1, 2, 3)
    assert (RootFraction.poly(4, -2) / RootFraction.poly(2, -1)).expand(3).coeffs == (2, 0, 0, 0)
    # an element whose series is not integral: expand refuses it
    for x in (RootFraction((2, 4, 6), (), (4,)), ONE / RootFraction.poly(2, -1), S / RootFraction.poly(2)):
        with pytest.raises(ValueError):
            x.expand(5)
    with pytest.raises(ValueError):
        S.expand(-1)
    with pytest.raises(ZeroDivisionError):
        S / (S - S)
    with pytest.raises(ZeroDivisionError):
        RootFraction((1,), (), (0, 0))
    # stored without trailing zeros, coefficients must be integers
    assert RootFraction((1, 0), (0,), (3, 0)) == RootFraction((1,), (), (3,))
    with pytest.raises(TypeError):
        RootFraction((0.5,), (), (1,))


def test_inverse_and_division():
    geom = IntSeries.of(6, 1, -1).inverse()
    assert geom.coeffs == (1,) * 7
    assert (geom * geom).coeffs == tuple(range(1, 8))
    s = IntSeries.of(10, 1, 3, -2, 5)
    assert (s * s.inverse()).coeffs == IntSeries.one(10).coeffs
    m = IntSeries.of(10, -1, 7, 2)
    assert (m * m.inverse()).coeffs == IntSeries.one(10).coeffs
    assert (s / s).coeffs == IntSeries.one(10).coeffs
    with pytest.raises(ValueError):
        IntSeries.of(4, 2, 1).inverse()
    with pytest.raises(ValueError):
        IntSeries.of(4, 0, 1).inverse()
    with pytest.raises(ValueError):
        IntSeries.one(4) / IntSeries.of(4, 2, 1)


@st.composite
def int_series(draw):
    """A series of order 0..30: zero, a short polynomial padded with zeros,
    or dense."""
    order = draw(st.integers(0, 30))
    size = draw(st.one_of(st.integers(0, 3), st.just(order + 1), st.integers(0, order + 1)))
    return IntSeries.of(order, *draw(st.lists(st.integers(), min_size=size, max_size=size)))


@st.composite
def short_and_long(draw):
    """A polynomial of degree at most 6 and a dense series, both of an order
    from 300 to 400: a product of the two adds one row per nonzero
    coefficient of the short one."""
    order = draw(st.integers(300, 400))
    short = draw(st.lists(st.integers(-(2**70), 2**70), max_size=7))
    dense = draw(st.lists(st.integers(-(2**70), 2**70), min_size=order + 1, max_size=order + 1))
    return IntSeries.of(order, *short), IntSeries(tuple(dense))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(int_series(), int_series(), st.sampled_from((1, -1)))
def test_arithmetic_matches_schoolbook_oracle(f, g, c):
    assert (f * g).coeffs == series_product(f.coeffs, g.coeffs)
    # the same g with constant term 1 or -1 as a divisor
    g = IntSeries((c,) + g.coeffs[1:])
    inverse = series_inverse(g.coeffs)
    assert g.inverse().coeffs == inverse
    q = f / g
    assert q.coeffs == series_product(f.coeffs, inverse)
    assert (q * g).coeffs == f.coeffs[: q.order + 1]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(short_and_long(), st.integers(0, 40))
def test_short_times_long_at_high_order_matches_oracle(pair, cut):
    short, dense = pair
    # the dense one truncated below the other's order, and in either position
    shorter = IntSeries(dense.coeffs[: dense.order + 1 - cut])
    for a, b in ((short, dense), (dense, short), (short, shorter), (shorter, short)):
        assert (a * b).coeffs == series_product(a.coeffs, b.coeffs)
    assert (short * short).coeffs == series_product(short.coeffs, short.coeffs)


def test_shifts_and_derivative():
    x = RootFraction.poly(5, 4, 3)
    assert x.times_t().times_t().expand(5).coeffs == (0, 0, 5, 4, 3, 0)
    assert is_zero(x.times_t() / T - x)
    assert (RootFraction.poly(0, 0, 7) / T / T).expand(1).coeffs == (7, 0)
    # 5/t has a pole at 0
    with pytest.raises(ValueError):
        (x / T).expand(3)
    assert x.t_derivative().expand(3).coeffs == (0, 4, 6, 0)
    # t·d/dt on S and on a quotient, against n·c_n of the expansion
    for y in (S, S / RootFraction.poly(1, -1), (ONE - S) / (T + T)):
        coeffs = y.expand(40).coeffs
        assert y.t_derivative().expand(40).coeffs == tuple(n * c for n, c in enumerate(coeffs))


@st.composite
def root_fractions(draw):
    """(p + q·S)/d with short p, q and d(0) = 1 or -1, so every expansion
    is integral."""
    poly = st.lists(st.integers(-9, 9), max_size=4)
    d = (draw(st.sampled_from((1, -1))),) + tuple(draw(poly))
    return RootFraction(tuple(draw(poly)), tuple(draw(poly)), d)


def expansion(x: RootFraction, order: int):
    """The expansion, or the message of the ValueError that refuses it."""
    try:
        return x.expand(order).coeffs
    except ValueError as exc:
        return str(exc)


def lowest_terms(x: RootFraction) -> bool:
    common = gcd(gcd(x.p, x.q), x.d)
    return common == Polynomial.of(1) and next(filter(None, x.d.coeffs)) > 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(root_fractions(), root_fractions())
def test_reducing_keeps_the_value(x, y):
    # products and quotients of the drawn elements have common factors and
    # denominators with a power of t or a constant other than 1 or -1
    elements = [x, x * y, x + y, x.t_derivative()]
    if not is_zero(y):
        elements.append(x / y)
    for z in elements:
        r = z.reduced()
        assert is_zero(z - r)
        assert lowest_terms(r) and r.reduced() == r
        assert expansion(r, 12) == expansion(z, 12)
        assert (-z).reduced() == -r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(root_fractions(), root_fractions())
def test_exact_arithmetic_matches_truncated_oracle(x, y):
    order = 12
    ex, ey = x.expand(order).coeffs, y.expand(order).coeffs
    assert (x + y).expand(order).coeffs == tuple(a + b for a, b in zip(ex, ey))
    assert (x - y).expand(order).coeffs == tuple(a - b for a, b in zip(ex, ey))
    assert (x * y).expand(order).coeffs == series_product(ex, ey)
    assert x.times_t().expand(order).coeffs == (0,) + ex[:order]
    assert x.t_derivative().expand(order).coeffs == tuple(n * c for n, c in enumerate(ex))
    if not is_zero(y):
        assert is_zero(x * y / y - x)
    if ey[0] in (1, -1):
        assert (x / y).expand(order).coeffs == series_product(ex, series_inverse(ey))


# ----------------------------------------------------------------------
# the square root, pinned to Catalan numbers


def test_catalan_prefix():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_sqrt_squares_back_and_matches_catalan():
    assert sqrt_one_minus_4t(0).coeffs == (1,)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        sqrt_one_minus_4t(-1)
    s = sqrt_one_minus_4t(600)
    assert (s * s).coeffs == IntSeries.of(600, 1, -4).coeffs
    assert s[0] == 1
    for k in range(1, 601):
        assert s[k] == -2 * catalan(k - 1)


# ----------------------------------------------------------------------
# frozen prefixes


def test_frozen_prefixes():
    assert series_AM(8).coeffs == (0, 1, 2, 5, 14, 42, 132, 429, 1430)
    assert series_AB(8).coeffs == (0, 1, 3, 9, 28, 90, 297, 1001, 3432)
    assert series_Abar(8).coeffs == (0, 0, 2, 18, 110, 580, 2846, 13412, 61638)
    assert series_AF(8).coeffs == (0, 1, 3, 11, 43, 173, 707, 2917, 12111)
    assert series_Astar(8).coeffs == (0, 0, 1, 4, 15, 58, 231, 938, 3855)
    assert series_A_closed(9).coeffs == (0, 0) + TABLE
    assert series_A_assembled(9).coeffs == (0, 0) + TABLE


# ----------------------------------------------------------------------
# defining identities, checked by multiplying denominators back


def test_functional_equations():
    parts = exact_parts()
    ab, star = parts.AB, parts.Astar
    # b_n counts new staircases: Catalan difference for n >= 1
    b = series_AB(25)
    assert b[0] == 0
    for n in range(1, 26):
        assert b[n] == catalan(n + 1) - catalan(n)
    # the quotients, multiplied back through their denominators, exactly
    half = ab * ab.t_derivative()
    assert is_zero(parts.Abar * (ONE - ab * ab) - (half + half))
    assert is_zero(star * RootFraction.poly(1, -1) - parts.AF.times_t())
    rest = parts.A - parts.Abar - RootFraction.poly(0, 0, 1) / RootFraction.poly(1, -1)
    assert is_zero(rest * (ONE - star) - star.t_derivative())


def test_parts_match_truncated_assembly_oracle():
    functions = {
        "AM": series_AM,
        "AB": series_AB,
        "Abar": series_Abar,
        "AF": series_AF,
        "Astar": series_Astar,
        "A": series_A_assembled,
    }
    for order in (0, 1, 2, 7, 120):
        reference = truncated_assembly(order)
        for name, series in functions.items():
            assert series(order).coeffs == reference[name], (name, order)


def test_b_identity_against_m():
    am = series_AM(31)
    ab = series_AB(30)
    for n in range(1, 31):
        assert ab[n] == am[n + 1] - am[n]
    # and it genuinely fails at n = 0, where the -1 correction bites
    assert ab[0] != am[1] - am[0]


def test_parts_are_in_lowest_terms():
    for name, part in exact_parts()._asdict().items():
        assert lowest_terms(part), name
        # catches a return of the unreduced A, with 44, 42 and 43 coefficients
        assert max(map(len, (part.p.coeffs, part.q.coeffs, part.d.coeffs))) <= 8, name


def test_exact_assembly_equals_closed_form():
    """A = (P - Q·S)/D exactly, so closed and assembled agree at every order."""
    parts = exact_parts()
    a = parts.A
    P, Q, D = (reduce(poly_product, f, (1,)) for f in (P_FACTORS, Q_FACTORS, D_FACTORS))
    assert poly_product(a.p.coeffs, D) == poly_product(P, a.d.coeffs)
    assert poly_product(a.q.coeffs, D) == poly_product(tuple(-c for c in Q), a.d.coeffs)
    # in lowest terms the two are the same triple
    assert a == RootFraction(P, tuple(-c for c in Q), D)
    # two defining equations, exactly: the Catalan equation A_M = t(1 + A_M)²
    # shifted by one, and A_F·(1 - A_B) = A_M
    lifted = ONE + parts.AM
    assert is_zero(parts.AM - T * lifted * lifted)
    assert is_zero(parts.AF * (ONE - parts.AB) - parts.AM)


def test_closed_form_identity():
    order = 40

    def expand(factors):
        out = IntSeries.one(order)
        for f in factors:
            out = out * IntSeries.of(order, *f)
        return out

    P, Q, D = expand(P_FACTORS), expand(Q_FACTORS), expand(D_FACTORS)
    a = series_A_closed(order)
    lhs = a * D
    rhs = P - Q * sqrt_one_minus_4t(order)
    assert lhs.coeffs == rhs.coeffs
    assert series_A_closed(300).coeffs == series_A_assembled(300).coeffs


def test_coefficients_nonnegative_and_growing():
    a = series_A_closed(60)
    assert all(c >= 0 for c in a.coeffs)
    for n in range(2, 60):
        assert a[n + 1] > a[n]


# ----------------------------------------------------------------------
# asymptotics


def test_alpha_root():
    r = alpha()
    assert 0.2281554 < r < 0.2281555
    assert abs(1 - 6 * r + 8 * r * r - 4 * r**3) < 1e-12


def test_asymptotic_convergence():
    a, r = series_A_closed(61), alpha()
    scaled = {n: float(a[n]) * r**n for n in (10, 60)}  # a_n·α^n tends to 1
    assert 0.98 <= scaled[60] <= 1.02
    assert abs(scaled[60] - 1) < abs(scaled[10] - 1)
    assert abs(a[61] / a[60] - 1 / r) < 0.01 / r
