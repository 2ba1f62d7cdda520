"""Polynomial arithmetic against the schoolbook oracle.

Poincare polynomials and Gaussian binomials have small nonnegative
coefficients; the exact counting series also builds on Polynomial, with
negative coefficients some 1,200 bits wide.  So the coefficients drawn here
are signed, small or that wide, with trailing zeros to be trimmed.

The gcd and exact quotient in Z[t] are checked against Euclid's algorithm
over the rationals and by building multiples on purpose.
"""

import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_gcd_by_fractions, poly_product
from schubsmooth.poly import Polynomial, exact_quotient, gcd

WIDE = 2**1300
COEFFS = st.lists(st.one_of(st.integers(-3, 3), st.integers(-WIDE, WIDE)), max_size=12)


def trimmed(coeffs) -> tuple[int, ...]:
    out = tuple(coeffs)
    while out and out[-1] == 0:
        out = out[:-1]
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(COEFFS, COEFFS)
def test_arithmetic_matches_schoolbook_oracle(a, b):
    x, y = Polynomial(tuple(a)), Polynomial(tuple(b))
    assert x.coeffs == trimmed(a)
    assert (x + y).coeffs == trimmed(u + v for u, v in zip_longest(a, b, fillvalue=0))
    assert (x - y).coeffs == trimmed(u - v for u, v in zip_longest(a, b, fillvalue=0))
    assert (-x).coeffs == trimmed(-u for u in a)
    assert (x * y).coeffs == trimmed(poly_product(tuple(a), tuple(b)))
    assert (x - x).coeffs == ()


def test_trailing_zeros_are_trimmed():
    assert Polynomial((1, 0, 0)).coeffs == (1,)
    assert Polynomial((0, 0)) == Polynomial.zero()
    assert (Polynomial.of(1, 2, 3) - Polynomial.of(0, 2, 3)).coeffs == (1,)
    assert (Polynomial.of(0, 1) * Polynomial.zero()).coeffs == ()


@pytest.mark.parametrize("bad", [0.5, "7", None])
def test_coefficients_must_be_integers(bad):
    with pytest.raises(TypeError):
        Polynomial((bad,))
    with pytest.raises(TypeError):
        Polynomial.of(1, bad)


# ----------------------------------------------------------------------
# gcd and exact quotient in Z[t]

SMALL = st.lists(st.integers(-9, 9), max_size=6).map(lambda c: Polynomial(tuple(c)))
FACTOR = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(lambda c: Polynomial(tuple(c))).filter(
    lambda f: f.coeffs != ()
)


def content(f: Polynomial) -> int:
    return math.gcd(*f.coeffs)


def primitive_part(f: Polynomial) -> Polynomial:
    return Polynomial(tuple(c // content(f) for c in f.coeffs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SMALL, SMALL, FACTOR)
def test_gcd_matches_rational_euclid_oracle(a, b, c):
    # a common factor c makes most pairs share a nonconstant divisor
    for x, y in ((a, b), (a * c, b * c)):
        g = gcd(x, y)
        assert tuple(Fraction(v, g.coeffs[-1]) for v in g.coeffs) == poly_gcd_by_fractions(x.coeffs, y.coeffs)
        if g.coeffs:
            assert g.coeffs[-1] > 0
            assert content(g) == math.gcd(content(x) if x.coeffs else 0, content(y) if y.coeffs else 0)
            # g divides both, exactly in Z[t]
            assert exact_quotient(x, g) * g == x and exact_quotient(y, g) * g == y
        assert gcd(y, x) == g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SMALL, SMALL, FACTOR)
def test_gcd_of_multiples_holds_the_common_factor(a, b, c):
    if a.coeffs or b.coeffs:
        g = gcd(a * c, b * c)
        exact_quotient(g, primitive_part(c))  # raises unless pp(c) divides g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(SMALL, COEFFS.map(lambda c: Polynomial(tuple(c)))), FACTOR)
def test_exact_quotient_undoes_a_product(a, c):
    assert exact_quotient(a * c, c) == a


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SMALL, FACTOR, FACTOR)
def test_exact_quotient_refuses_a_non_multiple(a, b, r):
    # a remainder of lower degree than the divisor is never a multiple of it
    if len(r.coeffs) < len(b.coeffs):
        with pytest.raises(ValueError, match="is not a multiple of"):
            exact_quotient(a * b + r, b)
    # nor is a quotient with a fractional coefficient
    doubled = Polynomial(tuple(2 * v for v in b.coeffs))
    with pytest.raises(ValueError, match="is not a multiple of"):
        exact_quotient(b, doubled)


def test_gcd_and_quotient_edge_cases():
    zero, one = Polynomial.zero(), Polynomial.of(1)
    assert gcd(zero, zero) == zero
    assert gcd(zero, Polynomial.of(-3, -6)).coeffs == (3, 6)
    assert gcd(Polynomial.of(6), Polynomial.of(-4)).coeffs == (2,)
    assert gcd(Polynomial.of(1, 1), Polynomial.of(1, -1)) == one
    assert gcd(Polynomial.of(0, 0, 2), Polynomial.of(0, 4, 4)).coeffs == (0, 2)
    assert exact_quotient(zero, Polynomial.of(1, 2)) == zero
    with pytest.raises(ZeroDivisionError):
        exact_quotient(one, zero)
    with pytest.raises(ValueError):
        exact_quotient(Polynomial.of(0, 3), Polynomial.of(0, 2))
    with pytest.raises(ValueError):
        exact_quotient(Polynomial.of(1), Polynomial.of(1, 1))
