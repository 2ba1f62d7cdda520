"""Polynomial arithmetic against the schoolbook oracle.

Poincare polynomials and Gaussian binomials have small nonnegative
coefficients; the exact counting series also builds on Polynomial, with
negative coefficients some 1,200 bits wide.  So the coefficients drawn here
are signed, small or that wide, with trailing zeros to be trimmed.
"""

from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_product
from schubsmooth.poly import Polynomial

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
