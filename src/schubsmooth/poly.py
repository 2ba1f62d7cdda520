"""Integer polynomials in one variable, dense and exact.

The one exact polynomial of the package: Poincare polynomials in q, and
the numerators and denominators of the exact counting series in t.  It
has addition, subtraction, negation, multiplication, evaluation, the
palindromicity test q^deg * p(1/q) == p(q), the greatest common divisor
and exact quotient in Z[t], and the Gaussian binomials that are the
Poincare polynomials of Grassmannians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from operator import index


@dataclass(frozen=True)
class Polynomial:
    """Coefficients stored low degree first, trailing zeros trimmed.

    Coefficients must be integers: anything else raises TypeError.

    >>> p = Polynomial.of(1, 2, 2, 1)
    >>> p.is_palindromic()
    True
    >>> (p * Polynomial.of(1, 1)).coeffs
    (1, 3, 4, 3, 1)
    >>> p(1)
    6
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(index, self.coeffs))
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    @classmethod
    def of(cls, *coeffs: int) -> "Polynomial":
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def from_length_counts(cls, counts: dict[int, int]) -> "Polynomial":
        """Build sum(counts[k] * q^k) from a length -> multiplicity mapping."""
        if not counts:
            return cls.zero()
        top = max(counts)
        return cls(tuple(counts.get(k, 0) for k in range(top + 1)))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(x - y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial(tuple(out))

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def is_palindromic(self) -> bool:
        """True iff the coefficient sequence reads the same in both directions."""
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        """The polynomial in the variable q of the Poincare polynomials."""
        return _show(self, "q")


def _show(p: Polynomial, var: str) -> str:
    """p written out in the variable var, low degree first."""
    if not p.coeffs:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append(f"{c}*{var}" if c != 1 else var)
        else:
            parts.append(f"{c}*{var}^{k}" if c != 1 else f"{var}^{k}")
    return " + ".join(parts)


def _primitive(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Nonzero coefficients divided by their gcd."""
    c = math.gcd(*coeffs)
    return coeffs if c == 1 else tuple(x // c for x in coeffs)


def _pseudo_remainder(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """lc(g)^k·f mod g for nonzero g, one leading term of f at a time,
    with k the number of terms removed; trailing zeros trimmed."""
    r, lead, dg = list(f), g[-1], len(g) - 1
    while len(r) > dg:
        top, shift = r.pop(), len(r) - dg
        r = [x * lead for x in r]
        for i, y in enumerate(g[:-1]):
            r[shift + i] -= top * y
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """The greatest common divisor in Z[t], with positive leading coefficient.

    Its content is the gcd of the two contents.  Its primitive part ends
    the primitive pseudo-remainder sequence f, g -> g, pp(prem(f, g)) of
    the primitive parts of a and b: the last g that divides f, or 1 once a
    remainder is a nonzero constant.  gcd(0, 0) is 0.

    >>> gcd(Polynomial.of(2, -2), Polynomial.of(-4, 0, 4)).coeffs  # 2(1-t), 4(t²-1)
    (-2, 2)
    >>> gcd(Polynomial.of(1, 1), Polynomial.of(1, -1)).coeffs
    (1,)
    """
    if not a.coeffs or not b.coeffs:
        g = a.coeffs or b.coeffs
    else:
        content = math.gcd(math.gcd(*a.coeffs), math.gcd(*b.coeffs))
        f, g = _primitive(a.coeffs), _primitive(b.coeffs)
        if len(f) < len(g):
            f, g = g, f
        while len(g) > 1:
            r = _pseudo_remainder(f, g)
            if not r:
                break
            f, g = g, _primitive(r)
        else:
            g = (1,)
        g = tuple(content * x for x in g)
    return Polynomial(g if not g or g[-1] > 0 else tuple(-x for x in g))


def exact_quotient(a: Polynomial, b: Polynomial) -> Polynomial:
    """The c in Z[t] with a = b·c; ValueError when there is none.

    >>> exact_quotient(Polynomial.of(-4, 0, 4), Polynomial.of(2, -2)).coeffs
    (-2, -2)
    >>> exact_quotient(Polynomial.of(1, 0, 1), Polynomial.of(1, 1))
    Traceback (most recent call last):
    ...
    ValueError: 1 + t^2 is not a multiple of 1 + t
    """
    r, g = list(a.coeffs), b.coeffs
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    lead, dg = g[-1], len(g) - 1
    out = [0] * max(len(r) - dg, 0)
    for shift in range(len(out) - 1, -1, -1):
        c, rest = divmod(r[-1], lead)
        if rest:  # r keeps its nonzero top
            break
        r.pop()
        out[shift] = c
        for i, y in enumerate(g[:-1]):
            r[shift + i] -= c * y
    if any(r):
        raise ValueError(f"{_show(a, 't')} is not a multiple of {_show(b, 't')}")
    return Polynomial(tuple(out))


def gaussian_binomial(m: int, a: int) -> Polynomial:
    """The Gaussian binomial [m choose a]_q, the Poincare polynomial of the
    Grassmannian Gr(a, m), by the q-Pascal rule
    [j choose k] = [j-1 choose k-1] + q^k [j-1 choose k].

    >>> str(gaussian_binomial(4, 2))
    '1 + q + 2*q^2 + q^3 + q^4'
    """
    if not 0 <= a <= m:
        raise ValueError(f"need 0 <= a <= m, got a = {a}, m = {m}")
    row = [Polynomial.of(1)]  # [j choose k] for k = 0..j, starting at j = 0
    for j in range(1, m + 1):
        row = [
            (row[k - 1] if k else Polynomial.zero())
            + (Polynomial((0,) * k + row[k].coeffs) if k < j else Polynomial.zero())
            for k in range(j + 1)
        ]
    return row[a]
