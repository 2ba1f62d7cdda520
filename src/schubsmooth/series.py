"""Exact series arithmetic and the diagram-counting generating functions.

All coefficients are arbitrary-precision integers and every operation is
exact.  Three representations:

    Polynomial    an exact integer polynomial in t, from the poly module;
                  the fixed polynomials P, Q and D of the closed form and
                  the parts p, q and d of a RootFraction are Polynomials.
    IntSeries     an integer power series known through t^order; division
                  is defined only for divisors with constant term 1 or -1.
                  The closed form for A is evaluated in it.
    RootFraction  an element (p + q·S)/d of Q(t, S), S = sqrt(1-4t), with
                  Polynomials p, q and d.  Every part of the assembly is
                  computed in it, once, reduced to lowest terms, and
                  expanded to a truncated series at the end.

The series of interest:

    A_M   fully supported increasing staircase diagrams on the path
          (Catalan numbers),
    A_B   broken staircases,
    A_F   fully supported diagrams on the path,
    Ā     fully supported spherical diagrams on the cycle,
    A_*   bookkeeping series t·A_F/(1-t) for proper supports,
    A     spherical diagrams on the cycle, assembled from the above or
          taken from the closed form (P - Q·sqrt(1-4t))/D,

together with the asymptotic constant α, the real root of 1-6t+8t²-4t³,
for which a_n ~ α^(-n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, index, mul, sub
from typing import NamedTuple

from .poly import Polynomial, exact_quotient, gcd


@dataclass(frozen=True)
class IntSeries:
    """Integer power series known exactly through t^order.

    Binary operations truncate to the shorter operand's order.  A product
    adds one scaled row of the higher-degree operand per nonzero coefficient
    of the other, and a quotient runs a recurrence over the divisor's
    degree: O(order·degree) each, for the smaller degree.

    >>> (IntSeries.of(9, 1, -1) * IntSeries.of(9, 1, -1).inverse()).coeffs
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def of(order: int, *coeffs: int) -> "IntSeries":
        """The polynomial with the given low coefficients, truncated at order.

        >>> IntSeries.of(4, 1, -4).coeffs
        (1, -4, 0, 0, 0)
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        return IntSeries(tuple(coeffs[: order + 1]) + (0,) * (order + 1 - len(coeffs)))

    @staticmethod
    def one(order: int) -> "IntSeries":
        return IntSeries.of(order, 1)

    # -- basics ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero series."""
        return next((d for d in range(self.order, -1, -1) if self.coeffs[d]), -1)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    # -- ring operations ---------------------------------------------------

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        return IntSeries(tuple(map(sub, self.coeffs, other.coeffs)))

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        n = min(self.order, other.order)
        short, long = (self, other) if self.degree <= other.degree else (other, self)
        dl, b = min(long.degree, n), long.coeffs
        out = [0] * (n + 1)
        for i, x in enumerate(short.coeffs[: min(short.degree, n) + 1]):
            if x:
                m = min(dl, n - i) + 1  # the terms of long that land at or below n
                out[i : i + m] = map(add, out[i : i + m], map(x.__mul__, b[:m]))
        return IntSeries(tuple(out))

    def inverse(self) -> "IntSeries":
        """Multiplicative inverse; the constant term must be 1 or -1.

        >>> s = IntSeries.of(6, 1, -1).inverse()  # 1/(1-t)
        >>> s.coeffs
        (1, 1, 1, 1, 1, 1, 1)
        >>> (s * s).coeffs
        (1, 2, 3, 4, 5, 6, 7)
        """
        return IntSeries.one(self.order) / self

    def __truediv__(self, other: "IntSeries") -> "IntSeries":
        """The h with h·g = f for f = self, g = other, by the recurrence
        h_k = c·(f_k - sum of g_i·h_(k-i) for 1 <= i <= min(k, deg g)),
        where the constant term c of g must be 1 or -1."""
        c = other.coeffs[0]
        if c not in (1, -1):
            raise ValueError("division needs a divisor with constant term 1 or -1")
        n = min(self.order, other.order)
        dg = min(other.degree, n)
        rg, f = other.coeffs[dg:0:-1], self.coeffs  # rg is g_dg, ..., g_1
        h: list[int] = []
        for k in range(n + 1):
            m = min(k, dg)
            h.append(c * (f[k] - sum(map(mul, rg[dg - m :], h[k - m :]))))
        return IntSeries(tuple(h))


def catalan(n: int) -> int:
    """The n-th Catalan number.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    return math.comb(2 * n, n) // (n + 1)


def sqrt_one_minus_4t(order: int) -> IntSeries:
    """The integer series S with S² = 1 - 4t, S(0) = 1.

    Coefficients 1, -2, -2, -4, -10, ... (-2·Catalan(k-1) for k >= 1), each
    from the last by s_k = s_(k-1)·2(2k-3)/k.

    >>> sqrt_one_minus_4t(5).coeffs
    (1, -2, -2, -4, -10, -28)
    >>> (sqrt_one_minus_4t(80) * sqrt_one_minus_4t(80)).coeffs == IntSeries.of(80, 1, -4).coeffs
    True
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [1]
    for k in range(1, order + 1):
        out.append(out[-1] * 2 * (2 * k - 3) // k)
    return IntSeries(tuple(out))


# ----------------------------------------------------------------------
# exact elements of Q(t, sqrt(1-4t))

ONE_MINUS_4T = Polynomial.of(1, -4)  # S², for S = sqrt(1-4t)
T = Polynomial.of(0, 1)


def _theta(a: Polynomial) -> Polynomial:
    """The operator t·d/dt on a polynomial."""
    return Polynomial(tuple(n * c for n, c in enumerate(a.coeffs)))


@dataclass(frozen=True)
class RootFraction:
    """The exact element (p + q·S)/d of Q(t, S), S = sqrt(1-4t), S(0) = 1.

    p, q and d are Polynomials in t, and d is not zero; the constructor
    also takes each as a sequence of integer coefficients from t^0 up.
    Arithmetic does not reduce, so one element has many representations:
    x and y are equal exactly when x - y has p and q both zero.  reduced()
    gives the one in lowest terms, which is what exact_parts stores.  Only
    expand truncates.

    >>> s = RootFraction((), (1,), (1,))
    >>> square = s * s
    >>> square.p.coeffs, square.q.coeffs, square.d.coeffs
    ((1, -4), (), (1,))
    >>> am = (RootFraction.poly(1, -2) - s) / RootFraction.poly(0, 2)
    >>> am.expand(6).coeffs
    (0, 1, 2, 5, 14, 42, 132)
    """

    p: Polynomial
    q: Polynomial
    d: Polynomial

    def __post_init__(self) -> None:
        for name in ("p", "q", "d"):
            value = getattr(self, name)
            if not isinstance(value, Polynomial):
                object.__setattr__(self, name, Polynomial(tuple(value)))
        if not self.d.coeffs:
            raise ZeroDivisionError("the denominator is zero")

    @staticmethod
    def poly(*coeffs: int) -> "RootFraction":
        """The integer polynomial with the given coefficients, from t^0 up."""
        return RootFraction(coeffs, (), (1,))

    def __add__(self, other: "RootFraction") -> "RootFraction":
        return RootFraction(
            self.p * other.d + other.p * self.d,
            self.q * other.d + other.q * self.d,
            self.d * other.d,
        )

    def __neg__(self) -> "RootFraction":
        return RootFraction(-self.p, -self.q, self.d)

    def __sub__(self, other: "RootFraction") -> "RootFraction":
        return self + -other

    def __mul__(self, other: "RootFraction") -> "RootFraction":
        return RootFraction(
            self.p * other.p + self.q * other.q * ONE_MINUS_4T,
            self.p * other.q + self.q * other.p,
            self.d * other.d,
        )

    def __truediv__(self, other: "RootFraction") -> "RootFraction":
        """By the conjugate: d/(p + qS) = d·(p - qS)/(p² - q²(1 - 4t)),
        or d/p when q is zero."""
        p, q, d = other.p, other.q, other.d
        if not q.coeffs:
            return self * RootFraction(d, (), p)
        return self * RootFraction(p * d, -(q * d), p * p - q * q * ONE_MINUS_4T)

    def reduced(self) -> "RootFraction":
        """The same element in lowest terms: p, q and d divided by their gcd
        in Z[t], with the lowest nonzero coefficient of d made positive.

        As 1 and S are independent over Q(t), two elements are equal
        exactly when their reduced forms are.

        >>> x = RootFraction((2, -2), (0, 2, -2), (-4, 4))  # 2(1-t)(1 + tS) / -4(1-t)
        >>> y = x.reduced()
        >>> y.p.coeffs, y.q.coeffs, y.d.coeffs
        ((-1,), (0, -1), (2,))
        """
        p, q, d = self.p, self.q, self.d
        g = gcd(gcd(d, q), p)
        if (next(filter(None, d.coeffs)) > 0) != (next(filter(None, g.coeffs)) > 0):
            g = -g
        return RootFraction(exact_quotient(p, g), exact_quotient(q, g), exact_quotient(d, g))

    def times_t(self) -> "RootFraction":
        return RootFraction(T * self.p, T * self.q, self.d)

    def t_derivative(self) -> "RootFraction":
        """The operator t·d/dt, using t·dS/dt = -2tS/(1 - 4t).

        >>> RootFraction.poly(7, 1, 1, 1).t_derivative().expand(4).coeffs
        (0, 1, 2, 3, 0)
        >>> s = RootFraction((), (1,), (1,))
        >>> s.t_derivative().expand(5).coeffs  # n·S_n
        (0, -2, -4, -12, -40, -140)
        """
        p, q, d = self.p, self.q, self.d
        dd = _theta(d)
        return RootFraction(
            ONE_MINUS_4T * (_theta(p) * d - p * dd),
            ONE_MINUS_4T * (_theta(q) * d - q * dd) - Polynomial.of(0, 2) * q * d,
            ONE_MINUS_4T * d * d,
        )

    def expand(self, order: int) -> IntSeries:
        """The power series of this element, through t^order.

        With d = t^k·e and e(0) = c nonzero, the numerator p + q·S must
        vanish below t^k, and the quotient comes from the division
        recurrence by c, which must leave no remainder at any coefficient.
        Each numerator coefficient reads the deg q + 1 terms of S that meet
        q, so the cost is O(order·(deg q + deg e)).

        >>> (RootFraction.poly(1) / RootFraction.poly(2, -1)).expand(3)
        Traceback (most recent call last):
        ...
        ValueError: coefficient 0 of the series is not an integer
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        p, q, d = self.p.coeffs, self.q.coeffs, self.d.coeffs
        k = next(i for i, c in enumerate(d) if c)
        n = order + k
        # S behind deg q zeros: s[j : j + len(q)] is S_(j - deg q), ..., S_j
        s, rq = (0,) * (len(q) - 1) + sqrt_one_minus_4t(n).coeffs, q[::-1]
        num = [(p[j] if j < len(p) else 0) + sum(map(mul, rq, s[j : j + len(q)])) for j in range(n + 1)]
        if any(num[:k]):
            raise ValueError(f"the element has a pole at t = 0 (its denominator has t^{k})")
        e = d[k:]
        c, de = e[0], len(e) - 1
        re = e[de:0:-1]  # e_de, ..., e_1
        h: list[int] = []
        for j in range(order + 1):
            m = min(j, de)
            coeff, rest = divmod(num[k + j] - sum(map(mul, re[de - m :], h[j - m :])), c)
            if rest:
                raise ValueError(f"coefficient {j} of the series is not an integer")
            h.append(coeff)
        return IntSeries(tuple(h))


class ExactParts(NamedTuple):
    """The counting series as exact elements of Q(t, sqrt(1-4t))."""

    AM: RootFraction
    AB: RootFraction
    Abar: RootFraction
    AF: RootFraction
    Astar: RootFraction
    A: RootFraction


@lru_cache(maxsize=1)
def exact_parts() -> ExactParts:
    """Every part, built once on first use by the formulas that the
    series_* functions below state, and reduced to lowest terms as soon as
    it is built, so the parts after it are computed from the reduced one.

    >>> a = exact_parts().A  # (P - Q·S)/D of series_A_closed
    >>> a.p.coeffs, a.q.coeffs, a.d.coeffs
    ((2, -19, 62, -88, 74, -44, 16), (-2, 15, -31, 24, -6), (1, -11, 42, -68, 52, -16))
    """
    one, one_minus_t = RootFraction.poly(1), RootFraction.poly(1, -1)
    am = ((RootFraction.poly(1, -2) - RootFraction((), (1,), (1,))) / RootFraction.poly(0, 2)).reduced()
    ab = (one_minus_t * am / RootFraction.poly(0, 1) - one).reduced()
    square = ab * ab
    abar = (square.t_derivative() / (one - square)).reduced()
    af = (am / (one - ab)).reduced()
    star = (af.times_t() / one_minus_t).reduced()
    a = abar + star.t_derivative() / (one - star) + (one / one_minus_t).times_t().times_t()
    return ExactParts(am, ab, abar, af, star, a.reduced())


def series_AM(order: int) -> IntSeries:
    """Increasing staircase counts m_n: (1 - 2t - sqrt(1-4t)) / 2t.

    m_0 = 0 and m_n = Catalan(n) for n >= 1.

    >>> series_AM(5).coeffs
    (0, 1, 2, 5, 14, 42)
    """
    return exact_parts().AM.expand(order)


def series_AB(order: int) -> IntSeries:
    """Broken staircase counts b_n: (1-t)·A_M/t - 1, so b_n = m_{n+1} - m_n.

    >>> series_AB(5).coeffs
    (0, 1, 3, 9, 28, 90)
    """
    return exact_parts().AB.expand(order)


def series_Abar(order: int) -> IntSeries:
    """Fully supported spherical cycle-diagram counts:
    2·A_B·(t·dA_B/dt) / (1 - A_B²), with numerator t·d(A_B²)/dt.

    >>> series_Abar(4).coeffs
    (0, 0, 2, 18, 110)
    """
    return exact_parts().Abar.expand(order)


def series_AF(order: int) -> IntSeries:
    """Fully supported path-diagram counts f_n: A_M / (1 - A_B).

    >>> series_AF(5).coeffs
    (0, 1, 3, 11, 43, 173)
    """
    return exact_parts().AF.expand(order)


def series_Astar(order: int) -> IntSeries:
    """The bookkeeping series t·A_F / (1-t).

    >>> series_Astar(5).coeffs
    (0, 0, 1, 4, 15, 58)
    """
    return exact_parts().Astar.expand(order)


def series_A_assembled(order: int) -> IntSeries:
    """Spherical cycle-diagram counts a_n assembled from the parts:
    Ā + t·(A_*)'/(1 - A_*) + t²/(1-t).

    The three terms count diagrams by support: full support, proper
    nonempty support, and empty support (one diagram per n >= 2).

    >>> series_A_assembled(7).coeffs
    (0, 0, 5, 31, 173, 891, 4373, 20833)
    """
    return exact_parts().A.expand(order)


# The fixed polynomials P, Q, D of the closed form, in factored form.
P_FACTORS: tuple[tuple[int, ...], ...] = ((1, -4), (2, -11, 18, -16, 10, -4))
Q_FACTORS: tuple[tuple[int, ...], ...] = ((1, -1), (2, -1), (1, -6, 6))
D_FACTORS: tuple[tuple[int, ...], ...] = ((1, -1), (1, -4), (1, -6, 8, -4))


def series_A_closed(order: int) -> IntSeries:
    """Spherical cycle-diagram counts a_n from the closed form
    (P - Q·sqrt(1-4t)) / D, with the fixed polynomials

        P = (1-4t)(2-11t+18t²-16t³+10t⁴-4t⁵)
        Q = (1-t)(2-t)(1-6t+6t²)
        D = (1-t)(1-4t)(1-6t+8t²-4t³)

    stored as P_FACTORS, Q_FACTORS and D_FACTORS.  Each is multiplied out
    exactly and then truncated at the order:

    >>> for factors in (P_FACTORS, Q_FACTORS, D_FACTORS):
    ...     print(math.prod(map(Polynomial, factors), start=Polynomial.of(1)).coeffs)
    (2, -19, 62, -88, 74, -44, 16)
    (2, -15, 31, -24, 6)
    (1, -11, 42, -68, 52, -16)
    >>> series_A_closed(9).coeffs
    (0, 0, 5, 31, 173, 891, 4373, 20833, 97333, 448663)
    >>> series_A_closed(60) == series_A_assembled(60)
    True
    """
    exact = (math.prod(map(Polynomial, f), start=Polynomial.of(1)) for f in (P_FACTORS, Q_FACTORS, D_FACTORS))
    p, q, d = (IntSeries.of(order, *f.coeffs) for f in exact)
    return (p - q * sqrt_one_minus_4t(order)) / d


def alpha() -> float:
    """The real root of 1 - 6t + 8t² - 4t³ in (0, 0.3); a_n ~ α^(-n).

    >>> abs(alpha() - 0.228155) < 1e-6
    True
    """

    def q(t: float) -> float:
        return 1 + t * (-6 + t * (8 - 4 * t))

    lo, hi = 0.0, 0.3
    assert q(lo) > 0 > q(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if q(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2

