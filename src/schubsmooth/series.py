"""Exact truncated power series and the diagram-counting generating functions.

All coefficients are arbitrary-precision integers and every operation is
exact; division is defined only for divisors with constant term 1 or -1,
which covers every denominator appearing here.  The series of interest:

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
from typing import Iterable


@dataclass(frozen=True)
class IntSeries:
    """Integer power series known exactly through t^order.

    Binary operations truncate to the shorter operand's order.  Products and
    quotients skip the terms past an operand's degree: O(order·degree) each.

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

    def truncate(self, order: int) -> "IntSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return IntSeries(self.coeffs[: order + 1])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntSeries") -> "IntSeries":
        return IntSeries(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        return IntSeries(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "IntSeries":
        return IntSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        n = min(self.order, other.order)
        da, db = min(self.degree, n), min(other.degree, n)
        a, rb = self.coeffs, other.coeffs[n::-1]  # rb[n - j] is other[j]
        out = [0] * (n + 1)
        for k in range(min(n, da + db) + 1):
            lo, hi = max(0, k - db), min(k, da) + 1
            out[k] = sum(map(mul, a[lo:hi], rb[n - k + lo : n - k + hi]))
        return IntSeries(tuple(out))

    def divexact(self, k: int) -> "IntSeries":
        """Divide every coefficient by the integer k, exactly."""
        if any(c % k for c in self.coeffs):
            raise ValueError(f"coefficients are not all divisible by {k}")
        return IntSeries(tuple(c // k for c in self.coeffs))

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

    # -- calculus and shifts -----------------------------------------------

    def t_derivative(self) -> "IntSeries":
        """The operator t·d/dt, sending c_n to n·c_n (order preserved).

        >>> IntSeries.of(3, 7, 1, 1, 1).t_derivative().coeffs
        (0, 1, 2, 3)
        """
        return IntSeries(tuple(n * c for n, c in enumerate(self.coeffs)))

    def shift_up(self, k: int = 1) -> "IntSeries":
        """Multiply by t^k; all coefficients stay exactly known."""
        return IntSeries((0,) * k + self.coeffs)

    def shift_down(self, k: int = 1) -> "IntSeries":
        """Divide by t^k; the k low coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise ValueError(f"series is not divisible by t^{k}")
        if self.order < k:
            raise ValueError("nothing left after the shift")
        return IntSeries(self.coeffs[k:])


def catalan(n: int) -> int:
    """The n-th Catalan number.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=8)
def sqrt_one_minus_4t(order: int) -> IntSeries:
    """The integer series S with S² = 1 - 4t, S(0) = 1.

    Coefficients 1, -2, -2, -4, -10, ... (-2·Catalan(k-1) for k >= 1), each
    from the last by s_k = s_(k-1)·2(2k-3)/k.

    >>> sqrt_one_minus_4t(5).coeffs
    (1, -2, -2, -4, -10, -28)
    >>> (sqrt_one_minus_4t(80) * sqrt_one_minus_4t(80)).coeffs == IntSeries.of(80, 1, -4).coeffs
    True
    """
    out = [1]
    for k in range(1, order + 1):
        out.append(out[-1] * 2 * (2 * k - 3) // k)
    return IntSeries(tuple(out))


@lru_cache(maxsize=8)
def series_AM(order: int) -> IntSeries:
    """Increasing staircase counts m_n: (1 - 2t - sqrt(1-4t)) / 2t.

    m_0 = 0 and m_n = Catalan(n) for n >= 1.

    >>> series_AM(5).coeffs
    (0, 1, 2, 5, 14, 42)
    """
    num = IntSeries.of(order + 1, 1, -2) - sqrt_one_minus_4t(order + 1)
    return num.shift_down(1).divexact(2)


@lru_cache(maxsize=8)
def series_AB(order: int) -> IntSeries:
    """Broken staircase counts b_n: (1-t)·A_M/t - 1, so b_n = m_{n+1} - m_n.

    >>> series_AB(5).coeffs
    (0, 1, 3, 9, 28, 90)
    """
    am_over_t = series_AM(order + 1).shift_down(1)
    return IntSeries.of(order, 1, -1) * am_over_t - IntSeries.one(order)


@lru_cache(maxsize=8)
def series_Abar(order: int) -> IntSeries:
    """Fully supported spherical cycle-diagram counts:
    2·A_B·(t·dA_B/dt) / (1 - A_B²), with numerator t·d(A_B²)/dt.

    >>> series_Abar(4).coeffs
    (0, 0, 2, 18, 110)
    """
    b = series_AB(order)
    square = b * b
    return square.t_derivative() / (IntSeries.one(order) - square)


@lru_cache(maxsize=8)
def series_AF(order: int) -> IntSeries:
    """Fully supported path-diagram counts f_n: A_M / (1 - A_B).

    >>> series_AF(5).coeffs
    (0, 1, 3, 11, 43, 173)
    """
    return series_AM(order) / (IntSeries.one(order) - series_AB(order))


@lru_cache(maxsize=8)
def series_Astar(order: int) -> IntSeries:
    """The bookkeeping series t·A_F / (1-t).

    >>> series_Astar(5).coeffs
    (0, 0, 1, 4, 15, 58)
    """
    t_af = series_AF(order).shift_up(1).truncate(order)
    return t_af / IntSeries.of(order, 1, -1)


@lru_cache(maxsize=8)
def series_A_assembled(order: int) -> IntSeries:
    """Spherical cycle-diagram counts a_n assembled from the parts:
    Ā + t·(A_*)'/(1 - A_*) + t²/(1-t).

    The three terms count diagrams by support: full support, proper
    nonempty support, and empty support (one diagram per n >= 2).

    >>> series_A_assembled(7).coeffs
    (0, 0, 5, 31, 173, 891, 4373, 20833)
    """
    star = series_Astar(order)
    middle = star.t_derivative() / (IntSeries.one(order) - star)
    tail = (IntSeries.one(order) / IntSeries.of(order, 1, -1)).shift_up(2).truncate(order)
    return series_Abar(order) + middle + tail


def _polyseries(order: int, *factors: Iterable[int]) -> IntSeries:
    return math.prod((IntSeries.of(order, *f) for f in factors), start=IntSeries.one(order))


# The fixed polynomials P, Q, D of the closed form, in factored form.
P_FACTORS: tuple[tuple[int, ...], ...] = ((1, -4), (2, -11, 18, -16, 10, -4))
Q_FACTORS: tuple[tuple[int, ...], ...] = ((1, -1), (2, -1), (1, -6, 6))
D_FACTORS: tuple[tuple[int, ...], ...] = ((1, -1), (1, -4), (1, -6, 8, -4))


@lru_cache(maxsize=8)
def series_A_closed(order: int) -> IntSeries:
    """Spherical cycle-diagram counts a_n from the closed form
    (P - Q·sqrt(1-4t)) / D, with the fixed polynomials

        P = (1-4t)(2-11t+18t²-16t³+10t⁴-4t⁵)
        Q = (1-t)(2-t)(1-6t+6t²)
        D = (1-t)(1-4t)(1-6t+8t²-4t³)

    stored as P_FACTORS, Q_FACTORS and D_FACTORS.

    >>> _polyseries(3, *P_FACTORS).coeffs
    (2, -19, 62, -88)
    >>> _polyseries(3, *Q_FACTORS).coeffs
    (2, -15, 31, -24)
    >>> _polyseries(3, *D_FACTORS).coeffs
    (1, -11, 42, -68)
    >>> series_A_closed(9).coeffs
    (0, 0, 5, 31, 173, 891, 4373, 20833, 97333, 448663)
    >>> series_A_closed(60) == series_A_assembled(60)
    True
    """
    p, q, d = (_polyseries(order, *f) for f in (P_FACTORS, Q_FACTORS, D_FACTORS))
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

