"""Integer polynomials in one variable, dense and exact.

The one exact polynomial of the package: Poincare polynomials in q, and
the numerators and denominators of the exact counting series in t.  It
has addition, subtraction, negation, multiplication, evaluation, the
palindromicity test q^deg * p(1/q) == p(q), and the Gaussian binomials
that are the Poincare polynomials of Grassmannians.
"""

from __future__ import annotations

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
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{k}" if c != 1 else f"q^{k}")
        return " + ".join(parts)


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
