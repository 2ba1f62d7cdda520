"""Affine permutations in window notation.

An element w of the affine symmetric group of period n is a bijection of the
integers with w(i + n) = w(i) + n for all i and w(1) + ... + w(n) equal to
n(n+1)/2.  It is stored by its window [w(1), ..., w(n)]; the residues of the
window entries mod n are pairwise distinct.

The simple reflections s_0, ..., s_{n-1} are the nodes of an n-cycle (for
n = 2 the two nodes are joined by a single edge).  s_i transposes the
integers congruent to i and i+1 that are adjacent, periodically; on windows,
right multiplication by s_i with 1 <= i <= n-1 swaps positions i and i+1,
while s_0 swaps positions n and 1 across the window boundary with a +-n
shift.  Elements supported on a proper subset of the cycle generate finite
symmetric groups; full support means the element needs every s_i.

Length is counted by inversions between window classes,

    length(w) = sum over 1 <= i < j <= n of |floor((w(j) - w(i)) / n)|,

and i is a right descent iff w(i) > w(i+1), reading w(0) = w(n) - n at the
boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded
from .poly import Polynomial


class cached_attribute:
    """A method read as an attribute and computed once per object.

    The first access stores the value in the object's ``__dict__``, which
    later lookups find before this non-data descriptor.  Unlike
    ``functools.cached_property`` on Python 3.11 it takes no lock.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        # doctest collects an attribute's examples only through these two
        self.__doc__ = func.__doc__
        self.__module__ = func.__module__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class AffinePermutation:
    """An affine permutation with period n, stored by its window.

    >>> w = from_word(4, [2, 3, 1, 2])
    >>> w.window
    (3, 4, 1, 2)
    >>> w.length
    4
    >>> sorted(w.right_descents)
    [2]
    >>> w * w.inverse() == identity(4)
    True
    """

    n: int
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 2:
            raise ValueError(f"period must be at least 2, got {n}")
        if len(self.window) != n:
            raise ValueError(f"window must have length {n}, got {len(self.window)}")
        if len({v % n for v in self.window}) != n:
            raise ValueError(f"window residues mod {n} must be pairwise distinct")
        if sum(self.window) != n * (n + 1) // 2:
            raise ValueError(f"window must sum to {n * (n + 1) // 2}")

    def apply(self, i: int) -> int:
        """Value w(i) for any integer i, via w(i + n) = w(i) + n.

        >>> from_word(3, [0, 1]).apply(4) - from_word(3, [0, 1]).apply(1)
        3
        """
        n = self.n
        r = (i - 1) % n  # 0-based window index
        q = (i - 1 - r) // n
        return self.window[r] + q * n

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        if self.n != other.n:
            raise ValueError(f"period mismatch: {self.n} vs {other.n}")
        n, win = self.n, self.window
        return AffinePermutation(n, tuple([win[(v - 1) % n] + (v - 1) // n * n for v in other.window]))

    def inverse(self) -> "AffinePermutation":
        n = self.n
        win = [0] * n
        for i, v in enumerate(self.window, start=1):
            r = (v - 1) % n
            q = (v - 1 - r) // n
            win[r] = i - q * n
        return AffinePermutation(n, tuple(win))

    def times_s(self, i: int) -> "AffinePermutation":
        """Right multiplication by the simple reflection s_i."""
        n = self.n
        if not 0 <= i < n:
            raise ValueError(f"reflection index must be in 0..{n - 1}, got {i}")
        w = list(self.window)
        if i == 0:
            w[0], w[n - 1] = w[n - 1] - n, w[0] + n
        else:
            w[i - 1], w[i] = w[i], w[i - 1]
        return AffinePermutation(n, tuple(w))

    def s_times(self, i: int) -> "AffinePermutation":
        """Left multiplication by s_i: swap the values i, i+1 mod n."""
        n = self.n
        if not 0 <= i < n:
            raise ValueError(f"reflection index must be in 0..{n - 1}, got {i}")
        lo, hi = i % n, (i + 1) % n
        w = []
        for v in self.window:
            r = v % n
            if r == lo:
                w.append(v + 1)
            elif r == hi:
                w.append(v - 1)
            else:
                w.append(v)
        return AffinePermutation(n, tuple(w))

    @cached_attribute
    def length(self) -> int:
        n, win = self.n, self.window
        total = 0
        for j in range(1, n):
            vj = win[j]
            for i in range(j):
                d = vj - win[i]
                total += abs(d // n)
        return total

    def is_identity(self) -> bool:
        return self.length == 0

    @cached_attribute
    def right_descents(self) -> frozenset[int]:
        """Indices i with w(i) > w(i+1), reading w(0) = w(n) - n."""
        n, win = self.n, self.window
        out = {i for i in range(1, n) if win[i - 1] > win[i]}
        if win[n - 1] - n > win[0]:
            out.add(0)
        return frozenset(out)

    @cached_attribute
    def left_descents(self) -> frozenset[int]:
        return self.inverse().right_descents

    @cached_attribute
    def reduced_word(self) -> tuple[int, ...]:
        """Reduced word by greedy right-descent stripping, smallest index first.

        >>> from_word(3, [2, 1]).reduced_word
        (2, 1)
        """
        letters: list[int] = []
        w = self
        while True:
            d = w.right_descents
            if not d:
                break
            i = min(d)
            letters.append(i)
            w = w.times_s(i)
        return tuple(reversed(letters))

    @cached_attribute
    def support(self) -> frozenset[int]:
        """The set of letters appearing in any reduced word."""
        return frozenset(self.reduced_word)

    def __repr__(self) -> str:
        return f"AffinePermutation({self.n}, {self.window})"


def identity(n: int) -> AffinePermutation:
    return AffinePermutation(n, tuple(range(1, n + 1)))


def from_window(n: int, window: Sequence[int]) -> AffinePermutation:
    return AffinePermutation(n, tuple(window))


def from_word(n: int, word: Iterable[int]) -> AffinePermutation:
    """Product s_{i_1} * s_{i_2} * ... for word = [i_1, i_2, ...].

    >>> identity(2).times_s(0).window
    (0, 3)
    >>> from_word(2, [0]).window
    (0, 3)
    """
    w = identity(n)
    for i in word:
        w = w.times_s(i)
    return w


def ball_levels(n: int) -> Iterator[frozenset[AffinePermutation]]:
    """The elements of length 0, 1, 2, ... of the affine symmetric group of
    period n, one set per length, without end.

    Every element of length l + 1 is w * s_i for some w of length l with i
    not a right descent of w, so each level comes from the one before it.

    >>> levels = ball_levels(3)
    >>> [len(next(levels)) for _ in range(4)]
    [1, 3, 6, 9]
    """
    level = frozenset({identity(n)})
    while True:
        yield level
        level = frozenset(w.times_s(i) for w in level for i in range(n) if i not in w.right_descents)


def run_starts(n: int, mask: int) -> int:
    """The first vertex of each maximal run of a subset of the n-cycle, with
    subset and result as bitmasks over 0..n-1: bit v is set when v is in the
    subset and v - 1 mod n is not.  The full cycle has none, so a subset is
    connected exactly when at most one bit is set.

    >>> bin(run_starts(6, 0b101011))  # {0, 1, 3, 5}: runs start at 3 and 5
    '0b101000'
    """
    return mask & ~(mask << 1 | mask >> (n - 1))


def cycle_runs(n: int, subset: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Maximal runs of consecutive vertices of a subset of the n-cycle 0..n-1.

    Each run is listed in cyclic order, wrap-around included, and the runs
    are sorted by first vertex; the full cycle is the single run (0..n-1).
    A path on 1..n is the (n+1)-cycle with vertex 0 absent.

    >>> cycle_runs(6, {0, 1, 3, 5})
    ((3,), (5, 0, 1))
    >>> cycle_runs(3, {0, 1, 2})
    ((0, 1, 2),)
    """
    vs = subset if isinstance(subset, (set, frozenset)) else set(subset)
    if len(vs) == n:
        return (tuple(range(n)),)
    runs = []
    starts = run_starts(n, sum(1 << v for v in vs))
    while starts:
        low = starts & -starts
        starts ^= low
        start = low.bit_length() - 1
        run = [start]
        v = (start + 1) % n
        while v in vs:
            run.append(v)
            v = (v + 1) % n
        runs.append(tuple(run))
    return tuple(runs)


def longest_length(n: int, subset: Iterable[int]) -> int:
    """Length of the longest element of the parabolic subgroup W_subset.

    Each connected run of m nodes is a copy of the symmetric group S_{m+1},
    contributing m(m+1)/2.
    """
    sub = frozenset(subset)
    if len(sub) >= n:
        raise ValueError("subset must be proper: the full cycle generates an infinite group")
    return sum(len(c) * (len(c) + 1) // 2 for c in cycle_runs(n, sub))


def longest_element(n: int, subset: Iterable[int]) -> AffinePermutation:
    """Longest element of W_subset for a proper subset of the cycle nodes.

    >>> longest_element(5, {0, 1, 3}).length
    4
    >>> longest_element(3, {1, 2}).reduced_word
    (1, 2, 1)
    """
    sub = frozenset(subset)
    if any(not 0 <= v < n for v in sub):
        raise ValueError(f"subset members must be node indices in 0..{n - 1}")
    if len(sub) >= n:
        raise ValueError("subset must be proper: the full cycle generates an infinite group")
    win = list(range(1, n + 1))
    for comp in cycle_runs(n, sub):
        # nodes v..v+m-1 generate the permutations of positions v..v+m, and
        # the longest one reverses them: w(v + k) = v + m - k, periodically
        v, m = comp[0], len(comp)
        for k in range(m + 1):
            q, r = divmod(v + k - 1, n)
            win[r] = v + m - k - q * n
    return AffinePermutation(n, tuple(win))


def coset_decompose(w: AffinePermutation, K: Iterable[int]) -> tuple[AffinePermutation, AffinePermutation]:
    """Parabolic decomposition w = v * u with v in W^K and u in W_K.

    v is the minimal-length representative of the coset w W_K, so v has no
    right descents in K, and length(w) = length(v) + length(u).

    >>> v, u = coset_decompose(from_word(4, [2, 1]), {1})
    >>> v.reduced_word, u.reduced_word
    ((2,), (1,))
    """
    ks = frozenset(K)
    v = w
    stripped: list[int] = []
    while True:
        d = v.right_descents & ks
        if not d:
            break
        i = min(d)
        stripped.append(i)
        v = v.times_s(i)
    u = from_word(w.n, reversed(stripped))
    return v, u


# Lower intervals are built only below elements of at most this length: the
# interval of an element of length l can hold up to 2**l elements.
INTERVAL_CAP = 16


@lru_cache(maxsize=512)  # one benchmark queries pass fills about 400 entries
def _lower_interval(w: AffinePermutation) -> frozenset[AffinePermutation]:
    if w.length > INTERVAL_CAP:
        raise BudgetExceeded(f"interval of an element of length {w.length} exceeds cap {INTERVAL_CAP}")
    elems: set[AffinePermutation] = {identity(w.n)}
    for i in w.reduced_word:
        extra = set()
        for x in elems:
            y = x.times_s(i)
            if y.length > x.length:
                extra.add(y)
        elems |= extra
    return frozenset(elems)


def bruhat_lower_interval(w: AffinePermutation, J: Iterable[int] = ()) -> frozenset[AffinePermutation]:
    """All x <= w lying in W^J (no right descents in J).

    Every x <= w has a reduced word occurring as a subword of one fixed
    reduced word of w, so a left-to-right scan keeping length-increasing
    products collects the whole lower interval.

    >>> len(bruhat_lower_interval(longest_element(4, {1, 2}), ()))
    6
    """
    js = frozenset(J)
    interval = _lower_interval(w)
    if not js:
        return interval
    return frozenset(x for x in interval if not (x.right_descents & js))


def poincare_polynomial(w: AffinePermutation, J: Iterable[int] = ()) -> Polynomial:
    """Rank generating polynomial of {x in W^J : x <= w}.

    >>> str(poincare_polynomial(longest_element(4, {1, 2})))
    '1 + 2*q + 2*q^2 + q^3'
    """
    js = frozenset(J)
    if w.right_descents & js:
        raise ValueError(f"w has right descents {sorted(w.right_descents & js)} in J: not in W^J")
    counts = Counter(x.length for x in bruhat_lower_interval(w, js))
    return Polynomial.from_length_counts(counts)
