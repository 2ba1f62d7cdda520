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
boundary.  So ws_i has length l(w) + 1 when w(i) < w(i+1) and l(w) - 1
otherwise, which lets a walk over windows track lengths without counting
inversions.

The support S(w), the letters of any reduced word, is read off the window:
s_i is missing from S(w) exactly when max(w(i-n+1), ..., w(i)) <= i.
Proof: the s_j with j != i generate the stabiliser of the integers <= i,
and by periodicity w maps them into themselves once it does so for the n
positions i-n+1..i; into is onto, since as many integers <= i leave the set
as enter it.  The maxima for all i come from one pass of prefix maxima of
w(1..i) and one of suffix maxima of w(i+1..n) - n.

For a proper subset K the minimal representative v of the coset w W_K is
w with the values on each block of positions sorted increasingly, a block
being a..a+m (periodically) for each run a..a+m-1 of K.  Proof: W_K
permutes the values within each block, and the increasing arrangement is
the only one with no right descent in K.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
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
        return AffinePermutation(self.n, _compose(self.n, self.window, other.window))

    def inverse(self) -> "AffinePermutation":
        return AffinePermutation(self.n, tuple(_inverse_window(self.window)))

    def times_s(self, i: int) -> "AffinePermutation":
        """Right multiplication by the simple reflection s_i."""
        n = self.n
        _require_letter(n, i)
        w = list(self.window)
        _swap(w, i)
        return AffinePermutation(n, tuple(w))

    def s_times(self, i: int) -> "AffinePermutation":
        """Left multiplication by s_i: swap the values i, i+1 mod n."""
        n = self.n
        _require_letter(n, i)
        lo, hi = i, (i + 1) % n
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
        """Whether w is the identity, read off the window: no length is counted."""
        return self.window == tuple(range(1, self.n + 1))

    @cached_attribute
    def right_descents(self) -> frozenset[int]:
        """Indices i with w(i) > w(i+1), reading w(0) = w(n) - n."""
        win = self.window
        return frozenset(i for i in range(self.n) if not _rises(win, i))

    @cached_attribute
    def reduced_word(self) -> tuple[int, ...]:
        """Reduced word by greedy right-descent stripping, smallest index first.

        Stripping s_i changes only whether i - 1, i and i + 1 (mod n) are
        descents, and no node below i was one, so the scan for the next
        smallest descent resumes at i - 1; after s_{n-1} it is at 0 when 0,
        the i + 1 that wraps, became a descent.  That is O(n + l) steps, not
        a rescan of n nodes per letter.

        >>> from_word(3, [2, 1]).reduced_word
        (2, 1)
        """
        n, win = self.n, list(self.window)
        letters: list[int] = []
        i = 0
        while i < n:
            if _rises(win, i):
                i += 1
                continue
            letters.append(i)
            _swap(win, i)
            i = i - 1 if i and (i < n - 1 or _rises(win, 0)) else 0
        return tuple(reversed(letters))

    @cached_attribute
    def support(self) -> frozenset[int]:
        """The set of letters appearing in any reduced word: the i with
        max(w(i-n+1), ..., w(i)) > i.

        >>> sorted(from_word(4, [2, 3, 2]).support)
        [2, 3]
        """
        return _nodes(self.n, _support_bits(self.window))

    def __repr__(self) -> str:
        return f"AffinePermutation({self.n}, {self.window})"


def identity(n: int) -> AffinePermutation:
    return AffinePermutation(n, tuple(range(1, n + 1)))


def _require_letter(n: int, i: int) -> None:
    """Reject an i that names none of the simple reflections s_0..s_{n-1}."""
    if not 0 <= i < n:
        raise ValueError(f"reflection index must be in 0..{n - 1}, got {i}")


def _rises(window: Sequence[int], i: int) -> bool:
    """Whether i is not a right descent: w(i) < w(i+1), with w(0) = w(n) - n."""
    return window[i - 1] - (0 if i else len(window)) < window[i]


def _support_bits(window: Sequence[int]) -> int:
    """The support S(w) as a bitmask over 0..n-1, from the window in O(n):
    bit i is set when max(w(1..i)) or max(w(i+1..n)) - n exceeds i (module
    docstring).  The prefix maximum starts from max(w(1..n)) - n, which
    decides i = 0 and never exceeds the larger of the pair after it."""
    n = len(window)
    suffix = list(accumulate(reversed(window), max))
    suffix.reverse()  # suffix[i] = max(w(i+1..n))
    bits, prefix = 0, suffix[0] - n
    for i, (value, high) in enumerate(zip(window, suffix)):
        if prefix > i or high - n > i:
            bits |= 1 << i
        if value > prefix:
            prefix = value
    return bits


def _nodes(n: int, bits: int) -> frozenset[int]:
    """The nodes of the n-cycle whose bits are set in a bitmask."""
    return frozenset(i for i in range(n) if bits >> i & 1)


def _mask(n: int, nodes: Iterable[int], name: str) -> int:
    """The bitmask of a set of nodes, the inverse of _nodes: the one check of
    every node set given to the package, whose ValueError names the set."""
    mask, bad = 0, []
    for v in nodes:
        if 0 <= v < n:
            mask |= 1 << v
        else:
            bad.append(v)
    if bad:
        raise ValueError(f"{name} nodes {sorted(set(bad))} outside 0..{n - 1}")
    return mask


def _inverse_window(window: Sequence[int]) -> list[int]:
    """The window of w⁻¹: w(i) = qn + r + 1 with 0 <= r < n gives w⁻¹(r + 1) = i - qn."""
    n = len(window)
    inv = [0] * n
    for i, v in enumerate(window, start=1):
        q, r = divmod(v - 1, n)
        inv[r] = i - q * n
    return inv


def _compose(n: int, f: Sequence[int], w: Iterable[int]) -> tuple[int, ...]:
    """The window of f * w from the period-n windows of f and w: f(w(i)) for each i."""
    return tuple([f[(v - 1) % n] + (v - 1) // n * n for v in w])


def _swap(window: list[int], i: int) -> None:
    """Right multiplication by s_i, in place on a window."""
    if i:
        window[i - 1], window[i] = window[i], window[i - 1]
    else:
        n = len(window)
        window[0], window[n - 1] = window[n - 1] - n, window[0] + n


def from_window(n: int, window: Sequence[int]) -> AffinePermutation:
    return AffinePermutation(n, tuple(window))


def from_word(n: int, word: Iterable[int]) -> AffinePermutation:
    """Product s_{i_1} * s_{i_2} * ... for word = [i_1, i_2, ...].

    >>> identity(2).times_s(0).window
    (0, 3)
    >>> from_word(2, [0]).window
    (0, 3)
    """
    win = list(identity(n).window)
    for i in word:
        _require_letter(n, i)
        _swap(win, i)
    return AffinePermutation(n, tuple(win))


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
    >>> cycle_runs(3, {0, 1, 2, 5})
    Traceback (most recent call last):
    ...
    ValueError: subset nodes [5] outside 0..2
    """
    return _runs(n, _mask(n, subset, "subset"))


def _runs(n: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """cycle_runs of a subset given as a bitmask over 0..n-1: each run walks
    on from a bit of run_starts, except the full cycle, which has none."""
    if mask == (1 << n) - 1:
        return (tuple(range(n)),)
    runs = []
    starts = run_starts(n, mask)
    while starts:
        low = starts & -starts
        starts ^= low
        start = low.bit_length() - 1
        run = [start]
        v = (start + 1) % n
        while mask >> v & 1:
            run.append(v)
            v = (v + 1) % n
        runs.append(tuple(run))
    return tuple(runs)


def longest_element(n: int, subset: Iterable[int]) -> AffinePermutation:
    """Longest element of W_subset for a proper subset of the cycle nodes.

    >>> longest_element(5, {0, 1, 3}).length
    4
    >>> longest_element(3, {1, 2}).reduced_word
    (1, 2, 1)
    """
    mask = _mask(n, subset, "subset")
    if mask == (1 << n) - 1:
        raise ValueError("subset must be proper: the full cycle generates an infinite group")
    return AffinePermutation(n, tuple(_longest_window(n, mask)))


def _longest_window(n: int, mask: int) -> list[int]:
    """The window of the longest element of W_K, K a proper subset of the
    nodes given as a bitmask: it reverses the block of each run of K."""
    win = list(range(1, n + 1))
    for comp in _runs(n, mask):
        # nodes v..v+m-1 generate the permutations of positions v..v+m, and
        # the longest one reverses them: w(v + k) = v + m - k, periodically
        v, m = comp[0], len(comp)
        for k in range(m + 1):
            q, r = divmod(v + k - 1, n)
            win[r] = v + m - k - q * n
    return win


def coset_decompose(w: AffinePermutation, K: Iterable[int]) -> tuple[AffinePermutation, AffinePermutation]:
    """Parabolic decomposition w = v * u with v in W^K and u in W_K.

    v is the minimal-length representative of the coset w W_K, so v has no
    right descents in K, and length(w) = length(v) + length(u).  Each run
    a..a+m-1 of a proper K permutes the positions a..a+m, so v sorts the
    values of w on each such block, and u sends the block position holding
    the j-th smallest value to the j-th position of the block.  When K holds
    every node, v = e and u = w.

    >>> v, u = coset_decompose(from_word(4, [2, 1]), {1})
    >>> v.reduced_word, u.reduced_word
    ((2,), (1,))
    """
    n = w.n
    ks = _mask(n, K, "K")
    if ks == (1 << n) - 1:
        return identity(n), w
    values = [w.apply(p) for p in range(2 * n)]
    vwin, uwin, _ = _coset_cut(n, values, ks)
    return AffinePermutation(n, tuple(vwin)), AffinePermutation(n, tuple(uwin))


def _coset_cut(
    n: int, values: Sequence[int], ks: int
) -> tuple[list[int], list[int], list[tuple[int, list[int]]]]:
    """coset_decompose on windows, from values[p] = w(p) for 0 <= p < 2n and
    a proper K as a bitmask; the block a..a+m of each run a..a+m-1 that
    _runs lists lies in 0..2n-2.  Returns the windows of v and u and, for
    each run, the pair (a, order): order lists the block positions by
    increasing value of w, so v(a + j) = w(order[j]) and u sends order[j]
    to a + j, both read back into the window periodically."""
    vwin, uwin, orders = list(values[1 : n + 1]), list(range(1, n + 1)), []
    for run in _runs(n, ks):
        a = run[0]
        positions = range(a, a + len(run) + 1)
        order = sorted(positions, key=values.__getitem__)
        for target, p in zip(positions, order):
            q, r = divmod(target - 1, n)
            vwin[r] = values[p] - q * n
            q, r = divmod(p - 1, n)
            uwin[r] = target - q * n
        orders.append((a, order))
    return vwin, uwin, orders


# Lower intervals are walked only below elements of at most this length:
# the interval of an element of length l can hold up to 2**l elements.
INTERVAL_CAP = 16


def _quotient_walk(w: AffinePermutation, jbits: int) -> dict[tuple[int, ...], int]:
    """The inverses of the x <= w in W^J, J a bitmask, as a new dict from the
    window of each x⁻¹ to its length; BudgetExceeded above INTERVAL_CAP.

    Every x <= w has a reduced word occurring as a subword of one fixed
    reduced word of w.  So a scan of that word from right to left, which
    puts the current letter s_i on the left of every x it has so far when
    that adds 1 to the length, collects the whole lower interval.  On
    y = x⁻¹ the step is y s_i, an s_i swap of the window, taken when
    y(i) < y(i+1).

    The scan keeps only W^J.  That is sound because W^J is closed under
    right factors: if x = x'z with lengths adding and z had a right descent
    j in J, so would x.  The letters of x's subword that the scan adds
    after s_i is placed build x from its right factors, so each of them
    is in W^J when x is, and each was kept.

    x is in W^J when y has no left descent in J, and node j mod n is a left
    descent of y when the value j + 1 sits left of the value j in y.  The
    swap y s_i with a = y(i) < b = y(i+1) moves only the values a + kn and
    b + kn, each by one position, so it can change the relative place of
    two values only if they are a + kn and b + k'n.  For k != k' their
    positions, i + kn or i + 1 + kn and i + k'n or i + 1 + k'n, are n - 1
    or more apart before and after; for k = k' the order flips, from a
    left of b to b left of a.  So y s_i gains exactly one new left descent,
    a mod n, when b = a + 1, and keeps its left descents otherwise: an O(1)
    test per step, and no window is inverted back.

    >>> w = from_word(4, [1, 2])  # window (2, 3, 1, 4), inverse (3, 1, 2, 4)
    >>> sorted(_quotient_walk(w, 0).items())
    [((1, 2, 3, 4), 0), ((1, 3, 2, 4), 1), ((2, 1, 3, 4), 1), ((3, 1, 2, 4), 2)]
    >>> sorted(_quotient_walk(w, 0b10).values())  # J = {1}
    [0, 1, 2]
    """
    if w.length > INTERVAL_CAP:
        raise BudgetExceeded(f"interval of an element of length {w.length} exceeds cap {INTERVAL_CAP}")
    n = w.n
    lengths = {tuple(range(1, n + 1)): 0}
    for i in reversed(w.reduced_word):
        grown = {}
        for y, length in lengths.items():
            a, b = y[i - 1] - (0 if i else n), y[i]  # y(i), y(i+1), with y(0) = y(n) - n
            if a < b and not (b == a + 1 and jbits >> a % n & 1):
                z = list(y)
                _swap(z, i)
                grown[tuple(z)] = length + 1
        lengths.update(grown)
    return lengths


def _require_quotient(w: AffinePermutation, J: Iterable[int]) -> int:
    """The bitmask of J (_mask), rejecting a J that holds a right descent of w."""
    jbits = _mask(w.n, J, "J")
    bad = sorted(i for i in w.right_descents if jbits >> i & 1)
    if bad:
        raise ValueError(f"w has right descents {bad} in J: not in W^J")
    return jbits


def poincare_polynomial(w: AffinePermutation, J: Iterable[int] = ()) -> Polynomial:
    """Rank generating polynomial of {x in W^J : x <= w}, from the lengths
    of _quotient_walk, which walks W^J only, on inverse windows.

    >>> str(poincare_polynomial(longest_element(4, {1, 2})))
    '1 + 2*q + 2*q^2 + q^3'
    """
    return Polynomial.from_length_counts(Counter(_quotient_walk(w, _require_quotient(w, J)).values()))
