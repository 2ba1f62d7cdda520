"""Pattern avoidance, spiral elements, and smoothness of affine Schubert varieties.

An affine permutation w contains a finite pattern p = (p_1, ..., p_k) if there
are integers i_1 < ... < i_k with (w(i_1), ..., w(i_k)) in the same relative
order as p.  The Schubert variety of w is smooth iff w avoids both 3412 and
4231; it is rationally smooth iff w additionally may be a twisted spiral
element, i.e. a spiral x(i, m) or y(i, m) with m = k(n-1), k >= 2, times the
longest element of the parabolic on S minus {s_i}.

Spirals are read off their windows.  Read from the right, the letters
s_i, s_{i+1}, ... of x(i, m) carry position i up one step each and meet
every other position once in n - 1 letters, moving it down one: position
i (n for i = 0) rises by m, every other position falls by k.  Mirrored,
y(i, m) lowers position i + 1 by m and raises the others by k.  A twisted
spiral w has D_R(w) = K = S minus {s_i}, so w = v w0(K) with the lengths
adding and v minimal in w W_K; w0(K) is an involution, so v = w w0(K).

The scan is windowed.  Put D = max_i |w(i) - i| (shift-invariant).  Any
inversion i < j, w(i) > w(j) has j - i < 2D, and 3412 and 4231 both start
above where they end, so every occurrence fits inside a window of width 2D.
It therefore suffices to scan starting positions i_1 in one period.

No generic pattern search is needed.  An occurrence at positions
a < b < c < d has the inversion (a, d) as its first and last positions,
and both patterns are read off the values strictly between them.  4231 is
two values in (w(d), w(a)) that increase; 3412 is a value above w(a)
before a value below w(d).  One pass over (a, d) answers both, keeping
only the running minimum of the values in (w(d), w(a)) and whether a value
above w(a) has been seen.  The windowed search for an arbitrary pattern
lives in the test oracles, as the reference this scan is checked against.

The smooth elements form a finite set, because a 3412-avoider moves no
integer far: |w(i) - i| <= 2(n-1) for every i.  Proof sketch.  Every
affine permutation has

    #{j > i : w(j) < w(i)} - #{j < i : w(j) > w(i)} = w(i) - i,

so if D = w(i) - i > 0, at least D positions j > i have w(j) < w(i).  At
most n - 1 of them lie in (i, i + n), and none is congruent to i.  Two of
the others, c < d beyond i + n, have w(c) > w(d), since otherwise
(i, i + n, c, d) is a 3412.  Positions of one residue class have
increasing values, so the others take distinct residues, at most n - 1 of
them, and D <= 2(n-1).  3412 is its own inverse, so the argument applied
to w^-1 bounds i - w(i).  The bound is attained: the window
(3 - 2n, n + 2, n + 1, ..., 4) is smooth for n = 2..12.  It sharpens the
finiteness of 3412-avoiders shown by Crites (Enumerating pattern
avoidance for affine permutations, EJC 2010).

The smooth elements of period n grow from those of period n - 1.  Delete
from w the positions and the values of the residue class of position n
and of c = w(n), and renumber both increasingly.  A shift by n becomes a
shift by n - 1, so this gives, up to a shift to window sum n(n-1)/2, an
affine permutation p of period n - 1, the flattening of w.  It keeps the
relative order of positions and of values, so a 3412 or 4231 in p is one
in w: p is smooth when w is.  Conversely p and c fix w.  Let r = c mod n,
res list the other residues mod n, and phi0(x) = n floor(x / (n-1)) +
res[x mod (n-1)], the increasing bijection from Z onto Z minus c + nZ
with phi0(x + n - 1) = phi0(x) + n.  Every such bijection is
x -> phi0(x + t), so w(i) = phi0(p(i) + t) for i < n and one integer t.
The p(i) + t, i < n, take each residue mod n - 1 once and sum to
(n-1)n/2 + (n-1)t, so their quotients by n - 1 sum to 1 + t, their
images under res sum to n(n-1)/2 - r, and the window sum
n(1 + t) + n(n-1)/2 - r + c = n(n+1)/2 gives t = (r - c)/n = -floor(c/n).
With |c - n| <= 2(n-1), every smooth element of period n is the window of
one pair (p, c) with p smooth of period n - 1, and every such pair gives
a window with distinct residues and the right sum; period 1 has the one
window (1,).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .affine import AffinePermutation, from_word, identity, longest_element
from .errors import BudgetExceeded


def is_smooth(w: AffinePermutation) -> bool:
    """Smoothness of the Schubert variety of w: avoid 3412 and 4231
    (_avoids_3412_4231 on the window).

    >>> is_smooth(from_word(3, [0, 1, 2]))
    True
    >>> is_smooth(from_word(2, [1, 0, 1]))
    False
    """
    return _avoids_3412_4231(w.n, w.window)


def _avoids_3412_4231(n: int, win: tuple[int, ...]) -> bool:
    """Whether the window of an affine permutation of period n avoids 3412
    and 4231; no element is built.

    Each inversion (a, d) with a in one period and d - a < 2D gets one pass
    over the positions between them, which finds a 4231 or a 3412 with
    first position a and last position d (see the module docstring).
    When D > 2(n-1) the displacement bound settles it: w contains 3412.
    """
    reach = max(abs(v - i) for i, v in enumerate(win, start=1))
    if reach == 0:
        return True  # the identity
    if reach > 2 * (n - 1):
        return False  # a 3412-avoider moves no integer this far (module docstring)
    # vals[k] = w(k + 1); an occurrence starting at a <= n ends before a + 2 * reach
    vals = [win[k % n] + k // n * n for k in range(n + 2 * reach - 1)]
    for a in range(n):
        top = vals[a]
        for d in range(a + 3, a + 2 * reach):
            bottom = vals[d]
            if bottom > top:
                continue
            above = False  # some value above w(a) so far: the 4 of a 3412
            low = top  # running minimum of the values in (w(d), w(a))
            for v in vals[a + 1 : d]:
                if v > top:
                    above = True
                elif v < bottom:
                    if above:
                        return False  # 3412
                elif v > low:
                    return False  # 4231
                else:
                    low = v
    return True


@dataclass(frozen=True)
class SpiralSpec:
    """Parameters of a spiral element: base node i, winding count k, direction.

    The element is x(i, m) = s_{i+m-1} ... s_{i+1} s_i for direction "x" and
    y(i, m) = s_{i-m+1} ... s_{i-1} s_i for direction "y", indices mod n,
    with m = k(n-1).
    """

    i: int
    k: int
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("x", "y"):
            raise ValueError(f"direction must be 'x' or 'y', got {self.direction!r}")
        if self.k < 2:
            raise ValueError(f"winding count must be at least 2, got {self.k}")


def spiral(spec: SpiralSpec, n: int) -> AffinePermutation:
    """The spiral element of winding count k at node i (module docstring).

    >>> spiral(SpiralSpec(0, 2, "x"), 3).reduced_word
    (0, 2, 1, 0)
    """
    if not 0 <= spec.i < n:
        raise ValueError(f"base node must be in 0..{n - 1}, got {spec.i}")
    k, m = spec.k, spec.k * (n - 1)
    at, sign = ((spec.i - 1) % n, 1) if spec.direction == "x" else (spec.i, -1)
    win = [p - sign * k for p in range(1, n + 1)]
    win[at] = at + 1 + sign * m
    w = AffinePermutation(n, tuple(win))
    assert w.length == m, "spiral words are reduced"
    return w


def twisted_spiral(spec: SpiralSpec, n: int) -> AffinePermutation:
    """spiral(spec) times the longest element of the parabolic on S minus s_i."""
    others = frozenset(range(n)) - {spec.i}
    return spiral(spec, n) * longest_element(n, others)


def is_twisted_spiral(w: AffinePermutation) -> bool:
    """Recognize twisted spiral elements.

    Right descent set S minus {s_i}, and w w0(S minus {s_i}) a spiral with
    k >= 2 (module docstring).

    >>> is_twisted_spiral(twisted_spiral(SpiralSpec(0, 2, "x"), 3))
    True
    >>> is_twisted_spiral(identity(3))
    False
    """
    n = w.n
    if len(w.right_descents) != n - 1:
        return False
    (i,) = frozenset(range(n)) - w.right_descents
    v = w * longest_element(n, frozenset(range(n)) - {i})
    k, rest = divmod(v.length, n - 1)
    return rest == 0 and k >= 2 and any(v == spiral(SpiralSpec(i, k, d), n) for d in ("x", "y"))


def is_rationally_smooth(w: AffinePermutation) -> bool:
    """Rational smoothness: smooth, or a twisted spiral element."""
    return is_smooth(w) or is_twisted_spiral(w)


PERIOD_MAX = 7  # n = 7 checks 109,325 candidates, n = 8 604,157 in about four times as long


@lru_cache(maxsize=8)
def enumerate_smooth(n: int) -> frozenset[AffinePermutation]:
    """The smooth elements of the affine symmetric group of period n, n at
    most PERIOD_MAX (BudgetExceeded above).  Each smooth p of period n - 1
    and each c with |c - n| <= 2(n-1) give one window (phi0(p(1) + t), ...,
    phi0(p(n-1) + t), c), kept when it avoids 3412 and 4231 (module
    docstring); only a kept window is built as a checked element.

    >>> len(enumerate_smooth(3))
    31
    """
    if n < 2:
        raise ValueError(f"period must be in 2..{PERIOD_MAX}, got {n}")
    if n > PERIOD_MAX:
        raise BudgetExceeded(f"smooth enumeration capped at n = {PERIOD_MAX}, got {n}")
    below = [p.window for p in enumerate_smooth(n - 1)] if n > 2 else [(1,)]
    m, bound = n - 1, 2 * (n - 1)
    found = set()
    for c in range(n - bound, n + bound + 1):
        res = [v for v in range(n) if v != c % n]
        t = -(c // n)  # fixed by the window sum (module docstring)
        for p in below:
            window = (*[n * ((x + t) // m) + res[(x + t) % m] for x in p], c)
            if _avoids_3412_4231(n, window):
                found.add(AffinePermutation(n, window))
    return frozenset(found)
