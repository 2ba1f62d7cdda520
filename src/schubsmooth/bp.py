"""Billey-Postnikov (BP) decompositions and Grassmannian fibre towers.

For J subset K subset S and w in W^J, write w = vu with v in W^K and
u in W_K; the decomposition is BP (relative to J) when the Poincare
polynomials multiply, P^J_w = P^K_v * P^J_u.  For J empty, Billey and
Postnikov (Smoothness of Schubert varieties via patterns in root
subsystems, 2005) show this is equivalent to the combinatorial criterion
S(v) ∩ K ⊆ D_L(u).  A general J reduces to J empty through w0(J), the
longest element of W_J, as in Richmond-Slofstra (Math. Ann. 2016): since
J ⊆ K, w w0(J) = v (u w0(J)) is the parabolic decomposition of w w0(J)
along K, and P_{x w0(J)} = P^J_x * P_{w0(J)} for every x in W^J.  So
P^J_w = P^K_v * P^J_u exactly when P_{w w0(J)} = P^K_v * P_{u w0(J)}, that
is, exactly when S(v) ∩ K ⊆ D_L(u w0(J)).  That one descent test decides
every J; no Bruhat interval is built.  Since u is in W^J, every left
descent s of u is one of u w0(J) (su is in W^J too, so the length of
s u w0(J) is that of su plus that of w0(J)).  So the window of u w0(J) is
composed only when S(v) ∩ K holds a node outside D_L(u); for J = S that
never happens, as w = v = e there.

A BP decomposition is Grassmannian when |S(w) \\ K| = 1.  Iterating
Grassmannian BP decompositions until the support is exhausted produces a
complete decomposition w = v_1 v_2 ... v_m along a chain

    S(w) ∪ J = K_0 ⊋ K_1 ⊋ ... ⊋ K_m = J,   K_i = S(u_{i+1}) ∪ J,

dropping one node per level.  When every factor v_i is the maximal element
of W_{S(v_i)} modulo W_{K_i ∩ S(v_i)}, each level is a Grassmannian fibre
bundle and the base element is smooth; smooth elements always admit such a
decomposition.  Each level keeps the first BP split over its candidate
nodes s in increasing order; _search_level proves that no later split is
preferable and that every BP split continues the chain.

The chain is walked on windows and bitmasks.  Each level receives from the
one before the window of its element, the length, and the support and right
descents as int bitmasks over the nodes, and K is a bitmask too.  For each
candidate K, one sort of the values on each block of positions of K
(affine module docstring) gives the window of v and the block's positions
listed by increasing value; D_L(u) is read off those orders, and S(v) off
prefix and suffix maxima of the window of v, the routine behind
AffinePermutation.support.  So a candidate costs O(n) past the sorts and
builds nothing; the window of u, S(u) and l(u) are read off the orders only
for the split kept, or for the composition with w0(J) that a general J may
need.  Of the split kept, only v is built as a checked element, carrying
its support and l(v) = l(w) - l(u); u passes on as a window with
D_R(u) = D_R(w) ∩ K.

Every level is shared between calls.  A level is found from the window of
its element, its length, S, D_R and J alone: the top level depends only on
(w, J), and once w = vu is split at the top, everything below is the tower
of u relative to J, which depends only on (u, J), whatever w was above it.
Each level, the top one included, is therefore read through one bounded
cache, _level, keyed by n, the window of the level's element with its
length, support and right descents (functions of the window, passed along
so that a miss need not recompute them) and the bitmask of J, and holding
the level's v, K, label and maximality with the key of the next u, or None
for a level with no Grassmannian BP split.  LEVEL_CACHE_SIZE bounds it; the
window of w0(J) comes from a small cache keyed by (n, J).  An entry is one level, not the
whole tail below it, so complete_bp_decomposition stays one loop over the
levels and no recursion grows with the length of the chain.  A cold
decomposition builds one element per level, a repeat builds none and
shares every factor, and decompositions that meet in a u share its
factors.

Each level is a Grassmannian fibre Gr(a, m), labelled by s and the run
S(v), and v is maximal exactly when S(v) is proper and l(v) = a(m - a),
the dimension of Gr(a, m) (Richmond-Slofstra; BPDecomposition proves it).
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .affine import (
    AffinePermutation,
    _compose,
    _coset_cut,
    _inverse_window,
    _longest_window,
    _mask,
    _nodes,
    _require_quotient,
    _rises,
    _runs,
    _support_bits,
    _u_window,
    longest_element,
)
from .errors import NotSmooth
from .smoothness import is_smooth


def _inversions(order: list[int]) -> int:
    """The number of pairs out of order in a list of distinct integers."""
    seen: list[int] = []
    count = 0
    for p in order:
        count += len(seen) - bisect(seen, p)
        insort(seen, p)
    return count


def _bp_cut(
    n: int, values: list[int], ks: int, j0: Optional[Sequence[int]]
) -> Optional[tuple[list[int], int, list[int], int, int]]:
    """The parabolic split w = vu along a proper K, a bitmask, when it is BP
    relative to J, from values[p] = w(p) for 0 <= p < 2n and j0, the window
    of w0(J) (None for J empty): the window of v, S(v) as a bitmask, the
    window of u, l(u) and S(u) as a bitmask.  None when the split is not BP.

    Everything about u is read off the block orders of the cut: u sends
    order[k] to a + k, so node a + j of the block a..a+m is a left descent
    of u when order[j] > order[j + 1], and lies in S(u) when
    max(order[0..j]) > a + j, as u⁻¹ maps a..a+j into itself otherwise
    (affine module docstring); l(u) is the number of pairs out of order.

    The BP test S(v) ∩ K ⊆ D_L(u w0(J)) runs first, on bitmasks, and needs
    only D_L(u).  D_L(u) lies in D_L(u w0(J)), so u w0(J) is composed, on
    windows, only for the nodes of S(v) ∩ K outside D_L(u); for J empty,
    u w0(J) = u and there are none to find.  The window of u is made only
    for that composition or for a split that passes, and S(u) and l(u)
    only for a split that passes."""
    vwin, orders = _coset_cut(n, values, ks)
    descents = 0
    for a, order in orders:
        for j in range(len(order) - 1):
            if order[j] > order[j + 1]:
                descents |= 1 << (a + j) % n
    v_support = _support_bits(vwin)
    rest = v_support & ks & ~descents
    if rest and j0 is None:
        return None
    uwin = _u_window(n, orders)
    if rest:
        inv = _inverse_window(_compose(n, uwin, j0))
        if any(_rises(inv, i) for i in _nodes(n, rest)):
            return None
    u_support = u_length = 0
    for a, order in orders:
        top = order[0]
        for j in range(len(order) - 1):
            if top > a + j:
                u_support |= 1 << (a + j) % n
            if order[j + 1] > top:
                top = order[j + 1]
        u_length += _inversions(order)
    return vwin, v_support, uwin, u_length, u_support


@dataclass(frozen=True)
class GrassmannianLabel:
    """One fibre of the tower: the quotient W_{nodes} / W_{nodes minus missing}.

    nodes is the support interval of the factor, listed consecutively; the
    maximal coset element's Schubert variety is the Grassmannian Gr(a, m)
    of a-dimensional subspaces of an m-dimensional space.
    """

    nodes: tuple[int, ...]
    missing: int
    a: int
    m: int


@dataclass(frozen=True)
class BPDecomposition:
    """A complete BP decomposition w = v_1 ... v_m relative to J.

    chain holds K_0 ⊇ ... ⊇ K_m with K_0 = S(w) ∪ J, K_m = J, and
    K_i = S(u_{i+1}) ∪ J.  complete_bp_decomposition fills labels and
    maximal level by level.  labels[i] names the Grassmannian of v = v_i
    from s, the node of K_{i-1} \\ K_i, and S(v): s is the only right
    descent of v, so S(v) is one run (0..n-1 when full), a is the place of
    s in it, counted from 1, and m is one more than its size.  maximal[i]
    says whether v is the maximal element of W_{S(v)} modulo W_{K_i ∩ S(v)},
    the only one of length l(w0(S(v))) - l(w0(K_i ∩ S(v))): whether S(v) is
    proper and l(v) = a(m - a).  For S(v) ⊆ K_{i-1} gives K_i ∩ S(v) =
    S(v) \\ {s}, runs of a - 1 and m - a - 1 nodes, and
    m(m - 1)/2 - (a - 1)a/2 - (m - a)(m - a - 1)/2 = a(m - a).
    """

    w: AffinePermutation
    factors: tuple[AffinePermutation, ...]
    chain: tuple[frozenset[int], ...]
    maximal: tuple[bool, ...]
    labels: tuple[GrassmannianLabel, ...]

    def __post_init__(self) -> None:
        assert len(self.chain) == len(self.factors) + 1
        assert len(self.maximal) == len(self.labels) == len(self.factors)
        assert sum(f.length for f in self.factors) == self.w.length
        for i in range(len(self.factors)):
            assert len(self.chain[i] - self.chain[i + 1]) == 1

    def all_maximal(self) -> bool:
        return all(self.maximal)


# Levels kept by _level, the top ones included.  One pass of the queries
# benchmark (1,250 decompositions) meets 1,618 to 1,723 distinct levels for
# seeds 0, 1 and 7, and keeps them all; at 1024 some are evicted and
# searched again
LEVEL_CACHE_SIZE = 2048


@lru_cache(maxsize=256)  # a queries benchmark pass meets about 120 distinct (n, J)
def _j0_window(n: int, jbits: int) -> Optional[tuple[int, ...]]:
    """The window of w0(J) for a proper nonempty J, as _bp_cut takes it;
    None for J empty, and for J = S, which leaves only w = e and no level."""
    return tuple(_longest_window(n, jbits)) if 0 < jbits < (1 << n) - 1 else None


def _search_level(
    n: int, window: tuple[int, ...], length: int, support: int, descents: int, jbits: int
) -> Optional[tuple[tuple[AffinePermutation, frozenset[int], GrassmannianLabel, bool], tuple]]:
    """One level of the tower of w relative to J, from the window of w,
    l(w), and S(w), D_R(w) and J as bitmasks, with S(w) ⊄ J: the pair of
    (v, K, its label, whether v is maximal) and the same key
    (window, length, support, descents) of u, or None when the level
    admits no Grassmannian BP split.  Only v is built as an element,
    carrying S(v) and l(v) = l(w) - l(u).

    K = (S(w) ∪ J) \\ {s} for the first candidate s, in increasing order,
    whose split _bp_cut accepts.  The candidates are the nodes of
    S(w) \\ J outside D_R(w).  When w is the maximal element of its
    (finite) support parabolic, all of S(w) lies in D_R(w), and the one
    candidate is the smallest node of S(w) \\ J.  u always has proper
    support, as it lies in W_K and K misses s.  D_R(u) = D_R(w) ∩ K: for t
    in K, ut lies in W_K, so l(wt) = l(v) + l(ut) and wt < w exactly when
    ut < u; u has no right descent outside K.

    The first BP split is kept even when its v has full support (the
    twisted spiral case), for then s is the only candidate:

    - Descent lemma: for w in W^J and t not in J, t ∈ D_R(w w0(J)) implies
      t ∈ D_R(w).  Indeed w0(J) α_t = α_t + Σ_{j ∈ J} c_j α_j with every
      c_j >= 0, and w maps each α_j to a positive root, as w is in W^J; so
      w w0(J) α_t is a negative root only if w α_t is.
    - If a BP split w = vu at s has S(v) = S, then K ⊆ D_L(u w0(J)), and
      u w0(J) lies in the finite group W_K, as K misses s; so u w0(J) is
      w0(K), whose right descents are all of K.  As v is in W^K, the
      product v (u w0(J)) = w w0(J) is reduced, so K ⊆ D_R(w w0(J)), and
      by the lemma K \\ J ⊆ D_R(w).  Every node of S(w) \\ J but s is in
      K \\ J: none of them is a candidate.

    Every BP split continues the chain K_i = S(u_{i+1}) ∪ J, for every J:
    S(w) = S(v) ∪ S(u) with S(u) ⊆ K, and the BP test gives
    S(v) ∩ K ⊆ D_L(u w0(J)) ⊆ S(u) ∪ J, so K = (S(w) ∪ J) \\ {s} lies in
    S(u) ∪ J, which lies in K.  The label and maximality follow
    BPDecomposition.
    """
    if support != (1 << n) - 1 and descents == support:
        rest = support & ~jbits
        candidates = rest & -rest
    else:
        candidates = support & ~jbits & ~descents
    values = [window[-1] - n, *window, *[x + n for x in window[:-1]]]
    j0 = _j0_window(n, jbits)
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        ks = (support | jbits) & ~bit
        cut = _bp_cut(n, values, ks, j0)
        if cut is None:
            continue
        vwin, v_support, uwin, u_length, u_support = cut
        assert u_support | jbits == ks, "a BP split continues the chain"
        v = AffinePermutation(n, tuple(vwin))
        v.__dict__.update(support=_nodes(n, v_support), length=length - u_length)  # cached attributes
        s = bit.bit_length() - 1
        (nodes,) = _runs(n, v_support)
        a, m = nodes.index(s) + 1, len(nodes) + 1
        maximal = v_support != (1 << n) - 1 and v.length == a * (m - a)
        level = (v, _nodes(n, ks), GrassmannianLabel(nodes, s, a, m), maximal)
        return level, (tuple(uwin), u_length, u_support, descents & ks)
    return None


# Every level of every tower, keyed by its element and J, which repeated
# requests and decompositions that meet in a u share (module docstring)
_level = lru_cache(maxsize=LEVEL_CACHE_SIZE)(_search_level)


def complete_bp_decomposition(
    w: AffinePermutation, J: Iterable[int] = ()
) -> Optional[BPDecomposition]:
    """Walk the levels of the tower of w until the support is exhausted.

    Returns None when some level admits no Grassmannian BP decomposition.
    Succeeds for every smooth w.  J is read once, as a bitmask.  Every
    level, the top one included, is read through the bounded cache
    _level, as each depends only on its element and J (module
    docstring): the top level is keyed by w, and each level hands the key
    of its u to the next.  The last u is checked to be the identity by its
    window.
    """
    n, jbits = w.n, _require_quotient(w, J)
    window, length, support = w.window, w.length, _support_bits(w.window)
    descents = _mask(n, w.right_descents, "D_R(w)")
    top = _nodes(n, support | jbits)
    levels = []
    while support & ~jbits:
        hit = _level(n, window, length, support, descents, jbits)
        if hit is None:
            return None
        level, (window, length, support, descents) = hit
        levels.append(level)
    assert window == tuple(range(1, n + 1)), "W^J ∩ W_J is trivial"
    factors, chain, labels, flags = zip(*levels) if levels else ((), (), (), ())
    return BPDecomposition(w, factors, (top, *chain), flags, labels)


def fibre_tower(w: AffinePermutation) -> tuple[GrassmannianLabel, ...]:
    """Grassmannian labels of the fibre bundle tower of a smooth element.

    Raises NotSmooth when no complete BP decomposition into maximal coset
    elements exists.

    >>> from .affine import longest_element
    >>> [(lab.a, lab.m) for lab in fibre_tower(longest_element(4, {1}))]
    [(1, 2)]
    """
    decomp = complete_bp_decomposition(w)
    if decomp is None or not decomp.all_maximal():
        raise NotSmooth(f"no complete maximal BP decomposition for window {w.window}")
    return decomp.labels


def is_smooth_partial(w: AffinePermutation, J: Iterable[int]) -> bool:
    """Smoothness of the Schubert variety of w in the partial flag variety W/W_J.

    Equivalent to smoothness of w * u0 where u0 is the longest element of
    the parabolic on J ∩ S(w): the full Schubert variety fibres over the
    partial one with smooth fibre.
    """
    js = _nodes(w.n, _require_quotient(w, J))
    u0 = longest_element(w.n, js & w.support)
    return is_smooth(w * u0)
