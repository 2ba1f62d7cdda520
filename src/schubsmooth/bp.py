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
nodes s in increasing order; find_grassmannian_bp proves that no later
split is preferable, and complete_bp_decomposition that every BP split
continues the chain.

bp_split works on windows and builds no element for a split it rejects.
For a proper K, one sort of the values of w on each block of positions of
K (affine module docstring) gives the
windows of v and u, and the block's positions listed by increasing value:
node a + j of the block a..a+m is a left descent of u when the positions of
the j-th and (j+1)-th smallest values are out of order.  S(v) comes from
prefix and suffix maxima of the window of v, the routine behind
AffinePermutation.support, so the BP test costs O(n) past the sorts.  The
split kept is built as two elements, v and u, which carry their supports
and lengths to the next level: l(u) is the number of pairs out of order in
the block orders, and l(v) = l(w) - l(u).  u also carries its right
descents, D_R(w) ∩ K.
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass
from typing import Iterable, Optional

from .affine import (
    AffinePermutation,
    _compose,
    _coset_cut,
    _inverse_window,
    _longest_window,
    _nodes,
    _require_quotient,
    _rises,
    _support_bits,
    cached_attribute,
    coset_decompose,
    cycle_runs,
    longest_element,
    longest_length,
)
from .errors import NotSmooth
from .smoothness import is_smooth


def _bits(nodes: Iterable[int]) -> int:
    return sum(1 << i for i in nodes)


def _is_bp(n: int, v_support: int, ks: int, u_descents: int, uwin: list[int], js: frozenset[int]) -> bool:
    """The BP test S(v) ∩ K ⊆ D_L(u w0(J)), on bitmasks of S(v), K and
    D_L(u) and the window of u.  D_L(u) lies in D_L(u w0(J)), so u w0(J) is
    composed, on windows, only for the nodes of S(v) ∩ K outside D_L(u);
    for J empty, u w0(J) = u and there are none to find."""
    rest = v_support & ks & ~u_descents
    if not rest:
        return True
    if not js:
        return False
    inv = _inverse_window(_compose(n, uwin, _longest_window(n, js)))
    return not any(_rises(inv, i) for i in _nodes(n, rest))


def bp_split(
    w: AffinePermutation, K: Iterable[int], J: Iterable[int] = ()
) -> Optional[tuple[AffinePermutation, AffinePermutation]]:
    """The parabolic decomposition w = vu along K when it is BP relative
    to J, that is when S(v) ∩ K ⊆ D_L(u w0(J)), and None when it is not.

    A proper K is cut and tested on windows (module docstring), and only a
    BP split is built as elements.

    >>> from .affine import from_word
    >>> bp_split(from_word(4, [2, 1]), {1}) is not None
    True
    >>> bp_split(from_word(4, [1, 2]), {1}) is not None
    False
    >>> bp_split(from_word(3, [0, 1]), {0}, {0}) is not None
    True
    >>> bp_split(from_word(3, [1, 2]), {0, 1}, {0}) is not None
    False
    """
    ks, js = frozenset(K), frozenset(J)
    if not js <= ks:
        raise ValueError(f"J must be contained in K, got J={sorted(js)} K={sorted(ks)}")
    if any(not 0 <= i < w.n for i in ks):
        raise ValueError(f"K members must be node indices in 0..{w.n - 1}")
    _require_quotient(w, js)
    n = w.n
    if len(ks) == n:
        return coset_decompose(w, ks)  # v = e, so S(v) ∩ K is empty
    vwin, uwin, orders = _coset_cut(n, [w.apply(p) for p in range(2 * n)], cycle_runs(n, ks))
    descents = 0
    for a, order in orders:
        for j in range(len(order) - 1):
            if order[j] > order[j + 1]:
                descents |= 1 << (a + j) % n
    v_support = _support_bits(vwin)
    if not _is_bp(n, v_support, _bits(ks), descents, uwin, js):
        return None
    return _build(w, ks, vwin, uwin, v_support, orders)


def _is_maximal_factor(v: AffinePermutation, K_next: frozenset[int]) -> bool:
    """v maximal in W_{S(v)} modulo W_{K ∩ S(v)}: test by the length identity."""
    sv = v.support
    if len(sv) >= v.n:
        return False  # full support: no longest element to compare against
    return v.length == longest_length(v.n, sv) - longest_length(v.n, K_next & sv)


def _inversions(order: list[int]) -> int:
    """The number of pairs out of order in a list of distinct integers."""
    seen: list[int] = []
    count = 0
    for p in order:
        count += len(seen) - bisect(seen, p)
        insort(seen, p)
    return count


def _element(n: int, window: list[int], **known) -> AffinePermutation:
    """A checked element that stores values already known, such as its
    support and length, as its cached attributes."""
    x = AffinePermutation(n, tuple(window))
    x.__dict__.update(known)
    return x


def _build(
    w: AffinePermutation, K: frozenset[int], vwin: list[int], uwin: list[int], v_support: int, orders: list
) -> tuple[AffinePermutation, AffinePermutation]:
    """The factors of a window split along K, carrying what the split
    knows: the supports, l(u) as the pairs out of order in the block orders,
    l(v) = l(w) - l(u), and D_R(u) = D_R(w) ∩ K.  For s in K, us lies in
    W_K, so l(ws) = l(v) + l(us) and ws < w exactly when us < u; u has no
    right descent outside K."""
    n, u_length = w.n, sum(_inversions(order) for _, order in orders)
    v = _element(n, vwin, support=_nodes(n, v_support), length=w.length - u_length)
    u = _element(
        n,
        uwin,
        support=_nodes(n, _support_bits(uwin)),
        length=u_length,
        right_descents=w.right_descents & K,
    )
    return v, u


def find_grassmannian_bp(
    w: AffinePermutation, J: Iterable[int] = ()
) -> Optional[tuple[AffinePermutation, AffinePermutation, frozenset[int]]]:
    """A Grassmannian BP decomposition (v, u, K) of w relative to J, or None.

    K = (S(w) ∪ J) \\ {s} for the first candidate s, in increasing order,
    whose split bp_split accepts.  The candidates are the nodes of
    S(w) \\ J outside D_R(w).  When w is the maximal element of its
    (finite) support parabolic, all of S(w) lies in D_R(w), and the one
    candidate is the smallest node of S(w) \\ J.  u always has proper
    support, as it lies in W_K and K misses s.

    The first BP split is kept even when its v has full support (the
    twisted spiral case), for then s is the only candidate:

    - Descent lemma: for w in W^J and t not in J, t ∈ D_R(w w0(J)) implies
      t ∈ D_R(w).  Indeed w0(J) α_t = α_t + Σ_{j ∈ J} c_j α_j with every
      c_j >= 0, and w maps each α_j to a positive root, as w is in W^J; so
      w w0(J) α_t is a negative root only if w α_t is.
    - If a BP split at s has S(v) = S, then K ⊆ D_L(u w0(J)), and
      u w0(J) lies in the finite group W_K, as K misses s; so u w0(J) is
      w0(K), whose right descents are all of K.  As v is in W^K, the
      product v (u w0(J)) = w w0(J) is reduced, so K ⊆ D_R(w w0(J)), and
      by the lemma K \\ J ⊆ D_R(w).  Every node of S(w) \\ J but s is in
      K \\ J: none of them is a candidate.
    """
    js = frozenset(J)
    _require_quotient(w, js)
    sw = w.support
    if sw <= js:
        raise ValueError("S(w) is contained in J: nothing to decompose")
    if len(sw) < w.n and w.right_descents == sw:
        candidates = [min(sw - js)]
    else:
        candidates = sorted(sw - js - w.right_descents)
    for s in candidates:
        K = (sw | js) - {s}
        split = bp_split(w, K, js)
        if split is not None:
            return (*split, K)
    return None


@dataclass(frozen=True)
class BPDecomposition:
    """A complete BP decomposition w = v_1 ... v_m relative to J.

    chain holds K_0 ⊇ ... ⊇ K_m with K_0 = S(w) ∪ J, K_m = J, and
    K_i = S(u_{i+1}) ∪ J; maximal[i] flags whether v_i is the maximal
    element of its coset quotient, and labels names its Grassmannian.
    """

    w: AffinePermutation
    factors: tuple[AffinePermutation, ...]
    chain: tuple[frozenset[int], ...]
    maximal: tuple[bool, ...]

    def __post_init__(self) -> None:
        assert len(self.chain) == len(self.factors) + 1
        assert sum(f.length for f in self.factors) == self.w.length
        for i in range(len(self.factors)):
            assert len(self.chain[i] - self.chain[i + 1]) == 1

    def all_maximal(self) -> bool:
        return all(self.maximal)

    @cached_attribute
    def labels(self) -> tuple[GrassmannianLabel, ...]:
        """The Grassmannian label of each factor v_i: the node dropped from
        K_{i-1} to K_i, and the support of v_i.  That node is the only right
        descent of v_i, so the support is connected: one run of the cycle."""
        labels = []
        for i, v in enumerate(self.factors):
            (missing,) = self.chain[i] - self.chain[i + 1]
            (nodes,) = cycle_runs(self.w.n, v.support)
            labels.append(GrassmannianLabel(nodes, missing, nodes.index(missing) + 1, len(nodes) + 1))
        return tuple(labels)


def complete_bp_decomposition(
    w: AffinePermutation, J: Iterable[int] = ()
) -> Optional[BPDecomposition]:
    """Iterate find_grassmannian_bp until the support is exhausted.

    Returns None when some level admits no Grassmannian BP decomposition.
    Succeeds for every smooth w.  Each level hands its u, with the support,
    length and right descents its split carried, to the next; the last u is
    checked to be the identity by its window.

    Every BP split continues the chain K_i = S(u_{i+1}) ∪ J, for every J:
    S(w) = S(v) ∪ S(u) with S(u) ⊆ K, and the BP test gives
    S(v) ∩ K ⊆ D_L(u w0(J)) ⊆ S(u) ∪ J, so K = (S(w) ∪ J) \\ {s} lies in
    S(u) ∪ J, which lies in K.
    """
    js = frozenset(J)
    _require_quotient(w, js)
    factors: list[AffinePermutation] = []
    chain: list[frozenset[int]] = [w.support | js]
    flags: list[bool] = []
    u = w
    while not u.support <= js:
        hit = find_grassmannian_bp(u, js)
        if hit is None:
            return None
        v, u_next, K = hit
        assert u_next.support | js == K, "a BP split continues the chain"
        factors.append(v)
        flags.append(_is_maximal_factor(v, K))
        chain.append(K)
        u = u_next
    assert u.is_identity(), "W^J ∩ W_J is trivial"
    return BPDecomposition(w=w, factors=tuple(factors), chain=tuple(chain), maximal=tuple(flags))


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
    js = frozenset(J)
    _require_quotient(w, js)
    u0 = longest_element(w.n, js & w.support)
    return is_smooth(w * u0)
