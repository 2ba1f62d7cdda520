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
s u w0(J) is that of su plus that of w0(J)).  So w0(J) is formed only when
S(v) ∩ K holds a node outside D_L(u); for J = S that never happens, as
w = v = e there.

A BP decomposition is Grassmannian when |S(w) \\ K| = 1.  Iterating
Grassmannian BP decompositions until the support is exhausted produces a
complete decomposition w = v_1 v_2 ... v_m along a chain

    S(w) ∪ J = K_0 ⊋ K_1 ⊋ ... ⊋ K_m = J,   K_i = S(u_{i+1}) ∪ J,

dropping one node per level.  When every factor v_i is the maximal element
of W_{S(v_i)} modulo W_{K_i ∩ S(v_i)}, each level is a Grassmannian fibre
bundle and the base element is smooth; smooth elements always admit such a
decomposition, found by preferring s outside D_R(w) in increasing index and
falling back to maximal parabolic elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .affine import (
    AffinePermutation,
    cached_attribute,
    coset_decompose,
    cycle_runs,
    longest_element,
    longest_length,
)
from .errors import NotSmooth
from .smoothness import is_smooth


def _require_quotient(w: AffinePermutation, js: frozenset[int]) -> None:
    bad = w.right_descents & js
    if bad:
        raise ValueError(f"w has right descents {sorted(bad)} in J: not in W^J")


def bp_split(
    w: AffinePermutation, K: Iterable[int], J: Iterable[int] = ()
) -> Optional[tuple[AffinePermutation, AffinePermutation]]:
    """The parabolic decomposition w = vu along K when it is BP relative
    to J, that is when S(v) ∩ K ⊆ D_L(u w0(J)), and None when it is not.

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
    v, u = coset_decompose(w, ks)
    rest = (v.support & ks) - u.left_descents  # D_L(u) lies in D_L(u w0(J))
    if rest and not rest <= (u * longest_element(w.n, js)).left_descents:
        return None
    return v, u


def _is_maximal_factor(v: AffinePermutation, K_next: frozenset[int]) -> bool:
    """v maximal in W_{S(v)} modulo W_{K ∩ S(v)}: test by the length identity."""
    sv = v.support
    if len(sv) >= v.n:
        return False  # full support: no longest element to compare against
    return v.length == longest_length(v.n, sv) - longest_length(v.n, K_next & sv)


def find_grassmannian_bp(
    w: AffinePermutation, J: Iterable[int] = ()
) -> Optional[tuple[AffinePermutation, AffinePermutation, frozenset[int]]]:
    """A Grassmannian BP decomposition (v, u, K) of w relative to J, or None.

    K = (S(w) ∪ J) \\ {s} for the smallest admissible s.  Candidates with
    s outside D_R(w) and both factors supported in proper parabolics come
    first; if w is the maximal element of its (finite) support parabolic,
    any s works; finally a BP decomposition whose left factor has full
    support is accepted (the twisted spiral case).
    """
    js = frozenset(J)
    _require_quotient(w, js)
    sw = w.support
    if sw <= js:
        raise ValueError("S(w) is contained in J: nothing to decompose")
    full = sw | js
    n = w.n

    fallback: Optional[tuple[AffinePermutation, AffinePermutation, frozenset[int]]] = None
    for s in sorted(sw - js):
        if s in w.right_descents:
            continue
        K = full - {s}
        split = bp_split(w, K, js)
        if split is None:
            continue
        v, u = split
        if len(v.support) < n and len(u.support) < n:
            return v, u, K
        if fallback is None:
            fallback = (v, u, K)

    if len(sw) < n and w.length == longest_length(n, sw):
        # maximal element of a finite parabolic: every decomposition works
        s = min(sw - js)
        K = full - {s}
        split = bp_split(w, K, js)
        if split is not None:
            return (*split, K)

    return fallback


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

    Returns None when some level admits no Grassmannian BP decomposition
    (or the chain property K_i = S(u_{i+1}) ∪ J fails, which cannot happen
    for J = ()).  Succeeds for every smooth w.
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
        if u_next.support | js != K:
            return None  # not Grassmannian with respect to S(u_{i+1}) ∪ J
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
