"""BP decompositions: the combinatorial test against the defining
Poincare identity, complete decompositions of every smooth element, the
smooth <=> complete-maximal equivalence on a ball, and fibre towers whose
Grassmannian dimensions add up to the length.
"""

import functools
import itertools
import random

import pytest

from oracles import (
    ball,
    bounded_windows,
    bp_decomposition_by_elements,
    bp_split,
    gaussian_binomial_by_subsets,
    is_bp_by_poincare,
)
from schubsmooth.affine import (
    AffinePermutation,
    _compose,
    coset_decompose,
    from_window,
    from_word,
    identity,
    longest_element,
    poincare_polynomial,
)
from schubsmooth.bp import (
    BPDecomposition,
    GrassmannianLabel,
    _find_grassmannian_bp,
    _level,
    complete_bp_decomposition,
    fibre_tower,
    is_smooth_partial,
)
from schubsmooth.errors import NotSmooth
from schubsmooth.poly import gaussian_binomial
from schubsmooth.smoothness import SpiralSpec, enumerate_smooth, is_smooth, twisted_spiral


def subsets(universe):
    items = sorted(universe)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def test_is_bp_equals_poincare_factorization():
    # every proper J the element has no right descent in and every K
    # containing it: the descent test on u w0(J) must agree with the
    # defining identity P^J_w = P^K_v * P^J_u, and a BP split is the
    # parabolic decomposition itself
    triples = 0
    for w in ball(3, 7) | ball(4, 6):
        nodes = frozenset(range(w.n))
        for J in subsets(nodes - w.right_descents):
            if J == nodes:
                continue  # only the identity; checked below
            for extra in subsets(nodes - J):
                K = J | extra
                split = bp_split(w, K, J)
                assert (split is not None) == is_bp_by_poincare(w, K, J), (w.window, sorted(J), sorted(K))
                assert split in (None, coset_decompose(w, K))
                triples += 1
    assert triples == 9976
    # J = S holds only the identity, and the test is vacuous there
    assert bp_split(identity(3), {0, 1, 2}, {0, 1, 2}) == (identity(3), identity(3))


def bits(nodes):
    return sum(1 << i for i in nodes)


def test_find_grassmannian_bp_shape():
    # the level routine on every smooth element of period 3 relative to J
    # empty, and on two levels whose v has full support (window, J, K); the
    # second has no complete decomposition, so only its level is checked
    smooth = sorted(enumerate_smooth(3), key=lambda w: (w.length, w.window))
    full = [((-1, -3, 10), (), {0, 1}), ((4, 8, -6), (0,), {0, 2})]
    cases = [(w, (), None) for w in smooth if not w.is_identity()]
    cases += [(from_window(3, window), J, K) for window, J, K in full]
    assert complete_bp_decomposition(from_window(3, (4, 8, -6)), {0}) is None
    for w, J, want in cases:
        j0 = longest_element(w.n, J).window if J else None
        hit = _find_grassmannian_bp(w.n, w.window, w.length, bits(w.support), bits(w.right_descents), bits(J), j0)
        assert hit is not None
        v, v_support, ks, uwin, u_length, u_support, u_descents = hit
        u = from_window(w.n, uwin)
        K = frozenset(i for i in range(w.n) if ks >> i & 1)
        assert v * u == w
        assert v.length + u.length == w.length
        assert v_support == bits(v.support)
        assert (u_length, u_support, u_descents) == (u.length, bits(u.support), bits(u.right_descents))
        assert len((w.support | set(J)) - K) == 1
        assert not (v.right_descents & K)
        assert u.support <= K
        if want is not None:
            assert K == want and v.support == {0, 1, 2}, w.window


def test_descent_lemma_and_lone_full_support_candidate():
    # the two facts _find_grassmannian_bp rests on, for every J of ascents:
    # D_R(w w0(J)) \ J lies in D_R(w), and a BP split whose v has full
    # support is at the only candidate s
    pairs = splits = 0
    for w in ball(3, 10) | ball(4, 8) | ball(5, 6):
        nodes = frozenset(range(w.n))
        for J in subsets(nodes - w.right_descents):
            if J == nodes:
                continue  # only the identity, and W_S is infinite
            assert (w * longest_element(w.n, J)).right_descents - J <= w.right_descents, (w.window, sorted(J))
            pairs += 1
            candidates = sorted(w.support - J - w.right_descents)
            for s in candidates:
                split = bp_split(w, (w.support | J) - {s}, J)
                if split is not None and split[0].support == nodes:
                    assert candidates == [s], (w.window, sorted(J))
                    splits += 1
    assert (pairs, splits) == (7397, 250)


def test_complete_decomposition_matches_element_search_oracle():
    # the window search keeps the answer of a coset_decompose and bp_split
    # per candidate: the same None, or the same factors, chain and flags,
    # relative to J empty and to every nonempty set of ascents
    pairs = 0
    for w in ball(3, 9) | ball(4, 8) | ball(5, 5):
        for J in subsets(frozenset(range(w.n)) - w.right_descents):
            d = complete_bp_decomposition(w, J)
            got = None if d is None else (d.factors, d.chain, d.maximal)
            assert got == bp_decomposition_by_elements(w, J), (w.window, sorted(J))
            pairs += 1
    assert pairs == 5424


def test_level_cache_keeps_every_decomposition(monkeypatch):
    # the levels below the top are read through one bounded cache: a
    # decomposition from a cold cache, one from a cache warmed by all the
    # pairs before it, and the element search agree, on every smooth
    # element with n <= 5 relative to J empty and to a random set of
    # ascents, and on ball(4, 7), some of whose levels below the top fail
    # and are cached as None
    rng = random.Random(4)
    pool = [w for n in range(2, 6) for w in enumerate_smooth(n)] + list(ball(4, 7))
    pool.sort(key=lambda w: (w.n, w.length, w.window))
    pairs = []
    for w in pool:
        ascents = sorted(set(range(w.n)) - w.right_descents)
        pairs += [(w, frozenset()), (w, frozenset(rng.sample(ascents, rng.randint(1, len(ascents)))))]
    cold = []
    for w, J in pairs:
        _level.cache_clear()
        cold.append(complete_bp_decomposition(w, J))
    _level.cache_clear()
    failed = []

    def level(*key):
        hit = _level(*key)
        if hit is None:
            failed.append(key)
        return hit

    monkeypatch.setattr("schubsmooth.bp._level", level)
    warm = [complete_bp_decomposition(w, J) for w, J in pairs]
    monkeypatch.undo()
    assert _level.cache_info().hits > 0
    for (w, J), c, d in zip(pairs, cold, warm):
        assert c == d, (w.window, sorted(J))
        assert (None if d is None else (d.factors, d.chain, d.maximal)) == bp_decomposition_by_elements(w, J)
    assert (len(pairs), warm.count(None), len(failed), len(set(failed))) == (2790, 1325, 302, 199)


def test_decomposition_builds_one_element_per_level(monkeypatch):
    # rejected candidates and every u stay windows: from a cold level cache
    # each level builds its v alone; a repeat searches only the top level
    # again, builds no element below it and shares the cached factors; and
    # the support and length a v carries from the split are those of a
    # fresh element with the same window
    pool = [AffinePermutation(n, w.window) for n in range(2, 6) for w in enumerate_smooth(n)]
    built = []
    check = AffinePermutation.__post_init__

    def counting_check(x):
        built.append(x)
        check(x)

    monkeypatch.setattr(AffinePermutation, "__post_init__", counting_check)
    counts = []
    for w in pool:
        _level.cache_clear()
        before = len(built)
        cold = complete_bp_decomposition(w)
        counts.append((len(built) - before, len(cold.factors)))
        before = len(built)
        warm = complete_bp_decomposition(w)
        assert len(built) - before == min(len(cold.factors), 1), w.window
        assert warm == cold and all(x is y for x, y in zip(warm.factors[1:], cold.factors[1:])), w.window
    monkeypatch.undo()
    assert len(pool) == 1100
    assert all(count == depth for count, depth in counts)
    for x in built:
        fresh = AffinePermutation(x.n, x.window)
        assert {"support", "length"} <= vars(x).keys(), x.window
        for name in ("support", "length"):
            assert vars(x)[name] == getattr(fresh, name), (x.window, name)


def test_j_empty_composes_no_window(monkeypatch):
    # relative to J empty, u w0(J) = u, so the BP test reads D_L(u) alone:
    # no window of u w0(J) is composed on any level
    composed = []

    def counting_compose(*args):
        composed.append(args)
        return _compose(*args)

    monkeypatch.setattr("schubsmooth.bp._compose", counting_compose)
    for w in ball(4, 7):
        complete_bp_decomposition(w)
    assert composed == []


def test_complete_decomposition_of_smooth_elements():
    for n in (2, 3):
        for w in enumerate_smooth(n):
            d = complete_bp_decomposition(w)
            assert d is not None
            assert d.all_maximal()
            # factors multiply back to w, left to right
            acc = identity(n)
            for v in d.factors:
                acc = acc * v
            assert acc == w
            assert sum(v.length for v in d.factors) == w.length
            # the chain drops one node per level, from S(w) down to J
            assert d.chain[0] == w.support
            assert d.chain[-1] == frozenset()
            for i in range(len(d.factors)):
                assert len(d.chain[i] - d.chain[i + 1]) == 1
                suffix = identity(n)
                for v in d.factors[i + 1 :]:
                    suffix = suffix * v
                assert d.chain[i + 1] == suffix.support


def test_mid_products_are_bp():
    # partial products w_i = v_1 ... v_i stay BP along the chain
    for w in enumerate_smooth(3):
        d = complete_bp_decomposition(w)
        acc = identity(3)
        for i, v in enumerate(d.factors):
            acc = acc * v
            assert bp_split(acc, d.chain[i], d.chain[i + 1]) is not None


def test_smooth_iff_complete_maximal_decomposition():
    # every n = 4 window inside the displacement bound: all 173 smooth
    # elements and 380 non-smooth ones
    for w in ball(3, 7) | bounded_windows(4):
        d = complete_bp_decomposition(w)
        assert is_smooth(w) == (d is not None and d.all_maximal()), w.window


def test_every_decomposition_has_labels():
    # each factor's support is the one run its label names, relative to the
    # empty J and to a random J the element has no right descents in
    rng = random.Random(3)
    for w in ball(3, 7) | ball(4, 6):
        allowed = sorted(set(range(w.n)) - w.right_descents)
        for J in ((), frozenset(rng.sample(allowed, rng.randrange(len(allowed) + 1)))):
            d = complete_bp_decomposition(w, J)
            if d is None:
                continue
            assert len(d.labels) == len(d.factors)
            for i, (v, lab) in enumerate(zip(d.factors, d.labels)):
                assert frozenset(lab.nodes) == v.support
                assert d.chain[i] - d.chain[i + 1] == {lab.missing}
                assert lab.nodes[lab.a - 1] == lab.missing and lab.m == len(lab.nodes) + 1


def test_gaussian_binomial_matches_subset_sums():
    for m in range(9):
        for a in range(m + 1):
            assert gaussian_binomial(m, a).coeffs == gaussian_binomial_by_subsets(m, a), (m, a)
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3)


def test_fibre_tower_dimensions_sum_to_length():
    for w in ball(3, 7) | enumerate_smooth(2):
        if not is_smooth(w):
            with pytest.raises(NotSmooth):
                fibre_tower(w)
            continue
        labels = fibre_tower(w)
        assert sum(lab.a * (lab.m - lab.a) for lab in labels) == w.length
        for lab in labels:
            assert lab.m == len(lab.nodes) + 1
            assert 1 <= lab.a <= lab.m - 1
            assert lab.missing in lab.nodes
            # nodes are listed consecutively around the cycle
            for x, y in zip(lab.nodes, lab.nodes[1:]):
                assert (y - x) % w.n == 1


def test_fibre_tower_frozen_examples():
    assert fibre_tower(longest_element(4, {1})) == (
        GrassmannianLabel(nodes=(1,), missing=1, a=1, m=2),
    )
    assert fibre_tower(from_word(3, [0, 1, 0])) == (
        GrassmannianLabel(nodes=(0, 1), missing=0, a=1, m=3),
        GrassmannianLabel(nodes=(1,), missing=1, a=1, m=2),
    )
    assert fibre_tower(identity(3)) == ()
    with pytest.raises(NotSmooth):
        fibre_tower(twisted_spiral(SpiralSpec(0, 2, "x"), 3))


def test_long_twisted_spiral_decomposes_from_few_elements(monkeypatch):
    # support and parabolic factors are read off windows: the cost of a
    # complete decomposition does not grow with the length
    built = []
    check = AffinePermutation.__post_init__

    def counting_check(w):
        built.append(w.n)
        check(w)

    monkeypatch.setattr(AffinePermutation, "__post_init__", counting_check)
    w = twisted_spiral(SpiralSpec(1, 10**5, "y"), 4)
    assert w.length == 300_006
    d = complete_bp_decomposition(w)
    assert len(built) <= 20
    assert [v.length for v in d.factors] == [300_000, 3, 2, 1]
    assert d.maximal == (False, True, True, True)
    assert functools.reduce(lambda x, y: x * y, d.factors) == w


def test_is_smooth_partial():
    for w in ball(3, 5):
        assert is_smooth_partial(w, ()) == is_smooth(w)
    # smoothness in the partial flag variety is a genuinely different
    # question: this element is smooth but not {0}-partially smooth
    w = from_window(3, (2, 4, 0))
    assert is_smooth(w)
    assert 0 not in w.right_descents
    assert not is_smooth_partial(w, {0})
    with pytest.raises(ValueError):
        is_smooth_partial(from_word(3, [0]), {0})  # not in W^J


def test_bp_decomposition_container_checks():
    w = longest_element(3, {1, 2})
    d = complete_bp_decomposition(w)
    assert isinstance(d, BPDecomposition)
    with pytest.raises(AssertionError):
        BPDecomposition(
            w=w,
            factors=(identity(3),),
            chain=(frozenset({1, 2}), frozenset()),
            maximal=(True,),
            labels=d.labels,
        )
    with pytest.raises(AssertionError):
        BPDecomposition(w=w, factors=d.factors, chain=d.chain, maximal=d.maximal, labels=d.labels[1:])


def test_j_nodes_outside_the_cycle_are_rejected():
    # every entry point that takes a J rejects nodes outside 0..n-1 with
    # one ValueError, before any bitmask or window is formed from them
    w = from_window(3, (4, -1, 3))
    for J in ([7], [-1], [3], [0, 5]):
        for call in (complete_bp_decomposition, is_smooth_partial, poincare_polynomial):
            with pytest.raises(ValueError, match="outside 0..2"):
                call(w, J)
