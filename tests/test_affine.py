"""Window arithmetic against first-principles oracles.

Length is checked by counting inversions directly, multiplication by
composing window evaluations, and Bruhat order against the exhaustive
set of subword products.  The remaining tests pin down descents, reduced
words, parabolic data, and Poincare polynomials.
"""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ball,
    components_by_adjacency,
    coset_decompose_by_stripping,
    length_by_inversions,
    longest_element_by_word,
    poincare_by_subwords,
    product_by_apply,
    reduced_word_by_rescan,
    subword_lower_set,
)
from schubsmooth.affine import (
    AffinePermutation,
    _quotient_walk,
    ball_levels,
    cached_attribute,
    coset_decompose,
    cycle_runs,
    from_window,
    from_word,
    identity,
    longest_element,
    poincare_polynomial,
)
from schubsmooth.bp import complete_bp_decomposition, is_smooth_partial
from schubsmooth.errors import BudgetExceeded
from schubsmooth.poly import Polynomial
from schubsmooth.staircase import cycle_graph


def random_elements(n, count, max_letters, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        word = [rng.randrange(n) for _ in range(rng.randrange(max_letters + 1))]
        out.append(from_word(n, word))
    return out


# ----------------------------------------------------------------------
# construction and evaluation


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation(1, (1,))
    with pytest.raises(ValueError):
        AffinePermutation(3, (1, 2))
    with pytest.raises(ValueError):
        AffinePermutation(3, (1, 4, 1))  # residues 1, 1, 1
    with pytest.raises(ValueError):
        AffinePermutation(3, (2, 3, 4))  # wrong sum
    assert from_window(3, [0, 2, 4]).window == (0, 2, 4)


def test_apply_is_periodic():
    w = from_word(4, [0, 3, 2, 1, 0])
    for i in range(-5, 10):
        assert w.apply(i + 4) == w.apply(i) + 4
    assert tuple(w.apply(i) for i in range(1, 5)) == w.window


def test_multiplication_composes_evaluations():
    for a, b in zip(random_elements(4, 25, 10, seed=1), random_elements(4, 25, 10, seed=2)):
        prod = a * b
        for i in range(-3, 9):
            assert prod.apply(i) == a.apply(b.apply(i))
    with pytest.raises(ValueError):
        identity(2) * identity(3)


def word_elements(n):
    """An element of period n from a random word of up to 8n letters."""
    return st.lists(st.integers(0, n - 1), max_size=8 * n).map(lambda word: from_word(n, word))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(word_elements(n), word_elements(n), word_elements(n))))
def test_product_matches_apply_oracle(xyz):
    x, y, z = xyz
    assert x * y == product_by_apply(x, y)
    assert (x * y) * z == x * (y * z)
    assert x * x.inverse() == identity(x.n)


def test_cached_attribute_computes_once():
    calls = []

    class Box:
        @cached_attribute
        def value(self):
            """The docstring is kept."""
            calls.append(self)
            return object()

    box = Box()
    first = box.value
    assert box.value is first and box.__dict__["value"] is first
    assert calls == [box]
    assert Box.value.__doc__ == "The docstring is kept."
    w = from_word(4, [2, 3, 1, 2])
    assert "reduced_word" not in w.__dict__
    word = w.reduced_word
    assert w.reduced_word is word and w.__dict__["reduced_word"] is word


def test_identity_and_inverse():
    for w in random_elements(3, 30, 10, seed=3):
        assert w * w.inverse() == identity(3)
        assert w.inverse() * w == identity(3)
        assert w.inverse().inverse() == w
    for a, b in zip(random_elements(5, 10, 8, seed=4), random_elements(5, 10, 8, seed=5)):
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_products_keep_windows_valid():
    # residue-distinctness and the fixed window sum survive arithmetic
    for w in random_elements(4, 20, 12, seed=6):
        for v in (w, w.inverse(), w * w):
            assert sorted(x % 4 for x in v.window) == [0, 1, 2, 3]
            assert sum(v.window) == 10


# ----------------------------------------------------------------------
# length, descents, words


def test_length_counts_inversions():
    for w in ball(2, 8) | ball(3, 6):
        assert w.length == length_by_inversions(w)
    for n in (4, 5):
        for w in random_elements(n, 25, 10, seed=n):
            assert w.length == length_by_inversions(w)
    assert identity(5).length == 0


def test_length_and_support_respect_inverse():
    for w in ball(3, 6):
        assert w.length == w.inverse().length
        assert w.support == w.inverse().support


def test_descents_predict_length_change():
    for w in ball(3, 5) | ball(2, 7):
        n = w.n
        for i in range(n):
            right = w.times_s(i)
            assert abs(right.length - w.length) == 1
            assert (right.length < w.length) == (i in w.right_descents)
            left = w.s_times(i)
            assert abs(left.length - w.length) == 1
            assert (left.length < w.length) == (i in w.inverse().right_descents)


def test_from_word_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        u = [rng.randrange(4) for _ in range(rng.randrange(8))]
        v = [rng.randrange(4) for _ in range(rng.randrange(8))]
        assert from_word(4, u + v) == from_word(4, u) * from_word(4, v)


def test_from_word_matches_times_s_chain():
    # letters are applied in place on one window; the chain of checked
    # times_s products is the reference, errors included
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 7)
        word = [rng.randrange(-1, n + 1) for _ in range(rng.randrange(12))]
        w = identity(n)
        try:
            for i in word:
                w = w.times_s(i)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                from_word(n, word)
            assert str(got.value) == str(exc)
        else:
            assert from_word(n, word) == w
    for n in (-1, 0, 1):
        for word in ([], [0]):
            with pytest.raises(ValueError, match="period must be at least 2"):
                from_word(n, word)


def test_reduced_word_reproduces_element():
    for w in ball(3, 6):
        word = w.reduced_word
        assert len(word) == w.length
        assert all(0 <= i < 3 for i in word)
        assert from_word(3, word) == w
    assert from_word(4, [2, 3, 1, 2]).reduced_word == (2, 3, 1, 2)
    assert from_word(4, [2, 3, 1, 2]).window == (3, 4, 1, 2)


def test_reduced_word_matches_rescan_greedy():
    # the scan that resumes next to each stripped letter finds the same
    # smallest descent as a scan of every node: every element of small
    # balls, and random words up to n = 40
    checked = 0
    for n, radius in ((2, 12), (3, 9), (4, 7), (5, 6), (6, 5)):
        for level in itertools.islice(ball_levels(n), radius + 1):
            for w in level:
                assert w.reduced_word == reduced_word_by_rescan(w), w.window
                checked += 1
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 41)
        w = from_word(n, [rng.randrange(n) for _ in range(rng.randrange(3 * n))])
        assert w.reduced_word == reduced_word_by_rescan(w), w.window
    assert checked == 1374


def test_support_ignores_stripping_order():
    # strip to the identity choosing descents several different ways;
    # the set of letters used must always equal the support
    rng = random.Random(8)
    elements = random_elements(3, 50, 12, seed=9) + random_elements(4, 50, 12, seed=10)
    for w in elements:
        for pick in (min, max, lambda d: rng.choice(sorted(d))):
            letters = set()
            v = w
            while v.right_descents:
                i = pick(v.right_descents)
                letters.add(i)
                v = v.times_s(i)
            assert frozenset(letters) == w.support


# ----------------------------------------------------------------------
# parabolic subgroups


def test_longest_element_shape():
    for n, subset in [(4, {1}), (4, {1, 2}), (4, {0, 2}), (5, {0, 1, 3}), (5, {4, 0, 1})]:
        w0 = longest_element(n, subset)
        assert w0.right_descents == frozenset(subset)
        assert w0.length == sum(len(r) * (len(r) + 1) // 2 for r in cycle_runs(n, subset))
        assert w0 * w0 == identity(n)
        assert w0.support == frozenset(subset)


def test_longest_element_matches_word_oracle():
    for n in range(2, 10):
        for mask in range((1 << n) - 1):  # every proper subset of the cycle
            subset = {v for v in range(n) if mask >> v & 1}
            assert longest_element(n, subset) == longest_element_by_word(n, subset), (n, subset)


def test_longest_length_adds_over_runs():
    # {4, 0, 1} is one cyclic run of three nodes: a copy of S_4
    assert longest_element(5, {4, 0, 1}).length == 6
    assert longest_element(5, {0, 2}).length == 2
    with pytest.raises(ValueError, match="proper"):
        longest_element(3, {0, 1, 2})
    with pytest.raises(ValueError):
        longest_element(3, {0, 3})


def test_coset_decompose():
    subsets = [frozenset(s) for r in range(3) for s in itertools.combinations(range(3), r)]
    for w in ball(3, 6):
        for K in subsets:
            v, u = coset_decompose(w, K)
            assert v * u == w
            assert v.length + u.length == w.length
            assert not (v.right_descents & K)
            assert u.support <= K
            assert coset_decompose(v, K) == (v, identity(3))
    for K in ({3}, {-1}, {0, 5}):
        with pytest.raises(ValueError, match="outside 0..2"):
            coset_decompose(from_word(3, [0, 1]), K)


def test_coset_decompose_and_support_match_stripping_oracle():
    # every K, the full cycle included, against letter-by-letter stripping;
    # the support read off the window against the letters of a reduced word
    pairs = 0
    for w in ball(2, 12) | ball(3, 9) | ball(4, 7) | ball(5, 5):
        assert w.support == frozenset(w.reduced_word), w.window
        for mask in range(1 << w.n):
            K = {v for v in range(w.n) if mask >> v & 1}
            assert coset_decompose(w, K) == coset_decompose_by_stripping(w, K), (w.window, K)
            pairs += 1
    assert pairs == 13_940


# ----------------------------------------------------------------------
# Bruhat order and Poincare polynomials


def lower_by_subwords(w, J=()):
    """The oracle's interval in the walk's form, on W^J: the window of each
    x⁻¹ -> the length of x."""
    js = frozenset(J)
    return {x.inverse().window: x.length for x in subword_lower_set(w) if not x.right_descents & js}


def walk(w, J=()):
    """The package's walk of the x <= w in W^J, J given as a set."""
    return _quotient_walk(w, sum(1 << j for j in set(J)))


def test_bruhat_matches_subword_oracle():
    # every J, the empty and the full set included
    for w in ball(3, 5) | ball(4, 3):
        for mask in range(1 << w.n):
            J = {v for v in range(w.n) if mask >> v & 1}
            assert walk(w, J) == lower_by_subwords(w, J), (w.window, J)


def test_bruhat_lower_interval():
    w = longest_element(4, {1, 2})
    interval = walk(w)
    assert interval == lower_by_subwords(w)
    assert max(interval.values()) == w.length
    assert [y for y, length in interval.items() if length == w.length] == [w.inverse().window]
    assert len(interval) == poincare_polynomial(w)(1)
    long = from_word(2, [0, 1] * 8 + [0])  # reduced: the infinite dihedral group
    assert long.length == 17
    with pytest.raises(BudgetExceeded, match="length 17 exceeds cap 16"):
        walk(long)
    with pytest.raises(BudgetExceeded, match="length 17 exceeds cap 16"):
        poincare_polynomial(long)


def test_interval_is_a_new_dict_per_call():
    w = from_word(4, [2, 3, 1, 2, 0])
    expected = lower_by_subwords(w, {1})
    first = walk(w, {1})
    first.clear()
    first[(9, 9)] = 9
    assert walk(w, {1}) == expected
    whole = walk(w)
    whole[w.window] = 0
    assert walk(w) == lower_by_subwords(w)


def test_interval_lengths_count_inversions():
    for w in ball(3, 6) | ball(4, 5):
        for y, length in walk(w).items():
            assert length == length_by_inversions(from_window(w.n, y).inverse()), (w.window, y)


def test_poincare_polynomial_counts_interval_by_length():
    for w in sorted(ball(3, 5), key=lambda w: (w.length, w.window))[::3]:
        lower = subword_lower_set(w)
        expected = [0] * (w.length + 1)
        for x in lower:
            expected[x.length] += 1
        assert poincare_polynomial(w) == Polynomial(tuple(expected))
    assert poincare_polynomial(identity(3)) == Polynomial.of(1)
    assert poincare_polynomial(longest_element(4, {1, 2})) == Polynomial.of(1, 2, 2, 1)
    with pytest.raises(ValueError):
        poincare_polynomial(longest_element(4, {1}), J={1})


def test_relative_poincare_polynomial_matches_subwords():
    # P^J_w for J a set of ascents of w, the form the queries benchmark asks for
    tops = sorted(ball(3, 4) | ball(4, 3), key=lambda w: (w.n, w.length, w.window))
    # period 8 up to length 10, the benchmark's reach: random reduced words
    rng = random.Random(8)
    for length in (6, 8, 9, 10, 10, 10):
        w = identity(8)
        while w.length < length:
            w = w.times_s(rng.choice(sorted(set(range(8)) - w.right_descents)))
        tops.append(w)
    for w in tops:
        ascents = sorted(set(range(w.n)) - w.right_descents)
        for J in ({ascents[0]}, set(ascents[::2]), set(ascents)):
            expected = Polynomial.from_length_counts(poincare_by_subwords(w, J))
            assert poincare_polynomial(w, J) == expected, (w.window, J)
    # s_1 s_2 is the top of the quotient of S_3 by <s_1>: e, s_2, s_1 s_2
    assert poincare_polynomial(from_word(4, [1, 2]), {1}) == Polynomial.of(1, 1, 1)


def test_poincare_polynomial_builds_no_element(monkeypatch):
    # w's length, descents and reduced word stay unread until the count
    # starts: they are read off the window too.  The walk holds inverse
    # windows of W^J alone and never inverts one back
    w = from_word(8, [1, 2, 3, 4, 5, 6, 7, 0, 1, 2])
    assert from_window(8, w.window).length == 10
    built, inverted = [], []
    check = AffinePermutation.__post_init__

    def counted(self):
        built.append(self.window)
        check(self)

    monkeypatch.setattr(AffinePermutation, "__post_init__", counted)
    monkeypatch.setattr("schubsmooth.affine._inverse_window", inverted.append)
    p = poincare_polynomial(w)
    q = poincare_polynomial(w, {3})
    held = len(_quotient_walk(w, 1 << 3))
    assert built == inverted == []
    monkeypatch.undo()
    assert p == Polynomial.from_length_counts(poincare_by_subwords(w))
    assert q == Polynomial.from_length_counts(poincare_by_subwords(w, {3}))
    assert held == q(1) < p(1)


def test_cycle_runs_match_adjacency_oracle():
    for n in range(2, 9):
        # a path on 1..n is checked as the (n+1)-cycle with vertex 0 absent
        for size, vertices in ((n, range(n)), (n + 1, range(1, n + 1))):
            def adjacent(u, v):
                return (u - v) % size in (1, size - 1)

            for r in range(len(vertices) + 1):
                for sub in itertools.combinations(vertices, r):
                    runs = cycle_runs(size, set(sub))
                    assert frozenset(map(frozenset, runs)) == components_by_adjacency(sub, adjacent)
                    firsts = [run[0] for run in runs]
                    assert firsts == sorted(firsts)
                    if r == size:
                        assert runs == (tuple(range(size)),)
                        continue
                    for run in runs:
                        assert (run[0] - 1) % size not in sub
                        assert all((b - a) % size == 1 for a, b in zip(run, run[1:]))


def test_node_sets_outside_the_cycle_are_rejected():
    # every node set given to the package passes one checked conversion,
    # whose ValueError names the members outside 0..n-1; {5} comes first,
    # and {0, 1, 2, 5} holds a bit above the cycle that an unchecked run
    # walk would follow forever
    g, w = cycle_graph(3), from_window(3, (4, -1, 3))
    calls = [
        lambda nodes: cycle_runs(3, nodes),
        lambda nodes: longest_element(3, nodes),
        lambda nodes: coset_decompose(w, nodes),
        g.is_connected,
        g.run_order,
        g.runs,
        *(functools.partial(f, w) for f in (
            complete_bp_decomposition, is_smooth_partial, poincare_polynomial
        )),
    ]
    for nodes, bad in (({5}, [5]), ({-1}, [-1]), ({1, 3}, [3]), ({0, 1, 2, 5}, [5]), ([0, 7, -2, 7], [-2, 7])):
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"nodes {bad} outside 0..2")):
                call(nodes)


def test_ball_levels_match_ball_oracle():
    for n in range(2, 5):
        levels = list(itertools.islice(ball_levels(n), 9))
        for length, level in enumerate(levels):
            assert {w.length for w in level} <= {length}
        for r in range(9):
            assert frozenset().union(*levels[: r + 1]) == ball(n, r)
