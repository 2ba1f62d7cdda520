"""Pattern avoidance and smoothness against a naive wide-window search.

The implementation's windowed pattern scan is checked against an
exhaustive search over a deliberately wider window, and the avoider
counts are pinned both for finite symmetric groups and for the affine
enumeration.  The displacement bound that makes the enumeration finite
is checked on the oracles alone, and the growth of the enumeration from
one period to the next against the bounded product of windows and the
flattening of small group balls.  Twisted spirals get their own battery:
recognized, never smooth, always rationally smooth, and recognized as
the word-by-word oracle recognizes them.
"""

import random
import tracemalloc
from itertools import permutations

import pytest

from oracles import (
    PATTERN_3412,
    PATTERN_4231,
    ball,
    bounded_windows,
    contains_pattern,
    flatten,
    inversion_balance,
    is_twisted_spiral_by_words,
    naive_contains,
    pattern_occurrence,
)
from schubsmooth.affine import (
    AffinePermutation,
    coset_decompose,
    from_window,
    from_word,
    identity,
    longest_element,
    poincare_polynomial,
)
from schubsmooth.errors import BudgetExceeded
from schubsmooth.smoothness import (
    SpiralSpec,
    _avoids_3412_4231,
    enumerate_smooth,
    is_rationally_smooth,
    is_smooth,
    is_twisted_spiral,
    spiral,
    twisted_spiral,
)

# counts of elements of the finite symmetric group S_k avoiding both
# 3412 and 4231, k = 2..6 (the classical smooth-permutation counts)
FINITE_AVOIDERS = (2, 6, 22, 88, 366)


def test_pattern_argument_validation():
    w = identity(3)
    with pytest.raises(ValueError):
        contains_pattern(w, (1, 3, 2, 2))
    with pytest.raises(ValueError):
        contains_pattern(w, ())
    with pytest.raises(ValueError):
        contains_pattern(w, (1, 2, 4, 3))  # first value not above last


def test_containment_matches_wide_window_oracle():
    elements = set(ball(2, 8) | ball(3, 6))
    rng = random.Random(11)
    for n in (4, 5):
        for _ in range(20):
            word = [rng.randrange(n) for _ in range(rng.randrange(11))]
            elements.add(from_word(n, word))
    for w in elements:
        for p in (PATTERN_3412, PATTERN_4231):
            assert contains_pattern(w, p) == naive_contains(w, p), (w.window, p)


def test_is_smooth_matches_generic_search():
    elements = set(ball(2, 20) | ball(3, 18) | ball(4, 16))
    rng = random.Random(7)
    for n in range(5, 9):
        for _ in range(500):
            word = [rng.randrange(n) for _ in range(rng.randrange(8 * n + 1))]
            elements.add(from_word(n, word))
    for w in elements:
        expected = not contains_pattern(w, PATTERN_3412) and not contains_pattern(w, PATTERN_4231)
        assert is_smooth(w) == expected, w.window


def test_smooth_verdict_is_scanned_once(monkeypatch):
    # is_smooth keeps its verdict with the element, so is_rationally_smooth
    # after it scans the window no second time
    scans = []
    scan = _avoids_3412_4231

    def counted(n, win):
        scans.append(win)
        return scan(n, win)

    monkeypatch.setattr("schubsmooth.smoothness._avoids_3412_4231", counted)
    spiral = twisted_spiral(SpiralSpec(0, 2, "x"), 3)
    for w in (from_window(4, [3, 4, 1, 2]), from_word(2, [0, 1, 0]), from_word(3, [1, 2]), spiral):
        scans.clear()
        is_smooth(w)
        is_rationally_smooth(w)
        assert scans == [w.window]


def test_kept_verdict_matches_a_fresh_scan():
    # the verdict kept with an element is what a new scan of its window,
    # a fresh element with that window and the pattern oracle all give
    for w in ball(3, 9) | ball(4, 8):
        kept = is_smooth(w)
        assert is_smooth(w) is kept and vars(w)["_smooth"] is kept
        expected = all(pattern_occurrence(w, p) is None for p in (PATTERN_3412, PATTERN_4231))
        assert kept == _avoids_3412_4231(w.n, w.window) == is_smooth(from_window(w.n, w.window)) == expected


def test_occurrences_are_witnesses():
    for w in ball(3, 6):
        for p in (PATTERN_3412, PATTERN_4231):
            pos = pattern_occurrence(w, p)
            if pos is None:
                continue
            assert len(pos) == 4 and 1 <= pos[0] <= w.n
            assert all(a < b for a, b in zip(pos, pos[1:]))
            vals = [w.apply(i) for i in pos]
            shifted = [w.apply(i + w.n) for i in pos]
            for a in range(4):
                for b in range(a + 1, 4):
                    assert (vals[a] < vals[b]) == (p[a] < p[b])
                    # occurrences translate by the period
                    assert (shifted[a] < shifted[b]) == (p[a] < p[b])


def test_finite_symmetric_group_counts():
    for k, expected in zip(range(2, 7), FINITE_AVOIDERS):
        count = sum(1 for p in permutations(range(1, k + 1)) if is_smooth(from_window(k, p)))
        assert count == expected


def test_smooth_frozen_examples():
    assert is_smooth(identity(4))
    assert not is_smooth(from_window(4, (3, 4, 1, 2)))
    assert not is_smooth(from_window(4, (4, 2, 3, 1)))
    assert contains_pattern(from_window(4, (3, 4, 1, 2)), PATTERN_3412)
    assert contains_pattern(from_window(4, (4, 2, 3, 1)), PATTERN_4231)
    assert not is_smooth(from_word(2, [1, 0, 1]))
    assert is_smooth(longest_element(4, {1, 2}))


def test_avoidance_is_inverse_symmetric():
    for w in ball(3, 6) | enumerate_smooth(2):
        assert is_smooth(w) == is_smooth(w.inverse())


def test_parabolic_right_factor_of_smooth_is_smooth():
    for w in enumerate_smooth(3):
        for K in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
            _, u = coset_decompose(w, K)
            assert is_smooth(u)


def test_enumerate_smooth_small_periods():
    two = enumerate_smooth(2)
    assert sorted(w.window for w in two) == [(-1, 4), (0, 3), (1, 2), (2, 1), (3, 0)]
    assert sorted(w.length for w in two) == [0, 1, 1, 2, 2]
    assert len(enumerate_smooth(2)) == 5
    assert len(enumerate_smooth(3)) == 31
    for n in (2, 3):
        found = enumerate_smooth(n)
        assert identity(n) in found
        assert {w.inverse() for w in found} == set(found)
        for w in found:
            assert is_rationally_smooth(w)
            assert not is_twisted_spiral(w)


def test_enumerate_smooth_budgets():
    with pytest.raises(ValueError):
        enumerate_smooth(1)
    with pytest.raises(BudgetExceeded, match="capped at n = 7, got 8"):
        enumerate_smooth(8)


def test_enumerate_smooth_matches_bounded_product():
    for n in range(2, 6):
        assert enumerate_smooth(n) == {w for w in bounded_windows(n) if is_smooth(w)}


def test_enumerate_smooth_builds_only_kept_windows(monkeypatch):
    # a rejected candidate is scanned as a window: a cold enumeration of
    # periods 2..4 builds one checked element per smooth element found
    before = {n: enumerate_smooth(n) for n in (2, 3, 4)}
    built = []
    check = AffinePermutation.__post_init__

    def counting_check(w):
        built.append(w.window)
        check(w)

    monkeypatch.setattr(AffinePermutation, "__post_init__", counting_check)
    enumerate_smooth.cache_clear()
    after = {n: enumerate_smooth(n) for n in (2, 3, 4)}
    monkeypatch.undo()
    assert after == before
    assert len(built) == len(set(built)) == 5 + 31 + 173


def test_flattening_keeps_smooth_elements_smooth():
    smooth = [w for n, r in ((3, 9), (4, 8), (5, 6)) for w in ball(n, r) if is_smooth(w)]
    assert len(smooth) == 538
    for w in smooth:
        assert flatten(w) in enumerate_smooth(w.n - 1)


# ----------------------------------------------------------------------
# the displacement bound: a 3412-avoider has |w(i) - i| <= 2(n-1)


def displacement(w):
    return max(abs(w.apply(i) - i) for i in range(1, w.n + 1))


def test_inversion_balance_is_displacement():
    rng = random.Random(5)
    for n in range(2, 8):
        for _ in range(50):
            residues = list(range(1, n + 1))
            rng.shuffle(residues)
            shifts = [rng.randint(-3, 3) for _ in range(n - 1)]
            shifts.append(-sum(shifts))
            w = AffinePermutation(n, tuple(r + k * n for r, k in zip(residues, shifts)))
            for i in range(-n, 2 * n):
                assert inversion_balance(w, i) == w.apply(i) - i, (w.window, i)


def test_3412_avoiders_obey_displacement_bound():
    for n in (2, 3, 4):
        far = [w for w in ball(n, 4 * n) if displacement(w) > 2 * (n - 1)]
        assert far  # the ball reaches past the bound
        for w in far:
            assert naive_contains(w, PATTERN_3412), w.window


def test_displacement_bound_is_attained():
    for n in range(2, 7):
        w = AffinePermutation(n, (3 - 2 * n,) + tuple(range(n + 2, 3, -1)))
        assert displacement(w) == 2 * (n - 1)
        assert not naive_contains(w, PATTERN_3412)
        assert not naive_contains(w, PATTERN_4231)


def test_far_window_is_rejected_in_constant_memory():
    # past the bound the displacement alone answers, so is_smooth never
    # builds the 2D values a scan of this window would read (81 MB)
    w = AffinePermutation(2, (1 - 10**6, 2 + 10**6))
    tracemalloc.start()
    try:
        assert not is_smooth(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ----------------------------------------------------------------------
# spirals


def test_spiral_words_are_reduced():
    assert spiral(SpiralSpec(0, 2, "x"), 3).reduced_word == (0, 2, 1, 0)
    for n in range(2, 7):
        for k in (2, 3, 4):
            for i in range(n):
                for d in ("x", "y"):
                    # x(i, m) = s_{i+m-1} ... s_i and y(i, m) = s_{i-m+1} ... s_i
                    m = k * (n - 1)
                    if d == "x":
                        word = [(i + m - 1 - t) % n for t in range(m)]
                    else:
                        word = [(i - m + 1 + t) % n for t in range(m)]
                    w = spiral(SpiralSpec(i, k, d), n)
                    assert w == from_word(n, word) and w.length == m


def test_spiral_spec_validation():
    with pytest.raises(ValueError):
        SpiralSpec(0, 1, "x")
    with pytest.raises(ValueError):
        SpiralSpec(0, 2, "up")
    with pytest.raises(ValueError):
        spiral(SpiralSpec(5, 2, "x"), 3)


def test_twisted_spirals_recognized_never_smooth():
    for n in (2, 3, 4):
        others_len = {i: longest_element(n, frozenset(range(n)) - {i}).length for i in range(n)}
        for k in (2, 3):
            for i in range(n):
                for d in ("x", "y"):
                    w = twisted_spiral(SpiralSpec(i, k, d), n)
                    assert w.length == k * (n - 1) + others_len[i]
                    assert is_twisted_spiral(w)
                    assert not is_smooth(w)
                    assert is_rationally_smooth(w)


def test_twisted_spiral_poincare_is_palindromic():
    w = twisted_spiral(SpiralSpec(0, 2, "x"), 3)
    assert w.length == 7
    p = poincare_polynomial(w)
    assert p.is_palindromic()
    assert len(p.coeffs) - 1 == 7


def test_twisted_spiral_rejects_others():
    assert not is_twisted_spiral(identity(3))
    assert not is_twisted_spiral(longest_element(3, {1, 2}))
    assert not is_twisted_spiral(spiral(SpiralSpec(0, 2, "x"), 3))
    for w in enumerate_smooth(3):
        assert not is_twisted_spiral(w)


def test_twisted_spiral_matches_word_oracle():
    near_identity = [w for n, r in ((2, 16), (3, 12), (4, 9), (5, 7)) for w in ball(n, r)]
    near_spirals = []
    for n in range(2, 7):
        for k in (2, 3, 4):
            for i in range(n):
                for d in ("x", "y"):
                    w = twisted_spiral(SpiralSpec(i, k, d), n)
                    near_spirals += [w, spiral(SpiralSpec(i, k, d), n)]
                    near_spirals += [w.times_s(j) for j in range(n)] + [w.s_times(j) for j in range(n)]
    for elements, twisted in ((near_identity, 46), (near_spirals, 168)):
        verdicts = [is_twisted_spiral(w) for w in elements]
        assert verdicts == [is_twisted_spiral_by_words(w) for w in elements]
        assert sum(verdicts) == twisted


def test_long_twisted_spiral_builds_few_elements(monkeypatch):
    # spirals are read off their windows: the cost does not grow with k
    built = []
    check = AffinePermutation.__post_init__

    def counting_check(w):
        built.append(w.n)
        check(w)

    monkeypatch.setattr(AffinePermutation, "__post_init__", counting_check)
    w = twisted_spiral(SpiralSpec(1, 10**5, "y"), 4)
    assert w.length == 300_006
    assert is_twisted_spiral(w) and is_rationally_smooth(w) and not is_smooth(w)
    assert len(built) <= 20
