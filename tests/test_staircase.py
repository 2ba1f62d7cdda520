"""Staircase diagrams against exhaustive generation from the axioms.

The centrepiece is a two-tier brute-force oracle.  Tier one tries every
set of connected blocks under every assignment of pairwise relations,
keeps the transitive ones, and filters by validate; it is feasible only
on two or three vertices.  Tier two prunes with two facts that hold in
every valid diagram (touching blocks are comparable; no block contains
another) and is checked against tier one before being trusted at the
larger sizes, where it must reproduce enumerate_diagrams exactly.

The rest of the file pins the axiom checker on hand-built examples and
exercises the bijections: Dyck paths, breaking, the two gluing maps,
flip, and the map to affine permutations.
"""

import itertools
import json
import random
import time

import pytest

from oracles import (
    all_posets,
    break_staircase,
    glue_by_labels,
    heights_by_chains,
    order_and_covers,
    to_element_by_factors,
    unbreak,
    validate_by_chains,
)
from schubsmooth import staircase
from schubsmooth.affine import AffinePermutation, longest_element
from schubsmooth.errors import BudgetExceeded, MalformedDiagram
from schubsmooth.series import (
    catalan,
    series_A_closed,
    series_AB,
    series_Abar,
    series_AF,
    series_AM,
)
from schubsmooth.smoothness import enumerate_smooth, is_smooth
from schubsmooth.staircase import (
    DECREASING,
    INCREASING,
    BrokenStaircase,
    CoxGraph,
    DyckPath,
    StaircaseDiagram,
    broken_staircases,
    cycle_decompose,
    cycle_glue,
    cycle_graph,
    dyck_paths,
    enumerate_diagrams,
    from_dyck,
    from_json,
    fully_supported_cycle_diagrams,
    fully_supported_path_diagrams,
    increasing_diagrams,
    line_decompose,
    line_glue,
    path_graph,
    render,
    to_dyck,
    to_element,
    to_json,
)

# the four-block wrap-around example used throughout: a valid spherical
# diagram on the ten-node cycle
WRAP = StaircaseDiagram(
    cycle_graph(10),
    [[0, 1, 2, 3], [7, 8, 9, 0, 1], [5, 6, 7], [3, 4, 5, 6]],
    [(0, 1), (1, 2), (2, 3)],
)


# ----------------------------------------------------------------------
# graphs


def test_graph_basics():
    p = path_graph(4)
    assert p.vertices == (1, 2, 3, 4)
    assert p.edges() == [(1, 2), (2, 3), (3, 4)]
    c = cycle_graph(4)
    assert c.vertices == (0, 1, 2, 3)
    assert c.edges() == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert cycle_graph(2).edges() == [(0, 1)]
    with pytest.raises(ValueError):
        CoxGraph("tree", 3)
    with pytest.raises(ValueError):
        cycle_graph(1)


def test_graph_connectivity_and_runs():
    c = cycle_graph(5)
    assert c.is_connected({4, 0, 1})
    assert not c.is_connected({0, 2})
    assert c.is_connected(range(5))
    assert c.runs({4, 0, 2}) == ((2,), (4, 0))
    assert c.run_order({3, 4, 0}) == (3, 4, 0)
    with pytest.raises(ValueError):
        c.runs(range(5))
    p = path_graph(5)
    assert p.runs({1, 2, 4}) == ((1, 2), (4,))
    # a path has no vertex 0, although the cycle it is checked on does
    with pytest.raises(ValueError, match=r"^subset nodes \[0\] outside 1\.\.5$"):
        p.runs({0, 1})
    with pytest.raises(ValueError, match=r"^subset nodes \[0\] outside 1\.\.5$"):
        p.is_connected({0, 1, 5})
    with pytest.raises(ValueError, match=r"^subset nodes \[6, 7\] outside 1\.\.5$"):
        p.run_order({5, 6, 7})
    with pytest.raises(ValueError, match=r"^subset nodes \[5\] outside 0\.\.4$"):
        c.runs({4, 5})
    # the graph constructors hand out one shared graph per n
    assert path_graph(5) is p and cycle_graph(5) is c and c == CoxGraph("cycle", 5)


# ----------------------------------------------------------------------
# construction and canonicalization


def test_malformed_diagrams_rejected():
    g = path_graph(3)
    with pytest.raises(MalformedDiagram):
        StaircaseDiagram(g, [[]], [])
    with pytest.raises(MalformedDiagram):
        StaircaseDiagram(g, [[1, 5]], [])
    with pytest.raises(MalformedDiagram):
        StaircaseDiagram(g, [[1], [1]], [])
    with pytest.raises(MalformedDiagram):
        StaircaseDiagram(g, [[1], [2]], [(0, 3)])
    with pytest.raises(MalformedDiagram):
        StaircaseDiagram(g, [[1]], [(0, 0)])
    with pytest.raises(MalformedDiagram):
        StaircaseDiagram(g, [[1], [2]], [(0, 1), (1, 0)])


def test_constructor_canonicalizes():
    g = path_graph(3)
    # covers given as a full relation and as covers: same diagram
    a = StaircaseDiagram(g, [[1], [2], [3]], [(0, 1), (1, 2), (0, 2)])
    b = StaircaseDiagram(g, [[3], [1], [2]], [(1, 2), (2, 0)])
    assert a == b
    assert a.covers == ((0, 1), (1, 2))
    assert a.blocks == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert a.less(0, 2) and not a.less(2, 0)
    assert a.less(0, 1) and not a.less(1, 1)


def test_constructor_order_matches_oracle():
    # every poset on k <= 4 points, fed as its full order, as its covers and
    # with one pair reversed (a cycle), over blocks given in every order
    g = path_graph(4)
    singletons = [frozenset({v}) for v in g.vertices]
    for k in range(5):
        sorted_blocks = tuple(singletons[:k])
        for order in all_posets(k):
            closed, covers = order_and_covers(k, order)
            assert closed == order
            inputs = [order, covers] + [order | {(j, i)} for i, j in sorted(order)[:1]]
            for relation in inputs:
                expected = order_and_covers(k, relation)
                for perm in itertools.permutations(range(k)):
                    # input slot t holds sorted block perm[t]
                    slot = {label: t for t, label in enumerate(perm)}
                    blocks = [sorted_blocks[label] for label in perm]
                    pairs = sorted((slot[i], slot[j]) for i, j in relation)
                    if expected is None:
                        with pytest.raises(MalformedDiagram, match="cycle"):
                            StaircaseDiagram(g, blocks, pairs)
                        continue
                    d = StaircaseDiagram(g, blocks, pairs)
                    assert d.blocks == sorted_blocks
                    assert d._masks == tuple(sum(1 << v for v in b) for b in d.blocks)
                    assert d.covers == tuple(sorted(expected[1]))
                    assert {
                        (i, j) for i in range(k) for j in range(k) if d.less(i, j)
                    } == expected[0]
                    # the down masks are the transpose of the up masks
                    assert d._down == tuple(
                        sum(1 << j for j in range(k) if d._up[j] >> i & 1) for i in range(k)
                    )
                    # the linear extension lists each block once, after all below
                    # it, each time the lowest index with nothing unlisted below
                    place = {i: p for p, i in enumerate(d._linear)}
                    assert sorted(d._linear) == list(range(k))
                    assert all(place[i] < place[j] for i, j in expected[0])
                    for p, i in enumerate(d._linear):
                        left = d._linear[p:]
                        assert i == min(j for j in left if all((b, j) not in expected[0] for b in left))
                    assert d.heights() == heights_by_chains(k, expected[0])


def test_order_queries_on_wrap_example():
    # chain A < B < C < D with blocks sorted by vertex tuple
    assert WRAP.validate()[0]
    assert WRAP.is_spherical() and WRAP.is_fully_supported()
    assert len(WRAP.blocks) == 4
    by_support = {tuple(sorted(b)): i for i, b in enumerate(WRAP.blocks)}
    a = by_support[(0, 1, 2, 3)]
    b = by_support[(0, 1, 7, 8, 9)]
    c = by_support[(5, 6, 7)]
    d = by_support[(3, 4, 5, 6)]
    assert WRAP.less(a, b) and WRAP.less(b, c) and WRAP.less(c, d)
    assert WRAP.less(a, d)
    hs = WRAP.heights()
    assert (hs[a], hs[b], hs[c], hs[d]) == (0, 1, 2, 3)
    # the blocks containing a vertex form a chain
    assert {i for i, blk in enumerate(WRAP.blocks) if 7 in blk} == {b, c}
    assert {i for i, blk in enumerate(WRAP.blocks) if 3 in blk} == {a, d}


# ----------------------------------------------------------------------
# axioms


def test_axiom_violations_reported_in_order():
    g = path_graph(3)
    ok, why = StaircaseDiagram(g, [[1, 3]], []).validate()
    assert not ok and why.startswith("axiom (1)")
    ok, why = StaircaseDiagram(g, [[1], [3]], [(0, 1)]).validate()
    assert not ok and why.startswith("axiom (1)")
    ok, why = StaircaseDiagram(g, [[1, 2], [2, 3]], []).validate()
    assert not ok and why.startswith("axiom (2)")
    # chain {1,2} < {3} < {2,3} leaves the two s_2 blocks separated
    ok, why = StaircaseDiagram(g, [[1, 2], [2, 3], [3]], [(0, 2), (2, 1)]).validate()
    assert not ok and why.startswith("axiom (3)")
    ok, why = StaircaseDiagram(g, [[1, 2], [2]], [(0, 1)]).validate()
    assert not ok and why.startswith("axiom (4)")
    ok, why = StaircaseDiagram(path_graph(2), [[1], [2]], []).validate()
    assert not ok and why.startswith("axiom (3)")
    assert StaircaseDiagram(g, [[1, 2]], []).validate() == (True, "")
    assert StaircaseDiagram(g, [], []).validate() == (True, "")


def test_every_generated_diagram_validates():
    for d in enumerate_diagrams(path_graph(4)):
        assert d.validate()[0]
    for d in enumerate_diagrams(cycle_graph(4)):
        assert d.validate()[0]
    for d in increasing_diagrams(5):
        assert d.validate()[0] and d.is_increasing()


# ----------------------------------------------------------------------
# the two-tier brute-force oracle


def connected_blocks(g):
    out = []
    for r in range(1, len(g.vertices) + 1):
        for sub in itertools.combinations(g.vertices, r):
            if g.is_connected(sub):
                out.append(frozenset(sub))
    return out


def brute_force_naive(g, max_blocks):
    """Tier one: every block set, every relation, transitivity filter,
    then validate.  No shortcuts at all."""
    found = set()
    blocks = connected_blocks(g)
    for k in range(max_blocks + 1):
        posets = all_posets(k)
        for chosen in itertools.combinations(blocks, k):
            for rel in posets:
                d = StaircaseDiagram(g, chosen, tuple(rel))
                if d.validate()[0]:
                    found.add(d)
    return found


def brute_force_pruned(g, max_blocks):
    """Tier two: same universe, skipping configurations that two facts
    rule out in any valid diagram.  Blocks that intersect share a vertex
    chain (axiom 2) and disjoint adjacent blocks share an edge chain
    (axiom 3), so touching blocks must be comparable; and a block nested
    inside another can be minimal in no vertex chain if above it, maximal
    in none if below it (axiom 4), so nested pairs never occur."""
    masked_posets = {}
    for k in range(max_blocks + 1):
        entries = []
        for rel in all_posets(k):
            comp = 0
            for p, (i, j) in enumerate(itertools.combinations(range(k), 2)):
                if (i, j) in rel or (j, i) in rel:
                    comp |= 1 << p
            entries.append((rel, comp))
        masked_posets[k] = entries
    found = set()
    blocks = connected_blocks(g)
    for k in range(max_blocks + 1):
        for chosen in itertools.combinations(blocks, k):
            if any(a <= b or b <= a for a, b in itertools.combinations(chosen, 2)):
                continue
            touching = 0
            for p, (i, j) in enumerate(itertools.combinations(range(k), 2)):
                if g.is_connected(chosen[i] | chosen[j]):
                    touching |= 1 << p
            for rel, comp in masked_posets[k]:
                if touching & ~comp:
                    continue
                d = StaircaseDiagram(g, chosen, tuple(rel))
                if d.validate()[0]:
                    found.add(d)
    return found


def test_poset_oracle_counts():
    assert [len(all_posets(k)) for k in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_validate_matches_chain_oracle():
    # the same verdict and reason as the list-based checker on the tier-one
    # universe with at most four blocks on the small graphs, where four
    # blocks on the 4-cycle are kept only when none nests in another, and
    # at most three blocks on path_graph(4) and cycle_graph(5); on a seeded
    # sample of block sets holding a disconnected block; and on every
    # diagram of the small cycles
    reasons = set()
    universes = [(g, 4) for g in (path_graph(3), cycle_graph(3), cycle_graph(4))]
    universes += [(g, 3) for g in (path_graph(4), cycle_graph(5))]
    for g, most in universes:
        for k in range(most + 1):
            for chosen in itertools.combinations(connected_blocks(g), k):
                if k == 4 == g.n and any(a <= b or b <= a for a, b in itertools.combinations(chosen, 2)):
                    continue
                for rel in all_posets(k):
                    d = StaircaseDiagram(g, chosen, tuple(rel))
                    verdict = d.validate()
                    assert verdict == validate_by_chains(d), (chosen, rel)
                    reasons.add(verdict[1].split(":")[0])
    assert reasons == {"", "axiom (1)", "axiom (2)", "axiom (3)", "axiom (4)"}
    rng = random.Random(0)
    for g in (path_graph(4), cycle_graph(5)):
        subsets = [frozenset(c) for r in range(1, g.n + 1) for c in itertools.combinations(g.vertices, r)]
        disconnected = [b for b in subsets if not g.is_connected(b)]
        for _ in range(300):
            chosen = {rng.choice(disconnected), *rng.sample(subsets, rng.randint(0, 2))}
            d = StaircaseDiagram(g, chosen, tuple(rng.choice(all_posets(len(chosen)))))
            assert d.validate() == validate_by_chains(d), (chosen, d.covers)
            assert d.validate()[1].startswith("axiom (1)")
    for n in range(2, 6):
        for d in enumerate_diagrams(cycle_graph(n)):
            assert d.validate() == validate_by_chains(d) == (True, "")


def test_axiom_2_is_reported_before_an_earlier_edge_fails_axiom_3():
    # on the 5-cycle, {4, 0} < {1} < {0, 1} splits the s_0 blocks in the
    # chain of the first edge {s_0, s_1}, and adding {2, 3} and {3},
    # incomparable, breaks the chain of s_3 further on
    g = cycle_graph(5)
    chain = [[4, 0], [1], [0, 1]]
    saturation = "axiom (3): blocks containing s_0 are not saturated in the {s_0, s_1} chain"
    d = StaircaseDiagram(g, chain, [(0, 1), (1, 2)])
    assert d.validate() == validate_by_chains(d) == (False, saturation)
    d = StaircaseDiagram(g, chain + [[2, 3], [3]], [(0, 1), (1, 2)])
    vertex = "axiom (2): blocks containing s_3 are not a chain"
    assert d.validate() == validate_by_chains(d) == (False, vertex)


def test_tiers_agree_at_small_scale():
    counts = {}
    for g in (path_graph(2), path_graph(3), cycle_graph(2), cycle_graph(3)):
        naive = brute_force_naive(g, 5)
        pruned = brute_force_pruned(g, 5)
        assert naive == pruned
        assert naive == enumerate_diagrams(g)
        counts[g.kind, g.n] = len(naive)
    assert counts["path", 3] == 22
    assert counts["cycle", 3] == 32


def test_enumeration_matches_brute_force():
    for g, expected in ((path_graph(4), 88), (path_graph(5), 366), (cycle_graph(4), 174)):
        reference = enumerate_diagrams(g)
        # no valid diagram here has more than five blocks, so the
        # five-block universe of the oracle is exhaustive
        assert max((len(d.blocks) for d in reference), default=0) <= 5
        brute = brute_force_pruned(g, 5)
        assert brute == reference
        assert len(reference) == expected


def test_enumeration_filters_and_cap():
    for g in (cycle_graph(4), path_graph(4)):
        everything = enumerate_diagrams(g)
        spherical = enumerate_diagrams(g, spherical_only=True)
        assert spherical == frozenset(d for d in everything if d.is_spherical())
    # each fully supported family is the matching subset of the whole
    for n in range(2, 6):
        everything = enumerate_diagrams(cycle_graph(n))
        family = fully_supported_cycle_diagrams(n)
        assert len(set(family)) == len(family)
        assert set(family) == {d for d in everything if d.is_spherical() and d.is_fully_supported()}
    for n in range(1, 6):
        everything = enumerate_diagrams(path_graph(n))
        family = fully_supported_path_diagrams(n)
        assert len(set(family)) == len(family)
        assert set(family) == {d for d in everything if d.is_fully_supported()}
    with pytest.raises(BudgetExceeded):
        enumerate_diagrams(path_graph(13))
    with pytest.raises(BudgetExceeded):
        enumerate_diagrams(cycle_graph(9))
    with pytest.raises(BudgetExceeded):
        fully_supported_cycle_diagrams(staircase.ENUM_MAX["cycle"] + 1)
    # each path family is capped on its own, not only through enumerate_diagrams
    over = staircase.ENUM_MAX["path"] + 1
    for family in (increasing_diagrams, broken_staircases, fully_supported_path_diagrams):
        with pytest.raises(BudgetExceeded, match=f"path enumeration capped at n = {over - 1}, got {over}"):
            family(over)
    with pytest.raises(BudgetExceeded):
        broken_staircases(over, DECREASING)
    with pytest.raises(BudgetExceeded):
        enumerate_diagrams(path_graph(over))


# ----------------------------------------------------------------------
# counts against the series module


def test_counts_match_series():
    am = series_AM(8)
    ab = series_AB(8)
    af = series_AF(7)
    abar = series_Abar(6)
    a = series_A_closed(6)
    for n in range(1, 9):
        assert len(increasing_diagrams(n)) == am[n] == catalan(n)
    for n in range(1, 9):
        assert len(broken_staircases(n)) == ab[n]
    for n in range(1, 8):
        assert len(fully_supported_path_diagrams(n)) == af[n]
    for n in range(2, 7):
        assert len(fully_supported_cycle_diagrams(n)) == abar[n]
    for n in range(2, 7):
        assert len(enumerate_diagrams(cycle_graph(n), spherical_only=True)) == a[n]
    # a few values pinned independently of the series module
    assert len(enumerate_diagrams(cycle_graph(2), spherical_only=True)) == 5
    assert len(enumerate_diagrams(cycle_graph(3), spherical_only=True)) == 31
    assert len(fully_supported_path_diagrams(4)) == 43


# ----------------------------------------------------------------------
# Dyck paths


def test_dyck_path_validation():
    with pytest.raises(ValueError):
        DyckPath(((1, 2),))
    with pytest.raises(ValueError):
        DyckPath(((2, 1),))
    with pytest.raises(ValueError):
        DyckPath(((0, 1), (2, 1)))
    assert DyckPath(((2, 1), (1, 2))).semilength == 3


def test_dyck_counts_and_roundtrip():
    for n in range(8):
        assert sum(1 for _ in dyck_paths(n)) == catalan(n)
    for n in range(1, 7):
        for p in dyck_paths(n):
            d = from_dyck(p, n)
            assert d.validate()[0] and d.is_increasing() and d.is_fully_supported()
            assert to_dyck(d) == p
    for n in range(1, 7):
        for d in increasing_diagrams(n):
            assert from_dyck(to_dyck(d), n) == d


def test_dyck_conversion_errors():
    with pytest.raises(ValueError):
        to_dyck(StaircaseDiagram(path_graph(2), [[1]], []))  # not fully supported
    with pytest.raises(ValueError):
        to_dyck(StaircaseDiagram(path_graph(2), [[1], [2]], [(1, 0)]))  # decreasing
    with pytest.raises(ValueError):
        from_dyck(DyckPath(((2, 2),)), 3)  # semilength mismatch


def test_from_dyck_frozen_example():
    d = from_dyck(DyckPath(((1, 1), (4, 2), (1, 3))), 6)
    assert [sorted(b) for b in sorted(d.blocks, key=min)] == [
        [1],
        [2, 3, 4, 5],
        [4, 5, 6],
    ]


# ----------------------------------------------------------------------
# breaking and unbreaking


def test_break_unbreak_roundtrip():
    for n in range(1, 7):
        for d in increasing_diagrams(n + 1):
            b = break_staircase(d)
            assert d in unbreak(b)
        for direction in (INCREASING, DECREASING):
            for b in broken_staircases(n, direction):
                for d in unbreak(b):
                    again = break_staircase(d)
                    assert again.blocks == b.blocks
                    # a single block is both, and breaks as increasing
                    assert again.direction == direction or len(d.blocks) == 1


def test_broken_staircases_match_breaking_oracle():
    # the pieces come straight from Dyck paths: the same shapes as breaking
    # every increasing diagram on n+1 vertices, each once, and no diagram built
    for n in range(1, 9):
        for direction in (INCREASING, DECREASING):
            broken_staircases.cache_clear()
            increasing_diagrams.cache_clear()
            pieces = broken_staircases(n, direction)
            assert increasing_diagrams.cache_info().currsize == 0
            shapes = [p.blocks for p in pieces]
            assert len(set(shapes)) == len(shapes) == catalan(n + 1) - catalan(n)
            assert set(shapes) == {break_staircase(d).blocks for d in increasing_diagrams(n + 1)}
            assert all(p.n == n and p.direction == direction for p in pieces)
    with pytest.raises(ValueError):
        broken_staircases(0)


def test_unbreak_counts():
    # each broken shape lifts to one diagram, each staircase shape to two
    for n in range(1, 8):
        total = sum(len(unbreak(b)) for b in broken_staircases(n))
        assert total == catalan(n + 1)
        assert len(broken_staircases(n)) == catalan(n + 1) - catalan(n)


def test_broken_staircase_shapes():
    b = BrokenStaircase(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({3})), INCREASING)
    assert b.is_broken
    unbroken = BrokenStaircase(2, (frozenset({1}), frozenset({2})), DECREASING)
    assert not unbroken.is_broken
    assert unbroken.as_diagram().flip().is_increasing()
    with pytest.raises(ValueError):
        BrokenStaircase(3, (frozenset({1, 3}),), INCREASING)  # not an interval
    with pytest.raises(ValueError):
        BrokenStaircase(3, (frozenset({1, 2}),), INCREASING)  # does not cover 1..3
    with pytest.raises(ValueError):
        BrokenStaircase(3, (frozenset({1}), frozenset({3})), INCREASING)  # a gap
    with pytest.raises(ValueError):
        BrokenStaircase(3, (frozenset({2, 3}),), INCREASING)  # a late start
    with pytest.raises(ValueError):
        BrokenStaircase(2, (frozenset({2}), frozenset({1})), INCREASING)
    with pytest.raises(ValueError):
        BrokenStaircase(2, (frozenset({1, 2}),), "sideways")


def test_break_requires_monotone_full_support():
    g = path_graph(3)
    with pytest.raises(ValueError):
        break_staircase(StaircaseDiagram(g, [[1, 2]], []))  # not fully supported
    peak = StaircaseDiagram(g, [[1], [2], [3]], [(0, 1), (2, 1)])
    with pytest.raises(ValueError):
        break_staircase(peak)  # fully supported, but not a chain
    two = StaircaseDiagram(path_graph(2), [[2], [1]], [(0, 1)])
    assert break_staircase(two).direction == DECREASING
    single = StaircaseDiagram(path_graph(2), [[1, 2]], [])
    assert break_staircase(single).direction == INCREASING


# ----------------------------------------------------------------------
# gluing and decomposition


def test_cycle_decompose_wrap_example():
    pieces, mark = cycle_decompose(WRAP)
    assert [p.n for p in pieces] == [2, 8]
    assert [p.direction for p in pieces] == [INCREASING, DECREASING]
    assert all(p.is_broken for p in pieces)
    assert mark == 6
    assert cycle_glue(pieces, mark) == WRAP


def test_cycle_glue_decompose_inverse():
    # every piece tuple the enumeration glues, rebuilt by the label-list oracle
    for n in range(2, 7):
        for d in fully_supported_cycle_diagrams(n):
            pieces, mark = cycle_decompose(d)
            assert sum(p.n for p in pieces) == n
            assert 1 <= mark <= pieces[-1].n
            assert cycle_glue(pieces, mark) == d
            star = n - pieces[-1].n + mark  # the slot of s_{n-1}
            labels = [(slot - star - 1) % n for slot in range(1, n + 1)]
            assert glue_by_labels(cycle_graph(n), pieces, labels, cyclic=True) == d


def test_cycle_glue_validation():
    p = BrokenStaircase(1, (frozenset({1}),), INCREASING)
    q = BrokenStaircase(1, (frozenset({1}),), DECREASING)
    assert [sorted(b) for b in cycle_glue((p, q), 1).blocks] == [[0], [1]]
    with pytest.raises(ValueError):
        cycle_glue((p,), 1)  # odd number of pieces
    with pytest.raises(ValueError):
        cycle_glue((p, p), 1)  # directions do not alternate
    with pytest.raises(ValueError):
        cycle_glue((p, q), 5)  # mark outside the last piece


def test_cycle_decompose_validation():
    with pytest.raises(ValueError):
        cycle_decompose(StaircaseDiagram(cycle_graph(3), [[0]], []))
    with pytest.raises(ValueError):
        cycle_decompose(StaircaseDiagram(cycle_graph(3), [[0, 1, 2]], []))
    with pytest.raises(ValueError):
        cycle_decompose(StaircaseDiagram(path_graph(2), [[1, 2]], []))


def test_line_glue_decompose_inverse():
    for n in range(1, 7):
        for d in fully_supported_path_diagrams(n):
            pieces, final = line_decompose(d)
            assert line_glue(pieces, final) == d
            assert final.is_increasing() and final.is_fully_supported()
            tail = BrokenStaircase(final.graph.n, tuple(sorted(final.blocks, key=min)), INCREASING)
            labels = list(range(1, n + 1))
            assert glue_by_labels(path_graph(n), (*pieces, tail), labels, cyclic=False) == d


def test_blocks_are_shared():
    # one frozenset per vertex set across every diagram through cycle 6,
    # held by caches of bounded size
    for n in range(2, 7):
        for d in enumerate_diagrams(cycle_graph(n)):
            for b in d.blocks:
                shared, key, mask = staircase._block(b)
                assert shared is b and staircase._shared(mask) is b
                assert key == tuple(sorted(b)) and mask == sum(1 << v for v in b)
    # a block given any other way is replaced by the shared one
    d = StaircaseDiagram(cycle_graph(5), [{4, 0}, (1,)], [(1, 0)])
    assert d.blocks[0] is staircase._shared(0b10001) and d.blocks[1] is staircase._shared(0b10)
    for cache in (staircase._block, staircase._shared):
        assert 0 < cache.cache_info().maxsize < 1 << 20


def test_line_glue_validation():
    inc2 = StaircaseDiagram(path_graph(2), [[1], [2]], [(0, 1)])
    dec1 = BrokenStaircase(1, (frozenset({1}),), DECREASING)
    inc1 = BrokenStaircase(1, (frozenset({1}),), INCREASING)
    assert line_glue((dec1,), inc2).graph.n == 3
    with pytest.raises(ValueError):
        line_glue((inc1,), inc2)  # directions must alternate back from the end
    with pytest.raises(ValueError):
        line_glue((), StaircaseDiagram(path_graph(2), [[1], [2]], [(1, 0)]))


# ----------------------------------------------------------------------
# flip


def test_flip_involution_preserving_counts():
    for g in (path_graph(4), cycle_graph(4)):
        pool = enumerate_diagrams(g)
        for d in pool:
            f = d.flip()
            assert f in pool
            assert f.flip() == d
            assert f.is_spherical() == d.is_spherical()
            assert f.is_fully_supported() == d.is_fully_supported()
            assert len(f.blocks) == len(d.blocks)
        assert frozenset(d.flip() for d in pool) == pool


def test_flip_swaps_increasing_decreasing():
    for d in increasing_diagrams(5):
        f = d.flip()
        chain = [f.blocks[i] for i in f._linear]  # bottom to top
        assert all(min(a) > min(b) and max(a) > max(b) for a, b in zip(chain, chain[1:]))
        assert f.is_increasing() == (len(chain) == 1)


# ----------------------------------------------------------------------
# the map to affine permutations


def test_single_block_gives_longest_element():
    d = StaircaseDiagram(path_graph(3), [[1, 2]], [])
    assert to_element(d) == longest_element(4, {1, 2})
    c = StaircaseDiagram(cycle_graph(4), [[3, 0]], [])
    assert to_element(c) == longest_element(4, {3, 0})


def test_to_element_properties():
    for n in (2, 3, 4):
        pool = sorted(
            enumerate_diagrams(cycle_graph(n), spherical_only=True),
            key=lambda d: (len(d.blocks), tuple(tuple(sorted(b)) for b in d.blocks)),
        )
        images = [to_element(d) for d in pool]
        assert len(set(images)) == len(pool)  # injective
        for d, w in zip(pool, images):
            assert is_smooth(w)
            assert to_element(d.flip()) == w.inverse()
    for n in (2, 3, 4, 5):
        image = {to_element(d) for d in enumerate_diagrams(cycle_graph(n), spherical_only=True)}
        assert image == enumerate_smooth(n)


def test_to_element_on_paths():
    for n in (1, 2, 3, 4):
        pool = enumerate_diagrams(path_graph(n))
        images = {to_element(d) for d in pool}
        assert len(images) == len(pool)
        for w in images:
            assert is_smooth(w)
            assert w.n == n + 1


def test_to_element_matches_factor_oracle():
    pool = [d for n in range(2, 7) for d in enumerate_diagrams(cycle_graph(n), spherical_only=True)]
    pool += [d for n in range(1, 6) for d in fully_supported_path_diagrams(n)]
    expected = [to_element_by_factors(d) for d in pool]
    staircase._block_factor.cache_clear()
    assert [to_element(d) for d in pool] == expected  # cold factor cache
    assert staircase._block_factor.cache_info().hits > 0
    assert [to_element(d) for d in pool] == expected  # warm factor cache
    # a cached attribute is computed once and kept on the diagram
    d = pool[-1].flip()
    assert "support" not in d.__dict__
    support = d.support
    assert d.support is support and d.__dict__["support"] is support


def test_to_element_builds_one_element_per_diagram(monkeypatch):
    # with the factor cache warm the product stays a window: one checked
    # element per diagram and no group product
    pool = [d for n in range(2, 6) for d in enumerate_diagrams(cycle_graph(n), spherical_only=True)]
    pool += [d for n in range(1, 5) for d in fully_supported_path_diagrams(n)]
    expected = [to_element(d) for d in pool]
    built, products = [], []
    check, mul = AffinePermutation.__post_init__, AffinePermutation.__mul__

    def counted_check(self):
        built.append(self.window)
        check(self)

    def counted_mul(self, other):
        products.append(other.window)
        return mul(self, other)

    monkeypatch.setattr(AffinePermutation, "__post_init__", counted_check)
    monkeypatch.setattr(AffinePermutation, "__mul__", counted_mul)
    images = [to_element(d) for d in pool]
    assert len(built) == len(pool) and products == []
    monkeypatch.undo()
    assert images == expected


def test_to_element_rejects_nonspherical():
    with pytest.raises(ValueError):
        to_element(StaircaseDiagram(cycle_graph(3), [[0, 1, 2]], []))


# ----------------------------------------------------------------------
# serialization and rendering


def test_long_reversed_chain_is_cheap():
    # 4,000 interval blocks on 1000 vertices, each covering the block listed
    # before it, so the chain runs against the sorted order: construction
    # and validate take O(blocks + pairs) mask operations, where a
    # quadratic closure or linear extension takes seconds
    ivs = sorted(tuple(range(a, a + size)) for size in range(1, 6) for a in range(1, 1002 - size))
    blocks = [list(b) for b in ivs[:4000]]
    covers = [[i + 1, i] for i in range(3999)]
    start = time.perf_counter()
    d = from_json({"graph": {"kind": "path", "n": 1000}, "blocks": blocks, "covers": covers})
    ok, why = d.validate()
    assert time.perf_counter() - start < 5.0
    assert d._linear == tuple(range(3999, -1, -1))
    assert d.covers == tuple((i + 1, i) for i in range(3999))
    assert not ok and why.startswith("axiom (3)")


def test_json_roundtrip():
    for d in (WRAP, StaircaseDiagram(path_graph(3), [[1, 2], [2, 3]], [(0, 1)])):
        assert from_json(to_json(d)) == d
    blob = json.loads(to_json(StaircaseDiagram(path_graph(2), [[1], [2]], [(0, 1)])))
    assert blob == {
        "graph": {"kind": "path", "n": 2},
        "blocks": [[1], [2]],
        "covers": [[0, 1]],
    }


def test_from_json_errors():
    with pytest.raises(MalformedDiagram):
        from_json("{not json")
    with pytest.raises(MalformedDiagram):
        from_json('{"graph": {"kind": "path", "n": 2}}')
    with pytest.raises(MalformedDiagram):
        from_json('{"graph": {"kind": "disc", "n": 2}, "blocks": [], "covers": []}')
    # n, block entries and cover indices must be JSON integers, in lists
    good = {"graph": {"kind": "path", "n": 2}, "blocks": [[1], [2]], "covers": [[0, 1]]}
    assert from_json(good) == StaircaseDiagram(path_graph(2), [[1], [2]], [(0, 1)])
    for n in (True, "2", 2.0, None):
        with pytest.raises(MalformedDiagram):
            from_json({**good, "graph": {"kind": "path", "n": n}})
    for blocks in (["12"], [[1.7], [2]], [[1], [True]], [[1], ["2"]], {"1": [1]}, "12"):
        with pytest.raises(MalformedDiagram):
            from_json({**good, "blocks": blocks})
    for covers in ([[0.2, 1]], [[0, "1"]], [[False, 1]], ["01"], [[0]], {"0": 1}, ""):
        with pytest.raises(MalformedDiagram):
            from_json({**good, "covers": covers})


def test_render_layout():
    d = StaircaseDiagram(path_graph(3), [[1, 2], [2, 3]], [(0, 1)])
    assert render(d) == "s1 s2 s3\n.. ## ##\n## ## .."
    c = StaircaseDiagram(cycle_graph(3), [[0, 1], [2]], [(0, 1)])
    # cycle pictures repeat the s0 column to show the wrap-around
    assert render(c) == "s0 s1 s2 s0\n.. .. ## ..\n## ## .. ##"
    assert render(StaircaseDiagram(path_graph(2), [], [])) == "s1 s2\n(empty diagram)"
