"""Independent brute-force reimplementations used as oracles by the tests.

Everything here is deliberately naive: direct definitions and exhaustive
search.  Nothing reuses the package's algorithms beyond constructing
elements, so agreement is evidence rather than tautology.

The generic pattern search (``pattern_occurrence``, ``contains_pattern``)
is the one windowed search here: it looks only within 2D of each start,
as the package's pair scan does, and is fast enough to check is_smooth on
thousands of elements; ``naive_contains`` checks it without the window.

``bounded_windows`` lists every window inside the displacement bound, the
finite set the package grows its smooth elements instead of filtering,
and ``flatten`` deletes one residue class as the growth's lifting lemma
states it.

``break_staircase`` is the breaking operation as defined, diagram by
diagram: the package generates broken staircases from Dyck paths instead.
``unbreak`` builds its inverse images, which the package only counts.

``glue_by_labels`` glues broken staircases the way the definition reads:
every slot gets its vertex from a list of labels and every block is built
vertex by vertex, where the package shifts and rotates block bitmasks.

``validate_by_chains`` checks the staircase axioms on lists: it reads the
order only through ``less``, lists the blocks of each vertex and edge in a
linear extension of its own and walks consecutive pairs, where the package
tests bitmasks.  ``heights_by_chains`` finds longest chains by trying every
subset.

``is_bp_by_poincare`` is the defining identity of a BP decomposition,
P^J_w = P^K_v * P^J_u: it takes the package's parabolic split w = vu and
counts every polynomial over subword lower sets, where the package decides
the identity by one descent test.

``is_twisted_spiral_by_words`` recognizes twisted spirals through their
reduced words, where the package reads spirals off windows.

``bp_split`` is not an oracle but a thin adapter over the package's
per-candidate window test: it returns the parabolic split of an element
when that split is BP, so that the defining identity and the element
search below can call the package's test on elements.

``bp_decomposition_by_elements`` searches for a complete Grassmannian BP
decomposition over elements, one coset_decompose and one bp_split per
candidate node, where the package walks the chain on windows and bitmasks
and builds only the left factor of each level.

``reduced_word_by_rescan`` strips the smallest right descent and rescans
every node after each letter, where the package resumes its scan next to
the letter it stripped.

``coset_decompose_by_stripping`` finds the minimal coset representative by
stripping right descents in K one letter at a time, where the package sorts
the window on each block of positions.

``truncated_assembly`` computes the six counting series the way the
generating functions read, on truncated coefficient tuples: a shift and an
exact halving for A_M, then schoolbook products and inverses, where the
package computes each part exactly in Q(t, sqrt(1-4t)), reduces it to
lowest terms and expands it once.

``poly_gcd_by_fractions`` is Euclid's algorithm over the rationals, with a
monic result, where the package runs a primitive pseudo-remainder sequence
over the integers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from schubsmooth.affine import (
    AffinePermutation,
    coset_decompose,
    from_word,
    identity,
    longest_element,
)
from schubsmooth.bp import _bp_cut
from schubsmooth.staircase import DECREASING, INCREASING, BrokenStaircase, StaircaseDiagram


def ball(n: int, radius: int) -> frozenset[AffinePermutation]:
    """All affine permutations of period n with length <= radius."""
    level = {identity(n)}
    seen = set(level)
    for _ in range(radius):
        nxt = set()
        for w in level:
            for i in range(n):
                y = w.times_s(i)
                if y.length > w.length:
                    nxt.add(y)
        nxt -= seen
        seen |= nxt
        level = nxt
    return frozenset(seen)


def bounded_windows(n: int) -> frozenset[AffinePermutation]:
    """Every affine permutation of period n with |w(i) - i| <= 2(n-1) for
    all i, by trying every window entry in that range."""
    bound = 2 * (n - 1)
    out = set()
    for window in itertools.product(*(range(i - bound, i + bound + 1) for i in range(1, n + 1))):
        if sum(window) == n * (n + 1) // 2 and len({v % n for v in window}) == n:
            out.add(AffinePermutation(n, window))
    return frozenset(out)


def flatten(w: AffinePermutation) -> AffinePermutation:
    """Delete from w the positions congruent to n and the values congruent
    to w(n), renumber the positions and the values that are left in
    increasing order, and shift to window sum n(n-1)/2: an affine
    permutation of period n - 1."""
    n, c = w.n, w.apply(w.n)

    def renumber(v: int) -> int:
        # the kept values in (c, v] count up from 0, those in (v, c] down
        if v > c:
            return sum(1 for u in range(c + 1, v + 1) if (u - c) % n)
        return -sum(1 for u in range(v + 1, c + 1) if (u - c) % n)

    # positions 1..n-1 are the first n - 1 kept positions, in order
    window = [renumber(w.apply(i)) for i in range(1, n)]
    shift, rest = divmod(n * (n - 1) // 2 - sum(window), n - 1)
    assert rest == 0, "the renumbered window has distinct residues mod n - 1"
    return AffinePermutation(n - 1, tuple(v + shift for v in window))


def components_by_adjacency(vertices, adjacent) -> frozenset[frozenset[int]]:
    """Connected components of the graph on the given vertices with edges
    given by the predicate adjacent(u, v), grown one neighbour at a time."""
    left = set(vertices)
    comps = []
    while left:
        comp = {left.pop()}
        while True:
            extra = {v for v in left if any(adjacent(u, v) for u in comp)}
            if not extra:
                break
            comp |= extra
            left -= extra
        comps.append(frozenset(comp))
    return frozenset(comps)


def gaussian_binomial_by_subsets(m: int, a: int) -> tuple[int, ...]:
    """Coefficients of [m choose a]_q, low degree first: each a-subset S of
    {1, ..., m} contributes q^(sum(S) - a(a+1)/2)."""
    base = a * (a + 1) // 2
    counts = Counter(sum(S) - base for S in itertools.combinations(range(1, m + 1), a))
    return tuple(counts[k] for k in range(max(counts) + 1))


def inversion_balance(w: AffinePermutation, i: int) -> int:
    """#{j > i : w(j) < w(i)} - #{j < i : w(j) > w(i)}, counted over a
    window wider than any such j can reach: w(j) < w(i) with j > i forces
    j - i < 2D, D = max |w(t) - t|, and likewise below i."""
    n = w.n
    reach = 3 * max(abs(w.apply(t) - t) for t in range(1, n + 1)) + n
    below_after = sum(1 for j in range(i + 1, i + reach + 1) if w.apply(j) < w.apply(i))
    above_before = sum(1 for j in range(i - reach, i) if w.apply(j) > w.apply(i))
    return below_after - above_before


def length_by_inversions(w: AffinePermutation) -> int:
    """Count pairs i < j with w(i) > w(j) and i in one window period.

    If w(i) > w(j) then j - i < 2D with D = max |w(t) - t|, so scanning
    j up to i + 2D misses nothing.
    """
    n = w.n
    disp = max(abs(w.apply(t) - t) for t in range(1, n + 1))
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, i + 2 * disp + 1):
            if w.apply(i) > w.apply(j):
                total += 1
    return total


def longest_element_by_word(n: int, subset) -> AffinePermutation:
    """Longest element of the parabolic subgroup on a proper subset of the
    n-cycle, as a product of letters: the standard longest word
    v1, v2 v1, v3 v2 v1, ... of each run v1, ..., vm of consecutive nodes.
    Runs are disjoint and non-adjacent, so they commute."""
    word: list[int] = []
    for start in subset:
        if (start - 1) % n in subset:
            continue
        run = [start]
        while (run[-1] + 1) % n in subset:
            run.append((run[-1] + 1) % n)
        for k in range(len(run)):
            word.extend(reversed(run[: k + 1]))
    return from_word(n, word)


def product_by_apply(x: AffinePermutation, y: AffinePermutation) -> AffinePermutation:
    """x * y by its definition: the window of the composite is x applied to
    each window entry of y, one public apply call per entry."""
    return AffinePermutation(x.n, tuple(x.apply(v) for v in y.window))


def to_element_by_factors(d) -> AffinePermutation:
    """The element of a spherical staircase diagram, rebuilding every block
    factor: along the diagram's linear extension, each block B contributes
    the longest element of W_B times that of W on B's overlap with the lower
    blocks, multiplied on the left."""
    period = d.graph.n if d.graph.kind == "cycle" else d.graph.n + 1
    w = identity(period)
    processed: set[int] = set()
    for i in d._linear:
        block = d.blocks[i]
        inner = frozenset(block & processed)
        w = longest_element(period, block) * longest_element(period, inner) * w
        processed |= block
    return w


def break_staircase(d) -> BrokenStaircase:
    """The breaking operation by its definition: drop the last vertex of a
    fully supported monotone diagram on a path with n+1 vertices, keeping
    the nonempty intersections.  The piece keeps the diagram's direction; a
    single-block diagram is both increasing and decreasing, and breaks as
    increasing."""
    if d.graph.kind != "path" or d.graph.n < 2:
        raise ValueError("need a path diagram on at least two vertices")
    if not d.is_fully_supported():
        raise ValueError("diagram is not fully supported")
    if d.is_increasing():
        direction = INCREASING
    elif d.flip().is_increasing():
        direction = DECREASING
    else:
        raise ValueError("diagram is neither increasing nor decreasing")
    last = d.graph.n
    blocks = [b - {last} for b in sorted(d.blocks, key=min)]
    return BrokenStaircase(last - 1, tuple(b for b in blocks if b), direction)


def unbreak(b: BrokenStaircase) -> tuple[StaircaseDiagram, ...]:
    """The 1 or 2 fully supported monotone diagrams on the path with n+1
    vertices whose break is b: extend the last block by the new vertex, or
    (when b is itself a valid staircase) append the new vertex as a block."""
    top = b.n + 1
    extended = b.blocks[:-1] + (b.blocks[-1] | {top},)
    out = [BrokenStaircase(top, extended, b.direction).as_diagram()]
    if not b.is_broken:
        appended = b.blocks + (frozenset({top}),)
        out.append(BrokenStaircase(top, appended, b.direction).as_diagram())
    return tuple(out)


def glue_by_labels(graph, pieces, labels, cyclic: bool) -> StaircaseDiagram:
    """Gluing on an explicit list of slot labels: slot j of the pieces laid
    side by side is vertex labels[j - 1], and each block is a set of labels
    built vertex by vertex.  An overhang joins the first block of the next
    piece (on a cycle, the last overhang joins block 0); every other block
    is kept in slot order and linked to the next kept block, wrapping round
    on a cycle, upward when its piece rises and downward when it falls."""
    assert len(labels) == sum(p.n for p in pieces)
    blocks: list[set[int]] = []
    rises: list[bool] = []
    carry: set[int] = set()
    offset = 0
    for p in pieces:
        own = [{labels[offset + v - 1] for v in b} for b in p.blocks]
        own[0] |= carry
        carry = own.pop() if p.is_broken else set()
        blocks.extend(own)
        rises.extend([p.direction == INCREASING] * len(own))
        offset += p.n
    blocks[0] |= carry
    k = len(blocks)
    links = range(k if cyclic else k - 1)
    covers = [(i, (i + 1) % k) if rises[i] else ((i + 1) % k, i) for i in links]
    return StaircaseDiagram(graph, [frozenset(b) for b in blocks], covers)


def validate_by_chains(d) -> tuple[bool, str]:
    """The four staircase axioms checked on lists, with the reasons of
    StaircaseDiagram.validate: the blocks of each vertex and of each edge
    are listed bottom to top, a list is a chain when each block lies below
    the next, and a vertex list is saturated when its blocks sit in
    consecutive places of the edge list."""
    g, blocks, k = d.graph, d.blocks, len(d.blocks)
    neighbours: dict[int, set[int]] = {v: set() for v in g.vertices}
    for a, b in g.edges():
        neighbours[a].add(b)
        neighbours[b].add(a)

    def connected(vs) -> bool:
        # walk along edges inside vs from one of its vertices
        reached, todo = set(), list(vs)[:1]
        while todo:
            v = todo.pop()
            if v not in reached:
                reached.add(v)
                todo.extend(neighbours[v] & vs)
        return reached == vs

    def is_chain(order) -> bool:
        return all(d.less(i, j) for i, j in zip(order, order[1:]))

    for b in blocks:
        if not connected(b):
            return False, f"axiom (1): block {sorted(b)} is disconnected"
    for i, j in d.covers:
        if not connected(blocks[i] | blocks[j]):
            return False, (
                f"axiom (1): cover union {sorted(blocks[i])} u "
                f"{sorted(blocks[j])} is disconnected"
            )
    # fewer blocks lie below a lower block, so this is a linear extension
    linear = sorted(range(k), key=lambda i: sum(d.less(j, i) for j in range(k)))
    chains = {s: [i for i in linear if s in blocks[i]] for s in g.vertices}
    for s in g.vertices:
        if not is_chain(chains[s]):
            return False, f"axiom (2): blocks containing s_{s} are not a chain"
    for s, t in g.edges():
        order = [i for i in linear if s in blocks[i] or t in blocks[i]]
        if not is_chain(order):
            return False, f"axiom (3): blocks meeting {{s_{s}, s_{t}}} are not a chain"
        for name in (s, t):
            slots = [p for p, i in enumerate(order) if name in blocks[i]]
            if slots and slots[-1] - slots[0] + 1 != len(slots):
                return False, (
                    f"axiom (3): blocks containing s_{name} are not saturated "
                    f"in the {{s_{s}, s_{t}}} chain"
                )
    for i, b in enumerate(blocks):
        is_min = any(chains[s][0] == i for s in b)
        is_max = any(chains[s][-1] == i for s in b)
        if not (is_min and is_max):
            return False, (
                f"axiom (4): block {sorted(b)} is not both a minimum and a "
                f"maximum of vertex chains"
            )
    return True, ""


def heights_by_chains(k: int, order) -> tuple[int, ...]:
    """For each of k points, the size of a largest set of points strictly
    below it that are pairwise comparable under the strict order given as
    a set of pairs: a longest chain below it."""
    out = []
    for i in range(k):
        below = [j for j in range(k) if (j, i) in order]
        out.append(
            max(
                r
                for r in range(len(below) + 1)
                for sub in itertools.combinations(below, r)
                if all((a, b) in order or (b, a) in order for a, b in itertools.combinations(sub, 2))
            )
        )
    return tuple(out)


def naive_contains(w: AffinePermutation, p: tuple[int, ...], slack: int = 6) -> bool:
    """Pattern containment (k >= 2) by exhaustive position search over a
    window wider than any bound the implementation relies on.  Position
    tuples are tried narrowest first, so a containing element is usually
    settled long before the widest tuples."""
    n, k = w.n, len(p)
    disp = max(abs(w.apply(t) - t) for t in range(1, n + 1))
    width = 3 * disp + slack
    for span in range(k - 1, width + 1):
        for i1 in range(1, n + 1):
            for mid in itertools.combinations(range(i1 + 1, i1 + span), k - 2):
                pos = (i1,) + mid + (i1 + span,)
                vals = [w.apply(i) for i in pos]
                if all(
                    (vals[a] < vals[b]) == (p[a] < p[b])
                    for a in range(k)
                    for b in range(a + 1, k)
                ):
                    return True
    return False


PATTERN_3412: tuple[int, ...] = (3, 4, 1, 2)
PATTERN_4231: tuple[int, ...] = (4, 2, 3, 1)


def _check_pattern(p: tuple[int, ...]) -> None:
    k = len(p)
    if k == 0 or sorted(p) != list(range(1, k + 1)):
        raise ValueError(f"pattern must be a permutation of 1..k, got {p}")
    if p[0] <= p[-1]:
        raise ValueError(
            "windowed search is complete only for patterns whose first value "
            f"exceeds their last, got {p}"
        )


def pattern_occurrence(w: AffinePermutation, p: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """One occurrence of p in w as a tuple of positions, or None.

    >>> pattern_occurrence(identity(4), PATTERN_3412) is None
    True
    """
    _check_pattern(p)
    n, k = w.n, len(p)
    disp = max(abs(w.window[i] - (i + 1)) for i in range(n))
    if disp == 0:
        return None  # the identity has no inversions
    width = 2 * disp  # occurrence positions live in [i1, i1 + width)
    vals = [w.apply(i) for i in range(1, n + width)]

    def extend(positions: list[int], start: int) -> Optional[tuple[int, ...]]:
        t = len(positions)
        if t == k:
            return tuple(positions)
        limit = positions[0] + width  # exclusive upper bound on further positions
        for j in range(start, min(limit, len(vals) + 1)):
            vj = vals[j - 1]
            ok = True
            for a, pa in enumerate(positions):
                # relative order of chosen values must match the pattern prefix
                if (vals[pa - 1] < vj) != (p[a] < p[t]):
                    ok = False
                    break
            if ok:
                positions.append(j)
                hit = extend(positions, j + 1)
                if hit:
                    return hit
                positions.pop()
        return None

    for i1 in range(1, n + 1):
        hit = extend([i1], i1 + 1)
        if hit:
            return hit
    return None


def contains_pattern(w: AffinePermutation, p: tuple[int, ...]) -> bool:
    """Whether w contains the pattern p (p's first value must exceed its last).

    >>> contains_pattern(from_word(2, [0, 1, 0]), PATTERN_3412)
    True
    """
    return pattern_occurrence(w, p) is not None


def subword_lower_set(w: AffinePermutation) -> frozenset[AffinePermutation]:
    """Every product of a subword of one fixed reduced word of w; by the
    subword property this is exactly the Bruhat lower set {x : x <= w}."""
    word = w.reduced_word
    out = set()
    for mask in range(1 << len(word)):
        sub = [word[t] for t in range(len(word)) if mask >> t & 1]
        out.add(from_word(w.n, sub))
    return frozenset(out)


@lru_cache(maxsize=None)
def _lower_lengths_and_descents(w: AffinePermutation) -> tuple[tuple[int, frozenset[int]], ...]:
    return tuple((x.length, x.right_descents) for x in subword_lower_set(w))


def poincare_by_subwords(w: AffinePermutation, J=()) -> Counter:
    """P^J_w as a Counter of lengths: the x <= w with no right descent in J."""
    js = frozenset(J)
    return Counter(length for length, descents in _lower_lengths_and_descents(w) if not descents & js)


def is_bp_by_poincare(w: AffinePermutation, K, J=()) -> bool:
    """Whether the parabolic split w = vu along K satisfies the defining
    identity of a BP decomposition relative to J, P^J_w = P^K_v * P^J_u."""
    v, u = coset_decompose(w, K)
    product: Counter = Counter()
    for a, x in poincare_by_subwords(v, K).items():
        for b, y in poincare_by_subwords(u, J).items():
            product[a + b] += x * y
    return poincare_by_subwords(w, J) == product


def coset_decompose_by_stripping(w: AffinePermutation, K) -> tuple[AffinePermutation, AffinePermutation]:
    """w = v * u with v in W^K and u in W_K: strip the smallest right
    descent in K until none is left, which leaves v, and set u = v^-1 w."""
    ks = frozenset(K)
    v = w
    while v.right_descents & ks:
        v = v.times_s(min(v.right_descents & ks))
    return v, v.inverse() * w


def is_twisted_spiral_by_words(w: AffinePermutation) -> bool:
    """Twisted spirals by their definition, letter by letter: strip the
    right descents in K = S minus {s_i} one at a time, require the stripped
    letters to multiply out to w0(K), and compare what is left with the
    spiral words x(i, m) = s_{i+m-1} ... s_i and y(i, m) = s_{i-m+1} ... s_i."""
    n = w.n
    if len(w.right_descents) != n - 1:
        return False
    (i,) = set(range(n)) - w.right_descents
    others = frozenset(range(n)) - {i}
    v, stripped = w, []
    while v.right_descents & others:
        j = min(v.right_descents & others)
        stripped.append(j)
        v = v.times_s(j)
    if from_word(n, reversed(stripped)) != longest_element(n, others):
        return False
    k, rest = divmod(v.length, n - 1)
    if rest or k < 2:
        return False
    m = k * (n - 1)
    words = ([(i + m - 1 - t) % n for t in range(m)], [(i - m + 1 + t) % n for t in range(m)])
    return any(v == from_word(n, word) for word in words)


@lru_cache(maxsize=None)
def all_posets(k: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Every strict partial order on k labeled points as a set of pairs,
    by trying all three states per pair and keeping transitive relations."""
    pairs = list(itertools.combinations(range(k), 2))
    out = []
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rel.add((i, j))
            elif c == 2:
                rel.add((j, i))
        if all(
            (a, c) in rel for (a, b) in rel for c in range(k) if (b, c) in rel
        ):
            out.append(frozenset(rel))
    return tuple(out)


def order_and_covers(k: int, relation) -> tuple[frozenset, frozenset] | None:
    """The transitive closure of a relation on 0..k-1 and its cover pairs,
    both as sets of pairs, or None when the closure has a cycle.  Warshall
    on a set of pairs; a pair is a cover when nothing lies strictly
    between its ends."""
    less = set(relation)
    for m in range(k):
        for i in range(k):
            if (i, m) in less:
                for j in range(k):
                    if (m, j) in less:
                        less.add((i, j))
    if any((i, i) in less for i in range(k)):
        return None
    covers = {
        (i, j) for (i, j) in less if not any((i, m) in less and (m, j) in less for m in range(k))
    }
    return frozenset(less), frozenset(covers)


def series_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Schoolbook product of two truncated series given by their coefficient
    tuples, truncated to the shorter: every pair of coefficients is multiplied."""
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return tuple(out)


def series_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a truncated series with constant term 1 or -1, solving
    a·x = 1 one coefficient at a time over the full dense prefix."""
    c0 = a[0]
    assert c0 in (1, -1)
    n = len(a) - 1
    out = [0] * (n + 1)
    out[0] = c0
    for k in range(1, n + 1):
        acc = sum(a[i] * out[k - i] for i in range(1, k + 1))
        out[k] = -c0 * acc
    return tuple(out)


def poly_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Schoolbook product of two integer polynomials, nothing truncated."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_gcd_by_fractions(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The monic gcd over Q of two integer polynomials given low degree
    first, by Euclid's algorithm with exact rational long division; () when
    both are zero."""

    def trim(f):
        f = list(f)
        while f and f[-1] == 0:
            f.pop()
        return f

    f, g = trim(map(Fraction, a)), trim(map(Fraction, b))
    while g:
        r = f[:]
        while len(r) >= len(g):
            c, shift = r[-1] / g[-1], len(r) - len(g)
            for i, y in enumerate(g):
                r[shift + i] -= c * y
            r = trim(r)
        f, g = g, r
    return tuple(x / f[-1] for x in f) if f else ()


def truncated_assembly(order: int) -> dict[str, tuple[int, ...]]:
    """The six counting series through t^order, keyed AM, AB, Abar, AF,
    Astar and A as the package's series_* functions, each computed from its
    formula on truncated series.  S = sqrt(1-4t) is read off the Catalan
    numbers: S_0 = 1 and S_k = -2·Catalan(k-1)."""
    n = order

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def theta(a):  # t·d/dt
        return tuple(k * c for k, c in enumerate(a))

    def quotient(a, b):
        return series_product(a, series_inverse(b))

    one = (1,) + (0,) * n
    one_minus_t = (1, -1) + (0,) * n
    s = (1,) + tuple(-2 * math.comb(2 * k - 2, k - 1) // k for k in range(1, n + 3))
    # A_M through t^(n+1): 1 - 2t - S, shifted down by one and halved
    top = minus((1, -2) + (0,) * (n + 1), s)
    assert top[0] == 0 and all(c % 2 == 0 for c in top)
    am = tuple(c // 2 for c in top[1:])
    ab = minus(series_product(one_minus_t, am[1:]), one)
    square = series_product(ab, ab)
    abar = quotient(theta(square), minus(one, square))
    af = quotient(am[: n + 1], minus(one, ab))
    star = quotient((0,) + af[:n], one_minus_t)
    middle = quotient(theta(star), minus(one, star))
    tail = ((0, 0) + quotient(one, one_minus_t))[: n + 1]
    a = tuple(map(sum, zip(abar, middle, tail)))
    return {"AM": am[: n + 1], "AB": ab, "Abar": abar, "AF": af, "Astar": star, "A": a}


def bp_decomposition_by_elements(w: AffinePermutation, J=()):
    """A complete Grassmannian BP decomposition relative to J by a search
    over elements, as (factors, chain, maximal flags), or None.

    Each level splits the current u with coset_decompose and bp_split along
    K = (S(u) ∪ J) minus {s}, for s in S(u) minus J in increasing order and
    outside D_R(u), and takes the first split whose left factor v has proper
    support.  Failing that, an element that is the longest element of its
    finite support parabolic splits at the smallest s; failing that, the
    first split found with v of full support is taken.  A level fails when
    none exists or S(u_next) ∪ J is not K.  A factor is maximal when its
    length is that of w0(S(v)) less that of w0(K ∩ S(v)), for proper S(v).
    """
    n, js = w.n, frozenset(J)
    factors, chain, flags = [], [w.support | js], []
    u = w
    while not u.support <= js:
        full = u.support | js
        hit = fallback = None
        for s in sorted(u.support - js):
            if s in u.right_descents:
                continue
            split = bp_split(u, full - {s}, js)
            if split is None:
                continue
            if len(split[0].support) < n:
                hit = (*split, full - {s})
                break
            if fallback is None:
                fallback = (*split, full - {s})
        if hit is None and len(u.support) < n and u == longest_element(n, u.support):
            s = min(u.support - js)
            split = bp_split(u, full - {s}, js)
            if split is not None:
                hit = (*split, full - {s})
        hit = hit or fallback
        if hit is None:
            return None
        v, u, K = hit
        if u.support | js != K:
            return None
        sv = v.support
        factors.append(v)
        flags.append(
            len(sv) < n and v.length == longest_element(n, sv).length - longest_element(n, K & sv).length
        )
        chain.append(K)
    return tuple(factors), tuple(chain), tuple(flags)


def bp_split(w: AffinePermutation, K, J=()) -> Optional[tuple[AffinePermutation, AffinePermutation]]:
    """coset_decompose(w, K) when the split is BP relative to J, else None:
    the package's window test bp._bp_cut on an element.  A full K gives
    v = e, which is always BP."""
    n, ks, js = w.n, frozenset(K), frozenset(J)
    if len(ks) < n:
        values = [w.apply(p) for p in range(2 * n)]
        j0 = longest_element(n, js).window if js else None
        if _bp_cut(n, values, sum(1 << k for k in ks), j0) is None:
            return None
    return coset_decompose(w, ks)


def reduced_word_by_rescan(w: AffinePermutation) -> tuple[int, ...]:
    """A reduced word of w by stripping the smallest right descent, found by
    a scan of every node after each stripped letter."""
    n, x = w.n, w
    letters = []
    while True:
        descents = [i for i in range(n) if x.apply(i) > x.apply(i + 1)]
        if not descents:
            return tuple(reversed(letters))
        letters.append(descents[0])
        x = x.times_s(descents[0])
