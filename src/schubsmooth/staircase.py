"""Staircase diagrams over path and cycle Coxeter graphs.

A staircase diagram is a partially ordered collection of connected vertex
subsets (blocks) of a Coxeter graph satisfying four axioms:

  (1) every block is connected, and so is B ∪ B' for every cover B ⋖ B';
  (2) for every vertex s, the set 𝓓_s of blocks containing s is a chain;
  (3) for adjacent vertices s ~ t, 𝓓_s ∪ 𝓓_t is a chain in which 𝓓_s and
      𝓓_t are saturated (occupy consecutive positions);
  (4) every block is the minimum of some 𝓓_s and the maximum of some 𝓓_t.

The graphs here are the path Γ_n on vertices s_1..s_n and the cycle Γ̃_n on
s_0..s_{n-1}; connected subsets are intervals.  Structural well-formedness
(nonempty distinct blocks, an acyclic cover relation) is enforced at
construction; the four axioms are checked by validate().

Fully supported increasing diagrams on Γ_n biject with Dyck paths of
semilength n.  Removing the vertex s_{n+1} from a fully supported
increasing/decreasing diagram on Γ_{n+1} gives a broken staircase on Γ_n,
whose last block may sit inside its predecessor; these broken pieces are
the tiles from which every fully supported diagram on a path (line
decomposition) or cycle (cycle decomposition, with a marked vertex) is
glued.  Gluing is one pass over the pieces in slot order: the kept blocks
stay in slot order, each linked to the next in its piece's direction, and
every overhang joins the next kept block instead of being kept.  Cutting,
its inverse, is one routine for lines and cycles: a path is the cycle with
s_0 absent.  The gluing bijections drive fully_supported_path_diagrams and
fully_supported_cycle_diagrams, from which enumerate_diagrams assembles
every diagram, and to_element maps spherical diagrams to Weyl group
elements by multiplying maximal parabolic coset representatives block by
block.

Blocks are shared: bounded caches map a block to one shared frozenset,
its sort key and its vertex bitmask (bit v for vertex v), and a bitmask
back to that frozenset, so an enumeration holds one frozenset per vertex
set and the constructor sorts no block.  The constructor keeps each
block's mask and closes the order in one walk up the supplied relation,
which also lists the blocks bottom to top; validate and to_element read
what it kept.  Gluing shifts each piece's block masks past the slots
before it; a cycle lays each choice of pieces out once and rotates the
layout onto its vertices once per mark, and path diagrams go onto the
runs of a support by the same rotation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .affine import (
    AffinePermutation,
    _compose,
    _longest_window,
    _nodes,
    cached_attribute,
    cycle_runs,
    from_window,
    run_starts,
)
from .errors import BudgetExceeded, MalformedDiagram

INCREASING = "increasing"
DECREASING = "decreasing"

# Largest n that enumeration accepts, by graph kind: counts grow like 4.4^n.
# Nine is the largest path any package caller needs (criterion 6 breaks
# staircases on nine vertices); fully_supported_path_diagrams(9) already
# takes about 80 MB (peak RSS of a fresh Python 3.11 process).
ENUM_MAX = {"path": 9, "cycle": 8}
# Largest n a diagram file may give: the constructor and validate build
# one entry per vertex, so a huge n would exhaust memory before any check.
DIAGRAM_N_MAX = 1000


def _check_cap(kind: str, n: int) -> None:
    if n > ENUM_MAX[kind]:
        raise BudgetExceeded(f"{kind} enumeration capped at n = {ENUM_MAX[kind]}, got {n}")


# ----------------------------------------------------------------------
# Coxeter graphs


@dataclass(frozen=True)
class CoxGraph:
    """A path on vertices 1..n or a cycle on vertices 0..n-1.

    >>> cycle_graph(4).edges()
    [(0, 1), (1, 2), (2, 3), (3, 0)]
    >>> path_graph(4).edges()
    [(1, 2), (2, 3), (3, 4)]
    """

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("path", "cycle"):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.kind == "path" and self.n < 1:
            raise ValueError("path graph needs at least one vertex")
        if self.kind == "cycle" and self.n < 2:
            raise ValueError("cycle graph needs at least two vertices")

    @property
    def vertices(self) -> tuple[int, ...]:
        if self.kind == "path":
            return tuple(range(1, self.n + 1))
        return tuple(range(self.n))

    def edges(self) -> list[tuple[int, int]]:
        return list(self._edges)

    @cached_attribute
    def _edges(self) -> tuple[tuple[int, int], ...]:
        if self.kind == "path":
            return tuple((i, i + 1) for i in range(1, self.n))
        if self.n == 2:
            return ((0, 1),)
        return tuple((i, (i + 1) % self.n) for i in range(self.n))

    @property
    def _cycle(self) -> int:
        # a path on 1..n is the (n+1)-cycle with vertex 0 absent
        return self.n + 1 if self.kind == "path" else self.n

    def _runs(self, subset: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """cycle_runs on the graph's cycle, after checking the members: a
        path refuses the vertex 0 of its cycle too."""
        if self.kind == "cycle":
            return cycle_runs(self.n, subset)
        vs = set(subset)
        bad = sorted(v for v in vs if not 1 <= v <= self.n)
        if bad:
            raise ValueError(f"subset nodes {bad} outside 1..{self.n}")
        return cycle_runs(self.n + 1, vs)

    def is_connected(self, subset: Iterable[int]) -> bool:
        return len(self._runs(subset)) <= 1

    def run_order(self, subset: Iterable[int]) -> tuple[int, ...]:
        """A connected subset listed in consecutive order (cyclic runs start
        at the vertex whose predecessor is outside).  Falls back to sorted
        order for disconnected sets."""
        vs = set(subset)
        runs = self._runs(vs)
        return runs[0] if len(runs) == 1 else tuple(sorted(vs))

    def runs(self, subset: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Maximal connected runs of a vertex subset, each in consecutive
        order; a full cycle is rejected (it has no run decomposition)."""
        runs = self._runs(subset)
        if self.kind == "cycle" and runs == (self.vertices,):
            raise ValueError("full cycle support has no run decomposition")
        return runs


@lru_cache(maxsize=64)  # one shared graph per n, which caches its edges
def path_graph(n: int) -> CoxGraph:
    return CoxGraph("path", n)


@lru_cache(maxsize=64)
def cycle_graph(n: int) -> CoxGraph:
    return CoxGraph("cycle", n)


# ----------------------------------------------------------------------
# Shared blocks


@lru_cache(maxsize=4096)
def _shared(mask: int) -> frozenset[int]:
    """The one frozenset kept for the vertex set of a bitmask."""
    return _nodes(mask.bit_length(), mask)


@lru_cache(maxsize=4096)
def _block(b: frozenset[int]) -> tuple[frozenset[int], tuple[int, ...], int]:
    """A block of graph vertices as (its shared frozenset, its sort key, its
    vertex bitmask); every block a diagram holds is a shared frozenset.
    Callers check first that b holds graph vertices only."""
    mask = 0
    for v in b:
        mask |= 1 << int(v)  # a member equal to a vertex, such as 1.0, counts as it
    shared = _shared(mask)
    return shared, tuple(sorted(shared)), mask


def _rotate(mask: int, n: int, r: int) -> int:
    """Move bit v of a mask over 1..n to bit (v - r) mod n, for 1 <= r <= n + 1:
    of v - r and v + n - r exactly one lies in 0..n-1."""
    return (mask << n | mask) >> r & ((1 << n) - 1)


# ----------------------------------------------------------------------
# Staircase diagrams


@dataclass(frozen=True)
class StaircaseDiagram:
    """Blocks with a partial order given by covers.

    The constructor canonicalizes: blocks become their shared frozensets
    and are sorted by their cached keys, and the supplied relation pairs
    (indices into the block list as given) are closed transitively and
    reduced back to covers.  Structural defects (empty or duplicate
    blocks, relation cycles, bad indices) raise MalformedDiagram; axiom
    violations are reported by validate() instead.

    The closure is one walk over the pairs, as predecessor and successor
    bitmasks over the sorted block indices.  It lists, each time, the
    lowest block whose predecessors are all listed; the blocks below it
    are its predecessors and all below them, and its covers are the
    predecessors that lie below no other.  A walk that stops before every
    block is listed has met a cycle.  So the constructor takes O(blocks +
    pairs) mask operations and keeps, over the sorted indices:

    - ``_up`` and ``_down``, tuples of bitmasks: bit j of ``_up[i]`` is
      set when block j lies strictly above block i, and bit j of
      ``_down[i]`` when it lies strictly below, so each is the transpose
      of the other (``_up`` comes from one walk back down the list);
    - ``_linear``, the order of the walk: every block after all below it;
    - ``_masks``, the vertex bitmask of each block.

    Every order query (less, heights, the chain test and the axiom checks
    of validate) reads these.

    >>> d = StaircaseDiagram(cycle_graph(10),
    ...     [[0, 1, 2, 3], [7, 8, 9, 0, 1], [5, 6, 7], [3, 4, 5, 6]],
    ...     [(0, 1), (1, 2), (2, 3)])
    >>> d.validate()[0]
    True
    >>> StaircaseDiagram(path_graph(3), [[1], [3]], [(0, 1)]).validate()[0]
    False
    """

    graph: CoxGraph
    blocks: tuple[frozenset[int], ...]
    covers: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        verts = set(self.graph.vertices)
        raw = []
        for b in map(frozenset, self.blocks):
            if not b:
                raise MalformedDiagram("empty block")
            if not b <= verts:
                raise MalformedDiagram(f"block {sorted(b)} leaves the graph")
            raw.append(_block(b))
        k = len(raw)
        if len({mask for _, _, mask in raw}) != k:
            raise MalformedDiagram("duplicate blocks")
        perm = sorted(range(k), key=lambda i: raw[i][1])
        pos = [0] * k
        for new, old in enumerate(perm):
            pos[old] = new
        pred, succ = [0] * k, [0] * k
        tops = 0  # the blocks with a predecessor
        for pair in self.covers:
            i, j = pair
            if not (0 <= i < k and 0 <= j < k):
                raise MalformedDiagram(f"cover index {pair} out of range")
            if i == j:
                raise MalformedDiagram("reflexive cover")
            i, j = pos[i], pos[j]
            pred[j] |= 1 << i
            succ[i] |= 1 << j
            tops |= 1 << j
        # the walk of the class docstring; bits are walked lowest first by
        # hand, since a generator per block would double the cost
        ready, listed = ((1 << k) - 1) & ~tops, 0
        down = [0] * k
        linear, covers = [], []
        while ready:
            low = ready & -ready
            j = low.bit_length() - 1
            ready ^= low
            listed |= low
            linear.append(j)
            rest, through = pred[j], 0
            while rest:
                low = rest & -rest
                through |= down[low.bit_length() - 1]
                rest ^= low
            down[j] = pred[j] | through
            rest = pred[j] & ~through
            while rest:
                low = rest & -rest
                covers.append((low.bit_length() - 1, j))
                rest ^= low
            rest = succ[j]
            while rest:  # a successor is ready once its last predecessor is listed
                low = rest & -rest
                if not pred[low.bit_length() - 1] & ~listed:
                    ready |= low
                rest ^= low
        if len(linear) < k:  # the blocks left wait on each other
            raise MalformedDiagram("relation has a cycle: not a partial order")
        up = [0] * k
        for i in reversed(linear):  # what lies above a block, top down
            rest = above = succ[i]
            while rest:
                low = rest & -rest
                above |= up[low.bit_length() - 1]
                rest ^= low
            up[i] = above
        covers.sort()
        object.__setattr__(self, "blocks", tuple(raw[i][0] for i in perm))
        object.__setattr__(self, "covers", tuple(covers))
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_linear", tuple(linear))
        object.__setattr__(self, "_masks", tuple(raw[i][2] for i in perm))

    # -- order queries ------------------------------------------------

    def less(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)  # type: ignore[attr-defined]

    def _is_chain(self, mask: int) -> bool:
        """Whether the blocks of a bitmask are pairwise comparable: each of
        them is comparable to every block of the mask after it."""
        up, down = self._up, self._down  # type: ignore[attr-defined]
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            if mask & ~(up[i] | down[i]):
                return False
        return True

    @cached_attribute
    def support(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    def is_fully_supported(self) -> bool:
        return self.support == frozenset(self.graph.vertices)

    def is_spherical(self) -> bool:
        """Every block generates a finite parabolic: automatic on a path,
        and equivalent to properness of every block on a cycle."""
        if self.graph.kind == "path":
            return True
        return (1 << self.graph.n) - 1 not in self._masks  # type: ignore[attr-defined]

    def is_empty(self) -> bool:
        return not self.blocks

    def heights(self) -> tuple[int, ...]:
        """Length of a longest chain strictly below each block: one more
        than the greatest height among the blocks it covers, read up the
        linear extension."""
        below: list[list[int]] = [[] for _ in self.blocks]
        for i, j in self.covers:
            below[j].append(i)
        hs = [0] * len(below)
        for j in self._linear:  # type: ignore[attr-defined]
            hs[j] = max((hs[i] + 1 for i in below[j]), default=0)
        return tuple(hs)

    def flip(self) -> "StaircaseDiagram":
        """Reverse the partial order; an involution.

        >>> d = StaircaseDiagram(path_graph(2), [[1], [2]], [(0, 1)])
        >>> d.flip().flip() == d
        True
        """
        return StaircaseDiagram(self.graph, self.blocks, tuple((j, i) for i, j in self.covers))

    # -- geometry on a path --------------------------------------------

    def is_increasing(self) -> bool:
        """A chain whose blocks move strictly rightward going up; its flip
        is the decreasing chain, moving leftward."""
        if self.graph.kind != "path":
            raise ValueError("increasing is defined for path graphs only")
        if not self._is_chain((1 << len(self.blocks)) - 1):
            return False
        chain = [self.blocks[i] for i in self._linear]  # type: ignore[attr-defined]
        return all(min(lo) < min(hi) and max(lo) < max(hi) for lo, hi in zip(chain, chain[1:]))

    # -- axioms ---------------------------------------------------------

    def validate(self) -> tuple[bool, str]:
        """Check the four staircase axioms; report the first violation.

        >>> StaircaseDiagram(path_graph(3), [[1, 2]], []).validate()
        (True, '')
        """
        g, blocks, spans = self.graph, self.blocks, self._masks  # type: ignore[attr-defined]
        up, down = self._up, self._down  # type: ignore[attr-defined]
        # for each vertex s, as bitmasks over the blocks: the blocks of its
        # chain 𝓓_s, and the blocks above some of them and below some of
        # them (indexed by the vertices of the cycle m, which a path leaves
        # empty at 0)
        m = g._cycle
        masks, above, below = [0] * m, [0] * m, [0] * m
        for i, b in enumerate(blocks):
            bit, higher, lower = 1 << i, up[i], down[i]
            for s in b:
                masks[s] |= bit
                above[s] |= higher
                below[s] |= lower
        # a vertex set is connected when at most one of its runs starts
        for b, span in zip(blocks, spans):
            starts = run_starts(m, span)
            if starts & (starts - 1):
                return False, f"axiom (1): block {sorted(b)} is disconnected"
        for i, j in self.covers:
            starts = run_starts(m, spans[i] | spans[j])
            if starts & (starts - 1):
                return False, (
                    f"axiom (1): cover union {sorted(blocks[i])} u "
                    f"{sorted(blocks[j])} is disconnected"
                )
        # one pass over the edges decides axioms (2) and (3): each 𝓓_s lies
        # in the chain of an edge at s (a one-vertex path has one block at
        # most).  𝓓_s is saturated in the chain unless a block of 𝓓_t
        # outside it lies above one of its blocks and below another.
        for s, t in g.edges():
            if not self._is_chain(masks[s] | masks[t]):
                why = f"blocks meeting {{s_{s}, s_{t}}} are not a chain"
            elif above[s] & below[s] & masks[t] & ~masks[s]:
                why = f"blocks containing s_{s} are not saturated in the {{s_{s}, s_{t}}} chain"
            elif above[t] & below[t] & masks[s] & ~masks[t]:
                why = f"blocks containing s_{t} are not saturated in the {{s_{s}, s_{t}}} chain"
            else:
                continue
            # the first failing edge; a vertex failing axiom (2) comes first
            for v in g.vertices:
                if not self._is_chain(masks[v]):
                    return False, f"axiom (2): blocks containing s_{v} are not a chain"
            return False, f"axiom (3): {why}"
        # by axiom (2) each 𝓓_s is a chain: its minimum is the block of it
        # with nothing of it below, its maximum the one with nothing above
        minima = maxima = 0
        for mask, higher, lower in zip(masks, above, below):
            minima |= mask & ~higher
            maxima |= mask & ~lower
        bad = ~(minima & maxima) & ((1 << len(blocks)) - 1)
        if bad:
            b = blocks[(bad & -bad).bit_length() - 1]
            return False, (
                f"axiom (4): block {sorted(b)} is not both a minimum and a "
                f"maximum of vertex chains"
            )
        return True, ""


# ----------------------------------------------------------------------
# JSON and rendering


def to_json(d: StaircaseDiagram) -> str:
    """Serialize; blocks are listed in consecutive (run) order.

    >>> json.loads(to_json(StaircaseDiagram(path_graph(2), [[1], [2]], [(0, 1)])))
    {'graph': {'kind': 'path', 'n': 2}, 'blocks': [[1], [2]], 'covers': [[0, 1]]}
    """
    obj = {
        "graph": {"kind": d.graph.kind, "n": d.graph.n},
        "blocks": [list(d.graph.run_order(b)) for b in d.blocks],
        "covers": [list(c) for c in d.covers],
    }
    return json.dumps(obj)


def is_json_int(value: object) -> bool:
    """Whether a parsed JSON value is an integer; JSON true is a bool,
    which Python counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_ints(value: object, what: str) -> list[int]:
    if not isinstance(value, list) or not all(map(is_json_int, value)):
        raise ValueError(f"{what} must be a list of integers, got {json.dumps(value)}")
    return value


def from_json(source: Union[str, dict]) -> StaircaseDiagram:
    """Parse the diagram JSON {"graph": {...}, "blocks": [...], "covers": [...]}.
    n, every block entry and every cover index must be a JSON integer, and
    n is at most DIAGRAM_N_MAX.

    >>> from_json('{"graph": {"kind": "path", "n": 2}, "blocks": ["12"], "covers": []}')
    Traceback (most recent call last):
        ...
    schubsmooth.errors.MalformedDiagram: bad diagram JSON: a block must be a list of integers, got "12"
    """
    try:
        obj = json.loads(source) if isinstance(source, str) else source
        n = obj["graph"]["n"]
        if not is_json_int(n):
            raise ValueError(f"graph field 'n' must be an integer, got {json.dumps(n)}")
        if n > DIAGRAM_N_MAX:
            raise ValueError(f"graph field 'n' must be at most {DIAGRAM_N_MAX}, got {n}")
        g = CoxGraph(obj["graph"]["kind"], n)
        if not isinstance(obj["blocks"], list) or not isinstance(obj["covers"], list):
            raise ValueError("'blocks' and 'covers' must be lists")
        blocks = [frozenset(_json_ints(b, "a block")) for b in obj["blocks"]]
        covers = [tuple(_json_ints(c, "a cover")) for c in obj["covers"]]
        if any(len(c) != 2 for c in covers):
            raise ValueError("a cover must be a pair of block indices")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDiagram(f"bad diagram JSON: {exc}") from exc
    return StaircaseDiagram(g, blocks, covers)


def render(d: StaircaseDiagram) -> str:
    """Two-dimensional ASCII picture: one column per vertex (the cycle is
    cut at s_0, which is repeated at the right edge), one row per block,
    drawn top row first in decreasing height order."""
    cols = list(d.graph.vertices)
    if d.graph.kind == "cycle":
        cols = cols + [cols[0]]
    header = " ".join(f"s{v}" for v in cols)
    width = [len(f"s{v}") for v in cols]
    if d.is_empty():
        return header + "\n(empty diagram)"
    hs = d.heights()
    rows = []
    for i in sorted(range(len(d.blocks)), key=lambda i: (-hs[i], tuple(sorted(d.blocks[i])))):
        cells = []
        for v, w in zip(cols, width):
            cells.append(("#" if v in d.blocks[i] else ".") * w)
        rows.append(" ".join(cells))
    return "\n".join([header] + rows)


# ----------------------------------------------------------------------
# Dyck paths and increasing diagrams


@dataclass(frozen=True)
class DyckPath:
    """Run-length form of a Dyck path: pairs (r_i, u_i) of up/down runs.

    >>> DyckPath(((2, 1), (1, 2))).semilength
    3
    >>> DyckPath(((1, 2),))
    Traceback (most recent call last):
        ...
    ValueError: path dips below the axis
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple((int(r), int(u)) for r, u in self.pairs))
        if any(r <= 0 or u <= 0 for r, u in self.pairs):
            raise ValueError("runs must be positive")
        h = 0
        for r, u in self.pairs:
            h += r - u
            if h < 0:
                raise ValueError("path dips below the axis")
        if h != 0:
            raise ValueError("ups and downs must balance")

    @property
    def semilength(self) -> int:
        return sum(r for r, _ in self.pairs)


def dyck_paths(n: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength n, in lexicographic run order.

    >>> sum(1 for _ in dyck_paths(4))
    14
    """

    def gen(ups_left: int, h: int, acc: tuple[tuple[int, int], ...]) -> Iterator[DyckPath]:
        if ups_left == 0:
            if h == 0:
                yield DyckPath(acc)
            return
        for r in range(1, ups_left + 1):
            for u in range(1, h + r + 1):
                yield from gen(ups_left - r, h + r - u, acc + ((r, u),))

    if n < 0:
        raise ValueError("semilength must be nonnegative")
    if n == 0:
        return iter((DyckPath(()),))
    return gen(n, 0, ())


def to_dyck(d: StaircaseDiagram) -> DyckPath:
    """Run lengths r_i = |B_i \\ B_{i-1}|, u_i = |B_i \\ B_{i+1}| along the
    chain of a fully supported increasing diagram."""
    if d.graph.kind != "path":
        raise ValueError("Dyck bijection lives on path graphs")
    if not d.is_fully_supported():
        raise ValueError("diagram is not fully supported")
    if not d.is_increasing():
        raise ValueError("diagram is not increasing")
    chain = sorted(d.blocks, key=min)
    pairs = []
    for i, b in enumerate(chain):
        prev = chain[i - 1] if i > 0 else frozenset()
        nxt = chain[i + 1] if i + 1 < len(chain) else frozenset()
        pairs.append((len(b - prev), len(b - nxt)))
    return DyckPath(tuple(pairs))


def from_dyck(p: DyckPath, n: int) -> StaircaseDiagram:
    """Inverse of to_dyck: block i is {s_j : sum(u_{<i}) < j <= sum(r_{<=i})}.

    >>> d = from_dyck(DyckPath(((1, 1), (4, 2), (1, 3))), 6)
    >>> [sorted(b) for b in sorted(d.blocks, key=min)]
    [[1], [2, 3, 4, 5], [4, 5, 6]]
    """
    if p.semilength != n:
        raise ValueError(f"path has semilength {p.semilength}, expected {n}")
    blocks = _dyck_blocks(p)
    covers = [(i, i + 1) for i in range(len(blocks) - 1)]
    return StaircaseDiagram(path_graph(n), blocks, covers)


def _dyck_blocks(p: DyckPath) -> list[frozenset[int]]:
    """The chain of from_dyck, bottom to top: block i is {s_j : sum(u_{<i})
    < j <= sum(r_{<=i})}, so the top block is the last u_k vertices."""
    blocks = []
    r_acc = u_acc = 0
    for r, u in p.pairs:
        r_acc += r
        blocks.append(frozenset(range(u_acc + 1, r_acc + 1)))
        u_acc += u
    return blocks


@lru_cache(maxsize=None)
def increasing_diagrams(n: int) -> tuple[StaircaseDiagram, ...]:
    """All fully supported increasing diagrams on the path with n vertices;
    there are Catalan(n) of them; n is capped by ENUM_MAX."""
    _check_cap("path", n)
    if n == 0:
        return ()
    return tuple(from_dyck(p, n) for p in dyck_paths(n))


# ----------------------------------------------------------------------
# Broken staircases


@dataclass(frozen=True)
class BrokenStaircase:
    """What remains of a fully supported increasing or decreasing diagram
    on a path with n+1 vertices after dropping the last vertex.

    Blocks are intervals in 1..n listed from the s_1 end; the direction
    records whether the parent chain rose or fell to the right.  The last
    block may sit inside its predecessor (the broken case, which violates
    staircase axiom (4)); otherwise the chain is itself a valid fully
    supported diagram.
    """

    n: int
    blocks: tuple[frozenset[int], ...]
    direction: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        if self.direction not in (INCREASING, DECREASING):
            raise ValueError(f"bad direction {self.direction!r}")
        bl = self.blocks
        if not bl:
            raise ValueError("a broken staircase has at least one block")
        ends = []
        for b in bl:
            if not b or min(b) < 1 or max(b) > self.n or max(b) - min(b) + 1 != len(b):
                raise ValueError(f"block {sorted(b)} is not an interval in 1..{self.n}")
            ends.append((min(b), max(b)))
        head = ends[:-1] if self.is_broken else ends
        for (a1, b1), (a2, b2) in zip(head, head[1:]):
            if not (a1 < a2 <= b1 + 1 and b1 < b2):
                raise ValueError("blocks must step strictly rightward")
        # the head steps without gaps, so its two outer ends fix its union
        if head[0][0] != 1 or head[-1][1] != self.n:
            raise ValueError("blocks must cover 1..n")
        if self.is_broken:
            a_last = ends[-1][0]
            if not (ends[-2][0] < a_last and ends[-1][1] == ends[-2][1] == self.n):
                raise ValueError("broken overhang must be a right tail of its predecessor")

    @property
    def is_broken(self) -> bool:
        return len(self.blocks) >= 2 and self.blocks[-1] <= self.blocks[-2]

    @cached_attribute
    def _masks(self) -> tuple[int, ...]:
        """The vertex bitmask of each block, in order."""
        return tuple(_block(b)[2] for b in self.blocks)

    def as_diagram(self) -> StaircaseDiagram:
        """The chain as a staircase diagram on the local path (only valid
        as a diagram when not broken)."""
        k = len(self.blocks)
        covers = [(i, i + 1) for i in range(k - 1)]
        if self.direction == DECREASING:
            covers = [(j, i) for i, j in covers]
        return StaircaseDiagram(path_graph(self.n), self.blocks, covers)


@lru_cache(maxsize=None)
def broken_staircases(n: int, direction: str = INCREASING) -> tuple[BrokenStaircase, ...]:
    """All broken staircases on n vertices with the given direction, in
    Dyck path order; there are Catalan(n+1) - Catalan(n) of them, and n is
    capped by ENUM_MAX.

    Each is the chain of a Dyck path of semilength n+1 with the vertex
    s_{n+1} dropped.  Only the top block holds s_{n+1}: it is the last u_k
    vertices, so the paths kept are those with u_k >= 2.  A path with
    u_k = 1 loses its top block {s_{n+1}} and breaks to the same shape as
    its twin, whose next-to-top block absorbs s_{n+1}; so every shape is
    produced exactly once.

    >>> [[sorted(b) for b in piece.blocks] for piece in broken_staircases(2)]
    [[[1], [2]], [[1, 2], [2]], [[1, 2]]]
    """
    if n < 1:
        raise ValueError("a broken staircase needs at least one vertex")
    _check_cap("path", n)
    top = frozenset({n + 1})
    pieces = []
    for p in dyck_paths(n + 1):
        if p.pairs[-1][1] >= 2:
            *head, last = _dyck_blocks(p)
            pieces.append(BrokenStaircase(n, (*head, last - top), direction))
    return tuple(pieces)


# ----------------------------------------------------------------------
# Gluing engine


def _directions(count: int, last: str) -> tuple[str, ...]:
    """count piece directions that alternate and end in last."""
    other = DECREASING if last == INCREASING else INCREASING
    return tuple(last if (count - 1 - i) % 2 == 0 else other for i in range(count))


def _glue(
    pieces: Sequence[BrokenStaircase], cyclic: bool
) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """Lay the pieces side by side on the slots 1..n and join them in one
    pass: the slot bitmasks of the glued blocks, in slot order, and the
    covers between them as index pairs.

    The overhang of a broken piece is carried forward and joins the first
    block of the next piece (on a cycle, the last piece's overhang joins
    block 0).  Every other block is kept in slot order and linked to the
    next kept block, wrapping round on a cycle: upward when its piece
    rises, downward when it falls.  A broken piece has two or more blocks,
    so a block that absorbs an overhang is never carried on itself.  The
    callers have checked that directions alternate.

    A block's slot mask is its piece's block mask shifted by the slots
    before the piece.  On a line each slot is its own vertex; a cycle
    places the same layout once per choice of the slot of s_{n-1}
    (_on_cycle).
    """
    masks: list[int] = []
    rises: list[bool] = []
    carry = offset = 0
    for p in pieces:
        own = [mask << offset for mask in p._masks]  # type: ignore[attr-defined]
        own[0] |= carry
        carry = own.pop() if p.is_broken else 0
        masks.extend(own)
        rises.extend([p.direction == INCREASING] * len(own))
        offset += p.n
    masks[0] |= carry  # a line's final piece is never broken
    k = len(masks)
    links = range(k if cyclic else k - 1)
    return masks, tuple((i, (i + 1) % k) if rises[i] else ((i + 1) % k, i) for i in links)


def _on_cycle(
    masks: Sequence[int], covers: tuple[tuple[int, int], ...], n: int, star: int
) -> StaircaseDiagram:
    """The diagram of a cyclic layout of _glue on the n-cycle, with slot
    star holding s_{n-1}: slot j holds s_{(j - star - 1) mod n}, one
    rotation of each mask."""
    blocks = [_shared(_rotate(mask, n, star + 1)) for mask in masks]
    return StaircaseDiagram(cycle_graph(n), blocks, covers)


# ----------------------------------------------------------------------
# Cycle and line decompositions


def _extremes(d: StaircaseDiagram, cyclic: bool) -> list[tuple[int, bool]]:
    """The local extrema of the zigzag of blocks, taken in order of their
    first vertex, as (block, is_max).  On a cycle the two ends neighbour
    each other; on a line they have one neighbour each, and a lone block,
    having none, counts as a minimum."""
    order = sorted(range(len(d.blocks)), key=lambda i: d.graph.run_order(d.blocks[i])[0])
    up, down = d._up, d._down  # type: ignore[attr-defined]
    k = len(order)
    out = []
    for pos, i in enumerate(order):
        if cyclic:
            neigh = 1 << order[pos - 1] | 1 << order[(pos + 1) % k]
        else:
            neigh = sum(1 << j for j in order[max(pos - 1, 0) : pos + 2] if j != i)
        if not neigh & ~up[i]:
            out.append((i, False))
        elif not neigh & ~down[i]:
            out.append((i, True))
    return out


def _private_start(d: StaircaseDiagram, i: int) -> int:
    """First vertex, in the block's own run order, that lies in no other
    block.  Valid diagrams give every extremal block such a vertex."""
    run = d.graph.run_order(d.blocks[i])
    others: set[int] = set()
    for j, b in enumerate(d.blocks):
        if j != i:
            others |= b
    private = [v for v in run if v not in others]
    if not private:
        raise ValueError(f"block {sorted(d.blocks[i])} has no private vertex")
    assert d.graph.is_connected(private), "private vertices of an extremal block form a run"
    return private[0]


def _restrict_piece(
    d: StaircaseDiagram, interval: Sequence[int], direction: str
) -> BrokenStaircase:
    """Restrict the diagram to a vertex interval, relabelled to 1..len."""
    pos = {v: i + 1 for i, v in enumerate(interval)}
    local: list[tuple[frozenset[int], int]] = []
    for idx, b in enumerate(d.blocks):
        hit = frozenset(pos[v] for v in b if v in pos)
        if hit:
            local.append((hit, idx))
    local.sort(key=lambda t: min(t[0]))
    for (_, i), (_, j) in zip(local, local[1:]):
        if direction == INCREASING:
            assert d.less(i, j), "piece covers must rise with an increasing piece"
        else:
            assert d.less(j, i), "piece covers must fall with a decreasing piece"
    return BrokenStaircase(len(interval), tuple(b for b, _ in local), direction)


def _cut(d: StaircaseDiagram, cyclic: bool) -> list[tuple[list[int], BrokenStaircase]]:
    """The inverse of _glue: (vertex interval, piece) pairs in cut order.

    Each extremal block is cut at its private start, and its piece runs to
    the next cut: down from a maximum, up from a minimum.  A line stops at
    its last minimum, and its last piece runs up to the absent vertex 0.
    """
    ext = _extremes(d, cyclic)
    if not cyclic:
        ext = ext[: max(p for p, (_, is_max) in enumerate(ext) if not is_max) + 1]
    m = d.graph._cycle
    starts = [_private_start(d, i) for i, _ in ext]
    ends = starts[1:] + [starts[0] if cyclic else 0]
    out = []
    for (_, is_max), start, end in zip(ext, starts, ends):
        interval = [(start + t) % m for t in range((end - start) % m or m)]
        out.append((interval, _restrict_piece(d, interval, DECREASING if is_max else INCREASING)))
    return out


def cycle_decompose(
    d: StaircaseDiagram,
) -> tuple[tuple[BrokenStaircase, ...], int]:
    """Cut a fully supported spherical cycle diagram into broken staircases.

    The cuts of _cut alternate in direction around the cycle.  The pieces
    are rotated so the one containing s_{n-1} comes last, and the 1-based
    position of s_{n-1} in that piece is returned as the mark.
    """
    if d.graph.kind != "cycle":
        raise ValueError("cycle decomposition needs a cycle diagram")
    if not d.is_fully_supported():
        raise ValueError("diagram is not fully supported")
    if not d.is_spherical():
        raise ValueError("diagram is not spherical")
    n = d.graph.n
    pieces = _cut(d, cyclic=True)
    assert len(pieces) % 2 == 0 and pieces, "extremal blocks alternate around the cycle"
    last = next(j for j, (iv, _) in enumerate(pieces) if (n - 1) in iv)
    rotated = pieces[last + 1 :] + pieces[: last + 1]
    mark = rotated[-1][0].index(n - 1) + 1
    return tuple(p for _, p in rotated), mark


def cycle_glue(pieces: Sequence[BrokenStaircase], mark: int) -> StaircaseDiagram:
    """Inverse of cycle_decompose: lay the pieces around the cycle with the
    mark slot labelled s_{n-1}.  fully_supported_cycle_diagrams does not
    call it: it builds only valid piece choices, and places the layout of
    each once per mark.

    >>> p = BrokenStaircase(1, (frozenset({1}),), INCREASING)
    >>> q = BrokenStaircase(1, (frozenset({1}),), DECREASING)
    >>> [sorted(b) for b in cycle_glue((p, q), 1).blocks]
    [[0], [1]]
    """
    pieces = tuple(pieces)
    if len(pieces) < 2 or len(pieces) % 2:
        raise ValueError("need an even number of pieces, at least two")
    if tuple(p.direction for p in pieces) != _directions(len(pieces), pieces[-1].direction):
        raise ValueError("piece directions must alternate")
    if not 1 <= mark <= pieces[-1].n:
        raise ValueError("mark must point into the last piece")
    n = sum(p.n for p in pieces)
    return _on_cycle(*_glue(pieces, cyclic=True), n, n - pieces[-1].n + mark)


def line_decompose(
    d: StaircaseDiagram,
) -> tuple[tuple[BrokenStaircase, ...], StaircaseDiagram]:
    """Cut a fully supported path diagram into broken staircases followed
    by one increasing staircase.

    _cut stops at the last minimal block; a diagram that ends on a descent
    therefore ends with a decreasing broken piece followed by a
    single-block staircase.

    >>> d = StaircaseDiagram(path_graph(2), [[1], [2]], [(1, 0)])
    >>> pieces, final = line_decompose(d)
    >>> [(p.n, p.direction) for p in pieces], len(final.blocks)
    ([(1, 'decreasing')], 1)
    """
    if d.graph.kind != "path":
        raise ValueError("line decomposition needs a path diagram")
    if not d.is_fully_supported():
        raise ValueError("diagram is not fully supported")
    cut = _cut(d, cyclic=False)
    assert cut[0][0][0] == 1, "the leftmost block owns vertex 1"
    *pieces, final = (p for _, p in cut)
    assert not final.is_broken, "the final piece is a staircase"
    assert tuple(p.direction for p in pieces) == _directions(len(cut), INCREASING)[:-1], (
        "piece directions alternate back from the end"
    )
    return tuple(pieces), final.as_diagram()


def line_glue(
    pieces: Sequence[BrokenStaircase], final: StaircaseDiagram
) -> StaircaseDiagram:
    """Inverse of line_decompose."""
    if final.graph.kind != "path" or not final.is_fully_supported() or not final.is_increasing():
        raise ValueError("final part must be a fully supported increasing path diagram")
    tail = BrokenStaircase(final.graph.n, tuple(sorted(final.blocks, key=min)), INCREASING)
    if tail.is_broken:
        raise ValueError("final part must not be broken")
    seq = tuple(pieces) + (tail,)
    if tuple(p.direction for p in seq) != _directions(len(seq), INCREASING):
        raise ValueError("piece directions must alternate back from the final piece")
    masks, covers = _glue(seq, cyclic=False)
    return StaircaseDiagram(path_graph(sum(p.n for p in seq)), [_shared(m) for m in masks], covers)


# ----------------------------------------------------------------------
# Enumeration


@lru_cache(maxsize=None)
def fully_supported_path_diagrams(n: int) -> tuple[StaircaseDiagram, ...]:
    """All fully supported diagrams on the path with n vertices, generated
    by gluing broken pieces onto a final increasing staircase; n is capped
    by ENUM_MAX."""
    _check_cap("path", n)
    out = []
    for parts in range(1, n + 1):
        for comp in _compositions(n, parts):
            piece_pools = [
                broken_staircases(size, direction)
                for size, direction in zip(comp[:-1], _directions(parts, INCREASING))
            ]
            final_pool = increasing_diagrams(comp[-1])
            for choice in itertools.product(*piece_pools, final_pool):
                out.append(line_glue(choice[:-1], choice[-1]))
    result = tuple(out)
    assert len(set(result)) == len(result), "line gluing is injective"
    return result


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def fully_supported_cycle_diagrams(n: int) -> tuple[StaircaseDiagram, ...]:
    """All fully supported spherical diagrams on the cycle with n vertices,
    generated by cyclic gluing of an even number of broken pieces with a
    marked vertex in the last one; n is capped by ENUM_MAX.  Each choice
    of pieces is laid out once and placed on the cycle once per mark.

    >>> len(fully_supported_cycle_diagrams(3))
    18
    """
    _check_cap("cycle", n)
    out = []
    for parts in range(2, n + 1, 2):
        for comp in _compositions(n, parts):
            # an even number of pieces: the first piece rises when the last falls
            for last in (DECREASING, INCREASING):
                pools = [
                    broken_staircases(size, direction)
                    for size, direction in zip(comp, _directions(parts, last))
                ]
                for choice in itertools.product(*pools):
                    masks, covers = _glue(choice, cyclic=True)
                    # the mark runs over the last piece: s_{n-1} in slot star
                    for star in range(n - comp[-1] + 1, n + 1):
                        out.append(_on_cycle(masks, covers, n, star))
    result = tuple(out)
    assert len(set(result)) == len(result), "cycle gluing is injective"
    return result


def enumerate_diagrams(g: CoxGraph, *, spherical_only: bool = False) -> frozenset[StaircaseDiagram]:
    """Every staircase diagram on g, optionally only the spherical ones.
    Exact and duplicate-free; n is capped by ENUM_MAX.

    One loop walks the supports, by size, and reads each from a family
    enumerator.  The full support of a cycle gives
    fully_supported_cycle_diagrams, plus the one non-spherical diagram, the
    single full block, unless spherical_only; every other support has runs,
    and its diagrams are fully_supported_path_diagrams side by side.  Path
    diagrams are all spherical.

    >>> len(enumerate_diagrams(cycle_graph(2), spherical_only=True))
    5
    """
    _check_cap(g.kind, g.n)
    out: list[StaircaseDiagram] = []
    for r in range(g.n + 1):
        for sup in itertools.combinations(g.vertices, r):
            if g.kind == "cycle" and r == g.n:
                out.extend(fully_supported_cycle_diagrams(g.n))
                if not spherical_only:
                    out.append(StaircaseDiagram(g, (frozenset(sup),), ()))
            else:
                out.extend(_assemble_on_runs(g, sup))
    return frozenset(out)


def _assemble_on_runs(g: CoxGraph, support: Sequence[int]) -> Iterator[StaircaseDiagram]:
    """Diagrams with the given (proper, on a cycle) support: independent
    fully supported path diagrams on each maximal run.  A local vertex v
    of a run is run[v - 1], so each local block mask is rotated onto its
    run once, before the runs are combined."""
    if not support:
        yield StaircaseDiagram(g, (), ())
        return
    m = g._cycle
    pools = [
        [
            ([_shared(_rotate(mask, m, m + 1 - run[0])) for mask in local._masks], local.covers)
            for local in fully_supported_path_diagrams(len(run))
        ]
        for run in g.runs(support)
    ]
    for combo in itertools.product(*pools):
        blocks: list[frozenset[int]] = []
        covers: list[tuple[int, int]] = []
        for placed, local_covers in combo:
            base = len(blocks)
            blocks.extend(placed)
            covers.extend((base + i, base + j) for i, j in local_covers)
        yield StaircaseDiagram(g, blocks, covers)


# ----------------------------------------------------------------------
# The map to Weyl group elements


@lru_cache(maxsize=1024)
def _block_factor(period: int, block: int, inner: int) -> AffinePermutation:
    """The maximal element of W_block modulo W_inner, both given as vertex
    bitmasks: the minimal coset representative of the longest element of
    W_block.  A few hundred (period, block, inner) triples serve every
    diagram up to period 7."""
    return from_window(period, _longest_window(period, block)) * from_window(
        period, _longest_window(period, inner)
    )


def to_element(d: StaircaseDiagram) -> AffinePermutation:
    """Multiply, block by block, the maximal element of W_B modulo the
    parabolic on B's overlap with the union of lower blocks.

    Blocks are processed along a linear extension from the bottom; each new
    factor multiplies on the left, so maximal blocks end up leftmost.  The
    result has a complete maximal BP decomposition shaped by the diagram.
    Path diagrams on n vertices land in the affine group with period n+1
    (the finite group on s_1..s_n), cycle diagrams in period n.

    >>> to_element(StaircaseDiagram(path_graph(3), [[1, 2]], [])).window
    (3, 2, 1, 4)
    >>> d = StaircaseDiagram(path_graph(3), [[1, 2], [2, 3]], [(0, 1)])
    >>> to_element(d).window
    (4, 3, 1, 2)
    >>> to_element(d.flip()) == to_element(d).inverse()
    True
    """
    if not d.is_spherical():
        raise ValueError("only spherical diagrams map to group elements")
    period, masks = d.graph._cycle, d._masks  # type: ignore[attr-defined]
    win: Sequence[int] = range(1, period + 1)
    processed = expected = 0  # the vertex bitmask of the blocks so far
    for i in d._linear:  # type: ignore[attr-defined]
        block = masks[i]
        factor = _block_factor(period, block, block & processed)
        expected += factor.length
        # the first factor's window is the product so far
        win = _compose(period, factor.window, win) if processed else factor.window
        processed |= block
    w = AffinePermutation(period, tuple(win))
    assert w.length == expected, "block factors multiply length-additively"
    return w
