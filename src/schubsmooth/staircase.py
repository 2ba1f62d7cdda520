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
glued.  The gluing bijections drive exact enumeration, and to_element maps
spherical diagrams to Weyl group elements by multiplying maximal parabolic
coset representatives block by block.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .affine import (
    AffinePermutation,
    cached_attribute,
    cycle_runs,
    identity,
    longest_element,
    run_starts,
)
from .errors import BudgetExceeded, MalformedDiagram

INCREASING = "increasing"
DECREASING = "decreasing"


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
        if self.kind == "path":
            return [(i, i + 1) for i in range(1, self.n)]
        if self.n == 2:
            return [(0, 1)]
        return [(i, (i + 1) % self.n) for i in range(self.n)]

    def _runs(self, subset: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        return cycle_runs(self._cycle, subset)

    @property
    def _cycle(self) -> int:
        # a path on 1..n is the (n+1)-cycle with vertex 0 absent
        return self.n + 1 if self.kind == "path" else self.n

    def is_connected(self, subset: Iterable[int]) -> bool:
        starts = run_starts(self._cycle, sum(1 << v for v in set(subset)))
        return not starts & (starts - 1)

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
        vs = set(subset)
        if self.kind == "cycle" and len(vs) == self.n:
            raise ValueError("full cycle support has no run decomposition")
        return self._runs(vs)


def path_graph(n: int) -> CoxGraph:
    return CoxGraph("path", n)


def cycle_graph(n: int) -> CoxGraph:
    return CoxGraph("cycle", n)


# ----------------------------------------------------------------------
# Staircase diagrams


@dataclass(frozen=True)
class StaircaseDiagram:
    """Blocks with a partial order given by covers.

    The constructor canonicalizes: blocks are sorted, the supplied relation
    pairs (indices into the block list as given) are closed transitively
    and reduced back to covers.  Structural defects (empty or duplicate
    blocks, relation cycles, bad indices) raise MalformedDiagram; axiom
    violations are reported by validate() instead.

    The order is kept as two tuples of bitmasks over the sorted block
    indices, both built once by the constructor: bit j of ``_up[i]`` is set
    when block j lies strictly above block i, and bit j of ``_down[i]``
    when it lies strictly below, so ``_down`` is the transpose of ``_up``.
    Every order query (less, the linear extension, heights, the chain test
    and the axiom checks of validate) reads these masks.

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
        raw = [frozenset(b) for b in self.blocks]
        verts = set(self.graph.vertices)
        for b in raw:
            if not b:
                raise MalformedDiagram("empty block")
            if not b <= verts:
                raise MalformedDiagram(f"block {sorted(b)} leaves the graph")
        if len(set(raw)) != len(raw):
            raise MalformedDiagram("duplicate blocks")
        k = len(raw)
        keys = [tuple(sorted(b)) for b in raw]
        perm = sorted(range(k), key=keys.__getitem__)
        pos = [0] * k
        for new, old in enumerate(perm):
            pos[old] = new
        up = [0] * k
        for pair in self.covers:
            i, j = pair
            if not (0 <= i < k and 0 <= j < k):
                raise MalformedDiagram(f"cover index {pair} out of range")
            if i == j:
                raise MalformedDiagram("reflexive cover")
            up[pos[i]] |= 1 << pos[j]
        for m in range(k):  # Warshall: what lies above m lies above all below m
            bit, above = 1 << m, up[m]
            for i in range(k):
                if up[i] & bit:
                    up[i] |= above
        # one pass over the closure: transpose it into down, and keep as
        # covers the pairs that nothing lies between (bits are walked lowest
        # first by hand; a generator per block would double the cost)
        down = [0] * k
        covers = []
        for i in range(k):
            bit, rest, through = 1 << i, up[i], 0
            if rest & bit:
                raise MalformedDiagram("relation has a cycle: not a partial order")
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                through |= up[j]
                down[j] |= bit
                rest ^= low
            rest = up[i] & ~through
            while rest:
                low = rest & -rest
                covers.append((i, low.bit_length() - 1))
                rest ^= low
        object.__setattr__(self, "blocks", tuple(raw[i] for i in perm))
        object.__setattr__(self, "covers", tuple(covers))
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_down", tuple(down))

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
    def _linear(self) -> tuple[int, ...]:
        """All block indices bottom to top: repeatedly the lowest index with
        nothing left below it.  Every walk up the order follows this one."""
        down = self._down  # type: ignore[attr-defined]
        left, order = (1 << len(down)) - 1, []
        while left:
            rest = left
            while True:  # the lowest block of rest with nothing left below it
                low = rest & -rest
                i = low.bit_length() - 1
                if not down[i] & left:
                    break
                rest ^= low
            order.append(i)
            left ^= low
        return tuple(order)

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
        return all(len(b) < self.graph.n for b in self.blocks)

    def is_empty(self) -> bool:
        return not self.blocks

    def heights(self) -> tuple[int, ...]:
        """Length of a longest chain strictly below each block."""
        down, k = self._down, len(self.blocks)  # type: ignore[attr-defined]
        hs = [0] * k
        for i in self._linear:
            hs[i] = max((hs[j] + 1 for j in range(k) if down[i] >> j & 1), default=0)
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
        chain = [self.blocks[i] for i in self._linear]
        return all(min(lo) < min(hi) and max(lo) < max(hi) for lo, hi in zip(chain, chain[1:]))

    # -- axioms ---------------------------------------------------------

    def validate(self) -> tuple[bool, str]:
        """Check the four staircase axioms; report the first violation.

        >>> StaircaseDiagram(path_graph(3), [[1, 2]], []).validate()
        (True, '')
        """
        g, blocks = self.graph, self.blocks
        up, down = self._up, self._down  # type: ignore[attr-defined]
        # for each vertex s, as bitmasks over the blocks: the blocks of its
        # chain 𝓓_s, and the blocks above some of them and below some of
        # them; for each block, its vertices as a bitmask over the vertices
        masks = dict.fromkeys(g.vertices, 0)
        above, below = masks.copy(), masks.copy()
        spans = [0] * len(blocks)
        for i, b in enumerate(blocks):
            span = 0
            for s in b:
                masks[s] |= 1 << i
                above[s] |= up[i]
                below[s] |= down[i]
                span |= 1 << s
            spans[i] = span
        # a vertex set is connected when at most one of its runs starts
        m = g._cycle
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
        for s, mask in masks.items():
            if not self._is_chain(mask):
                return False, f"axiom (2): blocks containing s_{s} are not a chain"
        for s, t in g.edges():
            if not self._is_chain(masks[s] | masks[t]):
                return False, f"axiom (3): blocks meeting {{s_{s}, s_{t}}} are not a chain"
            # 𝓓_s is saturated in the chain unless a block of 𝓓_t outside it
            # lies above one of its blocks and below another
            for name, other in ((s, t), (t, s)):
                if above[name] & below[name] & masks[other] & ~masks[name]:
                    return False, (
                        f"axiom (3): blocks containing s_{name} are not saturated "
                        f"in the {{s_{s}, s_{t}}} chain"
                    )
        # by axiom (2) each 𝓓_s is a chain: its minimum is the block of it
        # with nothing of it below, its maximum the one with nothing above
        minima = maxima = 0
        for s, mask in masks.items():
            minima |= mask & ~above[s]
            maxima |= mask & ~below[s]
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
    n, every block entry and every cover index must be a JSON integer.

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
    there are Catalan(n) of them."""
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
    Dyck path order; there are Catalan(n+1) - Catalan(n) of them.

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
    graph: CoxGraph,
    pieces: Sequence[BrokenStaircase],
    labels: Sequence[int],
    cyclic: bool,
) -> StaircaseDiagram:
    """Lay the pieces side by side on the labelled slots and join them.

    At the seam after piece j: a broken piece merges its overhang into the
    first block of the next piece; otherwise the seam is a cover, pointing
    up into the peak (increasing -> decreasing) or down into the valley
    (decreasing -> increasing) that starts the next piece.  The callers
    have checked that directions alternate.
    """
    assert len(labels) == sum(p.n for p in pieces)
    blocks: list[set[int]] = []
    piece_ids: list[list[int]] = []
    covers: set[tuple[int, int]] = set()
    offset = 0
    for p in pieces:
        ids = []
        for b in p.blocks:
            blocks.append({labels[offset + v - 1] for v in b})
            ids.append(len(blocks) - 1)
        for lo, hi in zip(ids, ids[1:]):
            covers.add((lo, hi) if p.direction == INCREASING else (hi, lo))
        piece_ids.append(ids)
        offset += p.n

    # A broken piece has two or more blocks, so the first block of the next
    # piece, which absorbs its overhang, is never an overhang itself: no
    # merged block is merged onward.
    merged: dict[int, int] = {}
    seams = len(pieces) if cyclic else len(pieces) - 1
    for j in range(seams):
        a_last = piece_ids[j][-1]
        b_first = piece_ids[(j + 1) % len(pieces)][0]
        if pieces[j].is_broken:
            merged[a_last] = b_first
            blocks[b_first] |= blocks[a_last]
        elif pieces[j].direction == INCREASING:
            covers.add((a_last, b_first))
        else:
            covers.add((b_first, a_last))

    kept = [i for i in range(len(blocks)) if i not in merged]
    index = {r: i for i, r in enumerate(kept)}
    root = [index[merged.get(i, i)] for i in range(len(blocks))]
    final_blocks = [frozenset(blocks[r]) for r in kept]
    final_covers = {(root[i], root[j]) for i, j in covers if root[i] != root[j]}
    return StaircaseDiagram(graph, final_blocks, sorted(final_covers))


# ----------------------------------------------------------------------
# Cycle decomposition


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


def cycle_decompose(
    d: StaircaseDiagram,
) -> tuple[tuple[BrokenStaircase, ...], int]:
    """Cut a fully supported spherical cycle diagram into broken staircases.

    Cuts happen at the first private vertex of each extremal block; the
    piece starting at a maximal block descends, the piece starting at a
    minimal block ascends, so directions alternate around the cycle.  The
    pieces are rotated so the one containing s_{n-1} comes last, and the
    1-based position of s_{n-1} in that piece is returned as the mark.
    """
    if d.graph.kind != "cycle":
        raise ValueError("cycle decomposition needs a cycle diagram")
    if not d.is_fully_supported():
        raise ValueError("diagram is not fully supported")
    if not d.is_spherical():
        raise ValueError("diagram is not spherical")
    n = d.graph.n
    ext = _extremes(d, cyclic=True)
    assert len(ext) % 2 == 0 and ext, "extremal blocks alternate around the cycle"
    cuts = [(_private_start(d, i), is_max) for i, is_max in ext]
    pieces = []
    for j, (c, is_max) in enumerate(cuts):
        nxt = cuts[(j + 1) % len(cuts)][0]
        span = (nxt - c) % n or n
        interval = [(c + t) % n for t in range(span)]
        direction = DECREASING if is_max else INCREASING
        pieces.append((interval, _restrict_piece(d, interval, direction)))
    last = next(j for j, (iv, _) in enumerate(pieces) if (n - 1) in iv)
    rotated = pieces[last + 1 :] + pieces[: last + 1]
    mark = rotated[-1][0].index(n - 1) + 1
    return tuple(p for _, p in rotated), mark


def cycle_glue(pieces: Sequence[BrokenStaircase], mark: int) -> StaircaseDiagram:
    """Inverse of cycle_decompose: lay the pieces around the cycle with the
    mark slot labelled s_{n-1}.

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
    star = sum(p.n for p in pieces[:-1]) + mark
    labels = [(slot - star - 1) % n for slot in range(1, n + 1)]
    return _glue(cycle_graph(n), pieces, labels, cyclic=True)


# ----------------------------------------------------------------------
# Line decomposition


def line_decompose(
    d: StaircaseDiagram,
) -> tuple[tuple[BrokenStaircase, ...], StaircaseDiagram]:
    """Cut a fully supported path diagram into broken staircases followed
    by one increasing staircase.

    Cuts happen at the first private vertex of each extremal block, up to
    the last minimal one; a diagram that ends on a descent therefore ends
    with a decreasing broken piece followed by a single-block staircase.

    >>> d = StaircaseDiagram(path_graph(2), [[1], [2]], [(1, 0)])
    >>> pieces, final = line_decompose(d)
    >>> [(p.n, p.direction) for p in pieces], len(final.blocks)
    ([(1, 'decreasing')], 1)
    """
    if d.graph.kind != "path":
        raise ValueError("line decomposition needs a path diagram")
    if not d.is_fully_supported():
        raise ValueError("diagram is not fully supported")
    n = d.graph.n
    ext = _extremes(d, cyclic=False)
    m = max(p for p, (_, is_max) in enumerate(ext) if not is_max) + 1
    cuts = [_private_start(d, i) for i, _ in ext[:m]]
    assert cuts and cuts[0] == 1, "the leftmost block owns vertex 1"
    pieces = []
    for j in range(m - 1):
        interval = list(range(cuts[j], cuts[j + 1]))
        direction = DECREASING if ext[j][1] else INCREASING
        pieces.append(_restrict_piece(d, interval, direction))
    final_iv = list(range(cuts[m - 1], n + 1))
    final_piece = _restrict_piece(d, final_iv, INCREASING)
    assert not final_piece.is_broken, "the final piece is a staircase"
    final = final_piece.as_diagram()
    assert tuple(p.direction for p in pieces) == _directions(len(pieces) + 1, INCREASING)[:-1], (
        "piece directions alternate back from the end"
    )
    return tuple(pieces), final


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
    n = sum(p.n for p in seq)
    return _glue(path_graph(n), seq, list(range(1, n + 1)), cyclic=False)


# ----------------------------------------------------------------------
# Enumeration


@lru_cache(maxsize=None)
def fully_supported_path_diagrams(n: int) -> tuple[StaircaseDiagram, ...]:
    """All fully supported diagrams on the path with n vertices, generated
    by gluing broken pieces onto a final increasing staircase."""
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
def _cycle_fully_supported(n: int) -> tuple[StaircaseDiagram, ...]:
    """All fully supported spherical diagrams on the cycle with n vertices,
    generated by cyclic gluing of an even number of broken pieces with a
    marked vertex in the last one."""
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
                    for mark in range(1, comp[-1] + 1):
                        out.append(cycle_glue(choice, mark))
    result = tuple(out)
    assert len(set(result)) == len(result), "cycle gluing is injective"
    return result


def enumerate_diagrams(
    g: CoxGraph,
    spherical_only: bool = False,
    fully_supported_only: bool = False,
) -> frozenset[StaircaseDiagram]:
    """Every staircase diagram on g, optionally restricted to spherical or
    fully supported ones.  Exact and duplicate-free; n is capped (path 12,
    cycle 8) because counts grow like 4.4^n.

    >>> len(enumerate_diagrams(cycle_graph(2), spherical_only=True))
    5
    """
    cap = 12 if g.kind == "path" else 8
    if g.n > cap:
        raise BudgetExceeded(f"{g.kind} enumeration capped at n = {cap}, got {g.n}")
    out: list[StaircaseDiagram] = []
    verts = g.vertices
    if g.kind == "path":
        supports: Iterable[tuple[int, ...]]
        if fully_supported_only:
            supports = [verts]
        else:
            supports = itertools.chain.from_iterable(
                itertools.combinations(verts, r) for r in range(len(verts) + 1)
            )
        for sup in supports:
            out.extend(_assemble_on_runs(g, sup))
        return frozenset(out)
    # cycle graph
    out.extend(_cycle_fully_supported(g.n))
    if not spherical_only:
        out.append(StaircaseDiagram(g, (frozenset(verts),), ()))
    if not fully_supported_only:
        for r in range(len(verts)):
            for sup in itertools.combinations(verts, r):
                out.extend(_assemble_on_runs(g, sup))
    return frozenset(out)


def _assemble_on_runs(g: CoxGraph, support: Sequence[int]) -> Iterator[StaircaseDiagram]:
    """Diagrams with the given (proper, on a cycle) support: independent
    fully supported path diagrams on each maximal run."""
    if not support:
        yield StaircaseDiagram(g, (), ())
        return
    runs = g.runs(support)
    pools = [fully_supported_path_diagrams(len(run)) for run in runs]
    for combo in itertools.product(*pools):
        blocks: list[frozenset[int]] = []
        covers: list[tuple[int, int]] = []
        for run, local in zip(runs, combo):
            base = len(blocks)
            blocks.extend(frozenset(run[v - 1] for v in b) for b in local.blocks)
            covers.extend((base + i, base + j) for i, j in local.covers)
        yield StaircaseDiagram(g, blocks, covers)


# ----------------------------------------------------------------------
# The map to Weyl group elements


@lru_cache(maxsize=1024)
def _block_factor(period: int, block: frozenset[int], inner: frozenset[int]) -> AffinePermutation:
    """The maximal element of W_block modulo W_inner: the minimal coset
    representative of the longest element of W_block.  A few hundred
    (period, block, inner) triples serve every diagram up to period 7."""
    return longest_element(period, block) * longest_element(period, inner)


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
    period = d.graph.n if d.graph.kind == "cycle" else d.graph.n + 1
    w = identity(period)
    processed: set[int] = set()
    expected = 0
    for i in d._linear:
        block = d.blocks[i]
        factor = _block_factor(period, block, block & processed)
        expected += factor.length
        w = factor * w
        processed |= block
    assert w.length == expected, "block factors multiply length-additively"
    return w
