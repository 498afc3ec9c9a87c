"""Immutable simple-graph value type and deterministic family constructors.

Graphs are stored as per-vertex adjacency bitsets (one machine word each),
capped at 62 vertices: that covers every family the inequality checks sample
(up to 40 vertices) while keeping single-byte graph6 headers, and bitset rows
keep enumeration and refinement fast.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

from .errors import FamilyParseError, InvalidFamilyError, NotAnEdgeError, ScaleError

MAX_VERTICES = 62

Edge = tuple[int, int]


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def relabel_rows(nbrs, perm) -> tuple[int, ...]:
    """Bitset rows of the image under ``perm`` of a graph given by neighbour lists.

    Old vertex v becomes ``perm[v]``.
    """
    rows = [0] * len(nbrs)
    for v, nb in enumerate(nbrs):
        m = 0
        for u in nb:
            m |= 1 << perm[u]
        rows[perm[v]] = m
    return tuple(rows)


def reach(rows, start: int, allowed: int) -> int:
    """Bitset of the vertices reachable from bitset ``start`` through ``allowed``.

    ``rows`` are neighbour bitsets; the walk enters only vertices in ``allowed``.
    """
    seen = frontier = start
    while frontier:
        grow = 0
        for v in bit_indices(frontier):
            grow |= rows[v]
        frontier = grow & allowed & ~seen
        seen |= frontier
    return seen


def dsu_find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find ``parent`` list, halving the path walked."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ScaleError(f"vertex count {n} outside 1..{MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbour bitset of v; the edge count ``e`` is derived
    from the rows. All edit operations return new values; instances are safe
    to share across threads.
    """

    n: int
    adj: tuple[int, ...]
    e: int = field(init=False)

    def __post_init__(self):
        _check_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        deg_sum = 0
        below = 0
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"adjacency row {v} references vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            deg_sum += row.bit_count()
            low = row & ((1 << v) - 1)
            below += low.bit_count()
            for u in bit_indices(low):
                if not self.adj[u] >> v & 1:
                    raise ValueError("adjacency relation is not symmetric")
        # every below-diagonal bit has its (distinct) mirror above the
        # diagonal, so equal counts leave no above-diagonal bit unmirrored
        if 2 * below != deg_sum:
            raise ValueError("adjacency relation is not symmetric")
        object.__setattr__(self, "e", deg_sum // 2)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on n vertices; ``edges`` is read only once n is in range.

        The family constructors pass lazy edge iterables, so an oversized
        family fails here before any edge is made.
        """
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) rejected")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def edges(self) -> list[Edge]:
        return [
            (u, v)
            for u in range(self.n)
            for v in bit_indices(self.adj[u] >> (u + 1) << (u + 1))
        ]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return bit_indices(self.adj[v])

    def component_masks(self) -> list[int]:
        """Connected components as vertex bitsets, ordered by smallest member."""
        seen = 0
        comps = []
        full = (1 << self.n) - 1
        while seen != full:
            free = full & ~seen
            comp = reach(self.adj, free & -free, full)
            comps.append(comp)
            seen |= comp
        return comps

    def component_count(self) -> int:
        return len(self.component_masks())

    def is_connected(self) -> bool:
        return self.component_count() == 1

    def relabeled(self, perm) -> "Graph":
        """Image under ``perm``: old vertex v becomes ``perm[v]``."""
        nbrs = [bit_indices(row) for row in self.adj]
        return Graph(self.n, relabel_rows(nbrs, perm))


def make_s_graph(n: int, e: int) -> Graph:
    """Star on n vertices (centre 0) plus e-n+1 edges from vertex 1 to 2..e-n+2.

    Every extra edge closes a triangle through the centre, so the result has
    exactly e-n+1 triangles.
    """
    if n < 3:
        raise InvalidFamilyError(f"S({n},{e}): requires n >= 3")
    if e < n - 1:
        raise InvalidFamilyError(f"S({n},{e}): requires e >= n-1 = {n - 1}")
    if e > 2 * n - 3:
        raise InvalidFamilyError(f"S({n},{e}): requires e <= 2n-3 = {2 * n - 3}")
    edges = itertools.chain(
        ((0, v) for v in range(1, n)), ((1, v) for v in range(2, e - n + 3))
    )
    return Graph.from_edges(n, edges)


def make_b_graph(n: int, e: int) -> Graph:
    """Bipartite graph with parts {0,1} and {2..n-1}; 0 complete to the big side.

    Vertex 1 is joined to the lowest-indexed e-(n-2) vertices of the big side;
    any other choice is isomorphic, so the deterministic one loses nothing.
    """
    if n < 3:
        raise InvalidFamilyError(f"B({n},{e}): requires n >= 3")
    if e < n - 1:
        raise InvalidFamilyError(f"B({n},{e}): requires e >= n-1 = {n - 1}")
    if e > 2 * (n - 2):
        raise InvalidFamilyError(f"B({n},{e}): requires e <= 2(n-2) = {2 * (n - 2)}")
    edges = itertools.chain(
        ((0, w) for w in range(2, n)), ((1, w) for w in range(2, 2 + e - (n - 2)))
    )
    return Graph.from_edges(n, edges)


def make_star(n: int) -> Graph:
    if n < 2:
        raise InvalidFamilyError(f"Star({n}): requires n >= 2")
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def make_cycle(k: int) -> Graph:
    if k < 3:
        raise InvalidFamilyError(f"C({k}): requires k >= 3")
    return Graph.from_edges(k, ((v, (v + 1) % k) for v in range(k)))


def make_complete(k: int) -> Graph:
    if k < 1:
        raise InvalidFamilyError(f"K({k}): requires k >= 1")
    return Graph.from_edges(k, ((u, v) for u in range(k) for v in range(u + 1, k)))


def make_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidFamilyError(f"K({a},{b}): requires both parts >= 1")
    return Graph.from_edges(a + b, ((u, a + w) for u in range(a) for w in range(b)))


def make_wheel(k: int) -> Graph:
    """Hub (vertex 0) joined to every vertex of a (k-1)-cycle; k vertices total."""
    if k < 4:
        raise InvalidFamilyError(f"W({k}): requires k >= 4")
    rim = ((v, v % (k - 1) + 1) for v in range(1, k))
    hub = ((0, v) for v in range(1, k))
    return Graph.from_edges(k, itertools.chain(rim, hub))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise ScaleError(
            f"disjoint union needs {g.n + h.n} vertices; limit is {MAX_VERTICES}"
        )
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def delete_edges(g: Graph, edges) -> Graph:
    rows = list(g.adj)
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or not rows[u] >> v & 1:
            raise NotAnEdgeError(f"({u},{v}) is not an edge of the graph")
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


# --- named-family expressions ----------------------------------------------

# (lower-case name, parameter count) -> constructor: the one family catalogue
FAMILIES = {
    ("s", 2): make_s_graph,
    ("b", 2): make_b_graph,
    ("c", 1): make_cycle,
    ("k", 1): make_complete,
    ("k", 2): make_complete_bipartite,
    ("kb", 2): make_complete_bipartite,
    ("w", 1): make_wheel,
    ("star", 1): make_star,
}

_TERM_RE = re.compile(r"^\s*([A-Za-z]+)\s*([\d\s,]*)\s*$")


def family_graph(text: str) -> Graph:
    """Build a family expression: "S 7 7", "K4", "Kb 3 3", "C3 + C3"...

    Terms are joined with "+" for disjoint unions; parameters may be separated
    by spaces or commas, or run straight after a single-letter name ("W5").
    Every term is parsed before any is built; the parts are then built and
    joined left to right.
    """
    terms = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise FamilyParseError(f"cannot parse family term {chunk.strip()!r}")
        name = m.group(1)
        nums = re.findall(r"\d+", m.group(2))
        if not nums:
            raise FamilyParseError(f"family term {chunk.strip()!r} has no parameters")
        make = FAMILIES.get((name.lower(), len(nums)))
        if make is None:
            raise FamilyParseError(
                f"unknown family {name!r} with {len(nums)} parameter(s)"
            )
        try:
            terms.append((make, [int(x) for x in nums]))
        except ValueError:  # past Python's int-string digit limit
            raise FamilyParseError(
                f"family {name!r} has a parameter of {max(map(len, nums))} digits"
            ) from None
    return functools.reduce(disjoint_union, (make(*nums) for make, nums in terms))
