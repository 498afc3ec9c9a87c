"""Structural predicates: bipartiteness, odd-cycle pair classification and
edge cuts.

The class split tests whether a graph contains two vertex-disjoint odd
cycles whose lengths sum to 2 mod 4; graphs without such a pair are
``CLASS1``, the rest ``CLASS2`` with a witness pair. Cycle enumeration is
exponential in general, so the split is limited to n <= 12 and to
``MAX_CLASSIFY_CYCLES`` simple cycles (cycle space rank stays tiny for the
sparse censuses this serves). The pairing is over distinct keys, not
cycles: an odd cycle's key is its vertex mask (its edge mask under the
edge-disjoint reading), and the first cycle met with each key stands for
all of them. Cycles with one key pair alike with every other cycle, so the
first compatible pair of cycles in enumeration order is a pair of first
occurrences and the witness is unchanged.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ScaleError
from .graphs import Graph, delete_edges

MAX_CLASSIFY_VERTICES = 12
# K10 has 556,014 simple cycles; K11 has 5,488,059 and K12 some 60 million
MAX_CLASSIFY_CYCLES = 10**6


class ClassKind(enum.Enum):
    CLASS1 = "class1"
    CLASS2 = "class2"


@dataclass(frozen=True)
class ClassLabel:
    kind: ClassKind
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class BipartiteCheck:
    bipartite: bool
    coloring: tuple[int, ...] | None = None  # 0/1 per vertex when bipartite
    odd_cycle: tuple[int, ...] | None = None  # vertex sequence otherwise

    def __bool__(self) -> bool:
        return self.bipartite


def is_bipartite(g: Graph) -> BipartiteCheck:
    """BFS two-colouring; on failure returns a simple odd cycle as witness."""
    color = [-1] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            nxt = []
            for v in queue:
                for u in g.neighbors(v):
                    if color[u] == -1:
                        color[u] = color[v] ^ 1
                        parent[u] = v
                        depth[u] = depth[v] + 1
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return BipartiteCheck(
                            False, None, _odd_cycle_from_conflict(parent, depth, v, u)
                        )
            queue = nxt
    return BipartiteCheck(True, tuple(color), None)


def _odd_cycle_from_conflict(parent, depth, v, u) -> tuple[int, ...]:
    """Shrink the closed walk through the BFS tree edge-conflict to a cycle."""
    path_v, path_u = [v], [u]
    a, b = v, u
    while depth[a] > depth[b]:
        a = parent[a]
        path_v.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        path_u.append(b)
    while a != b:
        a, b = parent[a], parent[b]
        path_v.append(a)
        path_u.append(b)
    # path_v ends at the meeting vertex; cycle = v..lca..u, plus edge (u,v)
    return tuple(path_v + path_u[-2::-1])


def _cycles(g: Graph) -> Iterator[tuple[tuple[int, ...], int]]:
    # Each simple cycle with its vertex mask. The cycle s, a, ..., v (s
    # smallest) is met once, as the path with a < v. ``closers`` are the
    # neighbours of s above a: a path is extended only while one of them is
    # still off it, so no dead branch is searched.
    nbrs = [g.neighbors(v) for v in range(g.n)]
    for s in range(g.n):
        stack = []
        for a in nbrs[s]:
            closers = g.adj[s] >> (a + 1) << (a + 1)
            if a > s and closers:
                stack.append((a, 1 << s | 1 << a, (s, a), closers))
        while stack:
            v, mask, path, closers = stack.pop()
            for u in nbrs[v]:
                if u == s and len(path) >= 3 and path[1] < path[-1]:
                    yield path, mask
                elif u > s and not mask >> u & 1 and closers & ~mask:
                    stack.append((u, mask | 1 << u, path + (u,), closers))


def classify(g: Graph, *, disjointness: str = "vertex") -> ClassLabel:
    """Split by presence of two disjoint odd cycles with length sum 2 mod 4.

    ``disjointness`` selects vertex-disjoint (default) or edge-disjoint
    pairing; the vertex reading is the one the family checks rely on.
    Raises ``ScaleError`` past ``MAX_CLASSIFY_VERTICES`` vertices or
    ``MAX_CLASSIFY_CYCLES`` simple cycles.

    Each odd cycle is reduced to its key, its vertex or edge mask by the
    reading; two cycles are disjoint when their keys share no bit, and a key
    fixes its cycle's length (its popcount). Only the first cycle met with
    each key is kept, and one loop pairs the distinct keys in first-seen
    order. The witness is the first compatible pair (i, j) of cycles in
    enumeration order: were i not the first with its key, that earlier
    cycle would pair with j first; were j not, its earlier twin b would make
    the earlier pair (i, b) or (b, i). Under the edge reading no two cycles
    share a key.
    """
    if g.n > MAX_CLASSIFY_VERTICES:
        raise ScaleError(
            f"classification supports n <= {MAX_CLASSIFY_VERTICES}, got n={g.n}"
        )
    if disjointness not in ("vertex", "edge"):
        raise ValueError(f"unknown disjointness {disjointness!r}")
    first = {}  # key -> first odd cycle with it
    # the cycles are met one at a time, so a dense graph fails before it fills memory
    for count, (c, key) in enumerate(_cycles(g), 1):
        if count > MAX_CLASSIFY_CYCLES:
            raise ScaleError(
                f"classification supports at most {MAX_CLASSIFY_CYCLES} simple cycles"
            )
        if len(c) % 2 == 1:
            if disjointness == "edge":
                key = 0
                for u, v in zip(c, c[1:] + c[:1]):
                    key |= 1 << (min(u, v) * g.n + max(u, v))
            first.setdefault(key, c)
    odd = list(first.items())
    for i, (ka, a) in enumerate(odd):
        for kb, b in odd[i + 1:]:
            if (len(a) + len(b)) % 4 == 2 and not ka & kb:
                return ClassLabel(ClassKind.CLASS2, (a, b))
    return ClassLabel(ClassKind.CLASS1, None)


def is_edge_cut(g: Graph, edges) -> bool:
    """True iff deleting ``edges`` increases the number of components."""
    # delete_edges raises NotAnEdgeError for a non-edge, and for an edge given twice
    return delete_edges(g, edges).component_count() > g.component_count()
