"""Canonical labelling by individualization-refinement.

The search refines a vertex colouring to equitability, branches on the first
non-singleton cell, and keeps the lexicographically smallest relabelled
adjacency as the canonical certificate. Automorphisms discovered when two
branches reach the same certificate prune sibling branches, which keeps
highly symmetric graphs (stars, complete bipartite pieces) cheap.

Hot paths work on raw adjacency bitmask rows; ``Graph`` objects only appear
at the public wrappers. The tests cross-check the isomorphism relation and
automorphism counts against networkx's VF2 matcher, which shares no code
with this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph6 import encode_rows
from .graphs import Graph, bit_indices, dsu_find, relabel_rows

_MAX_STORED_AUTOS = 3000


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical graph6 string of a graph."""

    graph6: str


def _refine(nbrs: list[list[int]], n: int, colors: list[int]) -> list[int]:
    """Equitable refinement of ``colors`` (1-WL to a stable partition)."""
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            nb = sorted(colors[u] for u in nbrs[v])
            nb.insert(0, colors[v])
            sigs.append(tuple(nb))
        uniq = sorted(set(sigs))
        if len(uniq) == ncolors:
            return colors
        ncolors = len(uniq)
        rank = {s: i for i, s in enumerate(uniq)}
        colors = [rank[s] for s in sigs]


def _individualize(colors: list[int], v: int) -> list[int]:
    out = [2 * c + 1 for c in colors]
    out[v] -= 1
    rank = {c: i for i, c in enumerate(sorted(set(out)))}
    return [rank[c] for c in out]


def _first_nonsingleton_cell(colors: list[int]) -> list[int] | None:
    counts: dict[int, int] = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    target = None
    for c in sorted(counts):
        if counts[c] > 1:
            target = c
            break
    if target is None:
        return None
    return [v for v, c in enumerate(colors) if c == target]


def _compose_auto(pi1, pi2, n):
    """Automorphism sending v to pi2^-1(pi1(v)) for two equal-certificate leaves."""
    inv2 = [0] * n
    for v, p in enumerate(pi2):
        inv2[p] = v
    return tuple(inv2[pi1[v]] for v in range(n))


def _canonical_search(nbrs: list[list[int]], n: int, colors0: list[int]):
    """Return (best_rows, best_perm, autos) over the refinement tree."""
    best: list = [None, None]  # cert rows, perm
    first: list = [None, None]
    autos: list[tuple[int, ...]] = []
    seen_autos: set[tuple[int, ...]] = set()
    base: list[int] = []
    identity = tuple(range(n))

    def record(pi1, pi2):
        sigma = _compose_auto(pi1, pi2, n)
        if sigma != identity and sigma not in seen_autos:
            seen_autos.add(sigma)
            if len(autos) < _MAX_STORED_AUTOS:
                autos.append(sigma)

    def dfs(colors):
        colors = _refine(nbrs, n, colors)
        cell = _first_nonsingleton_cell(colors)
        if cell is None:
            # a discrete colouring is a permutation: vertex v goes to colors[v]
            cert, perm = relabel_rows(nbrs, colors), tuple(colors)
            if first[0] is None:
                first[0], first[1] = cert, perm
            elif cert == first[0] and perm != first[1]:
                record(first[1], perm)
            if best[0] is None or cert < best[0]:
                best[0], best[1] = cert, perm
            elif cert == best[0] and perm != best[1]:
                record(best[1], perm)
            return
        explored: list[int] = []
        for v in cell:
            if explored and autos:
                parent = list(range(n))
                for sigma in autos:
                    applies = True
                    for b in base:
                        if sigma[b] != b:
                            applies = False
                            break
                    if applies:
                        for u in range(n):
                            ru, rs = dsu_find(parent, u), dsu_find(parent, sigma[u])
                            if ru != rs:
                                parent[ru] = rs
                rv = dsu_find(parent, v)
                if any(dsu_find(parent, u) == rv for u in explored):
                    continue
            explored.append(v)
            base.append(v)
            dfs(_individualize(colors, v))
            base.pop()

    dfs(list(colors0))
    return best[0], best[1], autos


def _canonical_rows_autos(n: int, rows) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical rows plus the automorphisms the search found, in canonical labels.

    They generate a subgroup of the canonical image's automorphism group. An
    automorphism ``s`` of the input becomes ``t`` with
    ``t[perm[v]] = perm[s[v]]``, so no second search runs.
    """
    if n == 1:
        return (0,), ()
    nbrs = [bit_indices(row) for row in rows]
    cert, perm, autos = _canonical_search(nbrs, n, [0] * n)
    gens = []
    for s in autos:
        t = [0] * n
        for v in range(n):
            t[perm[v]] = perm[s[v]]
        gens.append(tuple(t))
    return cert, tuple(gens)


def canonical_rows(n: int, rows) -> tuple[int, ...]:
    """Adjacency rows of the canonical image; raw-row fast path."""
    return _canonical_rows_autos(n, rows)[0]


def canonical_g6(n: int, rows) -> str:
    return encode_rows(n, canonical_rows(n, rows))


def canonicalize(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Canonical image of ``g`` and the relabelling that produces it."""
    nbrs = [bit_indices(row) for row in g.adj]
    cert, perm, _ = _canonical_search(nbrs, g.n, [0] * g.n)
    return Graph(g.n, cert, g.e), perm


def canonical_label(g: Graph) -> CanonicalForm:
    """Canonical graph6 string; isomorphic graphs map to equal strings."""
    return CanonicalForm(canonical_g6(g.n, g.adj))


def aut_order(g: Graph) -> int:
    """Exact automorphism-group order via orbit-stabilizer along a base."""
    nbrs = [bit_indices(row) for row in g.adj]
    n = g.n
    colors = [0] * n
    order = 1

    def colored_cert(cols):
        cert, _, _ = _canonical_search(nbrs, n, cols)
        return cert

    while True:
        colors = _refine(nbrs, n, colors)
        cell = _first_nonsingleton_cell(colors)
        if cell is None:
            return order
        v0 = cell[0]
        ref = colored_cert(_individualize(colors, v0))
        orbit = sum(
            1 for u in cell if u == v0 or colored_cert(_individualize(colors, u)) == ref
        )
        order *= orbit
        colors = _individualize(colors, v0)
