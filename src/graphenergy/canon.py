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


def _refine(nbrs: list[list[int]], n: int, colors: list[int]) -> tuple[list[int], list[int] | None]:
    """Equitable refinement of ``colors``, in place, and its first non-singleton cell.

    Each round splits every cell in place, in colour order, by one integer key
    per vertex: degree in the high bits minus neighbour-colour counts in base
    ``2**n.bit_length()``, colour 0 most significant. Sorted neighbour-colour
    tuples of equal length order as the reverse of their count vectors, so this
    is the tuple-sort refinement's ordered partition whenever ``colors`` is
    0..k-1 and uniform or degree-uniform per cell (``_individualize`` of an
    equitable one). The cell lists its vertices ascending, or is ``None``.
    """
    if max(colors) == n - 1:
        return colors, None
    b = n.bit_length()
    weight = [1 << s for s in range(b * n - b, -1, -b)].__getitem__
    color = colors.__getitem__
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    while True:
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) > 1:
                groups: dict[int, list[int]] = {}
                for v in cell:
                    key = (len(nbrs[v]) << b * n) - sum(map(weight, map(color, nbrs[v])))
                    groups.setdefault(key, []).append(v)
                if len(groups) > 1:
                    split.extend(groups[key] for key in sorted(groups))
                    continue
            split.append(cell)
        if len(split) == len(cells):
            return colors, next((cell for cell in cells if len(cell) > 1), None)
        cells = split
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c


def _individualize(colors: list[int], v: int) -> list[int]:
    """Split ``v`` off its non-singleton cell, just before the rest of it."""
    cv = colors[v]
    out = [c if c < cv else c + 1 for c in colors]
    out[v] = cv
    return out


def _compose_auto(pi1, pi2, n):
    """Automorphism sending v to pi2^-1(pi1(v)) for two equal-certificate leaves."""
    inv2 = sorted(range(n), key=pi2.__getitem__)
    return tuple(map(inv2.__getitem__, pi1))


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
        colors, cell = _refine(nbrs, n, colors)
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
                    for b in base:
                        if sigma[b] != b:
                            break
                    else:
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
        return _canonical_search(nbrs, n, cols)[0]

    while True:
        colors, cell = _refine(nbrs, n, colors)
        if cell is None:
            return order
        v0 = cell[0]
        ref = colored_cert(_individualize(colors, v0))
        orbit = sum(
            1 for u in cell if u == v0 or colored_cert(_individualize(colors, u)) == ref
        )
        order *= orbit
        colors = _individualize(colors, v0)
