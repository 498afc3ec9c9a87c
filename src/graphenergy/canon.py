"""Canonical labelling by individualization-refinement.

The search refines a vertex colouring to equitability, branches on the first
non-singleton cell, and keeps the lexicographically smallest relabelled
adjacency as the canonical certificate. It prunes with the first-path design
of McKay & Piperno, "Practical graph isomorphism II" (J. Symbolic Comput.
60, 2014); refinement commutes with relabelling, so an automorphism that
fixes a node's base maps the subtree of one child onto that of another,
leaf for leaf with equal certificates. Hence:

* Backjump. A leaf with the first leaf's certificate gives an automorphism
  mapping the first path onto the current one. It fixes the base of their
  deepest common node and maps that node's first child onto the child being
  searched, whose subtree is thus an image of one already searched: the
  search returns straight to the first path.
* Per-node orbits. A node skips a child in the orbit of an explored child
  under the automorphisms found so far that fix its base. A union-find over
  them is built once per node and takes one union pass per automorphism
  found below it.
* Group order. At a first-path node every automorphism found so far fixes
  its base, as each was found below a first-path node at least as deep.
  When the node finishes, each child in the orbit of its first child under
  the base's stabiliser was either reached by a found automorphism or skipped
  as the image of one that was, so the union-find holds that orbit. By
  orbit-stabiliser the group order is the product of these orbit sizes down
  the first path, and the automorphisms found generate the group (Schreier).
* No cap. Each automorphism found maps the first child onto a child outside
  its orbit under all those found before (which fix the node's base), so it
  joins two orbits of their group on n vertices: at most n - 1 are stored.

Hot paths work on raw adjacency bitmask rows; ``Graph`` objects only appear
at the public wrappers. The tests cross-check the isomorphism relation and
automorphism counts against networkx's VF2 matcher, which shares no code
with this module.
"""

from __future__ import annotations

from .graph6 import encode_rows
from .graphs import Graph, bit_indices, dsu_find, relabel_rows


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


def _canonical_search(rows, n: int, root=None):
    """Return (cert, perm, autos, group_order) over the refinement tree of adjacency ``rows``.

    ``cert`` is the least relabelled adjacency over all leaves and ``perm``
    the first leaf giving it (vertex v goes to ``perm[v]``); ``autos``
    generate the automorphism group, of order ``group_order``. ``root``, when
    given, is ``(nbrs, colors, cell)``: the neighbour lists of ``rows`` and
    what ``_refine`` returns for them from the uniform colouring, which the
    search then does not refine again.
    """
    if root is None:
        nbrs = [bit_indices(row) for row in rows]
        root = nbrs, *_refine(nbrs, n, [0] * n)
    nbrs, root_colors, root_cell = root
    first: list = []  # cert, perm of the first leaf
    best: list = []
    autos: list[tuple[int, ...]] = []
    base: list[int] = []
    order = 1

    def dfs(colors: list[int], cell: list[int] | None, on_first: bool) -> bool:
        # the node's equitable colouring and first non-singleton cell; True:
        # this subtree found an automorphism; unwind to the first path
        nonlocal order
        if cell is None:
            # a discrete colouring is a permutation: vertex v goes to colors[v]
            cert, perm = relabel_rows(nbrs, colors), tuple(colors)
            if not first:
                first[:] = best[:] = cert, perm
            elif cert == first[0]:  # an automorphism: first path onto this one
                inv = sorted(range(n), key=perm.__getitem__)
                autos.append(tuple(map(inv.__getitem__, first[1])))
                return True
            elif cert < best[0]:
                best[:] = cert, perm
            return False
        orbits = list(range(n))  # of the automorphisms found so far that fix base
        merged = 0  # how many of them orbits holds
        explored: list[int] = []
        for v in cell:
            rv = dsu_find(orbits, v)
            if any(dsu_find(orbits, u) == rv for u in explored):
                continue
            explored.append(v)
            base.append(v)
            found = dfs(*_refine(nbrs, n, _individualize(colors, v)), on_first and v == cell[0])
            base.pop()
            if found and not on_first:
                return True
            for sigma in autos[merged:]:
                if all(sigma[b] == b for b in base):
                    for i, j in enumerate(sigma):
                        orbits[dsu_find(orbits, i)] = dsu_find(orbits, j)
            merged = len(autos)
        if on_first:
            r0 = dsu_find(orbits, cell[0])
            order *= sum(1 for v in cell if dsu_find(orbits, v) == r0)
        return False

    dfs(root_colors, root_cell, True)
    return best[0], best[1], autos, order


def _canonical_rows_autos(n: int, rows, root=None) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical rows plus the automorphisms the search found, in canonical labels.

    They generate the canonical image's automorphism group. An automorphism
    ``s`` of the input becomes ``t`` with ``t[perm[v]] = perm[s[v]]``, so no
    second search runs. ``root`` is as for ``_canonical_search``.
    """
    cert, perm, autos, _ = _canonical_search(rows, n, root)
    gens = []
    for s in autos:
        t = [0] * n
        for v in range(n):
            t[perm[v]] = perm[s[v]]
        gens.append(tuple(t))
    return cert, tuple(gens)


def canonical_rows(n: int, rows) -> tuple[int, ...]:
    """Adjacency rows of the canonical image; raw-row fast path."""
    return _canonical_search(rows, n)[0]


def canonical_g6(n: int, rows) -> str:
    return encode_rows(n, canonical_rows(n, rows))


def canonical_label(g: Graph) -> str:
    """Canonical graph6 string; isomorphic graphs map to equal strings."""
    return canonical_g6(g.n, g.adj)


def aut_order(g: Graph) -> int:
    """Exact automorphism-group order, by orbit-stabiliser along the first path."""
    return _canonical_search(g.adj, g.n)[3]
