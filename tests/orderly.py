"""Read's orderly edge walk: the independent census oracle of the tests and CI.

The package builds every census with its vertex walk (``graphenergy.census``);
this walk shares no isomorphism machinery with it, and the tests hold the two
against each other on every pin and every non-empty class with n <= 9.

Orderly generation grows graphs one edge at a time in a fixed column-major
pair order; a child is kept only when its labelled adjacency code is maximal
over all relabellings, and removing the last set bit of a maximal code
provably yields a maximal code again, so every isomorphism class is produced
exactly once with no stored dedup. A walk towards (n, e) emits every
connected graph it passes, so it fills every class (n, m <= e) at once. The
max-code test (Read, "Every one a winner", Ann. Discrete Math. 2, 1978) is
one walk that places a relabelling one vertex at a time, and whose first
path, the identity, is a node like any other. Any other leaf is an
automorphism: the walk backjumps from it to the first path and there skips
children in an orbit of an explored sibling (the first-path pruning of
McKay & Piperno, "Practical graph isomorphism II", 2014). Both are sound: an
automorphism that fixes the prefix and maps d to w maps the explored subtree
of d onto that of w code for code, and in DFS order every automorphism found
so far fixes the current identity prefix.

``edge_census(n, e)`` memoises like ``enumerate_connected``: one walk towards
(n, e) keeps every class (n, m <= e), so asking for the largest e of an order
first makes one walk per order. CI also walks towards (10,12), a class
outside the pins.
"""

from __future__ import annotations

from graphenergy.canon import canonical_g6
from graphenergy.graphs import dsu_find


def _pair_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _column_values(rows: list[int], n: int) -> list[int]:
    cols = [0] * n
    for j in range(1, n):
        v = 0
        for i in range(j):
            v = v << 1 | (rows[i] >> j & 1)
        cols[j] = v
    return cols


def _is_max_code(rows: list[int], n: int) -> bool:
    """True iff no relabelling gives a lexicographically larger column code.

    ``walk`` places a relabelling one vertex at a time. An unplaced vertex is
    a candidate for the next position when its code against the prefix equals
    that position's column; a larger code is an improving relabelling, and
    the walk returns False from any depth. A node's identity child places
    ``x == depth``. Off the first path a leaf is an automorphism, returned
    straight up to the first path and merged into ``orbits`` there.
    """
    cols = _column_values(rows, n)
    # early out, so that most failing tests build no lists: on the first
    # path, vertex w >= d has the top d bits of its column as its code
    for d in range(n):
        col = cols[d]
        for w in range(d + 1, n):
            if cols[w] >> (w - d) > col:
                return False
    orbits = list(range(n))  # union-find over every automorphism found so far

    def walk(cands: list[tuple[int, int]], placed: list[int], first: bool):
        # cands: (unplaced vertex, its code against placed). False on an
        # improving relabelling; off the first path the automorphism found, else None.
        depth = len(placed)
        if depth == n:
            return None if first else tuple(placed)
        target = cols[depth]
        equals = []
        for w, v in cands:
            if v > target:
                return False
            if v == target:
                equals.append(w)
        explored: list[int] = []
        for x in equals:
            if first:
                rx = dsu_find(orbits, x)
                if any(dsu_find(orbits, u) == rx for u in explored):
                    continue
                explored.append(x)
            r = rows[x]
            placed.append(x)
            found = walk(
                [(w, v << 1 | (r >> w & 1)) for w, v in cands if w != x],
                placed,
                first and x == depth,
            )
            placed.pop()
            if found is None:
                continue
            if found is False or not first:
                return found
            for i, p in enumerate(found):  # an automorphism: merge its orbits
                orbits[dsu_find(orbits, i)] = dsu_find(orbits, p)
        return None

    return walk([(w, 0) for w in range(n)], [], True) is None


def _generate_orderly(n: int, e: int) -> dict[tuple[int, int], list[str]]:
    """Every class (n, m <= e) as canonical graph6.

    One walk towards e fills every class on the way: a connected graph with
    m <= e edges has only max-code ancestors with c components and m' edges
    where c - 1 <= m - m', so the component prune never cuts it off. Below
    n - 1 edges the prune cuts every child of the root, and each class is empty.
    """
    pairs = _pair_order(n)
    total_pairs = len(pairs)
    out: dict[tuple[int, int], list[str]] = {(n, m): [] for m in range(e + 1)}

    def extend(rows: list[int], m: int, last: int, parent: list[int], comps: int):
        if comps == 1:
            out[n, m].append(canonical_g6(n, rows))
        if m == e:
            return
        for p in range(last + 1, total_pairs):
            i, j = pairs[p]
            ri, rj = dsu_find(parent, i), dsu_find(parent, j)
            new_comps = comps - (ri != rj)
            # every edge still to come can join at most two components
            if new_comps - 1 > e - m - 1:
                continue
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            if _is_max_code(rows, n):
                child_parent = parent.copy()
                if ri != rj:
                    child_parent[ri] = rj
                extend(rows, m + 1, p, child_parent, new_comps)
            rows[i] &= ~(1 << j)
            rows[j] &= ~(1 << i)

    extend([0] * n, 0, -1, list(range(n)), n)
    return out


# (n, e) -> sorted census strings, for every class an edge walk has completed
_memo: dict[tuple[int, int], tuple[str, ...]] = {}


def edge_census(n: int, e: int) -> tuple[str, ...]:
    """The sorted canonical graph6 strings of (n, e), from the edge walk."""
    if (n, e) not in _memo:
        for key, found in _generate_orderly(n, e).items():
            _memo[key] = tuple(sorted(found))
    return _memo[n, e]
