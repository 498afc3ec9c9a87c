import dataclasses
import itertools
import os
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphenergy import (
    CacheMissError,
    CorruptCacheError,
    Graph,
    GraphClassCensus,
    ScaleError,
    aut_order,
    canonical_label,
    census_cache_load,
    census_cache_store,
    enumerate_connected,
    family_graph,
    get_census,
    graph6_decode,
    graph6_encode,
)
from graphenergy import canon
from graphenergy import census as census_module
from graphenergy.cli import main
from graphenergy.census import (
    GENERATOR_VERSION,
    PINNED,
    census_digest,
    _generate_vertex_aug,
    _vertex_levels,
)
from graphenergy.graphs import bit_indices, relabel_rows

import orderly
from orderly import _generate_orderly, _is_max_code, edge_census
from test_canon import reference_refine
from test_graphs import adjacency_matrix

KNOWN = {
    (3, 3): 1,
    (4, 4): 2,
    (5, 5): 5,
    (5, 6): 5,
    (5, 7): 4,
    (5, 8): 2,
    (6, 7): 19,
    (6, 8): 22,
    (6, 9): 20,
}


# (count, sha256 of the census file, one canonical graph6 line each) for the
# 17 theorem classes and (4,4), (5,5); the digests were frozen from the
# generator before it returned strings. An independent copy of census.PINNED.
PINNED_CENSUSES = {
    (4, 4): (2, "e70d0519e357d24966e186465cffca5e8f845533f09199ea76820f0641eb8bec"),
    (4, 5): (1, "0bf45b40fedf183b8a862603613d656cdff05d5d1c22491e172c07af2fb17d94"),
    (4, 6): (1, "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b"),
    (5, 5): (5, "97f465f9f6fb53fba7f982f6877e8f411fa9957ea16dc85e0c96a0efa22d3063"),
    (5, 6): (5, "49b4760c160e73257c52dc7acbfc2c8a5aeccdb5ba0fb955dd890f605bc780ca"),
    (5, 7): (4, "c2dcad81a5e37c4cfcdc8331442881ffa759b864fe126564ed73937e7171dd4b"),
    (5, 8): (2, "01c1079bd8d60bedc6f35e17fd7d75b3b0683c1e50424f22a5f6fd166844493c"),
    (6, 7): (19, "ff63c1485bcfd6dbd00a97249fc1a04ec66147f79687d1c1c6cbc148bb8ab3c7"),
    (6, 8): (22, "e42f59840652574dbb7b9f77b4cf2755403caaa8dd2ab072436eeb1ab321cfc7"),
    (6, 9): (20, "f23138bcc820da00ebc802f9c6f3d857268cb04168fcdffb45e5e6113ba9c808"),
    (7, 8): (67, "4746626abe0a25e803f0d3e0d3c1823d51cf9d5b2fac684fef1c1de98d8f2144"),
    (7, 9): (107, "858cae3059d9d692487f9ec89a644a88740c84ff4c44959fa967754550ed4c7f"),
    (7, 10): (132, "2abdee7c5429c14050eb3e932503019b9876492c4b4189f45ffce24e18489b34"),
    (8, 9): (236, "b2feac0aeea5036d34966b7819de79371a1b1f91e6a183e55095ac4a14045baf"),
    (8, 10): (486, "dc0f3d531d18b491acba9090b2fdbcd2d72e32ca7cdc548d6c190f2cdc6f6f2d"),
    (8, 11): (814, "b9a96fb06bc3e5c43d5978402bafab542d7e53e9d9942227012d7acad07cdd8d"),
    (9, 10): (797, "15475f973f3e7190bddc881028621a7dce553eebc48f1fb0d5f81006df0bfc84"),
    (9, 11): (2075, "6a1c85bc195bb9a774f763e5e7046ee440e32c3763987b1b0f4684a4d4a90f48"),
    (9, 12): (4495, "e205401d270a740142eaa9230354aca5a1e969a914937820a81a9aa559498809"),
}


@pytest.mark.parametrize("n,e", sorted(KNOWN))
def test_known_counts(n, e):
    assert len(enumerate_connected(n, e)) == KNOWN[(n, e)]


# largest e first, so that cold memos make one vertex walk, towards (9,12),
# and one edge walk per order
@pytest.mark.parametrize("n,e", sorted(PINNED_CENSUSES, reverse=True))
def test_census_bytes_are_pinned(n, e):
    want = PINNED_CENSUSES[(n, e)]
    census = enumerate_connected(n, e)
    assert (len(census), census_digest(census.graphs)) == want, "vertex"
    strings = edge_census(n, e)
    assert (len(strings), census_digest(strings)) == want, "edge"


def test_library_pins_equal_the_literal_pins():
    assert PINNED == PINNED_CENSUSES


def test_members_are_connected_canonical_and_distinct():
    census = enumerate_connected(6, 9)
    assert len(set(census.graphs)) == len(census.graphs)
    assert list(census.graphs) == sorted(census.graphs)
    for s in census.graphs:
        g = graph6_decode(s)
        assert (g.n, g.e) == (6, 9)
        assert g.is_connected()
        assert canonical_label(g) == s


def test_strategies_agree_through_n6():
    # largest e first: one edge walk per order fills the rest of it
    for n in range(1, 7):
        for e in range(n + 3, max(0, n - 1) - 1, -1):
            assert edge_census(n, e) == enumerate_connected(n, e).graphs, (n, e)


def test_strategies_agree_at_n7():
    for e in range(10, 5, -1):
        assert edge_census(7, e) == enumerate_connected(7, e).graphs, e


def test_strategies_agree_at_n8():
    for e in range(11, 6, -1):
        assert edge_census(8, e) == enumerate_connected(8, e).graphs, e


def test_strategies_agree_at_n9():
    # the trees and unicyclic graphs too, which both walks towards (9,12) fill
    for e in range(12, 7, -1):
        assert edge_census(9, e) == enumerate_connected(9, e).graphs, e


@pytest.mark.parametrize("n,e", [(1, 0), (7, 10)])
def test_both_walks_return_the_classes_of_their_order(n, e):
    # one contract: a walk towards (n, e) returns every class (n, m <= e), with
    # the same members from either walk; the vertex walk adds lower orders
    edge = _generate_orderly(n, e)
    vertex = _generate_vertex_aug(n, e)
    assert sorted(edge) == [key for key in sorted(vertex) if key[0] == n]
    assert sorted(edge) == [(n, m) for m in range(e + 1)]
    for key, strings in edge.items():
        assert sorted(strings) == sorted(vertex[key]), key


def count_walks(monkeypatch) -> list:
    """Record each walk of the census generator, the vertex walk, as (n, e)."""
    walks = []
    generate = census_module._generate_vertex_aug
    monkeypatch.setattr(
        census_module, "_generate_vertex_aug", lambda n, e: walks.append((n, e)) or generate(n, e)
    )
    return walks


def test_vertex_walk_goes_as_far_as_asked(monkeypatch):
    # a fresh memo, so the walks are counted whatever ran before
    walks = count_walks(monkeypatch)
    monkeypatch.setattr(census_module, "_memo", {})
    census = enumerate_connected(8, 9)
    assert (len(census), census_digest(census.graphs)) == PINNED_CENSUSES[(8, 9)]
    # the walk towards (8,9) filled every class of order 8 up to e = 9, and
    # its level 7 every 7-vertex class up to e = 8
    assert [len(enumerate_connected(8, m)) for m in range(10)] == [0] * 7 + [23, 89, 236]
    assert len(enumerate_connected(7, 6)) == 11
    assert walks == [(8, 9)]
    # a larger e takes a new walk, and that one fills the classes in between
    censuses = [enumerate_connected(8, e) for e in (11, 10)]
    assert walks == [(8, 9), (8, 11)]
    for c in censuses:
        assert (len(c), census_digest(c.graphs)) == PINNED_CENSUSES[(8, c.e)]
    # too few edges to connect: no level of an earlier walk holds (7,2), and
    # its own walk is at once an empty answer
    assert enumerate_connected(7, 2).graphs == ()
    assert walks == [(8, 9), (8, 11), (7, 2)]


def test_edge_walk_goes_as_far_as_asked(monkeypatch):
    # the oracle's memo keeps every class (n, m <= e) of its walk too
    walks = []
    generate = orderly._generate_orderly
    monkeypatch.setattr(
        orderly, "_generate_orderly", lambda n, e: walks.append((n, e)) or generate(n, e)
    )
    monkeypatch.setattr(orderly, "_memo", {})
    strings = edge_census(8, 9)
    assert (len(strings), census_digest(strings)) == PINNED_CENSUSES[(8, 9)]
    assert [len(edge_census(8, m)) for m in range(10)] == [0] * 7 + [23, 89, 236]
    assert walks == [(8, 9)]
    # too few edges to connect: the component prune cuts every child of the
    # root, so the walk is at once an empty answer
    assert edge_census(7, 2) == ()
    assert len(edge_census(7, 6)) == 11
    assert walks == [(8, 9), (7, 2), (7, 6)]


def test_edge_walk_stops_at_the_requested_e():
    # 106 trees and 657 connected unicyclic graphs on 10 vertices: OEIS
    # A000055 and A001429; no class above e = 10 is walked
    by_class = _generate_orderly(10, 10)
    assert sorted(by_class) == [(10, m) for m in range(11)]
    assert [len(by_class[10, m]) for m in (9, 10)] == [106, 657]
    assert not any(by_class[10, m] for m in range(9))


def _is_automorphism(rows, perm):
    return relabel_rows([bit_indices(r) for r in rows], perm) == tuple(rows)


def test_vertex_levels_carry_automorphisms():
    levels = list(_vertex_levels(8, 11))
    for level in levels:
        for rows, (_, gens) in level.items():
            for g in gens:
                assert sorted(g) == list(range(len(rows)))
                assert _is_automorphism(rows, g), (rows, g)
    # every level that is augmented again carries generators; the last none
    assert all(any(gens for _, gens in level.values()) for level in levels[1:-1])
    assert not any(gens for _, gens in levels[-1].values())


def _group_order(n, gens):
    """Order of the permutation group ``gens`` generate, by closure from the identity."""
    seen = {tuple(range(n))}
    todo = list(seen)
    for p in todo:
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


def test_vertex_levels_generate_the_whole_group():
    # the generators of each level that is augmented again generate the whole
    # automorphism group, not a subgroup, and number at most n - 1
    for level in list(_vertex_levels(8, 11))[:-1]:
        for rows, (m, gens) in level.items():
            assert len(gens) < len(rows)
            g = Graph(len(rows), rows)
            assert g.e == m
            assert _group_order(len(rows), gens) == aut_order(g)


def test_planted_non_automorphism_loses_classes(monkeypatch):
    # orbit pruning is only as sound as its generators: a swap of two
    # vertices that is not an automorphism merges orbits that are not
    # isomorphic, and the census loses members
    real = census_module._canonical_rows_autos

    def planted(n, rows, root):
        cert, gens = real(n, rows, root)
        swap = (1, 0, *range(2, n))
        return cert, gens + (swap,)

    monkeypatch.setattr(census_module, "_canonical_rows_autos", planted)
    levels = list(_vertex_levels(7, 10))
    assert any(
        not _is_automorphism(rows, g)
        for level in levels
        for rows, (_, gens) in level.items()
        for g in gens
    )
    strings = _generate_vertex_aug(7, 10)[7, 10]
    assert len(strings) < PINNED_CENSUSES[(7, 10)][0]


def test_deletion_filter_cuts_the_canonical_searches(monkeypatch):
    # orbit pruning alone canonicalises 53,107 children on the walk towards
    # (9,12), which fills every (9, m <= 12); the degree test of the
    # canonical-deletion filter leaves 16,978 of them and its root-cell test
    # 9,770, for 9,761 classes
    real = census_module._canonical_rows_autos
    calls = []

    def counted(n, rows, root):
        calls.append(n)
        return real(n, rows, root)

    monkeypatch.setattr(census_module, "_canonical_rows_autos", counted)
    strings = _generate_vertex_aug(9, 12)[9, 12]
    assert len(calls) == 9_770
    assert (len(strings), census_digest(sorted(strings))) == PINNED_CENSUSES[(9, 12)]


def test_planted_filter_that_rejects_ties_loses_classes(monkeypatch):
    # the filter may reject a child only for a non-cut vertex of strictly
    # lower degree: rejecting ties too drops the new vertex whenever an
    # older one matches it, and the census loses members (all 132 of (7,10))
    reach = census_module.reach

    def planted(rows):
        k = len(rows) - 1
        full = (1 << len(rows)) - 1
        for u in range(k):
            if rows[u].bit_count() <= rows[k].bit_count():
                rest = full & ~(1 << u)
                if reach(rows, 1 << k, rest) == rest:
                    return False
        return True

    monkeypatch.setattr(census_module, "_last_is_min_non_cut", planted)
    strings = _generate_vertex_aug(7, 10)[7, 10]
    assert len(strings) < PINNED_CENSUSES[(7, 10)][0]


def test_planted_cell_filter_that_rejects_its_own_cell_loses_classes(monkeypatch):
    # the root-cell test may reject a child only for a non-cut vertex in a
    # strictly earlier cell: rejecting one in the new vertex's own cell too
    # drops every class whose first qualifying cell holds two non-cut
    # vertices, and the census loses members (all 132 of (7,10))
    reach = census_module.reach

    def planted(rows, colors):
        k = len(rows) - 1
        full = (1 << len(rows)) - 1
        for u in range(k):
            if colors[u] <= colors[k] and rows[u].bit_count() == rows[k].bit_count():
                rest = full & ~(1 << u)
                if reach(rows, 1 << k, rest) == rest:
                    return False
        return True

    monkeypatch.setattr(census_module, "_last_is_first_non_cut", planted)
    strings = _generate_vertex_aug(7, 10)[7, 10]
    assert len(strings) < PINNED_CENSUSES[(7, 10)][0]


@st.composite
def _connected_rows(draw):
    """Rows of a connected graph on 1..9 vertices: a random tree plus extra edges."""
    n = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


# two K4s, each joined to vertex 4: its degree, 2, is the lowest, but it is a
# cut vertex, so it must not reject a degree-3 vertex of either K4
_TWO_K4_ON_A_CUT_VERTEX = [
    0b0000_1110, 0b0000_1101, 0b0000_1011, 0b0001_0111, 0b0010_1000,
    0b1_1101_0000, 0b1_1010_0000, 0b1_0110_0000, 0b0_1110_0000,
]


@given(_connected_rows())
@example(_TWO_K4_ON_A_CUT_VERTEX)
@settings(max_examples=200, deadline=None)
def test_deletion_filter_keeps_every_min_degree_non_cut_vertex(rows):
    # the soundness lemma, apart from the walk and with no canonical search:
    # with v relabelled last, a non-cut v passes the degree test exactly when
    # no other non-cut vertex has lower degree, and both tests exactly when v
    # lies in the first cell of the root partition that holds a non-cut
    # vertex; some non-cut v passes. networkx's articulation points stand in
    # for the filter's reachability and the tuple-sort reference refinement
    # for the root partition, which it computes on the unrelabelled graph.
    nx = pytest.importorskip("networkx")
    n = len(rows)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, v) for u in range(n) for v in bit_indices(rows[u]))
    non_cut = set(range(n)) - set(nx.articulation_points(h))
    low = min(rows[v].bit_count() for v in non_cut)
    nbrs = [bit_indices(r) for r in rows]
    cells = reference_refine(nbrs, n, [0] * n)
    first = min(cells[v] for v in non_cut)
    by_degree, kept = set(), set()
    for v in range(n):
        perm = [w - (w > v) for w in range(n)]
        perm[v] = n - 1
        image = relabel_rows(nbrs, perm)
        if census_module._last_is_min_non_cut(image):
            by_degree.add(v)
            colors, _ = canon._refine([bit_indices(r) for r in image], n, [0] * n)
            if census_module._last_is_first_non_cut(image, colors):
                kept.add(v)
    assert by_degree & non_cut == {v for v in non_cut if rows[v].bit_count() == low}
    assert kept & non_cut == {v for v in non_cut if cells[v] == first}
    assert kept & non_cut


def test_census_matches_graph_atlas():
    # "An Atlas of Graphs" (Read & Wilson) lists every graph on <= 7 vertices
    # and networkx's VF2 matcher shares no code with graphenergy.canon: each
    # connected atlas graph must match exactly one census member and each
    # member exactly one atlas graph
    nx = pytest.importorskip("networkx")

    def degrees(h):
        return tuple(sorted(d for _, d in h.degree()))

    atlas: dict[tuple[int, int], list] = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_connected(h):
            atlas.setdefault((h.number_of_nodes(), h.number_of_edges()), []).append(h)
    classes = [(n, e) for n in range(1, 8) for e in range(n - 1, n + 4)]
    assert len(classes) == 35
    assert sum(len(atlas.get(key, [])) for key in classes) == 459
    for n, e in classes:
        members = [
            nx.from_numpy_array(adjacency_matrix(g))
            for g in enumerate_connected(n, e).members()
        ]
        buckets: dict[tuple[int, ...], list[int]] = {}
        for i, h in enumerate(members):
            buckets.setdefault(degrees(h), []).append(i)
        hits = [0] * len(members)
        for h in atlas.get((n, e), []):
            found = [
                i
                for i in buckets.get(degrees(h), [])
                if nx.is_isomorphic(h, members[i])
            ]
            assert len(found) == 1, (n, e, sorted(h.edges()), found)
            hits[found[0]] += 1
        assert hits == [1] * len(members), (n, e, hits)


def test_trivial_and_empty_classes():
    assert enumerate_connected(1, 0).graphs == ("@",)
    assert len(enumerate_connected(2, 1)) == 1
    assert len(enumerate_connected(4, 2)) == 0  # too few edges to connect
    assert len(enumerate_connected(3, 6)) == 0  # more edges than pairs


def test_envelope_errors_fail_loudly():
    with pytest.raises(ScaleError):
        enumerate_connected(11, 20)
    with pytest.raises(ScaleError):
        enumerate_connected(6, 10)  # e > n+3
    with pytest.raises(ScaleError):
        enumerate_connected(0, 0)


def _assert_canonical_members(strings, n, e):
    for s in strings:
        g = graph6_decode(s)
        assert (g.n, g.e) == (n, e)
        assert g.is_connected()
        assert canonical_label(g) == s


def test_generators_return_exact_parameters():
    # one edge walk towards (5, 6) fills every class of that order up to e = 6
    by_class = _generate_orderly(5, 6)
    assert sorted(by_class) == [(5, m) for m in range(7)]
    assert not any(by_class[5, m] for m in range(4))
    for (n, e), strings in by_class.items():
        _assert_canonical_members(strings, n, e)
    assert [len(by_class[5, e]) for e in (5, 6)] == [KNOWN[(5, 5)], KNOWN[(5, 6)]]
    # a vertex walk towards (5, 6) fills the same classes of that order, and
    # completes every class with members at a level k < 5: those with
    # k - 1 <= m <= k + 1
    by_class = _generate_vertex_aug(5, 6)
    lower = [(1, 0), (2, 1), (3, 2), (3, 3), (4, 3), (4, 4), (4, 5)]
    assert sorted(by_class) == lower + [(5, m) for m in range(7)]
    assert not any(by_class[5, m] for m in range(4))
    for (n, e), strings in by_class.items():
        _assert_canonical_members(strings, n, e)
    assert [len(by_class[5, e]) for e in (5, 6)] == [KNOWN[(5, 5)], KNOWN[(5, 6)]]
    # too few edges to connect: every class up to the requested one is empty
    assert _generate_orderly(5, 3) == {(5, m): [] for m in range(4)}
    assert _generate_vertex_aug(5, 3) == {(5, m): [] for m in range(4)} | {(1, 0): ["@"]}


def test_vertex_walk_completes_every_lower_class():
    # each vertex still to come needs an edge, so level k < 7 of a walk
    # towards (7, 10) holds every connected k-vertex graph with <= k + 3 edges
    by_class = _generate_vertex_aug(7, 10)
    lower = [(k, m) for k in range(1, 7) for m in range(k + 4) if edge_census(k, m)]
    assert len(lower) == 18
    assert sorted(by_class) == lower + [(7, m) for m in range(11)]
    for (n, e), strings in by_class.items():
        assert tuple(sorted(strings)) == edge_census(n, e), (n, e)


def test_determinism_across_runs():
    for gen in (_generate_orderly, _generate_vertex_aug):
        a = gen(6, 8)
        assert a == gen(6, 8)
        _assert_canonical_members(a[6, 8], 6, 8)


def _code(rows, n, perm):
    # the column code of the relabelling that puts vertex perm[i] at i
    return tuple(rows[perm[i]] >> perm[j] & 1 for j in range(n) for i in range(j))


def _relabelled(rows, perm):
    return [
        sum(1 << j for j, p in enumerate(perm) if rows[v] >> p & 1) for v in perm
    ]


def _rows_of(n, mask):
    rows = [0] * n
    for k, (i, j) in enumerate((i, j) for j in range(n) for i in range(j)):
        if mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def test_max_code_matches_brute_force_through_n5():
    # the oracle: the identity's code is the largest over all permutations;
    # each isomorphism class has exactly one max-code labelling
    for n, classes in zip(range(1, 6), (1, 2, 4, 11, 34)):
        perms = list(itertools.permutations(range(n)))
        maximal = 0
        for mask in range(2 ** (n * (n - 1) // 2)):
            rows = _rows_of(n, mask)
            ident = _code(rows, n, range(n))
            want = all(_code(rows, n, p) <= ident for p in perms)
            assert _is_max_code(rows, n) == want, (n, rows)
            maximal += want
        assert maximal == classes, n


def _isolate(rows, v):
    for x in bit_indices(rows[v]):
        rows[x] &= ~(1 << v)
    rows[v] = 0


@st.composite
def _symmetric_rows(draw):
    # planted twin pairs and isolated vertices give automorphisms, so the
    # walk backjumps and skips first-path siblings by orbit
    n = draw(st.integers(6, 7))
    rows = _rows_of(n, draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))
    vertex = st.integers(0, n - 1)
    for u, v, joined in draw(st.lists(st.tuples(vertex, vertex, st.booleans()), max_size=3)):
        if u == v:
            continue
        _isolate(rows, v)
        rows[v] = rows[u]
        for x in bit_indices(rows[v]):
            rows[x] |= 1 << v
        if joined:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    for v in draw(st.lists(vertex, max_size=3)):
        _isolate(rows, v)
    return n, rows


@given(_symmetric_rows())
@settings(max_examples=60, deadline=None)
def test_max_code_matches_brute_force_at_n6_n7(drawn):
    # the max-code labelling and its relabellings by one transposition pass
    # the first-path check far more often than a random labelling
    n, rows = drawn
    best = max(itertools.permutations(range(n)), key=lambda p: _code(rows, n, p))
    top = _relabelled(rows, best)
    assert _code(top, n, range(n)) == _code(rows, n, best)
    labellings = [rows, top]
    for a, b in itertools.combinations(range(n), 2):
        swap = list(range(n))
        swap[a], swap[b] = b, a
        labellings.append(_relabelled(top, swap))
    for r in labellings:
        assert _is_max_code(r, n) == (_code(r, n, range(n)) == _code(top, n, range(n))), r


@pytest.mark.parametrize(
    "rows", [[0] * 10, [0b1110, 1, 1, 1] + [0] * 6], ids=["edgeless-10", "K13-plus-6"]
)
def test_max_code_walk_finishes_on_symmetric_inputs(rows):
    # an unpruned walk visits 10! and 3! * 6! leaves on these
    t0 = time.perf_counter()
    assert _is_max_code(rows, 10)
    assert time.perf_counter() - t0 < 1.0


class TestCache:
    def test_store_then_load_roundtrip(self, tmp_path):
        census = enumerate_connected(6, 9)
        census_cache_store(census, tmp_path)
        loaded = census_cache_load(6, 9, tmp_path)
        assert loaded.graphs == census.graphs
        assert len(loaded) == 20
        assert loaded.generator_version == GENERATOR_VERSION

    def test_load_before_store_is_a_miss(self, tmp_path):
        with pytest.raises(CacheMissError):
            census_cache_load(6, 9, tmp_path)

    def test_truncated_file_is_corrupt(self, tmp_path):
        census = enumerate_connected(6, 9)
        path = census_cache_store(census, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("".join(s + "\n" for s in lines[:-3]))
        with pytest.raises(CorruptCacheError):
            census_cache_load(6, 9, tmp_path)

    def test_tampered_content_fails_digest(self, tmp_path):
        census = enumerate_connected(5, 6)
        path = census_cache_store(census, tmp_path)
        lines = path.read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]  # same count, wrong digest
        path.write_text("".join(s + "\n" for s in lines))
        with pytest.raises(CorruptCacheError):
            census_cache_load(5, 6, tmp_path)

    def test_mismatched_sidecar_parameters(self, tmp_path):
        census = enumerate_connected(5, 6)
        census_cache_store(census, tmp_path)
        g6 = tmp_path / "census_n5_e7.g6"
        meta = tmp_path / "census_n5_e7.meta"
        g6.write_text((tmp_path / "census_n5_e6.g6").read_text())
        meta.write_text((tmp_path / "census_n5_e6.meta").read_text())
        with pytest.raises(CorruptCacheError):
            census_cache_load(5, 7, tmp_path)

    @staticmethod
    def _rewrite(tmp_path, n, e, edit_lines, version=GENERATOR_VERSION):
        """Store (n, e), edit its lines and re-sign the sidecar consistently."""
        path = census_cache_store(enumerate_connected(n, e), tmp_path)
        lines = edit_lines(path.read_text().splitlines())
        path.write_text("".join(s + "\n" for s in lines))
        meta = path.with_suffix(".meta")
        fields = dict(line.split(": ", 1) for line in meta.read_text().splitlines())
        fields.update(count=len(lines), sha256=census_digest(lines), generator_version=version)
        meta.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))

    def test_resigned_edits_load_when_unchanged(self, tmp_path):
        self._rewrite(tmp_path, 6, 9, lambda lines: lines)
        assert census_cache_load(6, 9, tmp_path).graphs == enumerate_connected(6, 9).graphs

    def test_foreign_generator_version_is_corrupt(self, tmp_path):
        self._rewrite(tmp_path, 6, 9, lambda lines: lines, version="bogus/0")
        with pytest.raises(CorruptCacheError, match="bogus/0"):
            census_cache_load(6, 9, tmp_path)

    def test_reordered_file_is_corrupt_despite_digest(self, tmp_path):
        self._rewrite(tmp_path, 6, 9, lambda lines: lines[1:] + lines[:1])
        with pytest.raises(CorruptCacheError, match="sorted"):
            census_cache_load(6, 9, tmp_path)

    def test_duplicated_member_is_corrupt_despite_digest(self, tmp_path):
        self._rewrite(tmp_path, 6, 9, lambda lines: lines[:1] + lines[:-1])
        with pytest.raises(CorruptCacheError, match="sorted"):
            census_cache_load(6, 9, tmp_path)

    def test_tamper_probe_is_an_io_error_not_a_verdict(self, tmp_path, capsys):
        # K3,3 in (6,9) swapped for a (6,8) graph under a foreign generator
        # version: without the load checks `verify` reads it as a failed theorem
        k33 = canonical_label(family_graph("Kb 3 3"))
        swap = enumerate_connected(6, 8).graphs[0]

        def tamper(lines):
            assert k33 in lines
            return [swap if s == k33 else s for s in lines]

        self._rewrite(tmp_path, 6, 9, tamper, version="bogus/0")
        code = main(["--cache-dir", str(tmp_path), "verify", "--check", "tetracyclic"])
        captured = capsys.readouterr()
        assert code == 3
        assert "bogus/0" in captured.err
        assert captured.out == ""

    def test_resigned_swap_is_an_io_error_not_a_verdict(self, tmp_path, capsys):
        # the same swap, kept sorted and signed with the real generator
        # version: only the pinned digest tells it from the census
        k33 = canonical_label(family_graph("Kb 3 3"))
        swap = enumerate_connected(6, 8).graphs[0]
        self._rewrite(tmp_path, 6, 9, lambda lines: sorted(swap if s == k33 else s for s in lines))
        code = main(["--cache-dir", str(tmp_path), "verify", "--check", "tetracyclic"])
        captured = capsys.readouterr()
        assert code == 3
        assert "pinned" in captured.err
        assert captured.out == ""

    def test_resigned_edit_cannot_make_a_false_ranking(self, tmp_path, capsys):
        # the mirror image: the true minimum of (7,10) replaced by a
        # disconnected (7,10)-graph, so `rank` would report another graph
        minimal = canonical_label(family_graph("B 7 10"))
        k5 = canonical_label(Graph.from_edges(7, itertools.combinations(range(5), 2)))

        def tamper(lines):
            assert minimal in lines
            return sorted(k5 if s == minimal else s for s in lines)

        self._rewrite(tmp_path, 7, 10, tamper)
        code = main(["--cache-dir", str(tmp_path), "rank", "7", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert "pinned" in captured.err
        assert captured.out == ""

    def test_unpinned_class_loads_when_its_members_check_out(self, tmp_path):
        assert (7, 7) not in PINNED
        census_cache_store(enumerate_connected(7, 7), tmp_path)
        assert census_cache_load(7, 7, tmp_path).graphs == enumerate_connected(7, 7).graphs

    @staticmethod
    def _off_canonical(s):
        g = graph6_decode(s)
        return next(
            t for perm in itertools.permutations(range(g.n))
            if (t := graph6_encode(g.relabeled(perm))) != s
        )

    @pytest.mark.parametrize(
        "stranger",
        [
            pytest.param(lambda lines: TestCache._off_canonical(lines[0]), id="relabelled"),
            pytest.param(lambda lines: enumerate_connected(7, 6).graphs[0], id="seven-six"),
            pytest.param(lambda lines: canonical_label(family_graph("C4 + C3")),
                         id="disconnected"),
            pytest.param(lambda lines: "F?", id="undecodable"),
        ],
    )
    def test_unpinned_class_rejects_a_resigned_stranger(self, tmp_path, capsys, stranger):
        assert (7, 7) not in PINNED

        def tamper(lines):
            t = stranger(lines)
            assert t not in lines
            return sorted(lines[1:] + [t])

        self._rewrite(tmp_path, 7, 7, tamper)
        code = main(["--cache-dir", str(tmp_path), "enumerate", "7", "7"])
        captured = capsys.readouterr()
        assert code == 3
        assert "census_n7_e7.g6" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "suffix,edit",
        [
            pytest.param(".g6", lambda raw: raw + b"\xff\xfe\n", id="g6-not-utf8"),
            pytest.param(".g6", lambda raw: raw.replace(b"\n", "\u00e9\n".encode(), 1),
                         id="g6-not-ascii"),
            pytest.param(".meta", lambda raw: raw + b"note: \xff\n", id="meta-not-utf8"),
        ],
    )
    def test_undecodable_bytes_are_an_io_error(self, tmp_path, capsys, suffix, edit):
        path = census_cache_store(enumerate_connected(5, 6), tmp_path).with_suffix(suffix)
        path.write_bytes(edit(path.read_bytes()))
        code = main(["--cache-dir", str(tmp_path), "enumerate", "5", "6"])
        captured = capsys.readouterr()
        assert code == 3
        assert "not text" in captured.err
        assert captured.out == ""

    def test_cache_outside_the_envelope_is_a_scale_error(self, tmp_path, capsys):
        c11 = canonical_label(family_graph("C 11"))
        census_cache_store(GraphClassCensus(11, 11, (c11,), "", GENERATOR_VERSION), tmp_path)
        code = main(["--cache-dir", str(tmp_path), "rank", "11", "11"])
        captured = capsys.readouterr()
        assert code == 2
        assert "n <= 10" in captured.err
        assert captured.out == ""
        with pytest.raises(ScaleError):
            census_cache_load(11, 11, tmp_path)

    @pytest.mark.parametrize("again", [False, True], ids=["first", "again"])
    def test_store_cut_before_the_sidecar_leaves_a_usable_cache(
        self, tmp_path, monkeypatch, again
    ):
        census = enumerate_connected(6, 9)
        if again:
            census_cache_store(census, tmp_path)
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".meta"):
                raise OSError("killed before the sidecar")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="sidecar"):
            census_cache_store(dataclasses.replace(census, generated_at="later"), tmp_path)
        monkeypatch.undo()
        assert get_census(6, 9, tmp_path).graphs == census.graphs
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "census_n6_e9.g6", "census_n6_e9.meta"
        ]

    def test_store_cut_mid_write_keeps_the_old_cache(self, tmp_path, monkeypatch):
        census = enumerate_connected(6, 9)
        census_cache_store(census, tmp_path)
        real_write_text = Path.write_text

        def write_text(path, text, **kwargs):
            real_write_text(path, text[: len(text) // 2], **kwargs)
            raise OSError("killed mid-write")

        monkeypatch.setattr(Path, "write_text", write_text)
        with pytest.raises(OSError, match="mid-write"):
            census_cache_store(census, tmp_path)
        monkeypatch.undo()
        assert census_cache_load(6, 9, tmp_path).graphs == census.graphs

    def test_get_census_generates_then_hits_cache(self, tmp_path):
        first = get_census(5, 7, tmp_path)
        assert (tmp_path / "census_n5_e7.g6").exists()
        again = get_census(5, 7, tmp_path)
        assert first.graphs == again.graphs
