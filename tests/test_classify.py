import hashlib
import importlib
import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphenergy import (
    ClassKind,
    Graph,
    NotAnEdgeError,
    ScaleError,
    classify,
    delete_edges,
    family_graph,
    is_bipartite,
    is_edge_cut,
    make_b_graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_s_graph,
    make_star,
)
from graphenergy.census import PINNED, enumerate_connected
from graphenergy.classify import _cycles
from graphenergy.graph6 import graph6_decode

from test_graphs import graph_strategy


class TestBipartite:
    def test_family_positives(self):
        assert is_bipartite(make_b_graph(8, 10))
        assert is_bipartite(make_complete_bipartite(3, 3))
        assert is_bipartite(make_cycle(6))

    def test_triangle_witness(self):
        chk = is_bipartite(make_cycle(3))
        assert not chk
        assert len(chk.odd_cycle) == 3

    @given(graph_strategy(min_n=2, max_n=9))
    @settings(max_examples=100, deadline=None)
    def test_witness_is_valid_either_way(self, g):
        chk = is_bipartite(g)
        if chk.bipartite:
            colors = chk.coloring
            for u, v in g.edges():
                assert colors[u] != colors[v]
        else:
            cyc = chk.odd_cycle
            assert len(cyc) % 2 == 1
            assert len(set(cyc)) == len(cyc)
            for i, v in enumerate(cyc):
                assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


def simple_cycles(g):
    """The cycles ``classify`` pairs, as vertex sequences, smallest vertex first."""
    return [path for path, _ in _cycles(g)]


class TestSimpleCycles:
    def test_k4_has_seven(self):
        assert len(simple_cycles(make_complete(4))) == 7

    def test_cycle_graph_has_one(self):
        assert len(simple_cycles(make_cycle(7))) == 1

    def test_tree_has_none(self):
        assert simple_cycles(make_star(6)) == []

    @given(graph_strategy(min_n=1, max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_against_networkx(self, g):
        # the search skips a branch once no neighbour of its start can close
        # it; networkx shares no code with it
        import networkx as nx

        def edges(cycle):
            return sorted(tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1]))

        ours = simple_cycles(g)
        assert all(c[0] == min(c) and c[1] < c[-1] for c in ours)
        theirs = nx.simple_cycles(nx.Graph(list(g.edges())))
        assert sorted(map(edges, ours)) == sorted(map(edges, theirs))


class TestClassify:
    def test_bipartite_graphs_are_class1(self):
        for g in [make_b_graph(7, 9), make_complete_bipartite(2, 5), make_cycle(8)]:
            assert classify(g).kind == ClassKind.CLASS1

    def test_two_triangles_joined_by_path(self):
        g = Graph.from_edges(
            8,
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)],
        )
        label = classify(g)
        assert label.kind == ClassKind.CLASS2
        a, b = label.witness
        assert len(a) % 2 == 1 and len(b) % 2 == 1
        assert (len(a) + len(b)) % 4 == 2
        assert not set(a) & set(b)

    @pytest.mark.parametrize("n", range(6, 11))
    def test_bicyclic_star_family_is_class1(self, n):
        # its two triangles share two vertices, so no disjoint odd pair exists
        assert classify(make_s_graph(n, n + 1)).kind == ClassKind.CLASS1

    def test_bowtie_differs_under_edge_reading(self):
        # two triangles sharing one vertex: edge-disjoint but not vertex-disjoint
        bow = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert classify(bow).kind == ClassKind.CLASS1
        assert classify(bow, disjointness="edge").kind == ClassKind.CLASS2

    def test_length_sum_residue_discriminates(self):
        # disjoint odd pairs only count when the length sum is 2 mod 4:
        # 3 + 7 = 10 qualifies, 3 + 5 = 8 does not
        ring = [(0, 1), (1, 2), (2, 0)]
        seven = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 3)]
        g = Graph.from_edges(10, ring + seven + [(0, 3)])
        assert classify(g).kind == ClassKind.CLASS2
        five = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
        h = Graph.from_edges(8, ring + five + [(0, 3)])
        assert classify(h).kind == ClassKind.CLASS1

    def test_scale_envelope(self, monkeypatch):
        with pytest.raises(ScaleError):
            classify(make_star(13))
        with pytest.raises(ValueError):
            classify(make_cycle(5), disjointness="sideways")
        # K4 has 7 simple cycles and K5 has 37
        classify_mod = importlib.import_module("graphenergy.classify")
        monkeypatch.setattr(classify_mod, "MAX_CLASSIFY_CYCLES", 7)
        assert classify(make_complete(4)).kind == ClassKind.CLASS1
        with pytest.raises(ScaleError, match="at most 7 simple cycles"):
            classify(make_complete(5))

    @given(graph_strategy(min_n=3, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_label_is_isomorphism_invariant(self, g):
        import random as _random

        perm = list(range(g.n))
        seed = sum((i + 1) * row for i, row in enumerate(g.adj))
        _random.Random(seed).shuffle(perm)
        assert classify(g).kind == classify(g.relabeled(perm)).kind

    def test_partition_stable_across_runs(self):
        census = enumerate_connected(6, 7)
        runs = []
        for _ in range(2):
            counts = {ClassKind.CLASS1: 0, ClassKind.CLASS2: 0}
            for s in census.graphs:
                counts[classify(graph6_decode(s)).kind] += 1
            runs.append(counts)
        assert runs[0] == runs[1]
        assert runs[0][ClassKind.CLASS2] == 1


def _pairwise_classify(g, disjointness):
    """The reference: every two odd cycles in enumeration order, first match wins."""
    def cycle_edges(path):
        return frozenset(
            (min(u, v), max(u, v)) for u, v in zip(path, path[1:] + path[:1])
        )

    odd = [c for c in simple_cycles(g) if len(c) % 2 == 1]
    for i in range(len(odd)):
        for j in range(i + 1, len(odd)):
            if (len(odd[i]) + len(odd[j])) % 4 != 2:
                continue
            if disjointness == "vertex":
                if set(odd[i]) & set(odd[j]):
                    continue
            elif cycle_edges(odd[i]) & cycle_edges(odd[j]):
                continue
            return ClassKind.CLASS2, (odd[i], odd[j])
    return ClassKind.CLASS1, None


@st.composite
def sparse_graphs(draw, max_n=10, max_excess=6):
    # at most n + max_excess edges keeps the reference's pairing small
    n = draw(st.integers(3, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n + max_excess))
    return Graph.from_edges(n, edges)


# sha256 over "graph6 reading kind witness" lines for every member of the 19
# pinned classes under both readings, taken from the pairwise loop it replaced
PINNED_LABELS_SHA256 = "8f84ba739098efbaca73455e4740da036535bb1c374333301b12c2c5ae5c9a2b"


class TestKeyPairing:
    @given(sparse_graphs())
    # K5's twelve 5-cycles share one vertex mask: the witness is the first of them
    @example(family_graph("K5 + C5"))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_pairwise_reference(self, g):
        for reading in ("vertex", "edge"):
            label = classify(g, disjointness=reading)
            assert (label.kind, label.witness) == _pairwise_classify(g, reading)

    def test_pinned_classes_keep_label_and_witness(self):
        h = hashlib.sha256()
        for n, e in sorted(PINNED):
            for s in enumerate_connected(n, e).graphs:
                g = graph6_decode(s)
                for reading in ("vertex", "edge"):
                    label = classify(g, disjointness=reading)
                    h.update(f"{s} {reading} {label.kind.value} {label.witness}\n".encode())
        assert h.hexdigest() == PINNED_LABELS_SHA256

    @pytest.mark.parametrize("text", ["I?~vfbo~w", "K?B~vrw}Fo^~"])
    def test_apex_over_complete_bipartite_is_fast(self, text):
        # a vertex joined to all of K4,5 (4,580 odd cycles) or K5,6 (137,430),
        # every one through the apex: pairing the cycles themselves is quadratic
        g = graph6_decode(text)
        start = time.process_time()
        assert classify(g).kind == ClassKind.CLASS1
        assert time.process_time() - start < 1.0


def bridges(g):
    """The edges that ``is_edge_cut`` finds to be a cut on their own, sorted."""
    return sorted(edge for edge in g.edges() if is_edge_cut(g, [edge]))


class TestBridges:
    def test_tree_all_edges(self):
        tree = make_star(6)
        assert bridges(tree) == sorted(tree.edges())

    def test_cycle_none(self):
        assert bridges(make_cycle(5)) == []

    def test_two_triangles_one_bridge(self):
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        )
        assert bridges(g) == [(0, 3)]

    @given(graph_strategy(min_n=2, max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_against_removal_oracle(self, g):
        # an edge is a bridge iff deleting it increases the component count
        expected = sorted(
            (u, v)
            for u, v in g.edges()
            if delete_edges(g, [(u, v)]).component_count() > g.component_count()
        )
        assert bridges(g) == expected

    def test_every_bridge_is_a_singleton_edge_cut(self):
        # over the whole (6, 7) census: networkx's bridges, and no other edge
        nx = pytest.importorskip("networkx")
        for s in enumerate_connected(6, 7).graphs:
            g = graph6_decode(s)
            theirs = sorted(
                (min(u, v), max(u, v)) for u, v in nx.bridges(nx.Graph(g.edges()))
            )
            assert bridges(g) == theirs


class TestEdgeCut:
    def test_star_cut_isolates_vertex(self):
        g = make_complete(4)
        assert is_edge_cut(g, [(0, 1), (0, 2), (0, 3)])

    def test_single_cycle_edge_is_not_a_cut(self):
        assert not is_edge_cut(make_cycle(4), [(0, 1)])

    def test_two_edges_of_c4_iff_separating(self):
        # oracle: recompute component counts for every 2-subset
        g = make_cycle(4)
        for pair in itertools.combinations(g.edges(), 2):
            expected = delete_edges(g, pair).component_count() > g.component_count()
            assert is_edge_cut(g, list(pair)) == expected

    def test_absent_edge_rejected(self):
        with pytest.raises(NotAnEdgeError):
            is_edge_cut(make_cycle(4), [(0, 2)])

    def test_duplicated_edge_rejected(self):
        # the second deletion of an edge finds no edge
        for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 0)]):
            with pytest.raises(NotAnEdgeError):
                is_edge_cut(make_cycle(4), edges)

    def test_empty_set_is_not_a_cut(self):
        assert not is_edge_cut(make_cycle(4), [])

    def test_all_edges_form_a_cut(self):
        g = make_complete(4)
        assert is_edge_cut(g, g.edges())

    @given(graph_strategy(min_n=2, max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_single_edge_cut_iff_networkx_bridge(self, g):
        # networkx's bridge search shares no code with the component count
        nx = pytest.importorskip("networkx")
        theirs = {(min(u, v), max(u, v)) for u, v in nx.bridges(nx.Graph(g.edges()))}
        for edge in g.edges():
            assert is_edge_cut(g, [edge]) == (edge in theirs)
