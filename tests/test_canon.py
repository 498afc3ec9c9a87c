import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import (
    Graph,
    aut_order,
    canonical_label,
    canonicalize,
    graph6_decode,
    make_b_graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_s_graph,
    make_star,
)
from graphenergy.census import enumerate_connected

from test_graphs import graph_strategy


def _random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


@given(graph_strategy(min_n=1, max_n=9), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_permutation_invariance(g, rnd):
    perm = _random_perm(rnd, g.n)
    assert canonical_label(g).graph6 == canonical_label(g.relabeled(perm)).graph6


def test_permutation_invariance_seeded_bulk():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        h = g.relabeled(_random_perm(rng, n))
        assert canonical_label(g).graph6 == canonical_label(h).graph6


def test_canonical_image_is_relabelling_of_input():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        image, perm = canonicalize(g)
        assert g.relabeled(perm).adj == image.adj
        assert sorted(image.degrees()) == sorted(g.degrees())


def test_idempotent_on_canonical_image():
    for g in [make_cycle(5), make_s_graph(7, 9), make_b_graph(8, 10)]:
        s = canonical_label(g).graph6
        assert canonical_label(graph6_decode(s)).graph6 == s


def test_relation_agrees_with_exhaustive_form():
    # networkx's VF2 matcher shares no code with the refinement labeller; the
    # two must induce the same isomorphism relation
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    graphs = []
    for _ in range(30):
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        graphs.append(
            Graph.from_edges(6, rng.sample(pairs, rng.randint(0, len(pairs))))
        )
    for g, h in itertools.combinations(graphs, 2):
        ir_equal = canonical_label(g).graph6 == canonical_label(h).graph6
        vf2_equal = nx.is_isomorphic(
            nx.from_numpy_array(g.adjacency_matrix()),
            nx.from_numpy_array(h.adjacency_matrix()),
        )
        assert ir_equal == vf2_equal


def test_distinct_forms_for_the_two_4_4_graphs():
    census = enumerate_connected(4, 4)
    assert len(set(census.graphs)) == 2
    wanted = {
        canonical_label(make_cycle(4)).graph6,
        canonical_label(make_s_graph(4, 4)).graph6,
    }
    assert set(census.graphs) == wanted


def test_cycle_canonical_unique_across_relabelings():
    c5 = make_cycle(5)
    forms = {
        canonical_label(c5.relabeled(perm)).graph6
        for perm in itertools.permutations(range(5))
    }
    assert len(forms) == 1


class TestAutOrder:
    @pytest.mark.parametrize(
        "g,order",
        [
            (make_complete(4), 24),
            (make_cycle(5), 10),
            (make_cycle(6), 12),
            (make_complete_bipartite(3, 3), 72),
            (make_star(10), math.factorial(9)),
            (make_s_graph(9, 9), 2 * math.factorial(6)),
        ],
    )
    def test_known_groups(self, g, order):
        assert aut_order(g) == order

    def test_against_brute_force(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(2, 7)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            h = nx.from_numpy_array(g.adjacency_matrix())
            assert aut_order(g) == sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


def test_aut_order_of_component_wreath():
    # three triangle components: each contributes |Aut(C3)| = 6, and the
    # components permute freely, so the order is 6^3 * 3!
    from graphenergy import disjoint_union

    g = disjoint_union(disjoint_union(make_cycle(3), make_cycle(3)), make_cycle(3))
    assert aut_order(g) == 6**3 * math.factorial(3)
