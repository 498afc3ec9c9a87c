import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import (
    Graph,
    aut_order,
    canonical_label,
    disjoint_union,
    graph6_decode,
    make_b_graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_s_graph,
    make_star,
)
from graphenergy import canon
from graphenergy import census as census_module
from graphenergy.census import PINNED, _generate_vertex_aug, census_digest, enumerate_connected

from test_graphs import adjacency_matrix, graph_strategy


def _random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


@given(graph_strategy(min_n=1, max_n=9), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_permutation_invariance(g, rnd):
    perm = _random_perm(rnd, g.n)
    assert canonical_label(g) == canonical_label(g.relabeled(perm))


def test_permutation_invariance_seeded_bulk():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        h = g.relabeled(_random_perm(rng, n))
        assert canonical_label(g) == canonical_label(h)


def _random_graph(rng, n, m):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, m))


def test_permutation_invariance_beyond_order_9():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(10, 62)
        g = _random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        h = g.relabeled(_random_perm(rng, n))
        assert canonical_label(g) == canonical_label(h)
        cert, perm, _, _ = canon._canonical_search(h.adj, n)
        assert h.relabeled(perm).adj == cert
        assert cert == canon._canonical_search(g.adj, n)[0]


def test_canonical_image_is_relabelling_of_input():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        cert, perm, _, _ = canon._canonical_search(g.adj, n)
        assert g.relabeled(perm).adj == cert
        assert sorted(Graph(n, cert).degrees()) == sorted(g.degrees())


def test_idempotent_on_canonical_image():
    for g in [make_cycle(5), make_s_graph(7, 9), make_b_graph(8, 10)]:
        s = canonical_label(g)
        assert canonical_label(graph6_decode(s)) == s


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
        ir_equal = canonical_label(g) == canonical_label(h)
        vf2_equal = nx.is_isomorphic(
            nx.from_numpy_array(adjacency_matrix(g)),
            nx.from_numpy_array(adjacency_matrix(h)),
        )
        assert ir_equal == vf2_equal


def test_distinct_forms_for_the_two_4_4_graphs():
    census = enumerate_connected(4, 4)
    assert len(set(census.graphs)) == 2
    wanted = {
        canonical_label(make_cycle(4)),
        canonical_label(make_s_graph(4, 4)),
    }
    assert set(census.graphs) == wanted


def test_cycle_canonical_unique_across_relabelings():
    c5 = make_cycle(5)
    forms = {
        canonical_label(c5.relabeled(perm))
        for perm in itertools.permutations(range(5))
    }
    assert len(forms) == 1


GROUP_CASES = [
    (make_complete(4), 24),
    (make_cycle(5), 10),
    (make_cycle(6), 12),
    (make_complete_bipartite(3, 3), 72),
    (make_star(10), math.factorial(9)),
    (make_s_graph(9, 9), 2 * math.factorial(6)),
]


class TestAutOrder:
    @pytest.mark.parametrize("g,order", GROUP_CASES)
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
            h = nx.from_numpy_array(adjacency_matrix(g))
            assert aut_order(g) == sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


def _cocktail_party(k):
    """K_2k less a perfect matching: 2^k * k! automorphisms."""
    return Graph.from_edges(
        2 * k, [(i, j) for i, j in itertools.combinations(range(2 * k), 2) if j != i + k]
    )


@pytest.mark.parametrize(
    "g,order",
    [
        (make_complete(62), math.factorial(62)),
        (Graph.from_edges(62, []), math.factorial(62)),
        (make_complete_bipartite(20, 42), math.factorial(20) * math.factorial(42)),
        (disjoint_union(make_complete(17), make_complete(17)), 2 * math.factorial(17) ** 2),
        (disjoint_union(make_complete(9), _cocktail_party(5)),
         math.factorial(9) * 2**5 * math.factorial(5)),
    ],
    ids=["K62", "empty62", "K20,42", "2K17", "K9+CP5"],
)
def test_aut_order_closed_forms_on_symmetric_inputs(g, order):
    # large cells that an automorphism-blind search would walk leaf by leaf
    assert aut_order(g) == order
    perm = _random_perm(random.Random(g.n), g.n)
    assert canonical_label(g.relabeled(perm)) == canonical_label(g)


def test_aut_order_of_component_wreath():
    # three triangle components: each contributes |Aut(C3)| = 6, and the
    # components permute freely, so the order is 6^3 * 3!
    g = disjoint_union(disjoint_union(make_cycle(3), make_cycle(3)), make_cycle(3))
    assert aut_order(g) == 6**3 * math.factorial(3)


def reference_refine(nbrs, n, colors):
    """The tuple-sort refinement whose ordered partition ``canon._refine`` keeps."""
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


def _check_every_refine(monkeypatch) -> dict:
    """Route ``_refine`` through the reference; return the colourings each module hands it.

    Both ``canon``'s search and ``census``'s root-cell test, which imports
    ``_refine`` by name, are routed; the result maps each module to its list.
    Each colouring handed over must meet the integer key's contract: colours
    0..k-1, and either one colour or cells whose vertices share a degree.
    """
    real = canon._refine
    given = {canon: [], census_module: []}

    def checked(nbrs, n, colors, seen):
        before = list(colors)
        cell_degrees: dict[int, set[int]] = {}
        for v, c in enumerate(before):
            cell_degrees.setdefault(c, set()).add(len(nbrs[v]))
        assert sorted(cell_degrees) == list(range(len(cell_degrees)))
        assert len(cell_degrees) == 1 or all(len(d) == 1 for d in cell_degrees.values())
        want = reference_refine(nbrs, n, before)
        got, cell = real(nbrs, n, colors)
        assert got == want, before
        sizes = Counter(want)
        first = min((c for c in sizes if sizes[c] > 1), default=None)
        assert cell == (None if first is None else [v for v, c in enumerate(want) if c == first])
        seen.append(before)
        return got, cell

    for module, seen in given.items():
        monkeypatch.setattr(module, "_refine", functools.partial(checked, seen=seen))
    return given


def test_refine_matches_reference_on_pinned_classes(monkeypatch):
    members = {key: enumerate_connected(*key).graphs for key in PINNED}
    given = _check_every_refine(monkeypatch)
    rng = random.Random(23)
    for (n, _), strings in members.items():
        for s in strings:
            h = graph6_decode(s).relabeled(_random_perm(rng, n))
            assert canonical_label(h) == s
    assert len(given[canon]) > sum(len(strings) for strings in members.values())


def test_refine_matches_reference_on_the_vertex_walk(monkeypatch):
    # the walk refines each child's root from its degree-rank colouring, not
    # the uniform one; the checker sees those calls and the searches' own
    given = _check_every_refine(monkeypatch)
    strings = _generate_vertex_aug(7, 10)[7, 10]
    assert (len(strings), census_digest(sorted(strings))) == PINNED[7, 10]
    roots = given[census_module]
    assert len(roots) >= len(strings)
    assert any(len(set(colors)) > 1 for colors in roots)
    assert given[canon]


def _carry_graph(n):
    """Vertices 1 and 2 of degree d = (n - 2) // 2 that a narrow key misorders.

    Vertex 1 has one neighbour of the lowest degree and d - 1 in a clique;
    vertex 2 has d in a cycle, whose colour lies between. Packed in base B,
    vertex 2's count d outweighs vertex 1's lead once d > B + 1.
    """
    d = (n - 2) // 2
    cycle, clique = range(3, 3 + d), range(3 + d, 2 + 2 * d)
    edges = [(0, 1)] + [(1, v) for v in clique] + [(2, v) for v in cycle]
    edges += [(v, 3 + (v - 2) % d) for v in cycle] + list(itertools.combinations(clique, 2))
    return Graph.from_edges(n, edges)  # vertex n - 1 stays isolated when n is odd


@pytest.mark.parametrize("n", [15, 16, 31, 32, 62])
def test_refine_matches_reference_at_packing_widths(monkeypatch, n):
    # b = n.bit_length() grows at 16 and 32; a neighbour count reaches n - 1
    # in K_n, and a random graph of about half density spreads its counts
    rng = random.Random(n)
    regular = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 3)])
    dense = _random_graph(rng, n, n * (n - 1) // 4)
    sparse = _random_graph(rng, n, 2 * n)
    given = _check_every_refine(monkeypatch)
    for g in (regular, dense, sparse):
        h = g.relabeled(_random_perm(rng, n))
        assert canonical_label(g) == canonical_label(h)
    for g in (make_complete(n), make_complete_bipartite(n // 3, n - n // 3), _carry_graph(n)):
        assert canonical_label(g.relabeled(_random_perm(rng, n))) == canonical_label(g)
    assert len(given[canon]) > 2 * (n - 2)


def test_refine_matches_reference_under_aut_order(monkeypatch):
    given = _check_every_refine(monkeypatch)
    for g, order in GROUP_CASES:
        assert aut_order(g) == order
    assert given[canon]
