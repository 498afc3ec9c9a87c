import itertools
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import (
    FamilyParseError,
    Graph,
    InvalidFamilyError,
    NotAnEdgeError,
    ScaleError,
    canonical_label,
    char_poly,
    delete_edges,
    disjoint_union,
    energy,
    family_graph,
    graph6_decode,
    make_b_graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_s_graph,
    make_star,
    make_wheel,
    spectra,
)
import graphenergy
from graphenergy.classify import is_bipartite
from graphenergy.graphs import FAMILIES


def graph_strategy(min_n=2, max_n=9):
    def build(n, mask):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return Graph.from_edges(
            n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        )

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(
            build, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
        )
    )


# Brute-force oracles that the other test files import alongside graph_strategy


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The float64 0/1 adjacency matrix."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def count_triangles(g: Graph) -> int:
    """Triangles by testing every vertex triple."""
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    )


def poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Exact product; the characteristic polynomial of a disjoint union."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


class TestGraphValue:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        # an odd degree sum
        with pytest.raises(ValueError, match="not symmetric"):
            Graph(3, (0b110, 0b001, 0b000))

    @pytest.mark.parametrize("rows", [
        (0b110, 0b000, 0b000),  # above-diagonal bits without mirrors, even degree sum
        (0b00, 0b01),  # a below-diagonal bit without its mirror
        (0b010, 0b000, 0b001),  # one of each: the counts agree, the mirrors do not
    ])
    def test_rejects_asymmetry_in_either_direction(self, rows):
        with pytest.raises(ValueError, match="not symmetric"):
            Graph(len(rows), rows)

    def test_vertex_cap(self):
        with pytest.raises(ScaleError):
            Graph(63, tuple([0] * 63))

    def test_immutable(self):
        g = make_cycle(4)
        with pytest.raises(Exception):
            g.n = 5

    def test_edges_and_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 1)])  # duplicate collapses
        assert g.e == 2
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degrees() == (1, 2, 1, 0)

    @given(graph_strategy())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(g.degrees()) == 2 * g.e


class TestSGraph:
    def test_claw(self):
        g = make_s_graph(4, 3)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3)]

    def test_triangle_plus_pendant_energy(self):
        # five-decimal reference value
        assert energy(make_s_graph(4, 4)) == pytest.approx(4.96239, abs=1e-5)

    def test_s_8_11_charpoly(self):
        got = char_poly(make_s_graph(8, 11))
        assert got == (1, 0, -11, -8, 8, 0, 0, 0, 0)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_triangle_count_matches_excess(self, n):
        for e in range(n - 1, 2 * n - 2):
            g = make_s_graph(n, e)
            assert g.is_connected()
            assert g.e == e
            assert count_triangles(g) == e - n + 1

    @pytest.mark.parametrize(
        "n,e", [(2, 2), (3, 1), (3, 4), (5, 3), (5, 8), (6, 10)]
    )
    def test_bad_parameters(self, n, e):
        with pytest.raises(InvalidFamilyError) as err:
            make_s_graph(n, e)
        assert "requires" in str(err.value)


class TestBGraph:
    def test_reference_energies(self):
        assert energy(make_b_graph(7, 9)) == pytest.approx(7.21110, abs=1e-5)
        assert energy(make_b_graph(9, 11)) == pytest.approx(8.46834, abs=1e-5)

    def test_double_star(self):
        g = make_b_graph(6, 5)
        assert g.e == 5
        assert is_bipartite(g)
        assert g.degree(1) == 1

    @pytest.mark.parametrize("n", range(3, 12))
    def test_always_bipartite_and_connected(self, n):
        for e in range(n - 1, 2 * (n - 2) + 1):
            g = make_b_graph(n, e)
            assert g.e == e
            assert g.is_connected()
            assert is_bipartite(g)

    def test_bad_parameters(self):
        with pytest.raises(InvalidFamilyError):
            make_b_graph(6, 9)


class TestNamedFamilies:
    def test_complete_energy(self):
        assert energy(make_complete(4)) == pytest.approx(6.0, abs=1e-9)

    def test_cycle_energy(self):
        assert energy(make_cycle(3)) == pytest.approx(4.0, abs=1e-9)
        assert energy(make_cycle(4)) == pytest.approx(4.0, abs=1e-9)

    def test_wheel(self):
        g = make_wheel(5)
        assert (g.n, g.e) == (5, 8)
        assert g.degree(0) == 4

    def test_complete_bipartite(self):
        g = make_complete_bipartite(3, 3)
        assert (g.n, g.e) == (6, 9)
        assert is_bipartite(g)

    def test_star(self):
        g = make_star(7)
        assert g.degrees() == (6,) + (1,) * 6

    def test_connectivity_of_all_single_component_families(self):
        for g in [
            make_complete(5),
            make_cycle(6),
            make_wheel(6),
            make_star(8),
            make_complete_bipartite(2, 5),
        ]:
            assert g.is_connected()
            assert sum(g.degrees()) == 2 * g.e

    def test_family_graph_validates(self):
        with pytest.raises(InvalidFamilyError, match=re.escape("C(2): requires k >= 3")):
            family_graph("C 2")
        with pytest.raises(InvalidFamilyError, match=re.escape("W(3): requires k >= 4")):
            family_graph("W 3")


class TestDisjointUnion:
    def test_two_triangles(self):
        u = disjoint_union(make_cycle(3), make_cycle(3))
        assert (u.n, u.e) == (6, 6)
        assert u.component_count() == 2

    def test_charpoly_multiplies(self):
        g, h = make_s_graph(5, 5), make_cycle(3)
        u = disjoint_union(g, h)
        assert char_poly(u) == poly_mul(char_poly(g), char_poly(h))

    def test_energy_additive_seeded(self):
        # eigenvalue multiset of a union is the union of multisets
        rng = random.Random(42)
        for _ in range(25):
            n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
            g = _random_graph(rng, n1)
            h = _random_graph(rng, n2)
            u = disjoint_union(g, h)
            assert energy(u) == pytest.approx(energy(g) + energy(h), abs=1e-9)
            sg, sh, su = spectra([g, h, u])
            merged = sorted(sg.eigenvalues + sh.eigenvalues)
            assert merged == pytest.approx(sorted(su.eigenvalues), abs=1e-9)

    def test_associative_up_to_isomorphism(self):
        a, b, c = make_cycle(3), make_star(4), make_complete(4)
        left = disjoint_union(disjoint_union(a, b), c)
        right = disjoint_union(a, disjoint_union(b, c))
        assert canonical_label(left) == canonical_label(right)

    def test_overflow(self):
        with pytest.raises(ScaleError):
            disjoint_union(make_star(40), make_star(40))


def _random_graph(rng, n, p=0.5):
    return Graph.from_edges(
        n,
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


class TestDeleteEdges:
    def test_k4_minus_edge(self):
        g = delete_edges(make_complete(4), [(0, 1)])
        assert (g.n, g.e) == (4, 5)

    def test_identity(self):
        g = make_cycle(5)
        assert delete_edges(g, []).adj == g.adj

    def test_opposite_edges_of_c4(self):
        # remaining graph is two disjoint edges: eigenvalues +/-1 twice
        g = delete_edges(make_cycle(4), [(0, 1), (2, 3)])
        assert sorted(spectra([g])[0].eigenvalues) == pytest.approx(
            [-1, -1, 1, 1], abs=1e-9
        )
        assert energy(g) == pytest.approx(4.0, abs=1e-9)

    def test_absent_edge(self):
        with pytest.raises(NotAnEdgeError):
            delete_edges(make_cycle(4), [(0, 2)])


ACCEPTED = [

    ("K4", 4, 6),
    ("K 4", 4, 6),
    ("S 7 7", 7, 7),
    ("S7,7", 7, 7),
    ("B 7 9", 7, 9),
    ("C5", 5, 5),
    ("W5", 5, 8),
    ("Kb 3 3", 6, 9),
    ("K3,3", 6, 9),
    ("Star 5", 5, 4),
    ("C3 + C3", 6, 6),
    ("S 5 5 + C3", 8, 8),
]


class TestFamilyParsing:
    @pytest.mark.parametrize("text,n,e", ACCEPTED)
    def test_accepted(self, text, n, e):
        g = family_graph(text)
        assert (g.n, g.e) == (n, e)

    def test_accepted_cases_cover_every_family(self, monkeypatch):
        used = set()
        for key, make in list(FAMILIES.items()):
            monkeypatch.setitem(
                FAMILIES, key, lambda *p, key=key, make=make: used.add(key) or make(*p)
            )
        for text, _, _ in ACCEPTED:
            family_graph(text)
        assert used == set(FAMILIES)

    @pytest.mark.parametrize("text", ["", "Q 3", "K", "S 7", "C~", "5 5", "S 1 2 3"])
    def test_rejected(self, text):
        with pytest.raises(FamilyParseError):
            family_graph(text)

    def test_every_term_is_parsed_before_any_is_built(self):
        # "W 3" alone is an InvalidFamilyError; the unparsable term wins
        with pytest.raises(FamilyParseError, match="unknown family 'Q'"):
            family_graph("W 3 + Q 3")

    def test_union_builds_disjoint_union(self):
        g = family_graph("S 5 5 + C3")
        assert g == disjoint_union(make_s_graph(5, 5), make_cycle(3))

    def test_oversized_family_fails_before_building_edges(self):
        t0 = time.perf_counter()
        with pytest.raises(ScaleError, match="vertex count 3000000 outside 1..62"):
            family_graph("Star 3000000")
        assert time.perf_counter() - t0 < 1.0


def test_wheel_energy_reference():
    # golden value sqrt(5)+... : spectrum of hub+C4 is {1+sqrt(5), 0, 0, -2, 1-sqrt(5)}
    expect = (1 + math.sqrt(5)) + 2 + (math.sqrt(5) - 1)
    assert energy(make_wheel(5)) == pytest.approx(expect, abs=1e-9)


def test_public_names_resolve_once():
    assert len(graphenergy.__all__) == len(set(graphenergy.__all__))
    for name in graphenergy.__all__:
        assert getattr(graphenergy, name) is not None, name
    # polynomials are tuples, labels strings, and every order error a
    # ScaleError; what only tests called is gone or lives in the tests
    for gone in ("CharPoly", "BCoeffs", "CanonicalForm", "SizeOverflowError",
                 "bridges", "simple_cycles", "energy_coulson", "poly_mul",
                 "count_triangles", "canonicalize"):
        assert gone not in graphenergy.__all__
        assert not hasattr(graphenergy, gone)
    assert not hasattr(Graph, "adjacency_matrix")


def test_every_order_above_62_raises_scale_error(capsys):
    from graphenergy.cli import main

    with pytest.raises(ScaleError, match="multi-byte graph6 sizes exceed the 62-vertex limit"):
        graph6_decode("~??~" + "?" * ((63 * 62 // 2 + 5) // 6))  # a 63-vertex string
    with pytest.raises(ScaleError, match=re.escape("vertex count 63 outside 1..62")):
        Graph.from_edges(63, [])
    with pytest.raises(ScaleError, match="disjoint union needs 80 vertices; limit is 62"):
        disjoint_union(make_star(40), make_star(40))
    with pytest.raises(ScaleError, match=re.escape("vertex count 63 outside 1..62")):
        family_graph("Star 63")
    assert main(["energy", "--family", "Star 63"]) == 2
    assert "vertex count 63 outside 1..62" in capsys.readouterr().err
