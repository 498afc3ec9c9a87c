import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphenergy import (
    Graph,
    GraphEnergyError,
    InvalidFamilyError,
    QuadratureAccuracyError,
    b_coeffs,
    char_poly,
    char_polys,
    closed_form_charpoly,
    disjoint_union,
    energy,
    energy_coulsons,
    family_graph,
    graph6_decode,
    make_b_graph,
    make_complete,
    make_cycle,
    make_s_graph,
    spectra,
)
import graphenergy.spectral as spectral_mod
from graphenergy.census import PINNED, enumerate_connected
from graphenergy.classify import is_bipartite

from test_graphs import adjacency_matrix, count_triangles, graph_strategy, poly_mul


def _poly_from_roots(roots):
    # exact expansion of prod (x - r) over integer roots; spectrum oracle
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


class TestCharPoly:
    def test_k4_from_spectrum_oracle(self):
        # complete-graph spectrum: n-1 once, -1 with multiplicity n-1
        assert char_poly(make_complete(4)) == _poly_from_roots([3, -1, -1, -1])

    def test_edgeless(self):
        g = Graph(6, (0,) * 6)
        assert char_poly(g) == (1, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_unicyclic_star_family_closed_form(self, n):
        assert char_poly(make_s_graph(n, n)) == closed_form_charpoly(n, n)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_tricyclic_star_family_closed_form(self, n):
        assert char_poly(make_s_graph(n, n + 2)) == closed_form_charpoly(
            n, n + 2
        )

    @given(graph_strategy(min_n=2, max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_low_coefficient_identities(self, g):
        a = char_poly(g)
        assert a[0] == 1
        assert a[1] == 0
        assert a[2] == -g.e
        if g.n >= 3:
            assert a[3] == -2 * count_triangles(g)

    def test_union_multiplicativity_exact(self):
        rng = random.Random(2024)
        for _ in range(40):
            g = _rand(rng, rng.randint(2, 6))
            h = _rand(rng, rng.randint(2, 6))
            u = disjoint_union(g, h)
            assert char_poly(u) == poly_mul(char_poly(g), char_poly(h))


# every census class the checks rank or count, the 9,290 pinned graphs among
# them; largest e first, so that a cold memo makes one walk, towards (9,12)
_BATCH_CLASSES = sorted(
    set(PINNED)
    | {(n, n + k) for n in range(4, 9) for k in (1, 2, 3) if n + k <= n * (n - 1) // 2},
    reverse=True,
)


def char_poly_reference(g):
    """The recurrence over Python integers, one graph at a time; exact at any order."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    # A is 0/1, so A*M reduces to summing neighbour rows.
    m = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    coeffs = [1, -sum(m[i][i] for i in range(n))]
    for k in range(2, n + 1):
        ck = coeffs[-1]
        for i in range(n):
            m[i][i] += ck
        nxt = []
        for i in range(n):
            row = [0] * n
            for u in nbrs[i]:
                mu = m[u]
                for j in range(n):
                    row[j] += mu[j]
            nxt.append(row)
        m = nxt
        tr = sum(m[i][i] for i in range(n))
        assert tr % k == 0, "the recurrence lost exactness"
        coeffs.append(-(tr // k))
    return tuple(coeffs)


def _no_fallback(a):
    raise AssertionError("the float64 route was expected")


@pytest.fixture
def fallback_calls(monkeypatch):
    """Orders of the graphs that take the modular route."""
    calls = []
    modular = spectral_mod._modular_char_poly
    monkeypatch.setattr(
        spectral_mod, "_modular_char_poly", lambda a: calls.append(len(a)) or modular(a)
    )
    return calls


def _sparse_connected(rng, n, extra):
    # random spanning tree plus ``extra`` chords
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, edges)


def _benchmark_sparse(rng, n):
    """A graph as the energy-report benchmark draws it: max(n + n // 4, n (n - 1) // 16) edges.

    The same random recursive tree and chords, drawn in the same order, as the
    benchmark's generator. About one pair in eight is an edge at n = 62, where
    the coefficients reach about 71 bits; from about n = 48 on, such a graph
    fails the float64 certificate and takes the modular route.
    """
    return _sparse_connected(rng, n, max(n + n // 4, n * (n - 1) // 16) - (n - 1))


def _complete_poly(n):
    # K_n: n - 1 once, -1 with multiplicity n - 1
    return _poly_from_roots([n - 1] + [-1] * (n - 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBatchedCharPoly:
    @pytest.mark.parametrize("n,e", _BATCH_CLASSES)
    def test_int64_batch_equals_python_recurrence(self, n, e, monkeypatch):
        graphs = [graph6_decode(s) for s in enumerate_connected(n, e).graphs]
        assert graphs
        want = [char_poly_reference(g) for g in graphs]
        monkeypatch.setattr(spectral_mod, "_modular_char_poly", _no_fallback)
        got = char_polys(graphs)
        assert got == want
        assert all(type(c) is int for p in got for c in p)

    def test_guard_boundary_on_complete_graphs(self, fallback_calls):
        # K45 passes the certificate and stays on the float64 stack; K46 is past it
        for n in (12, 45, 46, 62):
            assert char_poly(make_complete(n)) == _complete_poly(n)
        assert fallback_calls == [46, 62]

    def test_complete_bipartite_past_the_bound(self, fallback_calls):
        # K31,31: eigenvalues 31 and -31 once, 0 sixty times; it passes the
        # certificate, and the modular route, run on its own, agrees
        g = family_graph("Kb 31 31")
        want = _poly_from_roots([31, -31] + [0] * 60)
        assert char_poly(g) == want
        assert fallback_calls == []
        assert spectral_mod._modular_char_poly(spectral_mod._adjacency_stack([g])[0]) == want
        assert fallback_calls == [62]

    def test_sparse_large_graphs_fall_back_and_match_sympy(self, fallback_calls):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(40)
        g51, g62 = _benchmark_sparse(rng, 51), _benchmark_sparse(rng, 62)
        got = [char_poly(g51), char_poly(g62)]
        assert fallback_calls == [51, 62]
        x = sympy.Symbol("x")
        for g, p in zip((g51, g62), got):
            want = sympy.Matrix(adjacency_matrix(g).astype(int)).charpoly(x).all_coeffs()
            assert p == tuple(int(c) for c in want)

    def test_mixed_orders_in_input_order(self, fallback_calls):
        # 814 graphs cross several chunks of one order; in the same call the
        # sparse n = 20 and n = 62 graphs stay on the float64 stack, and the
        # denser n = 62 graph and K46 take the modular route, the first from
        # the same chunk as the sparse n = 62 graph
        rng = random.Random(11)
        graphs = [graph6_decode(s) for s in enumerate_connected(8, 11).graphs]
        graphs += [make_complete(4), make_cycle(5), make_complete(46)]
        graphs += [_sparse_connected(rng, n, 3) for n in (20, 62, 20)]
        graphs.append(_benchmark_sparse(rng, 62))
        rng.shuffle(graphs)
        got_polys = char_polys(graphs)
        assert sorted(fallback_calls) == [46, 62]
        got_spectra = spectra(graphs)
        assert got_polys == [char_poly(g) for g in graphs]
        assert got_spectra == [spectra([g])[0] for g in graphs]
        assert [s.charpoly for s in got_spectra] == got_polys
        assert char_polys([]) == [] and spectra([]) == []

    def test_polynomials_are_tuples_of_python_ints_on_both_routes(self, fallback_calls):
        # a member of (9,12) takes the float64 stack, K46 the modular route
        g9 = graph6_decode(enumerate_connected(9, 12).graphs[0])
        g46 = make_complete(46)
        for g in (g9, g46):
            for p in (char_poly(g), char_polys([g])[0], spectra([g])[0].charpoly,
                      b_coeffs(char_poly(g)), poly_mul(char_poly(g), char_poly(g))):
                assert type(p) is tuple and all(type(c) is int for c in p)
        assert set(fallback_calls) == {46}  # (9,12) stayed on float64
        p = closed_form_charpoly(9, 12)
        assert type(p) is tuple and all(type(c) is int for c in p)

    def test_primes_are_prime_and_cover_order_62(self):
        sympy = pytest.importorskip("sympy")
        primes = spectral_mod._PRIMES
        assert all(sympy.isprime(p) and 62 < p < 2**44 for p in primes)
        # every coefficient of a 62-vertex graph fits below the product of all
        # primes but the spare, with its sign
        bound = 2 * max(math.comb(62, k) * 61**k for k in range(63))
        assert math.prod(primes[:-1]) > bound

    @pytest.mark.parametrize("prime", [0, -1])
    def test_a_corrupted_residue_fails_closed(self, monkeypatch, prime):
        # one residue of c_5, modulo a reconstruction prime or the spare, off by one
        residues = spectral_mod._char_poly_residues

        def corrupt(a, primes):
            out = residues(a, primes)
            out[prime][5] = (out[prime][5] + 1) % primes[prime]
            return out

        monkeypatch.setattr(spectral_mod, "_char_poly_residues", corrupt)
        with pytest.raises(GraphEnergyError, match="spare prime"):
            char_poly(make_complete(46))

    def test_residues_agreeing_on_a_wrong_c2_fail_closed(self, monkeypatch):
        # c_2 shifted by one modulo every prime: the spare agrees, c_2 = -e does not
        residues = spectral_mod._char_poly_residues

        def shifted(a, primes):
            out = residues(a, primes)
            for row, p in zip(out, primes):
                row[2] = (row[2] + 1) % p
            return out

        monkeypatch.setattr(spectral_mod, "_char_poly_residues", shifted)
        with pytest.raises(GraphEnergyError, match="edge-count identity"):
            char_poly(make_complete(46))

    def test_benchmark_sparse_graphs_and_k62_within_a_second(self, fallback_calls):
        # the 12 sparse graphs, n = 20..62, that the energy-report benchmark
        # adds for seed 1: those up to n = 43 pass the certificate, the five
        # from n = 47 on and K62 fail it and take the modular route
        rng = random.Random(1)
        graphs = [_benchmark_sparse(rng, 20 + round(i * 42 / 11)) for i in range(12)]
        start = time.perf_counter()
        got = char_polys(graphs + [make_complete(62)])
        elapsed = time.perf_counter() - start
        assert sorted(fallback_calls) == [47, 51, 54, 58, 62, 62]
        assert got[:-1] == [char_poly_reference(g) for g in graphs]
        assert got[-1] == _complete_poly(62)
        assert elapsed < 1.0, f"took {elapsed:.2f} s"

    def test_float_stack_on_both_sides_of_the_certificate(self, fallback_calls):
        # K40..K62 and K31,31 in one call: K40..K45 and K31,31 stay on the
        # float64 stack, K46..K62 take the modular route
        graphs = [make_complete(n) for n in range(40, 63)] + [family_graph("Kb 31 31")]
        got = char_polys(graphs)
        assert got[:-1] == [_complete_poly(n) for n in range(40, 63)]
        assert got[-1] == _poly_from_roots([31, -31] + [0] * 60)
        assert sorted(fallback_calls) == list(range(46, 63))

    @given(st.builds(
        lambda n, p, seed: _rand(random.Random(seed), n, p),
        st.integers(2, 30), st.floats(0, 1), st.integers(0, 2**32),
    ))
    @example(make_complete(30))
    @settings(max_examples=30, deadline=None)
    def test_float_stack_equals_python_recurrence_up_to_order_30(self, g):
        # densities from empty to complete, every one on the float64 stack
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral_mod, "_modular_char_poly", _no_fallback)
            assert char_polys([g]) == [char_poly_reference(g)]

    def test_without_the_certificate_k62_loses_exactness(self, monkeypatch):
        # K62 on the float64 stack: its traces pass 2^53, and a wrong one
        # fails the exact-division check
        monkeypatch.setattr(spectral_mod, "_FLOAT_EXACT", math.inf)
        with pytest.raises(GraphEnergyError, match="lost exactness"):
            char_poly(make_complete(62))


def _rand(rng, n, p=0.5):
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


class TestBCoeffs:
    def test_b2_equals_edge_count_on_census(self):
        for s in enumerate_connected(6, 8).graphs:
            g = graph6_decode(s)
            assert b_coeffs(char_poly(g))[2] == g.e

    def test_b3_of_k4(self):
        assert b_coeffs(char_poly(make_complete(4)))[3] == 8

    @pytest.mark.parametrize("n", range(7, 13))
    def test_b4_of_tetracyclic_star_family(self, n):
        vals = b_coeffs(char_poly(make_s_graph(n, n + 3)))
        assert vals[4] == 4 * n - 24
        assert vals[4] != 4 * n - 18

    def test_b0_is_one_and_length_matches(self):
        p = char_poly(make_cycle(6))
        b = b_coeffs(p)
        assert b[0] == 1
        assert len(b) == len(p)


class TestSpectrum:
    def test_triangle(self):
        s = spectra([make_cycle(3)])[0]
        assert s.eigenvalues == pytest.approx((2, -1, -1), abs=1e-9)
        assert s.energy == pytest.approx(4.0, abs=1e-9)

    def test_k2(self):
        s = spectra([Graph.from_edges(2, [(0, 1)])])[0]
        assert s.eigenvalues == pytest.approx((1, -1), abs=1e-9)
        assert s.energy == pytest.approx(2.0, abs=1e-9)

    def test_s88_reference(self):
        assert spectra([make_s_graph(8, 8)])[0].energy == pytest.approx(
            7.07326, abs=1e-5
        )

    @given(graph_strategy(min_n=2, max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_trace_identities_and_residual(self, g):
        s = spectra([g])[0]
        assert list(s.eigenvalues) == sorted(s.eigenvalues, reverse=True)
        assert abs(sum(s.eigenvalues)) <= 1e-9 * g.n
        assert abs(sum(x * x for x in s.eigenvalues) - 2 * g.e) <= 1e-8 * max(g.e, 1)
        scale = max(abs(c) for c in char_poly(g))
        assert s.residual <= 1e-6 * scale

    def test_wrong_polynomial_is_rejected(self, monkeypatch):
        g = make_cycle(6)
        good = char_poly(g)
        assert spectra([g])[0].charpoly == good
        off_by_one = good[:-1] + (good[-1] + 1,)
        for wrong in (char_poly(make_s_graph(6, 6)), off_by_one):
            monkeypatch.setattr(
                spectral_mod, "_stacked_char_polys",
                lambda a: ([wrong] * len(a), np.array([wrong] * len(a), dtype=np.float64)),
            )
            with pytest.raises(GraphEnergyError):
                spectra([g])

    def test_stacked_spectra_equal_single_graph_spectra(self):
        graphs = [graph6_decode(s) for s in enumerate_connected(7, 10).graphs]
        batch = spectra(graphs)
        assert batch == [spectra([g])[0] for g in graphs]

    def test_bipartite_symmetry_and_coefficients(self):
        for g in [make_b_graph(8, 10), make_b_graph(9, 12), make_cycle(6)]:
            assert is_bipartite(g)
            s = spectra([g])[0]
            for i in range(g.n):
                assert s.eigenvalues[i] == pytest.approx(
                    -s.eigenvalues[g.n - 1 - i], abs=1e-9
                )
            a = char_poly(g)
            assert all(a[k] == 0 for k in range(1, g.n + 1, 2))
            assert all(v >= 0 for v in b_coeffs(char_poly(g)))


class TestCoulson:
    def test_k4_exact_value(self):
        est = energy_coulsons([char_poly(make_complete(4))])[0]
        assert est.value == pytest.approx(6.0, abs=1e-6)
        assert est.error_bound <= 1e-7

    def test_s55_reference(self):
        est = energy_coulsons([char_poly(make_s_graph(5, 5))])[0]
        assert est.value == pytest.approx(5.62721, abs=1e-5)

    def test_edgeless_is_exactly_zero(self):
        est = energy_coulsons([char_poly(Graph(7, (0,) * 7))])[0]
        assert est.value == 0.0
        assert est.error_bound == 0.0

    def test_budget_exhaustion_carries_estimate(self, monkeypatch):
        # one round of refinement: each integral stops at two panels
        monkeypatch.setattr(spectral_mod, "_MAX_PANELS", 1)
        with pytest.raises(QuadratureAccuracyError) as err:
            energy_coulsons([char_poly(make_complete(4))], tol=1e-13)
        assert err.value.estimate == pytest.approx(6.0, abs=1e-2)
        assert err.value.error_bound > 0

    def test_evaluation_counts_are_pinned(self):
        # an integral that ends with c panels evaluated the first one and c - 1
        # splits into two halves, at 15 nodes each: 15 * (2c - 1)
        want = {"K 2": 30, "K 4": 60, "C 5": 60, "S 9 12": 90, "K 62": 210}
        for fam, evals in want.items():
            assert energy_coulsons([char_poly(family_graph(fam))])[0].evaluations == evals, fam
        # a row past _MAX_PANELS stops; a round splits a quarter of its panels,
        # so it ends with at most 5,000: 149,985 evaluations per integral
        cap = spectral_mod._MAX_PANELS
        ceiling = 2 * spectral_mod._NODES.size * (2 * (cap + cap // 4) - 1)
        assert ceiling == 299_970
        # no tolerance is reachable here: both integrals stop at the panel limit
        with pytest.raises(QuadratureAccuracyError) as err:
            energy_coulsons([char_poly(family_graph("K 62"))], tol=1e-300)
        evals = int(re.search(r"after (\d+) evaluations", str(err.value)).group(1))
        assert evals == 254_430 <= ceiling

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            energy_coulsons([char_poly(make_complete(4))], tol=tol)

    @given(graph_strategy(min_n=2, max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_dual_route_agreement(self, g):
        est = energy_coulsons([char_poly(g)])[0]
        assert est.value == pytest.approx(energy(g), abs=1e-6)

    def test_agreement_with_many_zero_eigenvalues(self):
        g = disjoint_union(make_s_graph(11, 11), make_cycle(3))
        est = energy_coulsons([char_poly(g)])[0]
        assert est.value == pytest.approx(energy(g), abs=1e-6)

    def test_batch_equals_batches_of_one_bit_for_bit(self):
        rng = random.Random(4242)
        roots = (-3, -2, -1, 1, 2, 3)
        # more than one chunk of one degree: D has degree 6 for each (no zero root)
        same_degree = [_poly_from_roots([rng.choice(roots) for _ in range(6)])
                       for _ in range(spectral_mod._CHUNK + 20)]
        assert {len(spectral_mod._abs2_coeffs(p)[1]) for p in same_degree} == {7}
        sparse = [_sparse_connected(rng, n, 4) for n in (40, 62)]
        graphs = [
            make_complete(4), make_s_graph(5, 5), Graph(7, (0,) * 7),
            disjoint_union(make_s_graph(11, 11), make_cycle(3)), make_complete(9), *sparse,
        ] + [graph6_decode(s) for s in enumerate_connected(7, 10).graphs[:40]]
        polys = [p for pair in zip(same_degree, [char_poly(g) for g in graphs]) for p in pair]
        polys += same_degree[len(graphs):]
        batch = energy_coulsons(polys)
        assert batch == [energy_coulsons([p])[0] for p in polys]
        assert batch[5] == spectral_mod.CoulsonEnergy(0.0, 0.0, 0)
        for g, est in zip(graphs, batch[1::2]):
            assert est.value == pytest.approx(energy(g), abs=1e-6)

    def test_batch_answers_in_input_order(self):
        polys = [char_poly(g) for g in (make_complete(4), make_cycle(5), make_s_graph(6, 6))]
        assert energy_coulsons(polys[::-1]) == energy_coulsons(polys)[::-1]
        assert energy_coulsons([]) == []

    def test_batch_error_names_the_first_failing_polynomial(self, monkeypatch):
        # with two panels per integral K2 and C5 meet 1e-10; K4 does not
        monkeypatch.setattr(spectral_mod, "_MAX_PANELS", 1)
        polys = [char_poly(g) for g in (make_complete(2), make_complete(4), make_cycle(5))]
        energy_coulsons(polys[::2], tol=1e-10)
        with pytest.raises(QuadratureAccuracyError) as alone:
            energy_coulsons([polys[1]], tol=1e-10)
        with pytest.raises(QuadratureAccuracyError) as err:
            energy_coulsons(polys, tol=1e-10)
        assert err.value.estimate == alone.value.estimate == pytest.approx(6.0, abs=1e-3)
        assert err.value.error_bound == alone.value.error_bound > 1e-10

    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_batch_tolerance_is_checked_before_any_work(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            energy_coulsons([], tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            energy_coulsons([(2, 0)], tol=tol)  # invalid, yet never read

    def test_additive_over_unions_through_the_integral(self):
        # the integral route never sees the components, yet must add up
        rng = random.Random(77)
        for _ in range(10):
            g = _rand(rng, rng.randint(3, 6))
            h = _rand(rng, rng.randint(3, 6))
            lhs = energy_coulsons([char_poly(disjoint_union(g, h))])[0].value
            rhs = sum(est.value for est in energy_coulsons([char_poly(g), char_poly(h)]))
            assert lhs == pytest.approx(rhs, abs=2e-6)


class TestClosedForms:
    def test_values_at_n_6_and_10(self):
        assert closed_form_charpoly(6, 6) == (
            1, 0, -6, -2, 3, 0, 0,
        )
        assert closed_form_charpoly(6, 8) == (
            1, 0, -8, -6, 3, 0, 0,
        )
        assert closed_form_charpoly(10, 13) == (
            1, 0, -13, -8, 16, 0, 0, 0, 0, 0, 0,
        )

    def test_unsupported_families(self):
        with pytest.raises(InvalidFamilyError, match=re.escape("S(5,5) requires n >= 6")):
            closed_form_charpoly(5, 5)  # n too small
        with pytest.raises(InvalidFamilyError, match=re.escape("no closed form for S(8,9)")):
            closed_form_charpoly(8, 9)  # e = n+1 not covered


def test_energy_of_wheel_against_charpoly_roots():
    # cross-check: energy equals the sum of |roots| of the exact polynomial
    g = family_graph("W 5")
    p = char_poly(g)
    import numpy as np

    roots = np.roots(p)
    assert max(abs(r.imag) for r in roots) < 1e-8
    assert energy(g) == pytest.approx(sum(abs(r.real) for r in roots), abs=1e-8)
