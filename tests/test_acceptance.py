"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines
and timings. Every tolerance is pinned here; nothing is deferred.
"""

import random
import time
from contextlib import contextmanager


from graphenergy import (
    Graph,
    canonical_label,
    char_poly,
    disjoint_union,
    energy,
    energy_coulsons,
    enumerate_connected,
    family_graph,
    graph6_decode,
    spectra,
)
from graphenergy import census
from graphenergy.census import PINNED
from graphenergy.classify import is_bipartite
from graphenergy.verify import CheckContext, default_inequality_range, run_checks

from test_census import count_walks
from test_graphs import poly_mul

# every census any criterion touches; criterion 8 sweeps all of them
ALL_CLASSES = sorted(PINNED)


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE criterion {num} ({desc}): FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE criterion {num} ({desc}): PASS ({time.time() - t0:.1f}s)")


def test_criterion_1_census_counts(monkeypatch):
    walks = count_walks(monkeypatch)
    with criterion(1, "pinned census counts and digests, one vertex walk"):
        enumerate_connected.cache_clear()  # count every walk the check makes
        [result] = run_checks(["census"])
        assert result.passed, result.failures()
        assert [(row["n"], row["e"]) for row in result.evidence] == sorted(PINNED)
        assert all(
            row["item"] == "known-count" and row["digest_matches_pin"]
            for row in result.evidence
        )
    # one vertex walk, towards (9,12), fills all 19; the edge walk is the
    # tests' oracle (tests/orderly.py), not the check's
    assert walks == [(9, 12)]


def test_criterion_2_reference_energies():
    with criterion(2, "reference decimal energies to 1e-5"):
        table = {
            "K 4": 6.0,
            "S 4 4": 4.96239,
            "B 7 9": 7.21110,
            "S 7 7": 6.64681,
            "B 8 10": 7.91375,
            "S 8 8": 7.07326,
            "B 9 11": 8.46834,
            "S 9 9": 7.46410,
            "S 5 7": 6.0,
            "S 5 5": 5.62721,
        }
        for fam, want in table.items():
            got = energy(family_graph(fam))
            assert abs(got - want) <= 1e-5, f"{fam}: {got} vs {want}"


def test_criterion_3_bicyclic_theorem():
    with criterion(3, "bicyclic minimal families, n = 4..9, under 60 s"):
        [result] = run_checks(["bicyclic"])
        assert result.passed, result.failures()
        assert result.runtime < 60, f"took {result.runtime:.1f}s"


def test_criterion_4_tricyclic_theorem():
    with criterion(4, "tricyclic minimal families, n = 4..9, under 60 s"):
        [result] = run_checks(["tricyclic"])
        assert result.passed, result.failures()
        assert result.runtime < 60, f"took {result.runtime:.1f}s"


def test_criterion_5_tetracyclic_theorem(monkeypatch):
    walks = count_walks(monkeypatch)
    # a fresh memo, to time the full work incl. the (9,12) enumeration; the
    # shared one, with criterion 1's walks, comes back for later tests
    monkeypatch.setattr(census, "_memo", {})
    with criterion(5, "tetracyclic minimal families, n = 5..9, under 10 min"):
        [result] = run_checks(["tetracyclic"])
        assert result.passed, result.failures()
        assert result.runtime < 600, f"took {result.runtime:.1f}s"
    assert walks == [(9, 12)]


def test_criterion_6_closed_forms_exact():
    with criterion(6, "closed-form polynomials exact for n = 6..12"):
        [result] = run_checks(["closed-forms"])
        assert result.passed, result.failures()
        # S(n, n), S(n, n + 2), S(n, n + 3) and the b4 of S(n, n + 3), n = 6..12
        items = [row["item"] for row in result.evidence]
        assert items.count("closed-form") == 21 and items.count("b4-correction") == 7
        assert len(items) == 28


def test_criterion_7_inequality_suite():
    with criterion(7, "family inequality suite, n = 6..40 sampled"):
        ns = default_inequality_range()
        assert max(ns) == 40 and min(ns) == 6
        [result] = run_checks(["family-inequalities"])
        assert result.passed, result.failures()
        assert len(result.evidence) > 150


def test_criterion_8_property_suites():
    with criterion(8, "property suites (dual energy, unions, symmetry, cuts, canon)"):
        # dual-method agreement on every graph of every generated census
        names = [s for n, e in ALL_CLASSES for s in enumerate_connected(n, e).graphs]
        graphs = [graph6_decode(s) for s in names]
        specs = spectra(graphs)
        coulsons = energy_coulsons([spec.charpoly for spec in specs])
        worst = 0.0
        for s, spec, coulson in zip(names, specs, coulsons):
            diff = abs(spec.energy - coulson.value)
            worst = max(worst, diff)
            assert diff <= 1e-6, f"{s}: dual-method gap {diff:.2e}"
        print(f"  dual-method: {len(names)} graphs, worst gap {worst:.2e}")

        # union multiplicativity, exact in integers, 200 seeded pairs
        rng = random.Random(20240401)
        for _ in range(200):
            g = _random_graph(rng, rng.randint(2, 7))
            h = _random_graph(rng, rng.randint(2, 7))
            u = disjoint_union(g, h)
            assert char_poly(u) == poly_mul(char_poly(g), char_poly(h))
        print("  union multiplicativity: 200 seeded pairs exact")

        # bipartite spectral symmetry on all bipartite census members
        bipartite = [g for g in graphs if is_bipartite(g)]
        for g, spec in zip(bipartite, spectra(bipartite)):
            for i in range(g.n):
                assert abs(
                    spec.eigenvalues[i] + spec.eigenvalues[g.n - 1 - i]
                ) <= 1e-9
            a = spec.charpoly
            assert all(a[k] == 0 for k in range(1, g.n + 1, 2))
        print(f"  bipartite symmetry: {len(bipartite)} census members")

        # edge-cut monotonicity, 500 seeded trials, zero violations
        [result] = run_checks(["edge-cut"], CheckContext(seed=1729, trials=500))
        assert result.passed, result.failures()
        print("  edge-cut monotonicity: 500 seeded trials, 0 violations")

        # canonical-label permutation invariance, 1000 seeded trials
        rng = random.Random(8128)
        for _ in range(1000):
            n = rng.randint(2, 9)
            g = _random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert (
                canonical_label(g)
                == canonical_label(g.relabeled(perm))
            )
        print("  canonical invariance: 1000 seeded trials")


def _random_graph(rng, n, p=None):
    if p is None:
        p = rng.uniform(0.2, 0.8)
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )
