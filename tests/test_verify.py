import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from graphenergy import (
    canonical_label,
    char_poly,
    delete_edges,
    eigenvalues,
    energy,
    family_graph,
    graph6_decode,
    make_wheel,
    rank_class,
)
import graphenergy.census as census_mod
import graphenergy.verify as verify_mod
from graphenergy.census import PINNED, enumerate_connected
from graphenergy.cli import render_json, render_text
from graphenergy.verify import (
    ENERGY_TIE_TOL,
    CheckContext,
    CheckResult,
    DUAL_ENERGY_CLASSES,
    run_checks,
)

from test_census import count_walks
from test_graphs import adjacency_matrix
from test_spectral import char_poly_reference


def _digest_poly(coeffs):
    # the charpoly_digest of a ranked graph: its coefficients joined by commas
    return hashlib.sha256(",".join(str(c) for c in coeffs).encode()).hexdigest()[:16]


class TestRankClass:
    def test_wheel_is_minimal_among_5_8(self):
        report = rank_class(5, 8)
        assert report.minimal.graph6 == canonical_label(family_graph("W 5"))

    def test_6_9_minimal_and_second(self):
        report = rank_class(6, 9)
        assert report.minimal.graph6 == canonical_label(family_graph("Kb 3 3"))
        assert report.entries[1].graph6 == canonical_label(family_graph("S 6 9"))

    def test_6_7_minimal_and_third(self):
        report = rank_class(6, 7)
        assert report.minimal.graph6 == canonical_label(family_graph("B 6 7"))
        assert report.entries[2].graph6 == canonical_label(family_graph("S 6 7"))

    def test_ordering_and_length_invariants(self):
        report = rank_class(6, 8)
        energies = [entry.energy for entry in report.entries]
        assert energies == sorted(energies)
        assert len(report.entries) == 22

    def test_order_matches_independent_recomputation(self):
        report = rank_class(5, 6)
        redone = sorted(
            ((eigenvalues(graph6_decode(e.graph6)).energy, e.graph6) for e in report.entries),
        )
        assert [s for _, s in redone] == [e.graph6 for e in report.entries]

    def test_chunked_ranking_equals_per_graph_reference(self):
        # 814 graphs cross several stacked chunks; the reference solves and
        # expands one graph at a time, as ranking did before it was batched
        rows = []
        for s in enumerate_connected(8, 11).graphs:
            g = graph6_decode(s)
            coeffs = char_poly_reference(g)
            w = np.linalg.eigvalsh(adjacency_matrix(g))[::-1]
            rows.append((float(np.abs(w).sum()), s, _digest_poly(coeffs), coeffs))
        rows.sort(key=lambda r: (r[0], r[1]))
        ties = tuple(
            (i, i + 1, rows[i][3] == rows[i + 1][3])
            for i in range(len(rows) - 1)
            if rows[i + 1][0] - rows[i][0] <= ENERGY_TIE_TOL
        )
        report = rank_class(8, 11)
        assert len(report.entries) == 814
        assert [(x.graph6, repr(x.energy), x.charpoly_digest) for x in report.entries] == [
            (s, repr(en), dig) for en, s, dig, _ in rows
        ]
        assert report.ties == ties

    @pytest.mark.parametrize(
        "n,e,entries",
        [
            (1, 0, (("@", 0.0, "b0e4f9bb7b55e4b1"),)),  # no graph6 data bytes
            (2, 1, (("A_", 2.0, "f33ca27fefbf5e0e"),)),
            (5, 2, ()),  # no connected graph: no chunk to solve
        ],
    )
    def test_edge_case_classes(self, n, e, entries):
        report = rank_class(n, e)
        assert [(x.graph6, x.energy, x.charpoly_digest) for x in report.entries] == list(entries)
        assert report.ties == ()

    def test_ranking_holds_no_whole_census_of_graphs(self):
        # one chunk of graphs and spectra is alive at a time; the 4,495
        # (energy, graph6, polynomial) rows take about 2.2 MiB
        enumerate_connected(9, 12)
        tracemalloc.start()
        try:
            report = rank_class(9, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.entries) == 4495
        assert peak < 3 * 2**20

    def test_cospectral_pair_in_6_7_is_flagged(self):
        # the smallest connected cospectral pair in these classes sits in
        # (6,7); equal exact polynomials force an exact energy tie
        report = rank_class(6, 7)
        assert report.ties == ((14, 15, True),)
        i, j, cospectral = report.ties[0]
        assert cospectral
        a = char_poly(graph6_decode(report.entries[i].graph6))
        b = char_poly(graph6_decode(report.entries[j].graph6))
        assert a == b
        assert report.entries[i].charpoly_digest == report.entries[j].charpoly_digest

    def test_claimed_ranks_have_decisive_margins(self):
        # every family claim sits at least 1e-3 above its successor, so the
        # verdicts cannot hinge on solver noise
        for result in run_checks(["bicyclic", "tricyclic", "tetracyclic"]):
            for row in result.evidence:
                gap = row.get("gap_to_next")
                assert gap is None or gap > 1e-3


class TestChecks:
    def test_theorem_checks_make_one_walk(self, monkeypatch):
        # without the census check, one vertex walk, towards the largest class
        # any of the three ranks, fills every class they rank
        walks = count_walks(monkeypatch)
        monkeypatch.setattr(census_mod, "_memo", {})
        results = run_checks(["bicyclic", "tricyclic", "tetracyclic"])
        assert all(result.passed for result in results)
        assert walks == {"edge": [], "vertex": [(9, 12)]}

    def test_default_run_makes_one_vertex_walk(self, monkeypatch):
        # all nine checks, as `verify` runs them: the census check's walk
        # fills every class the later checks read, and no check walks edges
        walks = count_walks(monkeypatch)
        monkeypatch.setattr(census_mod, "_memo", {})
        assert all(result.passed for result in run_checks(ctx=CheckContext(trials=20)))
        assert walks == {"edge": [], "vertex": [(9, 12)]}

    def test_closed_forms_pass(self):
        [result] = run_checks(["closed-forms"])
        assert result.passed
        assert any(row["item"] == "b4-correction" for row in result.evidence)

    def test_edge_cut_lemma_small_run(self):
        [result] = run_checks(["edge-cut"], CheckContext(seed=7, trials=60))
        assert result.passed
        summary = result.evidence[-1]
        assert summary["trials"] == 60
        assert summary["violations"] == 0

    def test_edge_cut_lemma_without_trials_fails(self):
        [result] = run_checks(["edge-cut"], CheckContext(trials=0))
        assert not result.passed
        assert result.failures() == [result.evidence[-1]]
        assert result.evidence[-1]["violations"] == 0

    def test_edge_cut_lemma_deterministic_in_seed(self):
        [a] = run_checks(["edge-cut"], CheckContext(seed=3, trials=40))
        [b] = run_checks(["edge-cut"], CheckContext(seed=3, trials=40))
        assert a.evidence == b.evidence

    def test_deleting_every_edge_never_raises_energy(self):
        # the whole edge set is an edge cut; the remainder has energy zero
        g = make_wheel(6)
        assert energy(delete_edges(g, g.edges())) == pytest.approx(0.0, abs=1e-12)
        assert energy(g) >= 0.0

    def test_class_split_frozen_counts(self):
        [result] = run_checks(["class-split"])
        assert result.passed

    def test_dual_energy_small(self):
        [result] = run_checks(["dual-energy"])
        assert result.passed
        classes = [(r["n"], r["e"]) for r in result.evidence if r["item"] == "dual-energy-class"]
        assert classes == list(DUAL_ENERGY_CLASSES)

    def test_census_check_fails_on_a_digest_that_misses_its_pin(self, monkeypatch):
        count, digest = PINNED[(5, 6)]
        pins = {(4, 4): PINNED[(4, 4)], (5, 6): (count, digest[::-1])}
        monkeypatch.setattr(verify_mod, "PINNED", pins)
        [result] = run_checks(["census"])
        assert not result.passed
        # the count is right; the digest misses the planted pin
        assert [(r["item"], r["n"], r["e"], r["expected"], r["actual"],
                 r["digest_matches_pin"], r["ok"]) for r in result.evidence] == [
            ("known-count", 4, 4, 2, 2, True, True),
            ("known-count", 5, 6, 5, 5, False, False)]

    def test_run_checks_rejects_unknown(self):
        with pytest.raises(KeyError):
            run_checks(["no-such-check"])

    def test_run_checks_selection(self):
        results = run_checks(["closed-forms"])
        assert [r.name for r in results] == ["closed-forms"]

    def test_a_repeated_name_runs_once(self):
        names = ["edge-cut", "closed-forms", "edge-cut", "closed-forms"]
        results = run_checks(names, CheckContext(trials=20))
        assert [r.name for r in results] == ["edge-cut", "closed-forms"]


class TestRendering:
    def _fake_results(self):
        good = CheckResult("alpha", True, [{"item": "x", "ok": True}], 0.01)
        bad = CheckResult(
            "beta",
            False,
            [{"item": "y", "ok": True}, {"item": "z", "value": 3, "ok": False}],
            0.02,
        )
        return [good, bad]

    def test_text_sections_and_failures(self):
        text = render_text(self._fake_results())
        assert "=== alpha: PASS" in text
        assert "=== beta: FAIL" in text
        assert "[FAIL] item=z" in text
        assert "1/2 checks passed" in text

    def test_json_schema(self):
        payload = json.loads(render_json(self._fake_results()))
        assert [p["name"] for p in payload] == ["alpha", "beta"]
        assert payload[1]["passed"] is False
        assert payload[1]["evidence"][1]["value"] == 3

    def test_failures_accessor(self):
        _, bad = self._fake_results()
        assert bad.failures() == [{"item": "z", "value": 3, "ok": False}]

    def test_a_row_without_a_verdict_is_an_error_everywhere(self, monkeypatch):
        # run_checks, failures() and the text renderer read one rule: row["ok"]
        unjudged = CheckResult("gamma", True, [{"item": "no verdict"}], 0.0)
        with pytest.raises(KeyError):
            unjudged.failures()
        with pytest.raises(KeyError):
            render_text([unjudged])
        monkeypatch.setitem(verify_mod.CHECKS, "gamma", lambda ctx: unjudged.evidence)
        with pytest.raises(KeyError):
            run_checks(["gamma"])
