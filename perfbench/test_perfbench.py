"""Self-test of the benchmark: tiny workloads end to end, and planted wrong answers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import graphenergy  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "src").symlink_to(REPO / "src")
    return tmp_path


def tiny(name: str) -> run.Workload:
    if name == "verify":
        return run.Workload(name, "", checks=("closed-forms", "class-split"))
    if name == "rank":
        return run.Workload(name, "", classes=((4, 5, "S 4 5"), (5, 6, "B 5 6"), (5, 8, "W 5")))
    return run.Workload(name, "", classes=((5, 6), (5, 7)), random_graphs=2, orders=(20, 24))


def expected_metrics(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload(checkout, capsys, name, trace):
    summary = run.run_workload(checkout, tiny(name), seed=5, seconds=0, trace=trace)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == expected_metrics("per_layer" if trace else "end_to_end")
    if trace and name == "rank":
        m = {k: v["value"] for k, v in summary["metrics"].items()}
        # eigenvalues() calls char_poly inside spectral: the wrapper sees it too
        assert m["spectral.char_poly_calls"] == 2 * m["graph6.decodes"] == 2 * 8
        assert m["census.cache_loads"] == 3
    capsys.readouterr()


def test_frozen_census_matches_the_frozen_counts_and_enumeration():
    census = worker.frozen_census(str(run.CENSUS_FILE))
    assert {key: len(members) for key, members in census.items()} == run.FROZEN_COUNTS
    for (n, e), members in census.items():
        rows = [reference.decode_graph6(s) for s in members]
        assert all(len(r) == n and sum(x.bit_count() for x in r) == 2 * e for r in rows)
        if n <= 7:
            assert tuple(members) == graphenergy.enumerate_connected(n, e).graphs


def test_bare_directory_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def good_ranking(n, e):
    census = list(graphenergy.enumerate_connected(n, e).graphs)
    entries = [(x.graph6, x.energy) for x in graphenergy.rank_class(n, e).entries]
    return entries, census, reference.reference_energies(census)


def test_rank_checker_counts_planted_errors():
    entries, census, ref = good_ranking(6, 9)
    rank0 = graphenergy.graph6_encode(graphenergy.family_graph("Kb 3 3"))
    assert reference.rank_problems(entries, census, ref, 20, rank0) == []
    perturbed = list(entries)
    perturbed[5] = (perturbed[5][0], perturbed[5][1] + 1e-7)
    swapped = list(entries)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    wrong_rank0 = graphenergy.graph6_encode(graphenergy.family_graph("S 6 9"))
    assert reference.rank_problems(perturbed, census, ref, 20, rank0)
    assert reference.rank_problems(swapped, census, ref, 20, rank0)
    assert reference.rank_problems(entries[:-1], census, ref, 20, rank0)
    assert reference.rank_problems(entries, census, ref, 19, rank0)
    assert reference.rank_problems(entries, census, ref, 20, wrong_rank0)


def test_rank_checker_accepts_any_order_within_a_tie():
    entries, census, ref = good_ranking(7, 10)
    groups = [(lo, hi) for lo, hi in reference.tie_groups([x for _, x in entries]) if hi - lo > 1]
    assert groups, "(7,10) has cospectral members"
    lo, hi = groups[0]
    names = [g for g, _ in entries]
    names[lo:hi] = names[lo:hi][::-1]
    reordered = [(g, x) for g, (_, x) in zip(names, entries)]
    rank0 = graphenergy.graph6_encode(graphenergy.family_graph("B 7 10"))
    assert reference.rank_problems(reordered, census, ref, 132, rank0) == []


def test_energy_checker_counts_planted_errors():
    lines = list(graphenergy.enumerate_connected(5, 6).graphs)
    ref = reference.reference_energies(lines)
    rows = [
        {"input": s, "energy": ref[s], "energy_coulson": ref[s] + 1e-8, "coulson_error_bound": 1e-9}
        for s in lines
    ]

    def failures(rows, code=0):
        return reference.energy_failures(code, json.dumps(rows), lines, ref)

    assert failures(rows) == 0
    assert failures(rows, code=1) == len(lines)
    assert failures(rows[:-1]) == len(lines)
    assert failures([dict(rows[0], energy=ref[lines[0]] + 1e-8)] + rows[1:]) == 1
    assert failures([dict(rows[0], energy_coulson=ref[lines[0]] + 2e-6)] + rows[1:]) == 1
    assert failures([dict(rows[0], coulson_error_bound=1e-6)] + rows[1:]) == 1
    assert failures([dict(rows[0], input=lines[1])] + rows[1:]) == 1


def test_verify_checker_counts_planted_errors():
    results = [{"name": name, "passed": True} for name in reference.VERIFY_CHECKS]
    assert reference.verify_failures(0, json.dumps(results)) == 0
    results[3]["passed"] = False
    assert reference.verify_failures(0, json.dumps(results)) == 1
    assert reference.verify_failures(0, json.dumps(results[:7])) == 3
    assert reference.verify_failures(1, json.dumps(results)) == 9
    assert reference.verify_failures(0, "not json") == 9
