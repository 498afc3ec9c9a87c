import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphenergy
from graphenergy import Graph, char_poly, family_graph, graph6_decode, graph6_encode, spectra
from graphenergy.census import PINNED, census_digest
from graphenergy.cli import _report_json, main
import graphenergy.verify as verify_mod


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnergy:
    def test_family_k4_text(self, capsys):
        code, out, err = run(capsys, "energy", "--family", "K4")
        assert code == 0
        assert "energy     : 6.000000" in out

    def test_family_s77(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "energy", "--family", "S 7 7")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["energy"] == pytest.approx(6.64681, abs=1e-5)
        assert payload[0]["class_label"] == "class1"

    def test_empty_input_is_success(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, err = run(capsys, "energy", "-")
        assert code == 0
        assert out == ""

    def test_text_and_json_carry_identical_values(self, capsys):
        code, text_out, _ = run(capsys, "energy", "--family", "B 7 9")
        code2, json_out, _ = run(
            capsys, "--format", "json", "energy", "--family", "B 7 9"
        )
        assert code == code2 == 0
        payload = json.loads(json_out)[0]
        assert f"energy     : {payload['energy']:.6f}" in text_out
        assert f"n={payload['n']} e={payload['e']}" in text_out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "energy", "--family", "Kb 3 3"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["bipartite"] == "1"
        assert float(rows[0]["energy"]) == pytest.approx(6.0, abs=1e-9)

    def test_mixed_stdin_graph6_and_family(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nS 4 4\n# note\n\n"))
        code, out, _ = run(capsys, "--format", "csv", "energy", "-")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["input"] for r in rows] == ["C~", "S 4 4"]

    def test_family_flags_combine_with_file(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("C~\n")
        code, out, _ = run(
            capsys, "--format", "csv", "energy", "--family", "C5", str(path)
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["input"] for r in rows] == ["C5", "C~"]

    def test_mixed_orders_report_in_input_order(self, capsys, monkeypatch):
        # orders 3..20 interleaved, graph6 and family lines mixed
        path20 = graph6_encode(Graph.from_edges(20, [(v, v + 1) for v in range(19)]))
        lines = ["S 7 7", "C~", path20, "C5", "K3", "B 7 9", "Kb 3 3", "K4"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(x + "\n" for x in lines)))
        code, out, _ = run(capsys, "--format", "json", "energy", "-")
        assert code == 0
        rows = json.loads(out)
        assert [r["input"] for r in rows] == lines
        for line, row in zip(lines, rows):
            g = graph6_decode(line) if line in ("C~", path20) else family_graph(line)
            spec = spectra([g])[0]
            assert (row["n"], row["e"]) == (g.n, g.e)
            assert row["eigenvalues"] == list(spec.eigenvalues)
            assert row["energy"] == spec.energy
            assert row["charpoly"] == list(char_poly(g))

    def test_parse_error_carries_line_number(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("K4\n!!bogus!!\n"))
        code, _, err = run(capsys, "energy", "-")
        assert code == 2
        assert "line 2" in err

    def test_oversized_graph6_is_scale_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("~??\n"))
        code, _, err = run(capsys, "energy", "-")
        assert code == 2
        assert "line 1" in err

    def test_undecodable_file_line_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_bytes(b"K4\n\xffC~\nC5\n")
        code, out, err = run(capsys, "energy", str(path))
        assert code == 2
        assert out == ""
        assert "line 2: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_undecodable_stdin_line_is_a_parse_error(self, capsys, monkeypatch):
        # stdin decoded as Latin-1, as under a Latin-1 locale: the bytes count
        stdin = io.TextIOWrapper(io.BytesIO(b"K4\nC~\n\xe9\n"), encoding="latin-1")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "energy", "-")
        assert code == 2
        assert out == ""
        assert "line 3: not UTF-8 text" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "energy", str(tmp_path / "absent.g6"))
        assert code == 3

    def test_family_error_is_usage(self, capsys):
        code, _, err = run(capsys, "energy", "--family", "S 5 9")
        assert code == 2
        assert "requires" in err

    def test_parameter_past_the_int_digit_limit_is_usage(self, capsys, monkeypatch):
        # int() refuses more than 4,300 digits; both input forms must exit 2
        code, out, err = run(
            capsys, "energy", "--family", "K4", "--family", "Star " + "9" * 5000
        )
        assert (code, out) == (2, "")
        assert "--family 2: family 'Star' has a parameter of 5000 digits" in err
        # the argument is named by position, not echoed back
        assert max(map(len, err.splitlines())) < 200
        monkeypatch.setattr("sys.stdin", io.StringIO("S 5 " + "0" * 4400 + "7\n"))
        code, out, err = run(capsys, "energy", "-")
        assert (code, out) == (2, "")
        assert "line 1: not a family expression (family 'S' has a parameter of 4401 digits)" in err

    def test_large_graph_skips_class_label(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "energy", "--family", "S 20 22"
        )
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["class_label"] is None
        assert payload["energy"] > 0

    def test_graph_past_the_cycle_cap_skips_class_label(self, capsys):
        # K12 has some 60 million simple cycles: the search stops at the cap
        # instead of listing them, so the report exits 0 without a label
        code, out, _ = run(
            capsys, "--format", "json", "energy", "--family", "K 12", "--family", "K 10"
        )
        assert code == 0
        k12, k10 = json.loads(out)
        assert (k12["class_label"], k12["class_witness"]) == (None, None)
        assert k12["energy"] == pytest.approx(22.0)
        # K10's 556,014 cycles stay under the cap
        assert k10["class_label"] == "class2"

    def test_class2_witness_in_report(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "energy", "--family", "C3 + C3"
        )
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["class_label"] == "class2"
        a, b = payload["class_witness"]
        assert len(a) == len(b) == 3

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_accuracy_failure_writes_nothing_to_stdout(self, capsys, fmt):
        # every report is built before the first byte goes out, so the S 7 7
        # report ahead of the failing K62 is not written either
        code, out, err = run(
            capsys, "--format", fmt, "--quad-tol", "1e-300",
            "energy", "--family", "S 7 7", "--family", "K 62",
        )
        assert (code, out) == (1, "")
        assert "accuracy failure" in err

    def test_quad_tol_override(self, capsys):
        code, out, _ = run(
            capsys,
            "--format", "json", "--quad-tol", "1e-5",
            "energy", "--family", "K4",
        )
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["coulson_error_bound"] <= 1e-5

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf", "abc"])
    def test_quad_tol_must_be_finite_and_positive(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["--quad-tol", tol, "energy", "--family", "K4"])
        assert exc.value.code == 2
        assert "--quad-tol" in capsys.readouterr().err


def _chorded_path(n: int) -> Graph:
    chords = [(v, (7 * v + 5) % n) for v in range(0, n, 5)]
    return Graph.from_edges(
        n, [(v, v + 1) for v in range(n - 1)] + [(u, v) for u, v in chords if u != v]
    )


# family and graph6 lines of orders 3..62, edgeless and zero-eigenvalue cases included
GOLDEN_LINES = (
    ["S 7 7", "K4", "Kb 3 3", "W 5", "C5", "B 9 12", "S 11 11 + C3", "K3 + K1", "K1 + K1"]
    + [graph6_encode(family_graph(f)) for f in ("B 8 11", "S 9 12", "K8")]
    + [graph6_encode(_chorded_path(n)) for n in (20, 40, 62)]
)
# sha256 of the JSON report of GOLDEN_LINES; a change means some report byte moved
GOLDEN_JSON_SHA256 = "bf2cb6411c96e72f827ea34374dd2e4433f10f44ffc62f5d4023b07c2ed5b6c1"


def test_energy_json_report_is_byte_stable(capsys, tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text("".join(line + "\n" for line in GOLDEN_LINES))
    code, out, _ = run(capsys, "--format", "json", "energy", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON_SHA256


@pytest.mark.parametrize(
    "lines, count",
    [
        (GOLDEN_LINES, len(GOLDEN_LINES)),
        (["C3 + C3"], 1),  # a class2 witness: a list of lists
        (["EC\\o"], 1),  # a backslash the string escape must double
        (["K1"], 1),
        (["# comments and blank lines only", "", "#"], 0),  # the report is []
    ],
    ids=["golden", "class2-witness", "backslash", "K1", "no-graphs"],
)
def test_energy_json_report_round_trips(capsys, tmp_path, lines, count):
    # json.dumps is the oracle: the report's renderer shares no code with it
    path = tmp_path / "in.txt"
    path.write_text("".join(line + "\n" for line in lines))
    code, out, _ = run(capsys, "--format", "json", "energy", str(path))
    assert code == 0
    assert len(json.loads(out)) == count
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_report_renderer_spells_non_finite_floats_as_json_does(capsys):
    # energy_coulsons refuses a NaN bound, yet every float keeps json.dumps's spelling
    _, out, _ = run(capsys, "--format", "json", "energy", "--family", "C3 + C3")
    row = json.loads(out)[0]
    row.update(energy=math.nan, energy_coulson=math.inf, coulson_error_bound=-math.inf)
    row["eigenvalues"][1:4] = [math.nan, math.inf, -math.inf]
    assert _report_json(row) == json.dumps([row], indent=2)[2:-2]


class TestEnumerate:
    def test_count_on_stdout(self, capsys):
        code, out, _ = run(capsys, "enumerate", "7", "10")
        assert code == 0
        assert out.strip() == "132"

    def test_small_tetracyclic(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "8")
        assert code == 0
        assert out.strip() == "2"

    def test_json_and_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate", "5", "8")
        assert code == 0
        assert out == '{\n  "n": 5,\n  "e": 8,\n  "count": 2,\n  "out": null\n}\n'
        code, out, _ = run(capsys, "--format", "csv", "enumerate", "5", "8")
        assert code == 0
        assert out == "n,e,count\n5,8,2\n"

    def test_envelope_error_exit_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "11", "20")
        assert code == 2
        assert "supports" in err

    def test_out_writes_cache_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "6", "9", "--out", str(tmp_path / "cache")
        )
        assert code == 0
        g6 = (tmp_path / "cache" / "census_n6_e9.g6").read_text().splitlines()
        assert len(g6) == 20
        meta = (tmp_path / "cache" / "census_n6_e9.meta").read_text()
        assert "count: 20" in meta

    def test_out_under_a_file_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, "enumerate", "5", "6", "--out", str(blocker / "cache"))
        assert code == 3
        assert out == ""
        assert err.startswith("graphenergy: ")
        assert "Traceback" not in err

    def test_census_file_independent_of_hash_seed(self, tmp_path):
        # census generation keeps its keys in sets and dicts; only a fresh
        # interpreter per hash seed can show an iteration-order dependence
        src = str(Path(graphenergy.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        files = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            subprocess.run(
                [sys.executable, "-m", "graphenergy", "enumerate", "7", "10", "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                check=True,
                capture_output=True,
                timeout=300,
            )
            files.append((out / "census_n7_e10.g6").read_bytes())
        assert files[0] == files[1]
        strings = files[0].decode("ascii").splitlines()
        assert (len(strings), census_digest(strings)) == PINNED[7, 10]

    def test_cache_dir_reuse(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "enumerate", "6", "8"
        )
        assert code == 0 and out.strip() == "22"
        # second call must load the file it just wrote
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "enumerate", "6", "8"
        )
        assert code == 0 and out.strip() == "22"

    def test_corrupt_cache_is_io_error(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "enumerate", "6", "8")
        path = tmp_path / "census_n6_e8.g6"
        path.write_text(path.read_text() + "C~\n")
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "enumerate", "6", "8")
        assert code == 3
        assert "cache" in err.lower() or "digest" in err.lower()


# sha256 of `--format json rank n e --top 100000`, every member of the class
RANK_JSON_SHA256 = {
    (9, 12): "ea48b57e4838ca685eff7844062dd556b0d6188be5587fe091af5ce155495fe1",
    (8, 11): "da43fea417b1334b3b0ff89497e5ece58214330b3fb839ff3a93eaa20b8c3dfa",
    (5, 8): "73a485076e6fe5b791dfe2f013e533b74a46bf815c5fe23253502e90ab65f50e",
}


class TestRank:
    @pytest.mark.parametrize("n, e", sorted(RANK_JSON_SHA256))
    def test_json_ranking_is_byte_stable(self, capsys, n, e):
        code, out, _ = run(capsys, "--format", "json", "rank", str(n), str(e), "--top", "100000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RANK_JSON_SHA256[n, e]

    def test_top_two_of_7_8(self, capsys):
        from graphenergy import canonical_label, family_graph

        code, out, _ = run(capsys, "--format", "json", "rank", "7", "8", "--top", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][1]["graph6"] == canonical_label(family_graph("S 7 8"))

    def test_5_6_minimal_and_second(self, capsys):
        from graphenergy import canonical_label, family_graph

        code, out, _ = run(capsys, "--format", "json", "rank", "5", "6", "--top", "2")
        payload = json.loads(out)
        assert payload["rows"][0]["graph6"] == canonical_label(family_graph("B 5 6"))
        assert payload["rows"][1]["graph6"] == canonical_label(family_graph("S 5 6"))

    def test_top_zero_empty_table(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "rank", "5", "6", "--top", "0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["rank", "graph6", "energy", "charpoly_digest"]]

    @pytest.mark.parametrize("top", ["-1", "many"])
    def test_top_below_zero_is_usage_error(self, capsys, top):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "5", "6", "--top", top])
        assert exc.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_text_ties_name_the_tie_tolerance(self, capsys, monkeypatch):
        import graphenergy.cli as cli_mod

        monkeypatch.setattr(cli_mod, "ENERGY_TIE_TOL", 2.5e-8)
        code, out, _ = run(capsys, "rank", "6", "7", "--top", "1")
        assert code == 0
        assert "ties within 2.5e-08: [(14, 15)]" in out

    def test_envelope(self, capsys):
        code, _, err = run(capsys, "rank", "12", "15")
        assert code == 2


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "closed-forms")
        assert code == 0
        assert "closed-forms: PASS" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "verify", "--check", "closed-forms"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["name"] == "closed-forms"
        assert payload[0]["passed"] is True

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "no-such"])
        assert exc.value.code == 2

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        def always_fails(ctx):
            return [{"item": "x", "ok": True}, {"item": "y", "ok": False}]

        monkeypatch.setitem(verify_mod.CHECKS, "doomed", always_fails)
        code, out, _ = run(capsys, "verify", "--check", "doomed")
        assert code == 1
        assert "doomed: FAIL" in out

    def test_dual_energy_reads_the_census_cache(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "--check", "dual-energy"
        )
        assert code == 0
        assert "dual-energy: PASS" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"census_n{n}_e{e}.{ext}"
            for n, e in ((4, 4), (5, 6), (6, 8), (7, 10))
            for ext in ("g6", "meta")
        ]

    def test_csv_summary(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "verify", "--check", "closed-forms"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["check"] == "closed-forms"
        assert rows[0]["passed"] == "1"

    def test_trials_and_seed_forwarded(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "--seed",
            "5",
            "verify",
            "--check",
            "edge-cut",
            "--trials",
            "25",
        )
        assert code == 0
        payload = json.loads(out)
        summary = payload[0]["evidence"][-1]
        assert summary["trials"] == 25
        assert summary["seed"] == 5

    @pytest.mark.parametrize("trials", ["0", "-3", "many"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "edge-cut", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    def test_all_among_other_names_runs_every_check(self, capsys, monkeypatch):
        ran = []
        for name in verify_mod.CHECKS:
            monkeypatch.setitem(
                verify_mod.CHECKS, name, lambda ctx, name=name: ran.append(name) or [{"ok": True}]
            )
        code, out, _ = run(
            capsys, "--format", "json", "verify", "--check", "all", "--check", "closed-forms"
        )
        assert code == 0
        assert [r["name"] for r in json.loads(out)] == ran == list(verify_mod.CHECKS)
        assert len(ran) == 9
