"""Command-line interface: energy reports, enumeration, ranking, verification.

Exit codes are a stable contract: 0 success / all checks pass, 1 verification
or accuracy failure, 2 usage error (bad flags, bad parameters, parse errors),
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Callable

from .census import census_cache_store, get_census
from .classify import ClassKind, classify, is_bipartite
from .errors import (
    CorruptCacheError,
    GraphEnergyError,
    QuadratureAccuracyError,
    ScaleError,
)
from .graph6 import graph6_decode
from .graphs import Graph, family_graph
from .spectral import CoulsonEnergy, Spectrum, b_coeffs, energy_coulsons, spectra
from .verify import CHECKS, ENERGY_TIE_TOL, CheckContext, CheckResult, rank_class, run_checks

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2
_EXIT_IO = 3


def _tolerance(text: str) -> float:
    """A finite, positive float; argparse makes anything else a usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"not a finite positive number: {text!r}")
    return tol


def _integer_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers of at least ``low``; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"not an integer of at least {low}: {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphenergy",
        description="Graph energy toolkit: exact spectra, censuses, and checks.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--cache-dir", help="directory for census cache files")
    parser.add_argument(
        "--quad-tol",
        type=_tolerance,
        default=1e-7,
        help="absolute tolerance for the contour-integral energy (default 1e-7)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=CheckContext.seed,
        help="seed for randomized checks (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="per-graph spectral report")
    p_energy.add_argument(
        "input",
        nargs="?",
        help="file of graph6 or family lines ('-' for stdin)",
    )
    p_energy.add_argument(
        "--family",
        action="append",
        default=[],
        metavar="EXPR",
        help='family expression, e.g. "S 7 7", "K4", "C3 + C3" (repeatable)',
    )

    p_enum = sub.add_parser("enumerate", help="census of connected (n,e)-graphs")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("e", type=int)
    p_enum.add_argument("--out", help="write the census in cache format here")

    p_rank = sub.add_parser("rank", help="lowest-energy graphs of a class")
    p_rank.add_argument("n", type=int)
    p_rank.add_argument("e", type=int)
    p_rank.add_argument(
        "--top", type=_integer_at_least(0), default=10, help="rows to print (default 10)"
    )

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument(
        "--check",
        action="append",
        choices=sorted(CHECKS) + ["all"],
        help="check name (repeatable; default all)",
    )
    p_verify.add_argument(
        "--trials",
        type=_integer_at_least(1),
        default=CheckContext.trials,
        help="trial count for seeded checks (default %(default)s)",
    )
    return parser


def _graph_report(label: str, g: Graph, spec: Spectrum, coulson: CoulsonEnergy) -> dict:
    bip = is_bipartite(g)
    row = {
        "input": label,
        "n": g.n,
        "e": g.e,
        "energy": spec.energy,
        "energy_coulson": coulson.value,
        "coulson_error_bound": coulson.error_bound,
        "eigenvalues": list(spec.eigenvalues),
        "charpoly": list(spec.charpoly),
        "b_coeffs": list(b_coeffs(spec.charpoly)),
        "bipartite": bool(bip),
        "class_label": None,
        "class_witness": None,
    }
    try:
        label_obj = classify(g)
    except ScaleError:  # past the order or cycle cap: no label
        return row
    row["class_label"] = label_obj.kind.value
    if label_obj.kind == ClassKind.CLASS2:
        row["class_witness"] = [list(c) for c in label_obj.witness]
    return row


def _parse_graph_line(line: str) -> Graph:
    # Family syntax is tried first. No line parses as both: family terms need
    # a digit and graph6 data bytes never contain one (all data chars >= '?').
    try:
        return family_graph(line)
    except GraphEnergyError as family_err:
        try:
            return graph6_decode(line)
        except GraphEnergyError as g6_err:
            raise GraphEnergyError(
                f"not a family expression ({family_err}) "
                f"nor a graph6 string ({g6_err})"
            ) from None


def _cmd_energy(args) -> int:
    items: list[tuple[str, Graph]] = []
    errors: list[str] = []
    # an error names the argument by position, as it names an input line, so
    # that a huge argument is not echoed back
    for pos, expr in enumerate(args.family, start=1):
        try:
            items.append((expr, family_graph(expr)))
        except GraphEnergyError as exc:
            errors.append(f"--family {pos}: {exc}")
    if args.input:
        if args.input == "-":
            # the bytes under stdin, so that no locale decodes them (a text
            # stream with no bytes under it is read as text)
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            # an OSError reaches main, which reports it with exit 3
            with open(args.input, "rb") as fh:
                data = fh.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8", "surrogateescape")
        for lineno, raw in enumerate(data.splitlines(), start=1):
            try:
                # a byte that is not UTF-8 was escaped above; decoding it strictly fails
                line = raw.encode("utf-8", "surrogateescape").decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                errors.append(f"line {lineno}: not UTF-8 text ({exc})")
                continue
            if not line or line.startswith("#"):
                continue
            try:
                items.append((line, _parse_graph_line(line)))
            except GraphEnergyError as exc:
                errors.append(f"line {lineno}: {exc}")
    if errors:
        for msg in errors:
            print(f"graphenergy: {msg}", file=sys.stderr)
        return _EXIT_USAGE

    specs = spectra([g for _, g in items])
    # no name holds the Coulson results, so they are freed before the output is built
    reports = [
        _graph_report(*item, spec, coulson)
        for item, spec, coulson in zip(
            items, specs, energy_coulsons([s.charpoly for s in specs], tol=args.quad_tol)
        )
    ]
    if args.format == "json":
        print(json.dumps(reports, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["input", "n", "e", "energy", "energy_coulson", "bipartite", "class_label"]
        )
        for r in reports:
            writer.writerow(
                [r["input"], r["n"], r["e"], f"{r['energy']:.10f}",
                 f"{r['energy_coulson']:.10f}", int(r["bipartite"]),
                 r["class_label"] or ""]
            )
    else:
        for r in reports:
            print(f"graph      : {r['input']}")
            print(f"order/size : n={r['n']} e={r['e']}")
            print(f"energy     : {r['energy']:.6f}")
            print(
                f"coulson    : {r['energy_coulson']:.6f} "
                f"(+/- {r['coulson_error_bound']:.1e})"
            )
            print(
                "spectrum   : "
                + " ".join(f"{x:.6f}" for x in r["eigenvalues"])
            )
            print("charpoly   : " + " ".join(str(c) for c in r["charpoly"]))
            print("b-coeffs   : " + " ".join(str(c) for c in r["b_coeffs"]))
            print(f"bipartite  : {'yes' if r['bipartite'] else 'no'}")
            if r["class_label"]:
                line = f"class      : {r['class_label']}"
                if r["class_witness"]:
                    a, b = r["class_witness"]
                    line += f" (odd cycles {a} and {b})"
                print(line)
            print()
    return _EXIT_OK


def _cmd_enumerate(args) -> int:
    census = get_census(args.n, args.e, args.cache_dir)
    if args.out:
        # an OSError reaches main, which reports it with exit 3
        census_cache_store(census, args.out)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "e": args.e,
                    "count": len(census),
                    "out": args.out,
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        print("n,e,count")
        print(f"{args.n},{args.e},{len(census)}")
    else:
        print(len(census))
    return _EXIT_OK


def _cmd_rank(args) -> int:
    report = rank_class(args.n, args.e, args.cache_dir)
    rows = [
        {
            "rank": i + 1,
            "graph6": entry.graph6,
            "energy": entry.energy,
            "charpoly_digest": entry.charpoly_digest,
        }
        for i, entry in enumerate(report.entries[: args.top])
    ]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "e": args.e,
                    "class_size": len(report.entries),
                    "ties": [list(t) for t in report.ties],
                    "rows": rows,
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["rank", "graph6", "energy", "charpoly_digest"])
        for r in rows:
            writer.writerow([r["rank"], r["graph6"], f"{r['energy']:.10f}", r["charpoly_digest"]])
    else:
        print(f"class ({args.n},{args.e}): {len(report.entries)} graphs")
        for r in rows:
            print(f"{r['rank']:>4}  {r['graph6']:<16} {r['energy']:.8f}  {r['charpoly_digest']}")
        if report.ties:
            print(f"ties within {ENERGY_TIE_TOL:g}: {[t[:2] for t in report.ties]}")
    return _EXIT_OK


def render_text(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"=== {r.name}: {'PASS' if r.passed else 'FAIL'} "
                     f"({len(r.evidence)} evidence rows, {r.runtime:.2f}s)")
        rows = r.evidence if not r.passed else r.evidence[:12]
        for row in rows:
            mark = "ok " if row["ok"] else "FAIL"
            detail = ", ".join(f"{k}={v}" for k, v in row.items() if k != "ok")
            lines.append(f"  [{mark}] {detail}")
        if r.passed and len(r.evidence) > 12:
            lines.append(f"  ... {len(r.evidence) - 12} more rows (all ok)")
    lines.append(
        f"result: {sum(r.passed for r in results)}/{len(results)} checks passed"
    )
    return "\n".join(lines)


def render_json(results: list[CheckResult]) -> str:
    payload = [
        {
            "name": r.name,
            "passed": r.passed,
            "runtime_seconds": round(r.runtime, 3),
            "evidence": r.evidence,
        }
        for r in results
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_verify(args) -> int:
    ctx = CheckContext(cache_dir=args.cache_dir, seed=args.seed, trials=args.trials)
    results = run_checks(args.check, ctx)
    if args.format == "json":
        print(render_json(results))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["check", "passed", "evidence_rows", "runtime_seconds"])
        for r in results:
            writer.writerow([r.name, int(r.passed), len(r.evidence), f"{r.runtime:.2f}"])
    else:
        print(render_text(results))
    return _EXIT_OK if all(r.passed for r in results) else _EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "rank":
            return _cmd_rank(args)
        return _cmd_verify(args)
    except QuadratureAccuracyError as exc:
        print(f"graphenergy: accuracy failure: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED
    except (CorruptCacheError, OSError) as exc:
        print(f"graphenergy: {exc}", file=sys.stderr)
        return _EXIT_IO
    except GraphEnergyError as exc:
        print(f"graphenergy: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
