"""Executable verification checks with pass/fail results and numeric evidence.

Every check is called as ``check(ctx)`` with one :class:`CheckContext` and
returns its evidence rows, which carry every value compared, so a failure
localizes immediately (enumeration, spectra, or family constructors).
:func:`run_checks` times each check and passes it when every row is ok.
Checks are deterministic given their seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import time
from dataclasses import dataclass, field

from .census import PINNED, census_digest, enumerate_connected, get_census
from .classify import ClassKind, classify, is_bipartite, is_edge_cut
from .graphs import (
    Graph,
    disjoint_union,
    delete_edges,
    family_graph,
    make_b_graph,
    make_cycle,
    make_s_graph,
)
from .spectral import (
    b_coeffs,
    census_energies,
    char_polys,
    closed_form_charpoly,
    energy_coulsons,
    spectra,
)
from .canon import canonical_g6

ENERGY_TIE_TOL = 1e-8
DUAL_ENERGY_TOL = 1e-6
DUAL_ENERGY_CLASSES = ((4, 4), (5, 6), (6, 8), (7, 10))
INEQUALITY_MARGIN = 1e-9  # a family inequality holds only by more than this


@dataclass(frozen=True)
class RankedGraph:
    graph6: str
    energy: float
    charpoly_digest: str


@dataclass(frozen=True)
class RankReport:
    """Energy-ordered census of one (n,e) class with tie diagnostics."""

    n: int
    e: int
    entries: tuple[RankedGraph, ...]
    ties: tuple[tuple[int, int, bool], ...]  # (index, index, cospectral)

    @property
    def minimal(self) -> RankedGraph:
        return self.entries[0]


@dataclass(frozen=True)
class CheckContext:
    """What a check may read: census cache directory, seed and trial count."""

    cache_dir: str | None = None
    seed: int = 1729
    trials: int = 500


@dataclass
class CheckResult:
    name: str
    passed: bool
    evidence: list[dict] = field(default_factory=list)
    runtime: float = 0.0

    def failures(self) -> list[dict]:
        return [row for row in self.evidence if not row["ok"]]


def rank_class(n: int, e: int, cache_dir=None) -> RankReport:
    """Enumerate the class, compute authoritative energies, sort, mark ties.

    The census strings go straight to stacked solves, one chunk at a time,
    keeping only each graph's (energy, graph6, polynomial).
    """
    strings = get_census(n, e, cache_dir).graphs
    # by energy, then string: strings are distinct
    rows = sorted((en, s, p) for s, (en, p) in zip(strings, census_energies(n, strings)))
    ties = tuple(
        (i, i + 1, a[2] == b[2])
        for i, (a, b) in enumerate(zip(rows, rows[1:]))
        if b[0] - a[0] <= ENERGY_TIE_TOL
    )
    digest = ",".join(["%d"] * (n + 1))  # a polynomial's comma-separated coefficients
    entries = tuple(
        RankedGraph(s, en, hashlib.sha256((digest % p).encode()).hexdigest()[:16])
        for en, s, p in rows
    )
    return RankReport(n, e, entries, ties)


def _canon_of_family(text: str) -> str:
    g = family_graph(text)
    return canonical_g6(g.n, g.adj)


def _expect_rank(report: RankReport, index: int, family: str) -> dict:
    got = report.entries[index]
    want = _canon_of_family(family)
    gap = None
    if index + 1 < len(report.entries):
        gap = report.entries[index + 1].energy - got.energy
    return {
        "n": report.n,
        "e": report.e,
        "rank": index,
        "expected_family": family,
        "expected_graph6": want,
        "actual_graph6": got.graph6,
        "energy": got.energy,
        "gap_to_next": gap,
        "ok": got.graph6 == want,
    }


# (n, e) -> (rank, family) pairs that the bicyclic (e = n + 1), tricyclic
# (e = n + 2) and tetracyclic (e = n + 3) theorems claim, in evidence order
CLAIMS = {
    (4, 5): ((0, "S 4 5"),),
    (5, 6): ((0, "B 5 6"), (1, "S 5 6")),
    (6, 7): ((0, "B 6 7"), (2, "S 6 7")),
    (7, 8): ((0, "B 7 8"), (1, "S 7 8")),
    (8, 9): ((0, "S 8 9"),),
    (9, 10): ((0, "S 9 10"),),
    (4, 6): ((0, "K 4"),),
    (5, 7): ((0, "S 5 7"),),
    (6, 8): ((0, "B 6 8"), (1, "S 6 8")),
    (7, 9): ((0, "B 7 9"),),
    (8, 10): ((0, "B 8 10"),),
    (9, 11): ((0, "B 9 11"),),
    (5, 8): ((0, "W 5"),),
    (6, 9): ((0, "Kb 3 3"), (1, "S 6 9")),
    (7, 10): ((0, "B 7 10"), (1, "S 7 10")),
    (8, 11): ((0, "B 8 11"),),
    (9, 12): ((0, "B 9 12"),),
}


def _theorem_check(ctx: CheckContext, excess: int) -> list[dict]:
    """Rank every ``CLAIMS`` class with e = n + ``excess`` and compare its claims."""
    evidence = []
    for (n, e), claims in CLAIMS.items():
        if e - n == excess:
            report = rank_class(n, e, ctx.cache_dir)
            for index, family in claims:
                evidence.append(_expect_rank(report, index, family))
    evidence.append(
        {
            "item": "coverage-note",
            "detail": "exhaustive enumeration covers the orders listed above; "
            "larger orders are covered numerically by the family-inequalities check",
            "ok": True,
        }
    )
    return evidence


def _ineq(label: str, n: int, lhs_name: str, lhs: float, rel: str, rhs_name: str,
          rhs: float) -> dict:
    ok = lhs < rhs - INEQUALITY_MARGIN if rel == "<" else lhs > rhs + INEQUALITY_MARGIN
    return {
        "item": label,
        "n": n,
        "lhs": f"{lhs_name}={lhs:.10f}",
        "rel": rel,
        "rhs": f"{rhs_name}={rhs:.10f}",
        "margin": abs(rhs - lhs),
        "ok": ok,
    }


def default_inequality_range() -> list[int]:
    return list(range(6, 21)) + [25, 30, 35, 40]


# fixed reference energies, five decimals
REFERENCE_ENERGIES = (
    ("K 4", 6.0),
    ("S 4 4", 4.96239),
    ("B 7 9", 7.21110),
    ("S 7 7", 6.64681),
    ("B 8 10", 7.91375),
    ("S 8 8", 7.07326),
    ("B 9 11", 8.46834),
    ("S 9 9", 7.46410),
    ("S 5 7", 6.0),
    ("S 5 5", 5.62721),
)


def _inequality_items() -> list[tuple]:
    """(item, n, lhs name, lhs, rel, rhs name, rhs) of every family inequality.

    A side is a graph, standing for its energy, or a number.
    """
    items = []
    for n in default_inequality_range():
        # star-versus-bipartite regimes at e = n+1, n+2, n+3; the e = n+3 rows are
        # the paper's tetracyclic crossover at n = 12 (B below S up to n = 11)
        for e in (n + 1, n + 2, n + 3):
            if e > 2 * (n - 2):
                continue
            star = f"E(S({n},{e}))", make_s_graph(n, e)
            bip = f"E(B({n},{e}))", make_b_graph(n, e)
            if e <= 1.5 * n - 3:
                items.append(("star-vs-bipartite", n, *star, "<", *bip))
            elif e >= 1.5 * n - 2.5:
                items.append(("star-vs-bipartite", n, *bip, "<", *star))

        u3 = disjoint_union(make_s_graph(n - 3, n - 3), make_cycle(3))
        s0, s1, s2 = make_s_graph(n, n), make_s_graph(n, n + 1), make_s_graph(n, n + 2)
        items += [
            ("triangle-union-vs-bicyclic", n, f"E(S({n - 3},{n - 3})+C3)", u3, ">",
             f"E(S({n},{n + 1}))", s1),
            ("bicyclic-vs-unicyclic", n, f"E(S({n},{n + 1}))", s1, ">", f"E(S({n},{n}))", s0),
            ("triangle-union-vs-tricyclic", n, f"E(S({n - 3},{n - 3})+C3)", u3, ">",
             f"E(S({n},{n + 2}))", s2),
            ("tricyclic-vs-unicyclic", n, f"E(S({n},{n + 2}))", s2, ">", f"E(S({n},{n}))", s0),
        ]

        # quadrilateral union sits strictly below the triangle union
        if n >= 7:
            u4 = disjoint_union(make_cycle(4), make_s_graph(n - 4, n - 4))
            items.append(("quadrilateral-union-vs-triangle-union", n,
                          f"E(C4+S({n - 4},{n - 4}))", u4, "<", f"E(S({n - 3},{n - 3})+C3)", u3))

        # triangle union versus tetracyclic star family
        et = make_s_graph(n, n + 3)
        if n <= 14:
            items.append(("triangle-union-vs-tetracyclic", n,
                          f"E(S({n - 3},{n - 3})+C3)", u3, ">", f"E(S({n},{n + 3}))", et))
        else:
            upper = 4 + math.sqrt(n - 1) + math.sqrt(n + 3)
            lower = 4 + math.sqrt(2) + 2 * math.sqrt(n - 4)
            items += [
                ("tetracyclic-star-upper-bound", n, f"E(S({n},{n + 3}))", et, "<",
                 "4+sqrt(n-1)+sqrt(n+3)", upper),
                ("triangle-union-lower-bound", n, f"E(S({n - 3},{n - 3})+C3)", u3, ">",
                 "4+sqrt(2)+2*sqrt(n-4)", lower),
                ("bound-chain", n, "upper", upper, "<", "lower", lower),
            ]

    # tricyclic-bipartite family against the unicyclic star family, 7..9
    for n in (7, 8, 9):
        items.append(("tricyclic-bipartite-vs-unicyclic", n, f"E(B({n},{n + 2}))",
                      make_b_graph(n, n + 2), ">", f"E(S({n},{n}))", make_s_graph(n, n)))
    items.append(("tricyclic-bipartite-vs-unicyclic", 4, "E(K4)", 6.0, ">",
                  "E(S(4,4))", make_s_graph(4, 4)))
    return items


def check_family_inequalities(ctx: CheckContext) -> list[dict]:
    """Numeric verification of the pairwise family-energy inequalities."""
    references = [family_graph(fam) for fam, _ in REFERENCE_ENERGIES]
    items = _inequality_items()
    # the items share most of their graphs: one solve over the distinct ones
    graphs = list(dict.fromkeys(
        references + [x for item in items for x in (item[3], item[6]) if isinstance(x, Graph)]
    ))
    energy_of = dict(zip(graphs, [s.energy for s in spectra(graphs)]))
    ev = [
        {
            "item": "reference-energies",
            "family": fam,
            "expected": want,
            "actual": energy_of[g],
            "ok": abs(energy_of[g] - want) < 1e-5,
        }
        for (fam, want), g in zip(REFERENCE_ENERGIES, references)
    ]
    for label, n, lhs_name, lhs, rel, rhs_name, rhs in items:
        lhs, rhs = (energy_of[x] if isinstance(x, Graph) else x for x in (lhs, rhs))
        ev.append(_ineq(label, n, lhs_name, lhs, rel, rhs_name, rhs))
    return ev


def check_closed_forms(ctx: CheckContext) -> list[dict]:
    """Exact agreement of computed polynomials with the reference closed forms, 6 <= n <= 12."""
    keys = [(n, n + e_off) for n in range(6, 13) for e_off in (0, 2, 3)]
    polys = dict(zip(keys, char_polys([make_s_graph(n, e) for n, e in keys])))
    ev = []
    for n in range(6, 13):
        for e_off in (0, 2, 3):
            e = n + e_off
            got = polys[n, e]
            want = closed_form_charpoly(n, e)
            ev.append(
                {
                    "item": "closed-form",
                    "family": f"S({n},{e})",
                    "computed": list(got),
                    "closed_form": list(want),
                    "ok": got == want,
                }
            )
        b4 = b_coeffs(polys[n, n + 3])[4]
        ev.append(
            {
                "item": "b4-correction",
                "n": n,
                "b4": b4,
                "expected": 4 * n - 24,
                "rejected_variant": 4 * n - 18,
                "ok": b4 == 4 * n - 24 and b4 != 4 * n - 18,
            }
        )
    return ev


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def check_edge_cut_lemma(ctx: CheckContext) -> list[dict]:
    """Energy never increases when an edge cut is deleted; seeded trials.

    No draw reads an energy, so every trial is drawn first and one solve
    gives the energies of all of them.
    """
    rng = random.Random(ctx.seed)
    trials = []  # (graph, cut, a non-cut edge to delete or None)
    non_cut_logged = 0
    while len(trials) < ctx.trials:
        n = rng.randint(3, 10)
        g = _random_graph(rng, n, rng.uniform(0.25, 0.8))
        if g.e == 0:
            continue
        side = [v for v in range(n) if rng.random() < 0.5]
        if not side or len(side) == n:
            continue
        in_side = set(side)
        cut = [
            (u, v) for u, v in g.edges() if (u in in_side) != (v in in_side)
        ]
        if not cut:
            continue
        if not is_edge_cut(g, cut):
            raise RuntimeError("internal: crossing edge set failed the cut predicate")
        # non-cut deletions may move energy either way; log the first few
        sub = None
        if non_cut_logged < 3 and g.e > len(cut):
            others = [ed for ed in g.edges() if ed not in cut]
            sub = rng.sample(others, 1)
            if is_edge_cut(g, sub):
                sub = None
            else:
                non_cut_logged += 1
        trials.append((g, cut, sub))
    graphs = []
    for g, cut, sub in trials:
        graphs += [g, delete_edges(g, cut)] + ([delete_edges(g, sub)] if sub else [])
    energies = iter([s.energy for s in spectra(graphs)])
    ev = []
    violations = 0
    for done, (g, cut, sub) in enumerate(trials, 1):
        before, after = next(energies), next(energies)
        ok = after <= before + 1e-9
        if not ok:
            violations += 1
        if not ok or done <= 5:
            ev.append(
                {
                    "item": "edge-cut-monotonicity",
                    "n": g.n,
                    "edges": g.e,
                    "cut_size": len(cut),
                    "energy_before": before,
                    "energy_after": after,
                    "ok": ok,
                }
            )
        if sub:
            ev.append(
                {
                    "item": "non-cut-deletion (informational)",
                    "n": g.n,
                    "energy_before": before,
                    "energy_after": next(energies),
                    "ok": True,
                }
            )
    ev.append(
        {
            "item": "summary",
            "trials": ctx.trials,
            "violations": violations,
            "seed": ctx.seed,
            "ok": violations == 0 and bool(trials),
        }
    )
    return ev


def check_census_counts(ctx: CheckContext) -> list[dict]:
    """Each pinned class's count and digest against its pin."""
    ev = []
    # largest first: the walk towards (9,12) fills every pinned class
    for (n, e), (count, digest) in sorted(PINNED.items(), reverse=True):
        census = enumerate_connected(n, e)
        digest_ok = census_digest(census.graphs) == digest
        ev.append({"item": "known-count", "n": n, "e": e, "expected": count,
                   "actual": len(census), "digest_matches_pin": digest_ok,
                   "ok": len(census) == count and digest_ok})
    return ev[::-1]


# Vertex-disjoint class-2 counts per bicyclic census, frozen from enumeration,
# plus how many members flip to class 2 under an edge-disjoint reading (cycle
# pairs sharing a vertex but no edge exist from n = 5 on).
CLASS_SPLIT_EXPECTED = {
    (4, 5): {"class2": 0, "edge_reading_extra": 0},
    (5, 6): {"class2": 0, "edge_reading_extra": 1},
    (6, 7): {"class2": 1, "edge_reading_extra": 2},
    (7, 8): {"class2": 3, "edge_reading_extra": 7},
    (8, 9): {"class2": 13, "edge_reading_extra": 19},
}


def check_class_split(ctx: CheckContext) -> list[dict]:
    """Class-1/class-2 split of bicyclic censuses under both disjointness readings."""
    ev = []
    for (n, e), want in sorted(CLASS_SPLIT_EXPECTED.items()):
        census = get_census(n, e, ctx.cache_dir)
        class2 = 0
        edge_extra = 0
        witness_ok = True
        bipartite_ok = True
        for g in census.members():
            label = classify(g)
            edge_label = classify(g, disjointness="edge")
            if label.kind == ClassKind.CLASS2:
                class2 += 1
                a, b = label.witness
                if (
                    len(a) % 2 == 0
                    or len(b) % 2 == 0
                    or (len(a) + len(b)) % 4 != 2
                    or set(a) & set(b)
                ):
                    witness_ok = False
            elif edge_label.kind == ClassKind.CLASS2:
                edge_extra += 1
            if is_bipartite(g) and label.kind != ClassKind.CLASS1:
                bipartite_ok = False
        ok = (
            class2 == want["class2"]
            and edge_extra == want["edge_reading_extra"]
            and witness_ok
            and bipartite_ok
        )
        ev.append(
            {
                "item": "class-split",
                "n": n,
                "e": e,
                "class1": len(census) - class2,
                "class2": class2,
                "edge_reading_extra_class2": edge_extra,
                "expected": want,
                "witnesses_valid": witness_ok,
                "bipartite_all_class1": bipartite_ok,
                "ok": ok,
            }
        )
    return ev


def check_dual_energy(ctx: CheckContext) -> list[dict]:
    """Eigenvalue energy versus contour-integral energy over whole censuses."""
    ev = []
    worst = 0.0
    for n, e in DUAL_ENERGY_CLASSES:
        census = get_census(n, e, ctx.cache_dir)
        rows = list(census_energies(n, census.graphs))
        # the contour integral sees only the exact polynomials
        coulsons = energy_coulsons([p for _, p in rows])
        bad = 0
        for s, (en, _), c in zip(census.graphs, rows, coulsons):
            diff = abs(en - c.value)
            worst = max(worst, diff)
            if diff > DUAL_ENERGY_TOL:
                bad += 1
                ev.append(
                    {"item": "dual-energy", "graph6": s, "difference": diff, "ok": False}
                )
        ev.append(
            {
                "item": "dual-energy-class",
                "n": n,
                "e": e,
                "graphs": len(census),
                "violations": bad,
                "ok": bad == 0,
            }
        )
    ev.append({"item": "summary", "worst_difference": worst, "tolerance": DUAL_ENERGY_TOL,
               "ok": worst <= DUAL_ENERGY_TOL})
    return ev


# the theorem checks and the excess e - n of the CLAIMS classes each ranks
THEOREM_EXCESS = {"bicyclic": 1, "tricyclic": 2, "tetracyclic": 3}

# name -> check(ctx) returning evidence rows
CHECKS = {
    "census": check_census_counts,
    **{name: functools.partial(_theorem_check, excess=k) for name, k in THEOREM_EXCESS.items()},
    "closed-forms": check_closed_forms,
    "family-inequalities": check_family_inequalities,
    "edge-cut": check_edge_cut_lemma,
    "class-split": check_class_split,
    "dual-energy": check_dual_energy,
}


def run_checks(names=None, ctx: CheckContext = CheckContext()) -> list[CheckResult]:
    """Run the named checks (all of them when none is named or "all" is among
    the names, each name once); each passes when every evidence row is ok."""
    selected = list(CHECKS) if not names or "all" in names else list(dict.fromkeys(names))
    unknown = [x for x in selected if x not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check(s): {', '.join(unknown)}")
    # the largest class that the selected theorem checks rank: the first of
    # them gets it first, and the one walk towards it fills every class they
    # rank, as in the census check
    excesses = {THEOREM_EXCESS[x] for x in selected if x in THEOREM_EXCESS}
    largest = max(((n, e) for n, e in CLAIMS if e - n in excesses), default=None)
    results = []
    for name in selected:
        t0 = time.perf_counter()
        if name in THEOREM_EXCESS and largest:
            get_census(*largest, ctx.cache_dir)
            largest = None
        rows = CHECKS[name](ctx)
        results.append(
            CheckResult(name, all(row["ok"] for row in rows), rows, time.perf_counter() - t0)
        )
    return results
