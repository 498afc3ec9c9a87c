"""The benchmark's own answers and output checks.

Nothing here imports graphenergy: graphs are decoded, built and compared with
code of the benchmark's own, and reference energies come straight from
``np.linalg.eigvalsh``, so a wrong answer in the program cannot also hide in
its check.
"""

from __future__ import annotations

import json
import random

import numpy as np

ENERGY_TOL = 1e-9  # program energy against the eigvalsh reference
DUAL_TOL = 1e-6  # eigensolver energy against Coulson energy
COULSON_BOUND = 1e-7  # the CLI's default quadrature tolerance
TIE_TOL = 1e-8  # energies this close rank as ties

VERIFY_CHECKS = (
    "census", "bicyclic", "tricyclic", "tetracyclic", "closed-forms",
    "family-inequalities", "edge-cut", "class-split", "dual-energy",
)


def decode_graph6(text: str) -> list[int]:
    """Adjacency bitmask rows of a single-byte-size graph6 string."""
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> (5 - t) & 1 for ch in text[1:] for t in range(6)]
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def encode_graph6(n: int, edges) -> str:
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def random_sparse_graph6(rng: random.Random, n: int) -> str:
    """A connected graph with max(n + n // 4, n (n - 1) // 16) edges.

    A random recursive tree plus random chords: about one pair in eight is an
    edge at n = 62, where the characteristic polynomial's coefficients pass
    64 bits (about 71 bits).
    """
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = max(n + n // 4, n * (n - 1) // 16)
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return encode_graph6(n, edges)


def reference_energies(graph6_strings) -> dict[str, float]:
    """Energy of each graph from a stacked eigvalsh call per order."""
    by_order: dict[int, list[str]] = {}
    for s in set(graph6_strings):
        by_order.setdefault(ord(s[0]) - 63, []).append(s)
    out = {}
    for n, strings in by_order.items():
        mats = np.zeros((len(strings), n, n))
        for k, s in enumerate(strings):
            for v, row in enumerate(decode_graph6(s)):
                for u in range(n):
                    if row >> u & 1:
                        mats[k, v, u] = 1.0
        energies = np.abs(np.linalg.eigvalsh(mats)).sum(axis=1)
        out.update(zip(strings, energies.tolist()))
    return out


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Backtracking isomorphism test on bitmask rows (small n only)."""
    n = len(a)
    if n != len(b):
        return False
    da = [r.bit_count() for r in a]
    db = [r.bit_count() for r in b]
    if sorted(da) != sorted(db):
        return False
    order = sorted(range(n), key=lambda v: -da[v])
    image = [0] * n

    def extend(k: int, used: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used >> w & 1 or db[w] != da[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in order[:k]):
                image[v] = w
                if extend(k + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def tie_groups(energies: list[float]) -> list[tuple[int, int]]:
    """Half-open index ranges of sorted energies chained within TIE_TOL."""
    groups = []
    lo = 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or energies[i] - energies[i - 1] > TIE_TOL:
            groups.append((lo, i))
            lo = i
    return groups


def rank_problems(entries, census, ref, frozen_count: int, rank0_graph6: str) -> list[str]:
    """What is wrong with one class's ranking; empty when it is right.

    ``entries`` are ``(graph6, energy)`` pairs in the program's order.
    """
    problems = []
    got = [g for g, _ in entries]
    energies = [x for _, x in entries]
    if len(got) != frozen_count:
        problems.append(f"{len(got)} members, frozen count {frozen_count}")
    if sorted(got) != sorted(census):
        problems.append("members differ from the census")
    if any(b < a for a, b in zip(energies, energies[1:])):
        problems.append("energies decrease")
    if any(g not in ref or abs(x - ref[g]) > ENERGY_TOL for g, x in entries):
        problems.append("energy off the eigvalsh reference")
    expected = sorted(census, key=lambda g: (ref[g], g))
    for lo, hi in tie_groups([ref[g] for g in expected]):
        if set(got[lo:hi]) != set(expected[lo:hi]):
            problems.append(f"ranks {lo}..{hi - 1} hold the wrong graphs")
            break
    if not got or not isomorphic(decode_graph6(got[0]), decode_graph6(rank0_graph6)):
        problems.append("rank 0 is not the claimed family")
    return problems


def verify_failures(returncode: int, stdout: str, names=VERIFY_CHECKS) -> int:
    """Checks named that did not pass, counting a bad exit as all of them."""
    if returncode != 0:
        return len(names)
    try:
        results = json.loads(stdout)
        passed = {r["name"] for r in results if r["passed"] is True}
    except (ValueError, TypeError, KeyError):
        return len(names)
    return sum(name not in passed for name in names)


def energy_failures(returncode: int, stdout: str, lines: list[str], ref) -> int:
    """Input lines without a correct report row; a bad exit fails them all."""
    if returncode != 0:
        return len(lines)
    try:
        rows = json.loads(stdout)
    except ValueError:
        return len(lines)
    if not isinstance(rows, list) or len(rows) != len(lines):
        return len(lines)
    failed = 0
    for line, row in zip(lines, rows):
        try:
            ok = (
                row["input"] == line
                and abs(row["energy"] - row["energy_coulson"]) <= DUAL_TOL
                and row["coulson_error_bound"] <= COULSON_BOUND
                and abs(row["energy"] - ref[line]) <= ENERGY_TOL
            )
        except (KeyError, TypeError):
            ok = False
        failed += not ok
    return failed
