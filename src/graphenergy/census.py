"""Isomorph-free enumeration of connected (n,e)-graphs with an on-disk cache.

Two independent generation strategies back every census:

* ``edge`` (default): orderly generation. Graphs are grown one edge at a
  time in a fixed column-major pair order; a child is kept only when its
  labelled adjacency code is maximal over all relabellings, and removing the
  last set bit of a maximal code provably yields a maximal code again, so
  every isomorphism class is produced exactly once with no stored dedup.
* ``vertex``: grow connected graphs one vertex (plus its neighbourhood) at a
  time, deduplicating each level by canonical form from the refinement-based
  labeller. Shares no isomorphism machinery with the orderly path.

The tests also match every class with n <= 7 one-to-one against the connected
graphs of "An Atlas of Graphs" (Read & Wilson), as shipped with networkx, using
its VF2 isomorphism test.

Census members are canonical graph6 strings, sorted, so cache files diff
cleanly and reports are stable.
"""

from __future__ import annotations

import datetime as _dt
import functools
import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path

from .canon import canonical_g6, canonical_rows
from .errors import CacheMissError, CorruptCacheError, ScaleError
from .graph6 import encode_rows, graph6_decode
from .graphs import Graph, dsu_find

GENERATOR_VERSION = "graphenergy-census/1"

MAX_ENUM_VERTICES = 10
MAX_ENUM_EXCESS = 3  # e <= n + 3


@dataclass(frozen=True)
class GraphClassCensus:
    """All connected (n,e)-graphs, one canonical graph6 string per class."""

    n: int
    e: int
    graphs: tuple[str, ...]
    generated_at: str
    generator_version: str

    def __len__(self) -> int:
        return len(self.graphs)

    def members(self) -> list[Graph]:
        return [graph6_decode(s) for s in self.graphs]


def _pair_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _column_values(rows: list[int], n: int) -> list[int]:
    cols = [0] * n
    for j in range(1, n):
        v = 0
        for i in range(j):
            v = v << 1 | (rows[i] >> j & 1)
        cols[j] = v
    return cols


def _is_max_code(rows: list[int], n: int) -> bool:
    """True iff no relabelling gives a lexicographically larger column code."""
    cols = _column_values(rows, n)
    placed: list[int] = []

    def walk(depth: int, used: int) -> bool:
        # returns False as soon as an improving permutation exists
        if depth == n:
            return True
        target = cols[depth]
        equals = []
        for w in range(n):
            if used >> w & 1:
                continue
            if depth == 0:
                equals.append(w)
                continue
            v = 0
            rw = rows[w]
            for pv in placed:
                v = v << 1 | (rw >> pv & 1)
            if v > target:
                return False
            if v == target:
                equals.append(w)
        for w in equals:
            placed.append(w)
            ok = walk(depth + 1, used | 1 << w)
            placed.pop()
            if not ok:
                return False
        return True

    return walk(0, 0)


def _generate_orderly(n: int, e: int) -> list[str]:
    """Connected (n,e)-graphs via max-code orderly edge augmentation, as canonical graph6."""
    pairs = _pair_order(n)
    total_pairs = len(pairs)
    out: list[str] = []

    def extend(rows: list[int], m: int, last: int, parent: list[int], comps: int):
        if m == e:
            if comps == 1:
                out.append(canonical_g6(n, rows))
            return
        need = e - m
        for p in range(last + 1, total_pairs):
            if total_pairs - p < need:
                break
            i, j = pairs[p]
            ri, rj = dsu_find(parent, i), dsu_find(parent, j)
            new_comps = comps - (ri != rj)
            # every remaining edge can join at most two components
            if new_comps - 1 > need - 1:
                continue
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            if _is_max_code(rows, n):
                child_parent = parent.copy()
                if ri != rj:
                    child_parent[ri] = rj
                extend(rows, m + 1, p, child_parent, new_comps)
            rows[i] &= ~(1 << j)
            rows[j] &= ~(1 << i)

    if n - 1 <= e:
        extend([0] * n, 0, -1, list(range(n)), n)
    return out


def _generate_vertex_aug(n: int, e: int) -> list[str]:
    """Connected (n,e)-graphs by vertex augmentation with canonical dedup, as canonical graph6."""
    # level maps canonical rows -> edge count, for k-vertex connected graphs
    level: dict[tuple[int, ...], int] = {(0,): 0}
    for k in range(1, n):
        nxt: dict[tuple[int, ...], int] = {}
        remaining_after = n - k - 1
        for adj in sorted(level):
            m = level[adj]
            cap = e - m - remaining_after
            if remaining_after == 0:
                sizes: range | list[int] = [cap] if 1 <= cap <= k else []
            else:
                sizes = range(1, min(k, cap) + 1)
            for size in sizes:
                for subset in itertools.combinations(range(k), size):
                    mask = 0
                    for u in subset:
                        mask |= 1 << u
                    rows = [
                        row | (1 << k) if mask >> v & 1 else row
                        for v, row in enumerate(adj)
                    ]
                    rows.append(mask)
                    nxt.setdefault(canonical_rows(k + 1, rows), m + size)
        level = nxt
    return [encode_rows(n, rows) for rows, m in level.items() if m == e]


_STRATEGIES = {
    "edge": _generate_orderly,
    "vertex": _generate_vertex_aug,
}


@functools.cache
def enumerate_connected(n: int, e: int, *, strategy: str = "edge") -> GraphClassCensus:
    """Census of connected (n,e)-graphs, one canonical representative each.

    Supported envelope: n <= 10 and e <= n + 3. Larger requests fail loudly
    rather than truncating. Censuses are memoised per (n, e, strategy);
    ``enumerate_connected.cache_clear()`` drops them.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if n < 1 or n > MAX_ENUM_VERTICES:
        raise ScaleError(
            f"enumeration supports 1 <= n <= {MAX_ENUM_VERTICES}, got n={n}"
        )
    if e < 0 or e > n + MAX_ENUM_EXCESS:
        raise ScaleError(
            f"enumeration supports 0 <= e <= n+{MAX_ENUM_EXCESS}, got e={e} for n={n}"
        )
    strings = tuple(sorted(_STRATEGIES[strategy](n, e)))
    if len(set(strings)) != len(strings):
        raise RuntimeError(f"duplicate canonical forms in ({n},{e}) census")
    return GraphClassCensus(
        n=n,
        e=e,
        graphs=strings,
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        generator_version=GENERATOR_VERSION,
    )


# --- on-disk cache ----------------------------------------------------------


def _census_paths(directory: Path, n: int, e: int) -> tuple[Path, Path]:
    base = directory / f"census_n{n}_e{e}"
    return base.with_suffix(".g6"), base.with_suffix(".meta")


def _digest(strings) -> str:
    h = hashlib.sha256()
    for s in strings:
        h.update(s.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def census_cache_store(census: GraphClassCensus, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g6_path, meta_path = _census_paths(directory, census.n, census.e)
    g6_path.write_text("".join(s + "\n" for s in census.graphs), encoding="utf-8")
    meta = {
        "n": census.n,
        "e": census.e,
        "count": len(census.graphs),
        "sha256": _digest(census.graphs),
        "generated_at": census.generated_at,
        "generator_version": census.generator_version,
    }
    meta_path.write_text(
        "".join(f"{k}: {v}\n" for k, v in meta.items()), encoding="utf-8"
    )
    return g6_path


def census_cache_load(n: int, e: int, directory) -> GraphClassCensus:
    directory = Path(directory)
    g6_path, meta_path = _census_paths(directory, n, e)
    if not g6_path.exists() or not meta_path.exists():
        raise CacheMissError(f"no cached census for ({n},{e}) under {directory}")
    meta: dict[str, str] = {}
    for line in meta_path.read_text(encoding="utf-8").splitlines():
        if ":" in line:
            k, v = line.split(":", 1)
            meta[k.strip()] = v.strip()
    strings = tuple(
        s for s in g6_path.read_text(encoding="utf-8").splitlines() if s.strip()
    )
    try:
        count = int(meta["count"])
        want_digest = meta["sha256"]
        mn, me = int(meta["n"]), int(meta["e"])
    except (KeyError, ValueError) as exc:
        raise CorruptCacheError(f"malformed sidecar {meta_path}") from exc
    if (mn, me) != (n, e):
        raise CorruptCacheError(f"sidecar {meta_path} describes ({mn},{me}), not ({n},{e})")
    if count != len(strings):
        raise CorruptCacheError(
            f"cache {g6_path} holds {len(strings)} graphs, sidecar says {count}"
        )
    if _digest(strings) != want_digest:
        raise CorruptCacheError(f"cache {g6_path} failed its digest check")
    version = meta.get("generator_version", "")
    if version != GENERATOR_VERSION:
        raise CorruptCacheError(
            f"cache {g6_path} was written by {version!r}, not {GENERATOR_VERSION!r}"
        )
    # a re-signed digest would hide a reordered or repeated line
    if any(a >= b for a, b in zip(strings, strings[1:])):
        raise CorruptCacheError(f"cache {g6_path} is not strictly sorted")
    return GraphClassCensus(
        n=n,
        e=e,
        graphs=strings,
        generated_at=meta.get("generated_at", ""),
        generator_version=version,
    )


def get_census(n: int, e: int, cache_dir=None) -> GraphClassCensus:
    """Load a census from cache when possible, else generate (and store)."""
    if cache_dir is None:
        return enumerate_connected(n, e)
    try:
        return census_cache_load(n, e, cache_dir)
    except CacheMissError:
        census = enumerate_connected(n, e)
        census_cache_store(census, cache_dir)
        return census
