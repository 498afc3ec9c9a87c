"""Isomorph-free enumeration of connected (n,e)-graphs with an on-disk cache.

One generator builds every census: grow connected graphs one vertex (plus
its neighbourhood) at a time, deduplicating each level by canonical form
from the refinement-based labeller. Neighbourhoods in one orbit of the
automorphisms the labeller found for the parent give isomorphic children, so
one per orbit is canonicalised (McKay's isomorph rejection). Before that
search, a child is kept only when its new vertex lies in the first cell of
its root partition (the uniform colouring refined to equitability, as the
labeller's search starts) that holds a non-cut vertex: McKay's canonical
deletion, the walk's one cheap necessary test. Cells are ordered by degree
first, so a non-cut vertex of lower degree than the new vertex rejects the
child before it is refined: the test's first shortcut, and the round-two
pre-test below its second. No class is lost: a connected H on k + 1
vertices has a non-cut vertex; take v, one in the first root cell that
holds one. H - v is connected, with at most e - (n - k) edges, so level k
holds it. The orbit representative that yields H maps the new vertex onto
an image of v, and refinement commutes with relabelling, so the ordered
root partition, and with it "non-cut vertex in the first root cell that
holds one", does not depend on the labelling: that child passes. The search
starts from the refined root it is handed. The last level takes every
neighbourhood size that keeps the edge count within e, so a walk towards
(n, e) fills every class (n, m <= e).

Three exact facts decide most children from degrees, before they are built
or refined; none changes which children reach the search.

* Leaf rule. Let u be a leaf of a parent on k >= 2 vertices and s >= 2 the
  new vertex's degree. Outside the neighbourhood u keeps degree 1; inside
  it has degree 2, and the parent less u, connected, holds another
  neighbour of the new vertex. Either way u is a non-cut vertex of the
  child of degree below s, which the first shortcut rejects, unless s = 2
  and u is inside. So a parent with a leaf takes neighbourhoods of at most
  two vertices, and one of two holds every leaf; the walk skips the rest
  before any orbit work. Automorphisms map leaves onto leaves, so the
  orbit representatives that pass do not change.
* Degree start. The root is refined from the degree-rank colouring, the
  uniform start's first refinement round, so ``_refine`` (whose key keeps
  the tuple-sort refinement's ordered partition from either) returns the
  same root partition.
* Round-two pre-test. Refinement only splits cells in place, and its next
  round orders a degree cell by sorted neighbour colours. A non-cut vertex
  of the new vertex's degree with a smaller list already lies in an
  earlier root cell, so the child is dropped before ``_refine``.

The tests hold this walk against Read's orderly edge walk (``tests/orderly.py``),
which shares no isomorphism machinery with it, on every pin and every
non-empty class with n <= 9, and match every class with n <= 7 one-to-one
against the connected graphs of "An Atlas of Graphs" (Read & Wilson), as
shipped with networkx, using its VF2 isomorphism test.

Census members are canonical graph6 strings, sorted, so cache files diff
cleanly and reports are stable. The walk goes towards the requested (n, e)
and returns every class it completes on the way; one memo, keyed by class,
holds them all. ``PINNED`` freezes the count and digest of every class the
checks rank or count; a cache load and the ``census`` check compare with it.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import itertools
import os
from dataclasses import dataclass
from pathlib import Path

from .canon import _canonical_rows_autos, _refine, canonical_g6
from .errors import CacheMissError, CorruptCacheError, Graph6ParseError, ScaleError
from .graph6 import encode_rows, graph6_decode
from .graphs import Graph, bit_indices, reach

GENERATOR_VERSION = "graphenergy-census/1"

MAX_ENUM_VERTICES = 10
MAX_ENUM_EXCESS = 3  # e <= n + 3

# (n, e) -> (member count, census_digest of the sorted canonical strings) for
# the 17 classes of the bicyclic, tricyclic and tetracyclic theorems plus
# (4,4) and (5,5). Frozen when the vertex walk and the orderly edge walk
# agreed on them; the counts match OEIS A054924. A census that differs from its pin is wrong, whatever
# produced it.
PINNED = {
    (4, 4): (2, "e70d0519e357d24966e186465cffca5e8f845533f09199ea76820f0641eb8bec"),
    (4, 5): (1, "0bf45b40fedf183b8a862603613d656cdff05d5d1c22491e172c07af2fb17d94"),
    (4, 6): (1, "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b"),
    (5, 5): (5, "97f465f9f6fb53fba7f982f6877e8f411fa9957ea16dc85e0c96a0efa22d3063"),
    (5, 6): (5, "49b4760c160e73257c52dc7acbfc2c8a5aeccdb5ba0fb955dd890f605bc780ca"),
    (5, 7): (4, "c2dcad81a5e37c4cfcdc8331442881ffa759b864fe126564ed73937e7171dd4b"),
    (5, 8): (2, "01c1079bd8d60bedc6f35e17fd7d75b3b0683c1e50424f22a5f6fd166844493c"),
    (6, 7): (19, "ff63c1485bcfd6dbd00a97249fc1a04ec66147f79687d1c1c6cbc148bb8ab3c7"),
    (6, 8): (22, "e42f59840652574dbb7b9f77b4cf2755403caaa8dd2ab072436eeb1ab321cfc7"),
    (6, 9): (20, "f23138bcc820da00ebc802f9c6f3d857268cb04168fcdffb45e5e6113ba9c808"),
    (7, 8): (67, "4746626abe0a25e803f0d3e0d3c1823d51cf9d5b2fac684fef1c1de98d8f2144"),
    (7, 9): (107, "858cae3059d9d692487f9ec89a644a88740c84ff4c44959fa967754550ed4c7f"),
    (7, 10): (132, "2abdee7c5429c14050eb3e932503019b9876492c4b4189f45ffce24e18489b34"),
    (8, 9): (236, "b2feac0aeea5036d34966b7819de79371a1b1f91e6a183e55095ac4a14045baf"),
    (8, 10): (486, "dc0f3d531d18b491acba9090b2fdbcd2d72e32ca7cdc548d6c190f2cdc6f6f2d"),
    (8, 11): (814, "b9a96fb06bc3e5c43d5978402bafab542d7e53e9d9942227012d7acad07cdd8d"),
    (9, 10): (797, "15475f973f3e7190bddc881028621a7dce553eebc48f1fb0d5f81006df0bfc84"),
    (9, 11): (2075, "6a1c85bc195bb9a774f763e5e7046ee440e32c3763987b1b0f4684a4d4a90f48"),
    (9, 12): (4495, "e205401d270a740142eaa9230354aca5a1e969a914937820a81a9aa559498809"),
}


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


def _is_non_cut(rows, u: int) -> bool:
    """True iff deleting ``u``, not the last vertex, leaves the graph of ``rows`` connected."""
    rest = (1 << len(rows)) - 1 & ~(1 << u)
    return reach(rows, 1 << len(rows) - 1, rest) == rest


def _root_if_first_non_cut(rows, nbrs):
    """The refined root ``(nbrs, colors, cell)`` of ``rows``, or None when a
    non-cut vertex lies in an earlier root cell than the last vertex.

    The walk's one canonical-deletion test. The root starts from the
    degree-rank colouring (the module docstring's degree start), and cells
    are ordered by degree, so before ``_refine`` only an older vertex of
    lower degree than the last one, or of its degree with smaller sorted
    neighbour colours (the round-two pre-test), needs the reachability test;
    after it, one of its degree whose list is equal. A larger list ends in a
    later cell.
    """
    k = len(rows) - 1
    degrees = [len(nb) for nb in nbrs]
    rank = {d: c for c, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    color = colors.__getitem__
    d, own = degrees[k], sorted(map(color, nbrs[k]))
    ties = []
    for u in range(k):
        if degrees[u] < d and _is_non_cut(rows, u):
            return None
        if degrees[u] == d:
            theirs = sorted(map(color, nbrs[u]))
            if theirs < own:
                if _is_non_cut(rows, u):
                    return None
            elif theirs == own:
                ties.append(u)
    colors, cell = _refine(nbrs, k + 1, colors)
    if any(colors[u] < colors[k] and _is_non_cut(rows, u) for u in ties):
        return None
    return nbrs, colors, cell


def _neighbourhoods(adj, top: int):
    """Each neighbourhood of 1..``top`` vertices of ``adj`` the leaf rule keeps, as (subset, mask).

    A parent with a leaf takes at most two vertices, and two only with every
    leaf among them (see the module docstring).
    """
    leaves = 0
    for v, row in enumerate(adj):
        if row.bit_count() == 1:
            leaves |= 1 << v
    for size in range(1, (min(top, 2) if leaves else top) + 1):
        for subset in itertools.combinations(range(len(adj)), size):
            mask = 0
            for u in subset:
                mask |= 1 << u
            if size == 1 or not leaves & ~mask:
                yield subset, mask


def _vertex_levels(n: int, e: int):
    """Each level of vertex augmentation towards (n, e), from one vertex up.

    A level maps the canonical rows of a connected k-vertex graph to its edge
    count and generators of its automorphism group, written in the canonical
    labelling. Neighbourhood subsets in one orbit of that
    group give isomorphic children, so only one per orbit is canonicalised
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998),
    and only if it passes the leaf rule and the one canonical-deletion test,
    ``_root_if_first_non_cut``, whose refined root the search starts from;
    the level dict still does the deduplication.
    """
    level: dict[tuple[int, ...], tuple[int, tuple[tuple[int, ...], ...]]] = {(0,): (0, ())}
    yield level
    for k in range(1, n):
        nxt: dict[tuple[int, ...], tuple[int, tuple[tuple[int, ...], ...]]] = {}
        remaining_after = n - k - 1
        for adj in sorted(level):
            m, gens = level[adj]
            adj_nbrs = [bit_indices(row) for row in adj]
            images = [[1 << g[v] for v in range(k)] for g in gens]
            seen: set[int] = set()
            for subset, mask in _neighbourhoods(adj, min(k, e - m - remaining_after)):
                if mask in seen:
                    continue
                seen.add(mask)
                orbit = [mask]
                for x in orbit:
                    bits = bit_indices(x)
                    for img in images:
                        y = 0
                        for v in bits:
                            y |= img[v]
                        if y not in seen:
                            seen.add(y)
                            orbit.append(y)
                rows = [
                    row | (1 << k) if mask >> v & 1 else row
                    for v, row in enumerate(adj)
                ]
                rows.append(mask)
                nbrs = [
                    nb + [k] if mask >> v & 1 else nb for v, nb in enumerate(adj_nbrs)
                ]
                nbrs.append(list(subset))
                root = _root_if_first_non_cut(rows, nbrs)
                if root is None:
                    continue
                child, child_gens = _canonical_rows_autos(k + 1, rows, root)
                if child not in nxt:
                    # the last level is never augmented: keep no generators
                    nxt[child] = (m + len(subset), child_gens if remaining_after else ())
        level = nxt
        yield level


def _generate_vertex_aug(n: int, e: int) -> dict[tuple[int, int], list[str]]:
    """Every class (n, m <= e) and every class a level k < n holds, as canonical graph6.

    Each is complete: every vertex still to come needs an edge, so level k < n
    holds every connected k-vertex graph with at most e - (n - k) edges.
    """
    out: dict[tuple[int, int], list[str]] = {(n, m): [] for m in range(e + 1)}
    for k, level in enumerate(_vertex_levels(n, e), 1):
        for rows, (m, _) in level.items():
            out.setdefault((k, m), []).append(encode_rows(k, rows))
    return out


def _check_envelope(n: int, e: int) -> None:
    if n < 1 or n > MAX_ENUM_VERTICES:
        raise ScaleError(
            f"enumeration supports 1 <= n <= {MAX_ENUM_VERTICES}, got n={n}"
        )
    if e < 0 or e > n + MAX_ENUM_EXCESS:
        raise ScaleError(
            f"enumeration supports 0 <= e <= n+{MAX_ENUM_EXCESS}, got e={e} for n={n}"
        )


# (n, e) -> census, for every class any walk has completed
_memo: dict[tuple[int, int], GraphClassCensus] = {}


def enumerate_connected(n: int, e: int) -> GraphClassCensus:
    """Census of connected (n,e)-graphs, one canonical representative each.

    Supported envelope: n <= 10 and e <= n + 3. Larger requests fail loudly
    rather than truncating. The vertex walk goes towards (n, e), and the memo
    keeps every class the walk completes: every (n, m <= e) and every class
    its levels k < n hold. ``enumerate_connected.cache_clear()`` drops the memo.
    """
    _check_envelope(n, e)
    if (n, e) not in _memo:
        now = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
        for (k, m), found in _generate_vertex_aug(n, e).items():
            strings = tuple(sorted(found))
            if len(set(strings)) != len(strings):
                raise RuntimeError(f"duplicate canonical forms in ({k},{m}) census")
            _memo[k, m] = GraphClassCensus(k, m, strings, now, GENERATOR_VERSION)
    return _memo[n, e]


enumerate_connected.cache_clear = _memo.clear


# --- on-disk cache ----------------------------------------------------------


def _census_paths(directory: Path, n: int, e: int) -> tuple[Path, Path]:
    base = directory / f"census_n{n}_e{e}"
    return base.with_suffix(".g6"), base.with_suffix(".meta")


def census_digest(strings) -> str:
    """SHA-256 of a census file: one string per line, newline-terminated."""
    h = hashlib.sha256()
    for s in strings:
        h.update(s.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: a temp file, then os.replace."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def census_cache_store(census: GraphClassCensus, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g6_path, meta_path = _census_paths(directory, census.n, census.e)
    meta = {
        "n": census.n,
        "e": census.e,
        "count": len(census.graphs),
        "sha256": census_digest(census.graphs),
        "generated_at": census.generated_at,
        "generator_version": census.generator_version,
    }
    # data first, sidecar last: a store cut in between leaves no sidecar (a
    # miss) or the old one, which matches since censuses are deterministic
    _replace_file(g6_path, "".join(s + "\n" for s in census.graphs))
    _replace_file(meta_path, "".join(f"{k}: {v}\n" for k, v in meta.items()))
    return g6_path


def _check_members(strings: tuple[str, ...], n: int, e: int, g6_path: Path) -> None:
    """Reject any string that is not a canonical connected (n,e)-graph."""
    for s in strings:
        try:
            g = graph6_decode(s)
        except (Graph6ParseError, ScaleError) as exc:
            raise CorruptCacheError(f"cache {g6_path} holds undecodable {s!r}") from exc
        if (g.n, g.e) != (n, e) or not g.is_connected() or canonical_g6(n, g.adj) != s:
            raise CorruptCacheError(
                f"cache {g6_path} holds {s!r}, not a canonical connected ({n},{e})-graph"
            )


def census_cache_load(n: int, e: int, directory) -> GraphClassCensus:
    """Cached census of (n, e).

    Raises ``ScaleError`` outside the enumeration envelope, ``CacheMissError``
    when no file pair exists, and ``CorruptCacheError`` when a load check
    fails (see the README's "Enumeration" section).
    """
    _check_envelope(n, e)
    directory = Path(directory)
    g6_path, meta_path = _census_paths(directory, n, e)
    if not g6_path.exists() or not meta_path.exists():
        raise CacheMissError(f"no cached census for ({n},{e}) under {directory}")
    try:
        meta_lines = meta_path.read_text(encoding="utf-8").splitlines()
        lines = g6_path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CorruptCacheError(f"cache {g6_path} or its sidecar is not text: {exc}") from exc
    meta: dict[str, str] = {}
    for line in meta_lines:
        if ":" in line:
            k, v = line.split(":", 1)
            meta[k.strip()] = v.strip()
    strings = tuple(s for s in lines if s.strip())
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
    digest = census_digest(strings)
    if digest != want_digest:
        raise CorruptCacheError(f"cache {g6_path} failed its digest check")
    version = meta.get("generator_version", "")
    if version != GENERATOR_VERSION:
        raise CorruptCacheError(
            f"cache {g6_path} was written by {version!r}, not {GENERATOR_VERSION!r}"
        )
    # a re-signed digest would hide a reordered or repeated line
    if any(a >= b for a, b in zip(strings, strings[1:])):
        raise CorruptCacheError(f"cache {g6_path} is not strictly sorted")
    # the sidecar signs itself; only the pin, or for an unpinned class the
    # members themselves, show that the strings are the census
    pin = PINNED.get((n, e))
    if pin is None:
        _check_members(strings, n, e, g6_path)
    elif (len(strings), digest) != pin:
        raise CorruptCacheError(f"cache {g6_path} is not the pinned ({n},{e}) census")
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
