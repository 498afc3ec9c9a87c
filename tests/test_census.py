import pytest

from graphenergy import (
    CacheMissError,
    CorruptCacheError,
    ScaleError,
    canonical_label,
    census_cache_load,
    census_cache_store,
    enumerate_connected,
    get_census,
    graph6_decode,
)
from graphenergy.census import (
    GENERATOR_VERSION,
    _generate_orderly,
    _generate_vertex_aug,
)

KNOWN = {
    (3, 3): 1,
    (4, 4): 2,
    (5, 5): 5,
    (5, 6): 5,
    (5, 7): 4,
    (5, 8): 2,
    (6, 7): 19,
    (6, 8): 22,
    (6, 9): 20,
}


@pytest.mark.parametrize("n,e", sorted(KNOWN))
def test_known_counts(n, e):
    assert len(enumerate_connected(n, e)) == KNOWN[(n, e)]


def test_members_are_connected_canonical_and_distinct():
    census = enumerate_connected(6, 9)
    assert len(set(census.graphs)) == len(census.graphs)
    assert list(census.graphs) == sorted(census.graphs)
    for s in census.graphs:
        g = graph6_decode(s)
        assert (g.n, g.e) == (6, 9)
        assert g.is_connected()
        assert canonical_label(g).graph6 == s


def test_strategies_agree_through_n6():
    for n in range(1, 7):
        for e in range(max(0, n - 1), n + 4):
            edge = enumerate_connected(n, e).graphs
            vertex = enumerate_connected(n, e, strategy="vertex").graphs
            assert edge == vertex, (n, e)


def test_strategies_agree_at_n7():
    for e in range(6, 11):
        edge = enumerate_connected(7, e).graphs
        assert edge == enumerate_connected(7, e, strategy="vertex").graphs, e


def test_census_matches_graph_atlas():
    # "An Atlas of Graphs" (Read & Wilson) lists every graph on <= 7 vertices
    # and networkx's VF2 matcher shares no code with graphenergy.canon: each
    # connected atlas graph must match exactly one census member and each
    # member exactly one atlas graph
    nx = pytest.importorskip("networkx")

    def degrees(h):
        return tuple(sorted(d for _, d in h.degree()))

    atlas: dict[tuple[int, int], list] = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_connected(h):
            atlas.setdefault((h.number_of_nodes(), h.number_of_edges()), []).append(h)
    classes = [(n, e) for n in range(1, 8) for e in range(n - 1, n + 4)]
    assert len(classes) == 35
    assert sum(len(atlas.get(key, [])) for key in classes) == 459
    for n, e in classes:
        members = [
            nx.from_numpy_array(g.adjacency_matrix())
            for g in enumerate_connected(n, e).members()
        ]
        buckets: dict[tuple[int, ...], list[int]] = {}
        for i, h in enumerate(members):
            buckets.setdefault(degrees(h), []).append(i)
        hits = [0] * len(members)
        for h in atlas.get((n, e), []):
            found = [
                i
                for i in buckets.get(degrees(h), [])
                if nx.is_isomorphic(h, members[i])
            ]
            assert len(found) == 1, (n, e, sorted(h.edges()), found)
            hits[found[0]] += 1
        assert hits == [1] * len(members), (n, e, hits)


def test_trivial_and_empty_classes():
    assert enumerate_connected(1, 0).graphs == ("@",)
    assert len(enumerate_connected(2, 1)) == 1
    assert len(enumerate_connected(4, 2)) == 0  # too few edges to connect
    assert len(enumerate_connected(3, 6)) == 0  # more edges than pairs


def test_envelope_errors_fail_loudly():
    with pytest.raises(ScaleError):
        enumerate_connected(11, 20)
    with pytest.raises(ScaleError):
        enumerate_connected(6, 10)  # e > n+3
    with pytest.raises(ScaleError):
        enumerate_connected(0, 0)
    with pytest.raises(ValueError):
        enumerate_connected(5, 5, strategy="psychic")
    with pytest.raises(ValueError):
        enumerate_connected(5, 5, strategy="filter")


def test_generators_return_exact_parameters():
    for gen in (_generate_orderly, _generate_vertex_aug):
        for g in gen(5, 6):
            assert (g.n, g.e) == (5, 6)
            assert g.is_connected()


def test_determinism_across_runs():
    a = _generate_orderly(6, 8)
    b = _generate_orderly(6, 8)
    assert [g.adj for g in a] == [g.adj for g in b]
    va = _generate_vertex_aug(6, 8)
    vb = _generate_vertex_aug(6, 8)
    assert [g.adj for g in va] == [g.adj for g in vb]


class TestCache:
    def test_store_then_load_roundtrip(self, tmp_path):
        census = enumerate_connected(6, 9)
        census_cache_store(census, tmp_path)
        loaded = census_cache_load(6, 9, tmp_path)
        assert loaded.graphs == census.graphs
        assert len(loaded) == 20
        assert loaded.generator_version == GENERATOR_VERSION

    def test_load_before_store_is_a_miss(self, tmp_path):
        with pytest.raises(CacheMissError):
            census_cache_load(6, 9, tmp_path)

    def test_truncated_file_is_corrupt(self, tmp_path):
        census = enumerate_connected(6, 9)
        path = census_cache_store(census, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("".join(s + "\n" for s in lines[:-3]))
        with pytest.raises(CorruptCacheError):
            census_cache_load(6, 9, tmp_path)

    def test_tampered_content_fails_digest(self, tmp_path):
        census = enumerate_connected(5, 6)
        path = census_cache_store(census, tmp_path)
        lines = path.read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]  # same count, wrong digest
        path.write_text("".join(s + "\n" for s in lines))
        with pytest.raises(CorruptCacheError):
            census_cache_load(5, 6, tmp_path)

    def test_mismatched_sidecar_parameters(self, tmp_path):
        census = enumerate_connected(5, 6)
        census_cache_store(census, tmp_path)
        g6 = tmp_path / "census_n5_e7.g6"
        meta = tmp_path / "census_n5_e7.meta"
        g6.write_text((tmp_path / "census_n5_e6.g6").read_text())
        meta.write_text((tmp_path / "census_n5_e6.meta").read_text())
        with pytest.raises(CorruptCacheError):
            census_cache_load(5, 7, tmp_path)

    def test_get_census_generates_then_hits_cache(self, tmp_path):
        first = get_census(5, 7, tmp_path)
        assert (tmp_path / "census_n5_e7.g6").exists()
        again = get_census(5, 7, tmp_path)
        assert first.graphs == again.graphs
