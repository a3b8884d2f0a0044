import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from knesergeom import (
    Graph,
    Graph6Error,
    INF,
    KneserParams,
    bfs_distances,
    bipartite_double_cover,
    diameter,
    girth,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_bipartite,
    is_connected,
    kneser_graph,
    odd_girth,
    shortest_odd_cycle,
)
from helpers import girth_oracle, graph_from_nx, odd_girth_oracle, random_graph

TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PATH3 = Graph(3, [(0, 1), (1, 2)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])  # duplicates collapse
    assert g.n_edges == 1


def test_bfs_distances():
    assert bfs_distances(PATH3, 0) == [0, 1, 2]
    assert bfs_distances(Graph(2), 0) == [0, -1]


def test_bfs_petersen_eccentricity(petersen):
    for v in range(10):
        dist = bfs_distances(petersen, v)
        assert max(dist) == 2


def test_girth_fixtures():
    assert girth(TRIANGLE) == 3
    assert girth(PATH3) == INF
    assert girth(C4) == 4


def test_girth_petersen(petersen):
    assert girth(petersen) == 5


def test_odd_girth_fixtures():
    assert odd_girth(TRIANGLE) == 3
    assert odd_girth(C4) == INF
    assert odd_girth(kneser_graph(KneserParams(8, 3))) == 5


def test_connected_bipartite_diameter():
    assert is_connected(C4) and is_bipartite(C4) and diameter(C4) == 2
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(two_edges)
    assert diameter(two_edges) == INF
    assert diameter(Graph(0)) == 0
    assert diameter(Graph(1)) == 0
    assert is_connected(Graph(0))


def test_desargues_metrics(desargues):
    assert is_connected(desargues)
    assert is_bipartite(desargues)
    assert diameter(desargues) == 5
    assert girth(desargues) == 6
    assert all(desargues.degree(v) == 3 for v in range(20))


def test_induced_subgraph(petersen):
    sub, mapping = induced_subgraph(TRIANGLE, [0, 1])
    assert sub == Graph(2, [(0, 1)]) and mapping == (0, 1)
    empty, mapping = induced_subgraph(TRIANGLE, [])
    assert empty.n == 0 and mapping == ()
    # Petersen neighborhoods are co-triangles
    nbhd, _ = induced_subgraph(petersen, petersen.adj[0])
    assert nbhd.n == 3 and nbhd.n_edges == 0


def test_double_cover_fixtures():
    k2 = Graph(2, [(0, 1)])
    dc = bipartite_double_cover(k2)
    assert dc.n == 4 and sorted(dc.edges()) == [(0, 3), (1, 2)]
    c6 = bipartite_double_cover(TRIANGLE)
    assert c6.n == 6 and girth(c6) == 6 and all(c6.degree(v) == 2 for v in range(6))


def test_double_cover_connectivity_criterion():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 12), rng.choice([0.15, 0.3, 0.6]))
        dc = bipartite_double_cover(g)
        assert is_connected(dc) == (is_connected(g) and not is_bipartite(g))


def test_odd_girth_iff_bipartite():
    rng = random.Random(11)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(0, 14), rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert (odd_girth(g) == INF) == is_bipartite(g)
        assert girth(g) <= odd_girth(g)


def test_girth_adversarial_structures():
    c7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    assert girth(c7) == 7 and odd_girth(c7) == 7
    c8 = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    assert girth(c8) == 8 and odd_girth(c8) == INF
    bowtie = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert girth(bowtie) == 3
    # theta graph: paths of lengths 2, 3, 4 between two hubs
    theta = Graph(
        8,
        [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)],
    )
    assert girth(theta) == 5 and odd_girth(theta) == 5


def test_metric_oracles_on_random_graphs():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 14), rng.choice([0.15, 0.35, 0.6]))
        assert girth(g) == girth_oracle(g)
        assert odd_girth(g) == odd_girth_oracle(g)
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges())
        if is_connected(g) and g.n > 1:
            assert diameter(g) == nx.diameter(nxg)


def test_shortest_odd_cycle(petersen):
    cyc = shortest_odd_cycle(petersen)
    assert len(cyc) == 5
    assert len(set(cyc)) == 5
    for i in range(5):
        assert petersen.has_edge(cyc[i], cyc[(i + 1) % 5])
    assert shortest_odd_cycle(C4) is None


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_fixed_points():
    assert graph6_encode(Graph(1)) == b"@"
    assert graph6_encode(Graph(2, [(0, 1)])) == b"A_"


def test_graph6_roundtrip_kneser(petersen):
    assert graph6_decode(graph6_encode(petersen)) == petersen


def test_graph6_header_tolerated(petersen):
    data = b">>graph6<<" + graph6_encode(petersen)
    assert graph6_decode(data) == petersen


def test_graph6_matches_networkx():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(0, 41), rng.choice([0.1, 0.3, 0.5, 0.9]))
        enc = graph6_encode(g)
        assert graph6_decode(enc) == g
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges())
        assert enc == nx.to_graph6_bytes(nxg, header=False).strip()
        assert graph_from_nx(nx.from_graph6_bytes(enc)) == g


def test_graph6_extended_size_header():
    g = Graph(63, [(0, 1), (10, 50), (61, 62)])
    enc = graph6_encode(g)
    assert enc[0] == 126  # 4-byte size field
    assert graph6_decode(enc) == g
    nxg = nx.empty_graph(63)
    nxg.add_edges_from(g.edges())
    assert enc == nx.to_graph6_bytes(nxg, header=False).strip()


def test_graph6_errors_carry_offset():
    with pytest.raises(Graph6Error) as exc:
        graph6_decode(b"")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error):
        graph6_decode(b"B")  # truncated payload
    with pytest.raises(Graph6Error) as exc:
        graph6_decode(bytes([30, 95]))  # byte below 63
    assert exc.value.offset == 0


def test_graph6_rejects_non_ascii_str():
    # 'é' must not be replaced by '?' (byte 63), which is valid graph6
    with pytest.raises(Graph6Error) as exc:
        graph6_decode("Cé")
    assert exc.value.offset == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.integers(0, 2**30))
def test_graph6_roundtrip_property(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.4)
    assert graph6_decode(graph6_encode(g)) == g
