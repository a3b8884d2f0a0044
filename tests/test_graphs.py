import itertools
import random
import sys
import tracemalloc
from functools import reduce
from operator import or_
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from knesergeom import (
    GeometryParams,
    Graph,
    Graph6Error,
    INF,
    IncidenceSystem,
    KneserParams,
    build_geometry,
    girth,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_bipartite,
    kneser_graph,
    odd_girth,
    rank2_summary,
    residue,
    shortest_odd_cycle,
)
from knesergeom import graphs
from knesergeom.graphs import (
    _TypedRows,
    _iter_bits,
    complete_tensor,
    component_mask,
    connected_components,
    eccentricities,
    graph_digest,
    walk_metrics_from,
)
from helpers import (
    adjacency,
    bfs_dist_oracle,
    complete_tensor_oracle,
    girth_oracle,
    graph6_encode_oracle,
    graph_digest_oracle,
    graph_from_nx,
    induced_subgraph_oracle,
    odd_girth_oracle,
    per_source_eccentricities,
    per_source_odd_girth,
    random_graph,
    small_graphs,
)

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


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 24),
    st.integers(0, 2**30),
    st.sampled_from([0.1, 0.4, 0.8]),
    st.sampled_from([graphs._CHECK_CHARS, 8]),
)
def test_from_masks_matches_edges_and_rejects_bad_bits(n, seed, p, check_chars):
    # 8 characters per block puts the symmetry check on one to eight columns
    # a block, so flipped bits land in every block, the last partial one too
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    masks = list(g.neighbor_masks)
    with mock.patch.object(graphs, "_CHECK_CHARS", check_chars):
        assert Graph.from_masks(masks) == g
        assert Graph.from_masks(masks).edges() == g.edges()
        for u in range(n):
            for v in range(n):
                if u != v:  # one flipped bit leaves v~u and u~v disagreeing
                    with pytest.raises(ValueError, match="asymmetric"):
                        Graph.from_masks(masks[:u] + [masks[u] ^ 1 << v] + masks[u + 1:])
            with pytest.raises(ValueError, match="self-loop"):
                Graph.from_masks(masks[:u] + [masks[u] | 1 << u] + masks[u + 1:])
            for bit in (n, n + 1 + rng.randrange(64)):
                with pytest.raises(ValueError, match="outside"):
                    Graph.from_masks(masks[:u] + [masks[u] | 1 << bit] + masks[u + 1:])
            with pytest.raises(ValueError, match="outside"):
                Graph.from_masks(masks[:u] + [-1 - masks[u]] + masks[u + 1:])


def test_graph_holds_only_its_neighbor_masks():
    # the masks are the one representation: no adjacency view is cached on
    # a Graph or offered by an IncidenceSystem
    g = Graph.from_masks([0b110, 0b101, 0b011])
    assert Graph.__slots__ == ("n", "neighbor_masks")
    assert not hasattr(g, "adj") and not hasattr(IncidenceSystem, "adj")
    assert g.n_edges == 3 and g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert adjacency(g) == ((1, 2), (0, 2), (0, 1))


def test_adj_is_a_cached_view():
    # a Graph's adjacency is the mask tuple it was given, held as is and
    # read, never rebuilt or copied into lists, by every query
    masks = (0b110, 0b101, 0b011)
    g = Graph.from_masks(masks)
    assert g.neighbor_masks is masks and g.neighbor_masks is g.neighbor_masks
    assert g.n_edges == 3 and g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert [g.degree(v) for v in range(3)] == [2, 2, 2] and g.has_edge(0, 2)
    assert g.neighbor_masks is masks


def test_bfs_petersen_eccentricity(petersen):
    assert eccentricities(petersen) == [2] * 10
    for v in range(10):
        assert max(bfs_dist_oracle(adjacency(petersen), v)) == 2


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
    assert connected_components(C4) == [(0, 1, 2, 3)]
    assert is_bipartite(C4) and max(eccentricities(C4)) == 2
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(two_edges) == [(0, 1), (2, 3)]
    assert max(eccentricities(two_edges)) == INF
    assert eccentricities(Graph(0)) == [] and connected_components(Graph(0)) == []
    assert eccentricities(Graph(1)) == [0]


def test_desargues_metrics(desargues):
    assert len(connected_components(desargues)) == 1
    assert is_bipartite(desargues)
    assert max(eccentricities(desargues)) == 5
    assert girth(desargues) == 6
    assert all(desargues.degree(v) == 3 for v in range(20))


def test_induced_subgraph(petersen):
    sub, mapping = induced_subgraph(TRIANGLE, [0, 1])
    assert sub == Graph(2, [(0, 1)]) and mapping == (0, 1)
    empty, mapping = induced_subgraph(TRIANGLE, [])
    assert empty.n == 0 and mapping == ()
    # Petersen neighborhoods are co-triangles
    nbhd, _ = induced_subgraph(petersen, adjacency(petersen)[0])
    assert nbhd.n == 3 and nbhd.n_edges == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 30), st.integers(0, 2**30), st.sampled_from([0.2, 0.5, 0.9]))
def test_induced_subgraph_matches_edge_renumbering(n, seed, p):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    lo = rng.randrange(n + 1)
    contiguous = range(lo, rng.randrange(lo, n + 1))
    scattered = [v for v in range(n) if rng.random() < 0.5]
    for vs in (contiguous, scattered, [rng.randrange(n)] if n else []):
        sub, mapping = induced_subgraph(g, vs)
        assert sub == induced_subgraph_oracle(g, vs) and mapping == tuple(sorted(vs))


def _induced_cases(rng, n, r, p):
    """A stored random graph on n vertices and its K_r tensor, held as typed
    rows, each with vertex sets: a random subset of random density, the
    neighbourhood of a random vertex and a contiguous run."""
    base = random_graph(rng, n, p)
    for g in (base, complete_tensor(base, r)):
        density = rng.random()
        lo = rng.randrange(g.n + 1)
        yield g, [v for v in range(g.n) if rng.random() < density]
        yield g, list(_iter_bits(g.neighbor_masks[rng.randrange(g.n)])) if g.n else []
        yield g, range(lo, rng.randrange(lo, g.n + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([(12, 2), (40, 3), (160, 3)]),
       st.sampled_from([0.1, 0.5, 0.95]))
def test_induced_subgraph_of_stored_and_typed_rows_matches_oracle(seed, size, p):
    rng = random.Random(seed)
    n = rng.randrange(size[0] + 1)
    for g, vs in _induced_cases(rng, n, size[1], p):
        sub, mapping = induced_subgraph(g, vs)
        assert sub == induced_subgraph_oracle(g, vs) and mapping == tuple(sorted(set(vs)))


def test_induced_subgraph_rejects_out_of_range_vertices():
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        induced_subgraph(TRIANGLE, [0, 5, 9])
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        induced_subgraph(TRIANGLE, [-1, 0, 9])


def test_double_cover_fixtures():
    k2 = Graph(2, [(0, 1)])
    dc = complete_tensor(k2, 2)
    assert dc.n == 4 and sorted(dc.edges()) == [(0, 3), (1, 2)]
    c6 = complete_tensor(TRIANGLE, 2)
    assert c6.n == 6 and girth(c6) == 6 and all(c6.degree(v) == 2 for v in range(6))


@st.composite
def simple_graphs(draw, max_n=12):
    """Any simple graph on 0..max_n vertices: one drawn bit per vertex pair."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for b, e in enumerate(pairs) if bits >> b & 1])


@settings(max_examples=150, deadline=None)
@given(simple_graphs(), st.integers(1, 4))
def test_complete_tensor_matches_pair_loop_and_passes_the_checks(g, r):
    t = complete_tensor(g, r)
    assert t == complete_tensor_oracle(g, r)
    # the product skips from_masks's checks; the checked constructor accepts it
    assert Graph.from_masks(t.neighbor_masks) == t
    # the rows as the searches and the rank-2 summary read them, one at a
    # time, made from g's
    rows = t.neighbor_masks
    assert [rows[v] for v in range(t.n)] == list(complete_tensor_oracle(g, r).neighbor_masks)


@settings(max_examples=150, deadline=None)
@given(simple_graphs(), st.integers(2, 5))
def test_typed_rows_match_pair_loop_property(g, r):
    # each row made as it is read, by index or in order, is the pair loop's;
    # a row that kept its own block would meet the oracle's zero block there
    rows, oracle = _TypedRows(g, r), complete_tensor_oracle(g, r).neighbor_masks
    assert len(rows) == len(oracle) == r * g.n
    assert [rows[v] for v in range(len(rows))] == list(oracle)
    assert list(rows) == list(oracle) and list(iter(rows)) == list(oracle)
    for v in (-1, len(rows)):
        with pytest.raises(IndexError):
            rows[v]


@settings(max_examples=150, deadline=None)
@given(simple_graphs(), st.integers(1, 5))
def test_graphs_are_equal_however_their_rows_are_held_property(g, r):
    typed, stored = complete_tensor(g, r), complete_tensor_oracle(g, r)
    assert type(typed.neighbor_masks) is _TypedRows and type(stored.neighbor_masks) is tuple
    assert typed == stored and stored == typed and typed == complete_tensor(g, r)
    assert hash(typed) == hash(stored) == hash(complete_tensor(g, r))
    assert len({typed, stored, complete_tensor(g, r)}) == 1
    assert typed.neighbor_masks == stored.neighbor_masks == typed.neighbor_masks
    if stored.n_edges:  # one edge fewer is another graph, either way round
        u, v = stored.edges()[0]
        fewer = Graph(stored.n, [e for e in stored.edges() if e != (u, v)])
        assert typed != fewer and fewer != typed and typed.neighbor_masks != fewer.neighbor_masks
    assert typed != Graph(typed.n + 1) and typed.neighbor_masks != (0,) * (typed.n + 1)


@settings(max_examples=150, deadline=None)
@given(simple_graphs(), st.integers(1, 5), st.integers(0, 2**30))
def test_component_mask_on_typed_rows_matches_stored_rows_property(g, r, seed):
    typed, stored = _TypedRows(g, r), complete_tensor_oracle(g, r).neighbor_masks
    rng = random.Random(seed)
    for _ in range(12):
        within = rng.getrandbits(len(stored)) if stored else 0
        assert typed.union(within) == reduce(or_, [stored[v] for v in _iter_bits(within)], 0)
        if within:
            start = rng.choice(list(_iter_bits(within)))
            assert component_mask(typed, start, within) == component_mask(stored, start, within)


def test_component_mask_takes_typed_frontiers_by_block(monkeypatch, petersen):
    # a frontier of typed rows is one union per step, not a row per vertex
    rows = _TypedRows(petersen, 4)
    monkeypatch.setattr(_TypedRows, "__getitem__", lambda *a: pytest.fail("row read"))
    full = (1 << 40) - 1
    assert component_mask(rows, 0, full) == full
    assert component_mask(rows, 3, 1 << 3 | 1 << 25) == 1 << 3  # 3 and 5 are not adjacent


def test_double_cover_connectivity_criterion():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 12), rng.choice([0.15, 0.3, 0.6]))
        dc = complete_tensor(g, 2)
        connected = len(connected_components(g)) == 1
        assert (len(connected_components(dc)) == 1) == (connected and not is_bipartite(g))


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
        if len(connected_components(g)) == 1 and g.n > 1:
            assert max(eccentricities(g)) == nx.diameter(nxg)


def to_nx(g):
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    return nxg


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def with_pendant_paths(g, lengths):
    """g with a path of lengths[i] new vertices hung off vertex i."""
    n, edges = g.n, list(g.edges())
    for anchor, length in enumerate(lengths):
        prev = anchor
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def test_girth_and_bipartite_match_oracles_on_structured_graphs():
    k33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    forest = disjoint_union(with_pendant_paths(PATH3, [2, 0, 3]), Graph(2, [(0, 1)]))
    cases = [
        *((cycle(n), n) for n in (4, 6, 8, 10)),
        (k33, 4),
        (forest, INF),
        (Graph(0), INF),
        # the bipartite C4 comes first, so a floor of 4 would stop before
        # the triangle; the odd component keeps the floor at 3
        (disjoint_union(C4, TRIANGLE), 3),
        (disjoint_union(C4, kneser_graph(KneserParams(5, 2))), 4),
        (disjoint_union(cycle(6), cycle(5)), 5),
    ]
    for g, want in cases:
        assert girth(g) == girth_oracle(g) == want
        assert is_bipartite(g) == nx.is_bipartite(to_nx(g))


def check_eccentricities(g):
    ecc = eccentricities(g)
    assert ecc == per_source_eccentricities(g)
    comps = connected_components(g)
    if len(comps) > 1:
        assert ecc == [INF] * g.n
    for comp in comps:
        sub, mapping = induced_subgraph(g, comp)
        want = nx.eccentricity(to_nx(sub))
        assert eccentricities(sub) == [want[i] for i in range(sub.n)]
        if len(comps) == 1:
            assert [ecc[v] for v in mapping] == [want[i] for i in range(sub.n)]


def test_eccentricities_match_networkx_per_vertex():
    assert eccentricities(Graph(0)) == []
    assert eccentricities(Graph(1)) == [0]
    assert eccentricities(Graph(2)) == [INF, INF]
    assert eccentricities(PATH3) == [2, 1, 2]
    # an isolated vertex makes every entry infinite
    check_eccentricities(Graph(5, [(0, 1), (1, 2), (2, 3)]))
    check_eccentricities(with_pendant_paths(cycle(9), [4, 0, 0, 2]))
    check_eccentricities(disjoint_union(cycle(5), PATH3))
    rng = random.Random(29)
    disconnected = 0
    for _ in range(120):
        g = random_graph(rng, rng.randrange(0, 30), rng.choice([0.05, 0.1, 0.2, 0.4]))
        disconnected += len(connected_components(g)) > 1
        check_eccentricities(g)
    assert disconnected > 20


def check_odd_girth(g, want):
    assert odd_girth(g) == per_source_odd_girth(g) == odd_girth_oracle(g) == want


def test_odd_girth_structured_families():
    for length in range(7, 16, 2):
        check_odd_girth(with_pendant_paths(cycle(length), [3, 0, 1, 5]), length)
        # only the second component has an odd cycle
        check_odd_girth(disjoint_union(cycle(length + 1), cycle(length)), length)
        check_odd_girth(disjoint_union(with_pendant_paths(PATH3, [2]), cycle(length)), length)
    for length in range(4, 17, 2):
        check_odd_girth(cycle(length), INF)
    for a in range(1, 6):
        for b in range(a, 7):
            kab = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
            check_odd_girth(kab, INF)
    check_odd_girth(Graph(0), INF)
    check_odd_girth(Graph(4), INF)


@st.composite
def sparse_graphs(draw, max_n=20):
    """A cycle through some drawn vertices plus a few more edges: long odd
    and even cycles, pendant trees and isolated vertices all occur."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Graph(n)
    ring = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    edges = list(zip(ring, ring[1:] + ring[:1])) if len(ring) >= 3 else []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return Graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(sparse_graphs())
def test_sweeps_match_per_source_bfs_property(g):
    assert eccentricities(g) == per_source_eccentricities(g)
    assert odd_girth(g) == per_source_odd_girth(g) == odd_girth_oracle(g)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_graphs(), sparse_graphs()))
@example(Graph(0))
@example(Graph(1))
@example(Graph(3, [(0, 1)]))  # bipartite, with an isolated vertex
@example(disjoint_union(cycle(5), cycle(4)))  # an odd and an even component
@example(disjoint_union(cycle(7), cycle(3)))  # two odd components
@example(with_pendant_paths(cycle(5), [3]))  # odd closed walks of several lengths
def test_walk_metrics_from_match_bfs_of_the_cover_property(g):
    assert eccentricities(g) == per_source_eccentricities(g)
    # (v,0) at index v and (v,1) at n+v, swapped by an automorphism of the
    # built cover, so both have v's eccentricity
    cover = complete_tensor(g, 2)
    ecc = per_source_eccentricities(cover)
    assert ecc[:g.n] == ecc[g.n:]
    # one vertex's walk sets give its cover eccentricity, and the shortest
    # odd closed walk through it, a shortest path from (v,0) to (v,1)
    adj = adjacency(cover)
    per_vertex = [walk_metrics_from(g, v) for v in range(g.n)]
    for v, (odd, e) in enumerate(per_vertex):
        d = bfs_dist_oracle(adj, v)[g.n + v]
        assert (odd, e) == (INF if d < 0 else d, ecc[v])
    assert min((odd for odd, _ in per_vertex), default=INF) == odd_girth(g)
    assert odd_girth(g) == per_source_odd_girth(g)


def test_walk_metrics_from_fixtures(petersen):
    # the Desargues graph K_2 x Petersen has diameter 5, as has the geometry
    assert [walk_metrics_from(petersen, v) for v in range(10)] == [(5, 5)] * 10
    # C_4's cover is two C_4s, and an isolated vertex is its own component
    assert [walk_metrics_from(C4, v) for v in range(4)] == [(INF, INF)] * 4
    assert walk_metrics_from(Graph(1), 0) == (INF, INF)
    # K_3's cover is C_6
    assert walk_metrics_from(TRIANGLE, 2) == (3, 3)
    with pytest.raises(ValueError):
        walk_metrics_from(TRIANGLE, 3)
    with pytest.raises(ValueError):
        walk_metrics_from(Graph(0), 0)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), sparse_graphs()))
@example(with_pendant_paths(cycle(11), [2, 3]))
@example(disjoint_union(cycle(6), cycle(9)))
@example(kneser_graph(KneserParams(7, 3)))  # odd girth 7
def test_shortest_odd_cycle(petersen, drawn):
    cyc = shortest_odd_cycle(petersen)
    assert len(cyc) == 5
    assert len(set(cyc)) == 5
    for i in range(5):
        assert petersen.has_edge(cyc[i], cyc[(i + 1) % 5])
    assert shortest_odd_cycle(C4) is None
    # a simple cycle of length odd_girth, or None iff the graph is bipartite
    rng = random.Random(31)
    for g in [drawn] + [random_graph(rng, rng.randrange(3, 20), 0.15) for _ in range(40)]:
        cyc = shortest_odd_cycle(g)
        assert (cyc is None) == is_bipartite(g)
        if cyc is None:
            assert odd_girth(g) == INF
            continue
        assert len(cyc) == odd_girth(g) == len(set(cyc))
        assert all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))


def test_each_distance_runs_one_walk_sweep(monkeypatch, petersen):
    sweeps = []
    walks = graphs._walks
    monkeypatch.setattr(graphs, "_walks", lambda g: (sweeps.append(g), walks(g))[1])
    for metric in (eccentricities, odd_girth, shortest_odd_cycle):
        sweeps.clear()
        metric(petersen)
        assert sweeps == [petersen], metric.__name__
    sweeps.clear()
    res = residue(build_geometry(GeometryParams(5, 2, 3)).incidence_system(), (0,))[0]
    assert rank2_summary(res).diameters == (5, 5)
    assert sweeps == [res.graph]


def test_odd_girth_stops_at_the_first_odd_closed_walk(monkeypatch, petersen):
    lengths, walks = [], graphs._walks

    def counted(g):
        for length, walk in walks(g):
            lengths.append(length)
            yield length, walk

    monkeypatch.setattr(graphs, "_walks", counted)
    assert odd_girth(petersen) == 5 and lengths == [0, 1, 2, 3, 4, 5]
    lengths.clear()
    # a bipartite graph is settled by is_bipartite alone
    assert odd_girth(C4) == odd_girth(complete_tensor(petersen, 2)) == INF
    assert odd_girth(Graph(0)) == odd_girth(Graph(3)) == INF
    assert lengths == []


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def _digest_corpus():
    rng = random.Random(20261019)
    corpus = [Graph(0), Graph(1), Graph(2), Graph(9), PATH3, TRIANGLE]
    corpus += [Graph(n, itertools.combinations(range(n), 2)) for n in (2, 5, 70)]
    corpus.append(kneser_graph(KneserParams(7, 2)))
    corpus += [random_graph(rng, rng.randrange(0, 90), rng.choice([0.05, 0.3, 0.8]))
               for _ in range(60)]
    return corpus


def test_graph_digest_matches_whole_text_oracle():
    for g in _digest_corpus():
        assert graph_digest(g) == graph_digest_oracle(g), g
    assert graph_digest(Graph(0)) != graph_digest(Graph(1)) != graph_digest(Graph(2))


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=20))
def test_graph_digest_matches_whole_text_oracle_property(g):
    assert graph_digest(g) == graph_digest_oracle(g)


def test_graph_digest_falls_back_to_hashlib(monkeypatch):
    corpus = _digest_corpus()
    lean = [graph_digest(g) for g in corpus]
    monkeypatch.setitem(sys.modules, "_sha256", None)  # the import now fails
    assert [graph_digest(g) for g in corpus] == lean


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


def test_graph6_matches_column_packing_and_networkx_up_to_70():
    # n = 62/63 switches the size field; n(n-1)/2 mod 6 runs through every
    # padding length
    rng = random.Random(70)
    for n in range(71):
        for p in (0.0, 0.5, 1.0):
            g = random_graph(rng, n, p)
            enc = graph6_encode(g)
            nxg = nx.empty_graph(n)
            nxg.add_edges_from(g.edges())
            assert enc == graph6_encode_oracle(g) == nx.to_graph6_bytes(nxg, header=False).strip()
            assert graph6_decode(enc) == g


# n(n-1)/2 mod 24 has period 48 in n, so n = 0..47 gives every length mod 24
# that a graph6 bit string can have (16 of the 24): every padding of the
# last six-bit digit, base64 group and byte; 62, 63 and 64 switch the size
# field
_G6_SIZES = sorted(set(range(48)) | {62, 63, 64})


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
def test_graph6_encode_matches_oracle_property(seed, p):
    lengths = {n * (n - 1) // 2 % 24 for n in _G6_SIZES}
    assert lengths == {n * (n - 1) // 2 % 24 for n in range(480)} and len(lengths) == 16
    rng = random.Random(seed)
    for n in _G6_SIZES:
        g = random_graph(rng, n, p)
        assert graph6_encode(g) == graph6_encode_oracle(g), n


# n(n-1)/2 runs through every length mod 24 (see above), and windows of one
# or two 24-bit groups put many window boundaries inside each graph
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([24, 48]),
    st.integers(0, 70),
    st.integers(0, 2**30),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
@example(24, 0, 0, 0.0)
@example(24, 1, 0, 0.0)
@example(24, 2, 0, 1.0)
@example(24, 62, 1, 1.0)
@example(24, 63, 1, 0.0)
@example(24, 63, 1, 1.0)
def test_graph6_pieces_in_small_windows_match_oracle_property(window, n, seed, p):
    g = random_graph(random.Random(seed), n, p)
    with mock.patch.object(graphs, "_G6_WINDOW", window):
        pieces = list(graphs.graph6_pieces(g))
        assert graph6_encode(g) == b"".join(pieces)
    assert b"".join(pieces) == graph6_encode_oracle(g)
    # the size field, then whole windows, then the last bits
    assert all(len(piece) % (window // 6) == 0 for piece in pieces[1:-1])


def test_graph6_window_is_whole_24_bit_groups(monkeypatch):
    assert graphs._G6_WINDOW % 24 == 0
    complete = [Graph(n, itertools.combinations(range(n), 2)) for n in range(2, 30)]
    for window in (6, 12, 30, 32, 36, 40, 60):
        monkeypatch.setattr(graphs, "_G6_WINDOW", window)
        wrong = 0
        for g in complete:
            try:
                wrong += graph6_encode(g) != graph6_encode_oracle(g)
            except OverflowError:
                wrong += 1
        assert wrong, window


# windows of one to a few columns put many window boundaries inside each graph
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 7, 50, 200]),
    st.integers(0, 70),
    st.integers(0, 2**30),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
@example(1, 0, 0, 0.0)
@example(1, 1, 0, 0.0)
@example(1, 2, 0, 1.0)
@example(7, 63, 1, 1.0)
def test_graph6_decode_in_small_windows_matches_oracle_property(chars, n, seed, p):
    g = random_graph(random.Random(seed), n, p)
    with mock.patch.object(graphs, "_G6_DECODE_CHARS", chars):
        assert graph6_decode(graph6_encode_oracle(g)) == g


def test_graph6_decode_runs_in_bounded_memory():
    # a window of columns at a time: the whole bit string and an n^2 column
    # table of the 2,145-vertex (9,4,3) incidence graph peaked at 13.0 MB
    g = build_geometry(GeometryParams(9, 4, 3)).incidence_system().graph
    data = graph6_encode(g)
    tracemalloc.start()
    try:
        decoded = graph6_decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == g
    assert peak < 3 << 20, peak


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


_G6_BODY = st.one_of(
    st.binary(max_size=24),
    st.lists(st.integers(63, 126), max_size=24).map(bytes),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([b"", b">>graph6<<"]), st.sampled_from([b"", b"~", b"~~"]), _G6_BODY)
def test_graph6_decode_fuzz(header, size_prefix, body):
    # any input either fails with a located Graph6Error or decodes to a
    # graph that survives a round trip; bytes need not match, since
    # non-canonical long size fields such as b"~??@" (n = 1) are accepted
    try:
        g = graph6_decode(header + size_prefix + body)
    except Graph6Error as exc:
        assert isinstance(exc.offset, int)
        return
    assert graph6_decode(graph6_encode(g)) == g
