import pytest

from knesergeom import (
    GeometryParams,
    Graph,
    KneserParams,
    adjacent_transpositions,
    are_isomorphic,
    bipartite_double_cover,
    build_geometry,
    incidence_graph,
    is_locally_x,
    is_type_preserving_automorphism,
    kneser_graph,
    neighborhood_graph,
    point_tables,
    residue_reference_graph,
)
from knesergeom.subsets import GroundSet, enumerate_k_subsets


def kneser_like(m, k):
    """Disjointness graph on the k-subsets of m points, any m; the local
    reference for Kneser self-similarity (may be edgeless)."""
    masks = [s.bits for s in enumerate_k_subsets(GroundSet(m), k)]
    edges = [
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if masks[i] & masks[j] == 0
    ]
    return Graph(len(masks), edges)


def test_neighborhood_graph_fixtures(petersen):
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    for v in range(4):
        nbhd, mapping = neighborhood_graph(k4, v)
        assert nbhd.n == 3 and nbhd.n_edges == 3
        assert v not in mapping
    nbhd, _ = neighborhood_graph(petersen, 0)
    assert nbhd.n == 3 and nbhd.n_edges == 0


def test_complete_graph_locally_complete():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    report = is_locally_x(k4, triangle)
    assert report.ok and report.passed == 4 and report.failures == ()


def test_c4_not_locally_k2():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k2 = Graph(2, [(0, 1)])
    report = is_locally_x(c4, k2)
    assert not report.ok
    assert report.failures == (0, 1, 2, 3)


def test_kneser_self_similarity():
    # neighborhoods in KG(n,k) induce the disjointness graph on n-k points
    for k in (1, 2, 3, 4):
        for n in range(2 * k + 1, 11):
            g = kneser_graph(KneserParams(n, k))
            ref = kneser_like(n - k, k)
            report = is_locally_x(g, ref)
            assert report.ok, (n, k, report.failures[:3])


def test_locally_petersen(petersen):
    g = kneser_graph(KneserParams(7, 2))
    report = is_locally_x(g, petersen)
    assert report.ok and report.total == 21


def test_reference_residue_graphs(desargues):
    ref = residue_reference_graph(build_geometry(GeometryParams(5, 2, 3)))
    assert ref.n == 20 and are_isomorphic(ref, desargues) is not None
    ref6 = residue_reference_graph(build_geometry(GeometryParams(6, 2, 3)))
    dc6 = bipartite_double_cover(kneser_graph(KneserParams(6, 2)))
    assert ref6.n == 30 and are_isomorphic(ref6, dc6) is not None
    with pytest.raises(ValueError):
        residue_reference_graph(build_geometry(GeometryParams(5, 2, 2)))


def test_locally_desargues(desargues):
    params = GeometryParams(5, 2, 3)
    g = incidence_graph(build_geometry(params).incidence_system()).graph
    report = is_locally_x(g, desargues)
    assert report.ok and report.total == 63


def test_report_json_shape(petersen):
    report = is_locally_x(kneser_graph(KneserParams(7, 2)), petersen)
    doc = report.to_json()
    assert set(doc) == {"graph", "reference", "total", "passed", "failed"}
    assert doc["total"] == 21 and doc["failed"] == []


def _geometry_523():
    geom = build_geometry(GeometryParams(5, 2, 3))
    tables = point_tables(geom, adjacent_transpositions(7))
    return geom.incidence_system(), residue_reference_graph(geom), tables


def test_verified_tables_same_report_fewer_searches(monkeypatch):
    from knesergeom import graphs, incidence, locally_x

    sys_, x, tables = _geometry_523()
    subgraphs = []
    subgraph = graphs.induced_subgraph

    def built(*args):
        subgraphs.append(args)
        return subgraph(*args)

    for module in (graphs, incidence, locally_x):
        monkeypatch.setattr(module, "induced_subgraph", built)
    plain = is_locally_x(sys_.graph, x)
    searches = []
    search = locally_x._search

    def counted(masks, domain, *args):
        searches.append(domain)
        return search(masks, domain, *args)

    monkeypatch.setattr(locally_x, "_search", counted)
    carried = is_locally_x(sys_.graph, x, tables)
    assert carried.to_json() == plain.to_json()
    assert carried.ok and carried.total == 63
    assert len(searches) == 3  # one per type
    assert subgraphs == []  # every neighborhood is searched in place


def test_non_automorphism_tables_change_nothing():
    # a cyclic shift inside each type is type-preserving with one orbit per
    # type, but not an automorphism: its carried maps fail their edge
    # checks and every vertex is searched as with no tables
    sys_, x, _ = _geometry_523()
    per = sys_.n_elements // sys_.rank
    shift = tuple(e - e % per + (e + 1) % per for e in range(sys_.n_elements))
    assert not is_type_preserving_automorphism(sys_, shift)
    assert is_locally_x(sys_.graph, x, [shift]) == is_locally_x(sys_.graph, x)


def test_carried_maps_are_edge_checked():
    # the point tables of the intact geometry are not automorphisms of the
    # graph with one edge removed; carrying maps along them must not make
    # a damaged neighborhood pass
    sys_, x, tables = _geometry_523()
    edges = sys_.graph.edges()
    damaged = Graph(sys_.graph.n, edges[1:])
    plain = is_locally_x(damaged, x)
    assert plain.failures == (0, 26, 56, 61, 62)
    assert is_locally_x(damaged, x, tables).failures == plain.failures


def test_tables_must_be_permutations():
    sys_, x, tables = _geometry_523()
    with pytest.raises(ValueError):
        is_locally_x(sys_.graph, x, [tables[0][:-1]])
    with pytest.raises(ValueError):
        is_locally_x(sys_.graph, x, [(0,) * sys_.graph.n])


def test_reference_is_refined_once(monkeypatch):
    from knesergeom import isomorphism

    sys_, x, _ = _geometry_523()
    isomorphism._reference_path.cache_clear()
    on_x = []
    refine = isomorphism._refine

    def recorded(masks, *args):
        if masks is x.neighbor_masks:
            on_x.append(len(masks))
        return refine(masks, *args)

    monkeypatch.setattr(isomorphism, "_refine", recorded)
    report = is_locally_x(sys_.graph, x)
    assert report.ok and report.total == 63
    depth = len(isomorphism._reference_path(x, (0,) * x.n).levels) - 1
    assert 1 <= len(on_x) <= depth + 1
