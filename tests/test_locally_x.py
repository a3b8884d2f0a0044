import pytest

from knesergeom import (
    GeometryParams,
    Graph,
    KneserParams,
    are_isomorphic,
    bipartite_double_cover,
    build_geometry,
    incidence_graph,
    is_locally_x,
    kneser_graph,
    neighborhood_graph,
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
    ref = residue_reference_graph(GeometryParams(5, 2, 3))
    assert ref.n == 20 and are_isomorphic(ref, desargues) is not None
    ref6 = residue_reference_graph(GeometryParams(6, 2, 3))
    dc6 = bipartite_double_cover(kneser_graph(KneserParams(6, 2)))
    assert ref6.n == 30 and are_isomorphic(ref6, dc6) is not None
    with pytest.raises(ValueError):
        residue_reference_graph(GeometryParams(5, 2, 2))


def test_locally_desargues(desargues):
    params = GeometryParams(5, 2, 3)
    g = incidence_graph(build_geometry(params).incidence_system()).graph
    report = is_locally_x(g, desargues)
    assert report.ok and report.total == 63
    assert all(r.mapping_digest for r in report.per_vertex)


def test_report_json_shape(petersen):
    report = is_locally_x(kneser_graph(KneserParams(7, 2)), petersen)
    doc = report.to_json()
    assert set(doc) == {"graph", "reference", "total", "passed", "failed"}
    assert doc["total"] == 21 and doc["failed"] == []
