from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from knesergeom import (
    Graph,
    KneserParams,
    incidence_graph,
    kneser_graph,
    kneser_neighborhood_geometry,
    neighborhood_geometry,
    odd_girth,
    predicted_diameter,
    predicted_gonality,
    predicted_odd_girth,
    rank2_summary,
)
from knesergeom.graphs import complete_tensor, eccentricities, walk_metrics_from
from knesergeom.incidence import DisconnectedGeometryError
from knesergeom import kneser
from knesergeom.kneser import disjointness_table, neighborhood_summary
from knesergeom.subsets import GroundSet, enumerate_k_subsets
from helpers import (
    construct_even_path,
    construct_odd_path,
    cover_eccentricities_oracle,
    disjointness_table_oracle,
    neighborhood_summary_oracle,
    small_graphs,
    subset_from_elements,
)


def ceil_div(a, b):
    return -(-a // b)


def test_params_validation():
    with pytest.raises(ValueError):
        KneserParams(4, 2)
    with pytest.raises(ValueError):
        KneserParams(5, 0)
    KneserParams(5, 2)


def test_kneser_graph_petersen(petersen):
    assert petersen.n == 10 and petersen.n_edges == 15
    assert all(petersen.degree(v) == 3 for v in range(10))


def test_kneser_graph_complete():
    for n in range(3, 8):
        g = kneser_graph(KneserParams(n, 1))
        assert g.n == n and g.n_edges == n * (n - 1) // 2


def test_kneser_graph_73():
    g = kneser_graph(KneserParams(7, 3))
    assert g.n == 35 and all(g.degree(v) == 4 for v in range(35))


def test_predictors():
    assert predicted_odd_girth(KneserParams(5, 2)) == 5
    assert predicted_odd_girth(KneserParams(7, 3)) == 7
    assert predicted_odd_girth(KneserParams(9, 3)) == 3
    assert predicted_gonality(KneserParams(5, 2)) == 3
    assert predicted_gonality(KneserParams(6, 2)) == 2
    assert predicted_diameter(KneserParams(5, 2)) == 5
    assert predicted_diameter(KneserParams(6, 2)) == 3
    assert predicted_diameter(KneserParams(7, 3)) == 7


def test_odd_girth_against_formula_small():
    for n, k in [(5, 2), (6, 2), (7, 3), (8, 3), (9, 4), (11, 5), (12, 5)]:
        p = KneserParams(n, k)
        assert odd_girth(kneser_graph(p)) == predicted_odd_girth(p)


def check_walk(p, walk, length):
    assert len(walk) - 1 == length
    for s in walk:
        assert s.k == p.k
    for a, b in zip(walk, walk[1:]):
        assert a.bits & b.bits == 0


def test_even_path_trivial():
    p = KneserParams(7, 3)
    a = subset_from_elements([0, 1, 2])
    assert construct_even_path(a, a, p) == [a]


def test_even_path_c2():
    p = KneserParams(7, 3)
    a = subset_from_elements([0, 1, 2])
    b = subset_from_elements([0, 1, 3])
    walk = construct_even_path(a, b, p)
    check_walk(p, walk, 2)
    assert walk[0] == a and walk[-1] == b


def test_even_path_disjoint_endpoints():
    p = KneserParams(7, 3)
    a = subset_from_elements([0, 1, 2])
    b = subset_from_elements([3, 4, 5])
    walk = construct_even_path(a, b, p)
    check_walk(p, walk, 6)


def test_odd_path_adjacent():
    p = KneserParams(7, 3)
    a = subset_from_elements([0, 1, 2])
    b = subset_from_elements([3, 4, 5])
    walk = construct_odd_path(a, b, p)
    check_walk(p, walk, 1)


def test_odd_closed_walk_petersen():
    p = KneserParams(5, 2)
    a = subset_from_elements([0, 1])
    walk = construct_odd_path(a, a, p)
    check_walk(p, walk, 5)
    assert walk[0] == walk[-1] == a


def test_odd_path_c1():
    p = KneserParams(7, 3)
    a = subset_from_elements([0, 1, 2])
    b = subset_from_elements([2, 3, 4])
    walk = construct_odd_path(a, b, p)
    check_walk(p, walk, 3)


def test_path_lengths_exhaustive_for_7_3():
    p = KneserParams(7, 3)
    subs = enumerate_k_subsets(GroundSet(7), 3)
    d = 1
    for a in subs[:12]:
        for b in subs:
            c = (a.bits & b.bits).bit_count()
            check_walk(p, construct_even_path(a, b, p), 2 * ceil_div(3 - c, d))
            check_walk(p, construct_odd_path(a, b, p), 2 * ceil_div(c, d) + 1)


def test_neighborhood_geometry_matches_double_cover(petersen):
    ng = neighborhood_geometry(petersen)
    assert incidence_graph(ng).graph == complete_tensor(petersen, 2)
    k2 = Graph(2, [(0, 1)])
    ng2 = neighborhood_geometry(k2)
    assert incidence_graph(ng2).graph == complete_tensor(k2, 2)


def test_neighborhood_geometry_kg62_counts():
    ng = kneser_neighborhood_geometry(KneserParams(6, 2))
    assert ng.n_elements == 30
    assert len(ng.elements_of_type(0)) == 15
    # each element incident to the C(4,2) = 6 disjoint pairs
    assert all(ng.graph.degree(e) == 6 for e in range(30))


def test_gonality_diameter_vs_oracle_small():
    # (11,5) has n = 2k+1: odd girth and diameters 11, gonality 3
    for n, k in [(5, 2), (6, 2), (7, 2), (7, 3), (9, 4), (11, 5), (12, 5)]:
        p = KneserParams(n, k)
        s = rank2_summary(kneser_neighborhood_geometry(p))
        assert s.gonality == predicted_gonality(p)
        assert s.diameters == (predicted_diameter(p),) * 2


@settings(max_examples=200, deadline=None)
@given(small_graphs())
@example(Graph(0))
@example(Graph(1))
@example(Graph(4, [(0, 1), (1, 2), (2, 0)]))  # a triangle and an isolated vertex
def test_neighborhood_summary_matches_rank2_summary_property(g):
    ecc = cover_eccentricities_oracle(g)
    try:
        expected = rank2_summary(neighborhood_geometry(g))
    except DisconnectedGeometryError as exc:
        with pytest.raises(DisconnectedGeometryError) as got:
            neighborhood_summary(g, ecc)
        assert str(got.value) == str(exc)
        assert got.value.components == exc.components
    else:
        assert neighborhood_summary(g, ecc) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, (1 << 10) - 1), max_size=24))
@example([])
@example([1])
@example([0b11, 0b11, 0b100])  # a repeated subset
def test_disjointness_table_matches_pairwise_oracle_property(subsets):
    # the lemma that lets the factor skip from_masks's symmetry check: the
    # table is the pairwise disjointness relation, and the checked
    # constructor accepts it
    table = disjointness_table(subsets)
    assert table == disjointness_table_oracle(subsets)
    assert Graph.from_masks(table).neighbor_masks == tuple(table)


def test_disjointness_table_rejects_an_empty_subset():
    with pytest.raises(ValueError, match="subset 1 is empty"):
        disjointness_table([0b1, 0, 0b10])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ladder_graph(rungs):
    """Two paths of the given length joined rung by rung: (i, 0) at 2i."""
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i + s, 2 * i + 2 + s) for i in range(rungs - 1) for s in (0, 1)]
    return Graph(2 * rungs, edges)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
@example(Graph(0))
@example(Graph(1))
@example(Graph(2))  # two isolated vertices
@example(Graph(2, [(0, 1)]))
@example(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))  # disconnected
@example(cycle_graph(6))  # bipartite
@example(kneser_graph(KneserParams(5, 2)))  # Petersen
@example(complete_graph(3))
@example(complete_graph(5))
@example(ladder_graph(4))
def test_cover_free_neighborhood_summary_matches_the_cover_path_property(g):
    # the class and gonality read from g's masks equal the summary of the
    # built cover; only the disconnected error builds the cover, to name
    # its components
    ecc = cover_eccentricities_oracle(g)
    try:
        expected = neighborhood_summary_oracle(g, ecc)
    except DisconnectedGeometryError as exc:
        with pytest.raises(DisconnectedGeometryError) as got:
            neighborhood_summary(g, ecc)
        assert str(got.value) == str(exc)
        assert got.value.components == exc.components
        return
    built = AssertionError("the cover was built")
    with mock.patch.object(kneser, "complete_tensor", side_effect=built), \
            mock.patch.object(kneser, "typed_copies", side_effect=built):
        assert neighborhood_summary(g, ecc) == expected


def test_transitive_neighborhood_summary_reads_vertex_zero():
    # on vertex-transitive graphs vertex 0 stands for every vertex in the
    # 4-cycle scan and the girth search, and the summary is the cover's;
    # none is bipartite, as a bipartite graph's cover is disconnected
    graphs = [Graph(0), complete_graph(3), complete_graph(5), cycle_graph(7)]
    circular = ladder_graph(5).edges() + [(0, 8), (1, 9)]  # the pentagonal prism
    graphs.append(Graph(10, circular))
    graphs += [kneser_graph(KneserParams(n, k)) for n, k in [(5, 2), (6, 2), (7, 3), (9, 4)]]
    for g in graphs:
        ecc = cover_eccentricities_oracle(g)
        assert neighborhood_summary(g, ecc, transitive=True) == neighborhood_summary_oracle(g, ecc)


def test_neighborhood_summary_ladder():
    for n, k in [(5, 2), (7, 3), (8, 3), (9, 4), (12, 5)]:
        p = KneserParams(n, k)
        g = kneser_graph(p)
        cover = neighborhood_geometry(g)
        ecc = eccentricities(cover.graph)
        assert ecc[:g.n] == ecc[g.n:]
        ecc = ecc[:g.n]
        # KG(n,k) is vertex-transitive, so vertex 0's walk sets decide both
        assert walk_metrics_from(g, 0) == (predicted_odd_girth(p), ecc[0])
        assert odd_girth(g) == predicted_odd_girth(p)
        s = neighborhood_summary(g, ecc)
        assert s == rank2_summary(cover)
        assert s.diameters == (predicted_diameter(p),) * 2
        assert s.gonality == predicted_gonality(p)


def test_path_endpoints_must_be_k_subsets():
    p = KneserParams(5, 2)
    with pytest.raises(ValueError):
        construct_even_path(subset_from_elements([0]), subset_from_elements([1, 2]), p)
