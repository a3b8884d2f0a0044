import math

import pytest

from knesergeom import (
    GeometryParams,
    KneserParams,
    are_isomorphic,
    buekenhout_diagram,
    build_geometry,
    chamber_count,
    flags_of_type,
    incidence_graph,
    incidence_graph_degree,
    is_geometry,
    is_residually_connected,
    is_thick,
    kneser_neighborhood_geometry,
    predicted_diagram,
    residue,
    satisfies_ip2,
    truncation,
)


def test_params_validation():
    with pytest.raises(ValueError):
        GeometryParams(4, 2, 3)
    with pytest.raises(ValueError):
        GeometryParams(5, 2, 1)
    with pytest.raises(ValueError):
        GeometryParams(41, 20, 4)  # ground set would need 81 points
    p = GeometryParams(5, 2, 3)
    assert p.ground_size == 7 and p.per_type == 21 and p.n_elements == 63


def test_rank2_case_is_neighborhood_geometry():
    geom = build_geometry(GeometryParams(5, 2, 2))
    assert geom.incidence_system() == kneser_neighborhood_geometry(KneserParams(5, 2))


def test_element_indexing():
    geom = build_geometry(GeometryParams(5, 2, 3))
    assert geom.n_elements == 63
    for e in [0, 21, 62]:
        t = geom.type_of(e)
        assert geom.element_index(t, geom.subset_of(e)) == e


def test_incidence_predicate_matches_materialized():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    for x in range(geom.n_elements):
        for y in range(x + 1, geom.n_elements):
            assert geom.incident(x, y) == sys_.incident(x, y)


def test_counts_360():
    geom = build_geometry(GeometryParams(7, 3, 3))
    assert geom.n_elements == 360
    assert geom.params.per_type == math.comb(10, 3)


def test_geometry_predicates():
    for n, k, r in [(5, 2, 2), (5, 2, 3), (6, 2, 3), (5, 2, 4)]:
        sys_ = build_geometry(GeometryParams(n, k, r)).incidence_system()
        assert is_geometry(sys_).ok, (n, k, r)
        assert is_residually_connected(sys_).ok, (n, k, r)
        assert is_thick(sys_), (n, k, r)


def test_rank2_residues_isomorphic_to_neighborhood_geometry():
    params = GeometryParams(5, 2, 3)
    sys_ = build_geometry(params).incidence_system()
    reference = incidence_graph(kneser_neighborhood_geometry(params.kneser))
    for e in range(sys_.n_elements):
        sub, _ = residue(sys_, (e,))
        tig = incidence_graph(sub)
        assert (
            are_isomorphic(
                tig.graph, reference.graph, tig.type_colors, reference.type_colors
            )
            is not None
        )


def test_residue_composition_identity():
    sys_ = build_geometry(GeometryParams(5, 2, 3)).incidence_system()
    from knesergeom.incidence import flags_of_type

    for outer in [(0,), (0, 30)]:
        sub, back = residue(sys_, outer)
        inner_type = (sub.types[0],)
        for inner in list(flags_of_type(sub, inner_type))[:4]:
            nested, back2 = residue(sub, inner)
            merged = tuple(sorted(outer + tuple(back[e] for e in inner)))
            direct, back_direct = residue(sys_, merged)
            assert nested == direct
            assert tuple(back[back2[i]] for i in range(nested.n_elements)) == back_direct


def test_truncation_pairs_connected():
    from knesergeom import is_connected

    sys_ = build_geometry(GeometryParams(5, 2, 3)).incidence_system()
    for pair in [(0, 1), (0, 2), (1, 2)]:
        assert is_connected(incidence_graph(truncation(sys_, pair)).graph)


def test_truncation_is_neighborhood_geometry_of_bigger_kneser():
    # dropping one of three types leaves the disjointness geometry of the
    # full 7-point ground set, i.e. the neighborhood geometry of KG(7,2)
    sys_ = build_geometry(GeometryParams(5, 2, 3)).incidence_system()
    trunc = truncation(sys_, (0, 1))
    ng = kneser_neighborhood_geometry(KneserParams(7, 2))
    assert trunc.type_of == ng.type_of
    assert trunc.adj == ng.adj
    assert trunc.labels == ng.labels


def test_diagram_matches_predicted():
    for n, k, r in [(5, 2, 2), (5, 2, 3), (6, 2, 3)]:
        params = GeometryParams(n, k, r)
        sys_ = build_geometry(params).incidence_system()
        assert buekenhout_diagram(sys_, verify_uniformity=True) == predicted_diagram(params)


def test_predicted_diagram_623():
    d = predicted_diagram(GeometryParams(6, 2, 3))
    assert d.orders == {0: 5, 1: 5, 2: 5}
    assert d.counts == {0: 28, 1: 28, 2: 28}
    for pair in [(0, 1), (0, 2), (1, 2)]:
        s = d.edges[pair]
        assert (s.diameters[0], s.gonality, s.diameters[1]) == (3, 2, 3)


def test_chamber_count():
    assert chamber_count(GeometryParams(5, 2, 2)) == 30
    assert chamber_count(GeometryParams(5, 2, 3)) == 630
    # k = 1: falling factorial of distinct points
    assert chamber_count(GeometryParams(3, 1, 4)) == 5 * 4 * 3 * 2


def test_enumerate_chambers_agrees_with_count():
    for n, k, r in [(5, 2, 2), (5, 2, 3)]:
        params = GeometryParams(n, k, r)
        sys_ = build_geometry(params).incidence_system()
        chambers = list(flags_of_type(sys_, range(r)))
        assert len(chambers) == chamber_count(params)
        assert len(set(chambers)) == len(chambers)


def test_ip2_dichotomy():
    assert satisfies_ip2(build_geometry(GeometryParams(5, 2, 3)).incidence_system()).ok
    assert not satisfies_ip2(build_geometry(GeometryParams(6, 2, 3)).incidence_system()).ok


def test_incidence_graph_degree():
    params = GeometryParams(5, 2, 3)
    g = incidence_graph(build_geometry(params).incidence_system()).graph
    expected = incidence_graph_degree(params)
    assert expected == 20
    assert all(g.degree(v) == expected for v in range(g.n))
