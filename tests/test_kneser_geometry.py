import math
import tracemalloc

import pytest

from knesergeom import (
    GeometryParams,
    Graph,
    KneserParams,
    are_isomorphic,
    buekenhout_diagram,
    build_geometry,
    chamber_count,
    flags_of_type,
    incidence_graph,
    is_geometry,
    is_residually_connected,
    is_thick,
    enumerate_k_subsets,
    kneser_graph,
    kneser_neighborhood_geometry,
    neighborhood_geometry,
    predicted_diagram,
    residue,
    satisfies_ip2,
)
from knesergeom.graphs import _TypedRows, connected_components
from helpers import (
    colex_rank,
    incidence_system_oracle,
    kneser_graph_oracle,
    residue_diagram_mismatches,
    truncation,
)


def test_incidence_system_holds_no_incidence_rows():
    # beyond the factor, the system holds its types and labels; the 2,145
    # stored rows of K_3 x KG(13,4) held 713 KB and peaked at 951 KB
    geom = build_geometry(GeometryParams(9, 4, 3))
    geom.factor  # built outside the count
    tracemalloc.start()
    try:
        sys_ = geom.incidence_system()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(sys_.graph.neighbor_masks) is _TypedRows
    assert sys_.graph.neighbor_masks.masks is geom.factor.neighbor_masks
    assert held < 128 << 10, held
    assert peak < 256 << 10, peak


@pytest.mark.parametrize(
    "n,k,r",
    [(5, 2, 2), (5, 2, 3), (5, 2, 4), (5, 2, 5), (6, 2, 4), (7, 3, 3), (12, 5, 2), (9, 4, 3)],
)
def test_disjointness_tables_match_pair_loops(n, k, r):
    p = GeometryParams(n, k, r)
    assert build_geometry(p).incidence_system() == incidence_system_oracle(n, k, r)
    for m in {n, p.ground_size}:
        assert kneser_graph(KneserParams(m, k)) == kneser_graph_oracle(m, k)


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
    # the rank-2 disjointness geometry against the double-cover construction
    # of the neighborhood geometry of KG(n,k), labels included
    for n, k in [(5, 2), (6, 2), (7, 3), (9, 4), (12, 5)]:
        p = KneserParams(n, k)
        labels = [f"{s.bits:#x}" for s in enumerate_k_subsets(p.ground, k)]
        expected = neighborhood_geometry(kneser_graph(p), labels)
        assert build_geometry(GeometryParams(n, k, 2)).incidence_system() == expected
        assert kneser_neighborhood_geometry(p) == expected


def test_incidence_system_checks_only_the_kneser_factor(monkeypatch):
    from knesergeom import kneser, kneser_geometry

    # one disjointness table, of the factor's 28 subsets, and no other rows:
    # the factor is simple by the table's lemma, so neither it nor the
    # 84-row K_3 x KG(8,2) goes through from_masks, the checked constructor,
    # which accepts the table as the oracle once the patch is undone
    tables = []
    table = kneser.disjointness_table

    def no_check(masks):
        raise AssertionError(f"from_masks ran on {len(masks)} rows")

    with monkeypatch.context() as patch:
        patch.setattr(kneser_geometry, "disjointness_table",
                      lambda subsets: (tables.append(table(subsets)), tables[-1])[1])
        patch.setattr(Graph, "from_masks", no_check)
        geom = build_geometry(GeometryParams(6, 2, 3))
        sys_ = geom.incidence_system()
    assert sys_.n_elements == 3 * 28
    assert [len(t) for t in tables] == [math.comb(8, 2)]
    assert Graph.from_masks(tables[0]) == geom.factor == kneser_graph(KneserParams(8, 2))


def test_element_indexing():
    # type-major, colex rank within a type
    geom = build_geometry(GeometryParams(5, 2, 3))
    assert geom.n_elements == 63
    ground = geom.params.ground
    for e in range(63):
        assert geom.type_of(e) == e // 21
        assert colex_rank(ground, geom.subset_of(e)) == e % 21


def test_incidence_predicate_matches_materialized():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    for x in range(geom.n_elements):
        for y in range(x + 1, geom.n_elements):
            assert geom.incident(x, y) == sys_.incident(x, y)


def test_element_ids_outside_the_geometry_are_refused():
    # (5,2,3) has 63 elements: an id past the end no longer wraps into a
    # type or a subset, and a negative one is no longer incident to any
    geom = build_geometry(GeometryParams(5, 2, 3))
    for bad in (63, 100, -1):
        with pytest.raises(ValueError, match="out of range 0..62"):
            geom.type_of(bad)
        with pytest.raises(ValueError, match="out of range 0..62"):
            geom.subset_of(bad)
        for x, y in ((bad, 5), (5, bad), (bad, bad)):
            with pytest.raises(ValueError, match="out of range 0..62"):
                geom.incident(x, y)
    assert geom.type_of(62) == 2 and geom.subset_of(62) == geom.subset_of(20)
    assert geom.incident(62, 62) and not geom.incident(0, 1)


def test_system_and_graph_ids_outside_the_geometry_are_refused():
    # the (5,2,3) system and its incidence graph refuse ids outside 0..62 by
    # name: unchecked, a negative id reads bits from the far end of a mask,
    # an id past the end is incident to itself, or the read raises
    # IndexError or a shift error
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    for bad in (63, 100, 1000, -1):
        for x, y in ((bad, 5), (5, bad), (bad, bad), (0, bad), (bad, 0)):
            with pytest.raises(ValueError, match="out of range 0..62"):
                sys_.incident(x, y)
            with pytest.raises(ValueError, match="out of range 0..62"):
                sys_.graph.has_edge(x, y)
    assert sys_.incident(62, 62) and not sys_.graph.has_edge(62, 62)
    assert all(sys_.incident(0, y) == geom.incident(0, y) for y in range(63))


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
    sys_ = build_geometry(GeometryParams(5, 2, 3)).incidence_system()
    for pair in [(0, 1), (0, 2), (1, 2)]:
        assert len(connected_components(incidence_graph(truncation(sys_, pair)).graph)) == 1


def test_truncation_is_neighborhood_geometry_of_bigger_kneser():
    # dropping one of three types leaves the disjointness geometry of the
    # full 7-point ground set, i.e. the neighborhood geometry of KG(7,2)
    sys_ = build_geometry(GeometryParams(5, 2, 3)).incidence_system()
    trunc = truncation(sys_, (0, 1))
    ng = kneser_neighborhood_geometry(KneserParams(7, 2))
    assert trunc.type_of == ng.type_of
    assert trunc.graph == ng.graph
    assert trunc.labels == ng.labels


def test_diagram_matches_predicted():
    for n, k, r in [(5, 2, 2), (5, 2, 3), (6, 2, 3)]:
        params = GeometryParams(n, k, r)
        sys_ = build_geometry(params).incidence_system()
        assert buekenhout_diagram(sys_) == predicted_diagram(params)
        # every residue, not only the first of each kind, is as predicted
        assert residue_diagram_mismatches(sys_, predicted_diagram(params)) == []


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
    # (r-1) choices of another type times the C(m-k, k) subsets disjoint
    # from a fixed one, with m = n + k(r-2)
    params = GeometryParams(5, 2, 3)
    g = incidence_graph(build_geometry(params).incidence_system()).graph
    expected = (params.r - 1) * math.comb(params.ground_size - params.k, params.k)
    assert expected == 20
    assert all(g.degree(v) == expected for v in range(g.n))
