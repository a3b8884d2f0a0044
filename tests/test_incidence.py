import pytest

from knesergeom import (
    DIGON,
    FlagError,
    Graph,
    IncidenceSystem,
    KneserParams,
    NEITHER,
    PARTIAL_LINEAR_SPACE,
    buekenhout_diagram,
    incidence_graph,
    is_firm,
    is_geometry,
    is_residually_connected,
    is_thick,
    kneser_neighborhood_geometry,
    rank2_summary,
    residue,
    residue_mask,
    satisfies_ip2,
    truncation,
    vertex_edge_geometry,
)
from knesergeom.incidence import (
    DisconnectedGeometryError,
    classify_rank2,
    diagram_to_dot,
    flags_of_type,
    is_flag,
    system_to_json,
)


def digon(a=2, b=2):
    return IncidenceSystem(
        (0, 1),
        [0] * a + [1] * b,
        [(i, a + j) for i in range(a) for j in range(b)],
    )


def test_system_validation():
    with pytest.raises(ValueError, match="equal type"):
        IncidenceSystem((0, 1), [0, 0], [(0, 1)])
    sys_ = IncidenceSystem((0, 1), [0, 1], [(0, 1)])
    assert sys_.rank == 2 and sys_.incident(0, 1) and sys_.incident(0, 0)


def test_incidence_graph_k2():
    sys_ = IncidenceSystem((0, 1), [0, 1], [(0, 1)])
    tig = incidence_graph(sys_)
    assert tig.graph == Graph(2, [(0, 1)])
    assert tig.graph is sys_.graph
    assert tig.type_colors == (0, 1)


def test_residue_mask_is_common_neighborhood():
    sys_ = kneser_neighborhood_geometry(KneserParams(5, 2))
    for J in [(), (0,), (1,), (0, 1)]:
        for flag in flags_of_type(sys_, J):
            expected = {
                e for e in range(sys_.n_elements)
                if e not in flag and all(sys_.incident(e, f) for f in flag)
            }
            mask = residue_mask(sys_, flag)
            assert {e for e in range(sys_.n_elements) if mask >> e & 1} == expected


def test_is_flag():
    d = digon()
    assert is_flag(d, [0, 2])
    assert is_flag(d, [])
    assert not is_flag(d, [0, 1])  # same type
    assert is_flag(d, [0]) and not is_flag(d, [9])


def test_flags_of_type():
    d = digon(2, 3)
    assert list(flags_of_type(d, ())) == [()]
    assert len(list(flags_of_type(d, (0,)))) == 2
    assert len(list(flags_of_type(d, (0, 1)))) == 6


def test_is_geometry():
    assert is_geometry(digon()).ok
    lonely = IncidenceSystem((0, 1), [0, 1, 1], [(0, 1)])  # element 2 isolated
    ok, witness = is_geometry(lonely)
    assert not ok and witness == (2,)


def test_residue_identity_and_chamber():
    d = digon()
    whole, back = residue(d, ())
    assert whole == d and back == (0, 1, 2, 3)
    empty, back = residue(d, (0, 2))
    assert empty.rank == 0 and empty.n_elements == 0
    with pytest.raises(FlagError):
        residue(d, (0, 1))


def test_residue_composition():
    ng = kneser_neighborhood_geometry(KneserParams(5, 2))
    sub, back = residue(ng, (0,))
    assert sub.rank == 1
    assert sub.n_elements == 3  # the 3 disjoint pairs
    assert all(ng.type_of[e] == 1 for e in back)


def test_truncation():
    d = digon(2, 3)
    assert truncation(d, (0, 1)) == d
    t0 = truncation(d, (0,))
    assert t0.rank == 1 and t0.n_elements == 2 and all(not r for r in t0.adj)
    with pytest.raises(ValueError):
        truncation(d, (7,))


def test_residual_connectivity():
    assert is_residually_connected(digon()).ok
    two = IncidenceSystem(
        (0, 1),
        [0, 1, 0, 1],
        [(0, 1), (2, 3)],
    )
    ok, flag = is_residually_connected(two)
    assert not ok and flag == ()


def test_firm_thick():
    single_chamber = IncidenceSystem((0, 1), [0, 1], [(0, 1)])
    assert not is_firm(single_chamber)
    assert is_thick(kneser_neighborhood_geometry(KneserParams(5, 2)))
    assert is_firm(digon()) and not is_thick(digon())
    assert is_thick(digon(3, 3))


def test_rank2_summary_fixtures(petersen):
    ve = vertex_edge_geometry(petersen)
    s = rank2_summary(ve)
    assert (s.gonality, s.diameters) == (5, (5, 6))
    assert s.classification == PARTIAL_LINEAR_SPACE

    ng = kneser_neighborhood_geometry(KneserParams(5, 2))
    s = rank2_summary(ng)
    assert (s.gonality, s.diameters) == (3, (5, 5))

    s = rank2_summary(kneser_neighborhood_geometry(KneserParams(6, 2)))
    assert (s.gonality, s.diameters, s.classification) == (2, (3, 3), NEITHER)


def test_rank2_summary_digon():
    s = rank2_summary(digon(3, 4))
    assert s.classification == DIGON
    assert (s.gonality, s.diameters) == (2, (2, 2))


def test_rank2_disconnected_raises():
    two = IncidenceSystem((0, 1), [0, 1, 0, 1], [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGeometryError) as exc:
        rank2_summary(two)
    assert len(exc.value.components) == 2


def test_classify_degenerate_star():
    # one line through every point: no 4-cycle, so a partial linear space
    star = IncidenceSystem((0, 1), [0, 0, 0, 1], [(0, 3), (1, 3), (2, 3)])
    assert classify_rank2(star) == PARTIAL_LINEAR_SPACE


def test_ip2():
    assert satisfies_ip2(digon()).ok
    ng6 = kneser_neighborhood_geometry(KneserParams(6, 2))
    ok, pair, flag = satisfies_ip2(ng6)
    assert not ok and pair == (0, 1) and flag == ()


def test_diagram_petersen_vertex_edge(petersen):
    d = buekenhout_diagram(vertex_edge_geometry(petersen), verify_uniformity=True)
    assert d.orders == {0: 1, 1: 2}
    assert d.counts == {0: 10, 1: 15}
    s = d.edges[(0, 1)]
    assert (s.diameters[0], s.gonality, s.diameters[1]) == (5, 5, 6)


def test_diagram_desargues_configuration():
    d = buekenhout_diagram(
        kneser_neighborhood_geometry(KneserParams(5, 2)), verify_uniformity=True
    )
    assert d.orders == {0: 2, 1: 2}
    assert d.counts == {0: 10, 1: 10}
    s = d.edges[(0, 1)]
    assert (s.diameters[0], s.gonality, s.diameters[1]) == (5, 3, 5)


def test_diagram_omits_digon_edges():
    d = buekenhout_diagram(digon(3, 3), verify_uniformity=True)
    assert d.edges == {}
    dot = diagram_to_dot(d)
    assert "--" not in dot


def test_diagram_nonuniform_raises():
    # a path geometry: point 1 lies on two lines, points 0 and 2 on one
    sys_ = IncidenceSystem((0, 1), [0, 0, 0, 1, 1], [(0, 3), (1, 3), (1, 4), (2, 4)])
    with pytest.raises(ValueError, match="non-uniform"):
        buekenhout_diagram(sys_, verify_uniformity=True)


def test_system_json_shape():
    ng = kneser_neighborhood_geometry(KneserParams(5, 2))
    doc = system_to_json(ng)
    assert doc["rank"] == 2
    assert len(doc["elements"]) == 20
    assert doc["elements"][0]["label"].startswith("0x")
    assert all(a < b for a, b in doc["incidences"])
