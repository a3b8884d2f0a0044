from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from knesergeom import (
    DIGON,
    FlagError,
    GeometryParams,
    Graph,
    INF,
    IncidenceSystem,
    KneserParams,
    NEITHER,
    PARTIAL_LINEAR_SPACE,
    adjacent_transpositions,
    buekenhout_diagram,
    build_geometry,
    incidence_graph,
    is_geometry,
    is_residually_connected,
    is_thick,
    is_type_preserving_automorphism,
    kneser_neighborhood_geometry,
    level_orbits,
    rank2_summary,
    residue,
    residue_mask,
    satisfies_ip2,
    symmetry_witness,
)
from knesergeom.group_action import SymmetryWitness, _VerifiedWitness
from knesergeom.incidence import (
    DisconnectedGeometryError,
    _classify,
    _rank1_residue_sizes,
    _walk,
    diagram_to_dot,
    flags_of_type,
    is_flag,
    system_to_json,
)
from helpers import (
    bipartite_systems,
    classify_oracle,
    classify_pairwise_oracle,
    flags_oracle,
    girth_oracle,
    nx_incidence_graph,
    residue_diagram_mismatches,
    residue_oracle,
    residue_verdicts_oracle,
    truncation,
    typed_systems,
    vertex_edge_geometry,
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


def test_system_from_graph_rejects_equal_type_masks():
    # elements 0 and 2 share type 0; the masks make them incident
    path = Graph.from_masks([0b110, 0b001, 0b001])
    with pytest.raises(ValueError, match="elements 0,2 of equal type 0"):
        IncidenceSystem.from_graph((0, 1), [0, 1, 0], path)
    with pytest.raises(ValueError, match="3 vertices for 2 elements"):
        IncidenceSystem.from_graph((0, 1), [0, 1], path)
    sys_ = IncidenceSystem.from_graph((0, 1), [0, 1, 1], path)
    assert sys_ == IncidenceSystem((0, 1), [0, 1, 1], [(0, 1), (0, 2)])


def test_typed_rows_skip_the_type_check_only_when_each_type_is_a_block(monkeypatch, petersen):
    # a typed row never reaches its own block, so a system whose types are
    # the blocks reads no row; any other typing is checked row by row
    from knesergeom.graphs import _TypedRows, complete_tensor

    product = complete_tensor(petersen, 3)
    blocks = [v // 10 for v in range(30)]
    swapped = blocks[:]  # 0 is incident to 15, 18 and 19: of type 1, it meets 18
    swapped[0], swapped[15] = 1, 0
    with monkeypatch.context() as m:
        m.setattr(_TypedRows, "__iter__", lambda self: pytest.fail("rows read"))
        m.setattr(_TypedRows, "__getitem__", lambda self, v: pytest.fail("rows read"))
        sys_ = IncidenceSystem.from_graph(range(3), blocks, product)
        renamed = IncidenceSystem.from_graph((4, 7, 9), [(4, 7, 9)[t] for t in blocks], product)
    assert sys_.graph is product and renamed.graph is product
    with pytest.raises(ValueError, match="of equal type"):
        IncidenceSystem.from_graph(range(3), swapped, product)
    with pytest.raises(ValueError, match="of equal type"):
        IncidenceSystem.from_graph(range(3), [v % 3 for v in range(30)], product)
    empty = IncidenceSystem.from_graph(range(3), [], complete_tensor(Graph(0), 3))
    assert empty.n_elements == 0


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
    assert t0.rank == 1 and t0.n_elements == 2 and not any(t0.element_masks)
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


def test_residual_connectivity_fails_below_the_empty_flag():
    # two chambers sharing only the point 0: the whole incidence graph and
    # every line's and plane's residue are connected, the point's residue
    # {1, 3} + {2, 4} is not
    bowtie = IncidenceSystem(
        (0, 1, 2),
        [0, 1, 1, 2, 2],
        [(0, 1), (0, 3), (1, 3), (0, 2), (0, 4), (2, 4)],
    )
    assert is_geometry(bowtie).ok
    assert is_residually_connected(bowtie) == (False, (0,))


def _flag_type(sys_, flag):
    return tuple(sorted(sys_.type_of[e] for e in flag))


@settings(max_examples=300, deadline=None)
@given(typed_systems())
def test_residue_checks_match_brute_force_property(sys_):
    g = nx_incidence_graph(sys_)
    want = residue_verdicts_oracle(sys_)
    rank = sys_.rank
    for size in range(rank + 1):
        for J in combinations(sys_.types, size):
            flags = flags_oracle(g, sys_.type_of, J)
            assert sorted(flags_of_type(sys_, J)) == flags
            for flag in flags:
                mask = residue_mask(sys_, flag)
                assert {e for e in g if mask >> e & 1} == residue_oracle(g, flag)

    def is_oracle_flag(flag):
        return flag in flags_oracle(g, sys_.type_of, _flag_type(sys_, flag))

    # geometry: the witness is a non-chamber flag with an empty residue
    ok, witness = is_geometry(sys_)
    assert ok == want["geometry"]
    if ok:
        assert witness is None
    else:
        assert is_oracle_flag(witness) and len(witness) < rank
        assert residue_oracle(g, witness) == set()

    # residual connectivity: the witness is a flag of corank >= 2 whose
    # residue is disconnected
    ok, flag = is_residually_connected(sys_)
    assert ok == want["residually_connected"]
    if ok:
        assert flag is None
    else:
        res = residue_oracle(g, flag)
        assert is_oracle_flag(flag) and len(flag) <= rank - 2
        assert res and not nx.is_connected(g.subgraph(res))

    # ip2: the witness is a corank-2 flag whose residue, of the given
    # pair of types, is neither a digon nor a partial linear space
    ok, pair, flag = satisfies_ip2(sys_)
    assert ok == want["ip2"]
    if ok:
        assert (pair, flag) == (None, None)
    else:
        assert is_oracle_flag(flag) and len(flag) == rank - 2
        assert pair == tuple(t for t in sys_.types if t not in _flag_type(sys_, flag))
        assert classify_oracle(g, sys_.type_of, residue_oracle(g, flag), pair) == NEITHER

    assert is_thick(sys_) == want["thick"]
    assert sorted(_rank1_residue_sizes(sys_)) == want["rank1_sizes"]

    # every rank-2 residue, and the system itself at rank 2
    for J in combinations(sys_.types, rank - 2):
        pair = tuple(t for t in sys_.types if t not in J)
        for flag in flags_oracle(g, sys_.type_of, J):
            sub, _ = residue(sys_, flag)
            got = _classify(sub.element_masks, *map(sub.type_mask, sub.types))
            assert got == classify_oracle(g, sys_.type_of, residue_oracle(g, flag), pair)


def test_firm_thick():
    # firm: every rank-1 residue has at least 2 elements; thick: at least 3
    single_chamber = IncidenceSystem((0, 1), [0, 1], [(0, 1)])
    assert [size for _, size in _rank1_residue_sizes(single_chamber)] == [1, 1]
    assert not is_thick(single_chamber)
    assert is_thick(kneser_neighborhood_geometry(KneserParams(5, 2)))
    assert {size for _, size in _rank1_residue_sizes(digon())} == {2}
    assert not is_thick(digon())
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


def test_partial_linear_space_girth_search_starts_at_six(monkeypatch, petersen):
    from knesergeom import graphs, incidence

    # the incidence graph of a rank-2 system is bipartite by construction,
    # so its girth search gets the floor 4 with no bipartiteness pass, and a
    # partial linear space has no 4-cycle, so it gets the floor 6
    floors, real = [], incidence._girth
    monkeypatch.setattr(incidence, "_girth",
                        lambda rows, sources, floor: (floors.append(floor),
                                                      real(rows, sources, floor))[1])
    monkeypatch.setattr(graphs, "is_bipartite", lambda g: pytest.fail("bipartiteness pass"))
    assert rank2_summary(kneser_neighborhood_geometry(KneserParams(5, 2))).gonality == 3
    assert rank2_summary(vertex_edge_geometry(petersen)).gonality == 5  # girth 10 > 6
    assert rank2_summary(kneser_neighborhood_geometry(KneserParams(6, 2))).gonality == 2
    assert floors == [6, 6, 4]


@settings(max_examples=300, deadline=None)
@given(bipartite_systems())
def test_rank2_gonality_matches_girth_oracle_property(sys_):
    try:
        s = rank2_summary(sys_)
    except DisconnectedGeometryError:
        return
    cycle = girth_oracle(sys_.graph)
    assert s.gonality == (INF if cycle == INF else cycle // 2)


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
    assert _classify(star.element_masks, *map(star.type_mask, star.types)) == PARTIAL_LINEAR_SPACE


@settings(max_examples=400, deadline=None)
@given(bipartite_systems(), st.data())
def test_classify_one_pass_matches_pairwise_scan_property(sys_, data):
    # a drawn candidate mask, often the whole system, and both side orders
    everything = (1 << sys_.n_elements) - 1
    cand = data.draw(st.sampled_from([everything, data.draw(st.integers(0, everything))]))
    g = nx_incidence_graph(sys_)
    elements = [e for e in range(sys_.n_elements) if cand >> e & 1]
    for pair in (sys_.types, sys_.types[::-1]):
        got = _classify(sys_.element_masks, *(cand & sys_.type_mask(t) for t in pair))
        assert got == classify_pairwise_oracle(sys_, cand, pair)
        assert got == classify_oracle(g, sys_.type_of, elements, pair)


def test_ip2():
    assert satisfies_ip2(digon()).ok
    ng6 = kneser_neighborhood_geometry(KneserParams(6, 2))
    ok, pair, flag = satisfies_ip2(ng6)
    assert not ok and pair == (0, 1) and flag == ()


def test_diagram_petersen_vertex_edge(petersen):
    d = buekenhout_diagram(vertex_edge_geometry(petersen))
    assert d.orders == {0: 1, 1: 2}
    assert d.counts == {0: 10, 1: 15}
    s = d.edges[(0, 1)]
    assert (s.diameters[0], s.gonality, s.diameters[1]) == (5, 5, 6)


def test_diagram_desargues_configuration():
    d = buekenhout_diagram(kneser_neighborhood_geometry(KneserParams(5, 2)))
    assert d.orders == {0: 2, 1: 2}
    assert d.counts == {0: 10, 1: 10}
    s = d.edges[(0, 1)]
    assert (s.diameters[0], s.gonality, s.diameters[1]) == (5, 3, 5)


def test_diagram_omits_digon_edges():
    d = buekenhout_diagram(digon(3, 3))
    assert d.edges == {}
    dot = diagram_to_dot(d)
    assert "--" not in dot


def test_diagram_nonuniform_path_is_not_certified():
    # a path geometry: point 1 lies on two lines, points 0 and 2 on one, so
    # the first rank-1 residue of cotype {1} does not stand for the others;
    # the reflection (0 2)(3 4) is an automorphism, but its level 0 for the
    # points covers 2 of 3, so the witness does not certify them
    sys_ = IncidenceSystem((0, 1), [0, 0, 0, 1, 1], [(0, 3), (1, 3), (1, 4), (2, 4)])
    reflection = (2, 1, 0, 4, 3)
    assert is_type_preserving_automorphism(sys_, reflection)
    assert level_orbits(sys_, [reflection], (0,)) == [(2, 3)]
    assert level_orbits(sys_, [reflection], (1,)) == [(2, 2)]
    d = buekenhout_diagram(sys_)
    assert d.orders == {0: 1, 1: 0}
    assert residue_diagram_mismatches(sys_, d) == [((1,), 1)]


def test_walk_trusts_only_a_verified_witness_of_its_own_graph():
    params = GeometryParams(5, 2, 3)
    geom = build_geometry(params)
    sys_ = geom.incidence_system()
    witness = symmetry_witness(geom, adjacent_transpositions(params.ground_size))
    sizes = range(sys_.rank + 1)
    type_sets = [J for size in sizes for J in combinations(sys_.types, size)]
    assert witness.covered == sys_.rank  # every type set
    every = list(_walk(sys_, sizes))
    assert len(every) == sum(1 for J in type_sets for _ in flags_of_type(sys_, J))
    # verified for this graph: the first flag of each type set
    firsts = [next((J, f, c) for J2, f, c in every if J2 == J) for J in type_sets]
    assert list(_walk(sys_, sizes, witness)) == firsts
    # the same fields, full levels included, built by hand or edited: every flag
    hand_built = SymmetryWitness(*witness)
    edited = witness._replace(tables=witness.tables)
    for untrusted in (hand_built, edited):
        assert untrusted.covered == 0
        assert list(_walk(sys_, sizes, untrusted)) == every
    # a verified witness of another build: an equal graph, not the same one
    other = build_geometry(params).incidence_system()
    assert other.graph == sys_.graph and other.graph is not sys_.graph
    assert list(_walk(other, sizes, witness)) == every
    assert is_geometry(other, witness) == is_geometry(sys_) == (True, None)


def test_hand_built_witness_does_not_decide_a_verdict():
    # the vertex-edge geometry of the path 1-0-2-3: the first residue of
    # each cotype has two elements, an end vertex's has one
    sys_ = vertex_edge_geometry(Graph(4, [(0, 1), (0, 2), (2, 3)]))
    false_levels = ((4, 4), (2, 2))
    # a verified witness is taken at its word: one flag per cotype
    trusted = _VerifiedWitness(sys_.graph, (), false_levels)
    assert sorted(size for _, size in _rank1_residue_sizes(sys_, trusted)) == [2, 2]
    # the same levels in a hand-built one decide nothing
    hand_built = SymmetryWitness(sys_.graph, (), false_levels)
    assert sorted(_rank1_residue_sizes(sys_, hand_built)) == sorted(_rank1_residue_sizes(sys_))
    assert min(size for _, size in _rank1_residue_sizes(sys_, hand_built)) == 1


def test_system_json_shape():
    ng = kneser_neighborhood_geometry(KneserParams(5, 2))
    doc = system_to_json(ng)
    assert doc["rank"] == 2
    assert len(doc["elements"]) == 20
    assert doc["elements"][0]["label"].startswith("0x")
    assert "incidences" not in doc  # the build command streams them a row at a time
