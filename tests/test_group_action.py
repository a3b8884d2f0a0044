import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from knesergeom import (
    GeometryParams,
    adjacent_transpositions,
    IncidenceSystem,
    build_geometry,
    chamber_orbit_size,
    flag_orbit_count,
    flags_of_type,
    is_type_preserving_automorphism,
    kneser_neighborhood_geometry,
    KneserParams,
    level_orbits,
    permutation_group_order,
    point_tables,
    symmetry_witness,
    type_swap_map,
)
from knesergeom.graphs import Graph, complete_tensor
from knesergeom.isomorphism import is_automorphism
from knesergeom.kneser import typed_copies
from knesergeom.group_action import (
    _label_pairing,
    factor_is_vertex_transitive,
)
from helpers import (
    block_automorphism_oracle,
    colex_point_table,
    complete_tensor_oracle,
    labelled_typed_systems,
    preserves_incidence_oracle,
    restricted_orbits_oracle,
    small_graphs,
    subset_from_elements,
    tuple_orbit_group_order,
    typed_systems,
    vertex_edge_geometry,
)


def _transposition(m, i, j):
    images = list(range(m))
    images[i], images[j] = j, i
    return tuple(images)


def test_image_tuples_must_be_permutations():
    # ground-set permutations are image tuples; point_tables and
    # permutation_group_order reject one that is not a permutation
    geom = build_geometry(GeometryParams(5, 2, 3))
    assert permutation_group_order([(1, 0, 2)]) == 2
    for bad in [(0, 0, 1, 3, 4, 5, 6), (0, 2, 3, 4, 5, 6, 7)]:
        with pytest.raises(ValueError, match="not a permutation"):
            point_tables(geom, [bad])
    for bad in [(0, 0, 1), (0, 2)]:
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_group_order([bad])
    assert adjacent_transpositions(4) == [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]


def test_point_tables_map_subsets():
    geom = build_geometry(GeometryParams(5, 2, 3))
    (ident,) = point_tables(geom, [tuple(range(7))])
    assert ident == tuple(range(63))
    (swap,) = point_tables(geom, [_transposition(7, 0, 1)])
    for e in range(63):
        assert geom.type_of(swap[e]) == geom.type_of(e)
    e = next(e for e in range(21) if geom.subset_of(e) == subset_from_elements([0, 2]))
    assert geom.subset_of(swap[e]) == subset_from_elements([1, 2])
    with pytest.raises(ValueError):
        point_tables(geom, [tuple(range(6))])


def test_point_tables_match_colex_oracle():
    rng = random.Random(20181129)
    for n, k, r in [(5, 2, 3), (6, 2, 3), (7, 3, 3)]:
        geom = build_geometry(GeometryParams(n, k, r))
        m = geom.params.ground_size
        perms = adjacent_transpositions(m)
        for _ in range(5):
            images = list(range(m))
            rng.shuffle(images)
            perms.append(tuple(images))
        assert point_tables(geom, perms) == [colex_point_table(geom, pi) for pi in perms]


def test_incidence_preserved_under_action():
    geom = build_geometry(GeometryParams(5, 2, 3))
    (table,) = point_tables(geom, [_transposition(7, 2, 5)])
    for x in range(0, 63, 5):
        for y in range(x + 1, 63, 7):
            assert geom.incident(x, y) == geom.incident(table[x], table[y])


def test_generators_are_automorphisms():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    for table in point_tables(geom, adjacent_transpositions(7)):
        assert is_type_preserving_automorphism(sys_, table)


_FAMILY_PARAMS = [GeometryParams(5, 2, 2), GeometryParams(5, 2, 3), GeometryParams(4, 1, 3),
                  GeometryParams(6, 2, 3)]


@st.composite
def families_and_permutations(draw):
    """A geometry whose subsets are its own colex family, a shuffle of it,
    or that family with one subset replaced by a nonempty mask (a repeat of
    another, a foreign mask or the same one), and a ground-set permutation:
    the identity, an adjacent transposition or any."""
    params = draw(st.sampled_from(_FAMILY_PARAMS))
    m = params.ground_size
    family = list(build_geometry(params).subsets)
    kind = draw(st.sampled_from(["colex", "shuffled", "replaced"]))
    if kind == "shuffled":
        family = draw(st.permutations(family))
    elif kind == "replaced":
        family[draw(st.integers(0, len(family) - 1))] = draw(st.integers(1, (1 << m) - 1))
    ground = draw(st.one_of(st.just(tuple(range(m))),
                            st.sampled_from(adjacent_transpositions(m)),
                            st.permutations(range(m))))
    return _with_subsets(params, family), kind, tuple(ground)


@settings(max_examples=300, deadline=None)
@given(families_and_permutations())
def test_point_tables_are_automorphisms_exactly_when_defined_property(case):
    geom, kind, ground = case
    family, m = geom.subsets, geom.params.ground_size
    images = [sum(1 << ground[p] for p in range(m) if s >> p & 1) for s in family]
    # a table exactly when the permutation maps the distinct subsets onto
    # themselves
    preserved = len(set(family)) == len(family) and sorted(images) == sorted(family)
    tables = point_tables(geom, [ground])
    assert (tables is not None) == preserved
    if tables is None:
        return
    (table,) = tables
    # pi is the lookup S_{pi i} = ground S_i, and by the mask and
    # direct-product lemmas its block table is an automorphism, by the
    # whole-graph check and with the factor checked pair by pair
    assert [family[j] for j in table[: len(family)]] == images
    assert is_type_preserving_automorphism(geom.incidence_system(), table)
    assert block_automorphism_oracle(geom.factor, geom.params.r, table)
    if kind == "colex":
        assert table == colex_point_table(geom, ground)


def test_symmetry_witness_fields():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    perms = adjacent_transpositions(7)
    witness = symmetry_witness(geom, perms)
    assert witness.graph is sys_.graph
    # the point tables, then the block swaps (t, v) -> (sigma t, v) of the
    # adjacent type transpositions (0 1) and (1 2)
    tables = point_tables(geom, perms)
    swaps = [tuple(s * 21 + v for s in sigma for v in range(21))
             for sigma in ((1, 0, 2), (0, 2, 1))]
    assert witness.tables == tuple(tables + swaps)
    # the chamber type's levels under the point tables, all full, so every
    # type set is covered
    assert witness.levels == tuple(level_orbits(sys_, tables, (0, 1, 2)))
    assert witness.levels == ((21, 21), (10, 10), (3, 3))
    assert witness.covered == 3
    for size in (1, 2, 3):
        for J in itertools.combinations(range(3), size):
            levels = level_orbits(sys_, tables, J)
            assert all(orbit == count for orbit, count in levels)


@pytest.mark.parametrize("params", [(5, 2, 3), (6, 2, 3), (5, 2, 4)])
def test_symmetry_witness_tables_are_automorphisms(params):
    # the whole-graph edge check, which the witness itself never runs
    geom = build_geometry(GeometryParams(*params))
    witness = symmetry_witness(geom, adjacent_transpositions(geom.params.ground_size))
    r, per = geom.params.r, geom.params.per_type
    assert all(is_automorphism(witness.graph, t) for t in witness.tables)
    swaps = [tuple(s * per + v for s in sigma for v in range(per))
             for sigma in adjacent_transpositions(r)]
    assert list(witness.tables[-(r - 1):]) == swaps


def _generators(kind, m):
    """Ground-set generators: the adjacent transpositions, all of them or
    with (0 1) or (1 2) dropped; the cycle (0 1 ... m-1) with (0 1); or,
    for m = 7, the cycle with x -> 3x, which generate AGL(1,7)."""
    adjacent = adjacent_transpositions(m)
    cycle = tuple((p + 1) % m for p in range(m))
    return {
        "adjacent": adjacent,
        "drop (0 1)": adjacent[1:],
        "drop (1 2)": adjacent[:1] + adjacent[2:],
        "cycle and (0 1)": [cycle, adjacent[0]],
        "AGL(1,7)": [cycle, tuple(3 * x % m for x in range(m))],
    }[kind]


_PARTIAL = [
    (params, kind, covered)
    for params in [GeometryParams(5, 2, 3), GeometryParams(6, 2, 3), GeometryParams(5, 2, 4)]
    # without (0 1) or (1 2) level 0 is not full; the cycle and (0 1) fill
    # level 0, but only (0 1) fixes {0, 1}, and it fixes every subset
    # disjoint from it, so level 1 is not full
    for kind, covered in [("drop (0 1)", 0), ("drop (1 2)", 0), ("cycle and (0 1)", 1)]
]


@pytest.mark.parametrize("params, kind, covered", [
    (GeometryParams(5, 2, 5), "adjacent", 5),
    (GeometryParams(7, 3, 4), "adjacent", 4),
    (GeometryParams(9, 4, 3), "adjacent", 3),
    (GeometryParams(5, 2, 8), "adjacent", 8),
    # AGL(1,7) is 2-transitive on the points, so level 0 is full, but no
    # generator fixes {0, 1}: the gap is at level 1
    (GeometryParams(5, 2, 3), "AGL(1,7)", 1),
    *_PARTIAL,
])
def test_every_type_set_levels_are_a_prefix_of_the_chamber_levels(params, kind, covered):
    # the prefix lemma in symmetry_witness, against level_orbits of each
    # type set on its own first flag
    geom = build_geometry(params)
    sys_ = geom.incidence_system()
    witness = symmetry_witness(geom, _generators(kind, params.ground_size))
    assert witness.covered == covered
    for size in range(1, params.r + 1):
        for J in itertools.combinations(range(params.r), size):
            assert tuple(level_orbits(sys_, witness.tables, J)) == witness.levels[:size], J


def test_symmetry_witness_computes_the_levels_once(monkeypatch):
    from knesergeom import group_action

    calls, real = [], group_action.level_orbits
    monkeypatch.setattr(group_action, "level_orbits",
                        lambda sys_, tables, J: (calls.append(tuple(J)), real(sys_, tables, J))[1])
    witness = symmetry_witness(build_geometry(GeometryParams(5, 2, 4)), adjacent_transpositions(9))
    assert calls == [(0, 1, 2, 3)]
    assert witness.covered == 4


def test_verified_witness_levels_cannot_be_edited():
    from knesergeom.group_action import _VerifiedWitness

    witness = symmetry_witness(build_geometry(GeometryParams(5, 2, 3)), _generators("AGL(1,7)", 7))
    assert witness.levels == ((21, 21), (1, 10), (1, 3)) and witness.covered == 1
    # a claim of a full level 1, by type set or by level, cannot be written in
    with pytest.raises(TypeError):
        witness.levels[(0, 1)] = [(21, 21), (10, 10)]
    with pytest.raises(TypeError):
        witness.levels[1] = (10, 10)
    with pytest.raises(TypeError):
        witness.levels[1][0] = 10
    with pytest.raises(AttributeError):
        witness.covered = 3
    assert witness.covered == 1 and type(witness) is _VerifiedWitness


def _with_subsets(params, subsets):
    geom = build_geometry(params)
    geom.subsets = tuple(subsets)
    return geom


def _premise_mutant(kind):
    """A (5,2,3) geometry whose system breaks one premise of
    symmetry_witness."""
    params = GeometryParams(5, 2, 3)
    geom = build_geometry(params)
    subsets, sys_ = geom.subsets, geom.incidence_system()
    if kind == "stored_rows":
        # the same graph, with its rows stored rather than typed
        stored = complete_tensor_oracle(geom.factor, 3)
        geom._system = IncidenceSystem.from_graph(sys_.types, sys_.type_of, stored, sys_.labels)
        assert geom._system == sys_
    elif kind == "other_factor":
        # typed rows of the factor with one edge at subset 0 dropped
        masks = list(geom.factor.neighbor_masks)
        j = (masks[0] & -masks[0]).bit_length() - 1
        masks[0] ^= 1 << j
        masks[j] ^= 1
        geom._system = typed_copies(Graph.from_masks(masks), 3, sys_.labels[:21])
    elif kind == "repeated_subset":
        # every subset, then the first one again
        geom = _with_subsets(params, subsets + subsets[:1])
    else:
        # {5, 6} replaced by {4, 5, 6}: (3 4) maps it to {3, 5, 6}, no subset
        geom = _with_subsets(params, subsets[:-1] + (0b1110000,))
    return geom


# per premise mutant: are the point tables automorphisms of its graph, or
# None where point_tables defines none
_PREMISE_MUTANTS = {"stored_rows": True, "other_factor": False, "repeated_subset": None,
                    "unpreserved_family": None}


@pytest.mark.parametrize("kind", list(_PREMISE_MUTANTS))
def test_symmetry_witness_refuses_a_broken_premise(kind):
    # each mutant gives no witness, whether or not its tables would be
    # automorphisms: the premise is checked on what the system holds
    geom, automorphisms = _premise_mutant(kind), _PREMISE_MUTANTS[kind]
    perms = adjacent_transpositions(7)
    assert symmetry_witness(geom, perms) is None
    tables = point_tables(geom, perms)
    if automorphisms is None:
        assert tables is None
    else:
        sys_ = geom.incidence_system()
        assert all(is_type_preserving_automorphism(sys_, t) for t in tables) == automorphisms


def _is_vertex_transitive_oracle(g) -> bool:
    """Does some automorphism map vertex 0 to each vertex?  By VF2 on the
    networkx graph with 0 and the target marked."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    match = nx.algorithms.isomorphism.categorical_node_match("mark", False)
    source = h.copy()
    nx.set_node_attributes(source, {0: True}, "mark")
    for v in range(g.n):
        target = h.copy()
        nx.set_node_attributes(target, {v: True}, "mark")
        if not nx.is_isomorphic(source, target, node_match=match):
            return False
    return True


def test_factor_transitivity_on_the_ladder():
    for params in [GeometryParams(5, 2, 2), GeometryParams(5, 2, 3), GeometryParams(12, 5, 2),
                   GeometryParams(7, 3, 4), GeometryParams(4, 1, 3)]:
        assert factor_is_vertex_transitive(build_geometry(params))
    # any order of the subsets is one orbit too
    params = GeometryParams(7, 3, 2)
    shuffled = list(build_geometry(params).subsets)
    random.Random(5).shuffle(shuffled)
    assert factor_is_vertex_transitive(_with_subsets(params, shuffled))


def test_factor_transitivity_rejects_families_that_are_not_one_orbit():
    params = GeometryParams(6, 2, 2)
    subsets = build_geometry(params).subsets  # the 15 2-subsets of 6 points
    families = {
        "a subset removed": subsets[:7] + subsets[8:],
        "mixed popcounts": subsets[:-1] + (0b111,),
        "a foreign mask": subsets[:-1] + (1 << 6 | 1,),
        "a foreign first mask": (1 << 6 | 1,) + subsets[1:],
        "a repeated mask": subsets + subsets[:1],
        "no subsets": (),
    }
    for name, family in families.items():
        assert not factor_is_vertex_transitive(_with_subsets(params, family)), name
    # with a subset removed the factor is not vertex-transitive at all: the
    # subsets disjoint from the removed one lose a neighbour, the rest not
    assert not _is_vertex_transitive_oracle(
        _with_subsets(params, families["a subset removed"]).factor
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_factor_transitivity_is_sound_property(data):
    # a family the check accepts has a vertex-transitive disjointness graph
    m = data.draw(st.integers(3, 6))
    k = data.draw(st.integers(1, (m - 1) // 2))
    layer = [s for s in range(1, 1 << m) if s.bit_count() == k]
    kind = data.draw(st.sampled_from(["layer", "subfamily", "any"]))
    if kind == "layer":
        family = data.draw(st.permutations(layer))
    elif kind == "subfamily":
        family = data.draw(st.lists(st.sampled_from(layer), min_size=1, unique=True))
    else:
        family = data.draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=12,
                                    unique=True))
    geom = _with_subsets(GeometryParams(m, k, 2), family)
    verdict = factor_is_vertex_transitive(geom)
    # one orbit of S_m is one whole layer of subsets of a popcount
    size = family[0].bit_count()
    assert verdict == (sorted(family) == [s for s in range(1 << m) if s.bit_count() == size])
    if verdict:
        assert _is_vertex_transitive_oracle(geom.factor)


def test_chamber_orbit_sizes():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    tables = point_tables(geom, adjacent_transpositions(7))
    start = next(flags_of_type(sys_, range(3)))
    assert chamber_orbit_size(sys_, tables, start) == 630
    assert chamber_orbit_size(sys_, tables, reversed(start)) == 630

    geom2 = build_geometry(GeometryParams(5, 2, 2))
    sys2 = geom2.incidence_system()
    start2 = next(flags_of_type(sys2, range(2)))
    tables2 = point_tables(geom2, adjacent_transpositions(5))
    assert chamber_orbit_size(sys2, tables2, start2) == 30

    ident_only = point_tables(geom, [tuple(range(7))])
    assert chamber_orbit_size(sys_, ident_only, start) == 1


def test_chamber_orbit_needs_a_chamber():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    tables = point_tables(geom, adjacent_transpositions(7))
    chamber = next(flags_of_type(sys_, range(3)))
    # three elements of type 0; a flag of corank 1; a chamber's types with a
    # non-incident pair (elements 0 and 21 carry the same subset)
    for start in [(0, 1, 2), chamber[:2], (0, 21, chamber[2])]:
        with pytest.raises(ValueError, match="start flag is not a chamber"):
            chamber_orbit_size(sys_, tables, start)


def test_flag_orbit_counts():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    tables = point_tables(geom, adjacent_transpositions(7))
    assert flag_orbit_count(sys_, tables, ()) == [((), 1)]
    for J in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        [(rep, size)] = flag_orbit_count(sys_, tables, J)
        flags = list(flags_of_type(sys_, J))
        assert rep == min(flags) and size == len(flags), J


def test_flag_orbits_detect_disjoint_copies():
    from knesergeom import IncidenceSystem

    two_digons = IncidenceSystem(
        (0, 1),
        [0, 1, 0, 1],
        [(0, 1), (2, 3)],
    )
    identity_map = tuple(range(4))
    assert flag_orbit_count(two_digons, [identity_map], (0,)) == [((0,), 1), ((2,), 1)]
    swap_copies = (2, 3, 0, 1)
    assert flag_orbit_count(two_digons, [swap_copies], (0, 1)) == [((0, 1), 2)]


def test_flag_orbits_stop_at_non_flags():
    from knesergeom import IncidenceSystem

    # a path 0-3-1-4-2: swapping the end points 0 and 2 sends the chambers
    # (0,3) and (2,4) to the non-flags (2,3) and (0,4), and swapping the
    # lines 3 and 4 joins those two non-flags; no flag image joins the end
    # chambers, so they stay in separate orbits
    path = IncidenceSystem((0, 1), [0, 0, 0, 1, 1], [(0, 3), (1, 3), (1, 4), (2, 4)])
    swap_ends, swap_lines = (2, 1, 0, 3, 4), (0, 1, 2, 4, 3)
    tables = [swap_ends, swap_lines]
    orbits = flag_orbit_count(path, tables, (0, 1))
    assert orbits == [((0, 3), 1), ((1, 3), 2), ((2, 4), 1)]
    assert orbits == restricted_orbits_oracle(flags_of_type(path, (0, 1)), tables)


@st.composite
def systems_with_involutions(draw):
    """A typed system of rank 2 or 3 and one to three element tables, each
    a product of disjoint transpositions that need not preserve types or
    incidence."""
    sys_ = draw(typed_systems(max_rank=3))
    n = sys_.n_elements
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        table = list(range(n))
        points = draw(st.permutations(range(n)))
        for a, b in zip(points[0::2], points[1::2]):
            if draw(st.booleans()):
                table[a], table[b] = b, a
        tables.append(tuple(table))
    return sys_, tables


@settings(max_examples=200, deadline=None)
@given(systems_with_involutions())
def test_flag_orbit_count_matches_brute_force_property(case):
    sys_, tables = case
    for size in range(1, sys_.rank + 1):
        for J in itertools.combinations(sys_.types, size):
            orbits = flag_orbit_count(sys_, tables, J)
            assert orbits == restricted_orbits_oracle(flags_of_type(sys_, J), tables)


# an ordinary triangle: points 0, 1, 2 and lines 3 = {0,1}, 4 = {1,2}, 5 = {2,0}
TRIANGLE = IncidenceSystem(
    (0, 1), [0, 0, 0, 1, 1, 1], [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]
)
ROTATION, ROTATION_INVERSE = (1, 2, 0, 4, 5, 3), (2, 0, 1, 5, 3, 4)
REFLECTION = (0, 2, 1, 5, 4, 3)  # fixes point 0, swaps points 1 and 2


def test_level_orbits_use_only_tables_that_fix_earlier_levels():
    tables = [ROTATION, ROTATION_INVERSE]
    assert all(is_type_preserving_automorphism(TRIANGLE, t) for t in tables + [REFLECTION])
    # the rotations are transitive on points and on lines, not on chambers
    assert flag_orbit_count(TRIANGLE, tables, (0, 1)) == [((0, 3), 3), ((0, 5), 3)]
    assert level_orbits(TRIANGLE, tables, (0,)) == [(3, 3)]
    # no rotation fixes point 0, so level 1 closes line 3 under no table;
    # the inverse rotation would carry it to the other candidate, line 5
    assert level_orbits(TRIANGLE, tables, (0, 1)) == [(3, 3), (1, 2)]
    # the reflection fixes point 0 and swaps its lines: one chamber orbit
    tables = [ROTATION, REFLECTION]
    assert level_orbits(TRIANGLE, tables, (0, 1)) == [(3, 3), (2, 2)]
    assert flag_orbit_count(TRIANGLE, tables, (0, 1)) == [((0, 3), 6)]


def test_level_orbits_stay_inside_the_candidates():
    # fixing the points and cycling the lines is no automorphism: it sends
    # line 3 to line 4, which misses point 0, and line 4 on to line 5; the
    # level-1 orbit passes only through lines on point 0, so it stops at 3
    cycle_lines = (0, 1, 2, 4, 5, 3)
    assert level_orbits(TRIANGLE, [cycle_lines], (0, 1)) == [(1, 3), (1, 2)]


def test_level_orbits_need_a_flag():
    apart = IncidenceSystem((0, 1), [0, 1], [])
    assert level_orbits(apart, [], (0,)) == [(1, 1)]
    with pytest.raises(ValueError, match="no flag of type"):
        level_orbits(apart, [], (0, 1))


_WITNESS_GEOMETRIES = {
    params: build_geometry(params)
    for params in [GeometryParams(5, 2, 2), GeometryParams(5, 2, 3), GeometryParams(4, 1, 3)]
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_full_levels_certify_one_flag_orbit_property(data):
    params = data.draw(st.sampled_from(list(_WITNESS_GEOMETRIES)))
    geom = _WITNESS_GEOMETRIES[params]
    sys_ = geom.incidence_system()
    m = params.ground_size
    # a random subset of the adjacent transpositions, and at times one more
    # ground permutation, so that a level can be full without all of them
    adjacent = adjacent_transpositions(m)
    dropped = data.draw(st.sets(st.integers(0, m - 2)))
    perms = [pi for i, pi in enumerate(adjacent) if i not in dropped]
    perms += [tuple(p) for p in data.draw(st.lists(st.permutations(range(m)), max_size=1))]
    tables = point_tables(geom, perms)
    size = data.draw(st.integers(1, params.r))
    J = data.draw(st.sampled_from(list(itertools.combinations(range(params.r), size))))
    levels = level_orbits(sys_, tables, J)
    assert all(orbit <= count for orbit, count in levels)
    if all(orbit == count for orbit, count in levels):
        [(_, orbit)] = flag_orbit_count(sys_, tables, J)
        assert orbit == math.prod(orbit for orbit, _ in levels)


@settings(max_examples=300, deadline=None)
@given(labelled_typed_systems())
def test_adjacent_type_swaps_decide_every_type_swap_property(sys_):
    # label-pairing maps compose: sigma's map followed by tau's is tau∘sigma's
    def all_valid(sigmas):
        return all(type_swap_map(sys_, sigma)[1] for sigma in sigmas)

    adjacent = adjacent_transpositions(sys_.rank)
    assert all_valid(adjacent) == all_valid(itertools.permutations(range(sys_.rank)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_block_type_swap_is_an_automorphism_property(data):
    # typed copies K_r x G whose labels agree across types, or are permuted
    # or repeated in one type: a swap that passes the block check passes
    # the whole-graph check with the block map, and with shared labels
    # every swap passes
    g = data.draw(small_graphs(max_n=6))
    r = data.draw(st.integers(2, 4))
    labels = [str(v) for v in range(g.n)]
    per_type = [labels] * r
    kind = data.draw(st.sampled_from(["shared", "permuted", "repeated"]))
    if kind != "shared" and g.n >= 2:
        other = list(data.draw(st.permutations(labels)))
        if kind == "repeated":
            other[0] = other[1]
        per_type[data.draw(st.integers(0, r - 1))] = other
    sys_ = IncidenceSystem.from_graph(range(r), [t for t in range(r) for _ in range(g.n)],
                                      complete_tensor(g, r), [x for ls in per_type for x in ls])
    shared = all(ls == labels for ls in per_type)
    for sigma in itertools.permutations(range(r)):
        block = tuple(s * g.n + v for s in sigma for v in range(g.n))
        mapping, valid = type_swap_map(sys_, sigma)
        is_block = _label_pairing(sys_, sigma) == block
        assert not is_block or (valid and mapping == block)
        assert is_block or not shared


def test_type_swap_on_geometry():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    mapping, ok = type_swap_map(sys_, (0, 1, 2))
    assert ok and mapping == tuple(range(63))
    mapping, ok = type_swap_map(sys_, (1, 2, 0))
    assert ok
    per = geom.params.per_type
    assert mapping[0] == per  # type 0 -> type 1, same subset


def test_type_swap_unequal_sizes_invalid():
    sys_ = kneser_neighborhood_geometry(KneserParams(5, 2))
    mapping, ok = type_swap_map(sys_, (1, 0))
    assert ok  # both copies carry the same labels
    from knesergeom import kneser_graph

    uneven = vertex_edge_geometry(kneser_graph(KneserParams(5, 2)))
    mapping, ok = type_swap_map(uneven, (1, 0))
    assert not ok and mapping is None


def test_group_order_by_orbit():
    for m in range(2, 9):
        assert permutation_group_order(adjacent_transpositions(m)) == math.factorial(m)
    assert permutation_group_order([tuple(range(4))]) == 1


def _cycle(m, points):
    images = list(range(m))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return tuple(images)


def _generator_sets(rng):
    """Generator lists of degree 1-12: named families (trivial, cyclic,
    dihedral, alternating, symmetric, intransitive, imprimitive), the same
    with duplicate and identity generators mixed in, and seeded random
    lists of random permutations, transpositions and 3-cycles."""
    sets = []
    for m in range(1, 13):
        ident = tuple(range(m))
        rot = _cycle(m, list(range(m)))
        sets.append([ident])
        sets.append([rot])
        if m >= 3:
            reflection = tuple((-i) % m for i in range(m))
            sets.append([rot, reflection])  # dihedral, order 2m
            sets.append([_cycle(m, [0, 1, i]) for i in range(2, m)])  # alternating
            sets.append(adjacent_transpositions(m))
        if m >= 4:
            # intransitive: Sym on the first half, a cycle on the rest
            h = m // 2
            sets.append([_transposition(m, i, i + 1) for i in range(h - 1)]
                        + [_cycle(m, list(range(h, m)))])
        if m % 2 == 0 and m >= 4:
            # imprimitive: C2 wr C(m/2) on the blocks {2i, 2i+1}
            sets.append([tuple((i + 2) % m for i in range(m)), _transposition(m, 0, 1)])
    for m in range(1, 13):
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(3)
                if kind == 0 or m < 3:
                    images = list(range(m))
                    rng.shuffle(images)
                    gens.append(tuple(images))
                elif kind == 1:
                    gens.append(_transposition(m, *rng.sample(range(m), 2)))
                else:
                    gens.append(_cycle(m, rng.sample(range(m), 3)))
            sets.append(gens)
    for gens in sets[::5]:
        sets.append(gens + gens[:1] + [tuple(range(len(gens[0])))])
    return sets


def test_group_order_matches_sympy():
    from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup

    sets = _generator_sets(random.Random(20181128))
    orders = set()
    for gens in sets:
        expected = PermutationGroup([SympyPermutation(list(g)) for g in gens]).order()
        assert permutation_group_order(gens) == expected, gens
        orders.add(expected)
    assert len(sets) >= 180 and {1, 2, math.factorial(12), math.factorial(12) // 2} <= orders


def test_group_order_matches_tuple_orbit():
    for gens in _generator_sets(random.Random(7)):
        if len(gens[0]) <= 7:
            assert permutation_group_order(gens) == tuple_orbit_group_order(gens)


def test_group_order_rejects_bad_generators():
    with pytest.raises(ValueError):
        permutation_group_order([])
    with pytest.raises(ValueError):
        permutation_group_order([tuple(range(3)), tuple(range(4))])


def _candidate_maps(geom, rng):
    """Element maps of the (5,2,3) system: automorphisms from ground-set
    permutations and type swaps, and non-automorphisms from random
    bijections, in-type shuffles and single in-type transpositions."""
    n, per = geom.n_elements, geom.params.per_type
    maps = []
    for _ in range(6):
        images = list(range(7))
        rng.shuffle(images)
        table = list(point_tables(geom, [images])[0])
        maps.append(table)
        a, b = rng.sample(range(per), 2)
        t = rng.randrange(3) * per
        swapped = list(table)
        swapped[t + a], swapped[t + b] = swapped[t + b], swapped[t + a]
        maps.append(swapped)
    for sigma in [(1, 0, 2), (1, 2, 0)]:
        maps.append(list(type_swap_map(geom.incidence_system(), sigma)[0]))
    for _ in range(6):
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        maps.append(shuffled)
        in_type = []
        for t in range(3):
            block = list(range(t * per, (t + 1) * per))
            rng.shuffle(block)
            in_type.extend(block)
        maps.append(in_type)
    maps.append(list(range(n)))
    return maps


def test_preservation_check_matches_pairwise_oracle():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    n = geom.n_elements
    verdicts = []
    for table in _candidate_maps(geom, random.Random(20181127)):
        type_preserving = all(geom.type_of(table[e]) == geom.type_of(e) for e in range(n))
        expected = type_preserving and preserves_incidence_oracle(geom.incident, n, table)
        assert is_type_preserving_automorphism(sys_, table) == expected
        verdicts.append(expected)
    assert verdicts.count(True) >= 7 and verdicts.count(False) >= 12


def test_type_swap_map_matches_pairwise_oracle():
    geom = build_geometry(GeometryParams(5, 2, 3))
    for sigma in [(0, 1, 2), (2, 0, 1), (0, 2, 1)]:
        mapping, ok = type_swap_map(geom.incidence_system(), sigma)
        assert ok and preserves_incidence_oracle(geom.incident, geom.n_elements, mapping)


def test_non_automorphisms_rejected():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    swap_in_type = list(range(63))
    swap_in_type[0], swap_in_type[1] = 1, 0
    assert not is_type_preserving_automorphism(sys_, swap_in_type)
    assert not is_type_preserving_automorphism(sys_, [0] * 63)  # not a bijection
    mapping, _ = type_swap_map(sys_, (1, 0, 2))
    assert not is_type_preserving_automorphism(sys_, mapping)  # moves types
