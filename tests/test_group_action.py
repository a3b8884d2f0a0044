import math
import random

import pytest

from knesergeom import (
    GeometryParams,
    KSubset,
    Permutation,
    act_on_element,
    adjacent_transpositions,
    build_geometry,
    chamber_orbit_size,
    flag_orbit_count,
    flags_of_type,
    is_type_preserving_automorphism,
    kneser_neighborhood_geometry,
    KneserParams,
    permutation_group_order,
    type_swap_map,
)
from helpers import preserves_incidence_oracle


def test_permutation_validation():
    Permutation([1, 0, 2])
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


def test_apply_to_mask():
    pi = Permutation.transposition(5, 0, 1)
    assert pi.apply_to_mask(0b00101) == 0b00110


def test_act_on_element():
    geom = build_geometry(GeometryParams(5, 2, 3))
    ident = Permutation.identity(7)
    assert all(act_on_element(geom, ident, e) == e for e in range(63))
    swap = Permutation.transposition(7, 0, 1)
    e = geom.element_index(0, KSubset.from_elements([0, 2]))
    img = act_on_element(geom, swap, e)
    assert geom.type_of(img) == 0
    assert geom.subset_of(img) == KSubset.from_elements([1, 2])


def test_incidence_preserved_under_action():
    geom = build_geometry(GeometryParams(5, 2, 3))
    pi = Permutation.transposition(7, 2, 5)
    for x in range(0, 63, 5):
        for y in range(x + 1, 63, 7):
            assert geom.incident(x, y) == geom.incident(
                act_on_element(geom, pi, x), act_on_element(geom, pi, y)
            )


def test_generators_are_automorphisms():
    geom = build_geometry(GeometryParams(5, 2, 3))
    for pi in adjacent_transpositions(7):
        assert is_type_preserving_automorphism(geom, pi)


def test_chamber_orbit_sizes():
    geom = build_geometry(GeometryParams(5, 2, 3))
    gens = adjacent_transpositions(7)
    start = next(flags_of_type(geom.incidence_system(), range(3)))
    assert chamber_orbit_size(geom, gens, start) == 630

    geom2 = build_geometry(GeometryParams(5, 2, 2))
    start2 = next(flags_of_type(geom2.incidence_system(), range(2)))
    assert chamber_orbit_size(geom2, adjacent_transpositions(5), start2) == 30

    ident_only = [Permutation.identity(7)]
    assert chamber_orbit_size(geom, ident_only, start) == 1


def test_flag_orbit_counts():
    geom = build_geometry(GeometryParams(5, 2, 3))
    gens = adjacent_transpositions(7)
    count, reps = flag_orbit_count(geom, gens, ())
    assert count == 1 and reps == [()]
    for J in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        count, _ = flag_orbit_count(geom, gens, J)
        assert count == 1, J


def test_flag_orbits_detect_disjoint_copies():
    from knesergeom import IncidenceSystem

    two_digons = IncidenceSystem(
        (0, 1),
        [0, 1, 0, 1],
        [(0, 1), (2, 3)],
    )
    identity_map = tuple(range(4))
    count, reps = flag_orbit_count(two_digons, [identity_map], (0,))
    assert count == 2 and reps == [(0,), (2,)]
    swap_copies = (2, 3, 0, 1)
    count, _ = flag_orbit_count(two_digons, [swap_copies], (0, 1))
    assert count == 1


def test_type_swap_on_geometry():
    geom = build_geometry(GeometryParams(5, 2, 3))
    mapping, ok = type_swap_map(geom, (0, 1, 2))
    assert ok and mapping == tuple(range(63))
    mapping, ok = type_swap_map(geom, (1, 2, 0))
    assert ok
    per = geom.params.per_type
    assert mapping[0] == per  # type 0 -> type 1, same subset


def test_type_swap_unequal_sizes_invalid():
    sys_ = kneser_neighborhood_geometry(KneserParams(5, 2))
    mapping, ok = type_swap_map(sys_, (1, 0))
    assert ok  # both copies carry the same labels
    from knesergeom import vertex_edge_geometry, kneser_graph

    uneven = vertex_edge_geometry(kneser_graph(KneserParams(5, 2)))
    mapping, ok = type_swap_map(uneven, (1, 0))
    assert not ok and mapping is None


def test_group_order_by_orbit():
    for m in range(2, 9):
        assert permutation_group_order(adjacent_transpositions(m)) == math.factorial(m)
    assert permutation_group_order([Permutation.identity(4)]) == 1


def _candidate_maps(geom, rng):
    """Element maps of the (5,2,3) system: automorphisms from ground-set
    permutations and type swaps, and non-automorphisms from random
    bijections, in-type shuffles and single in-type transpositions."""
    n, per = geom.n_elements, geom.params.per_type
    maps = []
    for _ in range(6):
        images = list(range(7))
        rng.shuffle(images)
        pi = Permutation(images)
        table = [act_on_element(geom, pi, e) for e in range(n)]
        maps.append(table)
        a, b = rng.sample(range(per), 2)
        t = rng.randrange(3) * per
        swapped = list(table)
        swapped[t + a], swapped[t + b] = swapped[t + b], swapped[t + a]
        maps.append(swapped)
    for sigma in [(1, 0, 2), (1, 2, 0)]:
        maps.append(list(type_swap_map(geom, sigma)[0]))
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
        mapping, ok = type_swap_map(geom, sigma)
        assert ok and preserves_incidence_oracle(geom.incident, geom.n_elements, mapping)


def test_non_automorphisms_rejected():
    geom = build_geometry(GeometryParams(5, 2, 3))
    sys_ = geom.incidence_system()
    swap_in_type = list(range(63))
    swap_in_type[0], swap_in_type[1] = 1, 0
    assert not is_type_preserving_automorphism(sys_, swap_in_type)
    assert not is_type_preserving_automorphism(sys_, [0] * 63)  # not a bijection
    mapping, _ = type_swap_map(geom, (1, 0, 2))
    assert not is_type_preserving_automorphism(sys_, mapping)  # moves types
