import itertools
import math

import pytest
from hypothesis import given, strategies as st

from knesergeom.subsets import (
    GroundSet,
    KSubset,
    disjoint,
    enumerate_k_subsets,
)
from helpers import colex_rank, subset_from_elements


def test_ground_set_bounds():
    GroundSet(1)
    GroundSet(64)
    with pytest.raises(ValueError):
        GroundSet(0)
    with pytest.raises(ValueError):
        GroundSet(65)


def test_enumerate_small():
    out = enumerate_k_subsets(GroundSet(3), 2)
    assert [s.bits for s in out] == [0b011, 0b101, 0b110]


def test_enumerate_counts():
    assert len(enumerate_k_subsets(GroundSet(5), 2)) == 10
    assert len(enumerate_k_subsets(GroundSet(7), 2)) == 21
    assert enumerate_k_subsets(GroundSet(3), 5) == []
    assert enumerate_k_subsets(GroundSet(4), 0) == [KSubset(0)]


def test_enumerate_matches_itertools():
    for m in range(1, 13):
        for k in range(0, m + 1):
            ours = [s.bits for s in enumerate_k_subsets(GroundSet(m), k)]
            brute = sorted(
                sum(1 << e for e in c) for c in itertools.combinations(range(m), k)
            )
            assert ours == brute
            assert len(ours) == math.comb(m, k)
            assert len(set(ours)) == len(ours)


def test_rank_examples():
    g5 = GroundSet(5)
    assert colex_rank(g5, subset_from_elements([0, 1])) == 0
    assert colex_rank(g5, subset_from_elements([3, 4])) == 9


def test_rank_is_enumeration_index():
    for m in range(1, 13):
        for k in range(0, m + 1):
            ground = GroundSet(m)
            for i, s in enumerate(enumerate_k_subsets(ground, k)):
                assert colex_rank(ground, s) == i


def test_rank_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        colex_rank(GroundSet(3), subset_from_elements([0, 5]))


def test_disjoint_and_intersection():
    a = subset_from_elements([0, 1])
    b = subset_from_elements([2, 3])
    c = subset_from_elements([1, 2])
    assert disjoint(a, b)
    assert not disjoint(a, c)
    assert not disjoint(a, a)
    assert not disjoint(subset_from_elements([0, 1, 2]), subset_from_elements([2, 3, 4]))
    assert (a.bits & c.bits).bit_count() == len(set(a.elements()) & set(c.elements())) == 1


@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_disjoint_iff_empty_intersection(abits, bbits):
    a, b = KSubset(abits), KSubset(bbits)
    common = set(a.elements()) & set(b.elements())
    assert disjoint(a, b) == (not common)
    assert (a.bits & b.bits).bit_count() == len(common)


def test_from_elements_rejects_repeats():
    with pytest.raises(ValueError):
        subset_from_elements([1, 1])
