"""Bitmask k-subset combinatorics over a ground set {0, ..., m-1}.

Subsets live in one machine word (ground sets are capped at 64 elements) and
are ordered colexicographically, which for bitmasks is plain ascending numeric
order.  Ranks follow the combinadic bijection, so list index == rank
everywhere downstream.  GroundSet and KSubset are namedtuples checked on
construction, so KSubset(5) == (5,) and both hash as tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple


class GroundSet(namedtuple("GroundSet", "m")):
    """The set {0, ..., m-1} with 1 <= m <= 64."""

    __slots__ = ()

    def __new__(cls, m: int):
        if not isinstance(m, int) or not 1 <= m <= 64:
            raise ValueError(f"ground set size must be an int in 1..64, got {m!r}")
        return tuple.__new__(cls, (m,))

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1


class KSubset(namedtuple("KSubset", "bits")):
    """A subset of the ground set stored as a bitmask; k is the popcount."""

    __slots__ = ()

    def __new__(cls, bits: int):
        if bits < 0:
            raise ValueError("subset bitmask must be nonnegative")
        return tuple.__new__(cls, (bits,))

    @property
    def k(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.bits.bit_length()) if self.bits >> i & 1)

    @classmethod
    def from_elements(cls, elems) -> "KSubset":
        bits = 0
        for e in elems:
            b = 1 << e
            if bits & b:
                raise ValueError(f"repeated element {e}")
            bits |= b
        return cls(bits)

    def __repr__(self):
        return f"KSubset({{{','.join(map(str, self.elements()))}}})"


def validate_subset(ground: GroundSet, s: KSubset) -> None:
    """Raise ValueError unless every set bit of s lies in the ground set."""
    if s.bits & ~ground.full_mask:
        raise ValueError("subset out of range")


def enumerate_k_subsets(ground: GroundSet, k: int) -> list[KSubset]:
    """All k-subsets in colexicographic (ascending bitmask) order.

    k > m yields the empty list; list index equals colex rank.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = ground.m
    if k > m:
        return []
    if k == 0:
        return [KSubset(0)]
    out = []
    v = (1 << k) - 1
    limit = 1 << m
    while v < limit:
        out.append(KSubset(v))
        # Gosper's hack: next larger int with the same popcount
        u = v & -v
        w = v + u
        v = w | (((v ^ w) // u) >> 2)
    return out


def colex_rank(ground: GroundSet, s: KSubset) -> int:
    """Index of s in enumerate_k_subsets(ground, s.k)."""
    validate_subset(ground, s)
    r = 0
    for i, e in enumerate(s.elements()):
        r += math.comb(e, i + 1)
    return r


def colex_unrank(ground: GroundSet, k: int, rank: int) -> KSubset:
    """Inverse of colex_rank: the rank-th k-subset in colex order."""
    if not 0 <= k <= ground.m:
        raise ValueError(f"k must be in 0..{ground.m}")
    if not 0 <= rank < math.comb(ground.m, k):
        raise ValueError("rank out of range")
    bits = 0
    rest = rank
    for i in range(k, 0, -1):
        # largest c with C(c, i) <= rest
        c = i - 1
        while math.comb(c + 1, i) <= rest:
            c += 1
        bits |= 1 << c
        rest -= math.comb(c, i)
    return KSubset(bits)


def disjoint(a: KSubset, b: KSubset) -> bool:
    return a.bits & b.bits == 0


def intersection_size(a: KSubset, b: KSubset) -> int:
    return (a.bits & b.bits).bit_count()
