"""Rank-r incidence geometries built from disjointness of k-subsets.

For parameters (n, k, r) with n >= 2k+1 and r >= 2, take r copies of the
k-subsets of a ground set of n + k(r-2) points, one copy per type, and make
elements of different types incident exactly when their subsets are
disjoint.  The rank-2 case is the neighborhood geometry of KG(n, k); every
rank-2 residue of the general case is isomorphic to that geometry, which is
what the closed-form diagram below encodes.

Element indexing is type-major with colex order within a type, (t, i) at
t*C(m, k) + i, so every derived certificate is byte-reproducible.  The
incidence graph is the tensor product K_r x KG(m, k), m = n + k(r-2): the
geometry keeps the factor KG(m, k) on one type's subsets, checked once by
Graph.from_masks, and incidence_system is kneser.typed_copies of it, so no
pair of elements is visited and no edge list is made.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .incidence import (
    BuekenhoutDiagram,
    IncidenceSystem,
    PARTIAL_LINEAR_SPACE,
    NEITHER,
    RankTwoSummary,
)
from .graphs import Graph
from .kneser import (
    KneserParams,
    disjointness_table,
    predicted_diameter,
    predicted_gonality,
    typed_copies,
)
from .subsets import GroundSet, KSubset, enumerate_k_subsets


class GeometryParams(namedtuple("GeometryParams", "n k r")):
    """(n, k) Kneser parameters plus the rank r >= 2; the ground set has
    n + k(r-2) points and must fit in one word."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, r: int):
        KneserParams(n, k)  # n >= 2k+1, k >= 1
        if r < 2:
            raise ValueError("rank r must be at least 2")
        self = tuple.__new__(cls, (n, k, r))
        if self.ground_size > 64:
            raise ValueError(f"ground set needs {self.ground_size} points; at most 64 supported")
        return self

    @property
    def ground_size(self) -> int:
        return self.n + self.k * (self.r - 2)

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.ground_size)

    @property
    def kneser(self) -> KneserParams:
        return KneserParams(self.n, self.k)

    @property
    def per_type(self) -> int:
        return math.comb(self.ground_size, self.k)

    @property
    def n_elements(self) -> int:
        return self.r * self.per_type


class KneserGeometry:
    """The built geometry: one type's subsets in colex order, each element's
    subset, O(1) incidence, and the factor and IncidenceSystem, built once."""

    __slots__ = ("params", "subsets", "masks", "_factor", "_system")

    def __init__(self, params: GeometryParams):
        self.params = params
        self.subsets = tuple(s.bits for s in enumerate_k_subsets(params.ground, params.k))
        self.masks = self.subsets * params.r
        self._factor = self._system = None

    @property
    def n_elements(self) -> int:
        return len(self.masks)

    def type_of(self, e: int) -> int:
        return e // self.params.per_type

    def subset_of(self, e: int) -> KSubset:
        return KSubset(self.masks[e])

    def incident(self, x: int, y: int) -> bool:
        """x * y iff the types differ and the subsets are disjoint."""
        if x == y:
            return True
        return self.type_of(x) != self.type_of(y) and self.masks[x] & self.masks[y] == 0

    @property
    def factor(self) -> Graph:
        """KG(m, k) on one type's subsets, checked by Graph.from_masks."""
        if self._factor is None:
            self._factor = Graph.from_masks(disjointness_table(self.subsets))
        return self._factor

    def incidence_system(self) -> IncidenceSystem:
        if self._system is None:
            labels = [f"{m:#x}" for m in self.subsets]
            self._system = typed_copies(self.factor, self.params.r, labels)
        return self._system

    def __repr__(self):
        p = self.params
        return f"KneserGeometry(n={p.n}, k={p.k}, r={p.r}, elements={self.n_elements})"


def build_geometry(params: GeometryParams) -> KneserGeometry:
    return KneserGeometry(params)


def chamber_count(params: GeometryParams) -> int:
    """Number of chambers: ordered choices of pairwise disjoint k-subsets,
    one per type, counted by the falling product of binomials."""
    m, k = params.ground_size, params.k
    total = 1
    for t in range(params.r):
        total *= math.comb(m - t * k, k)
    return total


def incidence_graph_degree(params: GeometryParams) -> int:
    """Degree of every vertex of the incidence graph: (r-1) choices of type
    times the C(m-k, k) subsets disjoint from a fixed one."""
    return (params.r - 1) * math.comb(params.ground_size - params.k, params.k)


def predicted_diagram(params: GeometryParams) -> BuekenhoutDiagram:
    """The closed-form diagram: a complete graph on the r types, every
    order C(n-k,k) - 1, every count C(n+k(r-2), k), every edge d-g-d with
    g = 3 if n = 2k+1 else 2 and d = 2*ceil(k/(n-2k)) + 1."""
    kp = params.kneser
    g = predicted_gonality(kp)
    d = predicted_diameter(kp)
    types = tuple(range(params.r))
    order = math.comb(params.n - params.k, params.k) - 1
    count = params.per_type
    classification = PARTIAL_LINEAR_SPACE if g >= 3 else NEITHER
    edges = {
        (i, j): RankTwoSummary((i, j), g, (d, d), classification)
        for i in types
        for j in types
        if i < j
    }
    return BuekenhoutDiagram(
        types,
        {t: order for t in types},
        {t: count for t in types},
        edges,
    )
