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
geometry keeps the factor KG(m, k) on one type's subsets, the
kneser.disjointness_table of them, simple by construction and so built with
no symmetry check, and incidence_system is kneser.typed_copies of it, whose
rows are the factor's and r, each made as it is read (graphs._TypedRows).
So no pair of elements is visited, no edge list is made, and no row of the
incidence graph is stored.
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

    __slots__ = ("params", "subsets", "_factor", "_system")

    def __init__(self, params: GeometryParams):
        self.params = params
        self.subsets = tuple(s.bits for s in enumerate_k_subsets(params.ground, params.k))
        self._factor = self._system = None

    @property
    def n_elements(self) -> int:
        return self.params.n_elements

    def _split(self, e: int) -> tuple[int, int]:
        """(type, index in the type) of element e; ValueError outside
        0..n_elements-1."""
        if not 0 <= e < self.n_elements:
            raise ValueError(f"element {e} out of range 0..{self.n_elements - 1}")
        return divmod(e, self.params.per_type)

    def type_of(self, e: int) -> int:
        return self._split(e)[0]

    def subset_of(self, e: int) -> KSubset:
        return KSubset(self.subsets[self._split(e)[1]])

    def incident(self, x: int, y: int) -> bool:
        """x * y iff the types differ and the subsets are disjoint."""
        (s, i), (t, j) = self._split(x), self._split(y)
        return x == y or s != t and self.subsets[i] & self.subsets[j] == 0

    @property
    def factor(self) -> Graph:
        """KG(m, k) on one type's subsets: their disjointness_table, whose
        docstring proves it simple, so Graph._derived takes it unchecked."""
        if self._factor is None:
            self._factor = Graph._derived(disjointness_table(self.subsets))
        return self._factor

    def incidence_system(self) -> IncidenceSystem:
        """typed_copies of the factor with hex subset-mask labels: beyond the
        factor it holds the types and labels, not the incidence rows."""
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
