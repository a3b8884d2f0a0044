"""Kneser graphs, their closed-form invariants, and the geometries built
on them.

KG(n, k) has the k-subsets of {0,...,n-1} as vertices (in colex order, so
vertex index = colex rank) and joins disjoint subsets.  The closed forms:

    odd girth of KG(n,k)                    2*ceil(k/(n-2k)) + 1
    gonality of its neighborhood geometry   3 if n = 2k+1 else 2
    diameters of its neighborhood geometry  2*ceil(k/(n-2k)) + 1

KG(n, k) is disjointness_table of its subsets, simple by construction
(the lemma is in its docstring), so it is built with no symmetry check.
typed_copies is the one constructor of the geometries here: r typed copies
of a graph's vertices, incident across types along its edges, so that the
incidence graph is K_r x g for a simple g, held as graphs._TypedRows, g's
rows and r, with each row made as it is read; neighborhood_geometry is its
rank-2 case.  neighborhood_summary is that case's rank-2 summary with no
cover built: the diameters come from g's own walk sets (the CLI reads them
from one vertex, graphs.walk_metrics_from, once the factor is proved
vertex-transitive on its subset masks in group_action), and the class and
gonality from incidence's one 4-cycle scan and one girth search, run on
the typed rows of K_2 x g.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import INF, Graph, _iter_bits, _TypedRows, complete_tensor
from .incidence import IncidenceSystem, RankTwoSummary, _disconnected, _rank2
from .subsets import GroundSet, enumerate_k_subsets


class KneserParams(namedtuple("KneserParams", "n k")):
    """Parameters with n >= 2k+1, so disjoint k-subsets always exist and
    every closed form below divides by n-2k."""

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        if n <= 2 * k:
            raise ValueError(f"n must exceed 2k (got n={n}, k={k})")
        GroundSet(n)  # enforces n <= 64
        return tuple.__new__(cls, (n, k))

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.n)


def disjointness_table(subsets) -> list[int]:
    """For nonempty subset bitmasks S_0..S_{N-1}, D[i] is the bitmask of
    the j with S_j disjoint from S_i: the AND over the points p of S_i of
    the subsets avoiding p, taken as the complement of the OR of the
    subsets that hold p.  Raises ValueError on an empty subset.

    Lemma: D is the neighbor masks of a simple graph, so Graph._derived
    takes it with no check.  j is in D[i] iff S_i & S_j == 0, which is
    symmetric in i and j; S_i is nonempty and holds its own points, so i
    is not in D[i]; and D[i] is everything minus some bits, so every bit
    lies in 0..N-1."""
    holding = {}
    for i, s in enumerate(subsets):
        if not s:
            raise ValueError(f"subset {i} is empty")
        for p in _iter_bits(s):
            holding[p] = holding.get(p, 0) | 1 << i
    everything = (1 << len(subsets)) - 1
    table = []
    for s in subsets:
        hit = 0
        for p in _iter_bits(s):
            hit |= holding[p]
        table.append(everything ^ hit)
    return table


def kneser_graph(p: KneserParams) -> Graph:
    """KG(n,k): C(n,k) vertices indexed by colex rank, edge iff disjoint."""
    subsets = [s.bits for s in enumerate_k_subsets(p.ground, p.k)]
    return Graph._derived(disjointness_table(subsets))


def typed_copies(g: Graph, r: int, labels=None) -> IncidenceSystem:
    """r typed copies of g's vertices, (t, v) at t*g.n + v and labelled
    labels[v] if given, with (s, v) incident to (t, w) iff s != t and
    v ~ w: the incidence graph is complete_tensor(g, r), K_r x g on typed
    rows made from g's as they are read, simple whenever g is.  Type t is
    block t, which no typed row reaches, so the system skips its same-type
    check (IncidenceSystem._set_graph)."""
    n = g.n
    if labels is not None:
        labels = list(labels)
        if len(labels) != n:
            raise ValueError("labels must cover all vertices")
        labels = labels * r
    types = [t for t in range(r) for _ in range(n)]
    return IncidenceSystem.from_graph(range(r), types, complete_tensor(g, r), labels)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def predicted_odd_girth(p: KneserParams) -> int:
    return 2 * _ceil_div(p.k, p.n - 2 * p.k) + 1


def predicted_gonality(p: KneserParams) -> int:
    return 3 if p.n == 2 * p.k + 1 else 2


def predicted_diameter(p: KneserParams) -> int:
    return 2 * _ceil_div(p.k, p.n - 2 * p.k) + 1


def neighborhood_geometry(g: Graph, labels=None) -> IncidenceSystem:
    """The rank-2 typed copies of g: (p,0) at index p is incident to (q,1)
    at n+q iff p ~ q, along the edges of the bipartite double cover K_2 x g."""
    return typed_copies(g, 2, labels)


def neighborhood_summary(g: Graph, cover_eccentricities, transitive=False) -> RankTwoSummary:
    """rank2_summary(neighborhood_geometry(g)), given the eccentricity in
    K_2 x g of each vertex of g, for both of its copies, whatever computed
    it, such as graphs.walk_metrics_from on a vertex-transitive g.

    The class and gonality are incidence's one 4-cycle scan and one girth
    search, run on _TypedRows(g, 2), the cover's rows made from g's as they
    are read, so neither the geometry nor the cover is built; an infinite
    eccentricity alone builds the cover graph, to name its components in
    the error.  (v,0) is never incident to (v,1), so K_2 x g
    is never a digon, and a 4-cycle (a,0)-(b,1)-(a',0)-(b',1) is two
    vertices a != a' of g with two common neighbours b != b'.  Both loops
    start from side 0 only, which holds a vertex of every cycle.  With
    transitive, a caller's proof that g is vertex-transitive, they start
    from (0,0) alone: an automorphism h of g gives h x id on K_2 x g, which
    carries any (a,0) to (0,0) and keeps the sides.
    """
    ecc = list(cover_eccentricities)
    if INF in ecc:
        raise _disconnected(complete_tensor(g, 2))
    side = (1 << g.n) - 1
    diameter = max(ecc, default=0)
    scan = side & 1 if transitive else None
    return _rank2((0, 1), _TypedRows(g, 2), side, side << g.n, (diameter, diameter), scan)


def kneser_neighborhood_geometry(p: KneserParams) -> IncidenceSystem:
    """Neighborhood geometry of KG(n,k) with subset-mask labels in hex: the
    rank-2 disjointness geometry of (n, k)."""
    labels = [f"{s.bits:#x}" for s in enumerate_k_subsets(p.ground, p.k)]
    return neighborhood_geometry(kneser_graph(p), labels)
