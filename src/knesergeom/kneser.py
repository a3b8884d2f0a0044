"""Kneser graphs, their closed-form invariants, and explicit path witnesses.

KG(n, k) has the k-subsets of {0,...,n-1} as vertices (in colex order, so
vertex index = colex rank) and joins disjoint subsets.  The closed forms:

    odd girth of KG(n,k)                    2*ceil(k/(n-2k)) + 1
    gonality of its neighborhood geometry   3 if n = 2k+1 else 2
    diameters of its neighborhood geometry  2*ceil(k/(n-2k)) + 1

The path constructors build, between any vertices A and B with
c = |A intersect B|, an even walk of length exactly 2*ceil((k-c)/(n-2k))
and an odd walk of length exactly 2*ceil(c/(n-2k)) + 1, by swapping
(n-2k)-sized chunks of the symmetric difference one pair at a time and
padding from the complement of A union B.  Every constructed walk is
re-verified before being returned.

typed_copies is the one constructor of the geometries here: r typed copies
of a graph's vertices, incident across types along its edges, so that the
incidence graph is K_r x g for a graph checked once; neighborhood_geometry
is its rank-2 case.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, _iter_bits, complete_tensor
from .incidence import IncidenceSystem
from .subsets import GroundSet, KSubset, enumerate_k_subsets, validate_subset


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
    subsets that hold p.  S_i holds its own points, so i is not in D[i]."""
    holding = {}
    for i, s in enumerate(subsets):
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
    return Graph.from_masks(disjointness_table(subsets))


def typed_copies(g: Graph, r: int, labels=None) -> IncidenceSystem:
    """r typed copies of g's vertices, (t, v) at t*g.n + v and labelled
    labels[v] if given, with (s, v) incident to (t, w) iff s != t and
    v ~ w: the incidence graph is K_r x g, simple whenever g is."""
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


def _chunks(elems, size):
    return [elems[i:i + size] for i in range(0, len(elems), size)]


def _check_walk(p: KneserParams, walk, expected_len) -> None:
    if len(walk) - 1 != expected_len:
        raise RuntimeError(
            f"constructed walk has length {len(walk) - 1}, expected {expected_len}"
        )
    for s in walk:
        validate_subset(p.ground, s)
        if s.k != p.k:
            raise RuntimeError(f"walk vertex {s} is not a {p.k}-subset")
    for a, b in zip(walk, walk[1:]):
        if a.bits & b.bits:
            raise RuntimeError(f"consecutive walk vertices {a}, {b} intersect")


def construct_even_path(A: KSubset, B: KSubset, p: KneserParams) -> list[KSubset]:
    """An even walk from A to B of length exactly 2*ceil((k-c)/(n-2k)).

    Split A\\B into chunks X_1..X_l and B\\A into Y_1..Y_l of size n-2k
    (the last pair possibly shorter) and swap one chunk pair per two steps:
    the even positions carry Y_1..Y_i, X_{i+1}..X_l and A&B; the odd
    positions carry X_1..X_i, Y_{i+2}..Y_l padded from the complement of
    A|B, which is large enough exactly because chunks have size <= n-2k.
    """
    validate_subset(p.ground, A)
    validate_subset(p.ground, B)
    if A.k != p.k or B.k != p.k:
        raise ValueError(f"path endpoints must be {p.k}-subsets")
    if A == B:
        return [A]
    k, d = p.k, p.n - 2 * p.k
    c = (A.bits & B.bits).bit_count()
    l = _ceil_div(k - c, d)
    xs = _chunks(KSubset(A.bits & ~B.bits).elements(), d)
    ys = _chunks(KSubset(B.bits & ~A.bits).elements(), d)
    common = A.bits & B.bits
    outside = KSubset(p.ground.full_mask & ~(A.bits | B.bits)).elements()

    def mask_of(parts):
        bits = 0
        for part in parts:
            for e in part:
                bits |= 1 << e
        return bits

    walk = []
    for i in range(l + 1):
        even = mask_of(ys[:i]) | mask_of(xs[i:]) | common
        walk.append(KSubset(even))
        if i < l:
            pad = c + len(ys[i])
            odd = mask_of(xs[:i]) | mask_of(ys[i + 1:])
            for e in outside[:pad]:
                odd |= 1 << e
            walk.append(KSubset(odd))
    _check_walk(p, walk, 2 * l)
    if walk[0] != A or walk[-1] != B:
        raise RuntimeError("walk endpoints do not match")
    return walk


def construct_odd_path(A: KSubset, B: KSubset, p: KneserParams) -> list[KSubset]:
    """An odd walk from A to B of length exactly 2*ceil(c/(n-2k)) + 1.

    Pivot through A' = (B\\A) plus c elements borrowed from the complement
    of A|B; A and A' are disjoint and |A' & B| = k-c, so the even
    constructor finishes the job.
    """
    validate_subset(p.ground, A)
    validate_subset(p.ground, B)
    if A.k != p.k or B.k != p.k:
        raise ValueError(f"path endpoints must be {p.k}-subsets")
    d = p.n - 2 * p.k
    c = (A.bits & B.bits).bit_count()
    outside = KSubset(p.ground.full_mask & ~(A.bits | B.bits)).elements()
    pivot = B.bits & ~A.bits
    for e in outside[:c]:
        pivot |= 1 << e
    walk = [A] + construct_even_path(KSubset(pivot), B, p)
    _check_walk(p, walk, 2 * _ceil_div(c, d) + 1)
    if walk[0] != A or walk[-1] != B:
        raise RuntimeError("walk endpoints do not match")
    return walk


def neighborhood_geometry(g: Graph, labels=None) -> IncidenceSystem:
    """The rank-2 typed copies of g: (p,0) at index p is incident to (q,1)
    at n+q iff p ~ q, along the edges of the bipartite double cover K_2 x g."""
    return typed_copies(g, 2, labels)


def kneser_neighborhood_geometry(p: KneserParams) -> IncidenceSystem:
    """Neighborhood geometry of KG(n,k) with subset-mask labels in hex: the
    rank-2 disjointness geometry of (n, k)."""
    labels = [f"{s.bits:#x}" for s in enumerate_k_subsets(p.ground, p.k)]
    return neighborhood_geometry(kneser_graph(p), labels)
