"""Typed incidence systems: flags, residues, truncations, and diagrams.

An IncidenceSystem stores typed elements together with a symmetric
incidence relation in which distinct incident elements always have distinct
types, i.e. the incidence graph is rank-partite.  On top of that sit the
structural predicates: the geometry test (every maximal clique of the
incidence graph is a chamber), residual connectedness, firmness/thickness,
rank-2 classification (generalised digon / partial linear space / neither),
the rank-2 intersection property, and Buekenhout diagram extraction.

All counts are exact integers; math.inf only ever appears as a gonality or
diameter of degenerate systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Optional

from .graphs import (
    Graph,
    INF,
    connected_components,
    eccentricities,
    girth,
)

DIGON = "generalised_digon"
PARTIAL_LINEAR_SPACE = "partial_linear_space"
NEITHER = "neither"


class FlagError(ValueError):
    pass


class DisconnectedGeometryError(ValueError):
    """Raised where an operation needs a connected incidence graph; carries
    the component partition."""

    def __init__(self, message, components):
        super().__init__(message)
        self.components = components


class IncidenceSystem:
    """Elements 0..n-1, a type label per element, symmetric incidence.

    Type labels are arbitrary ints (kept verbatim by residues and
    truncations); rank is the number of distinct labels.  Incidence between
    elements of equal type is rejected at construction.  The incidence
    relation is held once, as `graph` (vertex e is element e); `adj`,
    `element_masks` and `incident` read from it.
    """

    __slots__ = ("types", "type_of", "labels", "graph", "_type_masks")

    def __init__(self, types, type_of, incidences, labels=None):
        self.types = tuple(sorted(set(types)))
        self.type_of = tuple(type_of)
        for t in self.type_of:
            if t not in set(self.types):
                raise ValueError(f"element type {t} not among declared types {self.types}")
        n = len(self.type_of)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover all elements")
        self.labels = labels
        self.graph = Graph(n, self._checked_edges(incidences))
        self._type_masks = None

    def _checked_edges(self, incidences):
        n, type_of = len(self.type_of), self.type_of
        for x, y in incidences:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"incidence ({x},{y}) out of range")
            if x == y:
                continue  # incidence is reflexive; only store the graph part
            if type_of[x] == type_of[y]:
                raise ValueError(
                    f"elements {x},{y} of equal type {type_of[x]} cannot be incident"
                )
            yield x, y

    @property
    def rank(self) -> int:
        return len(self.types)

    @property
    def n_elements(self) -> int:
        return len(self.type_of)

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        return self.graph.adj

    @property
    def element_masks(self) -> tuple[int, ...]:
        return self.graph.neighbor_masks

    def type_mask(self, t: int) -> int:
        if self._type_masks is None:
            tm = {u: 0 for u in self.types}
            for e, te in enumerate(self.type_of):
                tm[te] |= 1 << e
            self._type_masks = tm
        return self._type_masks[t]

    def elements_of_type(self, t: int) -> tuple[int, ...]:
        return tuple(e for e, te in enumerate(self.type_of) if te == t)

    def incident(self, x: int, y: int) -> bool:
        return x == y or self.graph.has_edge(x, y)

    def label_of(self, e: int) -> str:
        return self.labels[e] if self.labels is not None else str(e)

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceSystem)
            and self.types == other.types
            and self.type_of == other.type_of
            and self.graph == other.graph
            and self.labels == other.labels
        )

    def __repr__(self):
        return f"IncidenceSystem(rank={self.rank}, elements={self.n_elements})"


@dataclass(frozen=True)
class TypedIncidenceGraph:
    """Incidence graph plus the vertex -> type-index coloring."""

    graph: Graph
    type_colors: tuple[int, ...]
    types: tuple[int, ...]


def incidence_graph(sys: IncidenceSystem) -> TypedIncidenceGraph:
    """Vertex v is element v; edges are the incidences; colors index types.
    The graph is the system's own, not a copy."""
    idx = {t: i for i, t in enumerate(sys.types)}
    return TypedIncidenceGraph(sys.graph, tuple(idx[t] for t in sys.type_of), sys.types)


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def is_flag(sys: IncidenceSystem, elements) -> bool:
    elems = sorted(set(elements))
    seen_types = set()
    for e in elems:
        if not 0 <= e < sys.n_elements:
            return False
        t = sys.type_of[e]
        if t in seen_types:
            return False
        seen_types.add(t)
    for a, b in combinations(elems, 2):
        if not sys.incident(a, b):
            return False
    return True


def flag_type(sys: IncidenceSystem, elements) -> tuple[int, ...]:
    return tuple(sorted(sys.type_of[e] for e in elements))


def flags_of_type(sys: IncidenceSystem, J):
    """Yield every flag of type J as a sorted element tuple, depth-first in
    ascending type order."""
    J = tuple(sorted(J))
    if len(set(J)) != len(J) or any(t not in set(sys.types) for t in J):
        raise ValueError(f"types {J} not a subset of {sys.types}")
    if not J:
        yield ()
        return
    full = (1 << sys.n_elements) - 1
    masks = sys.element_masks

    def extend(idx, chosen, cand):
        if idx == len(J):
            yield tuple(sorted(chosen))
            return
        pool = cand & sys.type_mask(J[idx])
        while pool:
            b = pool & -pool
            e = b.bit_length() - 1
            pool ^= b
            yield from extend(idx + 1, chosen + (e,), cand & masks[e])

    yield from extend(0, (), full)


# ---------------------------------------------------------------------------
# geometry predicate via maximal cliques
# ---------------------------------------------------------------------------

def _maximal_cliques(masks, n):
    """Bron-Kerbosch with pivoting over bitmask adjacency; yields bitmasks."""

    def bk(r, p, x):
        if not p and not x:
            yield r
            return
        # pivot: candidate from p|x covering most of p (scan capped for speed)
        pool = p | x
        pivot, cover, scanned = -1, -1, 0
        t = pool
        while t and scanned < 48:
            b = t & -t
            u = b.bit_length() - 1
            t ^= b
            c = (p & masks[u]).bit_count()
            if c > cover:
                pivot, cover = u, c
            scanned += 1
        branch = p & ~masks[pivot] if pivot >= 0 else p
        while branch:
            b = branch & -branch
            v = b.bit_length() - 1
            branch ^= b
            yield from bk(r | b, p & masks[v], x & masks[v])
            p &= ~b
            x |= b

    yield from bk(0, (1 << n) - 1, 0)


class GeometryCheck(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, ...]]  # a maximal non-chamber flag, if any


def is_geometry(sys: IncidenceSystem) -> GeometryCheck:
    """True iff every maximal clique of the incidence graph meets all types,
    i.e. every flag extends to a chamber."""
    if sys.rank < 1:
        raise ValueError("geometry test needs rank >= 1")
    rank = sys.rank
    for clique in _maximal_cliques(sys.element_masks, sys.n_elements):
        if clique.bit_count() != rank:
            witness = tuple(e for e in range(sys.n_elements) if clique >> e & 1)
            return GeometryCheck(False, witness)
    return GeometryCheck(True, None)


# ---------------------------------------------------------------------------
# residues and truncations
# ---------------------------------------------------------------------------

def residue_mask(sys: IncidenceSystem, flag) -> int:
    """Bitmask of the residue's elements: those incident to every element
    of the flag.  No element is in its own neighbor mask, so the flag
    itself drops out."""
    cand = (1 << sys.n_elements) - 1
    for e in flag:
        cand &= sys.element_masks[e]
    return cand


def _restriction(sys: IncidenceSystem, keep, types) -> IncidenceSystem:
    pos = {old: new for new, old in enumerate(keep)}
    incid = [
        (pos[a], pos[b])
        for a in keep
        for b in sys.adj[a]
        if b in pos and a < b
    ]
    labels = tuple(sys.labels[e] for e in keep) if sys.labels is not None else None
    return IncidenceSystem(types, tuple(sys.type_of[e] for e in keep), incid, labels)


def residue(sys: IncidenceSystem, flag) -> tuple[IncidenceSystem, tuple[int, ...]]:
    """The residue of a flag: elements incident to all of it, outside it,
    with the remaining types.  Returns (system, back_map) with
    back_map[new_id] = old_id."""
    flag = tuple(sorted(set(flag)))
    if not is_flag(sys, flag):
        raise FlagError("not a flag")
    cand = residue_mask(sys, flag)
    keep = [e for e in range(sys.n_elements) if cand >> e & 1]
    flag_types = {sys.type_of[e] for e in flag}
    new_types = tuple(t for t in sys.types if t not in flag_types)
    return _restriction(sys, keep, new_types), tuple(keep)


def truncation(sys: IncidenceSystem, J) -> IncidenceSystem:
    """Restriction to the elements whose types lie in J."""
    J = set(J)
    if not J <= set(sys.types):
        raise ValueError(f"types {sorted(J)} not a subset of {sys.types}")
    keep = [e for e in range(sys.n_elements) if sys.type_of[e] in J]
    return _restriction(sys, keep, tuple(sorted(J)))


def _residue_connected(sys, flag) -> bool:
    """Connectivity of the residue's incidence graph, computed on masks."""
    cand = residue_mask(sys, flag)
    if cand == 0:
        return True
    start = (cand & -cand).bit_length() - 1
    visited = 1 << start
    cur = visited
    while cur:
        nxt = 0
        t = cur
        while t:
            b = t & -t
            v = b.bit_length() - 1
            t ^= b
            nxt |= sys.element_masks[v]
        nxt &= cand & ~visited
        visited |= nxt
        cur = nxt
    return visited == cand


class ResidualConnectivityCheck(NamedTuple):
    ok: bool
    failing_flag: Optional[tuple[int, ...]]


def is_residually_connected(sys: IncidenceSystem) -> ResidualConnectivityCheck:
    """Every residue of rank >= 2 (the empty flag included) has a connected
    incidence graph.  Only flags of corank >= 2 matter; smaller residues are
    vacuous."""
    for size in range(0, max(sys.rank - 1, 0)):
        for J in combinations(sys.types, size):
            for flag in flags_of_type(sys, J):
                if not _residue_connected(sys, flag):
                    return ResidualConnectivityCheck(False, flag)
    return ResidualConnectivityCheck(True, None)


def _rank1_residue_sizes_of_cotype(sys, cotype):
    for flag in flags_of_type(sys, cotype):
        yield flag, residue_mask(sys, flag).bit_count()


def _rank1_residue_sizes(sys: IncidenceSystem):
    for i in sys.types:
        cotype = tuple(t for t in sys.types if t != i)
        yield from _rank1_residue_sizes_of_cotype(sys, cotype)


def is_firm(sys: IncidenceSystem) -> bool:
    return all(size >= 2 for _, size in _rank1_residue_sizes(sys))


def is_thick(sys: IncidenceSystem) -> bool:
    return all(size >= 3 for _, size in _rank1_residue_sizes(sys))


# ---------------------------------------------------------------------------
# rank-2 classification and summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankTwoSummary:
    """Gonality, per-type diameters, and the digon/linear-space verdict of a
    rank-2 geometry; diameters are aligned with the types pair."""

    types: tuple[int, int]
    gonality: float
    diameters: tuple[float, float]
    classification: str


def _classify_bipartite(side_a_masks, side_b_masks, a_mask, b_mask) -> str:
    """Digon / partial linear space / neither, without assuming connectivity.

    A generalised digon is a complete bipartite incidence with at least two
    elements on each side (so gonality and both diameters equal 2); a
    partial linear space has no 4-cycle, i.e. no two elements of one side
    sharing two common neighbors.  A complete bipartite system with a
    singleton side has no 4-cycle and lands in the linear-space class.
    """
    na, nb = a_mask.bit_count(), b_mask.bit_count()
    complete = all(m & b_mask == b_mask for m in side_a_masks)
    if complete and na >= 2 and nb >= 2:
        return DIGON
    for masks, other in ((side_a_masks, b_mask), (side_b_masks, a_mask)):
        for i in range(len(masks)):
            mi = masks[i] & other
            for j in range(i + 1, len(masks)):
                if (mi & masks[j]).bit_count() >= 2:
                    return NEITHER
    return PARTIAL_LINEAR_SPACE


def classify_rank2(sys: IncidenceSystem) -> str:
    if sys.rank != 2:
        raise ValueError("classification needs a rank-2 system")
    ta, tb = sys.types
    a = sys.elements_of_type(ta)
    b = sys.elements_of_type(tb)
    am, bm = sys.type_mask(ta), sys.type_mask(tb)
    masks = sys.element_masks
    return _classify_bipartite([masks[e] for e in a], [masks[e] for e in b], am, bm)


def rank2_summary(sys: IncidenceSystem) -> RankTwoSummary:
    """Gonality (girth/2), per-type diameters (max eccentricity over the
    type's elements), and the classification of a connected rank-2 system."""
    if sys.rank != 2:
        raise ValueError("rank2_summary needs a rank-2 system")
    comps = connected_components(sys.graph)
    if len(comps) > 1:
        raise DisconnectedGeometryError(
            f"incidence graph has {len(comps)} components", comps
        )
    gv = girth(sys.graph)
    gon = INF if gv == INF else gv // 2
    ecc = eccentricities(sys.graph)
    dias = []
    for t in sys.types:
        elems = sys.elements_of_type(t)
        dias.append(max((ecc[e] for e in elems), default=0))
    return RankTwoSummary(
        types=(sys.types[0], sys.types[1]),
        gonality=gon,
        diameters=(dias[0], dias[1]),
        classification=classify_rank2(sys),
    )


class Ip2Check(NamedTuple):
    ok: bool
    failing_pair: Optional[tuple[int, int]]
    failing_flag: Optional[tuple[int, ...]]


def satisfies_ip2(sys: IncidenceSystem) -> Ip2Check:
    """True iff every rank-2 residue is a partial linear space or a
    generalised digon.  All residues are checked; flag-transitivity is not
    assumed."""
    if sys.rank < 2:
        return Ip2Check(True, None, None)
    masks = sys.element_masks
    for J in combinations(sys.types, sys.rank - 2):
        pair = tuple(t for t in sys.types if t not in set(J))
        for flag in flags_of_type(sys, J):
            cand = residue_mask(sys, flag)
            a = [masks[e] & cand for e in range(sys.n_elements)
                 if cand >> e & 1 and sys.type_of[e] == pair[0]]
            b = [masks[e] & cand for e in range(sys.n_elements)
                 if cand >> e & 1 and sys.type_of[e] == pair[1]]
            am = cand & sys.type_mask(pair[0])
            bm = cand & sys.type_mask(pair[1])
            if _classify_bipartite(a, b, am, bm) == NEITHER:
                return Ip2Check(False, (pair[0], pair[1]), flag)
    return Ip2Check(True, None, None)


# ---------------------------------------------------------------------------
# Buekenhout diagram
# ---------------------------------------------------------------------------

@dataclass
class BuekenhoutDiagram:
    """Per-type orders and element counts, plus a rank-2 summary for every
    type pair whose residues are not generalised digons (digon edges are
    omitted, as usual)."""

    types: tuple[int, ...]
    orders: dict
    counts: dict
    edges: dict  # (i, j) with i < j -> RankTwoSummary

    def __eq__(self, other):
        return (
            isinstance(other, BuekenhoutDiagram)
            and self.types == other.types
            and self.orders == other.orders
            and self.counts == other.counts
            and self.edges == other.edges
        )


def buekenhout_diagram(sys: IncidenceSystem, verify_uniformity: bool = False) -> BuekenhoutDiagram:
    """Extract the diagram from residues.

    Orders come from a rank-1 residue of each cotype, pair labels from a
    rank-2 residue of each type pair.  Callers either know the geometry is
    flag-transitive (so any residue represents its class) or pass
    verify_uniformity=True to check that all residues of each kind agree.
    """
    counts = {t: len(sys.elements_of_type(t)) for t in sys.types}
    orders = {}
    for i in sys.types:
        cotype = tuple(t for t in sys.types if t != i)
        first_flag, first_size = None, None
        for flag, size in _rank1_residue_sizes_of_cotype(sys, cotype):
            if first_flag is None:
                first_flag, first_size = flag, size
                if not verify_uniformity:
                    break
            elif size != first_size:
                raise ValueError(
                    f"non-uniform {i}-order: flag {first_flag} gives {first_size - 1}, "
                    f"flag {flag} gives {size - 1}"
                )
        if first_flag is None:
            raise ValueError(f"no flag of cotype {i}; not a geometry")
        orders[i] = first_size - 1
    edges = {}
    for i, j in combinations(sys.types, 2):
        J = tuple(t for t in sys.types if t not in (i, j))
        first_flag, summary = None, None
        for flag in flags_of_type(sys, J):
            sub, _ = residue(sys, flag)
            s = rank2_summary(sub)
            if summary is None:
                first_flag, summary = flag, s
                if not verify_uniformity:
                    break
            elif s != summary:
                raise ValueError(
                    f"non-uniform {{{i},{j}}}-residues: flag {first_flag} gives "
                    f"{summary}, flag {flag} gives {s}"
                )
        if summary is None:
            raise ValueError(f"no flag of cotype {{{i},{j}}}; not a geometry")
        if summary.classification != DIGON:
            edges[(i, j)] = summary
    return BuekenhoutDiagram(sys.types, orders, counts, edges)


# ---------------------------------------------------------------------------
# construction helpers and serialization
# ---------------------------------------------------------------------------

def vertex_edge_geometry(g: Graph) -> IncidenceSystem:
    """The rank-2 geometry of a graph: type 0 = vertices, type 1 = edges,
    incidence = containment."""
    edges = g.edges()
    n = g.n
    incid = []
    labels = [f"v{v}" for v in range(n)]
    for idx, (u, v) in enumerate(edges):
        incid.append((u, n + idx))
        incid.append((v, n + idx))
        labels.append(f"e{u}-{v}")
    return IncidenceSystem((0, 1), [0] * n + [1] * len(edges), incid, labels)


def _jsonable(x):
    if x is INF:
        return "inf"
    return x


def system_to_json(sys: IncidenceSystem) -> dict:
    return {
        "rank": sys.rank,
        "types": list(sys.types),
        "elements": [
            {"id": e, "type": sys.type_of[e], "label": sys.label_of(e)}
            for e in range(sys.n_elements)
        ],
        "incidences": [[a, b] for a in range(sys.n_elements) for b in sys.adj[a] if a < b],
    }


def summary_to_json(s: RankTwoSummary) -> dict:
    return {
        "types": list(s.types),
        "gonality": _jsonable(s.gonality),
        "diameters": [_jsonable(d) for d in s.diameters],
        "classification": s.classification,
    }


def diagram_to_json(d: BuekenhoutDiagram) -> dict:
    return {
        "types": list(d.types),
        "orders": {str(t): d.orders[t] for t in d.types},
        "counts": {str(t): d.counts[t] for t in d.types},
        "edges": [
            {
                "pair": [i, j],
                "label": f"{_jsonable(s.diameters[0])}-{_jsonable(s.gonality)}-{_jsonable(s.diameters[1])}",
                "summary": summary_to_json(s),
            }
            for (i, j), s in sorted(d.edges.items())
        ],
    }


def diagram_to_dot(d: BuekenhoutDiagram) -> str:
    lines = ["graph buekenhout {", "  node [shape=circle];"]
    for t in d.types:
        lines.append(f'  t{t} [label="s={d.orders[t]}, n={d.counts[t]}"];')
    for (i, j), s in sorted(d.edges.items()):
        label = f"{_jsonable(s.diameters[0])}-{_jsonable(s.gonality)}-{_jsonable(s.diameters[1])}"
        lines.append(f'  t{i} -- t{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
