"""Typed incidence systems: flags, residues, truncations, and diagrams.

An IncidenceSystem stores typed elements together with a symmetric
incidence relation in which distinct incident elements always have distinct
types, i.e. the incidence graph is rank-partite.  On top of that sit the
structural predicates: the geometry test (every flag lies in a chamber),
residual connectedness, firmness/thickness, rank-2 classification
(generalised digon / partial linear space / neither), the rank-2
intersection property, and Buekenhout diagram extraction.  All of them read
one walk, _residues, which yields every flag of a type together with the
bitmask of its residue; a non-chamber flag with an empty residue is a
maximal non-chamber flag.  The diagram reads only the first residue of each
cotype: it stands for every residue of that cotype when an automorphism
group is transitive on those flags, which group_action.level_orbits
certifies; the other predicates visit every flag.

All counts are exact integers; math.inf only ever appears as a gonality or
diameter of degenerate systems.  Results are namedtuples (GeometryCheck,
RankTwoSummary, BuekenhoutDiagram, ...) that unpack and compare as tuples.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .graphs import (
    Graph,
    INF,
    _iter_bits,
    component_mask,
    connected_components,
    eccentricities,
    girth,
    induced_subgraph,
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
    elements of equal type is rejected at construction, by one AND of each
    element's mask with its type's mask.  The incidence relation is held
    once, as `graph` (vertex e is element e), given as pairs or, through
    from_graph, as a Graph; `adj`, `element_masks` and `incident` read
    from it.
    """

    __slots__ = ("types", "type_of", "labels", "graph", "_type_masks")

    def __init__(self, types, type_of, incidences, labels=None):
        self._set_elements(types, type_of, labels)
        n = len(self.type_of)
        edges = []
        for x, y in incidences:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"incidence ({x},{y}) out of range")
            if x != y:  # incidence is reflexive; only store the graph part
                edges.append((x, y))
        self._set_graph(Graph(n, edges))

    @classmethod
    def from_graph(cls, types, type_of, graph: Graph, labels=None) -> "IncidenceSystem":
        """The system whose incidence graph is graph: element e is vertex e."""
        sys = cls.__new__(cls)
        sys._set_elements(types, type_of, labels)
        if graph.n != len(sys.type_of):
            raise ValueError(f"graph has {graph.n} vertices for {len(sys.type_of)} elements")
        sys._set_graph(graph)
        return sys

    def _set_elements(self, types, type_of, labels) -> None:
        self.types = tuple(sorted(set(types)))
        self.type_of = tuple(type_of)
        tm = {t: 0 for t in self.types}
        for e, t in enumerate(self.type_of):
            if t not in tm:
                raise ValueError(f"element type {t} not among declared types {self.types}")
            tm[t] |= 1 << e
        self._type_masks = tm
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(self.type_of):
                raise ValueError("labels must cover all elements")
        self.labels = labels

    def _set_graph(self, graph: Graph) -> None:
        tm = self._type_masks
        for x, (mask, t) in enumerate(zip(graph.neighbor_masks, self.type_of)):
            same = mask & tm[t]
            if same:
                y = (same & -same).bit_length() - 1
                raise ValueError(f"elements {x},{y} of equal type {t} cannot be incident")
        self.graph = graph

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


class TypedIncidenceGraph(namedtuple("TypedIncidenceGraph", "graph type_colors types")):
    """Incidence graph plus the vertex -> type-index coloring."""

    __slots__ = ()


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


def _residues(sys: IncidenceSystem, J):
    """Yield (flag, residue mask) for every flag of type J: the flag as a
    sorted element tuple, depth-first in ascending type order, and the
    bitmask that residue_mask would return for it."""
    J = tuple(sorted(J))
    declared = set(sys.types)
    if len(set(J)) != len(J) or any(t not in declared for t in J):
        raise ValueError(f"types {J} not a subset of {sys.types}")
    masks = sys.element_masks
    type_masks = [sys.type_mask(t) for t in J]

    def extend(idx, chosen, cand):
        if idx == len(J):
            yield tuple(sorted(chosen)), cand
            return
        pool = cand & type_masks[idx]
        while pool:
            b = pool & -pool
            e = b.bit_length() - 1
            pool ^= b
            yield from extend(idx + 1, chosen + (e,), cand & masks[e])

    yield from extend(0, (), (1 << sys.n_elements) - 1)


def flags_of_type(sys: IncidenceSystem, J):
    """Every flag of type J as a sorted element tuple, depth-first in
    ascending type order."""
    return (flag for flag, _ in _residues(sys, J))


def _cotype(sys: IncidenceSystem, J) -> tuple[int, ...]:
    return tuple(t for t in sys.types if t not in J)


GeometryCheck = namedtuple("GeometryCheck", "ok witness")


def is_geometry(sys: IncidenceSystem) -> GeometryCheck:
    """True iff every flag extends to a chamber, i.e. no flag of size below
    the rank has an empty residue.  The witness is the first such flag, by
    size, then type, then the flag walk's order; it is a maximal
    non-chamber flag."""
    if sys.rank < 1:
        raise ValueError("geometry test needs rank >= 1")
    for size in range(sys.rank):
        for J in combinations(sys.types, size):
            for flag, cand in _residues(sys, J):
                if cand == 0:
                    return GeometryCheck(False, flag)
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
    """The system on the ascending elements keep, renumbered in that order."""
    graph, _ = induced_subgraph(sys.graph, keep)
    labels = tuple(sys.labels[e] for e in keep) if sys.labels is not None else None
    return IncidenceSystem.from_graph(types, [sys.type_of[e] for e in keep], graph, labels)


def residue(sys: IncidenceSystem, flag) -> tuple[IncidenceSystem, tuple[int, ...]]:
    """The residue of a flag: elements incident to all of it, outside it,
    with the remaining types.  Returns (system, back_map) with
    back_map[new_id] = old_id."""
    flag = tuple(sorted(set(flag)))
    if not is_flag(sys, flag):
        raise FlagError("not a flag")
    keep = list(_iter_bits(residue_mask(sys, flag)))
    new_types = _cotype(sys, {sys.type_of[e] for e in flag})
    return _restriction(sys, keep, new_types), tuple(keep)


def truncation(sys: IncidenceSystem, J) -> IncidenceSystem:
    """Restriction to the elements whose types lie in J."""
    J = set(J)
    if not J <= set(sys.types):
        raise ValueError(f"types {sorted(J)} not a subset of {sys.types}")
    keep = [e for e in range(sys.n_elements) if sys.type_of[e] in J]
    return _restriction(sys, keep, tuple(sorted(J)))


ResidualConnectivityCheck = namedtuple("ResidualConnectivityCheck", "ok failing_flag")


def is_residually_connected(sys: IncidenceSystem) -> ResidualConnectivityCheck:
    """Every residue of rank >= 2 (the empty flag included) has a connected
    incidence graph.  Only flags of corank >= 2 matter; smaller residues are
    vacuous."""
    masks = sys.element_masks
    for size in range(0, max(sys.rank - 1, 0)):
        for J in combinations(sys.types, size):
            for flag, cand in _residues(sys, J):
                start = (cand & -cand).bit_length() - 1
                if cand and component_mask(masks, start, cand) != cand:
                    return ResidualConnectivityCheck(False, flag)
    return ResidualConnectivityCheck(True, None)


def _rank1_residue_sizes(sys: IncidenceSystem):
    """(flag, residue size) for every flag of corank 1."""
    for i in sys.types:
        for flag, cand in _residues(sys, _cotype(sys, (i,))):
            yield flag, cand.bit_count()


def is_firm(sys: IncidenceSystem) -> bool:
    return all(size >= 2 for _, size in _rank1_residue_sizes(sys))


def is_thick(sys: IncidenceSystem) -> bool:
    return all(size >= 3 for _, size in _rank1_residue_sizes(sys))


# ---------------------------------------------------------------------------
# rank-2 classification and summaries
# ---------------------------------------------------------------------------

class RankTwoSummary(namedtuple("RankTwoSummary", "types gonality diameters classification")):
    """Gonality, per-type diameters, and the digon/linear-space verdict of a
    rank-2 geometry; diameters are aligned with the types pair."""

    __slots__ = ()


def _classify(sys: IncidenceSystem, cand: int, pair) -> str:
    """Digon / partial linear space / neither for the rank-2 system on the
    elements of the bitmask cand, whose types are pair, without assuming
    connectivity.

    A generalised digon is a complete bipartite incidence with at least two
    elements on each side (so gonality and both diameters equal 2); a
    partial linear space has no 4-cycle, i.e. no two elements of one side
    sharing two common neighbors.  A 4-cycle has two elements on each side,
    so scanning the pairs of one side finds every one.  A complete
    bipartite system with a singleton side has no 4-cycle and lands in the
    linear-space class.
    """
    masks = sys.element_masks
    a_mask, b_mask = cand & sys.type_mask(pair[0]), cand & sys.type_mask(pair[1])
    side = [masks[e] & b_mask for e in range(sys.n_elements) if a_mask >> e & 1]
    if len(side) >= 2 and b_mask.bit_count() >= 2 and all(m == b_mask for m in side):
        return DIGON
    for i, mi in enumerate(side):
        for mj in side[i + 1:]:
            if (mi & mj).bit_count() >= 2:
                return NEITHER
    return PARTIAL_LINEAR_SPACE


def classify_rank2(sys: IncidenceSystem) -> str:
    if sys.rank != 2:
        raise ValueError("classification needs a rank-2 system")
    return _classify(sys, (1 << sys.n_elements) - 1, sys.types)


def rank2_summary(sys: IncidenceSystem) -> RankTwoSummary:
    """Gonality (girth/2), per-type diameters (max eccentricity over the
    type's elements), and the classification of a connected rank-2 system."""
    if sys.rank != 2:
        raise ValueError("rank2_summary needs a rank-2 system")
    ecc = eccentricities(sys.graph)
    if INF in ecc:  # some element is unreachable from another
        comps = connected_components(sys.graph)
        raise DisconnectedGeometryError(
            f"incidence graph has {len(comps)} components", comps
        )
    gv = girth(sys.graph)
    gon = INF if gv == INF else gv // 2
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


Ip2Check = namedtuple("Ip2Check", "ok failing_pair failing_flag")


def satisfies_ip2(sys: IncidenceSystem) -> Ip2Check:
    """True iff every rank-2 residue is a partial linear space or a
    generalised digon.  All residues are checked; flag-transitivity is not
    assumed."""
    if sys.rank < 2:
        return Ip2Check(True, None, None)
    for J in combinations(sys.types, sys.rank - 2):
        pair = _cotype(sys, J)
        for flag, cand in _residues(sys, J):
            if _classify(sys, cand, pair) == NEITHER:
                return Ip2Check(False, pair, flag)
    return Ip2Check(True, None, None)


# ---------------------------------------------------------------------------
# Buekenhout diagram
# ---------------------------------------------------------------------------

class BuekenhoutDiagram(namedtuple("BuekenhoutDiagram", "types orders counts edges")):
    """Per-type orders and element counts, and edges: (i, j), i < j ->
    RankTwoSummary for every type pair whose residues are not generalised
    digons (digon edges are omitted, as usual)."""

    __slots__ = ()


def buekenhout_diagram(sys: IncidenceSystem) -> BuekenhoutDiagram:
    """Extract the diagram from the first residue of each kind.

    Orders come from the first rank-1 residue of each cotype, pair labels
    from the first rank-2 residue of each type pair.  The diagram describes
    every residue when the geometry is flag-transitive, which
    group_action.level_orbits certifies for verified automorphisms.
    """
    counts = {t: len(sys.elements_of_type(t)) for t in sys.types}

    def first_residue(cotype):
        for _, cand in _residues(sys, _cotype(sys, cotype)):
            return cand
        raise ValueError(f"no flag of cotype {set(cotype)}; not a geometry")

    orders = {i: first_residue((i,)).bit_count() - 1 for i in sys.types}
    edges = {}
    for pair in combinations(sys.types, 2):
        cand = first_residue(pair)
        summary = rank2_summary(_restriction(sys, list(_iter_bits(cand)), pair))
        if summary.classification != DIGON:
            edges[pair] = summary
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
    """The incidences are Graph.edges' (a, b) tuples, which json writes as arrays."""
    return {
        "rank": sys.rank,
        "types": list(sys.types),
        "elements": [
            {"id": e, "type": sys.type_of[e], "label": sys.label_of(e)}
            for e in range(sys.n_elements)
        ],
        "incidences": sys.graph.edges(),
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
