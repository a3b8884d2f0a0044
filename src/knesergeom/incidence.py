"""Typed incidence systems: flags, residues, and diagrams.

An IncidenceSystem stores typed elements together with a symmetric
incidence relation in which distinct incident elements always have distinct
types, i.e. the incidence graph is rank-partite.  On top of that sit the
structural predicates: the geometry test (every flag lies in a chamber),
residual connectedness, thickness, rank-2 classification
(generalised digon / partial linear space / neither), the rank-2
intersection property, and Buekenhout diagram extraction.  All of them read
one walk, _residues, which yields every flag of a type together with the
bitmask of its residue; a non-chamber flag with an empty residue is a
maximal non-chamber flag.  A type-preserving automorphism maps residues
onto isomorphic ones, so where such a group is transitive on the flags of
a type set the first residue stands for all.  The diagram reads only that
first residue; the other predicates read _walk, which skips the rest only
where a verified witness of the system's own graph proves transitivity.
A rank-2 summary classifies first: its incidence graph is bipartite, since
no two elements of one type are incident, so its girth search takes the
floor 4, or 6 for a partial linear space, which has no 4-cycle, starts
from one side only and ends at the first source on a cycle of the floor's
length.  Both read the incidence rows through one argument, so
kneser.neighborhood_summary runs the same two loops on rows of the double
cover made from its factor's.

All counts are exact integers; math.inf only ever appears as a gonality or
diameter of degenerate systems.  Results are namedtuples (GeometryCheck,
RankTwoSummary, BuekenhoutDiagram, ...) that unpack and compare as tuples.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, islice

from .graphs import (
    Graph,
    INF,
    _TypedRows,
    _girth,
    _iter_bits,
    component_mask,
    connected_components,
    eccentricities,
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

    Type labels are arbitrary ints (kept verbatim by residues); rank is the
    number of distinct labels.  Incidence between elements of equal type is
    rejected at construction, by one AND of each element's mask with its
    type's mask.  The incidence relation is held once, as `graph` (vertex e
    is element e), given as pairs or, through from_graph, as a Graph;
    `element_masks`, its neighbor bitmasks, and `incident` read from it.
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
        """Hold graph, after one AND of each element's row with its type's
        mask, which typed rows skip when each type is one of their blocks.

        Lemma: the row of (t, v) in _TypedRows lies in the blocks other
        than block t.  If the type of the first element of each block has
        exactly that block as its mask, every element of the block has that
        type, as the type masks partition the elements, so no row meets
        its own type's mask and the check always holds."""
        tm, rows = self._type_masks, graph.neighbor_masks
        n = rows.n if isinstance(rows, _TypedRows) else 0
        blocks = n and all(
            tm[self.type_of[t * n]] == ((1 << n) - 1) << t * n for t in range(rows.r)
        )
        if not blocks:
            for x, (mask, t) in enumerate(zip(rows, self.type_of)):
                if same := mask & tm[t]:
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
    def element_masks(self) -> tuple[int, ...]:
        return self.graph.neighbor_masks

    def type_mask(self, t: int) -> int:
        return self._type_masks[t]

    def elements_of_type(self, t: int) -> tuple[int, ...]:
        return tuple(e for e, te in enumerate(self.type_of) if te == t)

    def incident(self, x: int, y: int) -> bool:
        """x * y: equal or adjacent; ValueError outside 0..n_elements-1."""
        return self.graph.has_edge(x, y) or x == y

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
    """Elements in range and pairwise incident; two of one type never are."""
    elems = set(elements)
    return all(0 <= e < sys.n_elements for e in elems) and all(
        sys.graph.has_edge(a, b) for a, b in combinations(elems, 2)
    )


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


def _walk(sys: IncidenceSystem, sizes, witness=None):
    """Yield (J, flag, residue mask) for each type set J of each size in
    sizes, ascending, and every flag of J in _residues order, or only the
    first if len(J) <= witness.covered and witness is of this very graph."""
    covered = witness.covered if witness is not None and witness.graph is sys.graph else 0
    for size in sizes:
        for J in combinations(sys.types, size):
            residues = _residues(sys, J)
            for flag, cand in islice(residues, 1) if size <= covered else residues:
                yield J, flag, cand


def flags_of_type(sys: IncidenceSystem, J):
    """Every flag of type J as a sorted element tuple, depth-first in
    ascending type order."""
    return (flag for flag, _ in _residues(sys, J))


def _cotype(sys: IncidenceSystem, J) -> tuple[int, ...]:
    return tuple(t for t in sys.types if t not in J)


GeometryCheck = namedtuple("GeometryCheck", "ok witness")


def is_geometry(sys: IncidenceSystem, witness=None) -> GeometryCheck:
    """True iff every flag extends to a chamber, i.e. no flag of size below
    the rank has an empty residue.  The witness flag is the first such flag
    by size, then type, then walk order (_walk, which a symmetry witness
    thins); it is a maximal non-chamber flag."""
    if sys.rank < 1:
        raise ValueError("geometry test needs rank >= 1")
    for _, flag, cand in _walk(sys, range(sys.rank), witness):
        if cand == 0:
            return GeometryCheck(False, flag)
    return GeometryCheck(True, None)


# ---------------------------------------------------------------------------
# residues
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


ResidualConnectivityCheck = namedtuple("ResidualConnectivityCheck", "ok failing_flag")


def is_residually_connected(sys: IncidenceSystem, witness=None) -> ResidualConnectivityCheck:
    """Every residue of rank >= 2 (the empty flag included) has a connected
    incidence graph.  Only flags of corank >= 2 matter; smaller residues are
    vacuous.  The flags read are _walk's."""
    masks = sys.element_masks
    for _, flag, cand in _walk(sys, range(sys.rank - 1), witness):
        start = (cand & -cand).bit_length() - 1
        if cand and component_mask(masks, start, cand) != cand:
            return ResidualConnectivityCheck(False, flag)
    return ResidualConnectivityCheck(True, None)


def _rank1_residue_sizes(sys: IncidenceSystem, witness=None):
    """(flag, residue size) for every flag of corank 1 that _walk reads."""
    for _, flag, cand in _walk(sys, range(max(sys.rank - 1, 0), sys.rank), witness):
        yield flag, cand.bit_count()


def is_thick(sys: IncidenceSystem) -> bool:
    return all(size >= 3 for _, size in _rank1_residue_sizes(sys))


# ---------------------------------------------------------------------------
# rank-2 classification and summaries
# ---------------------------------------------------------------------------

class RankTwoSummary(namedtuple("RankTwoSummary", "types gonality diameters classification")):
    """Gonality, per-type diameters, and the digon/linear-space verdict of a
    rank-2 geometry; diameters are aligned with the types pair."""

    __slots__ = ()


def _classify(masks, a_mask: int, b_mask: int, scan=None) -> str:
    """Digon / partial linear space / neither for the rank-2 system with
    the first side a_mask and the second b_mask, in which element e has
    the incidence bitmask masks[e], without assuming connectivity.

    A generalised digon is a complete bipartite incidence with at least two
    elements on each side (so gonality and both diameters equal 2); a
    partial linear space has no 4-cycle, i.e. no two elements of one side
    sharing two common neighbors.  A 4-cycle a-b-a'-b' has two elements on
    each side, so one pass over each element a of the first side finds
    every one: the first-side neighbors other than a of a's neighbors b,
    or'ed one b at a time, meet again exactly when some a' shares two
    neighbors with a.  A complete bipartite system with a singleton side
    has no 4-cycle and lands in the linear-space class.

    scan, a bitmask within the first side, is the elements passed over, all
    of it by default.  A caller may pass fewer when automorphisms that keep
    the sides carry every element of the first side into scan, as they
    then carry every 4-cycle onto one through scan.
    """
    if (
        a_mask.bit_count() >= 2
        and b_mask.bit_count() >= 2
        and all(masks[a] & b_mask == b_mask for a in _iter_bits(a_mask))
    ):
        return DIGON
    for a in _iter_bits(a_mask if scan is None else scan):
        others, seen = a_mask ^ 1 << a, 0
        for b in _iter_bits(masks[a] & b_mask):
            back = masks[b] & others
            if back & seen:
                return NEITHER
            seen |= back
    return PARTIAL_LINEAR_SPACE


def rank2_summary(sys: IncidenceSystem) -> RankTwoSummary:
    """Gonality (girth/2), per-type diameters (max eccentricity over the
    type's elements), and the classification of a connected rank-2 system."""
    if sys.rank != 2:
        raise ValueError("rank2_summary needs a rank-2 system")
    return _summary_of(sys, eccentricities(sys.graph))


def _summary_of(sys: IncidenceSystem, ecc) -> RankTwoSummary:
    """rank2_summary of the rank-2 system sys, given the eccentricity of
    each element in its incidence graph."""
    if INF in ecc:  # some element is unreachable from another
        raise _disconnected(sys.graph)
    sides = [sys.type_mask(t) for t in sys.types]
    diameters = [max((ecc[e] for e in _iter_bits(side)), default=0) for side in sides]
    return _rank2(sys.types, sys.element_masks, *sides, diameters)


def _rank2(types, masks, a_mask: int, b_mask: int, diameters, scan=None) -> RankTwoSummary:
    """The summary of a connected rank-2 system of the given types, sides,
    incidence bitmasks and per-type diameters: one _classify and one _girth.

    The incidence graph is bipartite, as no two elements of one type are
    incident, so its girth is at least 4; a partial linear space has no
    4-cycle, so its girth is at least 6.  Every cycle has elements of both
    sides, so the girth search starts only from the first side, or from
    scan, as in _classify: the automorphisms that let scan stand for the
    first side carry a shortest cycle onto one through scan too."""
    classification = _classify(masks, a_mask, b_mask, scan)
    floor = 6 if classification == PARTIAL_LINEAR_SPACE else 4
    gv = _girth(masks, _iter_bits(a_mask if scan is None else scan), floor)
    return RankTwoSummary(
        types=(types[0], types[1]),
        gonality=INF if gv == INF else gv // 2,
        diameters=(diameters[0], diameters[1]),
        classification=classification,
    )


def _disconnected(graph: Graph) -> DisconnectedGeometryError:
    """The error for a disconnected incidence graph, naming its components."""
    comps = connected_components(graph)
    return DisconnectedGeometryError(f"incidence graph has {len(comps)} components", comps)


Ip2Check = namedtuple("Ip2Check", "ok failing_pair failing_flag")


def satisfies_ip2(sys: IncidenceSystem, witness=None) -> Ip2Check:
    """True iff every rank-2 residue is a partial linear space or a
    generalised digon.  With no witness every residue is classified;
    otherwise one per type pair on which the witness proves the group
    transitive (_walk), and every residue of any other pair."""
    if sys.rank < 2:
        return Ip2Check(True, None, None)
    masks = sys.element_masks
    for J, flag, cand in _walk(sys, (sys.rank - 2,), witness):
        pair = _cotype(sys, J)
        if _classify(masks, *(cand & sys.type_mask(t) for t in pair)) == NEITHER:
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


def buekenhout_diagram(sys: IncidenceSystem, summaries=None) -> BuekenhoutDiagram:
    """Extract the diagram from the first residue of each kind.

    Orders come from the first rank-1 residue of each cotype, pair labels
    from the first rank-2 residue of each type pair, or from summaries, a
    dict of the type pairs whose first residue's rank2_summary the caller
    already holds.  The diagram describes every residue when the geometry
    is flag-transitive on those type sets, which SymmetryWitness.covered
    certifies for verified automorphisms.
    """
    summaries = summaries or {}
    counts = {t: len(sys.elements_of_type(t)) for t in sys.types}
    cotypes = [*combinations(sys.types, 1), *combinations(sys.types, 2)]
    first = {c: next(_residues(sys, _cotype(sys, c)), (None, None))[1] for c in cotypes}
    missing = [c for c in cotypes if first[c] is None]
    if missing:
        raise ValueError(f"no flag of cotype {set(missing[0])}; not a geometry")
    orders = {i: first[(i,)].bit_count() - 1 for i in sys.types}
    edges = {}
    for pair in combinations(sys.types, 2):
        summary = summaries.get(pair)
        if summary is None:
            summary = rank2_summary(_restriction(sys, list(_iter_bits(first[pair])), pair))
        if summary.classification != DIGON:
            edges[pair] = summary
    return BuekenhoutDiagram(sys.types, orders, counts, edges)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonable(x):
    if x is INF:
        return "inf"
    return x


def system_to_json(sys: IncidenceSystem) -> dict:
    """The rank, types and elements; the incidences, the edges of
    sys.graph, are left for the writer to stream a row at a time."""
    return {
        "rank": sys.rank,
        "types": list(sys.types),
        "elements": [
            {"id": e, "type": sys.type_of[e], "label": sys.label_of(e)}
            for e in range(sys.n_elements)
        ],
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
