"""Locally-X verification: does every vertex neighborhood induce X?

A graph is locally X when the subgraph induced on the neighbors of every
vertex is isomorphic to X.  Every vertex gets a verdict backed by an
edge-verified bijection N(v) -> X or by a failed isomorphism search.  The
bijection either comes from a search or is carried from an already matched
vertex along a given automorphism table and then checked edge by edge, so a
table that is not really an automorphism can cost searches but never makes
a vertex pass.  Both the search and the edge check run on N(v) in place,
on the graph's own neighbor masks: no neighborhood graph is built.

With no tables given, as for a graph read from a graph6 file, the tables
are discovered: whole-graph searches of g against itself, with two vertices
individualized, return verified automorphisms that carry one match around
an orbit.  Discovery runs only when X is large next to g (x.n ** 2 > g.n),
since one whole-graph search costs about (g.n / x.n) ** 2 neighborhood
searches, and it gives up for good at the first search that finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, graph_digest, induced_subgraph
from .isomorphism import _edge_check, _search
from .incidence import residue
from .kneser_geometry import KneserGeometry


@dataclass(frozen=True)
class LocallyXReport:
    graph_digest: str
    reference_digest: str
    total: int
    passed: int
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed == self.total

    def to_json(self) -> dict:
        return {
            "graph": self.graph_digest,
            "reference": self.reference_digest,
            "total": self.total,
            "passed": self.passed,
            "failed": list(self.failures),
        }


def neighborhood_graph(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Graph induced on the neighbors of v, with the mapping back to the
    original vertex labels; is_locally_x searches N(v) in place instead."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, g.adj[v])


def _carried_map(g: Graph, table, u: int, map_u):
    """u's bijection N(u) -> X moved to N(table[u]) along table: the
    neighbor table[y] of table[u] goes where map_u sends y.  None unless
    table sends N(u) onto N(table[u])."""
    pos_w = {z: j for j, z in enumerate(g.adj[table[u]])}
    if len(pos_w) != len(map_u):
        return None
    carried = [None] * len(map_u)
    for y, image in zip(g.adj[u], map_u):
        j = pos_w.get(table[y])
        if j is None:
            return None
        carried[j] = image
    return carried


def _automorphism(g: Graph, root: int, v: int):
    """An automorphism of g that maps v to root, as a table, or None: a
    search of g with v individualized against g with root individualized,
    so every discovery for one root shares one reference path.  The search
    returns only edge-checked maps, and gives up after g.n nodes."""
    full = (1 << g.n) - 1
    root_colors = tuple(int(u == root) for u in range(g.n))
    return _search(g.neighbor_masks, full, [full ^ 1 << v, 1 << v], g, root_colors, g.n)


def is_locally_x(g: Graph, x: Graph, automorphisms=()) -> LocallyXReport:
    """Check every vertex of g.

    Vertices are taken in ascending order.  One that is not yet matched gets
    an isomorphism search of N(v) against X, in place on g's masks, whose
    refinement certifies a mismatch and whose returned bijection is
    edge-verified.  From each matched vertex u the match spreads over the
    vertex permutations in `automorphisms`: an unmatched w = t[u] takes u's
    bijection carried along t, which counts only if it passes the edge
    check on N(w), again in place; otherwise w gets its own search.  Only
    matched vertices spread further, so with tables from a group with one
    orbit per type the check runs one search per type.

    With no tables given, g's automorphisms are discovered instead.  Once
    a first vertex `root` has matched, an unmatched v that spreading has
    not reached gets one search of all of g for an automorphism t with
    t[v] = root; t joins the tables and every matched vertex spreads along
    it.  The matched vertices then close up under t, so the cycle of t
    through root takes the match to v.  Discovery
    stops for good at the first search that finds no automorphism or
    enters more than g.n nodes, and every vertex left gets its own search.
    It runs only when x.n ** 2 > g.n: one search of g costs about
    (g.n / x.n) ** 2 neighborhood searches.  A vertex passes only on an
    edge-checked bijection either way, so the report does not depend on
    whether discovery ran.
    """
    tables = list(automorphisms)
    for t in tables:
        if len(t) != g.n or set(t) != set(range(g.n)):
            raise ValueError("every table must be a permutation of the vertices of g")
    masks, uncolored = g.neighbor_masks, (0,) * x.n
    matched: list[Optional[bool]] = [None] * g.n
    spreading: list = []  # (matched vertex, its bijection N(v) -> X)
    kept: list = []  # every such pair, while discovery may add a table
    discover = not tables and x.n ** 2 > g.n

    def settle(v: int, mapping) -> None:
        matched[v] = mapping is not None
        if mapping is not None:
            spreading.append((v, mapping))
            if discover:
                kept.append((v, mapping))

    for v in range(g.n):
        if matched[v] is not None:
            continue
        t = None
        if discover and kept:  # kept[0] holds the first matched vertex, the root
            t = _automorphism(g, kept[0][0], v)
            discover = t is not None  # give up at the first failure
        if t is not None:
            tables.append(t)
            spreading.extend(kept)
        else:
            settle(v, _search(masks, masks[v], [masks[v]], x, uncolored))
        while spreading:
            u, map_u = spreading.pop()
            for t in tables:
                w = t[u]
                if matched[w] is not None:
                    continue
                carried = _carried_map(g, t, u, map_u)
                if carried is None or not _edge_check(masks, masks[w], x, carried):
                    carried = _search(masks, masks[w], [masks[w]], x, uncolored)
                settle(w, carried)

    failures = tuple(v for v, ok in enumerate(matched) if not ok)
    return LocallyXReport(
        graph_digest=graph_digest(g),
        reference_digest=graph_digest(x),
        total=g.n,
        passed=g.n - len(failures),
        failures=failures,
    )


def residue_reference_graph(geom: KneserGeometry) -> Graph:
    """The canonical reference X for the incidence graph of the built rank-r
    geometry: the incidence graph of the residue of the first element of
    type 0.  Needs r >= 3; at r = 2 the rank-1 residues are edgeless and
    the locally-X question degenerates."""
    if geom.params.r < 3:
        raise ValueError("reference residue needs rank r >= 3")
    sub, _ = residue(geom.incidence_system(), (0,))
    return sub.graph
