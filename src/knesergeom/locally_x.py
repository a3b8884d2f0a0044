"""Locally-X verification: does every vertex neighborhood induce X?

A graph is locally X when the subgraph induced on the neighbors of every
vertex is isomorphic to X.  Every verdict rests on an isomorphism search of
N(v) against X, run in place on the graph's own neighbor masks (no
neighborhood graph is built): a returned bijection is edge-verified, and a
failed search is certified by refinement.  Given automorphism tables are
each verified once on the whole graph, unless symmetry_witness returned
them for this very graph, and a searched verdict, pass or fail, is copied
around the orbit of its vertex under the verified tables, since an
automorphism t maps N(u) isomorphically onto N(t[u]).  A table that is not
an automorphism is dropped, so it can cost searches but never decides a
verdict.  symmetry_witness's tables move types as well as points, so for
generators of S_m they have one orbit on the incidence graph, and one
search settles every vertex.

With no tables given, as for a graph read from a graph6 file, the tables
are discovered by whole-graph searches of g against itself (is_locally_x
says when).
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, graph_digest
from .group_action import SymmetryWitness, _VerifiedWitness
from .isomorphism import _ReferencePath, _search, is_automorphism
from .kneser_geometry import GeometryParams, KneserGeometry, build_geometry


class LocallyXReport(
    namedtuple("LocallyXReport", "graph_digest reference_digest total passed failures")
):
    """Digests of g and X, vertex counts and the failing vertices, ascending."""

    __slots__ = ()

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


def _automorphism(g: Graph, root: _ReferencePath, v: int):
    """An automorphism of g that maps v to the root, as a table, or None: a
    search of g with v individualized along `root`, the path of g with the
    root individualized, which every discovery of one call shares.  The
    search returns only edge-checked maps, and gives up after g.n nodes."""
    full = (1 << g.n) - 1
    return _search(g.neighbor_masks, full, [full ^ 1 << v, 1 << v], root, g.n)


def is_locally_x(g: Graph, x: Graph, automorphisms=()) -> LocallyXReport:
    """Check every vertex of g.

    The tables of a witness that symmetry_witness returned for g are taken
    as they are.  Any other table, a hand-built SymmetryWitness's too, must
    be a permutation of g's vertices (ValueError otherwise), and those that
    are not automorphisms of g, by one whole-graph edge check each, are
    dropped.  Vertices are taken in ascending order.  One without a
    verdict gets an isomorphism search of N(v) against X, in place on g's
    masks, whose refinement certifies a mismatch and whose returned
    bijection is edge-verified.  Its verdict, pass or fail, is copied to
    every vertex reached from v along the kept tables: an automorphism t
    maps N(u) isomorphically onto N(t[u]).  So the check runs one search
    per orbit of the kept tables: one in all for symmetry_witness's of
    generators of S_m, which hold the type swaps too.

    With no tables given, g's automorphisms are discovered instead.  Once
    a first vertex `root` has matched, a v without a verdict gets one
    search of all of g for an automorphism t with t[v] = root, edge-checked
    by the search; t joins the tables and every settled vertex spreads its
    verdict again, so the cycle of t through root takes the match to v.
    Discovery stops for good at the first search that finds no
    automorphism or enters more than g.n nodes, and every vertex left
    gets its own search.  It runs only when x.n ** 2 > g.n: one search of
    g costs about (g.n / x.n) ** 2 neighborhood searches.  Every verdict
    rests on a search of an orbit mate, so the report does not depend on
    the tables or on whether discovery ran.  The call refines X once, along
    one path that every neighborhood search shares, and g with root
    individualized once, for every discovery search.
    """
    witness = isinstance(automorphisms, SymmetryWitness)
    given = list(automorphisms.tables if witness else automorphisms)
    verified = type(automorphisms) is _VerifiedWitness and automorphisms.graph is g
    if not verified:
        for t in given:
            if len(t) != g.n or set(t) != set(range(g.n)):
                raise ValueError("every table must be a permutation of the vertices of g")
    tables = given if verified else [t for t in given if is_automorphism(g, t)]
    masks, ref = g.neighbor_masks, _ReferencePath(x, (0,) * x.n)
    matched = [None] * g.n  # per vertex: None until a verdict, then True or False
    # root: once a vertex has matched, the path of g with it individualized
    discover, root = not given and x.n ** 2 > g.n, None

    def spread(frontier: list) -> None:
        """Copy each frontier vertex's verdict along the tables until closed."""
        while frontier:
            u = frontier.pop()
            for t in tables:
                w = t[u]
                if matched[w] is None:
                    matched[w] = matched[u]
                    frontier.append(w)

    for v in range(g.n):
        if matched[v] is not None:
            continue
        t = None
        if discover and root is not None:
            t = _automorphism(g, root, v)
            discover = t is not None  # give up at the first failure
        if t is not None:
            tables.append(t)
            spread([u for u in range(g.n) if matched[u] is not None])
            continue
        matched[v] = _search(masks, masks[v], [masks[v]], ref) is not None
        if discover and matched[v] and root is None:
            root = _ReferencePath(g, tuple(int(u == v) for u in range(g.n)))
        spread([v])

    failures = tuple(v for v, ok in enumerate(matched) if not ok)
    return LocallyXReport(
        graph_digest=graph_digest(g),
        reference_digest=graph_digest(x),
        total=g.n,
        passed=g.n - len(failures),
        failures=failures,
    )


def residue_reference_graph(geom: KneserGeometry) -> Graph:
    """The paper's X for the incidence graph of the built rank-r geometry:
    the incidence graph of the rank-(r-1) geometry of (n, k), equal index for
    index to that of the residue of element 0.  Needs r >= 3; at r = 2 the
    rank-1 residues are edgeless and the locally-X question degenerates."""
    p = geom.params
    if p.r < 3:
        raise ValueError("reference residue needs rank r >= 3")
    return build_geometry(GeometryParams(p.n, p.k, p.r - 1)).incidence_system().graph
