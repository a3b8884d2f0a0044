"""Locally-X verification: does every vertex neighborhood induce X?

A graph is locally X when the subgraph induced on the neighbors of every
vertex is isomorphic to X.  The check here is exhaustive by design: every
vertex is tested by an isomorphism search against X, which rejects at once
when the vertex counts, the edge counts or the refined cell profiles differ
and otherwise returns a bijection verified edge by edge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, graph_digest, induced_subgraph
from .isomorphism import are_isomorphic
from .incidence import residue
from .kneser_geometry import KneserGeometry


@dataclass(frozen=True)
class VertexCheck:
    vertex: int
    isomorphic: bool
    mapping_digest: Optional[str]


@dataclass(frozen=True)
class LocallyXReport:
    graph_digest: str
    reference_digest: str
    total: int
    passed: int
    failures: tuple[int, ...]
    per_vertex: tuple[VertexCheck, ...]

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
    original vertex labels."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, g.adj[v])


def _mapping_digest(mapping) -> str:
    return hashlib.sha256(",".join(map(str, mapping)).encode()).hexdigest()


def is_locally_x(g: Graph, x: Graph, vertices=None) -> LocallyXReport:
    """Check the vertices of g (all of them unless told otherwise).

    Each neighborhood goes to are_isomorphic, whose refinement pre-check
    certifies a mismatch and whose returned bijection is edge-verified
    before it counts.

    The transitivity shortcut is off by default: pass orbit representatives
    via `vertices` to check one vertex per orbit instead of all of them.
    """
    targets = sorted(set(range(g.n) if vertices is None else vertices))
    for v in targets:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")

    def check(v: int) -> VertexCheck:
        nbhd, _ = neighborhood_graph(g, v)
        mapping = are_isomorphic(nbhd, x)
        if mapping is None:
            return VertexCheck(v, False, None)
        return VertexCheck(v, True, _mapping_digest(mapping))

    results = [check(v) for v in targets]

    failures = tuple(r.vertex for r in results if not r.isomorphic)
    return LocallyXReport(
        graph_digest=graph_digest(g),
        reference_digest=graph_digest(x),
        total=len(targets),
        passed=len(targets) - len(failures),
        failures=failures,
        per_vertex=tuple(results),
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
