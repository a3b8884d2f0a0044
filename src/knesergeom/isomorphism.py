"""Colored-graph isomorphism via refinement plus individualization.

The engine is classic individualization-refinement: iterated degree
refinement (1-WL, seeded by caller colors) interleaved with backtracking
over a target cell.  canonical_form() takes the lexicographically least
adjacency encoding over all leaves of the search tree, so equal digests
characterize isomorphism for correctly refined searches; are_isomorphic()
runs a paired search for one explicit bijection and verifies it edge by
edge before returning.  Soundness of every returned map is checked inline,
never assumed.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical vertex order (position -> original vertex) and a digest of
    the canonically relabeled edge set.  Equal digests <=> isomorphic, for
    graphs whose initial colorings correspond."""

    order: tuple[int, ...]
    digest: str


def normalize_colors(colors, n: int) -> tuple[int, ...]:
    """Dense color ids in 0..c-1, assigned by ascending original value."""
    if colors is None:
        return (0,) * n
    colors = tuple(colors)
    if len(colors) != n:
        raise ValueError("coloring must cover all vertices")
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    return tuple(order[c] for c in colors)


def color_refine(adj, colors) -> tuple[int, ...]:
    """Stable 1-WL refinement of the given coloring.

    New color ids are ranks of sorted (old color, neighbor color multiset)
    keys, so corresponding cells of isomorphic colored graphs receive the
    same ids.
    """
    n = len(adj)
    colors = list(colors)
    ncls = len(set(colors))
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in range(n)
        ]
        ids = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [ids[k] for k in keys]
        if len(ids) == ncls:
            return tuple(new)
        colors, ncls = new, len(ids)


def _cells(colors):
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _target_cell_largest(colors):
    """First largest non-singleton cell (ties broken by lowest color id)."""
    cells = _cells(colors)
    best = None
    for c in sorted(cells):
        cell = cells[c]
        if len(cell) > 1 and (best is None or len(cell) > len(best)):
            best = cell
    return best


def _target_cell_smallest(colors):
    cells = _cells(colors)
    best = None
    for c in sorted(cells):
        cell = cells[c]
        if len(cell) > 1 and (best is None or len(cell) < len(best)):
            best = cell
    return best


def _individualize(colors, v):
    # v gets a fresh color just below its old cell; relative order of all
    # other cells is preserved, keeping the split isomorphism-invariant.
    return tuple(2 * c - (1 if u == v else 0) for u, c in enumerate(colors))


def _leaf_encoding(g: Graph, base_colors, colors):
    """Byte encoding of the relabeled graph at a discrete coloring."""
    order = sorted(range(g.n), key=colors.__getitem__)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    enc = bytearray()
    for v in order:
        enc += base_colors[v].to_bytes(2, "big")
    bits = 0
    for u, v in g.edges():
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        bits |= 1 << (j * (j - 1) // 2 + i)
    nbits = g.n * (g.n - 1) // 2
    enc += bits.to_bytes((nbits + 7) // 8 or 1, "little")
    return bytes(enc), tuple(order)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def is_automorphism(g: Graph, perm) -> bool:
    """For a bijection perm of the vertices: does it map every neighborhood
    onto the neighborhood of the image, i.e. preserve edges and non-edges?"""
    masks = g.neighbor_masks
    for u in range(g.n):
        img = 0
        for w in g.adj[u]:
            img |= 1 << perm[w]
        if img != masks[perm[u]]:
            return False
    return True


def canonical_form(g: Graph, colors=None) -> CanonicalForm:
    """Canonical form of g under relabelings that respect the coloring.

    Backtracks over the first largest non-singleton cell of the refined
    coloring, individualizing its vertices in ascending index order, and
    keeps the lexicographically least leaf encoding.  At the root, branches
    whose start vertex is equivalent to an already explored one under a
    discovered (and verified) automorphism are skipped; skipped subtrees are
    automorphic images, so the minimum is unchanged.
    """
    base = normalize_colors(colors, g.n)
    if g.n == 0:
        return CanonicalForm((), hashlib.sha256(b"0:").hexdigest())
    adj = g.adj
    best: list = [None, None]  # encoding, order
    root_uf = _UnionFind(g.n)

    def consider_leaf(colors):
        enc, order = _leaf_encoding(g, base, colors)
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, order
        elif enc == best[0]:
            # equal leaves compose to an automorphism; record it for pruning
            pos = [0] * g.n
            for i, v in enumerate(best[1]):
                pos[v] = i
            perm = [0] * g.n
            for x in range(g.n):
                perm[x] = order[pos[x]]
            if is_automorphism(g, perm):
                for x in range(g.n):
                    root_uf.union(x, perm[x])

    def search(colors, depth):
        colors = color_refine(adj, colors)
        cell = _target_cell_largest(colors)
        if cell is None:
            consider_leaf(colors)
            return
        for v in cell:
            if depth == 0:
                root = root_uf.find(v)
                if root in explored_roots:
                    continue
                explored_roots.add(root)
            search(_individualize(colors, v), depth + 1)
            if depth == 0:
                explored_roots.add(root_uf.find(v))

    explored_roots: set[int] = set()
    search(base, 0)
    h = hashlib.sha256()
    h.update(f"{g.n}:".encode())
    h.update(best[0])
    return CanonicalForm(best[1], h.hexdigest())


def wl_signature(g: Graph, colors=None) -> tuple:
    """Cheap isomorphism-invariant: (n, m, refined cell-size profile).

    Unequal signatures certify non-isomorphism; equal signatures decide
    nothing and callers must fall back to a full search.
    """
    refined = color_refine(g.adj, normalize_colors(colors, g.n))
    profile = tuple(sorted(Counter(refined).items()))
    return (g.n, g.n_edges, profile)


def verify_isomorphism(g: Graph, h: Graph, mapping) -> bool:
    """Check that mapping is a bijection sending edges to edges and
    non-edges to non-edges."""
    if g.n != h.n or len(mapping) != g.n or len(set(mapping)) != g.n:
        return False
    if g.n_edges != h.n_edges:
        return False
    hedges = {(u, v) for u, v in h.edges()}
    for u, v in g.edges():
        a, b = mapping[u], mapping[v]
        if (min(a, b), max(a, b)) not in hedges:
            return False
    return True


def are_isomorphic(g: Graph, h: Graph, g_colors=None, h_colors=None):
    """A color-respecting isomorphism g -> h as a list, or None.

    Color classes correspond across the two graphs by the rank of their
    color value (both colorings are densely re-ranked first).  The paired
    search refines both graphs, compares cell profiles, then matches one
    fixed vertex of g's smallest non-singleton cell against each vertex of
    the corresponding cell of h.  Every map found is verified edge by edge
    before being returned.
    """
    if g.n != h.n or g.n_edges != h.n_edges:
        return None
    cg = normalize_colors(g_colors, g.n)
    ch = normalize_colors(h_colors, h.n)
    if sorted(Counter(cg).items()) != sorted(Counter(ch).items()):
        return None
    if g.n == 0:
        return []

    def profile(colors):
        return tuple(sorted(Counter(colors).items()))

    def search(colors_g, colors_h):
        rg = color_refine(g.adj, colors_g)
        rh = color_refine(h.adj, colors_h)
        if profile(rg) != profile(rh):
            return None
        cell = _target_cell_smallest(rg)
        if cell is None:
            mapping = [0] * g.n
            by_color = {c: v for v, c in enumerate(rh)}
            for v, c in enumerate(rg):
                mapping[v] = by_color[c]
            return mapping if verify_isomorphism(g, h, mapping) else None
        color = rg[cell[0]]
        u = cell[0]
        candidates = [v for v, c in enumerate(rh) if c == color]
        for v in candidates:
            res = search(_individualize(rg, u), _individualize(rh, v))
            if res is not None:
                return res
        return None

    return search(cg, ch)
