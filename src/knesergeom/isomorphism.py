"""Colored-graph isomorphism via refinement plus individualization.

The engine is classic individualization-refinement (McKay & Piperno,
"Practical graph isomorphism II", 2014): iterated degree refinement (1-WL,
seeded by caller colors) interleaved with backtracking over a target cell.
are_isomorphic() runs a paired search for one explicit bijection and
verifies it edge by edge before returning, so soundness of every returned
map is checked inline, never assumed.  verify_isomorphism() is that edge
check on its own, for maps obtained some other way.
"""

from __future__ import annotations

from collections import Counter

from .graphs import Graph


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


def is_automorphism(g: Graph, perm) -> bool:
    """Is perm a bijection of the vertices that preserves edges and
    non-edges?"""
    return verify_isomorphism(g, g, perm)


def wl_signature(g: Graph, colors=None) -> tuple:
    """Cheap isomorphism-invariant: (n, m, refined cell-size profile).

    Unequal signatures certify non-isomorphism; equal signatures decide
    nothing and callers must fall back to a full search.
    """
    refined = color_refine(g.adj, normalize_colors(colors, g.n))
    profile = tuple(sorted(Counter(refined).items()))
    return (g.n, g.n_edges, profile)


def verify_isomorphism(g: Graph, h: Graph, mapping) -> bool:
    """Check that mapping is a bijection from g's vertices onto h's that
    maps every neighborhood onto the neighborhood of the image, i.e. sends
    edges to edges and non-edges to non-edges."""
    n = g.n
    if h.n != n or len(mapping) != n or set(mapping) != set(range(n)):
        return False
    masks = h.neighbor_masks
    for u in range(n):
        img = 0
        for w in g.adj[u]:
            img |= 1 << mapping[w]
        if img != masks[mapping[u]]:
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
