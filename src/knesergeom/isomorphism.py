"""Colored-graph isomorphism via refinement plus individualization.

McKay & Piperno, "Practical graph isomorphism II" (2014), on ordered
partitions of bitmask cells.  Refinement splits cells by a splitter queue
under Hopcroft's rule (Paige & Tarjan 1987), logs each split in a trace and
stops at the coarsest equitable (1-WL) partition.  are_isomorphic() refines
the reference h along one memoised path, searches g on an explicit stack,
drops a branch when its trace departs from h's, and returns only maps that
pass verify_isomorphism(), the edge check.
"""

from __future__ import annotations

import functools
from collections import Counter

from .graphs import Graph, _iter_bits


def normalize_colors(colors, n: int) -> tuple[int, ...]:
    """Dense color ids in 0..c-1, assigned by ascending original value."""
    if colors is None:
        return (0,) * n
    colors = tuple(colors)
    if len(colors) != n:
        raise ValueError("coloring must cover all vertices")
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    return tuple(order[c] for c in colors)


def _color_partition(colors):
    """The cells of a dense coloring as vertex bitmasks, in color order."""
    cells = [0] * (max(colors, default=-1) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    return cells


def _refine(masks, cells, queue, expected=None):
    """Refine `cells` in place by the queued splitters until equitable.
    For a splitter W, planes[j] holds bit j of |N(v) & W| for every v.  A
    split cell keeps its index for the lowest count and the other fragments
    are appended.  Returns the trace of (cell index, ((count, size), ...))
    splits, or None as soon as it departs from `expected`."""
    queued, trace = set(queue), []
    while queue:
        queued.discard(s := queue.pop())
        planes, touched = [0] * cells[s].bit_count().bit_length(), 0
        for v in _iter_bits(cells[s]):
            carry, j = masks[v], 0
            touched |= carry
            while carry:
                planes[j], carry = planes[j] ^ carry, planes[j] & carry
                j += 1
        for ci in [i for i, x in enumerate(cells) if x & touched and x & (x - 1)]:
            frags = [(cells[ci], 0)]
            for j in range(len(planes) - 1, -1, -1):
                p, bit = planes[j], 1 << j
                frags = [(f, c) for x, c0 in frags
                         for f, c in ((x & ~p, c0), (x & p, c0 | bit)) if f]
            if len(frags) == 1:
                continue
            entry = (ci, tuple((c, f.bit_count()) for f, c in frags))
            if expected is not None and expected[len(trace):len(trace) + 1] != [entry]:
                return None
            trace.append(entry)
            cells[ci] = frags[0][0]
            new = list(range(len(cells), len(cells) + len(frags) - 1))
            cells.extend(f for f, _ in frags[1:])
            if ci not in queued:  # all but the first largest fragment
                new = [ci] + new
                del new[max(range(len(frags)), key=lambda j: entry[1][j][1])]
            queue.extend(new)
            queued.update(new)
    return None if expected is not None and len(trace) != len(expected) else trace


def color_refine(adj, colors) -> tuple[int, ...]:
    """Coarsest equitable refinement of the given coloring (the stable 1-WL
    partition) as each vertex's cell index, with every color class as a
    first splitter.  Cell indices depend only on the isomorphism class, so
    corresponding cells of isomorphic colored graphs get the same ids."""
    cells = _color_partition(normalize_colors(colors, len(adj)))
    _refine([sum(1 << u for u in row) for row in adj], cells, list(range(len(cells))))
    ids = {v: i for i, cell in enumerate(cells) for v in _iter_bits(cell)}
    return tuple(ids[v] for v in range(len(adj)))


class _ReferencePath:
    """h's side of the search: levels[i] is (the trace refining level i, the
    cell whose first vertex it individualizes, None once discrete), built on
    demand; after the last level `cells` is discrete."""

    def __init__(self, h: Graph, colors):
        self.masks, self.cells, self.levels = h.neighbor_masks, _color_partition(colors), []

    def level(self, i: int):
        """levels[i], built if i is one past the last level."""
        if i == len(self.levels):
            queue = list(range(len(self.cells)))
            if i:  # individualize the first vertex of the last target
                target, cell = self.levels[-1][1], self.cells[self.levels[-1][1]]
                self.cells[target] = cell & (cell - 1)
                self.cells.append(cell & -cell)
                queue = [len(self.cells) - 1]
            trace = _refine(self.masks, self.cells, queue)
            sizes = [(c.bit_count(), j) for j, c in enumerate(self.cells) if c & (c - 1)]
            self.levels.append((trace, min(sizes)[1] if sizes else None))
        return self.levels[i]


_reference_path = functools.lru_cache(maxsize=1)(_ReferencePath)  # refine a reference once


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
    # a bijection does that iff its inverse maps each neighborhood of h onto
    # that of the preimage; reading h's lists reuses the adjacency a fixed
    # reference builds once, where g is often a fresh graph held as masks
    preimage = [0] * n
    for u, a in enumerate(mapping):
        preimage[a] = u
    masks = g.neighbor_masks
    for a, row in enumerate(h.adj):
        img = 0
        for b in row:
            img |= 1 << preimage[b]
        if img != masks[preimage[a]]:
            return False
    return True


def are_isomorphic(g: Graph, h: Graph, g_colors=None, h_colors=None):
    """A color-respecting isomorphism g -> h as a list, or None.

    Color classes correspond by the rank of their color value.  h follows
    one memoised path, individualizing the first vertex of its smallest
    non-singleton cell; g tries, depth first, every vertex of the cell at
    the same index, and drops a branch once its trace differs from h's.  A
    discrete leaf maps each cell of g to the same cell of h and is returned
    only if it passes the edge check.  If an isomorphism phi exists, the
    branch individualizing phi's preimage of h's path ends at phi.
    """
    if g.n != h.n or g.n_edges != h.n_edges:
        return None
    cg = normalize_colors(g_colors, g.n)
    ch = normalize_colors(h_colors, h.n)
    if sorted(Counter(cg).items()) != sorted(Counter(ch).items()):
        return None
    if g.n == 0:
        return []
    ref = _reference_path(h, ch)
    stack = []  # (level, partition, untried vertices of its target cell)

    def enter(level, cells, queue):
        """Refine a node; push it if inner, return its map if a verified leaf."""
        trace, target = ref.level(level)
        if _refine(g.neighbor_masks, cells, queue, trace) is None:
            return None
        if target is not None:
            stack.append((level, cells, cells[target]))
            return None
        mapping = [y.bit_length() - 1 for _, y in sorted(zip(cells, ref.cells))]
        return mapping if verify_isomorphism(g, h, mapping) else None

    cells = _color_partition(cg)
    found = enter(0, cells, list(range(len(cells))))
    while stack and found is None:
        level, cells, todo = stack.pop()
        if todo:
            b = todo & -todo
            stack.append((level, cells, todo ^ b))
            cells = cells + [b]
            cells[ref.levels[level][1]] ^= b
            found = enter(level + 1, cells, [len(cells) - 1])
    return found
