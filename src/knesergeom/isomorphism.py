"""Colored-graph isomorphism via refinement plus individualization.

McKay & Piperno, "Practical graph isomorphism II" (2014), on ordered
partitions of bitmask cells.  Refinement splits cells by a splitter queue
under Hopcroft's rule (Paige & Tarjan 1987), logs each split in a trace and
stops at the coarsest equitable (1-WL) partition.  _search() follows a
_ReferencePath of h, which its caller makes and may share between searches
against h, searches a vertex set of a host graph on the host's own masks,
drops a branch when its trace departs from h's, and returns only maps that
pass _edge_check(), which picks each host row's bits in h's order by index.
are_isomorphic() and verify_isomorphism() are the cases where that set is
every vertex; a neighborhood is searched in place, with no subgraph built.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter

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
    For a splitter W, planes[j] holds bit j of |N(v) & W| for every v; the
    cells may cover only part of masks' vertices, as W and every cell lie
    in the same set, so the counts are those of its induced subgraph.  A
    split cell keeps its index for the lowest count and the other fragments
    are appended.  Only non-singleton cells can split, so their indices
    are kept in ascending order in `live`; an appended index is always the
    largest.  Returns the trace of (cell index, ((count, size), ...))
    splits, or None as soon as it departs from `expected`."""
    queued, trace = set(queue), []
    live = [i for i, x in enumerate(cells) if x & (x - 1)]
    while queue:
        queued.discard(s := queue.pop())
        x = cells[s]
        planes, touched = [0] * x.bit_count().bit_length(), 0
        while x:
            b = x & -x
            x ^= b
            carry, j = masks[b.bit_length() - 1], 0
            touched |= carry
            while carry:
                planes[j], carry = planes[j] ^ carry, planes[j] & carry
                j += 1
        high_first = range(len(planes) - 1, -1, -1)
        if len(planes) == 1:  # counts 0 or 1: a cell splits iff touched cuts it
            hit = [i for i in live if 0 != cells[i] & touched != cells[i]]
        else:
            hit = [i for i in live if cells[i] & touched]
        for ci in hit:
            cell = cells[ci]
            frags, common = [(cell, 0)], 0  # common: count bits of every vertex
            for j in high_first:
                p = planes[j] & cell
                if p == cell:
                    common |= 1 << j
                elif p:
                    bit = 1 << j
                    frags = [(f, c) for x, c0 in frags
                             for f, c in ((x & ~p, c0), (x & p, c0 | bit)) if f]
            if len(frags) == 1:
                continue
            entry = (ci, tuple((c | common, f.bit_count()) for f, c in frags))
            if expected is not None and expected[len(trace):len(trace) + 1] != [entry]:
                return None
            trace.append(entry)
            cells[ci] = first = frags[0][0]
            if not first & (first - 1):
                live.remove(ci)
            new = list(range(len(cells), len(cells) + len(frags) - 1))
            live.extend(i for i, (f, _) in zip(new, frags[1:]) if f & (f - 1))
            cells.extend(f for f, _ in frags[1:])
            if ci not in queued:  # all but the first largest fragment
                new = [ci] + new
                del new[max(range(len(frags)), key=lambda j: entry[1][j][1])]
            queue.extend(new)
            queued.update(new)
    return None if expected is not None and len(trace) != len(expected) else trace


def color_refine(masks, colors) -> tuple[int, ...]:
    """Coarsest equitable refinement (the stable 1-WL partition) of a
    coloring of the graph of neighbor bitmasks masks, as each vertex's cell
    index, every color class a first splitter.  Cell indices depend only on
    the isomorphism class, so isomorphic colored graphs share cell ids."""
    cells = _color_partition(normalize_colors(colors, len(masks)))
    _refine(masks, cells, list(range(len(cells))))
    ids = {v: i for i, cell in enumerate(cells) for v in _iter_bits(cell)}
    return tuple(ids[v] for v in range(len(masks)))


class _ReferencePath:
    """h's side of the search under a dense coloring: levels[i] is (the trace
    refining level i, the cell whose first vertex it individualizes, None
    once discrete), built on demand; after the last level `cells` is
    discrete.  Searches that share one path refine h once between them."""

    def __init__(self, h: Graph, colors):
        self.h, self.cells, self.levels = h, _color_partition(colors), []

    def level(self, i: int):
        """levels[i], built if i is one past the last level."""
        if i == len(self.levels):
            queue = list(range(len(self.cells)))
            if i:  # individualize the first vertex of the last target
                target, cell = self.levels[-1][1], self.cells[self.levels[-1][1]]
                self.cells[target] = cell & (cell - 1)
                self.cells.append(cell & -cell)
                queue = [len(self.cells) - 1]
            trace = _refine(self.h.neighbor_masks, self.cells, queue)
            sizes = [(c.bit_count(), j) for j, c in enumerate(self.cells) if c & (c - 1)]
            self.levels.append((trace, min(sizes)[1] if sizes else None))
        return self.levels[i]


def is_automorphism(g: Graph, perm) -> bool:
    """Is perm a bijection of the vertices that preserves edges and
    non-edges?"""
    return verify_isomorphism(g, g, perm)


def wl_signature(g: Graph, colors=None) -> tuple:
    """Cheap isomorphism-invariant: (n, m, refined cell-size profile).

    Unequal signatures certify non-isomorphism; equal signatures decide
    nothing and callers must fall back to a full search.
    """
    refined = color_refine(g.neighbor_masks, colors)
    profile = tuple(sorted(Counter(refined).items()))
    return (g.n, g.n_edges, profile)


def verify_isomorphism(g: Graph, h: Graph, mapping) -> bool:
    """Check that mapping is a bijection from g's vertices onto h's that
    maps every neighborhood onto the neighborhood of the image, i.e. sends
    edges to edges and non-edges to non-edges."""
    return _edge_check(g.neighbor_masks, (1 << g.n) - 1, h, mapping)


def _edge_check(masks, domain, h, mapping) -> bool:
    """verify_isomorphism for the subgraph that `masks` induce on the vertex
    set `domain`, whose i-th lowest vertex goes to mapping[i]: vertex u's
    row is masks[u] & domain, so neighbors outside the domain are ignored."""
    n = h.n
    if not n or domain.bit_count() != n or len(mapping) != n or set(mapping) != set(range(n)):
        return not (n or domain or mapping)  # no vertices: only the empty map
    # a bijection does that iff its inverse maps each row of h onto the row
    # of the preimage: pre[a] goes to a, and h's row a is the bits of
    # masks[pre[a]] at pre, in h's order, read off the domain's span alone
    pre = [u for _, u in sorted(zip(mapping, _iter_bits(domain)))]
    low, width = (domain & -domain).bit_length() - 1, domain.bit_length()
    pick = itemgetter(*[width - 1 - u for u in reversed(pre)])  # bit string order
    for u, row in zip(pre, h.neighbor_masks):
        if int("".join(pick(format((masks[u] & domain) >> low, f"0{width - low}b"))), 2) != row:
            return False
    return True


def are_isomorphic(g: Graph, h: Graph, g_colors=None, h_colors=None):
    """A color-respecting isomorphism g -> h as a list, or None.

    Color classes correspond by the rank of their color value.  This is
    _search with every vertex of g as the domain and one starting cell per
    color class.
    """
    cg = normalize_colors(g_colors, g.n)
    ch = normalize_colors(h_colors, h.n)
    if sorted(Counter(cg).items()) != sorted(Counter(ch).items()):
        return None
    ref = _ReferencePath(h, ch)
    return _search(g.neighbor_masks, (1 << g.n) - 1, _color_partition(cg), ref)


def _search(masks, domain, cells, ref, max_nodes=math.inf):
    """An isomorphism from the subgraph that `masks` induce on the vertex
    set `domain` onto ref.h, as the images of domain's vertices in
    ascending order, or None.  `cells` splits the domain into the color
    classes of ref's coloring, index for index and size for size.

    h follows the path `ref`, individualizing the first vertex of its
    smallest non-singleton cell; the domain side tries, depth first and in
    ascending order, every vertex of the cell at the same index, and drops
    a branch once its trace differs from h's.  A discrete leaf maps each
    cell to the same cell of h and is returned only if it passes the edge
    check.  If an isomorphism phi exists, the branch individualizing phi's
    preimage of h's path ends at phi.  The tree and the map are those of
    the induced subgraph relabeled in ascending order.  A search that
    would enter more than max_nodes nodes gives up and returns None.
    """
    h = ref.h
    twice = sum((masks[u] & domain).bit_count() for u in _iter_bits(domain))
    if domain.bit_count() != h.n or twice != 2 * h.n_edges:
        return None
    if h.n == 0:
        return []
    stack = []  # (level, partition, untried vertices of its target cell)

    def enter(level, cells, queue):
        """Refine a node; push it if inner, return its map if a verified leaf."""
        trace, target = ref.level(level)
        if _refine(masks, cells, queue, trace) is None:
            return None
        if target is not None:
            stack.append((level, cells, cells[target]))
            return None
        mapping = [y.bit_length() - 1 for _, y in sorted(zip(cells, ref.cells))]
        return mapping if _edge_check(masks, domain, h, mapping) else None

    found, entered = enter(0, cells, list(range(len(cells)))), 1
    while stack and found is None:
        level, cells, todo = stack.pop()
        if todo:
            if entered >= max_nodes:
                return None
            entered += 1
            b = todo & -todo
            stack.append((level, cells, todo ^ b))
            cells = cells + [b]
            cells[ref.levels[level][1]] ^= b
            found = enter(level + 1, cells, [len(cells) - 1])
    return found
