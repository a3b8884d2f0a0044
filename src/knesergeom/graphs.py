"""Finite simple undirected graphs with exact metric algorithms.

A Graph stores one neighbor bitmask per vertex and nothing else; every
algorithm reads the masks, and a row's items are picked by _picked.
Graph.from_masks takes masks and checks them on bit strings, so builders
that think in masks never make an edge list; masks that are simple by
construction (an induced subgraph, a graph6 decode, typed rows,
kneser.disjointness_table) skip the check through Graph._derived.  The
tensor product K_r x G, complete_tensor, is held as _TypedRows: G's rows
and r, each row of the product made as it is read, and compared and
hashed as the tuple of its rows.

Everything here is deterministic and exact: girth, odd girth,
eccentricities, components, bipartiteness, induced subgraphs, the tensor
product K_r x G (the bipartite double cover at r = 2), and graph6 I/O.
Connectivity is one bitmask search, component_mask, which also serves the
residue checks and takes the union of a frontier of typed rows block by
block; bipartiteness is one bitmask layer sweep per component.
Induced subgraphs move each row's kept bits into place one at a time.
Girth runs one BFS per source over per-vertex neighbor bitmasks and stops
at the first source that reaches 3, or 4 on a bipartite graph (_girth
takes a higher floor, and fewer sources, from a caller that knows them,
and reads its rows through one argument, so that the double cover's can
be the graph's _TypedRows).  Every other distance reads walk sets: W_L[v],
the endpoints of the walks of exact length L from v.  The all-sources
sweep, _walks, gives eccentricities from the balls W_L | W_{L-1} and the
odd girth at the first odd closed walk; the shortest odd cycle is walked
back on its first vertex's walk sets.  walk_metrics_from reads the
shortest odd closed walk through one vertex and its eccentricity in the
double cover K_2 x G off that vertex's walk sets alone, without building
the cover; on a vertex-transitive graph they decide every vertex, and the
CLI reads them there.
graph6 is encoded in pieces, one window of columns merged into an integer
at a time, and decoded a window of columns at a time; both ways cut
six-bit digits with binascii's base64 codec and one byte translation.
graph_digest streams its text into sha256 a row at a time.  Infinity is
math.inf.
"""

from __future__ import annotations

import binascii
import math
from functools import reduce
from itertools import compress
from operator import eq, or_

INF = math.inf
_CHECK_CHARS = 1 << 20  # bits per block of Graph.from_masks's symmetry check


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "neighbor_masks")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.neighbor_masks = tuple(masks)

    @classmethod
    def from_masks(cls, masks) -> "Graph":
        """The graph in which vertex v has the neighbor bitmask masks[v].

        Raises ValueError on a bit outside 0..n-1, on a vertex in its own
        mask, and on asymmetric masks.  Symmetry is checked on bit strings,
        highest bit first, for a block of columns lo..lo+width-1 at a time:
        with the rows' block bits laid end to end from row n-1 down to row
        0, the slice from lo + width - 1 - u in steps of width is column u
        read from row n-1 down, which must equal row u's bit string.
        """
        masks = tuple(masks)
        n = len(masks)
        for v, m in enumerate(masks):
            if m < 0 or m >> n:
                raise ValueError(f"neighbor mask of vertex {v} has a bit outside 0..{n - 1}")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        row_fmt = f"0{n}b"
        width = max(1, _CHECK_CHARS // max(n, 1))
        for lo in range(0, n, width):
            width = min(width, n - lo)
            fmt, span = f"0{width}b", (1 << width) - 1
            block = "".join([format(m >> lo & span, fmt) for m in reversed(masks)])
            for u in range(lo, lo + width):
                row, column = format(masks[u], row_fmt), block[lo + width - 1 - u :: width]
                if row != column:
                    v = n - 1 - next(c for c, (a, b) in enumerate(zip(row, column)) if a != b)
                    raise ValueError(f"asymmetric masks: {u} and {v} disagree on {u}-{v}")
        return cls._derived(masks)

    @classmethod
    def _derived(cls, masks) -> "Graph":
        """from_masks without its checks, for masks that are simple by
        construction: cut from a Graph's own (an induced subgraph is
        simple), decoded from graph6, a disjointness_table of nonempty
        subsets (see its docstring), or the _TypedRows of a simple graph,
        which are held as they are (complete_tensor)."""
        g = cls.__new__(cls)
        g.n = len(masks)
        g.neighbor_masks = masks if isinstance(masks, _TypedRows) else tuple(masks)
        return g

    @property
    def n_edges(self) -> int:
        return sum(m.bit_count() for m in self.neighbor_masks) // 2

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v + u + 1)
            for u, m in enumerate(self.neighbor_masks)
            for v in _iter_bits(m >> u + 1)
        ]

    def has_edge(self, u: int, v: int) -> bool:
        """Are u and v adjacent?  ValueError outside 0..n-1."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u},{v}) out of range 0..{self.n - 1}")
        return self.neighbor_masks[u] >> v & 1 == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.neighbor_masks == other.neighbor_masks

    def __hash__(self):
        return hash(self.neighbor_masks)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.n_edges})"


_SELECT = bytes.maketrans(b"01", b"\x00\x01")  # a bit string as compress selectors


def _iter_bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _picked(items, mask: int):
    """The items at mask's bits, ascending: one C-level compress pass with
    the mask's reversed bit string as 0/1 selector bytes."""
    return compress(items, format(mask, "b").encode()[::-1].translate(_SELECT))


def _upper_rows(g: Graph, names, sep: bytes):
    """For each vertex u with a neighbour v > u: sep % u, then names[v] for
    every such v, ascending, joined by sep % u, picked by _picked."""
    for u, m in enumerate(g.neighbor_masks):
        if high := m >> u + 1 << u + 1:
            s = sep % u
            yield s + s.join(_picked(names, high))


def graph_digest(g: Graph) -> str:
    """Deterministic identity digest of (n, edge set); not isomorphism-invariant.

    The text hashed is n followed by ",u-v" for every edge u < v in
    ascending order.  It is fed to sha256 one _upper_rows row at a time and
    never held whole."""
    try:  # hashlib loads OpenSSL, so the lean built-in goes first: _sha2 from
        from _sha2 import sha256  # Python 3.12 on, _sha256 before
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    digest = sha256(b"%d" % g.n)
    for row in _upper_rows(g, [b"%d" % v for v in range(g.n)], b",%d-"):
        digest.update(row)
    return digest.hexdigest()


def eccentricities(g: Graph):
    """Per-vertex eccentricity; math.inf where some vertex is unreachable.

    Read from the one walk sweep, _walks.  If v has a neighbor, W_{L-2}[v]
    is contained in W_L[v] (go out along an edge and back), so the ball of
    radius L about v is W_L[v] | W_{L-1}[v], and ecc(v) is the least L at
    which that is full, with W_{-1} empty.  Once W_L[v] == W_{L-2}[v] short
    of that, v's sets repeat with period 2 (see walk_metrics_from), so its
    ball has stopped growing short of full and v gets math.inf; so does an
    isolated v, whose W_1 is empty, when n > 1.  With n > 1 no ball of
    radius 0 is full and every W_0[v] differs from the empty W_{-2}[v], so
    the sweep is read from L = 1.
    """
    if g.n <= 1:
        return [0] * g.n
    full = (1 << g.n) - 1
    ecc = [INF] * g.n
    unsettled = range(g.n)
    walks = _walks(g)
    before, (_, last) = [0] * g.n, next(walks)  # W_{L-2}, W_{L-1}
    for length, walk in walks:
        still = []
        for v in unsettled:
            m = walk[v]
            if m | last[v] == full:
                ecc[v] = length
            elif m != before[v]:
                still.append(v)
        if not still:
            return ecc
        unsettled = still
        before, last = last, walk


def component_mask(masks, start: int, within: int) -> int:
    """Bitmask of the vertices reachable from start inside the vertex set
    within (a bitmask that holds start), given per-vertex neighbor masks."""
    typed = isinstance(masks, _TypedRows)
    seen = cur = 1 << start
    while cur:
        if typed:
            nxt = masks.union(cur)
        else:
            nxt = 0
            for v in _iter_bits(cur):
                nxt |= masks[v]
        cur = nxt & within & ~seen
        seen |= cur
    return seen


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the components, each sorted, in order of their
    smallest vertex."""
    comps = []
    left = (1 << g.n) - 1
    while left:
        comp = component_mask(g.neighbor_masks, (left & -left).bit_length() - 1, left)
        comps.append(tuple(_iter_bits(comp)))
        left &= ~comp
    return comps


def is_bipartite(g: Graph) -> bool:
    """One bitmask BFS per component, a layer at a time: every edge joins
    two consecutive layers or lies inside one, and an edge inside a layer
    closes an odd cycle."""
    masks = g.neighbor_masks
    left = (1 << g.n) - 1
    while left:
        seen = cur = left & -left
        while cur:
            nxt = 0
            for v in _iter_bits(cur):
                if masks[v] & cur:
                    return False
                nxt |= masks[v]
            cur = nxt & ~seen
            seen |= cur
        left &= ~seen
    return True


def girth(g: Graph):
    """Length of the shortest cycle, math.inf for forests.

    One layered BFS per source.  An edge inside layer d witnesses a cycle of
    length <= 2d+1; a layer-(d+1) vertex with two parents in layer d
    witnesses one of length <= 2d+2.  Minimized over all sources both bounds
    are attained, so the minimum is exact.  The sources stop once a cycle
    as short as any the graph can have is found: 3, or 4 if it is bipartite.
    """
    return _girth(g.neighbor_masks, range(g.n), 4 if is_bipartite(g) else 3)


def _girth(masks, sources, floor: int):
    """The girth of the graph in which vertex v has the neighbor bitmask
    masks[v], by girth's BFS from each of the sources in turn, given a
    floor that no cycle is shorter than: the first source on a cycle of
    that length ends the search.  A BFS from a vertex of a shortest cycle
    attains the girth, and no source finds less, so the sources need only
    hold a vertex of some shortest cycle; every vertex always will."""
    best = INF
    for s in sources:
        visited = 1 << s
        cur = visited
        d = 0
        while cur and 2 * d + 1 < best:
            nxt = 0
            intra = False
            for v in _iter_bits(cur):
                av = masks[v]
                if av & cur:
                    best = 2 * d + 1
                    intra = True
                    break
                nxt |= av
            if intra:
                break
            nxt &= ~visited
            if nxt and 2 * d + 2 < best:
                for v in _iter_bits(nxt):
                    if (masks[v] & cur).bit_count() >= 2:
                        best = 2 * d + 2
                        break
            visited |= nxt
            cur = nxt
            d += 1
        if best == floor:
            break
    return best


def _walks(g: Graph):
    """Yield (L, W_L) for L = 0, 1, 2, ... without end: W_L[v] is the
    bitmask of the endpoints of the walks of exactly length L from v.

    One synchronous sweep for all sources at once: W_0[v] is v alone, W_1[v]
    its neighbor mask, and W_{L+1}[v] the or of W_L[w] over the neighbors w
    of v, read from neighbor lists made for this sweep alone.  Each W_L is
    a new list, never changed afterwards, so a reader may keep earlier ones.
    """
    yield 0, [1 << v for v in range(g.n)]
    walk = list(g.neighbor_masks)
    yield 1, walk
    rows, length = [tuple(_iter_bits(m)) for m in walk], 1
    while True:
        prev = walk
        walk = []
        for row in rows:
            b = 0
            for w in row:
                b |= prev[w]
            walk.append(b)
        length += 1
        yield length, walk


def walk_metrics_from(g: Graph, v: int):
    """(length of the shortest odd closed walk through v, eccentricity of
    (v,0) in K_2 x g), math.inf where there is none, from v's own walk sets.

    W_0 is v alone and W_{L+1} = N(W_L), the vertices whose rows meet W_L,
    which by symmetry is the or of the rows of W_L's vertices, picked by
    _picked.  In a direct product, d((v,s),(u,t)) is the length of the
    shortest v-u walk of parity s+t (Hammack, Imrich & Klavzar, Handbook of
    Product Graphs, 2nd ed., 2011, distance in direct products).  If v is
    not isolated, W_L is contained in W_{L+2} (go out along an edge and
    back), so ecc(v,0) is the least L with W_L and W_{L-1} both full, with
    W_{-1} empty.  Once W_L == W_{L-2} short of that, W_{L+1} = N(W_L) =
    N(W_{L-2}) = W_{L-1}, so the sets repeat with period 2, never both fill,
    and v gets math.inf; so does an isolated v, whose W_1 is empty.  Either
    way v has shown an odd closed walk by then if it lies on one, so the
    sweep stops there.  On a vertex-transitive g the first value is the odd
    girth and the second every cover eccentricity.
    """
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    masks, full = g.neighbor_masks, (1 << g.n) - 1
    odd, length = INF, 0
    before = last = 0  # W_{L-2}, W_{L-1}
    walk = 1 << v
    while True:
        if length & 1 and odd == INF and walk >> v & 1:
            odd = length
        if walk == full and last == full:
            return odd, length
        if walk == before:
            return odd, INF
        before, last, walk = last, walk, reduce(or_, _picked(masks, walk), 0)
        length += 1


def _closes_odd(length: int, walk) -> bool:
    """Is there an odd closed walk of this length: L odd, v in W_L[v]?"""
    return length & 1 == 1 and any(m >> v & 1 for v, m in enumerate(walk))


def odd_girth(g: Graph):
    """Length of the shortest odd cycle; math.inf iff the graph is bipartite.

    A bipartite graph is settled by one is_bipartite pass.  Otherwise the
    first odd L of _walks with v in W_L[v] is the odd girth, as a minimal
    odd closed walk is an odd cycle, and the sweep stops there."""
    if is_bipartite(g):
        return INF
    return next(length for length, walk in _walks(g) if _closes_odd(length, walk))


def shortest_odd_cycle(g: Graph):
    """An explicit odd cycle of length odd_girth(g), or None if bipartite.

    The first odd L of _walks with s in W_L[s], for the lowest such s, is
    the odd girth: a minimal odd closed walk is an odd cycle, and a
    non-bipartite graph has one of length at most n, so the sweep ends.
    The cycle is walked back on s's own sets: walks are symmetric, so a
    vertex with a walk of length j+1 to s has a neighbor in W_j[s], and the
    lowest such neighbor is the next step.
    """
    if is_bipartite(g):
        return None
    walks = []
    for length, walk in _walks(g):
        walks.append(walk)
        if _closes_odd(length, walk):
            break
    s = next(v for v, m in enumerate(walk) if m >> v & 1)
    masks, cycle = g.neighbor_masks, [s]
    for j in range(length - 1, 0, -1):
        step = masks[cycle[-1]] & walks[j][s]
        cycle.append((step & -step).bit_length() - 1)
    return cycle  # s, ..., the vertex before the return to s


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given vertices, relabeled 0..len-1 in ascending
    original order; returns (subgraph, mapping) with mapping[new] = old.
    Each row is read over the vertices' span, and its kept bits are moved
    to their new indices one at a time."""
    vs = sorted(set(vertices))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise ValueError(f"vertex {next(v for v in vs if not 0 <= v < g.n)} out of range")
    if not vs:
        return Graph._derived(()), ()
    low, width = vs[0], vs[-1] + 1 - vs[0]
    sel = bytearray(b"0") * width  # the kept set's bit string, made in one pass
    for u in vs:
        sel[low + width - 1 - u] = 49
    kept, place, rows = int(sel, 2), {u - low: 1 << i for i, u in enumerate(vs)}, g.neighbor_masks
    # distinct powers of two: the sum is the OR
    masks = [sum(place[w] for w in _iter_bits(rows[v] >> low & kept)) for v in vs]
    return Graph._derived(masks), tuple(vs)


def complete_tensor(g: Graph, r: int) -> Graph:
    """K_r x g: vertex (v, t) at index t*n + v, adjacent to (w, u) iff
    t != u and v ~ w, with _TypedRows(g, r) as its rows, so nothing of the
    product is stored.  It is simple whenever g is: every bit is in range,
    no row reaches its own block, and (t != u and v ~ w) is symmetric."""
    return Graph._derived(_TypedRows(g, r))


class _TypedRows:
    """The neighbor masks of K_r x g, each made from g's own as it is read:
    (t, v) at t*n + v has v's row of g in every block but block t, placed
    by r - 1 shifts.  Only g's rows and r are held.  It is a sequence of
    its rows that compares and hashes as the tuple of them, so a graph
    equals the same graph with stored rows."""

    __slots__ = ("masks", "n", "r", "_others")

    def __init__(self, g: Graph, r: int):
        self.masks, self.n, self.r = g.neighbor_masks, g.n, r
        # per block t, the shifts of the other blocks
        self._others = tuple(tuple(u * g.n for u in range(r) if u != t) for t in range(r))

    def __len__(self) -> int:
        return self.n * self.r

    def __getitem__(self, v: int) -> int:
        if not 0 <= v < self.n * self.r:
            raise IndexError("row index out of range")
        t, v = divmod(v, self.n)
        m, row = self.masks[v], 0
        for shift in self._others[t]:
            row |= m << shift
        return row

    def __iter__(self):
        for others in self._others:
            for m in self.masks:
                row = 0
                for shift in others:
                    row |= m << shift
                yield row

    def __eq__(self, other):
        if not isinstance(other, (tuple, _TypedRows)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def union(self, vertices: int) -> int:
        """The OR of the rows of the vertices in the bitmask vertices, block
        by block: with F_t the OR of g's rows of those in block t, block u
        of the union is the OR of F_t over t != u."""
        n, full = self.n, (1 << self.n) - 1
        per = [reduce(or_, _picked(self.masks, vertices >> t * n & full), 0) for t in range(self.r)]
        return sum(reduce(or_, per[:t] + per[t + 1 :], 0) << t * n for t in range(self.r))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

_G6_HEADER = b">>graph6<<"
_G6_MAX_N = 68719476735  # 2^36 - 1


class Graph6Error(ValueError):
    """Malformed graph6 input; .offset is the byte position of the defect."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    head, digits = (b"~", 3) if n <= 258047 else (b"~~", 6)
    return head + bytes((n >> 6 * i & 63) + 63 for i in reversed(range(digits)))


# base64 digits in value order, and the same values offset by 63
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_DIGITS = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64_DIGITS, _G6_DIGITS)
_G6_TO_B64 = bytes.maketrans(_G6_DIGITS, _B64_DIGITS)
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


_G6_WINDOW = 3 << 15  # bits per graph6 piece: whole 24-bit groups, 16 KiB of digits
_G6_DECODE_CHARS = 1 << 18  # the most table characters per decoded window


def graph6_encode(g: Graph) -> bytes:
    """graph6_pieces(g) joined."""
    return b"".join(graph6_pieces(g))


def graph6_pieces(g: Graph):
    """Standard header-less graph6 in pieces: N(n), then the upper triangle
    in column-major order, 6 bits per byte, each byte offset by 63.  Column
    j is bits 0..j-1 of vertex j's mask.  The bits the last window left
    over and the columns that fill _G6_WINDOW bits with them are merged
    pairwise into one integer; its whole windows, or at the end all of it
    padded to 24-bit groups, go out lowest byte first, each bit-reversed,
    cut into six-bit digits by base64 and moved onto bytes 63..126.  The
    rows are read once each, in order."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"graph6 supports at most {_G6_MAX_N} vertices")
    yield _g6_encode_n(n)
    rows, carry, width, j = iter(g.neighbor_masks), 0, 0, 1
    next(rows, None)  # column 0 is empty
    while j < n or width > 0:
        columns, offsets = [carry], [0]
        while j < n and width < _G6_WINDOW:
            columns.append(next(rows) & (1 << j) - 1)
            offsets.append(width)
            width, j = width + j, j + 1
        while len(columns) > 1:
            pairs = zip(columns[::2], columns[1::2], offsets[::2], offsets[1::2])
            merged = [lo | hi << b - a for lo, hi, a, b in pairs]
            columns, offsets = merged + columns[2 * len(merged):], offsets[::2]
        whole = -(-width // 24) * 24 if j >= n else width - width % _G6_WINDOW
        packed = (columns[0] & (1 << whole) - 1).to_bytes(whole // 8, "little")
        b64 = binascii.b2a_base64(packed.translate(_REV8), newline=False)
        yield b64[: -(-width // 6)].translate(_B64_TO_G6)
        carry, width = columns[0] >> whole, width - whole


def graph6_decode(data) -> Graph:
    """Decode a graph6 byte string (optional '>>graph6<<' prefix tolerated).

    The payload is decoded by base64 into bytes once, and the rows are cut
    from it a window of columns at a time, at most _G6_DECODE_CHARS table
    characters, so no bit string of the whole triangle is made."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(
                f"non-ASCII character {data[exc.start]!r}", offset=exc.start
            ) from None
    data = data.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 input", offset=0)

    def val(i):
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", offset=i)
        return b - 63

    pos = 0
    if val(0) == 63:  # 126 -> extended size
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise Graph6Error("truncated 8-byte size field", offset=len(data))
            n = 0
            for i in range(2, 8):
                n = (n << 6) | val(i)
            pos = 8
        else:
            if len(data) < 4:
                raise Graph6Error("truncated 4-byte size field", offset=len(data))
            n = 0
            for i in range(1, 4):
                n = (n << 6) | val(i)
            pos = 4
    else:
        n = val(0)
        pos = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} payload bytes for n={n}, got {len(data) - pos}",
            offset=pos,
        )
    payload = data[pos:]
    if payload and not (63 <= min(payload) and max(payload) <= 126):
        for b in range(pos, len(data)):
            val(b)  # raises at the first byte out of range
    # the payload's six-bit digits as base64 text, padded to whole groups
    digits = payload.translate(_G6_TO_B64)
    padded = binascii.a2b_base64(digits + b"A" * (-len(digits) % 4))
    del payload, digits
    spare = 8 * len(padded) - nbits  # padding bits, then the base64 fill, < 24
    if int.from_bytes(padded[-3:], "big") & ((1 << spare) - 1):
        raise Graph6Error("nonzero padding bits", offset=len(data) - 1)
    rows, lo = [], 0
    while lo < n:
        # columns lo..hi-1, bits first..last-1 of the payload, reversed and
        # cut into cols: column c, highest first, is its entries c-1..0,
        # left-filled with zeros to hi; laid end to end, cols hold row v's
        # entries in these columns, highest first, at [hi-1-v::hi], and row
        # v >= lo is its first hi-v, then column v
        hi = min(n, lo + max(1, _G6_DECODE_CHARS // n))
        first, last = lo * (lo - 1) // 2, hi * (hi - 1) // 2
        chunk = int.from_bytes(padded[first // 8 : -(-last // 8)], "big")
        rev = format(chunk >> -last % 8 & (1 << last - first) - 1, f"0{last - first}b")[::-1]
        cols = [
            "0" * (hi - c) + rev[last - c * (c + 1) // 2 : last - c * (c - 1) // 2]
            for c in range(hi - 1, lo - 1, -1)
        ]
        table = "".join(cols)
        for v in range(lo):
            rows[v] |= int(table[hi - 1 - v :: hi], 2) << lo
        widths = range(hi - lo, 0, -1)  # hi - v for v = lo..hi-1
        rows += [int(table[w - 1 :: hi][:w] + col[w:], 2) for w, col in zip(widths, cols[::-1])]
        lo = hi
    return Graph._derived(rows)
