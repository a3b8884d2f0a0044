"""Finite simple undirected graphs with exact metric algorithms.

A Graph stores one neighbor bitmask per vertex and nothing else; `adj`, the
sorted neighbor tuples, is a view built from the masks on first use and
cached.  Graph.from_masks takes masks and checks them on bit strings, so
builders that think in masks never make an edge list.

Everything here is deterministic and exact: BFS distances, girth, odd girth,
diameter, connectivity, bipartiteness, induced subgraphs, the tensor
product K_r x G (the bipartite double cover at r = 2), and graph6 I/O.
Connectivity is one bitmask search, component_mask, which also serves the
residue checks; bipartiteness is one bitmask layer sweep per component.
Induced subgraphs move each row's kept bits into place one at a time.
Girth runs one BFS per source over per-vertex neighbor bitmasks and stops
at the first source that reaches 3, or 4 on a bipartite graph;
eccentricities and odd girth run one synchronous sweep that grows a
bitmask per vertex for every source at once, so the inner loops stay in
word operations.  graph6 is encoded from one integer holding the columns,
bit-reversed a byte at a time, and both ways cut six-bit digits with
binascii's base64 codec and one byte translation.  Infinity is math.inf.
"""

from __future__ import annotations

import binascii
import math
from collections import deque

INF = math.inf
_CHECK_CHARS = 1 << 20  # bits per block of Graph.from_masks's symmetry check


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "neighbor_masks", "_adj")

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
        self._adj = None

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
        construction: cut from a Graph's own (an induced subgraph, or the
        complete_tensor or bipartite_double_cover of a simple graph, is
        simple) or decoded from graph6."""
        g = cls.__new__(cls)
        g.n, g.neighbor_masks, g._adj = len(masks), tuple(masks), None
        return g

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            self._adj = tuple(tuple(_iter_bits(m)) for m in self.neighbor_masks)
        return self._adj

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
        return self.neighbor_masks[u] >> v & 1 == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.neighbor_masks == other.neighbor_masks

    def __hash__(self):
        return hash(self.neighbor_masks)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.n_edges})"


def _iter_bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def graph_digest(g: Graph) -> str:
    """Deterministic identity digest of (n, edge set); not isomorphism-invariant.
    The text hashed is n followed by ",u-v" for every edge u < v in
    ascending order, built one row at a time."""
    import hashlib  # here, so that only callers of a digest load OpenSSL

    rows = [str(g.n)]
    for u, m in enumerate(g.neighbor_masks):
        if high := m >> u + 1 << u + 1:
            sep = f",{u}-"
            rows.append(sep + sep.join(map(str, _iter_bits(high))))
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Exact shortest-path distances from source; unreachable vertices get -1."""
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def eccentricities(g: Graph):
    """Per-vertex eccentricity; math.inf where some vertex is unreachable.

    One synchronous sweep for all sources at once: ball[v] is the bitmask of
    the vertices within distance d of v, and ball_{d+1}[v] is ball_d[v] or'ed
    with ball_d[w] for every neighbor w.  Each round reads only the previous
    round's list, so no ball mixes two radii.  ecc(v) is the first d at which
    ball[v] is full; a ball that stops growing short of full is v's whole
    component, so v gets math.inf.
    """
    n = g.n
    if n <= 1:
        return [0] * n
    adj = g.adj
    full = (1 << n) - 1
    ball = [m | 1 << v for v, m in enumerate(g.neighbor_masks)]
    out = [INF] * n
    still_open = []
    for v in range(n):
        if ball[v] == full:
            out[v] = 1
        else:
            still_open.append(v)
    d = 1
    while still_open:
        d += 1
        grown = ball[:]
        growing = []
        for v in still_open:
            b = ball[v]
            for w in adj[v]:
                b |= ball[w]
            if b == full:
                out[v] = d
            elif b != ball[v]:
                growing.append(v)
            grown[v] = b
        ball = grown
        still_open = growing
    return out


def diameter(g: Graph):
    """Max eccentricity; 0 for n <= 1, math.inf when disconnected."""
    if g.n <= 1:
        return 0
    return max(eccentricities(g))


def component_mask(masks, start: int, within: int) -> int:
    """Bitmask of the vertices reachable from start inside the vertex set
    within (a bitmask that holds start), given per-vertex neighbor masks."""
    seen = cur = 1 << start
    while cur:
        nxt = 0
        for v in _iter_bits(cur):
            nxt |= masks[v]
        cur = nxt & within & ~seen
        seen |= cur
    return seen


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return g.n == 0 or component_mask(g.neighbor_masks, 0, full) == full


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
    masks = g.neighbor_masks
    floor = 4 if is_bipartite(g) else 3
    best = INF
    for s in range(g.n):
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


def _shortest_odd_closed_walk(g: Graph):
    """(L, v) with L the odd girth and v the lowest vertex on an odd cycle
    of length L; None iff the graph is bipartite.

    One synchronous sweep for all sources at once: walk[v] is the bitmask of
    the endpoints of walks of exactly length L from v, and a step sets
    walk_{L+1}[v] to the or of walk_L[w] over the neighbors w of v.  The
    sweep stops at the first odd L with v in walk[v] for some v; a minimal
    odd closed walk is an odd cycle, and a non-bipartite graph has one of
    length at most n, so the sweep ends.
    """
    if is_bipartite(g):
        return None
    adj = g.adj
    walk = list(g.neighbor_masks)
    length = 1
    while True:
        for v, m in enumerate(walk):
            if m >> v & 1:
                return length, v
        for _ in range(2):
            prev = walk
            walk = []
            for row in adj:
                b = 0
                for w in row:
                    b |= prev[w]
                walk.append(b)
        length += 2


def odd_girth(g: Graph):
    """Length of the shortest odd cycle; math.inf iff the graph is bipartite."""
    found = _shortest_odd_closed_walk(g)
    return INF if found is None else found[0]


def shortest_odd_cycle(g: Graph):
    """An explicit odd cycle of length odd_girth(g), or None if bipartite.

    Plain parent-tracking BFS on the parity-layered graph from the lowest
    vertex s on a shortest odd cycle: (s, odd) is first reached at depth
    odd_girth(g), and a closed walk that short is simple, hence a cycle.
    """
    found = _shortest_odd_closed_walk(g)
    if found is None:
        return None
    n, s = g.n, found[1]
    target = s + n
    parent = {s: -1}
    layer = [s]
    while target not in parent:
        nxt = []
        for x in layer:
            shift = n if x < n else 0  # a step flips the parity
            for w in g.adj[x % n]:
                if w + shift not in parent:
                    parent[w + shift] = x
                    nxt.append(w + shift)
        layer = nxt
    cycle, x = [], parent[target]
    while x != -1:
        cycle.append(x % n)
        x = parent[x]
    return cycle[::-1]  # s, ..., the vertex before the return to s


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given vertices, relabeled 0..len-1 in ascending
    original order; returns (subgraph, mapping) with mapping[new] = old.
    Each row keeps its neighbours among the vertices and moves each kept bit
    to the neighbour's new index."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    place = {v: 1 << i for i, v in enumerate(vs)}
    kept = 0
    for v in vs:
        kept |= 1 << v
    nbrs, masks = g.neighbor_masks, []
    for v in vs:
        m = 0
        for w in _iter_bits(nbrs[v] & kept):
            m |= place[w]
        masks.append(m)
    return Graph._derived(masks), tuple(vs)


def complete_tensor(g: Graph, r: int) -> Graph:
    """K_r x g: vertex (v, t) at index t*n + v, adjacent to (w, u) iff
    t != u and v ~ w.  Its row is v's row of g in every block but block t,
    so it is simple whenever g is: every bit is in range, no row reaches
    its own block, and (t != u and v ~ w) is symmetric."""
    n = g.n
    blocks = sum(1 << u * n for u in range(r))  # m * blocks puts m in every block
    return Graph._derived([m * blocks ^ m << t * n for t in range(r) for m in g.neighbor_masks])


def bipartite_double_cover(g: Graph) -> Graph:
    """K_2 x g: (v,0) at index v, (v,1) at n+v, and an edge {(u,0),(v,1)}
    for each edge {u,v} of g, both orientations."""
    return complete_tensor(g, 2)


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


def graph6_encode(g: Graph) -> bytes:
    """Standard header-less graph6: N(n) then the upper triangle in
    column-major order, packed 6 bits per byte, each byte offset by 63.

    Column j, bits 0..j-1 of vertex j's mask, sits at bit offset j(j-1)/2
    of one integer Z, built by merging adjacent columns pairwise.  Z's
    bytes, lowest first, each with its bits reversed, are the bit string in
    order, zero-padded to whole 24-bit groups; base64 cuts them into
    six-bit digits and a translation moves those onto bytes 63..126."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"graph6 supports at most {_G6_MAX_N} vertices")
    columns = [m & (1 << j) - 1 for j, m in enumerate(g.neighbor_masks)] or [0]
    offsets = [j * (j - 1) // 2 for j in range(n)]
    while len(columns) > 1:
        pairs = zip(columns[::2], columns[1::2], offsets[::2], offsets[1::2])
        merged = [lo | hi << b - a for lo, hi, a, b in pairs]
        columns, offsets = merged + columns[2 * len(merged):], offsets[::2]
    ndigits = -(-(n * (n - 1) // 2) // 6)
    groups = -(-ndigits // 4)
    packed = columns[0].to_bytes(3 * groups, "little").translate(_REV8)
    b64 = binascii.b2a_base64(packed, newline=False)
    return _g6_encode_n(n) + b64[:ndigits].translate(_B64_TO_G6)


def graph6_decode(data) -> Graph:
    """Decode a graph6 byte string (optional '>>graph6<<' prefix tolerated)."""
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
    spare = 8 * len(padded) - nbits  # padding bits, then the base64 fill
    whole = int.from_bytes(padded, "big")
    if whole & ((1 << spare) - 1):
        raise Graph6Error("nonzero padding bits", offset=len(data) - 1)
    bits = format(whole >> spare, f"0{nbits}b") if nbits else ""
    # cols[j][i] = 1 iff i ~ j, for i < j, zero-filled to n entries; laid
    # end to end, the columns hold row v's entries above v at [v::n][v + 1:],
    # so the masks are symmetric, loop-free and in range by construction
    cols = [bits[j * (j - 1) // 2 : j * (j + 1) // 2] + "0" * (n - j) for j in range(n)]
    table = "".join(cols)
    return Graph._derived([int((cols[v][:v] + table[v::n][v:])[::-1], 2) for v in range(n)])
