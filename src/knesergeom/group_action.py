"""Permutation actions on the disjointness geometries, orbits, and group
orders.

Ground-set permutations and element tables are both image tuples.  Point
permutations act on elements by mapping subsets pointwise inside each type,
type permutations by relabeling the copies: both are block maps
(t, v) -> (sigma t, pi v) of K_r x KG(m, k), checked with no edge read.
symmetry_witness is the one place a symmetry is verified: it checks that
the incidence rows are the typed rows of the geometry's own factor, one
block per type, and point_tables defines each pi by lookup, so the lemmas
in its docstring make every table an automorphism.  Its SymmetryWitness is
what every symmetry shortcut reads.
factor_is_vertex_transitive proves the factor KG(m, k) vertex-transitive
by the same mask lemma, closing one subset's orbit under two generators of
S_m, so that one vertex's walk sets give the rank-2 metrics.
type_swap_map and is_type_preserving_automorphism are the whole-graph
checks for any system, and serve as test oracles.
Every orbit is closed once, by one BFS over table images inside a pool that
it consumes, _orbit.  level_orbits certifies transitivity on the flags of a
type set from one flag, level by level through stabilisers, and the witness
runs it once, as every type set's levels are a prefix of the chamber type's;
flag_orbit_count and chamber_orbit_size enumerate every flag, as oracles.
The order of a group of ground-set permutations is computed exactly from a
base and strong generating set (deterministic Schreier-Sims), never by
listing the group's elements.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from itertools import pairwise

from .graphs import _iter_bits, _TypedRows
from .incidence import IncidenceSystem, flags_of_type, residue_mask
from .isomorphism import is_automorphism
from .kneser_geometry import KneserGeometry


def _permutation(images) -> tuple[int, ...]:
    images = tuple(images)
    if sorted(images) != list(range(len(images))):
        raise ValueError("image array is not a permutation")
    return images


def adjacent_transpositions(m: int) -> list[tuple[int, ...]]:
    """The standard generating set (i i+1), i = 0..m-2, of the symmetric
    group on m points, as image tuples."""
    return [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, m)) for i in range(m - 1)]


def _block_map(sigma, pi) -> tuple[int, ...]:
    """The table (t, i) -> (sigma t, pi i) of K_r x G, (t, i) at t*N + i."""
    n = len(pi)
    return tuple([s * n + x for s in sigma for x in pi])


def point_tables(geom: KneserGeometry, perms) -> list[tuple[int, ...]] | None:
    """One block table (t, i) -> (t, pi i) per ground-set permutation perm,
    S_{pi i} = perm S_i found by one lookup in the index of the subsets;
    None if an image is missing or two subsets, and so their images, are
    equal."""
    perms = [_permutation(pi) for pi in perms]
    if any(len(pi) != geom.params.ground_size for pi in perms):
        raise ValueError("permutation degree does not match the ground set")
    subsets = geom.subsets
    index = {mask: i for i, mask in enumerate(subsets)}
    if len(index) != len(subsets):
        return None
    tables, types = [], range(geom.params.r)
    for perm in perms:
        bit = [1 << q for q in perm]
        pi = [index.get(sum([bit[p] for p in _iter_bits(s)])) for s in subsets]
        if None in pi:
            return None
        tables.append(_block_map(types, pi))
    return tables


class SymmetryWitness(namedtuple("SymmetryWitness", "graph tables levels")):
    """Automorphism tables of graph and the chamber type's level_orbits.
    Only symmetry_witness's are verified; hand-built ones are checked."""

    __slots__ = ()
    covered = 0  # type sets proved transitive have at most this many types


class _VerifiedWitness(SymmetryWitness):
    """What symmetry_witness returns; an edited copy is a plain witness."""

    __slots__ = ()

    def _replace(self, **fields):
        return SymmetryWitness(*self)._replace(**fields)

    @property
    def covered(self) -> int:
        """Leading full levels: J is proved transitive iff len(J) <= covered."""
        return next((i for i, (s, c) in enumerate(self.levels) if s != c), len(self.levels))


def symmetry_witness(geom: KneserGeometry, perms) -> SymmetryWitness | None:
    """The point tables of the ground-set permutations, then the r - 1
    adjacent type swaps, and the point tables' level_orbits on the chamber
    type; None if the premise below fails or a permutation does not map the
    subsets onto themselves.

    Premise: the incidence graph is K_r x G, G = geom.factor, the
    kneser.disjointness_table of the distinct subsets S_0..S_{N-1}.  It is
    checked on what the system holds: its rows are graphs._TypedRows on G's
    own rows, and its t-th type is block t.  Two lemmas then make each table
    an automorphism with no edge read.

    Direct product: for r >= 2 the block table (t, v) -> (sigma t, pi v) is
    an automorphism of K_r x G whenever sigma permutes the types and pi is
    an automorphism of G, since (s, v) ~ (t, w) iff s != t and v ~ w, and
    sigma s != sigma t iff s != t (Hammack, Imrich and Klavzar, Handbook of
    Product Graphs, 2011).  The point tables take sigma = id, so they fix
    every type; the swaps take pi = id, and the adjacent ones stand for
    every type permutation.

    Masks: let perm be a permutation of the points and pi a permutation of
    the subsets with S_{pi i} = perm S_i for every i, as point_tables finds
    it.  Then pi is an automorphism of G, since perm S_j and perm S_i meet
    in perm(S_j and S_i), empty exactly when S_j and S_i are disjoint.

    Prefix: J = (j_0 < ... < j_{s-1}) has the chamber type's levels cut to
    s.  _residues picks in each type the lowest subset disjoint from those
    picked, so the first flags of J and of the chamber type hold the same
    S_{a_0}..S_{a_{s-1}}; a block table fixes (j, S_a) iff pi fixes a, and
    in K_r x G level i's candidates are, in any type, the subsets disjoint
    from S_{a_0}..S_{a_{i-1}}.  So level i of both closes S_{a_i} alike.
    The levels are closed under the point tables alone, which fix every
    type, so the swaps change none of them.
    """
    sys_, tables = geom.incidence_system(), point_tables(geom, perms)
    rows, n, r = sys_.graph.neighbor_masks, len(geom.subsets), geom.params.r
    if tables is None or not (
        isinstance(rows, _TypedRows)
        and rows.masks is geom.factor.neighbor_masks
        and [sys_.type_mask(t) for t in sys_.types] == [((1 << n) - 1) << t * n for t in range(r)]
    ):
        return None
    levels = tuple(level_orbits(sys_, tables, sys_.types))
    tables += [_block_map(sigma, range(n)) for sigma in adjacent_transpositions(r)]
    return _VerifiedWitness(sys_.graph, tuple(tables), levels)


def factor_is_vertex_transitive(geom: KneserGeometry) -> bool:
    """Is the factor KG(m, k) of geom vertex-transitive, by a check on its
    subset masks alone: is the orbit of S_0 under the transposition (0 1)
    and the m-cycle p -> p+1 mod m exactly the distinct masks S_0..S_{N-1}?

    Both act on a mask by O(1) bit operations.  They generate S_m, so a
    family that is one orbit is S_m-invariant, and each g in S_m gives a
    permutation pi of the subsets with S_{pi i} = g S_i.  The factor is
    disjointness_table of the subsets, by construction, so by the mask
    lemma of symmetry_witness each such pi is an automorphism of it; and as
    every S_i is g S_0 for some g, they are transitive on its vertices.
    No element table is built, and no set: the orbit is found by binary
    search in a sorted copy of the masks, marked in one byte per subset.
    """
    subsets, m = geom.subsets, geom.params.ground_size
    ordered = sorted(subsets)
    if not subsets or subsets[0] >> m or any(a >= b for a, b in pairwise(ordered)):
        return False
    full = (1 << m) - 1

    def swap01(s):
        x = (s ^ s >> 1) & 1
        return s ^ (x | x << 1)

    def shift(s):
        return (s << 1 & full) | s >> (m - 1)

    seen, queue = bytearray(len(ordered)), [subsets[0]]
    seen[bisect_left(ordered, subsets[0])] = 1
    for s in queue:  # grows while it is scanned
        for move in (swap01, shift):
            t = move(s)
            i = bisect_left(ordered, t)
            if i == len(ordered) or ordered[i] != t:
                return False  # the orbit leaves the family
            if not seen[i]:
                seen[i] = 1
                queue.append(ordered[i])
    return len(queue) == len(ordered)


def is_type_preserving_automorphism(sys: IncidenceSystem, table) -> bool:
    """Full check, on the whole incidence graph of any system, that the
    element table is a type-preserving bijection that maps incident pairs
    to incident pairs and non-incident pairs to non-incident pairs."""
    type_of = sys.type_of
    return is_automorphism(sys.graph, table) and all(
        type_of[img] == t for img, t in zip(table, type_of)
    )


def _orbit(tables, start, pool) -> int:
    """Size of the orbit of the sorted flag start under the group the
    element tables generate, closed by BFS over table images inside pool, a
    dict that maps each flag of a set holding start to itself.  Only flags
    still in the pool are reached, and each is popped from it when reached,
    so no second set is built, and the queue holds the pool's own tuples
    rather than copies of them."""
    del pool[start]
    queue = [start]
    for flag in queue:  # grows while it is scanned
        for table in tables:
            img = pool.pop(tuple(sorted([table[e] for e in flag])), None)
            if img is not None:
                queue.append(img)
    return len(queue)


def chamber_orbit_size(sys: IncidenceSystem, tables, start) -> int:
    """Size of the orbit of a chamber under the group the element tables
    generate, closed inside the chambers."""
    start = tuple(sorted(start))
    chambers = {c: c for c in flags_of_type(sys, sys.types)}
    if start not in chambers:
        raise ValueError("start flag is not a chamber")
    return _orbit(tables, start, chambers)


def flag_orbit_count(sys: IncidenceSystem, tables, J) -> list[tuple[tuple[int, ...], int]]:
    """Partition the flags of type J into orbits of the group the element
    tables generate; returns one (representative, size) pair per orbit, the
    representative being the orbit's smallest flag.  The flags are sorted
    once, and each orbit is closed inside the flags not yet assigned to an
    earlier one, from the first flag left in sorted order."""
    flags = sorted(flags_of_type(sys, J))
    pool = {f: f for f in flags}
    return [(f, _orbit(tables, f, pool)) for f in flags if f in pool]


def level_orbits(sys: IncidenceSystem, tables, J) -> list[tuple[int, int]]:
    """One (orbit size, candidate count) pair per level of F, the first
    flag of type J that flags_of_type yields: level i closes F[i] under the
    tables that fix every element of F[:i], inside its candidates, the
    elements of F[i]'s type incident to all of F[:i].

    If the tables are type-preserving automorphisms and every orbit fills
    its candidates, they are transitive on the flags of type J, which
    number the product of the orbit sizes.  By induction on i: a flag that
    agrees with F on F[:i] holds a candidate of level i, which a word in
    the tables fixing F[:i] maps onto F[i]."""
    F = next(flags_of_type(sys, J), None)
    if F is None:
        raise ValueError(f"no flag of type {tuple(sorted(J))}")
    levels = []
    for i, e in enumerate(F):
        fixing = [t for t in tables if all(t[x] == x for x in F[:i])]
        cand = residue_mask(sys, F[:i]) & sys.type_mask(sys.type_of[e])
        pool = {(c,): (c,) for c in _iter_bits(cand)}
        levels.append((_orbit(fixing, (e,), pool), cand.bit_count()))
    return levels


def _label_pairing(sys: IncidenceSystem, sigma) -> tuple[int, ...] | None:
    """The element map (type i, label) -> (type sigma(i), label), or None
    when the labels of some type repeat or lack a partner of the target
    type."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(sys.rank)):
        raise ValueError("sigma is not a permutation of the types")
    tmap = {sys.types[i]: sys.types[sigma[i]] for i in range(sys.rank)}
    by_type_label = {}
    for e in range(sys.n_elements):
        key = (sys.type_of[e], sys.label_of(e))
        if key in by_type_label:
            return None  # ambiguous labels; no canonical pairing
        by_type_label[key] = e
    mapping = []
    for e in range(sys.n_elements):
        key = (tmap[sys.type_of[e]], sys.label_of(e))
        if key not in by_type_label:
            return None
        mapping.append(by_type_label[key])
    return tuple(mapping)


def type_swap_map(sys: IncidenceSystem, sigma) -> tuple[tuple[int, ...] | None, bool]:
    """The element bijection induced by a permutation sigma of the types,
    pairing elements with equal labels across types; returns (mapping,
    valid) where valid means the map exists and preserves incidence, by
    one whole-graph edge check.

    For the disjointness geometries the labels are the subset masks, so the
    map is (type i, S) -> (sigma(i), S) and is an automorphism for every
    sigma; for a general labeled system it is invalid whenever some label
    has no partner of the target type.
    """
    mapping = _label_pairing(sys, sigma)
    if mapping is None or not is_automorphism(sys.graph, mapping):
        return None, False
    return mapping, True


def _compose(a, b):
    """The permutation a then b, on image tuples."""
    return tuple([b[x] for x in a])


def _inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


class _Level:
    """One level of a stabilizer chain: its base point, the strong
    generators that fix every earlier base point, and the transversal
    {point: (u, u^-1)} where u maps the base point to point.  Transversal
    entries are only ever added, never replaced, so a Schreier generator
    that once sifted to the identity (recorded in sifted as a (point,
    generator index) pair) still does after later levels grow."""

    __slots__ = ("base", "gens", "transversal", "sifted")

    def __init__(self, base, identity):
        self.base = base
        self.gens = []
        self.transversal = {base: (identity, identity)}
        self.sifted = set()

    def add_generator(self, g):
        """Append g and close the basic orbit under all generators."""
        self.gens.append(g)
        transversal = self.transversal
        points = list(transversal)
        for p in points:  # grows while it is scanned
            u = transversal[p][0]
            for s in self.gens:
                q = s[p]
                if q not in transversal:
                    v = _compose(u, s)
                    transversal[q] = (v, _inverse(v))
                    points.append(q)


def _sift(levels, g, start):
    """Strip g through levels[start:]; returns (residue, level index where
    stripping stopped).  The residue fixes the base points of the levels it
    passed, and it is the identity with index len(levels) exactly when g
    lies in the group those levels describe."""
    for j in range(start, len(levels)):
        level = levels[j]
        entry = level.transversal.get(g[level.base])
        if entry is None:
            return g, j
        g = _compose(g, entry[1])
    return g, len(levels)


def _first_moved(g):
    return next(x for x, y in enumerate(g) if x != y)


def permutation_group_order(gens) -> int:
    """Order of the group generated by ground-set permutations, computed
    exactly by deterministic Schreier-Sims (Seress, Permutation Group
    Algorithms, 2003; Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, section 4.4).

    The generators give a base b_0, b_1, ... (each one moves some base
    point) and the first strong generators of each level.  Working from the
    last level up, every Schreier generator u_p s u_{p^s}^-1 of a level is
    sifted through the levels after it; a nontrivial residue joins the
    strong generators of the levels it passed and of the level where it
    stopped (a new last level if it passed them all), and the work resumes
    there.  When every Schreier generator of every level sifts to the
    identity, the group's order is the product of the basic orbit lengths.
    Polynomial in the degree; nothing is estimated or sampled.
    """
    if not gens:
        raise ValueError("need at least one generator")
    gens = [_permutation(pi) for pi in gens]
    m = len(gens[0])
    if any(len(pi) != m for pi in gens):
        raise ValueError("generators act on different point counts")
    identity = tuple(range(m))
    levels = []
    for g in gens:
        if g == identity:
            continue
        j = next((j for j, lv in enumerate(levels) if g[lv.base] != lv.base), None)
        if j is None:
            levels.append(_Level(_first_moved(g), identity))
            j = len(levels) - 1
        for level in levels[: j + 1]:
            level.add_generator(g)
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        residue = None
        for p, (u, _) in level.transversal.items():
            for idx, s in enumerate(level.gens):
                if (p, idx) in level.sifted:
                    continue
                h = _compose(_compose(u, s), level.transversal[s[p]][1])
                y, j = _sift(levels, h, i + 1)
                if y != identity:
                    residue = y, j
                    break
                level.sifted.add((p, idx))
            if residue is not None:
                break
        if residue is None:
            i -= 1
            continue
        y, j = residue
        if j == len(levels):
            levels.append(_Level(_first_moved(y), identity))
        for deeper in levels[i + 1 : j + 1]:
            deeper.add_generator(y)
        i = j
    return math.prod(len(level.transversal) for level in levels)
