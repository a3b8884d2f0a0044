"""Permutation actions on the disjointness geometries and orbit machinery.

Point permutations of the ground set act on elements by mapping subsets
pointwise inside each type; type permutations act by relabeling the copies.
element_action turns ground-set permutations into element-index tables,
once, and everything after it works on such tables over an
IncidenceSystem.  Orbit computations are plain BFS closures over generator
images, so orbit size equals transitivity evidence: the chamber orbit under
the symmetric group's generators reaching every chamber certifies
flag-transitivity on chambers, and one orbit per flag type certifies it in
full.
"""

from __future__ import annotations

from collections import deque

from .incidence import IncidenceSystem, flags_of_type
from .isomorphism import is_automorphism
from .kneser_geometry import KneserGeometry
from .subsets import KSubset


class Permutation:
    """A permutation of {0,...,m-1}, stored as its image array."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("image array is not a permutation")
        self.images = images

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def apply_to_mask(self, mask: int) -> int:
        out = 0
        while mask:
            b = mask & -mask
            out |= 1 << self.images[b.bit_length() - 1]
            mask ^= b
        return out

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(m))

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> "Permutation":
        images = list(range(m))
        images[i], images[j] = images[j], images[i]
        return cls(images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def adjacent_transpositions(m: int) -> list[Permutation]:
    """The standard generating set (i i+1), i = 0..m-2, of the symmetric
    group on m points."""
    return [Permutation.transposition(m, i, i + 1) for i in range(m - 1)]


def act_on_element(geom: KneserGeometry, pi: Permutation, e: int) -> int:
    """Image of an element under a ground-set permutation: same type,
    subset mapped pointwise."""
    if pi.m != geom.params.ground_size:
        raise ValueError("permutation degree does not match the ground set")
    t = geom.type_of(e)
    return geom.element_index(t, KSubset(pi.apply_to_mask(geom.masks[e])))


def element_action(obj, gens) -> tuple[IncidenceSystem, list[tuple[int, ...]]]:
    """The incidence system of obj and one element-index table per generator.

    obj is either a built disjointness geometry or a plain IncidenceSystem.
    A generator is either a ground-set Permutation (geometries only), which
    becomes its table here, or already an element-index map such as the
    mapping returned by type_swap_map.
    """
    sys = obj.incidence_system() if isinstance(obj, KneserGeometry) else obj
    n = sys.n_elements
    tables = [
        tuple(act_on_element(obj, g, e) for e in range(n))
        if isinstance(g, Permutation)
        else tuple(g)
        for g in gens
    ]
    return sys, tables


def _preserves_incidence(sys: IncidenceSystem, table) -> bool:
    """table is a bijection of the elements that maps incident pairs to
    incident pairs and non-incident pairs to non-incident pairs."""
    n = sys.n_elements
    return sorted(table) == list(range(n)) and is_automorphism(sys.graph, table)


def is_type_preserving_automorphism(obj, gen) -> bool:
    """Full check that the element map of gen is a type-preserving,
    incidence-preserving bijection (both directions)."""
    sys, (table,) = element_action(obj, [gen])
    type_of = sys.type_of
    return _preserves_incidence(sys, table) and all(
        type_of[img] == t for img, t in zip(table, type_of)
    )


def chamber_orbit_size(obj, gens, start) -> int:
    """Size of the orbit of a chamber under the generated group."""
    sys, tables = element_action(obj, gens)
    start = tuple(sorted(start))
    if len(start) != sys.rank:
        raise ValueError("start flag is not a chamber")
    seen = {start}
    queue = deque([start])
    while queue:
        flag = queue.popleft()
        for table in tables:
            img = tuple(sorted([table[e] for e in flag]))
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return len(seen)


def flag_orbit_count(obj, gens, J) -> tuple[int, list[tuple[int, ...]]]:
    """Partition the flags of type J into orbits; returns (count, one
    representative per orbit).  obj and gens are as for element_action."""
    sys, tables = element_action(obj, gens)
    todo = set(flags_of_type(sys, J))
    reps = []
    while todo:
        rep = min(todo)
        reps.append(rep)
        todo.discard(rep)
        queue = deque([rep])
        while queue:
            flag = queue.popleft()
            for table in tables:
                img = tuple(sorted([table[e] for e in flag]))
                if img in todo:
                    todo.discard(img)
                    queue.append(img)
    return len(reps), reps


def type_swap_map(obj, sigma) -> tuple[tuple[int, ...] | None, bool]:
    """The element bijection induced by a permutation sigma of the types,
    pairing elements with equal labels across types; returns (mapping,
    valid) where valid means the map exists and preserves incidence.

    For the disjointness geometries the labels are the subset masks, so the
    map is (type i, S) -> (sigma(i), S) and is an automorphism for every
    sigma; for a general labeled system it is invalid whenever some label
    has no partner of the target type.
    """
    sys, _ = element_action(obj, ())
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(sys.rank)):
        raise ValueError("sigma is not a permutation of the types")
    tmap = {sys.types[i]: sys.types[sigma[i]] for i in range(sys.rank)}
    by_type_label = {}
    for e in range(sys.n_elements):
        key = (sys.type_of[e], sys.label_of(e))
        if key in by_type_label:
            return None, False  # ambiguous labels; no canonical pairing
        by_type_label[key] = e
    mapping = []
    for e in range(sys.n_elements):
        key = (tmap[sys.type_of[e]], sys.label_of(e))
        if key not in by_type_label:
            return None, False
        mapping.append(by_type_label[key])
    mapping = tuple(mapping)
    if not _preserves_incidence(sys, mapping):
        return None, False
    return mapping, True


def permutation_group_order(gens) -> int:
    """Order of the generated group, as the orbit size of the identity
    tuple under composition; the action on tuples is regular, so orbit size
    equals group order.  Intended for small degree (the orbit is the whole
    group)."""
    if not gens:
        raise ValueError("need at least one generator")
    m = gens[0].m
    if any(pi.m != m for pi in gens):
        raise ValueError("generators act on different point counts")
    start = tuple(range(m))
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for pi in gens:
            img = tuple(pi(x) for x in t)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return len(seen)
