"""Complete subgroup lattices: enumeration, Hasse covers, and queries.

Member sets are kept both as sorted tuples and as integer bitmasks; the
mask makes containment and intersection one machine operation each.
Subgroup ids come from the canonical ordering (size ascending, then
lexicographic member list) so every downstream artifact is reproducible.
The enumeration's joins yield the Hasse covers; ``cyclic_of`` maps g to <g>.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LatticeCapExceeded
from .groups import Group, closure_from_generators, extend_subgroup

DEFAULT_ORDER_LIMIT = 384
DEFAULT_COUNT_LIMIT = 20000


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as an element set plus its position in the lattice order."""

    members: tuple[int, ...]
    mask: int
    id: int

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return bool(self.mask >> g & 1)


def _mask_of(members) -> int:
    mask = 0
    for g in members:
        mask |= 1 << g
    return mask


def _conjugate_mask(G: Group, members, s: int) -> int:
    """Mask of s^-1 H s for the subgroup H with these members."""
    return sum(1 << G.conjugate(g, s) for g in members)


class SubgroupLattice:
    """All subgroups of a group with their Hasse cover arcs.

    ``covers`` holds triples (lower_id, upper_id, label) where lower is the
    *larger* group, upper the smaller one covering it from above in the
    drawing convention (arrows point toward smaller groups), and the label
    is the relative index |lower| / |upper|, read off the enumeration's
    joins.  ``cyclic_of[g]`` is the id of the cyclic subgroup <g>.
    """

    def __init__(self, group: Group, subgroups: list[Subgroup],
                 covers: list[tuple[int, int, int]], cyclic_of: tuple[int, ...]):
        self.group = group
        self.subgroups = subgroups
        self.covers = covers
        self.cyclic_of = cyclic_of
        self._id_by_mask = {s.mask: s.id for s in subgroups}

    def __len__(self) -> int:
        return len(self.subgroups)

    def id_of(self, members) -> int:
        mask = members if isinstance(members, int) else _mask_of(members)
        return self._id_by_mask[mask]

    def contains(self, outer_id: int, inner_id: int) -> bool:
        inner = self.subgroups[inner_id].mask
        return inner & self.subgroups[outer_id].mask == inner

    @property
    def trivial_id(self) -> int:
        return 0

    @property
    def full_id(self) -> int:
        return len(self.subgroups) - 1

    def conjugate_subgroup(self, h_id: int, s: int) -> int:
        """Id of s^-1 H s."""
        members = self.subgroups[h_id].members
        return self._id_by_mask[_conjugate_mask(self.group, members, s)]

    def conjugacy_class_of_subgroup(self, h_id: int) -> tuple[int, ...]:
        """Sorted ids of all conjugates of subgroup h_id."""
        return tuple(sorted({
            self.conjugate_subgroup(h_id, s) for s in self.group.elements()
        }))


def all_subgroups(G: Group, order_limit: int = DEFAULT_ORDER_LIMIT,
                  count_limit: int = DEFAULT_COUNT_LIMIT) -> SubgroupLattice:
    """Enumerate every subgroup and the Hasse covers between them.

    Seeds with the cyclic subgroups and closes under join-with-a-cyclic;
    every subgroup is a join of cyclic subgroups, so the fixed point is
    complete without scanning the power set.

    Each join J = <H, g> is grown from H coset by coset
    (:func:`~divgraph.groups.extend_subgroup`), and J keeps H's generator
    tuple plus g, unminimized.  A join is formed only when g lies outside H,
    so J holds H and the disjoint coset Hg: |J| >= 2|H|.  A tuple thus grows
    by one only when the order at least doubles, so none is longer than
    log2 |G| (the doubling argument of Light's test in
    :func:`~divgraph.groups.validate_cayley_table`).

    The covers come from the same pass.  Processing H forms the join
    <H, g> with each seed <g> not inside H.  A cover K of H is <H, g> for
    every g in K - H, so it is among these joins; and a minimal join is a
    cover, since any M strictly between would hold a smaller one, <H, g>
    for g in M - H.  Kept by ascending order, the covers of H are the joins
    holding no join kept before.
    """
    n = G.order
    if n > order_limit:
        raise LatticeCapExceeded(f"order {n} exceeds lattice cap {order_limit}")

    members_by_mask: dict[int, list[int]] = {}
    gens_by_mask: dict[int, tuple[int, ...]] = {}
    cyclic_masks = []
    for g in range(n):
        members = _cyclic_members(G, g)
        mask = _mask_of(members)
        cyclic_masks.append(mask)
        if mask not in gens_by_mask:
            members_by_mask[mask] = members
            gens_by_mask[mask] = (g,) if g else ()

    seeds = sorted((mask, gens[0]) for mask, gens in gens_by_mask.items() if gens)
    frontier = sorted(gens_by_mask)
    cover_pairs = []
    while frontier:
        mask = frontier.pop()
        joins = set()
        for seed, g in seeds:
            if seed & ~mask == 0:
                continue  # g lies in H
            gens = gens_by_mask[mask] + (g,)
            new_members, new_mask = extend_subgroup(
                G, members_by_mask[mask], mask, gens)
            joins.add(new_mask)
            if new_mask not in gens_by_mask:
                if len(gens_by_mask) >= count_limit:
                    raise LatticeCapExceeded(
                        f"subgroup count exceeds lattice cap {count_limit}"
                    )
                members_by_mask[new_mask] = new_members
                gens_by_mask[new_mask] = gens
                frontier.append(new_mask)
        kept = []
        for K in sorted(joins, key=int.bit_count):
            if all(k & ~K for k in kept):
                kept.append(K)
        cover_pairs += [(K, mask) for K in kept]

    ordered = sorted(
        (len(members), tuple(sorted(members)), mask)
        for mask, members in members_by_mask.items()
    )
    subgroups = [
        Subgroup(members, mask, i) for i, (_, members, mask) in enumerate(ordered)
    ]
    id_of = {s.mask: s.id for s in subgroups}
    covers = sorted((id_of[K], id_of[H], K.bit_count() // H.bit_count())
                    for K, H in cover_pairs)
    cyclic_of = tuple(id_of[mask] for mask in cyclic_masks)
    return SubgroupLattice(G, subgroups, covers, cyclic_of)


def _cyclic_members(G: Group, g: int) -> list[int]:
    members = [0]
    x = g
    while x != 0:
        members.append(x)
        x = G.mul(x, g)
    return sorted(members)


# -- queries ---------------------------------------------------------------------

def is_normal(L: SubgroupLattice, H: Subgroup | int) -> bool:
    """H is normal iff the generators of G conjugate it onto itself:
    conjugation by a product composes, and in a finite group every element
    is a product of generators."""
    h = L.subgroups[H] if isinstance(H, int) else H
    G = L.group
    return all(_conjugate_mask(G, h.members, s) == h.mask
               for s in G.generating_set())


def normalizer(L: SubgroupLattice, H: Subgroup | int) -> Subgroup:
    h = L.subgroups[H] if isinstance(H, int) else H
    G = L.group
    members = [s for s in G.elements()
               if _conjugate_mask(G, h.members, s) == h.mask]
    return L.subgroups[L.id_of(members)]


def centralizer(G: Group, elems, L: SubgroupLattice | None = None) -> Subgroup:
    """Elements commuting with everything in ``elems``."""
    elems = list(elems)
    members = tuple(
        s for s in G.elements()
        if all(G.mul(s, g) == G.mul(g, s) for g in elems)
    )
    if L is not None:
        return L.subgroups[L.id_of(members)]
    return Subgroup(members, _mask_of(members), -1)


def center(G: Group, L: SubgroupLattice | None = None) -> Subgroup:
    return centralizer(G, G.generating_set(), L)


def commutator_subgroup(G: Group, L: SubgroupLattice | None = None) -> Subgroup:
    """Subgroup generated by all commutators a^-1 b^-1 a b."""
    members = _derived_members(G, G.elements())
    if L is not None:
        return L.subgroups[L.id_of(members)]
    return Subgroup(members, _mask_of(members), -1)


def join(L: SubgroupLattice, A: Subgroup | int, B: Subgroup | int) -> Subgroup:
    """Ids ascend by order, so the join is the first subgroup holding both."""
    a = L.subgroups[A] if isinstance(A, int) else A
    b = L.subgroups[B] if isinstance(B, int) else B
    both = a.mask | b.mask
    return next(s for s in L.subgroups if both & ~s.mask == 0)


def meet(L: SubgroupLattice, A: Subgroup | int, B: Subgroup | int) -> Subgroup:
    a = L.subgroups[A] if isinstance(A, int) else A
    b = L.subgroups[B] if isinstance(B, int) else B
    return L.subgroups[L.id_of(a.mask & b.mask)]


# -- derived facts used by the analysis module ------------------------------------

def normal_subgroup_ids(L: SubgroupLattice) -> tuple[int, ...]:
    return tuple(s.id for s in L.subgroups if is_normal(L, s))


def cyclic_subgroup_ids(L: SubgroupLattice) -> tuple[int, ...]:
    return tuple(sorted(set(L.cyclic_of)))


def is_solvable(G: Group) -> bool:
    members = tuple(G.elements())
    while len(members) > 1:
        derived = _derived_members(G, members)
        if len(derived) == len(members):
            return False
        members = derived
    return True


def _derived_members(G: Group, members) -> tuple[int, ...]:
    comms = set()
    for a in members:
        a_inv = G.inverse[a]
        for b in members:
            comms.add(G.mul(G.mul(G.inverse[b], a_inv), G.mul(b, a)))
    return tuple(closure_from_generators(G, sorted(comms)))


def is_nilpotent(G: Group, L: SubgroupLattice) -> bool:
    """Nilpotent iff each Sylow subgroup is unique (hence normal)."""
    for p, e in prime_factorization(G.order).items():
        sylows = [s for s in L.subgroups if s.order == p ** e]
        if len(sylows) != 1:
            return False
    return True


def prime_factorization(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, primes ascending, by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def minimal_generator_count(G: Group) -> int:
    """Smallest size of a generating set, by direct search."""
    n = G.order
    if n == 1:
        return 0
    if max(G.element_order(g) for g in range(n)) == n:
        return 1
    upper = len(G.generating_set())
    from itertools import combinations

    candidates = [g for g in range(1, n)]
    for r in range(2, upper):
        for combo in combinations(candidates, r):
            if len(closure_from_generators(G, combo)) == n:
                return r
    return upper


# -- exports ----------------------------------------------------------------------

def lattice_to_dot(L: SubgroupLattice) -> str:
    lines = ["digraph subgroups {"]
    for s in L.subgroups:
        lines.append(f'  H{s.id} [label="H{s.id} (order {s.order})"];')
    for low, up, label in sorted(L.covers):
        lines.append(f'  H{low} -> H{up} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_to_json(L: SubgroupLattice) -> dict:
    return {
        "group": L.group.name,
        "subgroups": [
            {
                "id": s.id,
                "order": s.order,
                "members": list(s.members),
                "member_names": [L.group.names[g] for g in s.members],
            }
            for s in L.subgroups
        ],
        "covers": [
            {"lower": low, "upper": up, "index": label}
            for low, up, label in sorted(L.covers)
        ],
    }
