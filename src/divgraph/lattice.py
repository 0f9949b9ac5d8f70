"""Complete subgroup lattices: enumeration, Hasse covers, and queries.

Member sets are kept both as sorted tuples and as integer bitmasks; the
mask makes containment and intersection one machine operation each.
Subgroup ids come from the canonical ordering (size ascending, then
lexicographic member list) so every downstream artifact is reproducible.
The enumeration's joins yield the Hasse covers; ``cyclic_of`` maps g to <g>.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import LatticeCapExceeded, check_cap
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
    joins.  ``cyclic_of[g]`` is the id of the cyclic subgroup <g>, and
    ``classes[h]`` the sorted ids of the conjugates of subgroup h.
    """

    def __init__(self, group: Group, subgroups: list[Subgroup],
                 covers: list[tuple[int, int, int]], cyclic_of: tuple[int, ...],
                 classes: list[tuple[int, ...]]):
        self.group = group
        self.subgroups = subgroups
        self.covers = covers
        self.cyclic_of = cyclic_of
        self.classes = classes
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


def all_subgroups(G: Group, order_limit: int = DEFAULT_ORDER_LIMIT,
                  count_limit: int = DEFAULT_COUNT_LIMIT) -> SubgroupLattice:
    """Enumerate every subgroup, its conjugacy class and the Hasse covers.

    Seeds with the cyclic subgroups and closes under join-with-a-cyclic;
    every subgroup is a join of cyclic subgroups, so the fixed point is
    complete without scanning the power set.  Subgroups come one conjugacy
    class at a time (Neubüser's cyclic extension method): conjugating a new
    subgroup R by the generators of G, breadth first, gives each K in its
    class with a t such that K = t^-1 R t, and only R forms joins.  The
    seeds are closed under conjugation and <t^-1 R t, g> = t^-1 <R, tgt^-1> t,
    so the joins of a conjugate are conjugates of R's joins, whose classes
    are recorded: closing the representatives closes everything.

    Each join J = <R, g> is grown from R coset by coset
    (:func:`~divgraph.groups.extend_subgroup`) and keeps R's generator tuple
    plus g, unminimized.  As g lies outside R, |J| >= 2|R|, so no tuple is
    longer than log2 |G| (the doubling argument of Light's test in
    :func:`~divgraph.groups.validate_cayley_table`).

    The covers of R are its minimal joins: a cover K is <R, g> for every g
    in K - R, and any M strictly between R and a join would hold a smaller
    join <R, g>, g in M - R.  Kept by ascending order, they are the joins
    holding no join kept before.  Conjugation by t is a lattice
    automorphism, so the covers of t^-1 R t are the t^-1 K t, same index.
    """
    n = G.order
    check_cap(order_limit, "lattice cap")
    check_cap(count_limit, "lattice cap")
    if n > order_limit:
        raise LatticeCapExceeded(f"order {n} exceeds lattice cap {order_limit}")

    moving = () if G.is_abelian() else G.generating_set()
    members_by_mask: dict[int, list[int]] = {}
    rep_of: dict[int, tuple[int, int]] = {}  # K -> (R, t) with K = t^-1 R t
    frontier = []

    def add_class(members, R, gens):
        queue = [(members, R, 0)]
        for members_K, K, t in queue:
            if K in rep_of:
                continue
            rep_of[K] = (R, t)
            members_by_mask[K] = members_K
            for s in moving:
                conj = [G.conjugate(g, s) for g in members_K]
                queue.append((conj, _mask_of(conj), G.mul(t, s)))
        if len(rep_of) > count_limit:
            raise LatticeCapExceeded(f"subgroup count exceeds lattice cap {count_limit}")
        frontier.append((R, gens))

    cyclic_masks = []
    for g in range(n):
        members = closure_from_generators(G, (g,))
        cyclic_masks.append(_mask_of(members))
        if cyclic_masks[g] not in rep_of:
            add_class(members, cyclic_masks[g], (g,) if g else ())

    seeds = sorted({mask: g for g, mask in enumerate(cyclic_masks) if g}.items())
    covers_of = {}
    while frontier:
        R, gens = frontier.pop()
        joins = set()
        done = R  # R and each coset Rg joined: <R, rg> = <R, g>
        for _, g in seeds:
            if done >> g & 1:
                continue
            new_members, new_mask = extend_subgroup(
                G, members_by_mask[R], R, gens + (g,))
            done |= _mask_of(G.mul(h, g) for h in members_by_mask[R])
            joins.add(new_mask)
            if new_mask not in rep_of:
                add_class(new_members, new_mask, gens + (g,))
        kept = covers_of[R] = []
        for K in sorted(joins, key=int.bit_count):
            if all(k & ~K for k in kept):
                kept.append(K)

    ordered = sorted(
        (len(members), tuple(sorted(members)), mask)
        for mask, members in members_by_mask.items()
    )
    subgroups = [
        Subgroup(members, mask, i) for i, (_, members, mask) in enumerate(ordered)
    ]
    id_of = {s.mask: s.id for s in subgroups}
    covers = sorted(
        (id_of[_conjugate_mask(G, members_by_mask[K], t) if t else K], id_of[H],
         K.bit_count() // R.bit_count())
        for H, (R, t) in rep_of.items() for K in covers_of[R])
    class_ids: dict[int, list[int]] = {}
    for s in subgroups:
        class_ids.setdefault(rep_of[s.mask][0], []).append(s.id)
    classes = [tuple(class_ids[rep_of[s.mask][0]]) for s in subgroups]
    cyclic_of = tuple(id_of[mask] for mask in cyclic_masks)
    return SubgroupLattice(G, subgroups, covers, cyclic_of, classes)


# -- queries ---------------------------------------------------------------------

def is_normal(L: SubgroupLattice, H: Subgroup | int) -> bool:
    """H is normal iff its conjugacy class is H alone."""
    h_id = H if isinstance(H, int) else L.id_of(H.mask)
    return len(L.classes[h_id]) == 1


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


def center(G: Group) -> Subgroup:
    return centralizer(G, G.generating_set())


def commutator_subgroup(G: Group) -> Subgroup:
    """Subgroup generated by all commutators a^-1 b^-1 a b."""
    members = tuple(_derived(G, G.generating_set())[0])
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
    """The derived series, walked on generators, reaches the trivial group."""
    members, gens = G.elements(), G.generating_set()
    while len(members) > 1:
        derived, gens = _derived(G, gens)
        if len(derived) == len(members):
            return False
        members = derived
    return True


def _derived(G: Group, gens) -> tuple[list[int], list[int]]:
    """Sorted members and generators of [H, H] for H = <gens>: the normal
    closure N in H of the commutators a^-1 b^-1 a b of the generators.

    Each kept generator k of N is conjugated by each s in ``gens``; once
    every s^-1 k s lies in N, so does s^-1 N s, and (G being finite) N is
    normal in H.  The generators commute modulo N, so N holds [H, H]; it is
    generated by commutators, so it is no larger."""
    members, mask, kept = [0], 1, []
    queue = [G.mul(G.mul(G.inverse[a], G.inverse[b]), G.mul(a, b))
             for a, b in combinations(gens, 2)]
    for x in queue:
        if not mask >> x & 1:
            kept.append(x)
            members, mask = extend_subgroup(G, members, mask, kept)
            queue.extend(G.conjugate(x, s) for s in gens)
    return sorted(members), kept


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
    """Smallest size of a generating set.  For an abelian group or a p-group,
    Burnside's basis theorem gives it: the largest, over primes p dividing |G|,
    of log_p of the p-part of |G : <g^p, [G, G]>|.  Otherwise by direct search."""
    n, primes = G.order, prime_factorization(G.order)
    if len(primes) < 2 or G.is_abelian():
        commutators = _derived(G, G.generating_set())[1]
        return max((prime_factorization(n // len(closure_from_generators(
            G, [*{G.power(g, p) for g in G.elements()}, *commutators])))[p]
            for p in primes), default=0)
    upper = len(G.generating_set())
    for r in range(upper):
        for combo in combinations(range(1, n), r):
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
