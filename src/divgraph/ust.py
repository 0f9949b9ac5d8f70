"""Layered orbit digraphs: one splitting-type component per division.

For a division with representative phi, the cyclic group D = <phi> acts on
the right of every coset space H\\G.  Each D-orbit is a vertex (a "prime" of
the field fixed by H), its length is the inertial degree over the base
prime, and orbits in cover-adjacent coset spaces are linked through the
projection Ka_i b_j -> H b_j with the relative degree as the arc label.
The disjoint union over all divisions is the group's division graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import and_, floordiv, itemgetter, mod

from .divisions import Division, divisions
from .errors import InternalInvariantError
from .groups import Group, right_coset_partition
from .lattice import SubgroupLattice, all_subgroups


@dataclass(frozen=True, slots=True)
class CosetSpace:
    subgroup_id: int
    reps: tuple[int, ...]  # the least member of each coset, ascending
    coset_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.reps)


@dataclass(frozen=True, slots=True)
class Orbit:
    cosets: tuple[int, ...]
    length: int


@dataclass(frozen=True)
class USTComponent:
    division_rep: int
    clusters: dict[int, tuple[int, ...]]  # color -> orbit lengths, by minimal coset
    orbit_of: dict[int, tuple[int, ...]]  # color -> the orbit of each coset
    # one block (low, up, targets, labels) per cover: arc u runs from orbit
    # targets[u] of color low up to orbit u of color up, with label labels[u]
    arcs: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]

    def cluster_sizes(self) -> dict[int, int]:
        return {sid: len(orbits) for sid, orbits in self.clusters.items()}

    def label_multiset(self) -> dict[int, int]:
        return dict(Counter(chain.from_iterable(labels for *_, labels in self.arcs)))

    def arc_list(self) -> list[tuple[tuple[int, int], tuple[int, int], int]]:
        """Every arc as ((low, orbit), (up, orbit), label), block by block."""
        return [((low, t), (up, u), label) for low, up, targets, labels in self.arcs
                for u, (t, label) in enumerate(zip(targets, labels))]

    def vertex_count(self) -> int:
        return sum(len(orbits) for orbits in self.clusters.values())


@dataclass(frozen=True)
class DivisionGraph:
    group_name: str
    components: tuple[tuple[Division, USTComponent], ...]
    group: Group | None = field(default=None, compare=False, repr=False)
    lattice: SubgroupLattice | None = field(default=None, compare=False, repr=False)
    spaces: tuple[CosetSpace, ...] | None = field(default=None, compare=False, repr=False)


def right_cosets(G: Group, L: SubgroupLattice, subgroup_id: int) -> CosetSpace:
    """Right cosets Hg, ordered by least member (so coset 0 contains 0)."""
    reps, coset_of = right_coset_partition(G, L.subgroups[subgroup_id].members)
    return CosetSpace(subgroup_id, tuple(reps), tuple(coset_of))


def orbit_decomposition(cs: CosetSpace, G: Group, phi: int) -> list[Orbit]:
    """Orbits of the right action (Hg) . phi = H(g phi), by minimal coset index."""
    orbit_of, lengths, _ = _cycles(cs, [G.mul(g, phi) for g in G.elements()])
    return [Orbit(tuple(c), n) for c, n in zip(orbit_cosets(orbit_of, len(lengths)), lengths)]


def orbit_cosets(orbit_of, count: int) -> list[list[int]]:
    """The ascending cosets of each of ``count`` orbits, given the orbit of each coset."""
    cosets = [[] for _ in range(count)]
    for c, k in enumerate(orbit_of):
        cosets[k].append(c)
    return cosets


def _cycles(cs: CosetSpace, right: list[int]) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """The cycles of Hg -> H(g phi), given right[g] = g phi, numbered in the
    order of their minimal cosets: the cycle of each coset, each cycle's
    length and its minimal coset."""
    coset_of = cs.coset_of
    act = [coset_of[right[x]] for x in cs.reps]
    orbit_of = [-1] * len(act)
    lengths, starts = [], []
    for start in range(len(act)):
        if orbit_of[start] < 0:
            k, n, c = len(starts), 0, start
            while orbit_of[c] < 0:
                orbit_of[c] = k
                n += 1
                c = act[c]
            lengths.append(n)
            starts.append(start)
    return tuple(orbit_of), tuple(lengths), starts


def _coset_spaces(G: Group, L: SubgroupLattice) -> list[CosetSpace]:
    """Every coset space H\\G, indexed by subgroup id."""
    return [right_cosets(G, L, s.id) for s in L.subgroups]


def _check_projections(G: Group, L: SubgroupLattice, spaces: list[CosetSpace],
                       projections: list[list[int]]) -> None:
    """Each projection K\\G -> H\\G commutes with G's generators, so with every
    phi, and is [H:K]-to-one (a G-map onto the transitive H\\G has fibres of
    one size): for every division at once each <phi>-orbit projects onto one
    orbit, and the labels at an orbit below sum to [H:K]."""
    gens = G.generating_set()
    rights = [[G.mul(g, s) for g in G.elements()] for s in gens]
    acts = [[[cs.coset_of[right[x]] for x in cs.reps] for right in rights] for cs in spaces]
    for (low_id, up_id, index), projection in zip(L.covers, projections):
        for s, low_act, up_act in zip(gens, acts[low_id], acts[up_id]):
            moved = list(map(low_act.__getitem__, projection))
            if moved != list(map(projection.__getitem__, up_act)):
                c = next(c for c, d in enumerate(up_act) if projection[d] != moved[c])
                raise InternalInvariantError(
                    f"cover H{low_id} > H{up_id}: the projection of coset {c} of "
                    f"H{up_id} does not commute with right multiplication by {s}")
        if len(projection) != index * (n := len(spaces[low_id])):
            raise InternalInvariantError(
                f"cover H{low_id} > H{up_id}: coset 0 of H{low_id} is the image of "
                f"{len(projection) // n} cosets, expected the relative index {index}")


def _components(G: Group, L: SubgroupLattice, spaces: list[CosetSpace], phis):
    """The component of each <phi>, which acts on H\\G through G/core_G(H).  So
    where that core N is not trivial, H's cycles are keyed by the cosets of N
    holding phi's powers, and a cover's block by its upper space's key (whose
    core lies in the lower one's): components agreeing there share one result."""
    projections = [[spaces[low_id].coset_of[x] for x in spaces[up_id].reps]  # Kg -> Hg
                   for low_id, up_id, _ in L.covers]
    _check_projections(G, L, spaces, projections)
    cores = [L.id_of(reduce(and_, (L.subgroups[h].mask for h in c))) for c in L.classes]
    cycles_of, block_of = {}, {}
    for phi in phis:
        right = [G.mul(g, phi) for g in G.elements()]
        powers = L.subgroups[L.cyclic_of[phi]].members
        keyed = {N: frozenset(map(spaces[N].coset_of.__getitem__, powers)) for N in set(cores) if N}
        keys = [keyed.get(N) for N in cores]
        cycles = []
        for sid, key in enumerate(keys):
            cycles.append(key and cycles_of.get((sid, key)) or _cycles(spaces[sid], right))
            if key:
                cycles_of.setdefault((sid, key), cycles[-1])
        blocks = []  # one per cover, in cover order; the upper orbit is the arc's index
        for i, ((low_id, up_id, _), projection) in enumerate(zip(L.covers, projections)):
            found = keys[up_id] and block_of.get((i, keys[up_id]))
            if not found:  # the projection is checked: each upper orbit's start gives its target
                (low_of, low_lengths, _), (_, up_lengths, starts) = cycles[low_id], cycles[up_id]
                targets = tuple([low_of[projection[c]] for c in starts])
                below = list(map(low_lengths.__getitem__, targets))
                if any(map(mod, up_lengths, below)):
                    raise InternalInvariantError("non-integer relative degree " + next(
                        f"{u}/{n}" for u, n in zip(up_lengths, below) if u % n))
                found = low_id, up_id, targets, tuple(map(floordiv, up_lengths, below))
                if keys[up_id]:
                    block_of[i, keys[up_id]] = found
            blocks.append(found)
        if cycles[L.full_id][1] != (1,):
            raise InternalInvariantError("base cluster must be a single length-1 orbit")
        orbit_of, lengths, _ = zip(*cycles)
        yield USTComponent(phi, dict(enumerate(lengths)), dict(enumerate(orbit_of)), tuple(blocks))


def ust_component(G: Group, L: SubgroupLattice, d: Division,
                  representative: int | None = None) -> USTComponent:
    """One splitting-type component: clusters of D-orbits plus labeled arcs.

    The component is the same (as a colored labeled digraph) for every
    representative of the division; ``representative`` exists so tests can
    assert exactly that.
    """
    phi = d.representative if representative is None else representative
    if phi not in d.members:
        raise ValueError(f"element {phi} is not in division [{d.representative}]")
    return next(_components(G, L, _coset_spaces(G, L), [phi]))


def division_graph(G: Group, L: SubgroupLattice | None = None) -> DivisionGraph:
    """One component per division, ordered by division representative.

    Coset spaces, cover projections and what components agree on are shared; spaces are kept.
    """
    if L is None:
        L = all_subgroups(G)
    spaces, divs = _coset_spaces(G, L), divisions(G)
    components = zip(divs, _components(G, L, spaces, [d.representative for d in divs]))
    return DivisionGraph(G.name, tuple(components), G, L, tuple(spaces))


# -- Lagarias equivalence check ---------------------------------------------------


@dataclass(frozen=True)
class LagariasReport:
    group_name: str
    elements: int
    subgroups: int
    violations: tuple[tuple[str, str, str], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _cycle_type(divisors, fixed) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation from the fixed points of its d-th
    powers, d ascending over the divisors of its order (inclusion-exclusion)."""
    lengths = []
    for d, count in zip(divisors, fixed):
        points = count - sum(e for e in lengths if d % e == 0)
        if points < 0 or points % d:
            raise InternalInvariantError(f"{points} points on cycles of length {d}")
        lengths += [d] * (points // d)
    return tuple(lengths)


def _splitting_types(G: Group, L: SubgroupLattice) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Per cyclic subgroup <g>, its sorted orbit lengths on each H\\G: |G| conjugations
    per space count the cosets Hx each element fixes (x g x^-1 in H)."""
    cyclics, memos = {}, {}
    for g, cyclic in enumerate(L.cyclic_of):
        if cyclic not in cyclics:
            m = G.element_order(g)
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            counts = itemgetter(0, *(G.power(g, d) for d in divisors))
            cyclics[cyclic] = (divisors, counts, memos.setdefault(m, {}), [])
    mul, inverse = G.mul, G.inverse
    for cs, H in zip(_coset_spaces(G, L), L.subgroups):
        fixed = [0] * G.order
        for x in cs.reps:
            x_inv = inverse[x]
            for k in H.members:
                fixed[mul(mul(x_inv, k), x)] += 1
        for divisors, counts, memo, types in cyclics.values():
            key = counts(fixed)  # led by the cosets of H, so a tuple even if |g| = 1
            types.append(memo.get(key) or memo.setdefault(key, _cycle_type(divisors, key[1:])))
    return {cyclic: tuple(types) for cyclic, (*_, types) in cyclics.items()}


def verify_lagarias(G: Group, L: SubgroupLattice | None = None) -> LagariasReport:
    """Check: same division <=> same orbit-length multisets on every H\\G.

    Each element g gets as signature the sorted orbit lengths of <g> on every
    H\\G, counted from the cosets each power of g fixes (``_splitting_types``);
    the signature partition must match the division partition exactly.
    """
    if L is None:
        L = all_subgroups(G)
    divs = divisions(G)
    signature = list(map(_splitting_types(G, L).__getitem__, L.cyclic_of))

    division_id = {g: idx for idx, d in enumerate(divs) for g in d.members}

    violations = []
    by_signature: dict[tuple, int] = {}
    for g in G.elements():
        sig = signature[g]
        if sig in by_signature:
            other = by_signature[sig]
            if division_id[other] != division_id[g]:
                violations.append((
                    G.names[other], G.names[g],
                    "same splitting type but different divisions",
                ))
        else:
            by_signature[sig] = g
    for d in divs:
        rep_sig = signature[d.representative]
        for g in d.members:
            if signature[g] != rep_sig:
                violations.append((
                    G.names[d.representative], G.names[g],
                    "same division but different splitting types",
                ))
    return LagariasReport(G.name, G.order, len(L), tuple(violations))


# -- exports ----------------------------------------------------------------------


def division_graph_to_dot(dg: DivisionGraph) -> str:
    """DOT rendering: one cluster-ranked subgraph per component.

    Vertices are named d<rep>/H<id>/o<k>; the color attribute is the
    subgroup id and edge labels are the relative degrees.
    """
    lines = ["digraph division_graph {"]
    for ci, (division, comp) in enumerate(dg.components):
        rep = division.representative
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="division [{rep}]";')
        for sid in sorted(comp.clusters):
            names = []
            for k, length in enumerate(comp.clusters[sid]):
                names.append(f'"d{rep}/H{sid}/o{k}"')
                lines.append(f'    "d{rep}/H{sid}/o{k}" [color="{sid}" length="{length}"];')
            lines.append(f"    {{ rank=same; {' '.join(names)} }}")
        for (ls, lo), (us, uo), label in sorted(comp.arc_list()):
            lines.append(
                f'    "d{rep}/H{ls}/o{lo}" -> "d{rep}/H{us}/o{uo}" [label="{label}"];'
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def division_graph_to_json(dg: DivisionGraph, group: Group) -> dict:
    names = group.names
    components = []
    for division, comp in dg.components:
        components.append({
            "division": {
                "representative": division.representative,
                "representative_name": names[division.representative],
                "members": list(division.members),
                "member_names": [names[g] for g in division.members],
                "united_classes": list(division.classes),
                "common_order": division.common_order,
            },
            "clusters": {
                str(sid): [
                    {"cosets": cosets, "length": length} for cosets, length in zip(
                        orbit_cosets(comp.orbit_of[sid], len(lengths)), lengths)
                ]
                for sid, lengths in sorted(comp.clusters.items())
            },
            "arcs": [
                {"lower": list(lower), "upper": list(upper), "label": label}
                for lower, upper, label in sorted(comp.arc_list())
            ],
        })
    return {
        "schema": "divgraph.division_graph/1",
        "group": dg.group_name,
        "components": components,
    }
