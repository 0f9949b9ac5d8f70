"""Reading group structure back out of a division graph, and comparing graphs.

Everything in the ``recover_*`` family treats the graph as opaque: colors
are just cluster keys, and all conclusions come from orbit lengths, arc
labels, and the cover structure between color clusters.  The certificate
canonicalizes a whole division graph up to component permutation and one
global color bijection, which is the announced equivalence for deciding
whether two groups have the same invariant.  That the graph also
determines the division graphs of G's subgroups and quotients is a claim the
tests check (``tests/extraction.py``); no command needs it, so it is not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, combinations, count, islice
from operator import or_

from .canon import DEFAULT_BUDGET, SeedGroup, canonical_form
from .errors import MalformedGraph, check_cap
from .groups import (
    Group,
    are_isomorphic,
    closure_from_generators,
    greedy_generators,
    quotient_group,
)
from .lattice import (
    DEFAULT_ORDER_LIMIT,
    SubgroupLattice,
    all_subgroups,
    center,
    commutator_subgroup,
    cyclic_subgroup_ids,
    is_nilpotent,
    is_solvable,
    minimal_generator_count,
    normal_subgroup_ids,
    normalizer,
    prime_factorization,
)
from .ust import DivisionGraph, USTComponent, division_graph


# -- graph-only extraction ----------------------------------------------------


def _identity_component(dg: DivisionGraph) -> USTComponent:
    all_one = [
        comp for _, comp in dg.components
        if all(labels.count(1) == len(labels) for *_, labels in comp.arcs)
    ]
    if len(all_one) != 1:
        raise MalformedGraph(
            f"expected exactly one all-label-1 component, found {len(all_one)}"
        )
    return all_one[0]


def recover_order(dg: DivisionGraph) -> int:
    """|G|: the size of the top cluster where the base prime splits completely."""
    return max(map(len, _identity_component(dg).clusters.values()))


@dataclass(frozen=True)
class LatticeSketch:
    """The subgroup graph as recovered from a division graph alone."""

    colors: tuple[int, ...]
    covers: tuple[tuple[int, int, int], ...]  # (lower color, upper color, index)
    order_of: dict[int, int]
    below: dict[int, int]  # color -> what it contains, bit i for colors[i]

    def contains(self, outer: int, inner: int) -> bool:
        """inner <= outer as subgroups (outer is the larger one)."""
        return self.below[inner] & ~self.below[outer] == 0

    @property
    def full_color(self) -> int:
        return max(self.colors, key=lambda c: self.order_of[c])

    @property
    def trivial_color(self) -> int:
        return min(self.colors, key=lambda c: self.order_of[c])

    def join(self, chosen) -> int:
        """Smallest color containing every color in ``chosen``."""
        return self.join_mask(reduce(or_, (self.below[c] for c in chosen), 0))

    def join_mask(self, need: int) -> int:
        """Smallest color containing every color whose bit is set in ``need``."""
        above = [c for c in self.colors if need & ~self.below[c] == 0]
        return min(above, key=lambda c: self.order_of[c])

    def meet(self, a: int, b: int) -> int:
        """The color containing exactly what both a and b contain."""
        common = self.below[a] & self.below[b]
        return next(c for c in self.colors if self.below[c] == common)


def recover_lattice(dg: DivisionGraph) -> LatticeSketch:
    """Colors plus cover arcs with indices, recovered from arc labels.

    For a cover pair the relative index is the label sum over the arcs
    leaving any one lower-cluster vertex; every vertex and every component
    must agree, which doubles as a structural sanity check.
    """
    colors = None
    for _, comp in dg.components:
        comp_colors = tuple(sorted(comp.clusters))
        if colors is None:
            colors = comp_colors
        elif colors != comp_colors:
            raise MalformedGraph("components disagree on the color set")
    if not colors:
        raise MalformedGraph("empty division graph")

    index_of_pair: dict[tuple[int, int], int] = {}
    summed = {}  # components may share a block: sum it once per lower-cluster size
    for _, comp in dg.components:
        for block in comp.arcs:
            low, up, targets, labels = block
            if summed.get(id(block)) == len(comp.clusters[low]):
                continue
            sums = [0] * len(comp.clusters[low])  # per lower orbit
            summed[id(block)] = len(sums)
            for t, label in zip(targets, labels):
                sums[t] += label
            pair = (low, up)
            for total in set(map(sums.__getitem__, targets)):
                if index_of_pair.setdefault(pair, total) != total:
                    raise MalformedGraph(f"label sums disagree on the index of {pair}")

    identity = _identity_component(dg)
    total_order = max(map(len, identity.clusters.values()))  # recover_order(dg)
    order_of = {}
    for color in colors:
        cosets = len(identity.clusters[color])
        if total_order % cosets:
            raise MalformedGraph(f"cluster size {cosets} does not divide {total_order}")
        order_of[color] = total_order // cosets
    covers = tuple(sorted(
        (low, up, idx) for (low, up), idx in index_of_pair.items()
    ))
    below = {c: 1 << i for i, c in enumerate(colors)}
    for low, up, _ in sorted(covers, key=lambda cover: order_of[cover[0]]):
        below[low] |= below[up]  # up is smaller than low, so already complete
    return LatticeSketch(colors, covers, order_of, below)


def recover_normal_colors(dg: DivisionGraph) -> frozenset[int]:
    """Colors whose orbit lengths are constant within every component."""
    colors = {c for _, comp in dg.components for c in comp.clusters}
    return frozenset(
        color for color in colors
        if all(lengths[0] == lengths[-1] for lengths in _color_fingerprint(dg, color))
    )


def recover_cyclic_colors(dg: DivisionGraph,
                          sketch: LatticeSketch | None = None):
    """Cyclic colors and, per component, the conjugate family they form.

    In the component of a division, the minimal colors containing a
    length-1 orbit (a prime with inertial degree one) are exactly the
    conjugates of the decomposition group of that division.
    """
    if sketch is None:
        sketch = recover_lattice(dg)
    families = []
    for _, comp in dg.components:
        fixed = [color for color, lengths in comp.clusters.items() if 1 in lengths]
        family = tuple(sorted(
            c for c in fixed
            if not any(d != c and sketch.contains(c, d) for d in fixed)
        ))
        families.append(family)
    cyclic = frozenset(c for family in families for c in family)
    return cyclic, families


# -- graph-side derivations used in the analysis report -------------------------


def _abelian_from_sketch(sketch: LatticeSketch, normal_colors, cyclic_colors):
    """Direct-product-of-normal-cyclics test; returns factor orders or None."""
    total = sketch.order_of[sketch.full_color]
    trivial = sketch.trivial_color
    candidates = sorted(
        (c for c in sketch.colors
         if c in normal_colors and c in cyclic_colors and sketch.order_of[c] > 1),
        key=lambda c: -sketch.order_of[c],
    )

    join = cache(sketch.join_mask)  # on the OR of the chosen colors' masks

    def search(remaining: int, start: int, chosen: list[int], need: int):
        if remaining == 1:
            return list(chosen)
        for i in range(start, len(candidates)):
            c = candidates[i]
            order = sketch.order_of[c]
            if remaining % order:
                continue
            if chosen and sketch.meet(join(need), c) != trivial:
                continue
            chosen.append(c)
            found = search(remaining // order, i + 1, chosen, need | sketch.below[c])
            if found is not None:
                return found
            chosen.pop()
        return None

    family = search(total, 0, [], 0)
    if family is None:
        return None
    return sorted(sketch.order_of[c] for c in family)


def invariant_factors_from_cyclic_orders(orders) -> tuple[int, ...]:
    """Normalize a multiset of cyclic factor orders to invariant factors."""
    primary: dict[int, list[int]] = {}
    for order in orders:
        for p, e in prime_factorization(order).items():
            primary.setdefault(p, []).append(e)
    for exps in primary.values():
        exps.sort(reverse=True)
    factors = []
    while any(primary.values()):
        f = 1
        for p, exps in primary.items():
            if exps:
                f *= p ** exps.pop(0)
        factors.append(f)
    return tuple(sorted(factors))


def invariant_factors_direct(G: Group) -> tuple[int, ...] | None:
    """Invariant factors of an abelian group, by splitting off cyclic factors.

    In a finite abelian group an element g of largest order generates a
    direct factor, so G = <g> x G/<g>; the quotient is split the same way.
    Independent of the subgroup lattice on purpose.
    """
    if not G.is_abelian():
        return None
    orders = []
    while G.order > 1:
        g = max(G.elements(), key=G.element_order)
        cyclic = closure_from_generators(G, (g,))
        orders.append(len(cyclic))
        G, _ = quotient_group(G, cyclic)
    return invariant_factors_from_cyclic_orders(orders)


def _min_generators_from_sketch(sketch: LatticeSketch, cyclic_colors) -> int:
    """Generator count: with one color P of each Sylow order (G nilpotent), Burnside's
    largest log_p |P : Phi(P)|, Phi(P) the meet of the colors P covers.  Else the fewest
    maximal cyclic colors whose masks' OR lies in no color the full one covers."""
    full = sketch.full_color
    if sketch.order_of[full] == 1:
        return 0
    sylow = {p: [c for c in sketch.colors if sketch.order_of[c] == p ** e]
             for p, e in prime_factorization(sketch.order_of[full]).items()}
    if all(len(colors) == 1 for colors in sylow.values()):
        return max(prime_factorization(sketch.order_of[P] // sketch.order_of[
            reduce(sketch.meet, (up for low, up, _ in sketch.covers if low == P))])[p]
            for p, (P,) in sylow.items())
    maximal = [
        c for c in cyclic_colors
        if not any(d != c and sketch.contains(d, c) for d in cyclic_colors)
    ]
    maximal.sort(key=lambda c: -sketch.order_of[c])
    if full in maximal:
        return 1
    masks = [sketch.below[c] for c in maximal]
    tops = [sketch.below[up] for low, up, _ in sketch.covers if low == full]
    for r in range(2, len(maximal) + 1):
        for combo in combinations(masks, r):
            if all(reduce(or_, combo) & ~top for top in tops):
                return r
    raise MalformedGraph("maximal cyclic colors fail to join to the full group")


# -- analysis report --------------------------------------------------------------


@dataclass(frozen=True)
class OracleCheck:
    graph_value: object
    direct_value: object
    agree: bool


@dataclass(frozen=True)
class AnalysisReport:
    group_name: str
    order: int
    division_count: int
    lattice_sketch: LatticeSketch
    normal_color_ids: frozenset[int]
    cyclic_color_ids: frozenset[int]
    conjugate_cyclic_families: tuple[tuple[int, ...], ...]
    oracle_checks: dict[str, OracleCheck]

    @property
    def all_agree(self) -> bool:
        return all(c.agree for c in self.oracle_checks.values())

    def to_json(self) -> dict:
        return {
            "schema": "divgraph.analysis/1",
            "group": self.group_name,
            "order": self.order,
            "division_count": self.division_count,
            "lattice_sketch": {
                "colors": list(self.lattice_sketch.colors),
                "orders": {str(c): self.lattice_sketch.order_of[c]
                           for c in self.lattice_sketch.colors},
                "covers": [list(c) for c in self.lattice_sketch.covers],
            },
            "normal_color_ids": sorted(self.normal_color_ids),
            "cyclic_color_ids": sorted(self.cyclic_color_ids),
            "conjugate_cyclic_families": [list(f) for f in self.conjugate_cyclic_families],
            "oracle_checks": {
                name: {
                    "graph_value": _jsonable(check.graph_value),
                    "direct_value": _jsonable(check.direct_value),
                    "agree": check.agree,
                }
                for name, check in sorted(self.oracle_checks.items())
            },
        }


def _jsonable(value):
    if isinstance(value, frozenset):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def analyze(G: Group, L: SubgroupLattice | None = None) -> AnalysisReport:
    """Full report: graph-side recoveries checked against direct computation."""
    if L is None:
        L = all_subgroups(G)
    dg = division_graph(G, L)

    sketch = recover_lattice(dg)
    normal_colors = recover_normal_colors(dg)
    cyclic_colors, families = recover_cyclic_colors(dg, sketch)

    checks: dict[str, OracleCheck] = {}

    def check(name: str, graph_value, direct_value) -> None:
        checks[name] = OracleCheck(graph_value, direct_value, graph_value == direct_value)

    order_graph = sketch.order_of[sketch.full_color]
    check("order", order_graph, G.order)
    check("lattice_covers", sketch.covers, tuple(sorted(L.covers)))
    normal_direct = frozenset(normal_subgroup_ids(L))
    check("normal_subgroups", normal_colors, normal_direct)
    check("cyclic_subgroups", cyclic_colors, frozenset(cyclic_subgroup_ids(L)))
    check("decomposition_families", tuple(families), tuple(
        L.classes[L.cyclic_of[d.representative]] for d, _ in dg.components
    ))

    factors_graph = _abelian_from_sketch(sketch, normal_colors, cyclic_colors)
    check("abelian", factors_graph is not None, G.is_abelian())
    check("abelian_invariant_factors",
          None if factors_graph is None else invariant_factors_from_cyclic_orders(factors_graph),
          invariant_factors_direct(G))

    check("simple", order_graph > 1 and normal_colors <= {sketch.trivial_color, sketch.full_color},
          G.order > 1 and normal_direct <= {L.trivial_id, L.full_id})
    check("minimal_generators", _min_generators_from_sketch(sketch, cyclic_colors),
          minimal_generator_count(G))

    checks["center_order"] = OracleCheck(None, center(G).order, True)
    checks["commutator_order"] = OracleCheck(None, commutator_subgroup(G).order, True)
    checks["solvable"] = OracleCheck(None, is_solvable(G), True)
    checks["nilpotent"] = OracleCheck(None, is_nilpotent(G, L), True)

    return AnalysisReport(
        group_name=G.name,
        order=G.order,
        division_count=len(dg.components),
        lattice_sketch=sketch,
        normal_color_ids=normal_colors,
        cyclic_color_ids=cyclic_colors,
        conjugate_cyclic_families=tuple(families),
        oracle_checks=checks,
    )


# -- certificates ------------------------------------------------------------------


def _color_fingerprint(dg: DivisionGraph, color: int) -> tuple:
    return tuple(sorted(
        tuple(sorted(comp.clusters[color])) for _, comp in dg.components
    ))


def certificate(dg: DivisionGraph, budget: int = DEFAULT_BUDGET) -> bytes:
    """Canonical byte string of the graph up to component permutation and a
    single global color bijection.

    The graph handed to the canonicalizer has one node per color, then the
    orbits, each with a label-0 arc (no structural arc's label) to its color's
    node, so any automorphism renames colors consistently across the graph.
    It permutes components wholesale, as every orbit projects cover by cover
    down to its component's base orbit.  Graphs from ``division_graph`` seed
    the search with automorphisms their group gives (``_group_seeds``).
    """
    colors = sorted({c for _, comp in dg.components for c in comp.clusters})
    color_node = {color: i for i, color in enumerate(colors)}

    # the sorted keys order the cells: colors, then orbits by length
    cells: dict[tuple, list[int]] = {}
    for color, node in color_node.items():
        cells.setdefault((0, _color_fingerprint(dg, color)), []).append(node)

    # orbit k of cluster (ci, color) is vertex first[ci, color] + k
    first: dict[tuple[int, int], int] = {}
    n = len(colors)
    arcs: list[tuple[int, int, int]] = []
    for ci, (_, comp) in enumerate(dg.components):
        for color, cluster in sorted(comp.clusters.items()):
            first[ci, color] = n
            for v, length in enumerate(cluster, n):
                cells.setdefault((1, length), []).append(v)
                arcs.append((v, color_node[color], 0))
            n += len(cluster)

    def structural():  # made as canon reads them: no list of their ends lasts through the search
        for ci, (_, comp) in enumerate(dg.components):
            for low, up, targets, labels in comp.arcs:
                yield from zip(map(first[ci, low].__add__, targets), count(first[ci, up]), labels)

    seeds = () if dg.group is None else _group_seeds(dg, first, color_node, n)
    result = canonical_form(n, chain(arcs, structural()), [cells[k] for k in sorted(cells)],
                            budget=budget, known=seeds)
    return b"divgraph-cert/2;" + result.encoding


def _group_seeds(dg: DivisionGraph, first, color_node, n: int) -> list[SeedGroup]:
    """Automorphism groups of the certificate graph, acting on an orbit
    vertex Hx<phi> through any member x: left multiplication by s in G sends
    it to (sHs^-1)(sx)<phi> in every component, commuting with <phi> and with
    the projections Hx -> Kx; right multiplication by m in N_G(<phi>) sends
    it to Hxm<phi> in its component, as N_G(<phi>)/<phi>, each coset m<phi> =
    <phi>m named by its least member, as the coset space of <phi> holds it.
    Any member x gives the same images: left multiplication commutes with
    <phi>, and N_G(<phi>) normalizes <phi>.  Both act faithfully on the
    trivial subgroup's orbits."""
    G, L, spaces, comps = dg.group, dg.lattice, dg.spaces, [c for _, c in dg.components]
    orbit_at, begin = {}, {}
    for (ci, sid), start in first.items():
        begin.setdefault(ci, start)
        member = dict(zip(comps[ci].orbit_of[sid], spaces[sid].reps))  # orbit -> a member
        orbit_at.update((start + k, (ci, sid, x)) for k, x in member.items())
    color_sid = {v: sid for sid, v in color_node.items()}
    conj = cache(lambda sid, s: L.conjugate_subgroup(sid, G.inv(s)))  # sHs^-1

    def vertex_at(ci, sid, x):  # the orbit vertex of the coset H_sid x
        return first[ci, sid] + comps[ci].orbit_of[sid][spaces[sid].coset_of[x]]

    def left(s, v):
        if v in orbit_at:
            ci, sid, x = orbit_at[v]
            return vertex_at(ci, conj(sid, s), G.mul(s, x))
        return color_node[conj(color_sid[v], s)]

    def right(ci, m, v):
        cj, sid, x = orbit_at.get(v, (None, 0, 0))
        return vertex_at(ci, sid, G.mul(x, m)) if cj == ci else v

    by_order = sorted(G.elements(), key=G.element_order, reverse=True)  # fewer to check
    families = [SeedGroup(0, list(greedy_generators(G, by_order)), G.mul, left, range(n))]
    for ci, comp in enumerate(comps):
        cs = spaces[L.cyclic_of[comp.division_rep]]
        least = [cs.reps[c] for c in cs.coset_of]  # x -> min <phi>x
        N = normalizer(L, L.subgroups[cs.subgroup_id]).members
        # generators of N modulo <phi>: phi leads, and is dropped unless it is 0 (never yielded)
        gens = islice(greedy_generators(G, [comp.division_rep, *N]), comp.division_rep != 0, None)
        families.append(SeedGroup(0, [least[m] for m in gens],
                                  lambda a, b, least=least: least[G.mul(a, b)],
                                  partial(right, ci), range(begin[ci], begin.get(ci + 1, n))))
    return families


@dataclass(frozen=True)
class ComparisonResult:
    verdict: str  # "same" | "different"
    left: bytes
    right: bytes


def compare(G1: Group, G2: Group, budget: int = DEFAULT_BUDGET,
            lattice_cap: int = DEFAULT_ORDER_LIMIT) -> ComparisonResult:
    """Equal certificates <=> equivalent division graphs."""
    c1 = certificate(_capped_division_graph(G1, lattice_cap), budget=budget)
    c2 = certificate(_capped_division_graph(G2, lattice_cap), budget=budget)
    return ComparisonResult("same" if c1 == c2 else "different", c1, c2)


def _capped_division_graph(G: Group, lattice_cap: int) -> DivisionGraph:
    return division_graph(G, all_subgroups(G, order_limit=lattice_cap))


@dataclass(frozen=True)
class ScanReport:
    group_names: tuple[str, ...]
    collisions: tuple[tuple[str, str], ...]  # equal certificate, non-isomorphic
    matched_isomorphic: tuple[tuple[str, str], ...]  # every pair within one isomorphism class
    certified: int  # class representatives tied with another class on both invariants

    @property
    def clean(self) -> bool:
        return not self.collisions


def _lattice_invariant(G: Group, L: SubgroupLattice) -> tuple:
    """Order, sorted subgroup orders and the number of classes of cyclic subgroups:
    the scan's second tier.

    Each part is read off the graph alone: ``recover_order(dg)``, the values of
    ``recover_lattice(dg).order_of``, and one component per division, one
    division per class.  So equivalent graphs share it, yet it needs no graph.
    """
    return (G.order, tuple(sorted(s.order for s in L.subgroups)),
            len({L.classes[c] for c in L.cyclic_of}))


def conjecture_scan(groups, budget: int = DEFAULT_BUDGET,
                    lattice_cap: int = DEFAULT_ORDER_LIMIT) -> ScanReport:
    """Look for equal certificates among non-isomorphic groups, in four tiers.

    Groups are bucketed by order and element-order histogram (element orders
    are cached on the group), a graph invariant: each component has phi(m)
    elements of order m per member of its conjugate cyclic family, m an orbit
    length of its trivial color.  In a bucket each group is tested with
    ``are_isomorphic`` against one representative per class found so far, and
    every pair in one class is matched.  Only a bucket of two classes or more builds its representatives'
    lattices, sub-bucketed by ``_lattice_invariant``; representatives still
    tied are certified on those lattices, and equal certificates collide.
    Groups an invariant tells apart can neither collide nor be isomorphic; a
    false "not isomorphic" splits a class in two, whose certificates collide.
    A group above ``lattice_cap`` is refused before any work.
    """
    check_cap(lattice_cap, "lattice cap")
    check_cap(budget, "budget")
    groups = list(groups)
    for g in groups:
        if g.order > lattice_cap:
            all_subgroups(g, order_limit=lattice_cap)  # raises, before any lattice is built
    buckets: dict[tuple, list[list[int]]] = {}  # histogram -> classes, led by representatives
    for i, g in enumerate(groups):
        classes = buckets.setdefault(
            (g.order, tuple(sorted(g.element_order_histogram().items()))), [])
        cls = next((c for c in classes if are_isomorphic(groups[c[0]], g)), None)
        if cls is None:
            classes.append([i])
        else:
            cls.append(i)
    collisions, matched, certified = [], [], 0
    for classes in buckets.values():
        matched += (pair for c in classes for pair in combinations(c, 2))
        if len(classes) < 2:
            continue
        lattices = {c[0]: all_subgroups(groups[c[0]], order_limit=lattice_cap) for c in classes}
        ties: dict[tuple, list[int]] = {}
        for i, L in lattices.items():
            ties.setdefault(_lattice_invariant(groups[i], L), []).append(i)
        for tied in ties.values():
            if len(tied) > 1:
                certs = [(i, certificate(division_graph(groups[i], lattices[i]), budget=budget))
                         for i in tied]
                certified += len(certs)
                collisions += ((i, j) for (i, x), (j, y) in combinations(certs, 2) if x == y)

    def named(pairs):
        return tuple((groups[i].name, groups[j].name) for i, j in sorted(pairs))
    return ScanReport(tuple(g.name for g in groups), named(collisions), named(matched), certified)
