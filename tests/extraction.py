"""D(G) alone determines the division graphs of G's subgroups and quotients.

The procedures read only the graph.  A component here is a ``(clusters, arcs)``
pair: ``clusters[color]`` holds the orbit lengths of that color, and each arc
is a ``((color, orbit), (color, orbit), label)`` triple, lower end first.
"""

from dataclasses import dataclass

from divgraph import ust
from divgraph.canon import canonical_form
from divgraph.groups import quotient_group, subgroup_as_group
from divgraph.lattice import all_subgroups
from divgraph.ust import division_graph


def encoding(clusters, arcs, color_key) -> bytes:
    """Canonical bytes of one component with its colors pinned: two components
    encode alike exactly when a color-, length- and label-preserving
    isomorphism joins them.  ``color_key`` maps colors to sortable tokens."""
    keys = {color: color_key(color) for color in clusters}
    first, cells, n = {}, {}, 0  # orbit o of color c is vertex first[c] + o
    for color in sorted(keys, key=keys.__getitem__):
        first[color] = n
        for v, length in enumerate(clusters[color], n):
            cells.setdefault((keys[color], length), []).append(v)
        n += len(clusters[color])
    numbered = ((first[c] + o, first[d] + p, label) for (c, o), (d, p), label in arcs)
    classes = repr([(k, len(cells[k])) for k in sorted(cells)]).encode()  # canon keeps no keys
    return classes + canonical_form(n, numbered, [cells[k] for k in sorted(cells)]).encoding


def _walk(steps, starts) -> dict:
    """Each orbit reached from ``starts`` along the ``(from, to)`` steps,
    mapped to the start it was first reached from."""
    succ: dict = {}
    for v, w in steps:
        succ.setdefault(v, []).append(w)
    start_of, frontier = {v: v for v in starts}, list(starts)
    while frontier:
        v = frontier.pop()
        for w in succ.get(v, ()):
            if w not in start_of:
                start_of[w] = start_of[v]
                frontier.append(w)
    return start_of


def restricted_components(dg, h: int) -> list:
    """Splitting types of the primes of color ``h``, rescaled to that base;
    deduplicated, they are the components of D(H).  The walk up from each
    base orbit reaches exactly the orbits over it of the colors of H's
    subgroups: each K <= H lies above H along covers, and every projection
    is onto."""
    out = []
    for _, comp in dg.components:
        arcs, base = comp.arc_list(), comp.clusters[h]
        start_of = _walk([(low, up) for low, up, _ in arcs], [(h, b) for b in range(len(base))])
        clusters, slot_of = [{} for _ in base], {}
        for (color, idx), (_, b) in sorted(start_of.items()):
            length, rest = divmod(comp.clusters[color][idx], base[b])
            assert not rest, "orbit length not divisible by base length"
            cluster = clusters[b].setdefault(color, [])
            slot_of[(color, idx)] = (color, len(cluster))
            cluster.append(length)
        base_arcs = [[] for _ in base]
        for low, up, label in arcs:
            if low in start_of:
                base_arcs[start_of[low][1]].append((slot_of[low], slot_of[up], label))
        out += (({c: tuple(v) for c, v in cs.items()}, a) for cs, a in zip(clusters, base_arcs))
    return out


def quotient_components(dg, h: int) -> list:
    """Splitting patterns that stop at color ``h``; deduplicated, they are the
    components of D(G/H).  The walk down from H's orbits reaches every orbit
    of each K >= H: K lies below H along covers, and every projection is onto."""
    out = []
    for _, comp in dg.components:
        arcs = comp.arc_list()
        reached = _walk([(up, low) for low, up, _ in arcs],
                        [(h, k) for k in range(len(comp.clusters[h]))])
        out.append(({c: comp.clusters[c] for c, _ in reached},
                    [arc for arc in arcs if arc[1] in reached]))
    return out


def extract(G, L, dg, h_id: int, quotient: bool = False) -> tuple[set, set]:
    """The components of D(H), or of D(G/H) if ``quotient``, as two sets of
    encodings: extracted from ``dg``, and from the graph computed directly.
    An extracted color is keyed by the id its image has in the target's own
    lattice, so the two sets compare directly."""
    members = L.subgroups[h_id].members
    if quotient:
        (target, image), found = quotient_group(G, members), quotient_components(dg, h_id)
    else:
        target, local = subgroup_as_group(G, members)
        image, found = {g: i for i, g in enumerate(local)}, restricted_components(dg, h_id)
    lattice = all_subgroups(target)

    def key(color: int) -> int:
        return lattice.id_of({image[g] for g in L.subgroups[color].members})

    direct = division_graph(target, lattice).components
    return ({encoding(*comp, key) for comp in found},
            {encoding(c.clusters, c.arc_list(), lambda color: color) for _, c in direct})


# -- orbits as objects, for the tests that compare against them ------------------------


@dataclass(frozen=True, slots=True)
class Orbit:
    cosets: tuple[int, ...]
    length: int


def orbit_decomposition(cs, G, phi: int) -> list[Orbit]:
    """Orbits of the right action (Hg) . phi = H(g phi), by minimal coset index."""
    orbit_of, lengths, _ = ust._cycles(cs, [G.mul(g, phi) for g in G.elements()])
    return [Orbit(tuple(c), n) for c, n in zip(ust.orbit_cosets(orbit_of, len(lengths)), lengths)]
