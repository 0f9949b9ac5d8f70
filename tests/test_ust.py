import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import divgraph as dv
from divgraph import ust
from divgraph.analysis import certificate, recover_lattice
from divgraph.errors import InternalInvariantError
from divgraph.lattice import all_subgroups, cyclic_subgroup_ids, is_normal
from divgraph.perms import Permutation
from divgraph.ust import (
    DivisionGraph,
    USTComponent,
    division_graph,
    orbit_cosets,
    right_cosets,
    ust_component,
    verify_lagarias,
)
from extraction import Orbit, encoding, orbit_decomposition


def q8_setup(q8):
    L = all_subgroups(q8)
    divs = dv.divisions(q8)
    return L, divs


# -- right cosets ------------------------------------------------------------------


def test_q8_cosets_of_i_subgroup(q8):
    L = all_subgroups(q8)
    h1 = L.id_of([0, 1, 2, 3])  # <i> = {1,-1,i,-i}
    cs = right_cosets(q8, L, h1)
    assert [set(c) for c in orbit_cosets(cs.coset_of, len(cs))] == [{0, 1, 2, 3}, {4, 5, 6, 7}]
    assert cs.reps == (0, 4)


def test_full_group_single_coset(q8):
    L = all_subgroups(q8)
    cs = right_cosets(q8, L, L.full_id)
    cosets = orbit_cosets(cs.coset_of, len(cs))
    assert len(cosets) == 1
    assert set(cosets[0]) == set(range(8))


def test_trivial_subgroup_singleton_cosets(q8):
    L = all_subgroups(q8)
    cs = right_cosets(q8, L, L.trivial_id)
    cosets = orbit_cosets(cs.coset_of, len(cs))
    assert len(cosets) == 8
    assert all(len(c) == 1 for c in cosets)


def test_cosets_partition_and_identity_first(s4):
    L = all_subgroups(s4)
    for s in L.subgroups:
        cs = right_cosets(s4, L, s.id)
        cosets = orbit_cosets(cs.coset_of, len(cs))
        seen = sorted(g for c in cosets for g in c)
        assert seen == list(range(24))
        assert all(len(c) == s.order for c in cosets)
        assert 0 in cosets[0]
        assert list(cs.reps) == [min(c) for c in cosets] == sorted(cs.reps)


def test_quotient_shares_the_right_coset_partition():
    for G in dv.standard_groups(16):
        L = all_subgroups(G)
        for N in L.subgroups:
            if is_normal(L, N):
                _, coset_of = dv.quotient_group(G, N.members)
                assert coset_of == list(right_cosets(G, L, N.id).coset_of), (G.name, N.id)


# -- orbit decomposition ---------------------------------------------------------


def test_q8_orbit_table_for_minus_one(q8):
    L, divs = q8_setup(q8)
    minus1 = 1
    expected = {
        (0,): (4, 2),        # trivial subgroup: 4 orbits of length 2
        (0, 1): (4, 1),      # <-1>: 4 orbits of length 1
        (0, 1, 2, 3): (2, 1),
        (0, 1, 4, 5): (2, 1),
        (0, 1, 6, 7): (2, 1),
        tuple(range(8)): (1, 1),
    }
    for s in L.subgroups:
        cs = right_cosets(q8, L, s.id)
        orbits = orbit_decomposition(cs, q8, minus1)
        count, length = expected[s.members]
        assert len(orbits) == count
        assert all(o.length == length for o in orbits)


def test_identity_orbits_are_singletons(s4):
    L = all_subgroups(s4)
    for s in L.subgroups:
        cs = right_cosets(s4, L, s.id)
        orbits = orbit_decomposition(cs, s4, 0)
        assert all(o.length == 1 for o in orbits)
        assert len(orbits) == len(cs)


def test_orbit_lengths_divide_element_order(s4):
    L = all_subgroups(s4)
    for g in range(24):
        order = s4.element_order(g)
        for s in L.subgroups[:10]:
            cs = right_cosets(s4, L, s.id)
            for o in orbit_decomposition(cs, s4, g):
                assert order % o.length == 0


def test_orbits_ordered_by_minimal_coset(q8):
    L = all_subgroups(q8)
    cs = right_cosets(q8, L, L.trivial_id)
    orbits = orbit_decomposition(cs, q8, 2)
    firsts = [o.cosets[0] for o in orbits]
    assert firsts == sorted(firsts)


def _relabelled(descriptor):
    G = dv.catalog(descriptor)
    relabel = list(range(G.order))
    random.Random(descriptor).shuffle(relabel)
    return dv.relabeled_copy(G, relabel)


def _brute_force_orbits(G, cs, phi):
    """Orbits of <phi> on H\\G from the powers of phi, sorted, by minimal coset."""
    powers = [0]
    while G.mul(powers[-1], phi) != 0:
        powers.append(G.mul(powers[-1], phi))
    orbits = {tuple(sorted({cs.coset_of[G.mul(x, p)] for p in powers})) for x in cs.reps}
    return sorted(orbits)


@pytest.mark.parametrize("G", dv.standard_groups(24) + [dv.symmetric(5)],
                         ids=lambda G: G.name)
def test_lagarias_orbit_lengths_are_the_orbit_decomposition(G):
    """The splitting types verify_lagarias counts from fixed points give each
    cyclic subgroup, on each coset space, the sorted lengths of the orbits
    orbit_decomposition returns for a generator, and those are the
    brute-force orbits."""
    L = all_subgroups(G)
    types = ust._splitting_types(G, L)
    spaces = [right_cosets(G, L, s.id) for s in L.subgroups]
    generators = dict(zip(L.cyclic_of, G.elements()))  # the last generator of each
    assert set(types) == set(generators)
    for cyclic, phi in generators.items():
        assert len(types[cyclic]) == len(spaces)
        for cs, lengths in zip(spaces, types[cyclic]):
            orbits = orbit_decomposition(cs, G, phi)
            brute = _brute_force_orbits(G, cs, phi)
            assert [o.cosets for o in orbits] == brute
            assert lengths == tuple(sorted(o.length for o in orbits))
            assert lengths == tuple(sorted(map(len, brute)))


def _splitting_types_per_space(G, L):
    """The fixed-coset count run on every coset space, conjugates included:
    per cyclic subgroup, its sorted orbit lengths on each H\\G."""
    firsts = {}  # cyclic subgroup -> (divisors of its order, their powers of a generator)
    for g, cyclic in enumerate(L.cyclic_of):
        m = G.element_order(g)
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        firsts.setdefault(cyclic, (divisors, [G.power(g, d) for d in divisors]))
    types = {cyclic: [] for cyclic in firsts}
    for H in L.subgroups:
        fixed = [0] * G.order
        for x in right_cosets(G, L, H.id).reps:
            for k in H.members:
                fixed[G.mul(G.mul(G.inverse[x], k), x)] += 1
        for cyclic, (divisors, powers) in firsts.items():
            types[cyclic].append(ust._cycle_type(divisors, [fixed[y] for y in powers]))
    return {cyclic: tuple(per_space) for cyclic, per_space in types.items()}


@pytest.mark.parametrize("G", dv.standard_groups(24) + [
    _relabelled("symmetric:5"), _relabelled("alternating:5")], ids=lambda G: G.name)
def test_splitting_types_per_class_equal_the_count_on_every_space(G):
    """Types counted on one coset space per conjugacy class and shared by the
    class are the types counted on every space."""
    L = all_subgroups(G)
    assert ust._splitting_types(G, L) == _splitting_types_per_space(G, L)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(n))))
def test_cycle_type_from_fixed_points_of_powers(images):
    p = Permutation(images)
    m = p.order()
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    fixed = [sum(i == j for i, j in enumerate((p ** d).images)) for d in divisors]
    assert ust._cycle_type(divisors, fixed) == tuple(sorted(p.cycle_type()))


@pytest.mark.parametrize("fixed", [(0, 3), (3, 1)], ids=["odd pair count", "negative"])
def test_counts_that_are_no_cycle_type_raise(fixed):
    """3 points on 2-cycles, or 1 fixed by the square of a map fixing 3, is no
    cycle type of an element of order 2."""
    with pytest.raises(InternalInvariantError, match="points on cycles of length 2"):
        ust._cycle_type((1, 2), fixed)


# -- component construction --------------------------------------------------------


def test_q8_minus_one_component_structure(q8):
    L, divs = q8_setup(q8)
    d = next(d for d in divs if q8.names[d.representative] == "-1")
    comp = ust_component(q8, L, d)
    sizes = sorted(comp.cluster_sizes().values())
    assert sizes == [1, 2, 2, 2, 4, 4]
    twos = [up for _, up, label in comp.arc_list() if label == 2]
    assert len(twos) == 4
    assert comp.label_multiset()[2] == 4
    # every label-2 arc lands in the top cluster (the trivial color)
    assert all(up[0] == L.trivial_id for up in twos)


def test_identity_component_structure(q8):
    L, divs = q8_setup(q8)
    comp = ust_component(q8, L, divs[0])
    for s in L.subgroups:
        assert len(comp.clusters[s.id]) == q8.order // s.order
    assert {label for *_, label in comp.arc_list()} == {1}


def test_cyclic_q_generator_component_is_single_chain():
    for q in (2, 3, 5):
        g = dv.cyclic(q)
        L = all_subgroups(g)
        divs = dv.divisions(g)
        comp = ust_component(g, L, divs[1])
        assert comp.cluster_sizes() == {0: 1, 1: 1}
        assert comp.arcs == ((L.full_id, L.trivial_id, (0,), (q,)),)


def test_arc_label_sums_reproduce_cover_indices(s4):
    L = all_subgroups(s4)
    for d in dv.divisions(s4):
        comp = ust_component(s4, L, d)
        sums = {}
        for low, up, label in comp.arc_list():
            key = (low, up[0])
            sums[key] = sums.get(key, 0) + label
        index = {(low, up): label for low, up, label in L.covers}
        for (lower_vertex, up_color), total in sums.items():
            assert total == index[(lower_vertex[0], up_color)]


def test_multiplicativity_of_labels(s4):
    L = all_subgroups(s4)
    for d in dv.divisions(s4):
        comp = ust_component(s4, L, d)
        for (ls, lo), (us, uo), label in comp.arc_list():
            assert comp.clusters[us][uo] == label * comp.clusters[ls][lo]


def test_normality_criterion_equal_labels(s4):
    # a color is normal iff its orbit lengths are constant in every component
    L = all_subgroups(s4)
    components = [ust_component(s4, L, d) for d in dv.divisions(s4)]
    for s in L.subgroups:
        equal_everywhere = all(
            len(set(comp.clusters[s.id])) == 1
            for comp in components
        )
        assert equal_everywhere == is_normal(L, s)


def test_decomposition_group_detection(q8):
    # Prop-style twin properties: minimal colors with a length-1 orbit are
    # the conjugates of <phi>; they also hold a vertex with a unique top
    # vertex above it, maximally so
    for G in (q8, dv.symmetric(3), dv.cyclic(6), dv.symmetric(4)):
        L = all_subgroups(G)
        for d in dv.divisions(G):
            comp = ust_component(G, L, d)
            fixed = [sid for sid, lengths in comp.clusters.items() if 1 in lengths]
            minimal = {
                sid for sid in fixed
                if not any(t != sid and L.contains(sid, t) for t in fixed)
            }
            phi_members = [0]
            x = d.representative
            while x != 0:
                phi_members.append(x)
                x = G.mul(x, d.representative)
            expected = set(L.classes[L.id_of(sorted(phi_members))])
            assert minimal == expected

            # twin property: maximal colors holding a vertex with exactly one
            # top-cluster vertex above it
            tops = _unique_top_colors(G, L, comp)
            assert tops == expected


def _unique_top_colors(G, L, comp):
    succ = {}
    for low, up, _ in comp.arc_list():
        succ.setdefault(low, []).append(up)
    top_color = L.trivial_id

    def tops_above(vertex):
        seen, stack, found = set(), [vertex], set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node[0] == top_color:
                found.add(node)
            stack.extend(succ.get(node, []))
        return found

    qualified = {
        sid for sid, orbits in comp.clusters.items()
        if any(len(tops_above((sid, k))) == 1 for k in range(len(orbits)))
    }
    return {
        sid for sid in qualified
        if not any(t != sid and L.contains(t, sid) for t in qualified)
    }


def test_representative_independence(q8):
    for G in (q8, dv.symmetric(3), dv.cyclic(12), dv.alternating(4)):
        L = all_subgroups(G)
        for d in dv.divisions(G):
            comp = ust_component(G, L, d)
            base = encoding(comp.clusters, comp.arc_list(), lambda c: c)
            for rep in d.members:
                comp = ust_component(G, L, d, representative=rep)
                alt = encoding(comp.clusters, comp.arc_list(), lambda c: c)
                assert alt == base, (G.name, d.members, rep)


def test_representative_outside_the_division_raises(q8):
    L = all_subgroups(q8)
    d = dv.divisions(q8)[1]
    outside = next(g for g in q8.elements() if g not in d.members)
    with pytest.raises(ValueError, match=(
            rf"^element {outside} is not in division \[{d.representative}\]$")):
        ust_component(q8, L, d, representative=outside)


def test_component_count_equals_division_count(q8, s3):
    for G in (q8, s3, dv.klein4(), dv.cyclic(4)):
        dg = division_graph(G)
        assert len(dg.components) == len(dv.divisions(G))


def test_division_graph_builds_each_coset_space_once(monkeypatch):
    G = dv.elementary_abelian(2, 3)
    L = all_subgroups(G)
    built = []

    def counting(G, L, subgroup_id):
        built.append(subgroup_id)
        return right_cosets(G, L, subgroup_id)

    monkeypatch.setattr(ust, "right_cosets", counting)
    dg = division_graph(G, L)
    assert sorted(built) == list(range(len(L)))
    assert len(dg.components) == 8
    assert all(comp == ust_component(G, L, d) for d, comp in dg.components)


@pytest.mark.parametrize("descriptor", [
    "symmetric:4", "symmetric:5", "dihedral:8", "product:symmetric:3:cyclic:4",
])
def test_division_graph_components_are_the_single_components(descriptor):
    """The cover projections shared by every component of a division graph
    give each component as ust_component builds it alone, on groups whose
    subgroups have conjugates."""
    G = dv.catalog(descriptor)
    L = all_subgroups(G)
    assert any(len(c) > 1 for c in L.classes)
    dg = division_graph(G, L)
    assert [comp for _, comp in dg.components] == [
        ust_component(G, L, d) for d in dv.divisions(G)]


def _tamper_setup(s4):
    L = all_subgroups(s4)
    spaces = [right_cosets(s4, L, s.id) for s in L.subgroups]
    phi = next(g for g in s4.elements() if s4.element_order(g) == 4)
    comp = next(ust._components(s4, L, spaces, [phi]))
    projections = [[spaces[low].coset_of[x] for x in spaces[up].reps] for low, up, _ in L.covers]
    return L, spaces, projections, phi, comp


def test_tampered_projection_raises(s4):
    """Two cosets of one orbit projecting into different orbits below: the
    once-per-cover check refuses the projection, naming the cover and a coset
    where it fails to commute with a generator."""
    L, spaces, projections, phi, comp = _tamper_setup(s4)
    for i, (low_id, up_id, _) in enumerate(L.covers):
        up_idx = next((k for k, n in enumerate(comp.clusters[up_id]) if n > 1), None)
        if len(comp.clusters[low_id]) > 1 and up_idx is not None:
            break
    up_cosets = [c for c, k in enumerate(comp.orbit_of[up_id]) if k == up_idx]
    low_of = comp.orbit_of[low_id]
    tampered = [list(p) for p in projections]
    here = tampered[i][up_cosets[0]]
    elsewhere = next(c for c, k in enumerate(low_of) if k != low_of[here])
    tampered[i][up_cosets[-1]] = elsewhere
    with pytest.raises(InternalInvariantError, match=(
            f"^cover H{low_id} > H{up_id}: the projection of coset \\d+ of H{up_id} "
            f"does not commute with right multiplication by \\d+$")):
        ust._check_projections(s4, L, spaces, tampered)
    ust._check_projections(s4, L, spaces, projections)


def test_a_whole_orbit_sent_into_a_longer_orbit_raises(s4):
    """Sending a whole orbit into a longer orbit below keeps it on one orbit
    below, but is no G-map."""
    L, spaces, projections, phi, comp = _tamper_setup(s4)
    for i, (low_id, up_id, _) in enumerate(L.covers):
        low_lengths = comp.clusters[low_id]
        longest = low_lengths.index(max(low_lengths))
        up_idx = next((k for k, n in enumerate(comp.clusters[up_id])
                       if n % low_lengths[longest]), None)
        if up_idx is not None:
            break
    tampered = [list(p) for p in projections]
    for c, k in enumerate(comp.orbit_of[up_id]):
        if k == up_idx:
            tampered[i][c] = comp.orbit_of[low_id].index(longest)
    with pytest.raises(InternalInvariantError, match=(
            f"^cover H{low_id} > H{up_id}: the projection of coset \\d+ of H{up_id} "
            f"does not commute with right multiplication by \\d+$")):
        ust._check_projections(s4, L, spaces, tampered)


def _tampered_cycles(monkeypatch, subgroup_id, lengths_of):
    """Make ``_cycles`` report lengths_of(lengths) on one coset space."""
    cycles = ust._cycles

    def tampered(cs, right):
        orbit_of, lengths, starts = cycles(cs, right)
        if cs.subgroup_id == subgroup_id:
            lengths = lengths_of(lengths)
        return orbit_of, lengths, starts
    monkeypatch.setattr(ust, "_cycles", tampered)


def test_non_integer_relative_degree_raises(monkeypatch, s4):
    """Orbits of length 3 on the trivial subgroup's cosets, under an element
    of order 4: the first arc above an orbit of length 2 or 4 has no integer
    label."""
    L, spaces, _, phi, comp = _tamper_setup(s4)
    below = next(comp.clusters[low][t] for low, up, targets, _ in comp.arcs
                 if up == L.trivial_id for t in targets if comp.clusters[low][t] > 1)
    _tampered_cycles(monkeypatch, L.trivial_id, lambda lengths: (3,) * len(lengths))
    with pytest.raises(InternalInvariantError, match=(
            f"^non-integer relative degree 3/{below}$")):
        next(ust._components(s4, L, spaces, [phi]))


def test_a_base_cluster_of_two_orbits_raises(monkeypatch, s4):
    L, spaces, _, phi, _ = _tamper_setup(s4)
    _tampered_cycles(monkeypatch, L.full_id, lambda lengths: (1, 1))
    with pytest.raises(InternalInvariantError, match=(
            "^base cluster must be a single length-1 orbit$")):
        next(ust._components(s4, L, spaces, [phi]))


def test_label_sums_off_the_cover_index_raise(s4):
    """A cover index one too large: each coset below is the image of fewer
    cosets than that, coset 0 among them."""
    L, spaces, projections, _, _ = _tamper_setup(s4)
    low_id, up_id, index = L.covers[0]
    wrong = SimpleNamespace(covers=[(low_id, up_id, index + 1)] + L.covers[1:])
    with pytest.raises(InternalInvariantError, match=(
            f"^cover H{low_id} > H{up_id}: coset 0 of H{low_id} is the image of "
            f"{index} cosets, expected the relative index {index + 1}$")):
        ust._check_projections(s4, wrong, spaces, projections)


# -- shared actions against the per-division reference ------------------------------


def _reference_component(G, L, spaces, projections, phi):
    """The component as it was built division by division: every orbit walked,
    and each cover's projection checked coset by coset, so that each orbit
    projects onto one orbit and the labels at each lower orbit sum to the
    index."""
    right = [G.mul(g, phi) for g in G.elements()]
    orbit_of, lengths, starts = zip(*(ust._cycles(cs, right) for cs in spaces))
    blocks = []
    for (low_id, up_id, index), projection in zip(L.covers, projections):
        low_of = orbit_of[low_id]
        projected = [low_of[c] for c in projection]
        targets = [projected[c] for c in starts[up_id]]
        assert projected == [targets[u] for u in orbit_of[up_id]]
        low_lengths = lengths[low_id]
        sums = [0] * len(low_lengths)
        labels = []
        for up_length, low_idx in zip(lengths[up_id], targets):
            label, rest = divmod(up_length, low_lengths[low_idx])
            assert not rest
            sums[low_idx] += label
            labels.append(label)
        assert sums == [index] * len(sums)
        blocks.append((low_id, up_id, tuple(targets), tuple(labels)))
    assert lengths[L.full_id] == (1,)
    return USTComponent(phi, dict(enumerate(map(tuple, lengths))),
                        dict(enumerate(map(tuple, orbit_of))), tuple(blocks))


def _assert_shared_graph_is_the_reference(G):
    L = all_subgroups(G)
    dg = division_graph(G, L)
    spaces = list(dg.spaces)
    projections = [[spaces[low].coset_of[x] for x in spaces[up].reps]
                   for low, up, _ in L.covers]
    reference = DivisionGraph(G.name, tuple(
        (d, _reference_component(G, L, spaces, projections, d.representative))
        for d in dv.divisions(G)))
    assert dg.components == reference.components, G.name
    assert recover_lattice(dg) == recover_lattice(reference), G.name


def test_shared_components_are_the_reference_on_standard_groups():
    for G in dv.standard_groups(64):
        _assert_shared_graph_is_the_reference(G)


@pytest.mark.parametrize("descriptor", [
    "dihedral:8", "product:symmetric:3:cyclic:4", "product:elementary_abelian:2:3:cyclic:4",
    "heisenberg27", "symmetric:5",
])
def test_shared_components_are_the_reference_on_relabelled_groups(descriptor):
    _assert_shared_graph_is_the_reference(_relabelled(descriptor))


@pytest.mark.parametrize("order", [16, 32])
def test_shared_components_are_the_reference_off_the_catalog(sylow2_s8_classes_of, order):
    for G in sylow2_s8_classes_of(order):
        _assert_shared_graph_is_the_reference(G)


@pytest.mark.parametrize("descriptor", [
    "elementary_abelian:2:5", "product:dihedral:4:elementary_abelian:2:3",
])
def test_shared_components_are_the_reference_on_order_32_and_64(descriptor):
    _assert_shared_graph_is_the_reference(dv.catalog(descriptor))


def test_components_agreeing_modulo_the_core_share_blocks():
    """Every subgroup of an abelian group is normal, its own core: the 24
    components of product:elementary_abelian:2:3:cyclic:4 hold 10,680 blocks
    in 3,594 objects, and each component's base cluster is one object."""
    dg = division_graph(dv.catalog("product:elementary_abelian:2:3:cyclic:4"))
    blocks = [block for _, comp in dg.components for block in comp.arcs]
    assert (len(dg.components), len(blocks), len({id(b) for b in blocks})) == (24, 10680, 3594)
    full = dg.lattice.full_id
    assert len({id(comp.clusters[full]) for _, comp in dg.components}) == 1


# -- arc blocks ----------------------------------------------------------------------


def test_arcs_are_one_block_per_cover_and_nothing_else():
    """A block (low, up, targets, labels) holds arc u from orbit targets[u] of
    color low up to orbit u of color up: the upper end is the arc's index, so
    no arc has an end of its own."""
    blocks = ((0, 1, (0, 0), (2, 1)), (2, 1, (1, 0), (3, 1)))
    comp = USTComponent(0, {}, {}, blocks)
    assert comp.arcs is blocks and comp.label_multiset() == {2: 1, 1: 2, 3: 1}
    assert comp.arc_list() == [((0, 0), (1, 0), 2), ((0, 0), (1, 1), 1),
                               ((2, 1), (1, 0), 3), ((2, 0), (1, 1), 1)]
    assert USTComponent(0, {}, {}, ()).arc_list() == []


def test_blocks_follow_the_covers_and_hold_plain_ints():
    G = dv.catalog("symmetric:4")
    L = all_subgroups(G)
    for _, comp in division_graph(G, L).components:
        assert [block[:2] for block in comp.arcs] == [cover[:2] for cover in L.covers]
        for low, up, targets, labels in comp.arcs:
            assert type(targets) is tuple and type(labels) is tuple
            assert {type(x) for x in targets + labels} == {int}
        ends = {end for low, up, _ in comp.arc_list() for end in (low, up)}
        assert ends == {(sid, k) for sid, orbits in comp.clusters.items()
                        for k in range(len(orbits))}


def test_each_cover_has_one_arc_per_upper_orbit_and_lower_sums_give_its_index():
    for G in dv.standard_groups(24):
        relabel = list(range(G.order))
        random.Random(G.name).shuffle(relabel)
        for H in (G, dv.relabeled_copy(G, relabel)):
            L = all_subgroups(H)
            index = {(low, up): i for low, up, i in L.covers}
            for _, comp in division_graph(H, L).components:
                for low, up, targets, labels in comp.arcs:
                    assert len(targets) == len(labels) == len(comp.clusters[up]), H.name
                    sums = [0] * len(comp.clusters[low])
                    for t, label in zip(targets, labels):
                        sums[t] += label
                    assert sums == [index[low, up]] * len(sums), H.name


def _oracle_arcs(G, L, dg, comp):
    """The arcs of ``comp`` from the subgroups' members alone: per cover
    (H, K) and per <phi>-orbit on K\\G, one arc to the H-orbit holding the
    image of the orbit's first coset, labelled by the ratio of the orbit
    lengths.  Only the orbits' numbers are read off ``comp``."""
    phi = comp.division_rep
    space_cosets = [orbit_cosets(cs.coset_of, len(cs)) for cs in dg.spaces]

    def orbit(sid, g):  # the <phi>-orbit of H_sid g, as element sets from H_sid g
        members, cosets, x = L.subgroups[sid].members, [], g
        while not cosets or x not in cosets[0]:
            cosets.append(frozenset(G.mul(h, x) for h in members))
            x = G.mul(x, phi)
        return cosets

    def number(sid, cosets):
        (k,) = {k for c, k in enumerate(comp.orbit_of[sid])
                if set(space_cosets[sid][c]) in cosets}
        return k

    arcs = []
    for low, up, _ in L.covers:
        done = set()
        for g in G.elements():
            if g not in done:
                up_orbit = orbit(up, g)
                done.update(*up_orbit)
                low_orbit = orbit(low, min(up_orbit[0]))
                assert len(up_orbit) % len(low_orbit) == 0
                arcs.append(((low, number(low, low_orbit)), (up, number(up, up_orbit)),
                             len(up_orbit) // len(low_orbit)))
    return sorted(arcs)


@pytest.mark.parametrize("descriptor", [
    "symmetric:4", "dihedral:6", "product:cyclic:2:cyclic:4",
])
def test_arcs_match_an_orbit_oracle_on_relabelled_groups(descriptor):
    G = _relabelled(descriptor)
    L = all_subgroups(G)
    dg = division_graph(G, L)
    for _, comp in dg.components:
        assert sorted(comp.arc_list()) == _oracle_arcs(G, L, dg, comp)


def test_symmetric_5_division_graph_memory():
    """One block of plain ints per cover, no object per arc and none per
    orbit: the graph of symmetric:5 (68,825 arcs, 13,595 orbits), its lattice
    and coset spaces peak under 3 MiB of allocations (2.6 MiB measured; 3.5
    with a shared (color, orbit) end per orbit and two end columns)."""
    G = dv.catalog("symmetric:5")
    tracemalloc.start()
    try:
        division_graph(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_alternating_5_certificate_memory():
    """Canon's set-up holds one coded adjacency list per vertex, no set or
    list of the arcs and no n-length image: the certificate of
    alternating:5's graph (2,215 vertices, 12,528 arcs) peaks under 5 MiB of
    allocations (4.3 MiB measured)."""
    dg = division_graph(dv.catalog("alternating:5"))
    tracemalloc.start()
    try:
        certificate(dg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_components_hold_no_orbit():
    """A cluster is the column of its orbit lengths and ``orbit_of`` the
    column of each coset's orbit: plain ints, with no object per orbit."""
    dg = division_graph(dv.catalog("symmetric:4"))
    for _, comp in dg.components:
        assert set(comp.orbit_of) == set(comp.clusters)
        for sid, lengths in comp.clusters.items():
            of = comp.orbit_of[sid]
            assert type(lengths) is tuple and type(of) is tuple and len(of) == len(dg.spaces[sid])
            assert all(type(x) is int for x in lengths + of)
            assert sorted(set(of)) == list(range(len(lengths)))
        assert not any(isinstance(x, Orbit) for x in vars(comp).values())


@pytest.mark.parametrize("descriptor", ["symmetric:4", "dihedral:6"])
def test_bucketed_orbit_columns_are_the_orbit_decomposition(descriptor):
    """Bucketing ``orbit_of`` in coset order gives, for every cluster,
    the orbits and lengths ``orbit_decomposition`` returns, which are the
    brute-force orbits."""
    G = _relabelled(descriptor)
    L = all_subgroups(G)
    dg = division_graph(G, L)
    for _, comp in dg.components:
        for sid, lengths in comp.clusters.items():
            buckets = [[] for _ in lengths]
            for c, k in enumerate(comp.orbit_of[sid]):
                buckets[k].append(c)
            orbits = orbit_decomposition(dg.spaces[sid], G, comp.division_rep)
            assert [Orbit(tuple(b), n) for b, n in zip(buckets, lengths)] == orbits
            assert [o.cosets for o in orbits] == _brute_force_orbits(
                G, dg.spaces[sid], comp.division_rep)


# -- Lagarias equivalence ------------------------------------------------------------


def test_lagarias_s4(s4):
    report = verify_lagarias(s4)
    assert report.passed
    assert report.elements == 24 and report.subgroups == 30


def test_lagarias_decomposes_each_cyclic_subgroup_once(monkeypatch, s4):
    """Each of the 17 cyclic subgroups of S4 (not its 24 elements) gets one
    type on each of the 30 coset spaces, read off the spaces of the 11 class
    representatives, each built once, and the verifier walks no cycle."""
    L = all_subgroups(s4)
    types = ust._splitting_types(s4, L)
    assert len(types) == len(cyclic_subgroup_ids(L)) == 17
    assert all(len(per_space) == len(L) == 30 for per_space in types.values())
    built = []
    cosets = ust.right_cosets

    def counting(G, L, subgroup_id):
        built.append(subgroup_id)
        return cosets(G, L, subgroup_id)

    def walking(cs, right):
        raise AssertionError("verify_lagarias walked a cycle")

    monkeypatch.setattr(ust, "right_cosets", counting)
    monkeypatch.setattr(ust, "_cycles", walking)
    assert verify_lagarias(s4, L).passed
    assert sorted(built) == sorted({c[0] for c in L.classes})
    assert len(built) == 11


def test_lagarias_q8(q8):
    assert verify_lagarias(q8).passed


def test_lagarias_reports_merged_divisions(monkeypatch):
    """Merging the divisions [1] = {1, 3} and [2] of cyclic:4 puts 2, whose
    splitting type differs, in the division of 1."""
    G = dv.cyclic(4)
    identity, gens, two = dv.divisions(G)
    merged = dv.Division(gens.representative, (1, 2, 3), gens.classes + two.classes,
                         gens.common_order)
    monkeypatch.setattr(ust, "divisions", lambda G: [identity, merged])
    report = verify_lagarias(G)
    assert report.violations == (
        (G.names[1], G.names[2], "same division but different splitting types"),
    )


def test_lagarias_reports_split_divisions(monkeypatch):
    """Splitting the generators of cyclic:5 into {1, 2} and {3, 4} leaves 3
    and 4 with the splitting type of 1 but in another division."""
    G = dv.cyclic(5)
    identity, gens = dv.divisions(G)
    halves = [dv.Division(members[0], members, members, gens.common_order)
              for members in ((1, 2), (3, 4))]
    monkeypatch.setattr(ust, "divisions", lambda G: [identity, *halves])
    report = verify_lagarias(G)
    assert report.violations == tuple(
        (G.names[1], G.names[g], "same splitting type but different divisions")
        for g in (3, 4)
    )


def test_lagarias_abelian_up_to_64():
    for G in [dv.cyclic(n) for n in (8, 12, 36, 64)] + [
        dv.elementary_abelian(2, 4),
        dv.catalog("product:cyclic:4:cyclic:8"),
    ]:
        report = verify_lagarias(G)
        assert report.passed, G.name


# -- exports -----------------------------------------------------------------------


def test_dot_export(q8):
    dg = division_graph(q8)
    dot = dv.division_graph_to_dot(dg)
    assert dot.count("subgraph cluster_") == 5
    assert '"d1/H1/o0" -> "d1/H0/o0" [label="2"];' in dot


def test_json_export_schema(q8):
    dg = division_graph(q8)
    data = dv.division_graph_to_json(dg, q8)
    assert data["schema"] == "divgraph.division_graph/1"
    assert len(data["components"]) == 5
    first = data["components"][0]
    assert first["division"]["representative_name"] == "1"


def test_trivial_group_division_graph():
    dg = division_graph(dv.cyclic(1))
    assert len(dg.components) == 1
    _, comp = dg.components[0]
    assert comp.vertex_count() == 1
    assert comp.arcs == ()


def test_orbit_sum_identity_per_cluster(s4):
    # in every cluster the orbit lengths add up to the coset count [G:H]
    for G in (s4, dv.quaternion8(), dv.dihedral(6)):
        L = all_subgroups(G)
        for d in dv.divisions(G):
            comp = ust_component(G, L, d)
            for s in L.subgroups:
                total = sum(comp.clusters[s.id])
                assert total == G.order // s.order, (G.name, s.id)
