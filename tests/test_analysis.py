import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

import divgraph as dv
from divgraph import analysis, lattice
from divgraph.analysis import (
    analyze,
    certificate,
    compare,
    conjecture_scan,
    invariant_factors_direct,
    invariant_factors_from_cyclic_orders,
    recover_cyclic_colors,
    recover_lattice,
    recover_normal_colors,
    recover_order,
)
from divgraph.lattice import all_subgroups, cyclic_subgroup_ids, normal_subgroup_ids
from divgraph.canon import canonical_form
from divgraph.errors import ValidationError
from divgraph.groups import closure_from_generators
from divgraph.ust import DivisionGraph, division_graph
from extraction import encoding, extract, quotient_components, restricted_components


# -- recovery operations -------------------------------------------------------


RECOVERY_GROUPS = [
    "quaternion8", "symmetric:3", "symmetric:4", "klein4", "cyclic:4",
    "cyclic:12", "dihedral:4", "dihedral:6", "alternating:4",
    "heisenberg27", "elementary_abelian:3:3", "product:cyclic:2:cyclic:6",
]


@pytest.mark.parametrize("descriptor", RECOVERY_GROUPS)
def test_recover_everything(descriptor):
    G = dv.catalog(descriptor)
    L = all_subgroups(G)
    dg = division_graph(G, L)
    assert recover_order(dg) == G.order
    sketch = recover_lattice(dg)
    assert sketch.covers == tuple(sorted(L.covers))
    assert all(sketch.order_of[s.id] == s.order for s in L.subgroups)
    assert recover_normal_colors(dg) == frozenset(normal_subgroup_ids(L))
    cyc, families = recover_cyclic_colors(dg, sketch)
    assert cyc == frozenset(cyclic_subgroup_ids(L))
    for (d, _), family in zip(dg.components, families):
        members = [0]
        x = d.representative
        while x != 0:
            members.append(x)
            x = G.mul(x, d.representative)
        assert family == L.classes[L.id_of(sorted(members))]


@pytest.mark.parametrize("descriptor", RECOVERY_GROUPS + ["symmetric:5"])
def test_sketch_answers_like_the_lattice(descriptor):
    """Containment, join and meet of the recovered sketch equal the direct
    lattice's on every pair, also after the colors are renamed to ids from
    1000 up in a shuffled order, so the masks cannot read ids as positions."""
    G = dv.catalog(descriptor)
    L = all_subgroups(G)
    dg = division_graph(G, L)
    sketch = recover_lattice(dg)
    shuffled, color_map = _shuffled_graph_copy_and_color_map(dg, random.Random(descriptor))
    renamed = recover_lattice(shuffled)
    for a in range(len(L)):
        for b in range(len(L)):
            join_id, meet_id = lattice.join(L, a, b).id, lattice.meet(L, a, b).id
            assert sketch.contains(a, b) == L.contains(a, b)
            assert sketch.join([a, b]) == join_id and sketch.meet(a, b) == meet_id
            ra, rb = color_map[a], color_map[b]
            assert renamed.contains(ra, rb) == L.contains(a, b)
            assert renamed.join([ra, rb]) == color_map[join_id]
            assert renamed.meet(ra, rb) == color_map[meet_id]


def test_recover_order_q8_and_s3(q8, s3):
    assert recover_order(division_graph(q8)) == 8
    assert recover_order(division_graph(s3)) == 6
    assert recover_order(division_graph(dv.cyclic(1))) == 1


def test_recover_lattice_finds_the_identity_component_once(monkeypatch):
    found = []
    original = analysis._identity_component
    monkeypatch.setattr(analysis, "_identity_component",
                        lambda dg: found.append(dg) or original(dg))
    dg = division_graph(dv.symmetric(4))
    sketch = recover_lattice(dg)
    assert found == [dg]
    assert sketch.order_of[sketch.full_color] == 24


def test_s3_normal_colors_by_name(s3):
    L = all_subgroups(s3)
    dg = division_graph(s3, L)
    normal = recover_normal_colors(dg)
    order3 = next(s.id for s in L.subgroups if s.order == 3)
    order2s = [s.id for s in L.subgroups if s.order == 2]
    assert order3 in normal
    assert all(sid not in normal for sid in order2s)


def test_cyclic4_every_color_cyclic():
    g = dv.cyclic(4)
    dg = division_graph(g)
    cyc, _ = recover_cyclic_colors(dg)
    assert cyc == frozenset(range(3))


def test_q8_full_group_not_cyclic(q8):
    dg = division_graph(q8)
    cyc, _ = recover_cyclic_colors(dg)
    L = all_subgroups(q8)
    assert L.full_id not in cyc
    assert cyc == frozenset(range(5))


# -- analyze -----------------------------------------------------------------------


def test_analyze_elementary_abelian(ea33):
    report = analyze(ea33)
    assert report.all_agree
    assert report.oracle_checks["abelian"].graph_value is True
    assert report.oracle_checks["abelian_invariant_factors"].graph_value == (3, 3, 3)
    assert report.oracle_checks["minimal_generators"].direct_value == 3
    assert report.division_count == 14


def test_analyze_heisenberg(h27):
    report = analyze(h27)
    assert report.all_agree
    assert report.oracle_checks["abelian"].graph_value is False
    assert report.oracle_checks["center_order"].direct_value == 3
    assert report.oracle_checks["commutator_order"].direct_value == 3
    assert report.oracle_checks["solvable"].direct_value is True
    assert report.oracle_checks["nilpotent"].direct_value is True
    assert report.oracle_checks["minimal_generators"].direct_value == 2


def test_analyze_s3(s3):
    report = analyze(s3)
    assert report.all_agree
    assert report.oracle_checks["solvable"].direct_value is True
    assert report.oracle_checks["simple"].direct_value is False
    assert report.oracle_checks["minimal_generators"].direct_value == 2
    assert report.order == 6


def test_analyze_simple_group_detection():
    report = analyze(dv.cyclic(7))
    assert report.oracle_checks["simple"].graph_value is True
    report = analyze(dv.cyclic(8))
    assert report.oracle_checks["simple"].graph_value is False


def _min_generators_by_join(sketch, cyclic_colors):
    """The smallest number of maximal cyclic colors whose ``sketch.join``
    is the full color, by trying every combination."""
    full = sketch.full_color
    if sketch.order_of[full] == 1:
        return 0
    maximal = [c for c in cyclic_colors
               if not any(d != c and sketch.contains(d, c) for d in cyclic_colors)]
    return next(r for r in range(1, len(maximal) + 1)
                for combo in combinations(maximal, r) if sketch.join(combo) == full)


def test_min_generators_mask_test_matches_the_join_loop():
    """The Burnside reading on nilpotent groups, and on the rest the OR of
    the masks tested against the maximal subgroups' masks, count what joining
    every combination counts."""
    groups = {G.name: G for G in dv.standard_groups(48)}
    for name in ("heisenberg27", "elementary_abelian:2:4"):
        groups.setdefault(name, dv.catalog(name))
    seen = set()
    for G in groups.values():
        dg = division_graph(G)
        sketch = recover_lattice(dg)
        cyclic, _ = recover_cyclic_colors(dg, sketch)
        r = analysis._min_generators_from_sketch(sketch, cyclic)
        assert r == _min_generators_by_join(sketch, cyclic), G.name
        seen.add(r)
    assert seen == {0, 1, 2, 3, 4}


def test_min_generators_of_nilpotent_groups_by_burnside(monkeypatch, sylow2_s8_classes_of):
    """With one color of each Sylow order, the count is read off each Sylow
    color and the meet of the colors it covers, with no combination of
    cyclic colors tried, and it is ``minimal_generator_count``."""
    def refuse(*args):
        raise AssertionError("combinations of cyclic colors were searched")

    nilpotent = [G for G in dv.standard_groups(64) if lattice.is_nilpotent(G, all_subgroups(G))]
    assert len(nilpotent) == 94
    monkeypatch.setattr(analysis, "combinations", refuse)
    seen = set()
    for G in nilpotent + list(sylow2_s8_classes_of(16)) + [dv.elementary_abelian(2, 5)]:
        dg = division_graph(G)
        sketch = recover_lattice(dg)
        cyclic, _ = recover_cyclic_colors(dg, sketch)
        r = analysis._min_generators_from_sketch(sketch, cyclic)
        assert r == lattice.minimal_generator_count(G), G.name
        seen.add(r)
    assert seen == {0, 1, 2, 3, 4, 5}


def test_analyze_report_serializes(s3):
    data = analyze(s3).to_json()
    import json

    text = json.dumps(data, sort_keys=True)
    assert "abelian" in text


def test_invariant_factor_helpers():
    assert invariant_factors_from_cyclic_orders([2, 3]) == (6,)
    assert invariant_factors_from_cyclic_orders([3, 3, 3]) == (3, 3, 3)
    assert invariant_factors_from_cyclic_orders([2, 4]) == (2, 4)
    assert invariant_factors_direct(dv.cyclic(12)) == (12,)
    assert invariant_factors_direct(dv.klein4()) == (2, 2)
    assert invariant_factors_direct(dv.catalog("product:cyclic:2:cyclic:4")) == (2, 4)
    assert invariant_factors_direct(dv.catalog("product:cyclic:2:cyclic:6")) == (2, 6)
    assert invariant_factors_direct(dv.symmetric(3)) is None


#: Invariant factors read off the construction of every abelian group in
#: ``standard_groups(48)`` that is not cyclic:n, whose factors are (n,).
ABELIAN_FACTORS = {
    "dihedral:2": (2, 2),
    "klein4": (2, 2),
    "symmetric:2": (2,),
    "alternating:3": (3,),
    "elementary_abelian:2:2": (2, 2),
    "elementary_abelian:2:3": (2, 2, 2),
    "elementary_abelian:2:4": (2, 2, 2, 2),
    "elementary_abelian:3:2": (3, 3),
    "elementary_abelian:3:3": (3, 3, 3),
    "elementary_abelian:5:2": (5, 5),
    "product:cyclic:2:cyclic:4": (2, 4),
    "product:cyclic:2:cyclic:6": (2, 6),
    "product:cyclic:2:cyclic:8": (2, 8),
    "product:cyclic:4:cyclic:4": (4, 4),
    "product:cyclic:2:cyclic:12": (2, 12),
    "product:cyclic:3:cyclic:9": (3, 9),
    "product:cyclic:3:cyclic:12": (3, 12),
    "product:cyclic:4:cyclic:8": (4, 8),
    "product:cyclic:6:cyclic:6": (6, 6),
}


def test_invariant_factors_direct_on_the_catalog():
    seen = set()
    for G in dv.standard_groups(48):
        family, _, n = G.name.partition(":")
        if family == "cyclic":
            expected = (int(n),) if int(n) > 1 else ()
        else:
            expected = ABELIAN_FACTORS.get(G.name)
            seen.add(G.name)
        assert invariant_factors_direct(G) == expected, G.name
    assert seen >= set(ABELIAN_FACTORS)


# -- certificates ---------------------------------------------------------------------


def test_compare_order27_pair(ea33, h27):
    assert ea33.element_order_histogram() == h27.element_order_histogram()
    result = compare(ea33, h27)
    assert result.verdict == "different"


def test_compare_relabeled_copy_same(q8):
    rng = random.Random(5)
    perm = list(range(8))
    rng.shuffle(perm)
    assert compare(q8, dv.relabeled_copy(q8, perm)).verdict == "same"


def test_compare_cyclic4_klein4():
    result = compare(dv.cyclic(4), dv.klein4())
    assert result.verdict == "different"
    # 3 vs 4 components is already visible in the graphs
    assert len(division_graph(dv.cyclic(4)).components) == 3
    assert len(division_graph(dv.klein4()).components) == 4


def test_certificate_hex_renders(q8):
    cert = certificate(division_graph(q8))
    assert isinstance(cert, bytes) and cert.startswith(b"divgraph-cert/2;")
    assert set(cert.hex()) <= set("0123456789abcdef")


@pytest.mark.parametrize("G", dv.standard_groups(16) + [dv.heisenberg27()],
                         ids=lambda G: G.name)
def test_group_seeds_pass_the_check_and_keep_the_certificate(G, monkeypatch):
    calls = []

    def recording(n, arcs, cells, budget, known):
        arcs = list(arcs)  # certificate streams its arcs; keep them for the rerun
        calls.append((n, arcs, cells, canonical_form(n, arcs, cells, budget, known)))
        return calls[-1][-1]

    monkeypatch.setattr(analysis, "canonical_form", recording)
    dg = division_graph(G)
    certificate(dg)
    n, arcs, cells, seeded = calls.pop()
    assert len(arcs) > 0, "the recorded graph has arcs"
    assert seeded.encoding == canonical_form(n, arcs, cells, known=()).encoding
    assert len(seeded.seeds) >= G.order - 1
    # the group the graph keeps is no part of its value
    assert dg == DivisionGraph(dg.group_name, dg.components) and dg.group is G


def _shuffled(G, seed):
    relabel = list(range(G.order))
    random.Random(seed).shuffle(relabel)
    return dv.relabeled_copy(G, relabel)


@pytest.mark.parametrize("G", dv.standard_groups(12) + [_shuffled(dv.alternating(4), 12)],
                         ids=lambda G: G.name)
def test_group_seeds_are_the_maps_their_generators_generate(G, monkeypatch):
    """Evaluated where they are read, the seeds are exactly the non-identity
    maps that each family's generator maps generate."""
    calls = []

    def recording(n, arcs, cells, budget, known):
        calls.append((n, known, canonical_form(n, arcs, cells, budget, known)))
        return calls[-1][-1]

    monkeypatch.setattr(analysis, "canonical_form", recording)
    certificate(division_graph(G))
    n, known, seeded = calls.pop()
    expected = []
    for family in known:
        gens = [tuple(family.act(g, v) for v in range(n)) for g in family.gens]
        group = [tuple(range(n))]
        for a in group:
            for b in gens:
                if (c := tuple(a[x] for x in b)) not in group:
                    group.append(c)
        expected += group[1:]
    assert sorted(tuple(g[v] for v in range(n)) for g in seeded.seeds) == sorted(expected)


@pytest.mark.parametrize("G", dv.standard_groups(16) + [dv.heisenberg27()],
                         ids=lambda G: G.name)
def test_no_seed_generator_acts_as_the_identity(G, monkeypatch):
    """The right families take their generators modulo <phi>, so none lies in
    <phi>, where it would fix every vertex and cost a seed check for nothing."""
    seen = []

    class Seeded(Exception):
        pass

    def stop(n, arcs, cells, budget, known):
        seen.append(known)
        raise Seeded

    monkeypatch.setattr(analysis, "canonical_form", stop)
    with pytest.raises(Seeded):
        certificate(division_graph(G))
    for family in seen[0]:
        for g in family.gens:
            assert any(family.act(g, v) != v for v in family.support), (G.name, g)


@pytest.mark.parametrize("descriptor", ["symmetric:5", "alternating:5", "symmetric:4"])
def test_left_seed_family_has_two_generators(descriptor, monkeypatch):
    """Greedy generators taken by descending element order: two elements
    generate each of these groups, where ``generating_set()`` finds more."""
    G = dv.catalog(descriptor)
    seen = []

    class Seeded(Exception):
        pass

    def stop(n, arcs, cells, budget, known):
        seen.append(known)
        raise Seeded

    monkeypatch.setattr(analysis, "canonical_form", stop)
    with pytest.raises(Seeded):
        certificate(division_graph(G))
    left = seen[0][0]
    assert len(left.gens) == 2 and len(G.generating_set()) > 2
    assert len(closure_from_generators(G, left.gens)) == G.order


@pytest.mark.parametrize("G", dv.standard_groups(24) + [dv.symmetric(5)],
                         ids=lambda G: G.name)
def test_certificate_graph_is_colors_then_connected_components(G, monkeypatch):
    """Each component's orbits are connected through its structural arcs, so
    a component needs no node of its own to move as a whole: the graph canon
    gets has one vertex per color and per orbit, and one label-0 arc, from
    each orbit to its color's node."""
    dg = division_graph(G)
    for _, comp in dg.components:
        reach = {(sid, k): {(sid, k)} for sid, lengths in comp.clusters.items()
                 for k in range(len(lengths))}
        for a, b, _ in comp.arc_list():
            if reach[a] is not reach[b]:
                merged = reach[a] | reach[b]
                for v in merged:
                    reach[v] = merged
        assert len({id(part) for part in reach.values()}) == 1

    class Seeded(Exception):
        pass

    def stop(n, arcs, cells, budget, known):
        seen.append((n, list(arcs)))
        raise Seeded

    seen = []
    monkeypatch.setattr(analysis, "canonical_form", stop)
    with pytest.raises(Seeded):
        certificate(dg)
    (n, arcs), = seen
    colors = len({c for _, comp in dg.components for c in comp.clusters})
    orbits = sum(comp.vertex_count() for _, comp in dg.components)
    assert n == colors + orbits
    service = sorted((u, v) for u, v, label in arcs if label == 0)
    assert [u for u, _ in service] == list(range(colors, n))
    assert {v for _, v in service} == set(range(colors))


def test_certificates_tell_apart_exactly_the_non_isomorphic_groups():
    """Certified whole, with no invariant deciding first, groups get equal
    certificates exactly when they are isomorphic.  elementary_abelian:2:4 is
    left out for time."""
    groups = [G for G in dv.standard_groups(24) if G.name != "elementary_abelian:2:4"]
    certs = [certificate(division_graph(G)) for G in groups]
    same = [(a.name, b.name) for (a, x), (b, y) in combinations(zip(groups, certs), 2)
            if x == y]
    isomorphic = [(a.name, b.name) for a, b in combinations(groups, 2) if dv.are_isomorphic(a, b)]
    assert same == isomorphic and len(same) > 0


def test_conjecture_scan_small():
    groups = [dv.cyclic(8), dv.dihedral(4), dv.quaternion8(),
              dv.catalog("product:cyclic:4:cyclic:2"), dv.elementary_abelian(2, 3)]
    report = conjecture_scan(groups)
    assert report.clean
    certs = {certificate(division_graph(g)) for g in groups}
    assert len(certs) == 5


def test_conjecture_scan_reports_isomorphic_duplicates():
    report = conjecture_scan([dv.symmetric(3), dv.dihedral(3)])
    assert report.clean
    assert report.matched_isomorphic == (("symmetric:3", "dihedral:3"),)


def _metacyclic(m, k, r, s):
    """<a, b | a^m = 1, b^k = a^s, b a b^-1 = a^r> on the elements a^i b^j (index
    i + m*j): a^i b^j * a^i' b^j' = a^(i + i' r^j + s [j + j' >= k]) b^((j + j') mod k).
    ``validate_cayley_table`` refuses parameters that give no group."""
    table = [[(i + i2 * r ** j + s * (j + j2 >= k)) % m + m * ((j + j2) % k)
              for j2 in range(k) for i2 in range(m)]
             for j in range(k) for i in range(m)]
    names = [f"a^{i} b^{j}" for j in range(k) for i in range(m)]
    return dv.validate_cayley_table(table, names, name=f"metacyclic:{m}:{k}:{r}:{s}")


@pytest.fixture(scope="module")
def metacyclic_pair():
    """C_8 : C_4 with b acting as a -> a^3 and as a -> a^7: not isomorphic, yet
    with equal lattice invariants, so only their certificates tell them apart."""
    A, B = _metacyclic(8, 4, 3, 0), _metacyclic(8, 4, 7, 0)
    assert not dv.are_isomorphic(A, B)
    assert (analysis._lattice_invariant(A, all_subgroups(A))
            == analysis._lattice_invariant(B, all_subgroups(B)))
    return A, B


@pytest.fixture(scope="module")
def isomorphic_catalog_pairs():
    """Every isomorphic pair of ``standard_groups(48)``, found pair by pair."""
    pairs = [(G, H) for G, H in combinations(dv.standard_groups(48), 2)
             if dv.are_isomorphic(G, H)]
    assert len(pairs) == 8 and len({G.name for pair in pairs for G in pair}) == 13
    return pairs


@pytest.mark.parametrize("with_pair, certified", [(False, 0), (True, 2)])
def test_conjecture_scan_matches_certify_everything(metacyclic_pair, with_pair, certified):
    groups = dv.standard_groups(12) + list(metacyclic_pair if with_pair else ())
    certs = [certificate(division_graph(g)) for g in groups]
    collisions, matched = [], []
    for i, j in combinations(range(len(groups)), 2):
        if certs[i] == certs[j]:
            pair = (groups[i].name, groups[j].name)
            (matched if dv.are_isomorphic(groups[i], groups[j]) else collisions).append(pair)
    report = conjecture_scan(groups)
    assert report.collisions == tuple(collisions)
    assert report.matched_isomorphic == tuple(matched)
    assert report.certified == certified


def test_conjecture_scan_certifies_a_hard_pair(metacyclic_pair):
    report = conjecture_scan(metacyclic_pair)
    assert report.clean and report.certified == 2 and report.matched_isomorphic == ()


def test_compare_separates_the_hard_pair(metacyclic_pair):
    assert compare(*metacyclic_pair).verdict == "different"


def test_conjecture_scan_certifies_one_representative_per_class(metacyclic_pair):
    A, B = metacyclic_pair
    copy = _shuffled(A, 32)
    report = conjecture_scan([A, B, copy])
    assert report.clean and report.certified == 2
    assert report.matched_isomorphic == ((A.name, copy.name),)


def test_conjecture_scan_reports_equal_certificates_as_collisions(metacyclic_pair, monkeypatch):
    A, B = metacyclic_pair
    monkeypatch.setattr(analysis, "certificate", lambda dg, budget=None: b"same")
    report = conjecture_scan([A, B])
    assert report.collisions == ((A.name, B.name),) and not report.clean


def test_conjecture_scan_budget_bounds_its_certificates(metacyclic_pair):
    with pytest.raises(dv.CanonicalizationBudgetExceeded) as caught:
        conjecture_scan(metacyclic_pair, budget=1)
    message = str(caught.value)
    assert message.startswith("canonical search exceeded 1 nodes") and "\n" not in message


def test_isomorphic_groups_have_equal_lattice_invariants(isomorphic_catalog_pairs):
    """Why the scan tests isomorphism only within a lattice-invariant bucket."""
    for G, H in isomorphic_catalog_pairs:
        assert (analysis._lattice_invariant(G, all_subgroups(G))
                == analysis._lattice_invariant(H, all_subgroups(H))), (G.name, H.name)


def test_isomorphic_groups_have_equal_certificates(isomorphic_catalog_pairs, metacyclic_pair):
    """Why the scan certifies one representative per isomorphism class."""
    A = metacyclic_pair[0]
    for G, H in isomorphic_catalog_pairs + [(A, _shuffled(A, 48))]:
        assert certificate(division_graph(G)) == certificate(division_graph(H)), (G.name, H.name)


@pytest.mark.parametrize("G", [H for G in dv.standard_groups(24) for H in (G, _shuffled(G, 23))],
                         ids=lambda G: G.name)
def test_lattice_invariant_is_read_off_the_graph(G):
    """The scan's first tier skips graphs only because its invariant is a
    function of the graph: order, subgroup orders and division count."""
    L = all_subgroups(G)
    dg = division_graph(G, L)
    from_graph = (recover_order(dg), tuple(sorted(recover_lattice(dg).order_of.values())),
                  len(dg.components))
    assert analysis._lattice_invariant(G, L) == from_graph


def _euler_phi(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


@pytest.mark.parametrize("G", [H for G in dv.standard_groups(24) for H in (G, _shuffled(G, 23))]
                         + [_metacyclic(8, 4, 3, 0), _metacyclic(8, 4, 7, 0)],
                         ids=lambda G: G.name)
def test_element_order_histogram_is_read_off_the_graph(G):
    """The scan's first tier skips lattices only because the histogram is a
    function of the graph: a component's trivial color has orbits of length
    m = ord(phi), and it stands for phi(m) elements of order m per member of
    its conjugate cyclic family."""
    dg = division_graph(G)
    sketch = recover_lattice(dg)
    _, families = recover_cyclic_colors(dg, sketch)
    from_graph = Counter()
    for (_, comp), family in zip(dg.components, families):
        m = comp.clusters[sketch.trivial_color][0]
        from_graph[m] += _euler_phi(m) * len(family)
    assert G.element_order_histogram() == dict(from_graph)


@pytest.mark.parametrize("order, groups", [(48, 104), (64, 130)])
def test_conjecture_scan_builds_lattices_only_where_histograms_collide(order, groups, monkeypatch):
    calls = Counter()

    def counted(name):
        inner = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(analysis, name, wrapper)

    counted("all_subgroups")
    counted("division_graph")
    counted("are_isomorphic")
    catalog = dv.standard_groups(order)
    report = conjecture_scan(catalog)
    assert report.clean and len(catalog) == groups
    assert [calls[name] for name in ("all_subgroups", "division_graph", "are_isomorphic")] == [
        4, 0, 9]
    assert report.certified == 0


def test_conjecture_scan_sweeps_the_metacyclic_tables(monkeypatch):
    """Every group presentation ``_metacyclic(m, k, r, s)`` with m*k <= 32 (r a
    unit mod m with r^k = 1, and r*s = s mod m): 945 tables scan clean, with
    two certificates, 13,821 isomorphic pairs and 886 isomorphism tests."""
    tables = [_metacyclic(m, k, r, s)
              for m in range(1, 33) for k in range(1, 32 // m + 1)
              for r in range(m) for s in range(m)
              if gcd(r, m) == 1 and pow(r, k, m) == 1 % m and (r * s - s) % m == 0]
    tests = Counter()
    are_isomorphic = analysis.are_isomorphic
    monkeypatch.setattr(analysis, "are_isomorphic",
                        lambda G, H: tests.update(["calls"]) or are_isomorphic(G, H))
    report = conjecture_scan(tables)
    assert len(tables) == 945 and report.clean
    assert (report.certified, len(report.matched_isomorphic), tests["calls"]) == (2, 13821, 886)


def test_conjecture_scan_refuses_a_group_above_the_cap_before_any_work(monkeypatch):
    """Refused up front, though the lone group would need no lattice."""
    monkeypatch.setattr(dv.Group, "element_order_histogram", None)
    with pytest.raises(dv.LatticeCapExceeded, match=r"^order 5 exceeds lattice cap 4$"):
        conjecture_scan([dv.cyclic(5)], lattice_cap=4)


@pytest.mark.parametrize("caps, message", [
    ({"lattice_cap": 2.5}, "lattice cap must be an int, got 2.5"),
    ({"budget": 1.5}, "budget must be an int, got 1.5"),
])
def test_conjecture_scan_refuses_a_non_int_cap_before_any_work(monkeypatch, caps, message):
    """Refused up front, though the lone group needs neither a lattice nor a
    certificate."""
    monkeypatch.setattr(dv.Group, "element_order_histogram", None)
    with pytest.raises(ValidationError) as info:
        conjecture_scan([dv.cyclic(2)], **caps)
    assert type(info.value) is ValidationError
    assert str(info.value) == message


def test_conjecture_scan_certifies_only_shared_invariants():
    """The 13 groups of ``standard_groups(48)`` that share a lattice invariant
    are isomorphic duplicates, one class per bucket, so none is certified."""
    groups = dv.standard_groups(48)
    report = conjecture_scan(groups)
    assert report.clean
    shared = Counter(analysis._lattice_invariant(g, all_subgroups(g)) for g in groups)
    assert sum(n for n in shared.values() if n > 1) == 13
    assert report.certified == 0 and len(report.matched_isomorphic) == 8


@pytest.fixture(scope="module", params=[16, 32])
def sylow2_s8_classes(request, sylow2_s8_classes_of):
    """One group per isomorphism class of order-16 (or order-32) subgroups of
    the Sylow 2-subgroup of S_8 (order 128): groups the catalog does not name."""
    classes = list(sylow2_s8_classes_of(request.param))
    assert len(classes) == 10
    return classes


def test_conjecture_scan_off_the_catalog(sylow2_s8_classes):
    report = conjecture_scan(sylow2_s8_classes)
    assert report.clean and report.certified == 0 and report.matched_isomorphic == ()


def test_conjecture_scan_matches_a_relabelled_off_catalog_group(sylow2_s8_classes):
    H = next(H for H in sylow2_s8_classes if not H.is_abelian())
    report = conjecture_scan(sylow2_s8_classes + [_shuffled(H, 16)])
    assert report.clean and report.certified == 0
    assert len(report.matched_isomorphic) == 1


# -- subgroup and quotient extraction ---------------------------------------------------


@pytest.mark.parametrize("descriptor,sub_order", [
    ("quaternion8", 4),
    ("quaternion8", 2),
    ("symmetric:3", 3),
    ("symmetric:3", 2),
    ("cyclic:12", 6),
])
def test_subgroup_extraction_matches_direct(descriptor, sub_order):
    G = dv.catalog(descriptor)
    L = all_subgroups(G)
    dg = division_graph(G, L)
    h_id = next(s.id for s in L.subgroups if s.order == sub_order)
    extracted, direct = extract(G, L, dg, h_id)
    assert set(extracted) == set(direct)


def test_subgroup_extraction_klein_in_s4(s4):
    from divgraph.perms import Permutation

    L = all_subgroups(s4)
    a = s4.perm_images.index(Permutation.from_cycles([(1, 2), (3, 4)], 4))
    b = s4.perm_images.index(Permutation.from_cycles([(1, 3), (2, 4)], 4))
    v4 = L.id_of(sorted([0, a, b, s4.mul(a, b)]))
    dg = division_graph(s4, L)
    extracted, direct = extract(s4, L, dg, v4)
    assert set(extracted) == set(direct)
    assert len(direct) == 4  # klein4 has four divisions

    # the color-renaming reading of deduplication over-merges: the three
    # involution components are isomorphic once colors may be renamed
    sketch = recover_lattice(dg)
    loose = set()
    for clusters, arcs in restricted_components(dg, v4):
        colors = sorted(clusters)
        order_key = {c: sketch.order_of[c] for c in colors}
        loose.add(encoding(clusters, arcs, lambda c: order_key[c]))
    assert len(loose) < len(direct)


@pytest.mark.parametrize("descriptor,normal_order,quotient_descriptor", [
    ("quaternion8", 2, "klein4"),
    ("quaternion8", 4, "cyclic:2"),
    ("symmetric:3", 3, "cyclic:2"),
    ("cyclic:12", 3, "cyclic:4"),
    ("heisenberg27", 3, "elementary_abelian:3:2"),
    ("symmetric:4", 4, "symmetric:3"),  # S4 / V4
    ("symmetric:4", 12, "cyclic:2"),
])
def test_quotient_extraction_matches_direct(descriptor, normal_order, quotient_descriptor):
    G = dv.catalog(descriptor)
    L = all_subgroups(G)
    dg = division_graph(G, L)
    from divgraph.lattice import is_normal

    h_id = next(
        s.id for s in L.subgroups
        if s.order == normal_order and is_normal(L, s)
    )
    extracted, direct = extract(G, L, dg, h_id, quotient=True)
    assert set(extracted) == set(direct)
    # and the quotient is the expected group
    from divgraph.groups import quotient_group

    q, _ = quotient_group(G, L.subgroups[h_id].members)
    assert dv.are_isomorphic(q, dv.catalog(quotient_descriptor))


def test_subgroup_restriction_from_symmetric_group():
    # components of D(H) extracted from D(S_n) for catalog subgroups H <= S_n
    cases = [
        (dv.symmetric(3), 3),   # A3 inside S3
        (dv.symmetric(4), 4),   # any order-4 subgroup of S4
        (dv.symmetric(4), 8),   # dihedral sylow of S4
        (dv.symmetric(4), 12),  # A4 inside S4
        (dv.symmetric(4), 24),  # edge case: restricting to the full group
    ]
    for G, sub_order in cases:
        L = all_subgroups(G)
        dg = division_graph(G, L)
        h_id = next(s.id for s in L.subgroups if s.order == sub_order)
        extracted, direct = extract(G, L, dg, h_id)
        assert set(extracted) == set(direct), (G.name, sub_order)


def test_component_encoding_distinguishes_lengths():
    g = dv.cyclic(4)
    L = all_subgroups(g)
    from divgraph.ust import ust_component

    divs = dv.divisions(g)
    enc = {
        encoding(comp.clusters, comp.arc_list(), lambda c: c)
        for comp in (ust_component(g, L, d) for d in divs)
    }
    assert len(enc) == 3  # three structurally distinct components


def test_subgroup_restriction_from_s5():
    # corollary coverage at n = 5: components of D(H) extracted from D(S5)
    s5 = dv.symmetric(5)
    L = all_subgroups(s5)
    dg = division_graph(s5, L)
    for sub_order in (5, 6, 12):
        h_id = next(s.id for s in L.subgroups if s.order == sub_order)
        extracted, direct = extract(s5, L, dg, h_id)
        assert set(extracted) == set(direct), sub_order


def test_extraction_recovers_no_lattice(s4, monkeypatch):
    calls = []
    original = analysis.recover_lattice
    monkeypatch.setattr(analysis, "recover_lattice",
                        lambda dg: calls.append(dg) or original(dg))
    L = all_subgroups(s4)
    dg = division_graph(s4, L)
    for h_id in normal_subgroup_ids(L):
        extracted, direct = extract(s4, L, dg, h_id, quotient=True)
        assert set(extracted) == set(direct)
        extracted, direct = extract(s4, L, dg, h_id)
        assert set(extracted) == set(direct)
    assert calls == []


def test_walks_reach_the_sketch_subgroups_and_overgroups():
    """The walk up from an orbit of color h reaches the colors the sketch
    puts below h; the walk down reaches every orbit of the colors above h
    and takes the arcs between them."""
    for G in dv.standard_groups(24):
        dg = division_graph(G)
        sketch = recover_lattice(dg)
        for h in sketch.colors:
            below = {c for c in sketch.colors if sketch.contains(h, c)}
            above = {c for c in sketch.colors if sketch.contains(c, h)}
            for clusters, _ in restricted_components(dg, h):
                assert set(clusters) == below, (G.name, h)
            for (clusters, arcs), (_, whole) in zip(quotient_components(dg, h), dg.components):
                assert clusters == {c: whole.clusters[c] for c in above}, (G.name, h)
                assert sorted(arcs) == sorted(
                    arc for arc in whole.arc_list() if arc[0][0] in above and arc[1][0] in above
                ), (G.name, h)


def _shuffled_graph_copy(dg, rng):
    """Permute components, apply a global color bijection, and shuffle orbit
    order within clusters: the announced certificate equivalence."""
    return _shuffled_graph_copy_and_color_map(dg, rng)[0]


def _shuffled_graph_copy_and_color_map(dg, rng):
    from divgraph.ust import DivisionGraph, USTComponent

    colors = sorted({c for _, comp in dg.components for c in comp.clusters})
    new_ids = rng.sample(range(1000, 1000 + 10 * len(colors)), len(colors))
    color_map = dict(zip(colors, new_ids))
    components = []
    for d, comp in dg.components:
        perms = {}
        slot_maps = {}
        clusters = {}
        orbit_of = {}
        for color, orbits in comp.clusters.items():
            perm = perms[color] = list(range(len(orbits)))
            rng.shuffle(perm)
            # perm[new_idx] = old_idx
            slot_maps[color] = {old: new for new, old in enumerate(perm)}
            clusters[color_map[color]] = tuple(orbits[old] for old in perm)
            orbit_of[color_map[color]] = tuple(slot_maps[color][k] for k in comp.orbit_of[color])
        # new upper orbit u is old orbit perm[u], so its arc moves to index u
        blocks = sorted(
            (color_map[low], color_map[up],
             tuple(slot_maps[low][targets[old]] for old in perms[up]),
             tuple(labels[old] for old in perms[up]))
            for low, up, targets, labels in comp.arcs
        )
        components.append((d, USTComponent(comp.division_rep, clusters, orbit_of,
                                           tuple(blocks))))
    rng.shuffle(components)
    return DivisionGraph(dg.group_name, tuple(components)), color_map


def test_certificate_invariant_under_representation_shuffle(q8, s3):
    rng = random.Random(99)
    for G in (q8, s3, dv.cyclic(6)):
        dg = division_graph(G)
        base = certificate(dg)
        for _ in range(5):
            shuffled = _shuffled_graph_copy(dg, rng)
            assert certificate(shuffled) == base, G.name


def test_conjecture_scan_singleton():
    report = conjecture_scan([dv.quaternion8()])
    assert report.clean and not report.matched_isomorphic


def test_recover_order_rejects_malformed():
    from divgraph.errors import MalformedGraph
    from divgraph.ust import DivisionGraph

    dg = division_graph(dv.cyclic(3))
    # drop the identity component: no all-label-1 component remains
    broken = DivisionGraph(dg.group_name, dg.components[1:])
    with pytest.raises(MalformedGraph):
        recover_order(broken)


def _with_component(dg, ci, comp):
    comps = list(dg.components)
    comps[ci] = (comps[ci][0], comp)
    return DivisionGraph(dg.group_name, tuple(comps))


def test_recover_lattice_rejects_inconsistent_label_sums():
    """In cyclic:4 the division [2] has two orbits of length 2 on the
    trivial subgroup's cosets, each over its own length-1 orbit of the
    order-2 subgroup by an arc of label 2.  Changing one of those labels
    makes the label sums of that component disagree."""
    from dataclasses import replace
    from divgraph.errors import MalformedGraph

    dg = division_graph(dv.cyclic(4))
    ci = next(i for i, (d, _) in enumerate(dg.components) if d.representative == 2)
    comp = dg.components[ci][1]
    b = next(b for b, (*_, labels) in enumerate(comp.arcs) if 2 in labels)
    low, up, targets, labels = comp.arcs[b]
    labels = list(labels)
    labels[labels.index(2)] = 1
    arcs = list(comp.arcs)
    arcs[b] = (low, up, targets, tuple(labels))
    with pytest.raises(MalformedGraph, match="^label sums disagree on the index of "):
        recover_lattice(_with_component(dg, ci, replace(comp, arcs=tuple(arcs))))


def test_recover_lattice_rejects_components_that_disagree_on_an_index():
    """Doubling every label of one cover pair in one component keeps that
    component's sums consistent but gives it another index than the rest."""
    from dataclasses import replace
    from divgraph.errors import MalformedGraph

    dg = division_graph(dv.cyclic(4))
    ci = next(i for i, (d, _) in enumerate(dg.components) if d.representative == 2)
    comp = dg.components[ci][1]
    arcs = tuple((low, up, targets, tuple(2 * label for label in labels) if 2 in labels else labels)
                 for low, up, targets, labels in comp.arcs)
    broken = _with_component(dg, ci, replace(comp, arcs=arcs))
    with pytest.raises(MalformedGraph, match="^label sums disagree on the index of "):
        recover_lattice(broken)


def test_recover_lattice_rejects_disagreeing_color_sets_and_an_empty_graph():
    from dataclasses import replace
    from divgraph.errors import MalformedGraph

    dg = division_graph(dv.cyclic(4))
    comp = dg.components[1][1]
    fewer = replace(comp, clusters={c: o for c, o in comp.clusters.items() if c != 0})
    with pytest.raises(MalformedGraph, match="^components disagree on the color set$"):
        recover_lattice(_with_component(dg, 1, fewer))
    with pytest.raises(MalformedGraph, match="^empty division graph$"):
        recover_lattice(DivisionGraph(dg.group_name, ()))


def test_recover_lattice_rejects_a_cluster_size_that_does_not_divide_the_order():
    """cyclic:4's identity component has clusters of 4, 2 and 1 orbits.
    Dropping one orbit of the trivial subgroup's cluster reads the order as
    3, which the order-2 subgroup's cluster of 2 does not divide."""
    from dataclasses import replace
    from divgraph.errors import MalformedGraph

    dg = division_graph(dv.cyclic(4))
    comp = dg.components[0][1]
    assert comp.clusters == {0: (1, 1, 1, 1), 1: (1, 1), 2: (1,)}
    short = replace(comp, clusters={**comp.clusters, 0: (1, 1, 1)})
    with pytest.raises(MalformedGraph, match="^cluster size 2 does not divide 3$"):
        recover_lattice(_with_component(dg, 0, short))
