"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single ``ACCEPTANCE n: PASS (t s)`` line (visible with
pytest -s or -v plus -rA) and asserts both the mathematical content and the
stated wall-clock budget.
"""

import hashlib
import random
import time

import pytest

import divgraph as dv
from divgraph.analysis import certificate, compare, conjecture_scan
from divgraph.divisions import conjugacy_classes, divisions
from divgraph.lattice import all_subgroups, cyclic_subgroup_ids, normal_subgroup_ids
from divgraph.perms import Permutation
from divgraph.ust import division_graph, right_cosets, ust_component, verify_lagarias
from divgraph.analysis import (
    recover_cyclic_colors,
    recover_lattice,
    recover_normal_colors,
    recover_order,
)
from extraction import orbit_decomposition


def _report(number: int, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f} s, budget {budget:.0f} s)")
    assert elapsed < budget


def criterion_3_groups():
    groups = dv.standard_groups(48)
    names = {g.name for g in groups}
    # the named extras are all produced by the sweep already; assert so
    for required in ("symmetric:4", "alternating:4", "dihedral:4", "dihedral:6",
                     "heisenberg27", "elementary_abelian:3:3"):
        assert required in names
    return groups


def test_acceptance_1_q8_golden():
    started = time.monotonic()
    q8 = dv.quaternion8()
    divs = divisions(q8)
    names = [tuple(q8.names[g] for g in d.members) for d in divs]
    assert names == [("1",), ("-1",), ("i", "-i"), ("j", "-j"), ("k", "-k")]

    L = all_subgroups(q8)
    minus1 = q8.names.index("-1")
    per_subgroup = {}
    for s in L.subgroups:
        orbits = orbit_decomposition(right_cosets(q8, L, s.id), q8, minus1)
        lengths = {o.length for o in orbits}
        assert len(lengths) == 1
        per_subgroup[s.members] = (len(orbits), lengths.pop())
    assert per_subgroup[tuple(range(8))] == (1, 1)        # G\G
    assert per_subgroup[(0, 1, 2, 3)] == (2, 1)           # <i>
    assert per_subgroup[(0, 1, 4, 5)] == (2, 1)           # <j>
    assert per_subgroup[(0, 1, 6, 7)] == (2, 1)           # <k>
    assert per_subgroup[(0, 1)] == (4, 1)                 # <-1>
    assert per_subgroup[(0,)] == (4, 2)                   # trivial

    comp = ust_component(q8, L, divs[1])
    assert sorted(comp.cluster_sizes().values()) == [1, 2, 2, 2, 4, 4]
    arcs = comp.arc_list()
    twos = [up for _, up, label in arcs if label == 2]
    assert len(twos) == 4
    assert {label for *_, label in arcs} <= {1, 2}
    assert all(up[0] == L.trivial_id for up in twos)
    _report(1, started, 1.0)


# expected per-component structure of the small stock groups: a mapping
# division-representative-name -> (sorted cluster sizes, {label: count})
SMALL_GROUP_EXPECTATIONS = {
    "cyclic:2": {"0": ([1, 2], {1: 2}), "1": ([1, 1], {2: 1})},
    "cyclic:3": {"0": ([1, 3], {1: 3}), "1": ([1, 1], {3: 1})},
    "cyclic:5": {"0": ([1, 5], {1: 5}), "1": ([1, 1], {5: 1})},
    "cyclic:4": {
        "0": ([1, 2, 4], {1: 6}),
        "1": ([1, 1, 1], {2: 2}),
        "2": ([1, 2, 2], {1: 2, 2: 2}),
    },
    "klein4": {
        "(0,0)": ([1, 2, 2, 2, 4], {1: 18}),
        "(0,1)": ([1, 1, 1, 2, 2], {1: 6, 2: 4}),
        "(1,0)": ([1, 1, 1, 2, 2], {1: 6, 2: 4}),
        "(1,1)": ([1, 1, 1, 2, 2], {1: 6, 2: 4}),
    },
    # (2 3) is the transposition of least element index in the lexicographic
    # element ordering, so it represents the involution division
    "symmetric:3": {
        "()": ([1, 2, 3, 3, 3, 6], {1: 35}),
        "(2 3)": ([1, 1, 2, 2, 2, 3], {1: 12, 2: 7}),
        "(1 2 3)": ([1, 1, 1, 1, 2, 2], {1: 8, 3: 5}),
    },
    "quaternion8": {
        "1": ([1, 2, 2, 2, 4, 8], {1: 26}),
        "-1": ([1, 2, 2, 2, 4, 4], {1: 18, 2: 4}),
        "i": ([1, 1, 1, 2, 2, 2], {1: 6, 2: 6}),
        "j": ([1, 1, 1, 2, 2, 2], {1: 6, 2: 6}),
        "k": ([1, 1, 1, 2, 2, 2], {1: 6, 2: 6}),
    },
}

EXPECTED_COMPONENT_COUNTS = {
    "cyclic:2": 2, "cyclic:3": 2, "cyclic:5": 2,
    "cyclic:4": 3, "klein4": 4, "symmetric:3": 3, "quaternion8": 5,
}


def test_acceptance_2_small_group_fixtures():
    started = time.monotonic()
    for descriptor, expected in SMALL_GROUP_EXPECTATIONS.items():
        G = dv.catalog(descriptor)
        dg = division_graph(G)
        assert len(dg.components) == EXPECTED_COMPONENT_COUNTS[descriptor], descriptor
        seen = {}
        for d, comp in dg.components:
            sizes = sorted(comp.cluster_sizes().values())
            labels = comp.label_multiset()
            seen[G.names[d.representative]] = (sizes, labels)
        assert seen == expected, descriptor
    _report(2, started, 1.0)


def test_acceptance_3_lagarias_catalog():
    started = time.monotonic()
    for G in criterion_3_groups():
        report = verify_lagarias(G)
        assert report.passed, (G.name, report.violations[:3])
    _report(3, started, 120.0)


def test_acceptance_4_golomb_up_to_120():
    started = time.monotonic()
    checked = 0
    for G in dv.standard_groups(120):
        # golomb_classes verifies the n/k size rule internally
        assert dv.golomb_classes(G) == conjugacy_classes(G), G.name
        checked += 1
    assert checked > 150
    _report(4, started, 60.0)


def test_acceptance_5_divisions_vs_classes():
    started = time.monotonic()
    partition_counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}
    for n in range(2, 7):
        G = dv.symmetric(n)
        classes = conjugacy_classes(G)
        divs = divisions(G, classes)
        assert len(classes) == len(divs) == partition_counts[n]
        class_sets = {c.members for c in classes}
        assert {d.members for d in divs} == class_sets
        types = {G.perm_images[c.representative].cycle_type() for c in classes}
        assert len(types) == partition_counts[n]

    z33 = dv.from_permutation_generators(
        [Permutation.from_cycles([(1, 2, 3)], 6),
         Permutation.from_cycles([(4, 5, 6)], 6)], 6)
    assert z33.order == 9
    assert len({z33.perm_images[g].cycle_type() for g in z33.elements()}) == 3
    assert len(conjugacy_classes(z33)) == 9
    assert len(divisions(z33)) == 5

    s4 = dv.symmetric(4)
    a = s4.perm_images.index(Permutation.from_cycles([(1, 2), (3, 4)], 4))
    b = s4.perm_images.index(Permutation.from_cycles([(1, 3), (2, 4)], 4))
    sub, members = dv.subgroup_as_group(s4, sorted([0, a, b, s4.mul(a, b)]))
    local = {g: i for i, g in enumerate(members)}
    div_of_a = dv.division_of(sub, local[a])
    assert local[b] not in div_of_a.members
    _report(5, started, 30.0)


def _alternating_from_generators(n: int):
    if n <= 2:
        return dv.from_permutation_generators([], n)
    if n == 3:
        gens = [Permutation.from_cycles([(1, 2, 3)], 3)]
    elif n % 2 == 1:
        gens = [Permutation.from_cycles([(1, 2, 3)], n),
                Permutation.from_cycles([tuple(range(1, n + 1))], n)]
    else:
        gens = [Permutation.from_cycles([(1, 2, 3)], n),
                Permutation.from_cycles([tuple(range(2, n + 1))], n)]
    return dv.from_permutation_generators(gens, n)


def test_acceptance_6_alternating_divisions():
    started = time.monotonic()
    from math import factorial

    for n in range(2, 8):
        G = _alternating_from_generators(n)
        assert G.order == max(1, factorial(n) // 2)
        mapping = dv.alternating_divisions_by_type(n)
        brute = {}
        for d in divisions(G):
            t = (G.perm_images[d.representative].cycle_type()
                 if G.perm_images else (1,) * n)
            brute[t] = brute.get(t, 0) + 1
        assert brute == mapping, n

    # conjugator-parity verdicts for coprime powers within split classes;
    # note (11,3): both factor conjugators are odd, so the pi -> pi^2
    # conjugator is even and the two classes fuse through pi^5 instead
    cases = [
        ([(1, 2, 3, 4, 5)], 5, 2, False),
        ([(1, 2, 3, 4, 5, 6, 7), (8, 9, 10)], 10, 2, False),
        ([tuple(range(1, 14))], 13, 2, False),
        ([tuple(range(1, 12)), (12, 13, 14)], 14, 2, True),
        ([tuple(range(1, 12)), (12, 13, 14)], 14, 5, False),
        ([tuple(range(1, 10)), (10, 11, 12, 13, 14)], 14, 2, False),
        ([tuple(range(1, 10))], 10, 2, True),
        ([tuple(range(1, 10))], 10, 4, True),
    ]
    for cycles, n, k, same in cases:
        pi = Permutation.from_cycles(cycles, n)
        assert dv.same_class_in_alternating(pi, pi ** k, n) is same, (cycles, k)

    assert dv.alternating_divisions_by_type(10)[(9, 1)] == 2
    _report(6, started, 120.0)


def test_acceptance_7_theorem_extraction():
    started = time.monotonic()
    for G in criterion_3_groups():
        L = all_subgroups(G)
        dg = division_graph(G, L)
        assert recover_order(dg) == G.order, G.name
        sketch = recover_lattice(dg)
        assert sketch.covers == tuple(sorted(L.covers)), G.name
        assert recover_normal_colors(dg) == frozenset(normal_subgroup_ids(L)), G.name
        cyc, families = recover_cyclic_colors(dg, sketch)
        assert cyc == frozenset(cyclic_subgroup_ids(L)), G.name
        for (d, _), family in zip(dg.components, families):
            members = [0]
            x = d.representative
            while x != 0:
                members.append(x)
                x = G.mul(x, d.representative)
            expected = L.classes[L.id_of(sorted(members))]
            assert family == expected, (G.name, d.representative)
    _report(7, started, 120.0)


def test_acceptance_8_order_27_pair():
    started = time.monotonic()
    ea = dv.elementary_abelian(3, 3)
    h27 = dv.heisenberg27()
    assert ea.order == h27.order == 27
    hist = ea.element_order_histogram()
    assert hist == h27.element_order_histogram() == {1: 1, 3: 26}
    result = compare(ea, h27)
    assert result.verdict == "different"
    # certificate bytes are pinned; they change only with a version bump
    assert hashlib.sha256(result.left).hexdigest() == (
        "dfd852cd498fa0f487cb3176cc2ca541523fab591e9de147164af89a53cc8feb")
    assert hashlib.sha256(result.right).hexdigest() == (
        "91110ab2bde5a68bf624c27d56a240d8be716a3d6fb3bbbf44728a925944ef66")
    _report(8, started, 60.0)


def test_acceptance_9_conjecture_scan_upto_15():
    started = time.monotonic()
    groups = [g for g in dv.standard_groups(15)]
    report = conjecture_scan(groups)
    assert report.clean, report.collisions
    # sanity: the scan covered a real spread of groups
    assert len(groups) >= 25
    _report(9, started, 300.0)


def test_acceptance_10_certificate_invariance():
    started = time.monotonic()
    rng = random.Random(0xD1501)
    for G in (dv.quaternion8(), dv.symmetric(4)):
        base = certificate(division_graph(G))
        for _ in range(100):
            perm = list(range(G.order))
            rng.shuffle(perm)
            relabeled = dv.relabeled_copy(G, perm)
            assert certificate(division_graph(relabeled)) == base, G.name
    _report(10, started, 60.0)
