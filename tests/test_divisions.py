from importlib import import_module
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import divgraph as dv
from divgraph.divisions import standard_conjugator
from divgraph.errors import (NotEvenClass, NotSplitClass, ResourceCapExceeded, TypeMismatch,
                             ValidationError)
from divgraph.perms import Permutation


# -- conjugacy classes ------------------------------------------------------------


def test_s3_class_sizes(s3):
    classes = dv.conjugacy_classes(s3)
    assert sorted(len(c.members) for c in classes) == [1, 2, 3]


def test_abelian_classes_are_singletons():
    g = dv.cyclic(12)
    assert all(len(c.members) == 1 for c in dv.conjugacy_classes(g))


def test_z3xz3_in_s6_has_nine_classes():
    g = dv.from_permutation_generators(
        [Permutation.from_cycles([(1, 2, 3)], 6),
         Permutation.from_cycles([(4, 5, 6)], 6)], 6)
    assert len(dv.conjugacy_classes(g)) == 9


def test_classes_partition_group(s4):
    classes = dv.conjugacy_classes(s4)
    seen = sorted(g for c in classes for g in c.members)
    assert seen == list(range(24))
    for c in classes:
        assert c.representative == min(c.members)


# -- Golomb table symmetry ----------------------------------------------------------


def symmetric_pair_count(G, c: int, d: int) -> int:
    """Number of cells (a, b) of the table with ab = c and ba = d."""
    return sum(G.mul(a, b) == c and G.mul(b, a) == d
               for a in range(G.order) for b in range(G.order))


def test_golomb_identity_class():
    g = dv.cyclic(5)
    classes = dv.golomb_classes(g)
    assert classes[0].members == (0,)
    assert symmetric_pair_count(g, 0, 0) == 5  # n appearances -> size n/n = 1


def test_golomb_s3_transposition_count(s3):
    # oracle: scan the full table for symmetric appearances of a fixed pair
    transpositions = [g for g in s3.elements() if s3.element_order(g) == 2]
    c, d = transpositions[0], transpositions[1]
    k = symmetric_pair_count(s3, c, d)
    assert k == 2
    assert 6 // k == 3  # the transposition class has three elements
    classes = {cl.members for cl in dv.golomb_classes(s3)}
    assert tuple(sorted(transpositions)) in classes


def test_golomb_q8_pair_i_minus_i(q8):
    i, minus_i = 2, 3
    k = symmetric_pair_count(q8, i, minus_i)
    assert k == 4
    assert 8 // k == 2
    classes = {c.members for c in dv.golomb_classes(q8)}
    assert (i, minus_i) in classes


@pytest.mark.parametrize("descriptor", [
    "symmetric:3", "symmetric:4", "quaternion8", "dihedral:5",
    "heisenberg27", "alternating:4", "cyclic:16",
])
def test_golomb_equals_direct(descriptor):
    g = dv.catalog(descriptor)
    assert dv.golomb_classes(g) == dv.conjugacy_classes(g)


# -- divisions -----------------------------------------------------------------------


def test_q8_divisions_exactly_as_listed(q8):
    divs = dv.divisions(q8)
    names = [tuple(q8.names[g] for g in d.members) for d in divs]
    assert names == [("1",), ("-1",), ("i", "-i"), ("j", "-j"), ("k", "-k")]


def test_cyclic4_divisions():
    g = dv.cyclic(4)
    divs = dv.divisions(g)
    assert [d.members for d in divs] == [(0,), (1, 3), (2,)]


def test_klein4_divisions_all_singletons(klein):
    divs = dv.divisions(klein)
    assert [d.members for d in divs] == [(0,), (1,), (2,), (3,)]


def test_z3xz3_has_five_divisions():
    g = dv.from_permutation_generators(
        [Permutation.from_cycles([(1, 2, 3)], 6),
         Permutation.from_cycles([(4, 5, 6)], 6)], 6)
    divs = dv.divisions(g)
    assert len(divs) == 5
    types = {
        tuple(sorted(g.perm_images[m].cycle_type() for m in d.members))
        for d in divs
    }
    # three cycle types across the nine elements
    all_types = {g.perm_images[m].cycle_type() for m in range(9)}
    assert len(all_types) == 3


def test_division_of_refuses_an_element_outside_the_group(s4):
    with pytest.raises(ValueError) as info:
        dv.division_of(s4, 24)
    assert str(info.value) == "element 24 outside 0..23"


@pytest.mark.parametrize("g", [True, 1.0])
def test_division_of_refuses_an_element_that_is_not_an_int(s4, g):
    with pytest.raises(ValueError) as info:
        dv.division_of(s4, g)
    assert type(info.value) is ValueError
    assert str(info.value) == f"element {g!r} outside 0..23"


@pytest.mark.parametrize("cap", [5.5, True])
def test_alternating_divisions_cap_must_be_an_int(cap):
    with pytest.raises(ValidationError) as info:
        dv.alternating_divisions_by_type(5, cap=cap)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"cap must be an int, got {cap!r}"


def test_division_of_identity_is_singleton(s4):
    d = dv.division_of(s4, 0)
    assert d.members == (0,)


def test_klein_subgroup_of_s4_separates_double_transpositions(s4):
    a = s4.perm_images.index(Permutation.from_cycles([(1, 2), (3, 4)], 4))
    b = s4.perm_images.index(Permutation.from_cycles([(1, 3), (2, 4)], 4))
    sub, members = dv.subgroup_as_group(s4, sorted([0, a, b, s4.mul(a, b)]))
    local = {g: i for i, g in enumerate(members)}
    d = dv.division_of(sub, local[a])
    assert local[b] not in d.members


def test_s4_four_cycles_form_one_division(s4):
    four_cycle = s4.perm_images.index(Permutation.from_cycles([(1, 2, 3, 4)], 4))
    d = dv.division_of(s4, four_cycle)
    assert len(d.members) == 6
    assert all(s4.perm_images[m].cycle_type() == (4,) for m in d.members)


def test_divisions_are_unions_of_classes_with_common_order(s4):
    classes = dv.conjugacy_classes(s4)
    divs = dv.divisions(s4, classes)
    seen = sorted(g for d in divs for g in d.members)
    assert seen == list(range(24))
    for d in divs:
        rebuilt = sorted(g for i in d.classes for g in classes[i].members)
        assert rebuilt == list(d.members)
        assert {s4.element_order(g) for g in d.members} == {d.common_order}


def test_sn_divisions_equal_classes_equal_partitions():
    def partitions(n):
        def parts(remaining, maximum):
            if remaining == 0:
                yield ()
                return
            for first in range(min(remaining, maximum), 0, -1):
                for rest in parts(remaining - first, first):
                    yield (first,) + rest
        return list(parts(n, n))

    for n in range(2, 6):
        g = dv.symmetric(n)
        classes = dv.conjugacy_classes(g)
        divs = dv.divisions(g, classes)
        assert len(divs) == len(classes) == len(partitions(n))


def test_abelian_divisions_are_generator_sets():
    for g in [dv.cyclic(12), dv.elementary_abelian(3, 2),
              dv.catalog("product:cyclic:2:cyclic:4")]:
        for d in dv.divisions(g):
            rep = d.representative
            order = g.element_order(rep)
            expected = sorted({
                g.power(rep, k) for k in range(1, order + 1) if gcd(k, order) == 1
            } or {0})
            assert list(d.members) == expected


def test_division_members_share_cycle_type(s4):
    for d in dv.divisions(s4):
        types = {s4.perm_images[m].cycle_type() for m in d.members}
        assert len(types) == 1


def test_homomorphic_image_of_division_is_division():
    # checked on catalog quotients; not relied on by any algorithm
    cases = [
        (dv.quaternion8(), [0, 1]),
        (dv.heisenberg27(), None),  # center, computed below
        (dv.symmetric(4), None),    # klein four subgroup
    ]
    for G, normal in cases:
        if normal is None:
            center = [z for z in G.elements()
                      if all(G.mul(z, x) == G.mul(x, z) for x in G.elements())]
            if len(center) > 1:
                normal = center
            else:
                normal = [0] + [g for g in G.elements()
                                if G.element_order(g) == 2
                                and dv.division_of(G, g).members ==
                                tuple(sorted({g}))]
                # fall back to the klein four subgroup of S4
                from divgraph.perms import Permutation as P
                a = G.perm_images.index(P.from_cycles([(1, 2), (3, 4)], 4))
                b = G.perm_images.index(P.from_cycles([(1, 3), (2, 4)], 4))
                normal = sorted([0, a, b, G.mul(a, b)])
        quotient, coset_of = dv.quotient_group(G, normal)
        image_divisions = {d.members for d in dv.divisions(quotient)}
        for d in dv.divisions(G):
            image = tuple(sorted({coset_of[g] for g in d.members}))
            assert image in image_divisions, (G.name, d.members)


# -- alternating-group machinery --------------------------------------------------------


def test_split_detection():
    assert dv.class_splits_in_alternating((5,)) is True
    assert dv.class_splits_in_alternating((3, 3)) is False
    assert dv.class_splits_in_alternating((2, 2)) is False
    assert dv.class_splits_in_alternating((9, 1)) is True
    with pytest.raises(NotEvenClass):
        dv.class_splits_in_alternating((2, 1))


def test_split_inverse_closure():
    assert dv.split_class_inverse_closed((7, 3)) is True
    assert dv.split_class_inverse_closed((3,)) is False
    assert dv.split_class_inverse_closed((5,)) is True
    with pytest.raises(NotSplitClass):
        dv.split_class_inverse_closed((3, 3))


def test_a3_inverse_pair_classes_fuse_into_one_division():
    # (1 2 3) and (1 3 2) lie in different A3 classes but one division
    a3 = dv.alternating(3)
    classes = dv.conjugacy_classes(a3)
    assert len(classes) == 3
    divs = dv.divisions(a3)
    assert len(divs) == 2
    assert len(divs[1].members) == 2


def test_ambivalent_alternating_list():
    assert [n for n in range(2, 20) if dv.ambivalent_alternating(n)] == [2, 5, 6, 10, 14]


@pytest.mark.parametrize("t", [(2.9, 2.1), (7.5, 1.2), ("5", "3", "1"), (True,), (5.0,)])
def test_partition_parts_must_be_ints_not_coerced(t):
    """A float, a string or a bool is refused, not read as the int it rounds to."""
    for check in (dv.class_splits_in_alternating, dv.split_class_inverse_closed):
        with pytest.raises(ValueError) as info:
            check(t)
        assert str(info.value) == f"not a partition of a positive integer: {t}"


@pytest.mark.parametrize("t, message", [
    ((3, 0), "not a partition of a positive integer: (3, 0)"),
    ((3, -1, 1), "not a partition of a positive integer: (3, -1, 1)"),
    ((), "not a partition of a positive integer: ()"),
    ((1, 3), "partition must be weakly decreasing: (1, 3)"),
])
def test_partition_refusals_name_the_fault(t, message):
    with pytest.raises(ValueError) as info:
        dv.class_splits_in_alternating(t)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [5.0, "7", True, None])
def test_alternating_degrees_must_be_ints(n):
    with pytest.raises(ValidationError) as info:
        dv.alternating_divisions_by_type(n)
    assert str(info.value) == f"degree must be an int, got {n!r}"
    with pytest.raises(ValueError) as info:
        dv.ambivalent_alternating(n)
    assert str(info.value) == f"alternating ambivalence needs an int degree, got {n!r}"


def test_ambivalent_alternating_refuses_degree_one():
    with pytest.raises(ValueError) as info:
        dv.ambivalent_alternating(1)
    assert str(info.value) == "alternating ambivalence needs n >= 2, got 1"


SPLIT_PARITY_CASES = [
    # (cycles of pi, n, same A_n class as pi**2?)
    ([(1, 2, 3, 4, 5)], 5, False),
    ([(1, 2, 3, 4, 5, 6, 7), (8, 9, 10)], 10, False),
    ([(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)], 13, False),
    # for (11,3) the pi -> pi^2 conjugator is even (two odd factor
    # conjugators), so pi^2 stays put; the classes fuse through pi^5 instead
    ([(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), (12, 13, 14)], 14, True),
    ([(1, 2, 3, 4, 5, 6, 7, 8, 9), (10, 11, 12, 13, 14)], 14, False),
    ([(1, 2, 3, 4, 5, 6, 7, 8, 9)], 10, True),
]


@pytest.mark.parametrize("cycles,n,same", SPLIT_PARITY_CASES)
def test_conjugator_parity_verdicts_for_squares(cycles, n, same):
    pi = Permutation.from_cycles(cycles, n)
    assert dv.same_class_in_alternating(pi, pi ** 2, n) is same


def test_eleven_three_fuses_through_fifth_power():
    pi = Permutation.from_cycles([tuple(range(1, 12)), (12, 13, 14)], 14)
    assert dv.same_class_in_alternating(pi, pi ** 5, 14) is False
    # so the type still carries a single division
    assert dv.alternating_divisions_by_type(14)[(11, 3)] == 1


def test_nine_cycle_fourth_power_also_stays():
    pi = Permutation.from_cycles([tuple(range(1, 10))], 10)
    assert dv.same_class_in_alternating(pi, pi ** 4, 10) is True


def test_stated_conjugators_work_and_have_stated_parity():
    # explicitly given conjugators: s^-1 pi s relabels pi's cycles by s
    cases = [
        ([(1, 2, 3, 4, 5)], 5, [(2, 3, 5, 4)], False),
        ([(1, 2, 3, 4, 5, 6, 7), (8, 9, 10)], 10,
         [(2, 3, 5), (4, 7, 6), (9, 10)], False),
        ([(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)], 13,
         [(2, 3, 5, 9, 4, 7, 13, 12, 10, 6, 11, 8)], False),
        ([(1, 2, 3, 4, 5, 6, 7, 8, 9), (10, 11, 12, 13, 14)], 14,
         [(2, 3, 5, 9, 8, 6), (4, 7), (11, 12, 14, 13)], False),
        ([(1, 2, 3, 4, 5, 6, 7, 8, 9)], 10, [(2, 3, 5, 9, 8, 6), (4, 7)], True),
    ]
    for pi_cycles, n, tau_cycles, even in cases:
        pi = Permutation.from_cycles(pi_cycles, n)
        tau = Permutation.from_cycles(tau_cycles, n)
        assert tau.inverse() * pi * tau == pi ** 2
        assert tau.is_even() is even


def test_eleven_three_conjugator_needs_the_three_cycle_factor():
    # the 10-cycle below relabels only the 11-cycle of pi; a true conjugator
    # must also reverse (12 13 14), and that extra transposition makes every
    # pi -> pi^2 conjugator even
    pi = Permutation.from_cycles([tuple(range(1, 12)), (12, 13, 14)], 14)
    partial = Permutation.from_cycles([(2, 3, 5, 9, 6, 11, 10, 8, 4, 7)], 14)
    assert partial.inverse() * pi * partial != pi ** 2
    full = partial * Permutation.from_cycles([(13, 14)], 14)
    assert full.inverse() * pi * full == pi ** 2
    assert full.is_even()


def test_nine_cycle_fourth_power_conjugator():
    pi = Permutation.from_cycles([tuple(range(1, 10))], 10)
    tau = Permutation.from_cycles([(2, 5, 8), (3, 9, 6)], 10)
    assert tau.inverse() * pi * tau == pi ** 4
    assert tau.is_even()


def test_same_class_trivial_and_errors():
    p = Permutation.from_cycles([(1, 2, 3, 4, 5)], 5)
    assert dv.same_class_in_alternating(p, p, 5) is True
    q = Permutation.from_cycles([(1, 2, 3)], 5)
    with pytest.raises(TypeMismatch):
        dv.same_class_in_alternating(p, q, 5)
    odd = Permutation.from_cycles([(1, 2)], 5)
    with pytest.raises(NotEvenClass):
        dv.same_class_in_alternating(odd, odd, 5)


def test_conjugator_and_class_test_refusals_name_the_mismatch():
    p = Permutation.from_cycles([(1, 2, 3, 4, 5)], 5)
    q = Permutation.from_cycles([(1, 2, 3)], 5)
    with pytest.raises(TypeMismatch) as info:
        standard_conjugator(p, q)
    assert str(info.value) == "(1 2 3 4 5) and (1 2 3) have different cycle types"
    small = Permutation.from_cycles([(1, 2, 3)], 4)
    with pytest.raises(TypeMismatch) as info:
        dv.same_class_in_alternating(small, p, 5)
    assert str(info.value) == "expected degree 5, got 4 and 5"
    with pytest.raises(TypeMismatch) as info:
        dv.same_class_in_alternating(p, p, 5.0)
    assert str(info.value) == "expected degree 5.0, got 5 and 5"


def test_non_split_type_is_one_class_without_a_conjugator(monkeypatch):
    """(3, 1, 1) does not split in A_5, so two 3-cycles share an A_5 class
    although their standard conjugator is odd; no conjugator is built."""
    p = Permutation.from_cycles([(1, 2, 3)], 5)
    q = Permutation.from_cycles([(1, 3, 2)], 5)
    assert not standard_conjugator(p, q).is_even()

    def refuse(p, q):
        raise AssertionError("a non-split type needs no conjugator")

    monkeypatch.setattr(import_module("divgraph.divisions"), "standard_conjugator", refuse)
    assert dv.same_class_in_alternating(p, q, 5) is True


def canonical_permutation_of_type(t, n: int) -> Permutation:
    """The permutation with cycle type t using the points 1..n in order."""
    assert sum(t) == n, (t, n)
    starts = [sum(t[:i]) + 1 for i in range(len(t))]
    return Permutation.from_cycles([tuple(range(a, a + x)) for a, x in zip(starts, t)], n)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_conjugator_parity_independent_of_choice(data):
    # compose the canonical conjugator with random centralizer elements:
    # powers of the cycles themselves (the centralizer for split types)
    t = data.draw(st.sampled_from([(5,), (7, 3), (9, 1), (5, 1)]))
    n = sum(t)
    pi = canonical_permutation_of_type(t, n)
    order = pi.order()
    k = data.draw(st.sampled_from([k for k in range(1, order) if gcd(k, order) == 1]))
    q = pi ** k
    base = standard_conjugator(pi, q)
    cycles = pi.cycles(include_fixed=False)
    z = Permutation.identity(n)
    for cyc in cycles:
        e = data.draw(st.integers(0, len(cyc) - 1))
        z = z * (Permutation.from_cycles([cyc], n) ** e)
    other = z * base
    assert other.inverse() * pi * other == q
    assert other.is_even() == base.is_even()


def test_alternating_divisions_by_type_small_n():
    for n in range(2, 8):
        mapping = dv.alternating_divisions_by_type(n)
        assert all(count == 1 for count in mapping.values()), n


@pytest.mark.parametrize("cap, error", [(-1, ValidationError), (0, ResourceCapExceeded)])
def test_negative_alternating_divisions_cap_is_invalid_input(cap, error):
    """A negative degree cap is bad input (exit 1); zero is a cap every degree exceeds."""
    with pytest.raises(error):
        dv.alternating_divisions_by_type(5, cap=cap)


def test_alternating_divisions_nine_one_exception():
    mapping = dv.alternating_divisions_by_type(10)
    assert mapping[(9, 1)] == 2
    others = {t: c for t, c in mapping.items() if t != (9, 1)}
    assert all(c == 1 for c in others.values())


def test_alternating_divisions_n14_all_single():
    mapping = dv.alternating_divisions_by_type(14)
    assert all(count == 1 for count in mapping.values())


@pytest.mark.parametrize("n", range(2, 15))
def test_alternating_divisions_match_conjugator_parity(n):
    """The square criterion against the rule it condenses: a split type
    carries two divisions exactly when every power of pi prime to its order
    stays in pi's A_n class."""
    expected = {}
    for t in dv.alternating_divisions_by_type(n):
        expected[t] = 1
        if dv.class_splits_in_alternating(t):
            pi = canonical_permutation_of_type(t, n)
            order = pi.order()
            if all(dv.same_class_in_alternating(pi, pi ** k, n)
                   for k in range(2, order) if gcd(k, order) == 1):
                expected[t] = 2
    assert dv.alternating_divisions_by_type(n) == expected


def test_alternating_divisions_match_brute_force_a5():
    a5 = dv.from_permutation_generators(
        [Permutation.from_cycles([(1, 2, 3)], 5),
         Permutation.from_cycles([(1, 2, 3, 4, 5)], 5)], 5)
    assert a5.order == 60
    mapping = dv.alternating_divisions_by_type(5)
    by_type = {}
    for d in dv.divisions(a5):
        t = a5.perm_images[d.representative].cycle_type()
        by_type[t] = by_type.get(t, 0) + 1
    assert by_type == mapping


def test_same_class_agrees_with_brute_force_alternating_classes():
    # group-level oracle: actual A_n conjugacy for every split type at n <= 7
    for n in (5, 6, 7):
        an = dv.alternating(n)
        classes = dv.conjugacy_classes(an)
        class_of = {}
        for idx, c in enumerate(classes):
            for g in c.members:
                class_of[g] = idx
        index = {p.images: i for i, p in enumerate(an.perm_images)}
        for t in dv.alternating_divisions_by_type(n):
            if not dv.class_splits_in_alternating(t):
                continue
            pi = canonical_permutation_of_type(t, n)
            order = pi.order()
            for k in range(1, order):
                if gcd(k, order) != 1:
                    continue
                q = pi ** k
                predicted = dv.same_class_in_alternating(pi, q, n)
                actual = class_of[index[pi.images]] == class_of[index[q.images]]
                assert predicted == actual, (n, t, k)


def test_divisions_match_definitional_brute_force():
    # the defining relation: g2 ~ g1 iff g2 = s^-1 g1^k s with gcd(k, ord) = 1
    def brute_force_division(G, g):
        order = G.element_order(g)
        members = set()
        for k in range(1, order + 1):
            if gcd(k, order) == 1:
                pk = G.power(g, k)
                for s in G.elements():
                    members.add(G.conjugate(pk, s))
        return tuple(sorted(members))

    for G in (dv.symmetric(4), dv.quaternion8(), dv.dihedral(6), dv.heisenberg27()):
        divs = dv.divisions(G)
        for g in G.elements():
            expected = brute_force_division(G, g)
            assert dv.division_of(G, g, divs).members == expected, (G.name, g)
