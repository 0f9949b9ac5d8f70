import itertools
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import divgraph as dv
from divgraph.errors import (
    DegreeMismatch,
    NoIdentity,
    NotAssociative,
    NotClosed,
    OrderCapExceeded,
    UnknownDescriptor,
    ValidationError,
)
from divgraph.groups import (
    EAGER_TABLE_LIMIT,
    Group,
    _element_keys,
    closure_from_generators,
    greedy_generators,
    right_coset_partition,
)
from divgraph.perms import Permutation
from test_analysis import _metacyclic, _shuffled


# -- validate_cayley_table ---------------------------------------------------


def test_trivial_table():
    g = dv.validate_cayley_table([[0]])
    assert g.order == 1 and g.inverse == (0,)


def test_q8_table_roundtrip(q8):
    rebuilt = dv.validate_cayley_table(q8.table, names=q8.names)
    assert rebuilt.table == q8.table
    assert rebuilt.order == 8


def test_latin_square_violation():
    with pytest.raises(NotClosed, match="repeats"):
        dv.validate_cayley_table([[0, 1], [1, 1]])


@pytest.mark.parametrize("table, message", [
    ([[0, 1, 2], [1, 2], [2, 0, 1]], "row 1 has length 2, expected 3"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, True]], "cell (2,2) holds True, not an index in 0..2"),
    ([[0, 1, 2], [1, 2, 3], [2, 0, 1]], "cell (1,2) holds 3, not an index in 0..2"),
    ([[0, 1, 2], [1, 2, 0.0], [2, 0, 1]], "cell (1,2) holds 0.0, not an index in 0..2"),
    ([[0, 1, 2], [1, 2, 1], [2, 0, 1]], "row 1 repeats 1"),
    ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], "column 0 repeats 1"),
    ([[0, 1, 1], [1, True, 0], [2]], "row 0 repeats 1"),
], ids=["short-row", "bool", "out-of-range", "float", "row-repeat", "column-repeat",
        "first-fault"])
def test_latin_refusals_name_the_first_fault(table, message):
    """The row-at-a-time check hands every failure to the cell walk, which
    names the first fault in row order, columns last.  The bool and the float
    sit in rows whose sets equal {0, 1, 2}, so only their types refuse them."""
    with pytest.raises(NotClosed, match=f"^{re.escape(message)}$"):
        dv.validate_cayley_table(table)


def test_no_identity():
    # subtraction mod 3 is Latin but only has a right identity
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NoIdentity):
        dv.validate_cayley_table(table)


def test_not_associative():
    # a Latin square with identity row/col that fails associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative, match=r"\d+\*\d+"):
        dv.validate_cayley_table(table)


def test_identity_relocation():
    # cyclic group of order 3 written with identity at index 2
    # elements: a=0 (=g), b=1 (=g^2), e=2
    table = [
        [1, 2, 0],
        [2, 0, 1],
        [0, 1, 2],
    ]
    g = dv.validate_cayley_table(table, names=["a", "b", "e"])
    assert g.names[0] == "e"
    assert g.table[0] == [0, 1, 2]
    assert dv.are_isomorphic(g, dv.cyclic(3))


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        dv.validate_cayley_table([[0, 1], [1, 0]], order_cap=1)


@pytest.mark.parametrize("cap, error", [(-1, ValidationError), (0, OrderCapExceeded)])
def test_negative_catalog_order_cap_is_invalid_input(cap, error):
    """A negative order cap is bad input (exit 1); zero is a cap every group exceeds."""
    with pytest.raises(error):
        dv.catalog("cyclic:6", order_cap=cap)


@pytest.mark.parametrize("build, zero_error", [
    (lambda cap: dv.validate_cayley_table([[0]], order_cap=cap), OrderCapExceeded),
    (lambda cap: dv.from_permutation_generators([Permutation((1, 0))], 2, order_cap=cap),
     OrderCapExceeded),
    (lambda cap: dv.from_permutation_generators([], 3, order_cap=cap), DegreeMismatch),
    (lambda cap: dv.group_from_json({"table": [[0]]}, order_cap=cap), OrderCapExceeded),
    (lambda cap: dv.group_from_json({"degree": 2, "generators": [[2, 1]]}, order_cap=cap),
     OrderCapExceeded),
], ids=["table", "generators", "no-generators", "json-table", "json-generators"])
def test_negative_order_cap_is_invalid_input(build, zero_error):
    """A negative order cap is bad input (exit 1), checked before the input;
    zero is still a cap the group, or the bare degree, exceeds."""
    with pytest.raises(ValidationError, match=r"^order cap must be non-negative, got -1$"):
        build(-1)
    with pytest.raises(zero_error, match="cap 0$"):
        build(0)


@pytest.mark.parametrize("build, cap", [
    (lambda cap: dv.catalog("symmetric:3", order_cap=cap), 6.5),
    (lambda cap: dv.from_permutation_generators([], 2, order_cap=cap), 2.5),
    (lambda cap: dv.validate_cayley_table([[0]], order_cap=cap), True),
    (dv.standard_groups, 5.5),
    (dv.standard_groups, True),
], ids=["catalog", "no-generators", "table", "standard-float", "standard-bool"])
def test_order_caps_must_be_ints(build, cap):
    """A float or a bool is no cap: it is refused, not compared with an order."""
    with pytest.raises(ValidationError) as info:
        build(cap)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"order cap must be an int, got {cap!r}"


def _loops(n):
    """Every n x n Latin square whose row 0 and column 0 are the identity."""
    table = [[i if j == 0 else j if i == 0 else None for j in range(n)]
             for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in table]
            return
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                table[i][j] = v
                yield from fill(k + 1)
        table[i][j] = None

    return fill(0)


def _bad_triples(table):
    n = len(table)
    return [
        (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        if table[table[a][b]][c] != table[a][table[b][c]]
    ]


def _named_triple(exc):
    a, b, c = map(int, re.fullmatch(
        r"\((\d+)\*(\d+)\)\*(\d+) != \1\*\(\2\*\3\)", str(exc)).groups())
    return a, b, c


def test_associativity_matches_brute_force_on_all_loops_up_to_order_6():
    counts = {}
    for n in range(1, 7):
        for table in _loops(n):
            counts[n] = counts.get(n, 0) + 1
            bad = _bad_triples(table)
            if bad:
                with pytest.raises(NotAssociative) as info:
                    dv.validate_cayley_table(table)
                assert _named_triple(info.value) in bad
            else:
                G = dv.validate_cayley_table(table)
                assert len(closure_from_generators(G, G.generating_set())) == n
    # the numbers of reduced Latin squares of orders 1..6
    assert counts == {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}


def test_associativity_named_triple_uses_input_labels():
    table = [  # a loop of order 5 with its identity at index 1
        [1, 0, 3, 4, 2],
        [0, 1, 2, 3, 4],
        [3, 2, 4, 1, 0],
        [4, 3, 0, 2, 1],
        [2, 4, 1, 0, 3],
    ]
    with pytest.raises(NotAssociative) as info:
        dv.validate_cayley_table(table)
    assert _named_triple(info.value) in _bad_triples(table)


def test_associativity_exact_above_order_512():
    G = dv.direct_product(dv.cyclic(2), dv.cyclic(257))  # Z2 x Z257, order 514
    table = [row[:] for row in G.table]
    assert dv.validate_cayley_table(table).generating_set() == (1, 257)
    # swap the intercalate on rows r, r*t and columns c, c*t, where t = (1, 0)
    # has order 2 and r, c avoid 0 and t: still a Latin square with identity 0
    t, r, c = 257, 1, 2
    rt, ct = table[r][t], table[c][t]
    table[r][c], table[r][ct] = table[r][ct], table[r][c]
    table[rt][c], table[rt][ct] = table[rt][ct], table[rt][c]
    with pytest.raises(NotAssociative) as info:
        dv.validate_cayley_table(table)
    a, b, c = _named_triple(info.value)
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_generating_sets_unchanged_on_standard_groups():
    """Greedy generating sets recorded before the validator computed them."""
    expected = json.loads(
        (Path(__file__).parent / "goldens" / "generating_sets_48.json").read_text())
    found = {}
    for G in dv.standard_groups(48):
        relabel = list(range(G.order))
        random.Random(G.name).shuffle(relabel)
        copy = dv.relabeled_copy(G, relabel)
        found[G.name] = [list(G.generating_set()), list(copy.generating_set())]
    assert found == expected


# -- from_permutation_generators ----------------------------------------------


def test_two_commuting_three_cycles_give_order_nine():
    gens = [
        Permutation.from_cycles([(1, 2, 3)], 6),
        Permutation.from_cycles([(4, 5, 6)], 6),
    ]
    g = dv.from_permutation_generators(gens, 6)
    assert g.order == 9
    assert g.is_abelian()


def test_empty_generators_trivial():
    g = dv.from_permutation_generators([], 5)
    assert g.order == 1


def test_transposition_and_four_cycle_generate_s4():
    gens = [
        Permutation.from_cycles([(1, 2)], 4),
        Permutation.from_cycles([(1, 2, 3, 4)], 4),
    ]
    g = dv.from_permutation_generators(gens, 4)
    # oracle: independent full-product closure over permutation tuples
    seen = {p.images for p in gens} | {Permutation.identity(4).images}
    while True:
        new = {
            (Permutation(a) * Permutation(b)).images
            for a in seen for b in seen
        } | seen
        if new == seen:
            break
        seen = new
    assert g.order == len(seen) == math.factorial(4) == 24


def test_degree_mismatch_in_generators():
    with pytest.raises(DegreeMismatch):
        dv.from_permutation_generators([Permutation.identity(3)], 4)


def test_degree_above_order_cap_rejected_before_building():
    with pytest.raises(DegreeMismatch, match="exceeds the order cap"):
        dv.from_permutation_generators([], 10, order_cap=9)
    assert dv.from_permutation_generators([], 9, order_cap=9).order == 1


def test_generator_closure_cap():
    gens = [Permutation.from_cycles([(1, 2, 3, 4, 5)], 5)]
    with pytest.raises(OrderCapExceeded):
        dv.from_permutation_generators(gens, 5, order_cap=3)


def test_closure_composes_image_tuples_breadth_first(monkeypatch):
    gens = [
        Permutation.from_cycles([(1, 2)], 4),
        Permutation.from_cycles([(1, 2, 3, 4)], 4),
    ]
    order = [Permutation.identity(4)]
    for p in order:
        for s in gens:
            if p * s not in order:
                order.append(p * s)

    def fail(*args):
        raise AssertionError("a product went through Permutation.__mul__")

    monkeypatch.setattr(Permutation, "__mul__", fail)
    assert list(dv.from_permutation_generators(gens, 4).perm_images) == order


def test_perm_group_roundtrips_through_validate():
    gens = [
        Permutation.from_cycles([(1, 2)], 4),
        Permutation.from_cycles([(1, 2, 3, 4)], 4),
    ]
    g = dv.from_permutation_generators(gens, 4)
    rebuilt = dv.validate_cayley_table(g.table, names=g.names)
    assert rebuilt.table == g.table


# -- catalog -------------------------------------------------------------------


def test_catalog_quaternion8(q8):
    assert q8.order == 8
    assert q8.names == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    i, j, k = 2, 4, 6
    minus1 = 1
    assert q8.mul(i, i) == minus1
    assert q8.mul(j, j) == minus1
    assert q8.mul(k, k) == minus1
    assert q8.mul(i, j) == k
    assert q8.mul(j, k) == i
    assert q8.mul(k, i) == j
    # ij = -ji
    assert q8.mul(i, j) == q8.inv(q8.mul(j, i)) == k


def test_catalog_heisenberg27(h27):
    assert h27.order == 27
    assert all(h27.element_order(g) == 3 for g in range(1, 27))
    x, y, z = 9, 3, 1  # index encoding 9a + 3b + c
    assert h27.mul(x, y) == h27.mul(y, x)
    assert h27.mul(x, z) == h27.mul(z, x)
    # yz = xzy
    assert h27.mul(y, z) == h27.mul(x, h27.mul(z, y))
    assert h27.mul(y, z) != h27.mul(z, y)


def test_catalog_direct_product_klein():
    g = dv.catalog("product:cyclic:2:cyclic:2")
    assert g.order == 4
    assert g.table == dv.klein4().table


def test_catalog_descriptor_errors():
    with pytest.raises(UnknownDescriptor):
        dv.catalog("frobnicate:3")
    with pytest.raises(UnknownDescriptor):
        dv.catalog("cyclic")
    with pytest.raises(UnknownDescriptor):
        dv.catalog("cyclic:x")
    with pytest.raises(UnknownDescriptor):
        dv.catalog("cyclic:3:4")
    with pytest.raises(UnknownDescriptor):
        dv.catalog("elementary_abelian:4:2")


@pytest.mark.parametrize("descriptor, constructor", [
    ("cyclic:100000", "cyclic"),
    ("dihedral:2521", "dihedral"),
    ("symmetric:8", "symmetric"),
    ("alternating:8", "alternating"),
    ("elementary_abelian:2:13", "elementary_abelian"),
    ("elementary_abelian:2:10000000000", "elementary_abelian"),
    ("symmetric:1000000", "symmetric"),
    ("product:cyclic:100:cyclic:100", "direct_product"),
])
def test_catalog_checks_order_before_building(refuse_to_build, descriptor, constructor):
    refuse_to_build(constructor)
    with pytest.raises(OrderCapExceeded, match=r"has order above the cap 5040$"):
        dv.catalog(descriptor)


def test_catalog_orders_at_the_cap():
    for descriptor, order in [("cyclic:7", 7), ("dihedral:5", 10),
                              ("symmetric:4", 24), ("alternating:1", 1),
                              ("alternating:4", 12), ("elementary_abelian:3:2", 9),
                              ("product:symmetric:3:cyclic:4", 24)]:
        assert dv.catalog(descriptor, order_cap=order).order == order
        with pytest.raises(OrderCapExceeded):
            dv.catalog(descriptor, order_cap=order - 1)


def test_catalog_symmetric_and_alternating_sizes():
    assert dv.symmetric(4).order == 24
    assert dv.alternating(4).order == 12
    assert dv.alternating(2).order == 1
    assert dv.catalog("alternating:5").order == 60


def test_standard_groups_have_bounded_order():
    groups = dv.standard_groups(24)
    assert all(g.order <= 24 for g in groups)
    names = {g.name for g in groups}
    assert "quaternion8" in names and "symmetric:4" in names


#: ``standard_groups(20)``, the groups of the ``scan`` bench workload.
STANDARD_20 = (
    *(f"cyclic:{n}" for n in range(1, 21)),
    *(f"dihedral:{n}" for n in range(2, 11)),
    "klein4", "quaternion8", "symmetric:2", "symmetric:3", "alternating:3",
    "alternating:4", "elementary_abelian:2:2", "elementary_abelian:2:3",
    "elementary_abelian:2:4", "elementary_abelian:3:2",
    "product:cyclic:2:cyclic:4", "product:cyclic:2:cyclic:6",
    "product:cyclic:2:cyclic:8", "product:cyclic:4:cyclic:4",
    "product:symmetric:3:cyclic:2", "product:symmetric:3:cyclic:3",
    "product:quaternion8:cyclic:2", "product:dihedral:4:cyclic:2",
    "product:dihedral:5:cyclic:2",
)


def test_standard_groups_names_and_lengths():
    assert tuple(g.name for g in dv.standard_groups(20)) == STANDARD_20
    assert len(STANDARD_20) == 48
    lengths = {1: 1, 4: 9, 8: 19, 15: 33, 27: 68, 64: 130, 120: 215}
    assert {k: len(dv.standard_groups(k)) for k in lengths} == lengths
    assert dv.standard_groups(0) == []


def test_standard_groups_refuse_a_negative_bound(built_orders):
    with pytest.raises(ValidationError, match=r"^order cap must be non-negative, got -3$"):
        dv.standard_groups(-3)
    assert not built_orders
    assert dv.standard_groups(0) == []


@pytest.mark.parametrize("max_order", [1, 8, 20, 35])
def test_standard_groups_build_nothing_above_max_order(built_orders, max_order):
    groups = dv.standard_groups(max_order)
    assert built_orders and max(built_orders) <= max_order
    assert max(g.order for g in groups) == max_order  # cyclic:max_order


def test_standard_groups_propagate_the_table_cap(monkeypatch):
    """Only a descriptor above ``max_order`` is skipped; a table refused by
    TABLE_ORDER_CAP stops the sweep."""
    monkeypatch.setattr(dv.groups, "TABLE_ORDER_CAP", 8)
    assert len(dv.standard_groups(8)) == 19
    with pytest.raises(OrderCapExceeded, match=r"^cyclic:9 has order above the cap 8$"):
        dv.standard_groups(12)


def test_catalog_refuses_a_product_before_building_its_factors(built_orders):
    with pytest.raises(OrderCapExceeded,
                       match=r"^product:cyclic:1000:cyclic:1000 has order above the cap 5040$"):
        dv.catalog("product:cyclic:1000:cyclic:1000")
    assert built_orders == []


def test_standard_groups_above_the_table_cap_build_nothing(built_orders):
    """The whole sweep is parsed and checked before its first group is built."""
    cap = dv.groups.TABLE_ORDER_CAP
    with pytest.raises(OrderCapExceeded, match=f"^cyclic:{cap + 1} has order above the cap {cap}$"):
        dv.standard_groups(cap + 6)
    assert built_orders == []


# -- element arithmetic ----------------------------------------------------------


def test_element_orders_q8(q8):
    assert q8.element_order(0) == 1
    assert q8.element_order(2) == 4  # i
    assert q8.element_order(1) == 2  # -1


def test_element_order_via_cycle_type():
    s5 = dv.symmetric(5)
    p = Permutation.from_cycles([(1, 2, 3), (4, 5)], 5)
    idx = s5.perm_images.index(p)
    assert s5.element_order(idx) == 6


def test_conjugate_by_identity(q8):
    for g in q8.elements():
        assert q8.conjugate(g, 0) == g


def test_power_nine_cycle_in_a10():
    a10_perm = Permutation.from_cycles([tuple(range(1, 10))], 10)
    assert a10_perm ** 2 == Permutation.from_cycles([(1, 3, 5, 7, 9, 2, 4, 6, 8)], 10)


def test_power_negative_and_zero(q8):
    i = 2
    assert q8.power(i, 0) == 0
    assert q8.power(i, -1) == q8.inv(i)
    assert q8.power(i, 4) == 0


# -- algebraic invariants -----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_triples_associative_and_ab_ba_same_order(data):
    groups = [dv.quaternion8(), dv.symmetric(3), dv.dihedral(6), dv.cyclic(12)]
    G = data.draw(st.sampled_from(groups))
    a = data.draw(st.integers(0, G.order - 1))
    b = data.draw(st.integers(0, G.order - 1))
    c = data.draw(st.integers(0, G.order - 1))
    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
    assert G.element_order(G.mul(a, b)) == G.element_order(G.mul(b, a))


def _orders_by_powers(G):
    """Each element's order by the plain walk g, g^2, ... up to the identity."""
    orders = []
    for g in G.elements():
        x, m = g, 1
        while x:
            x, m = G.mul(x, g), m + 1
        orders.append(m)
    return orders


def test_element_orders_match_the_power_walk():
    """Tables, relabelled tables, and symmetric:6, above the eager table
    limit, whose products compose permutations."""
    groups = dv.standard_groups(64)
    s6 = dv.catalog("symmetric:6")
    assert s6.order > EAGER_TABLE_LIMIT and s6._table is None
    for G in [*groups, *(_shuffled(G, seed) for seed, G in enumerate(groups)), s6]:
        orders = _orders_by_powers(G)
        assert list(G.element_orders()) == orders, G.name
        assert G.element_order_histogram() == dict(Counter(orders)), G.name


def test_element_orders_are_computed_once(monkeypatch):
    G = dv.catalog("symmetric:6")
    orders = G.element_orders()
    products = Counter()
    mul = Group.mul
    monkeypatch.setattr(Group, "mul", lambda self, a, b: products.update([self]) or mul(self, a, b))
    assert G.element_orders() is orders
    assert [G.element_order(g) for g in G.elements()] == list(orders)
    assert sum(G.element_order_histogram().values()) == G.order
    assert not products


def test_square_root_keys():
    """Each element's (order, square-root count) matches a direct count, the
    key multiset survives relabelling, and it tells C4 x C4 from Q8 x C2,
    which share their element-order histogram."""
    for seed, G in enumerate(dv.standard_groups(32)):
        roots = Counter(G.mul(x, x) for x in G.elements())
        assert list(_element_keys(G)) == [(m, roots[g])
                                          for g, m in enumerate(_orders_by_powers(G))]
        assert sorted(_element_keys(G)) == sorted(_element_keys(_shuffled(G, seed)))
    A, B = dv.catalog("product:cyclic:4:cyclic:4"), dv.catalog("product:quaternion8:cyclic:2")
    assert A.element_order_histogram() == B.element_order_histogram()
    assert sorted(_element_keys(A)) != sorted(_element_keys(B))


def test_are_isomorphic_keys_each_group_once(monkeypatch):
    """The (order, square-root count) keys are cached on the group, so a second
    test of two groups whose keys differ makes no product at all."""
    A, B = dv.catalog("product:cyclic:4:cyclic:4"), dv.catalog("product:quaternion8:cyclic:2")
    assert not dv.are_isomorphic(A, B)
    keys = _element_keys(A)
    products = Counter()
    mul = Group.mul
    monkeypatch.setattr(Group, "mul", lambda self, a, b: products.update([self]) or mul(self, a, b))
    assert not dv.are_isomorphic(A, B)
    assert _element_keys(A) is keys
    assert not products


def test_element_order_divides_group_order():
    for G in [dv.quaternion8(), dv.symmetric(4), dv.heisenberg27(), dv.dihedral(5)]:
        for g in G.elements():
            assert G.order % G.element_order(g) == 0


# -- quotients, subgroup extraction, isomorphism --------------------------------------


def test_subgroup_as_group(q8):
    sub, members = dv.subgroup_as_group(q8, [0, 1, 2, 3])  # <i>
    assert sub.order == 4
    assert members == [0, 1, 2, 3]
    assert dv.are_isomorphic(sub, dv.cyclic(4))


def test_subgroup_as_group_refuses_members_without_identity_or_closure(q8):
    with pytest.raises(ValueError) as info:
        dv.subgroup_as_group(q8, [1, 2, 3])
    assert str(info.value) == "subgroup members must contain the identity 0"
    outside = next(x for x in range(1, 8) if q8.mul(x, x) != 0)
    with pytest.raises(ValueError) as info:
        dv.subgroup_as_group(q8, [0, outside])
    assert str(info.value) == "member set is not closed under the product"


def test_quotient_group_q8_by_center(q8):
    quotient, coset_of = dv.quotient_group(q8, [0, 1])
    assert quotient.order == 4
    assert dv.are_isomorphic(quotient, dv.klein4())
    assert coset_of[0] == coset_of[1] == 0


def test_quotient_requires_normal():
    s3 = dv.symmetric(3)
    # <(1 2)> is not normal in S3
    transposition = next(
        g for g in s3.elements()
        if s3.element_order(g) == 2
    )
    with pytest.raises(ValueError, match="not normal"):
        dv.quotient_group(s3, [0, transposition])


def test_quotient_group_raises_exactly_on_non_normal_subgroups():
    for G in dv.standard_groups(24):
        L = dv.all_subgroups(G)
        for H in L.subgroups:
            if dv.is_normal(L, H):
                quotient, _ = dv.quotient_group(G, H.members)
                assert quotient.order * H.order == G.order
            else:
                with pytest.raises(ValueError, match="subgroup is not normal"):
                    dv.quotient_group(G, H.members)


def test_coset_partition_reads_table_rows(monkeypatch):
    """A permutation group above the eager table limit, which multiplies
    permutations, and a copy of it holding its Cayley table, which reads the
    table's rows and makes no Group.mul call, give the same partitions."""
    G = dv.catalog("symmetric:6")
    T = dv.catalog("symmetric:6")
    T.table  # the copy builds and keeps its table
    assert G.order > EAGER_TABLE_LIMIT and G._table is None and T._table is not None
    subgroups = [[0], closure_from_generators(G, [1]), closure_from_generators(G, [5, 7]),
                 closure_from_generators(G, [1, 2]), list(G.elements())]
    products = Counter()
    mul = Group.mul
    monkeypatch.setattr(Group, "mul", lambda self, a, b: products.update([self]) or mul(self, a, b))
    for members in subgroups:
        assert right_coset_partition(T, members) == right_coset_partition(G, members)
    assert T not in products and products[G] == len(subgroups) * G.order


def test_greedy_generators_of_a_subgroup_are_its_own_groups():
    """Walking the members of H finds the generating set that H, built as
    its own group, finds for itself (mapped back to G)."""
    for G in dv.standard_groups(24):
        for H in dv.all_subgroups(G).subgroups:
            sub, members = dv.subgroup_as_group(G, H.members)
            expected = tuple(members[m] for m in sub.generating_set())
            assert tuple(greedy_generators(G, H.members)) == expected, (G.name, H.id)


def test_are_isomorphic_distinguishes_order8():
    assert dv.are_isomorphic(dv.cyclic(4), dv.cyclic(4))
    assert not dv.are_isomorphic(dv.cyclic(4), dv.klein4())
    assert not dv.are_isomorphic(dv.quaternion8(), dv.dihedral(4))
    assert dv.are_isomorphic(dv.dihedral(3), dv.symmetric(3))
    assert dv.are_isomorphic(
        dv.catalog("product:cyclic:3:cyclic:5"), dv.cyclic(15)
    )


def _reference_are_isomorphic(G1, G2):
    """The enumerate-then-close oracle: every tuple of generator images of
    matching orders, each closed into a full map that is then checked for
    bijectivity.  Slow, but with no pruning to get wrong, and its element
    orders come from its own power walk."""
    if G1.order != G2.order:
        return False
    orders1, orders2 = _orders_by_powers(G1), _orders_by_powers(G2)
    if sorted(orders1) != sorted(orders2):
        return False
    gens = G1.generating_set()
    by_order = {}
    for h, m in enumerate(orders2):
        by_order.setdefault(m, []).append(h)

    def extend(assignment):
        mapping, frontier = {0: 0}, [0]
        while frontier:
            a = frontier.pop()
            for g, fg in assignment.items():
                b, fb = G1.mul(a, g), G2.mul(mapping[a], fg)
                if b in mapping:
                    if mapping[b] != fb:
                        return False
                else:
                    mapping[b] = fb
                    frontier.append(b)
        return len(mapping) == G1.order and len(set(mapping.values())) == G1.order

    return any(extend(dict(zip(gens, images))) for images in
               itertools.product(*(by_order[orders1[g]] for g in gens)))


def test_are_isomorphic_matches_the_reference_oracle():
    """Every same-order pair of standard_groups(32), two pairs with equal
    element-order histograms (C4 x C4 and Q8 x C2; C8 : C4 with b acting as
    a -> a^3 and as a -> a^7), and each group against a seeded relabelled
    copy of itself."""
    groups = dv.standard_groups(32)
    pairs = [(a, b) for a, b in itertools.combinations(groups, 2) if a.order == b.order]
    pairs += [(dv.catalog("product:cyclic:4:cyclic:4"), dv.catalog("product:quaternion8:cyclic:2")),
              (_metacyclic(8, 4, 3, 0), _metacyclic(8, 4, 7, 0))]
    copies = [(G, _shuffled(G, seed)) for seed, G in enumerate(groups)]
    verdicts = [(dv.are_isomorphic(a, b), _reference_are_isomorphic(a, b)) for a, b in pairs]
    assert all(new == ref for new, ref in verdicts)
    assert sum(new for new, _ in verdicts) == 8  # groups the catalog names twice
    assert all(dv.are_isomorphic(G, H) and _reference_are_isomorphic(G, H) for G, H in copies)


def test_relabeled_copy_is_isomorphic(s4):
    rng = random.Random(3)
    perm = list(range(24))
    rng.shuffle(perm)
    g2 = dv.relabeled_copy(s4, perm)
    assert dv.are_isomorphic(s4, g2)


# -- JSON interchange ------------------------------------------------------------------


def test_group_json_table_roundtrip(q8):
    data = dv.group_to_json(q8)
    rebuilt = dv.group_from_json(data)
    assert rebuilt.table == q8.table


def test_group_json_generators():
    data = {
        "name": "z3xz3",
        "degree": 6,
        "generators": [[2, 3, 1, 4, 5, 6], [1, 2, 3, 5, 6, 4]],
    }
    g = dv.group_from_json(data)
    assert g.order == 9
    assert dv.group_from_json({**data, "order": 9}).order == 9


def test_group_json_rejects_garbage():
    with pytest.raises(NotClosed):
        dv.group_from_json({"name": "x"})
    with pytest.raises(NotClosed):
        dv.group_from_json({"name": "x", "order": 3, "table": [[0]]})


def test_generating_set_generates():
    for G in [dv.symmetric(4), dv.heisenberg27(), dv.cyclic(12), dv.quaternion8()]:
        gens = G.generating_set()
        assert len(closure_from_generators(G, gens)) == G.order


def test_perm_group_table_consistent_with_composition(s3):
    index = {p.images: i for i, p in enumerate(s3.perm_images)}
    for i, p in enumerate(s3.perm_images):
        for j, q in enumerate(s3.perm_images):
            assert s3.table[i][j] == index[(p * q).images]
