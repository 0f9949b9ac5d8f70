import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

import divgraph as dv
import divgraph.lattice
from divgraph.errors import LatticeCapExceeded, ValidationError
from divgraph.groups import closure_from_generators, extend_subgroup
from divgraph.lattice import (
    all_subgroups,
    cyclic_subgroup_ids,
    is_nilpotent,
    is_solvable,
    lattice_to_json,
    minimal_generator_count,
    normal_subgroup_ids,
    prime_factorization,
)

#: The groups of the bench ``structure`` and ``compare`` workloads that
#: ``standard_groups(48)`` does not already hold.
BENCH_GROUPS = ("symmetric:5", "alternating:5", "dihedral:32",
                "product:symmetric:4:cyclic:2",
                "product:elementary_abelian:2:3:cyclic:4")


# -- oracles --------------------------------------------------------------------


def bfs_closure(G, gens):
    """Reference closure: breadth-first search under right multiplication
    by every generator, from the identity."""
    seen = {0}
    queue = [0]
    for x in queue:
        for s in gens:
            y = G.mul(x, s)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(seen)


def grow_by_one_enumeration(G):
    """Independent subgroup enumeration: BFS adding one generator at a time."""
    trivial = frozenset([0])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        members = frontier.pop()
        for g in range(1, G.order):
            if g in members:
                continue
            grown = frozenset(bfs_closure(G, sorted(members | {g})))
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return seen


def hasse_pairs(L):
    """Reference covers, by definition: every pair H < K with no subgroup
    strictly between them, as (K, H, |K| / |H|)."""
    pairs = []
    for h in L.subgroups:
        above = [k for k in L.subgroups if k.id != h.id and h.mask & ~k.mask == 0]
        for k in above:
            if not any(m.id != k.id and m.mask & ~k.mask == 0 for m in above):
                pairs.append((k.id, h.id, k.order // h.order))
    return sorted(pairs)


def powers(G, g):
    """Sorted members of <g>: the powers of g up to the identity."""
    members, x = [0], g
    while x != 0:
        members.append(x)
        x = G.mul(x, g)
    return tuple(sorted(members))


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def subspace_count(q, n):
    """Total number of subspaces of F_q^n (expected subgroup count of the
    elementary abelian group)."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


# -- enumeration ------------------------------------------------------------------


def test_s3_subgroups(s3):
    L = all_subgroups(s3)
    assert len(L) == 6
    assert sorted(s.order for s in L.subgroups) == [1, 2, 2, 2, 3, 6]


def test_q8_subgroups_and_cover_labels(q8):
    L = all_subgroups(q8)
    assert len(L) == 6
    assert all(label == 2 for _, _, label in L.covers)


def test_trivial_group_lattice():
    L = all_subgroups(dv.cyclic(1))
    assert len(L) == 1
    assert L.covers == []


def test_elementary_abelian_3_3_subgroup_count(ea33):
    # oracle: Gaussian binomials 1 + 13 + 13 + 1
    expected = subspace_count(3, 3)
    assert expected == 28
    L = all_subgroups(ea33)
    assert len(L) == 28
    assert sorted(s.order for s in L.subgroups) == [1] + [3] * 13 + [9] * 13 + [27]


def test_lattice_cap():
    with pytest.raises(LatticeCapExceeded):
        all_subgroups(dv.cyclic(12), order_limit=8)
    with pytest.raises(LatticeCapExceeded):
        all_subgroups(dv.elementary_abelian(2, 4), count_limit=10)


@pytest.mark.parametrize("cap, error", [(-1, ValidationError), (0, LatticeCapExceeded)])
def test_negative_lattice_cap_is_invalid_input(cap, error):
    """A negative lattice cap, on the order or the count, is bad input (exit 1);
    zero is a cap every group exceeds."""
    for limit in ("order_limit", "count_limit"):
        with pytest.raises(error, match=f"lattice cap.* {cap}$"):
            all_subgroups(dv.cyclic(6), **{limit: cap})


@pytest.mark.parametrize("limit, cap", [("count_limit", True), ("order_limit", 6.5)])
def test_lattice_caps_must_be_ints(limit, cap):
    """A bool count cap is bad input (exit 1), not a cap of one that ran out."""
    with pytest.raises(ValidationError) as info:
        all_subgroups(dv.symmetric(3), **{limit: cap})
    assert type(info.value) is ValidationError
    assert str(info.value) == f"lattice cap must be an int, got {cap!r}"


def test_count_cap_is_exact_when_whole_classes_are_added():
    """S4 has 30 subgroups in 11 conjugacy classes, added a class at a time."""
    assert len(all_subgroups(dv.symmetric(4), count_limit=30)) == 30
    with pytest.raises(LatticeCapExceeded,
                       match=r"^subgroup count exceeds lattice cap 29$"):
        all_subgroups(dv.symmetric(4), count_limit=29)


@pytest.mark.parametrize("descriptor, most", [
    ("symmetric:5", 1200), ("product:elementary_abelian:2:3:cyclic:4", 2141),
])
def test_joins_formed_for_class_representatives_only(monkeypatch, descriptor, most):
    """Only a representative of each conjugacy class forms joins: symmetric:5
    has 156 subgroups in 19 classes (9,561 joins when every subgroup formed
    its own); an abelian group has singleton classes and gains nothing."""
    joins = []

    def counting(*args):
        joins.append(1)
        return extend_subgroup(*args)

    monkeypatch.setattr(divgraph.lattice, "extend_subgroup", counting)
    all_subgroups(dv.catalog(descriptor))
    assert 0 < len(joins) <= most


@pytest.mark.parametrize("descriptor, most", [
    ("elementary_abelian:2:5", 2077), ("symmetric:5", 390),
])
def test_joins_skip_elements_of_a_coset_already_joined(monkeypatch, descriptor, most):
    """<R, g'> = <R, g> for every g' in the coset Rg, so a representative R
    forms one join per coset it reaches (9,517 and 1,079 joins when every
    cyclic seed outside R formed its own)."""
    joins = []

    def counting(*args):
        joins.append(1)
        return extend_subgroup(*args)

    monkeypatch.setattr(divgraph.lattice, "extend_subgroup", counting)
    all_subgroups(dv.catalog(descriptor))
    assert 0 < len(joins) <= most


def test_canonical_ordering(s4):
    L = all_subgroups(s4)
    sizes = [s.order for s in L.subgroups]
    assert sizes == sorted(sizes)
    assert L.subgroups[0].members == (0,)
    assert L.subgroups[-1].order == 24
    for a, b in zip(L.subgroups, L.subgroups[1:]):
        assert (a.order, a.members) < (b.order, b.members)


@pytest.mark.parametrize("descriptor", [
    "symmetric:4", "quaternion8", "dihedral:6", "heisenberg27",
    "elementary_abelian:2:3", "cyclic:24", "product:cyclic:2:cyclic:6",
    "alternating:4",
])
def test_grow_by_one_oracle_matches(descriptor):
    G = dv.catalog(descriptor)
    L = all_subgroups(G)
    oracle = grow_by_one_enumeration(G)
    assert len(L) == len(oracle)
    assert {s.members for s in L.subgroups} == {tuple(sorted(m)) for m in oracle}


def test_grow_by_one_oracle_matches_everywhere_up_to_48():
    for G in dv.standard_groups(48):
        L = all_subgroups(G)
        oracle = grow_by_one_enumeration(G)
        assert len(L) == len(oracle), G.name


def test_lattices_unchanged_on_standard_and_bench_groups():
    """sha256 of every lattice's JSON, recorded before the coset-wise closure:
    each group of ``standard_groups(48)`` and ``BENCH_GROUPS`` plus a seeded
    relabelled copy of each."""
    expected = json.loads(
        (Path(__file__).parent / "goldens" / "lattices_48.json").read_text())
    found = {}
    for G in dv.standard_groups(48) + [dv.catalog(d) for d in BENCH_GROUPS]:
        relabel = list(range(G.order))
        random.Random(G.name).shuffle(relabel)
        for H in (G, dv.relabeled_copy(G, relabel)):
            text = json.dumps(lattice_to_json(all_subgroups(H)), sort_keys=True)
            found[H.name] = hashlib.sha256(text.encode()).hexdigest()
    assert found == expected


@pytest.mark.parametrize("descriptor", ["symmetric:5", "dihedral:32"])
def test_closure_matches_bfs_on_random_generators(descriptor):
    G = dv.catalog(descriptor)
    rng = random.Random(descriptor)
    for _ in range(200):
        gens = [rng.randrange(G.order) for _ in range(rng.randint(0, 4))]
        assert closure_from_generators(G, gens) == bfs_closure(G, gens), gens


def test_extend_subgroup_from_every_subgroup(s4):
    """Growing any subgroup H by any element g gives the closure of H and g."""
    L = all_subgroups(s4)
    for h in L.subgroups:
        gens = list(h.members)
        for g in s4.elements():
            members, mask = dv.groups.extend_subgroup(s4, h.members, h.mask, gens + [g])
            assert sorted(members) == bfs_closure(s4, gens + [g])
            assert mask == sum(1 << x for x in members)


# -- covers -------------------------------------------------------------------------


def test_cover_labels_are_exact_indices(s4):
    L = all_subgroups(s4)
    for low, up, label in L.covers:
        assert L.subgroups[low].order == label * L.subgroups[up].order
        assert L.contains(low, up)


def test_no_intermediate_subgroup_between_covers(s4):
    L = all_subgroups(s4)
    for low, up, _ in L.covers:
        for mid in L.subgroups:
            if mid.id in (low, up):
                continue
            assert not (L.contains(low, mid.id) and L.contains(mid.id, up))


@pytest.mark.parametrize("descriptor", [
    "dihedral:64", "elementary_abelian:2:5", "product:symmetric:4:cyclic:4",
])
def test_covers_are_exactly_the_hasse_pairs(descriptor):
    """The covers read off the enumeration's joins are every pair with no
    subgroup strictly between, and nothing else."""
    L = all_subgroups(dv.catalog(descriptor))
    assert L.covers == hasse_pairs(L)


def test_chain_products_equal_group_order():
    for G in [dv.quaternion8(), dv.symmetric(4), dv.cyclic(24)]:
        L = all_subgroups(G)
        succ = {}
        for low, up, label in L.covers:
            succ.setdefault(low, []).append((up, label))

        def chains(node, acc):
            if node == L.trivial_id:
                yield acc
                return
            for nxt, label in succ[node]:
                yield from chains(nxt, acc * label)

        for product in chains(L.full_id, 1):
            assert product == G.order


def test_every_subgroup_reachable_from_top(s4):
    L = all_subgroups(s4)
    succ = {}
    for low, up, _ in L.covers:
        succ.setdefault(low, []).append(up)
    seen = set()
    stack = [L.full_id]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(succ.get(node, []))
    assert seen == set(range(len(L)))


# -- queries ------------------------------------------------------------------------


def test_normality_in_s3(s3):
    L = all_subgroups(s3)
    order3 = next(s for s in L.subgroups if s.order == 3)
    assert dv.is_normal(L, order3)
    order2 = next(s for s in L.subgroups if s.order == 2)
    assert not dv.is_normal(L, order2)


def test_normalizer_of_normal_is_whole_group(q8):
    L = all_subgroups(q8)
    for s in L.subgroups:
        assert dv.normalizer(L, s).order == 8  # every subgroup of Q8 is normal


def test_conjugation_queries_match_brute_force():
    """is_normal checks only the generators; compare it, the normalizer and
    every conjugate with a scan over all elements."""
    for G in (dv.symmetric(4), dv.dihedral(6), dv.quaternion8(),
              dv.catalog("product:symmetric:3:cyclic:2")):
        L = all_subgroups(G)
        for h in L.subgroups:
            conjugates = {
                s: frozenset(G.mul(G.mul(G.inv(s), g), s) for g in h.members)
                for s in G.elements()
            }
            stabilizer = tuple(s for s, c in conjugates.items() if c == set(h.members))
            assert dv.is_normal(L, h) == (len(stabilizer) == G.order)
            assert dv.normalizer(L, h).members == stabilizer
            for s, c in conjugates.items():
                assert L.subgroups[L.conjugate_subgroup(h.id, s)].members == tuple(sorted(c))


@pytest.mark.parametrize("descriptor", [
    "symmetric:4", "symmetric:5", "dihedral:32", "alternating:5",
    "product:symmetric:4:cyclic:2",
])
def test_conjugacy_classes_match_element_scan(descriptor):
    """The class map the enumeration keeps is {s^-1 H s : s in G}, computed
    here by a scan over every element, on the group and a relabelled copy."""
    G = dv.catalog(descriptor)
    relabel = list(range(G.order))
    random.Random(descriptor).shuffle(relabel)
    for H in (G, dv.relabeled_copy(G, relabel)):
        L = all_subgroups(H)
        for h in L.subgroups:
            scan = {L.id_of([H.mul(H.mul(H.inv(s), g), s) for g in h.members])
                    for s in H.elements()}
            assert L.classes[h.id] == tuple(sorted(scan)), h.id
            assert dv.is_normal(L, h) == (len(scan) == 1)


def test_normalizer_of_transposition_subgroup(s3):
    L = all_subgroups(s3)
    order2 = next(s for s in L.subgroups if s.order == 2)
    assert dv.normalizer(L, order2).members == order2.members


def test_center_of_q8(q8):
    # oracle: brute-force commuting check
    brute = tuple(
        z for z in q8.elements()
        if all(q8.mul(z, g) == q8.mul(g, z) for g in q8.elements())
    )
    assert brute == (0, 1)  # {1, -1}
    assert dv.center(q8).members == brute


def test_commutator_of_s3(s3):
    # oracle: close the set of all commutators by brute force
    comms = set()
    for a in s3.elements():
        for b in s3.elements():
            comms.add(s3.mul(
                s3.mul(s3.inv(a), s3.inv(b)), s3.mul(a, b)
            ))
    closure = set(comms)
    while True:
        new = {s3.mul(x, y) for x in closure for y in closure} | closure
        if new == closure:
            break
        closure = new
    assert len(closure) == 3
    assert set(dv.commutator_subgroup(s3).members) == closure


def test_meet_is_intersection_join_is_generated(s4):
    L = all_subgroups(s4)
    for a, b in combinations(L.subgroups[:12], 2):
        met = dv.meet(L, a, b)
        assert set(met.members) == set(a.members) & set(b.members)
        joined = dv.join(L, a, b)
        assert set(joined.members) >= set(a.members) | set(b.members)
        assert joined.order * met.order >= a.order * b.order


@pytest.mark.parametrize("descriptor", ["symmetric:4", "quaternion8"])
def test_join_is_the_generated_subgroup(descriptor):
    G = dv.catalog(descriptor)
    L = all_subgroups(G)
    for a, b in combinations(L.subgroups, 2):
        expected = tuple(closure_from_generators(G, a.members + b.members))
        assert dv.join(L, a, b).members == expected
        assert dv.join(L, b.id, a.id).members == expected


def test_center_matches_brute_force():
    """The center is computed from a generating set; compare it with a scan
    over all pairs of elements."""
    for G in dv.standard_groups(24):
        brute = tuple(z for z in G.elements()
                      if all(G.mul(z, g) == G.mul(g, z) for g in G.elements()))
        assert dv.center(G).members == brute, G.name


def test_centralizer_resolves_in_lattice(q8):
    L = all_subgroups(q8)
    c = dv.centralizer(q8, [2], L)  # centralizer of i
    assert c.order == 4
    assert c.id >= 0


# -- derived facts ----------------------------------------------------------------


def test_solvable_and_nilpotent_flags():
    s4 = dv.symmetric(4)
    assert is_solvable(s4)
    assert not is_nilpotent(s4, all_subgroups(s4))
    q8 = dv.quaternion8()
    assert is_solvable(q8)
    assert is_nilpotent(q8, all_subgroups(q8))
    a5 = dv.alternating(5)
    assert not is_solvable(a5)


def all_pairs_derived(G, members):
    """[H, H] by its definition: the closure of every commutator in H."""
    comms = {G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
             for a in members for b in members}
    return tuple(bfs_closure(G, sorted(comms)))


def all_pairs_solvable(G):
    members = tuple(G.elements())
    while len(members) > 1:
        derived = all_pairs_derived(G, members)
        if derived == members:
            return False
        members = derived
    return True


def test_derived_series_matches_all_pairs():
    rng = random.Random(11)
    groups = dv.standard_groups(24)
    for desc in ("symmetric:4", "symmetric:5"):
        G = dv.catalog(desc)
        relabel = list(range(G.order))
        rng.shuffle(relabel)
        groups.append(dv.relabeled_copy(G, relabel))
    for G in groups:
        assert dv.commutator_subgroup(G).members == all_pairs_derived(G, G.elements()), G.name
        assert is_solvable(G) == all_pairs_solvable(G), G.name


def test_derived_series_costs_few_products(monkeypatch):
    """The derived series works on generators: forming every commutator of
    symmetric:5 once would already take 43,200 products."""
    calls = [0]
    mul = dv.Group.mul

    def counting_mul(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    G = dv.symmetric(5)
    monkeypatch.setattr(dv.Group, "mul", counting_mul)
    for derived_fact in (dv.commutator_subgroup, is_solvable):
        calls[0] = 0
        derived_fact(G)
        assert calls[0] <= 1000, (derived_fact.__name__, calls[0])


def test_minimal_generator_counts():
    assert minimal_generator_count(dv.cyclic(1)) == 0
    assert minimal_generator_count(dv.cyclic(12)) == 1
    assert minimal_generator_count(dv.symmetric(4)) == 2
    assert minimal_generator_count(dv.klein4()) == 2
    assert minimal_generator_count(dv.elementary_abelian(3, 3)) == 3
    assert minimal_generator_count(dv.heisenberg27()) == 2


def _fewest_generators(G):
    return next(r for r in range(G.order) if any(
        len(closure_from_generators(G, gens)) == G.order
        for gens in combinations(range(1, G.order), r)))


@pytest.mark.parametrize("G", [G for G in dv.standard_groups(32) if G.is_abelian()],
                         ids=lambda G: G.name)
def test_minimal_generator_count_of_abelian_groups_by_brute_force(G):
    assert minimal_generator_count(G) == _fewest_generators(G)


def test_minimal_generator_count_of_p_groups_by_brute_force(sylow2_s8_classes_of):
    """Burnside's basis theorem on the nonabelian groups of prime-power order
    up to 32 and the order-16 subgroup classes of the Sylow 2-subgroup of S_8."""
    groups = [G for G in dv.standard_groups(32)
              if not G.is_abelian() and len(prime_factorization(G.order)) == 1]
    assert len(groups) >= 5
    for G in groups + list(sylow2_s8_classes_of(16)):
        assert minimal_generator_count(G) == _fewest_generators(G), G.name


@pytest.mark.parametrize("descriptor", [
    "heisenberg27", "product:dihedral:4:elementary_abelian:2:3", "quaternion8",
    "cyclic:12", "product:cyclic:6:cyclic:10",
])
def test_minimal_generator_count_takes_one_closure_per_prime(descriptor, monkeypatch):
    """An abelian group or a p-group needs one closure per prime dividing its
    order, not a search over generating sets."""
    G = dv.catalog(descriptor)
    calls = []
    closure = divgraph.lattice.closure_from_generators
    monkeypatch.setattr(divgraph.lattice, "closure_from_generators",
                        lambda *args: calls.append(args) or closure(*args))
    minimal_generator_count(G)
    assert len(calls) == len(prime_factorization(G.order))


def test_normal_and_cyclic_id_helpers(s3):
    L = all_subgroups(s3)
    assert set(normal_subgroup_ids(L)) == {0, 4, 5}
    assert set(cyclic_subgroup_ids(L)) == {0, 1, 2, 3, 4}


def test_cyclic_of_is_the_powers_of_each_element():
    """``cyclic_of[g]`` is the id of <g>, and the cyclic subgroups are those
    holding an element of their own order."""
    for G in dv.standard_groups(48) + [dv.catalog(d) for d in BENCH_GROUPS]:
        L = all_subgroups(G)
        for g in G.elements():
            assert L.subgroups[L.cyclic_of[g]].members == powers(G, g), (G.name, g)
        assert cyclic_subgroup_ids(L) == tuple(
            s.id for s in L.subgroups
            if any(G.element_order(x) == s.order for x in s.members)
        ), G.name


def test_prime_factorization():
    for n in range(1, 2000):
        factors = prime_factorization(n)
        assert list(factors) == sorted(factors)
        assert all(p > 1 and all(p % d for d in range(2, p)) for p in factors)
        product = 1
        for p, e in factors.items():
            assert e >= 1
            product *= p ** e
        assert product == n


# -- exports ------------------------------------------------------------------------


def test_dot_export_structure(q8):
    L = all_subgroups(q8)
    dot = dv.lattice_to_dot(L)
    assert dot.count("->") == len(L.covers)
    assert 'H5 [label="H5 (order 8)"]' in dot


def test_json_export(q8):
    L = all_subgroups(q8)
    data = dv.lattice_to_json(L)
    assert len(data["subgroups"]) == 6
    assert all(c["index"] == 2 for c in data["covers"])
