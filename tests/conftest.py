from functools import cache

import pytest

import divgraph as dv
from divgraph import groups
from divgraph.lattice import all_subgroups


@pytest.fixture(scope="session")
def q8():
    return dv.quaternion8()


@pytest.fixture(scope="session")
def s3():
    return dv.symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return dv.symmetric(4)


@pytest.fixture(scope="session")
def klein():
    return dv.klein4()


@pytest.fixture(scope="session")
def ea33():
    return dv.elementary_abelian(3, 3)


@pytest.fixture(scope="session")
def h27():
    return dv.heisenberg27()


@pytest.fixture(scope="session")
def sylow2_s8_classes_of():
    """A function giving one group per isomorphism class of the subgroups of
    a given order of the Sylow 2-subgroup of S_8 (order 128): groups the
    catalog does not name."""
    gens = [dv.Permutation.from_cycles(c, 8)
            for c in ([(1, 2)], [(1, 3), (2, 4)], [(1, 5), (2, 6), (3, 7), (4, 8)])]
    P = dv.from_permutation_generators(gens, 8)
    L = all_subgroups(P)

    @cache
    def classes(order):
        found = []
        for s in L.subgroups:
            if s.order == order and L.classes[s.id][0] == s.id:
                H, _ = dv.subgroup_as_group(P, s.members)
                if not any(dv.are_isomorphic(H, K) for K in found):
                    found.append(H)
        return tuple(found)
    return classes


@pytest.fixture
def refuse_to_build(monkeypatch):
    """Make a catalog family's constructor, or ``direct_product``, fail the
    test if it is called."""
    def refuse(constructor):
        def build(*args, **kwargs):
            raise AssertionError(f"{constructor}{args} was built")

        if constructor in groups._FAMILIES:
            row = (build, *groups._FAMILIES[constructor][1:])
            monkeypatch.setitem(groups._FAMILIES, constructor, row)
        else:
            monkeypatch.setattr(groups, constructor, build)
    return refuse


@pytest.fixture
def built_orders(monkeypatch):
    """The order of every group built from a table or from permutations, in
    the order they are built."""
    orders = []
    validate, from_permutations = groups.validate_cayley_table, groups.Group._from_permutations

    def counting_validate(table, *args, **kwargs):
        orders.append(len(table))
        return validate(table, *args, **kwargs)

    def counting_from_permutations(name, perms):
        orders.append(len(perms))
        return from_permutations(name, perms)

    monkeypatch.setattr(groups, "validate_cayley_table", counting_validate)
    monkeypatch.setattr(groups.Group, "_from_permutations",
                        staticmethod(counting_from_permutations))
    return orders
