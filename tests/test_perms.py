import pytest

from divgraph.perms import Permutation
from divgraph.errors import DegreeMismatch


def test_identity_and_cycles():
    e = Permutation.identity(5)
    assert str(e) == "()"
    assert e.cycle_type() == (1, 1, 1, 1, 1)
    assert e.is_even()


def test_from_cycles_and_str():
    p = Permutation.from_cycles([(1, 2, 3), (4, 5)], 6)
    assert p.apply(1) == 2 and p.apply(3) == 1 and p.apply(4) == 5
    assert str(p) == "(1 2 3)(4 5)"
    assert p.cycle_type() == (3, 2, 1)
    assert p.order() == 6


def test_composition_applies_left_to_right():
    p = Permutation.from_cycles([(1, 2)], 3)
    q = Permutation.from_cycles([(2, 3)], 3)
    # apply p first: 1 -> 2, then q: 2 -> 3
    assert (p * q).apply(1) == 3


def test_conjugation_relabels_points():
    p = Permutation.from_cycles([(1, 2, 3)], 4)
    s = Permutation.from_cycles([(3, 4)], 4)
    conj = s.inverse() * p * s
    assert conj == Permutation.from_cycles([(1, 2, 4)], 4)


def test_power_of_nine_cycle_matches_stated_square():
    pi = Permutation.from_cycles([tuple(range(1, 10))], 10)
    expected = Permutation.from_cycles([(1, 3, 5, 7, 9, 2, 4, 6, 8)], 10)
    assert pi ** 2 == expected
    assert pi ** -1 == pi.inverse()
    assert pi ** 9 == Permutation.identity(10)


def test_cycle_type_of_double_transposition():
    p = Permutation.from_cycles([(1, 2), (3, 4)], 4)
    assert p.cycle_type() == (2, 2)
    assert p.is_even()


def test_parity():
    assert not Permutation.from_cycles([(1, 2)], 2).is_even()
    assert Permutation.from_cycles([(1, 2, 3)], 3).is_even()
    assert not Permutation.from_cycles([(1, 2, 3, 4)], 4).is_even()


def test_degree_mismatch():
    p = Permutation.identity(3)
    q = Permutation.identity(4)
    with pytest.raises(DegreeMismatch):
        p * q


def test_bad_images_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 1)], 2)
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 2), (2, 3)], 3)


@pytest.mark.parametrize("build", [
    lambda: Permutation([1.9, 0]),
    lambda: Permutation(["1", "0"]),
    lambda: Permutation([True, False]),
    lambda: Permutation.from_one_based([2.0, 1]),
    lambda: Permutation.from_one_based(["2", "1"]),
    lambda: Permutation.from_one_based([2, True]),
    lambda: Permutation.from_cycles([(1, 2.7)], 3),
    lambda: Permutation.from_cycles([("1", "2")], 3),
    lambda: Permutation.from_cycles([(True, 2)], 3),
], ids=["float", "string", "bool", "one-based-float", "one-based-string", "one-based-bool",
        "cycle-float", "cycle-string", "cycle-bool"])
def test_entries_must_be_ints(build):
    """No entry is coerced: 1.9 does not become 1, nor True 1."""
    with pytest.raises(ValueError):
        build()
