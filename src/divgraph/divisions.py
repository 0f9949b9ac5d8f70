"""Conjugacy classes and divisions.

Two elements share a division when the cyclic subgroups they generate are
conjugate; equivalently one is conjugate to a power of the other with the
exponent coprime to its order.  Divisions are unions of conjugacy classes,
and classes can be read off a Cayley table two independent ways: by direct
conjugation orbits and by Golomb's diagonal-symmetry rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

from .errors import (InternalInvariantError, NotEvenClass, NotSplitClass,
                     ResourceCapExceeded, TypeMismatch, ValidationError, check_cap)
from .groups import Group
from .perms import Permutation, parity_of_type


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class Division:
    representative: int
    members: tuple[int, ...]
    classes: tuple[int, ...]  # ids into the conjugacy_classes list
    common_order: int


def conjugacy_classes(G: Group) -> list[ConjugacyClass]:
    """Conjugation orbits, each represented by its minimal element.

    Orbits are walked under conjugation by a generating set only, which is
    enough because conjugation by a product factors through the generators.
    """
    gens = G.generating_set() or (0,)
    assigned = [False] * G.order
    classes = []
    for rep in G.elements():
        if assigned[rep]:
            continue
        orbit = [rep]
        assigned[rep] = True
        head = 0
        while head < len(orbit):
            x = orbit[head]
            head += 1
            for s in gens:
                y = G.conjugate(x, s)
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
        classes.append(ConjugacyClass(rep, tuple(sorted(orbit))))
    return classes


def golomb_classes(G: Group) -> list[ConjugacyClass]:
    """Conjugacy classes from table symmetry: ab and ba are always conjugate,
    and every conjugate pair arises this way.

    Also verifies the counting rule: if c appears k times as both ab and ba
    for the same (a, b), its class has exactly n/k elements.
    """
    n = G.order
    parent = list(range(n))

    def root(x: int) -> int:  # path halving
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    diag_count = [0] * n
    for a in range(n):
        for b in range(n):
            ab = G.mul(a, b)
            ba = G.mul(b, a)
            ra, rb = root(ab), root(ba)
            if ra != rb:  # the smaller root wins
                parent[max(ra, rb)] = min(ra, rb)
            if ab == ba:
                diag_count[ab] += 1
    groups: dict[int, list[int]] = {}  # each root is its class's least member
    for g in range(n):
        groups.setdefault(root(g), []).append(g)
    classes = [ConjugacyClass(r, tuple(members)) for r, members in groups.items()]
    for c in classes:
        k = diag_count[c.representative]
        if k == 0 or n % k or n // k != len(c.members):
            raise InternalInvariantError(
                f"size rule n/k failed for class of {c.representative}: "
                f"k={k}, class size {len(c.members)}"
            )
    return classes


def divisions(G: Group, classes: list[ConjugacyClass] | None = None) -> list[Division]:
    """Divisions as orbits of the units mod ord(phi) on the classes.

    The division of phi is the classes of phi^k over all k prime to
    ord(phi).  The units form a group, so one walk of phi's powers from each
    class not yet covered gives its division whole, represented by its
    least member.
    """
    if classes is None:
        classes = conjugacy_classes(G)
    class_of = {g: idx for idx, c in enumerate(classes) for g in c.members}
    covered, out = set(), []
    for idx, c in enumerate(classes):
        if idx in covered:
            continue
        phi = x = c.representative
        order = G.element_order(phi)
        class_ids = {idx}
        for k in range(1, order):
            if gcd(k, order) == 1:
                class_ids.add(class_of[x])
            x = G.mul(x, phi)
        covered |= class_ids
        members = sorted(g for i in class_ids for g in classes[i].members)
        rep = members[0]
        orders = {G.element_order(g) for g in members}
        if len(orders) != 1:
            raise InternalInvariantError(
                f"division of {rep} mixes element orders {orders}"
            )
        out.append(Division(rep, tuple(members), tuple(sorted(class_ids)), orders.pop()))
    out.sort(key=lambda d: d.representative)
    return out


def division_of(G: Group, g: int, divs: list[Division] | None = None) -> Division:
    """The unique division containing g."""
    if type(g) is int and 0 <= g < G.order:
        for d in divisions(G) if divs is None else divs:
            if g in d.members:
                return d
    raise ValueError(f"element {g!r} outside 0..{G.order - 1}")


# -- alternating-group division theory ----------------------------------------


def _check_partition(t) -> tuple[int, ...]:
    t = tuple(t)
    if not t or any(type(x) is not int or x < 1 for x in t):  # a bool is no part
        raise ValueError(f"not a partition of a positive integer: {t}")
    if list(t) != sorted(t, reverse=True):
        raise ValueError(f"partition must be weakly decreasing: {t}")
    return t


def class_splits_in_alternating(t) -> bool:
    """Does the even class with cycle type t split into two A_n classes?

    True exactly when the cycle lengths (fixed points included) are odd and
    pairwise distinct.
    """
    t = _check_partition(t)
    if parity_of_type(t) != 0:
        raise NotEvenClass(f"cycle type {t} describes odd permutations")
    return all(x % 2 == 1 for x in t) and len(set(t)) == len(t)


def split_class_inverse_closed(t) -> bool:
    """Are the two split classes each closed under inverses?

    True exactly when the number of cycle lengths congruent to 3 mod 4 is
    even; otherwise every inverse pair straddles the two classes.
    """
    t = _check_partition(t)
    if not class_splits_in_alternating(t):
        raise NotSplitClass(f"cycle type {t} does not split")
    return sum(1 for x in t if x % 4 == 3) % 2 == 0


def ambivalent_alternating(n: int) -> bool:
    """Is every element of A_n conjugate (in A_n) to its inverse?"""
    if type(n) is not int:
        raise ValueError(f"alternating ambivalence needs an int degree, got {n!r}")
    if n < 2:
        raise ValueError(f"alternating ambivalence needs n >= 2, got {n}")
    return n in (2, 5, 6, 10, 14)


def standard_conjugator(p: Permutation, q: Permutation) -> Permutation:
    """Some s with s^-1 p s = q, built by aligning cycles sorted by
    (length, minimal point)."""
    if p.cycle_type() != q.cycle_type():
        raise TypeMismatch(f"{p} and {q} have different cycle types")
    key = lambda c: (len(c), c[0])
    p_cycles = sorted(p.cycles(include_fixed=True), key=key)
    q_cycles = sorted(q.cycles(include_fixed=True), key=key)
    images = [0] * p.degree
    for pc, qc in zip(p_cycles, q_cycles):
        for a, b in zip(pc, qc):
            images[a - 1] = b - 1
    s = Permutation(images)
    if s.inverse() * p * s != q:
        raise InternalInvariantError("constructed conjugator failed to conjugate")
    return s


def same_class_in_alternating(p: Permutation, q: Permutation, n: int) -> bool:
    """Do p and q (even, same cycle type) lie in the same A_n class?

    For non-split types the S_n class does not break apart, so the answer is
    yes.  For split types any conjugator has a well-defined parity, so the
    canonical one decides.
    """
    if type(n) is not int or p.degree != n or q.degree != n:
        raise TypeMismatch(f"expected degree {n!r}, got {p.degree} and {q.degree}")
    if not (p.is_even() and q.is_even()):
        raise NotEvenClass("both permutations must be even")
    if p.cycle_type() != q.cycle_type():
        raise TypeMismatch(f"cycle types differ: {p.cycle_type()} vs {q.cycle_type()}")
    if not class_splits_in_alternating(p.cycle_type()):
        return True
    return standard_conjugator(p, q).is_even()


def _even_partitions(n: int):
    def parts(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    for t in parts(n, n):
        if parity_of_type(t) == 0:
            yield t


def alternating_divisions_by_type(n: int, cap: int = 20) -> dict[tuple[int, ...], int]:
    """For each even cycle type of degree n, the number of A_n divisions it
    carries (1 or 2), decided from the splitting rule and the square criterion
    of ``_divisions_within_type`` rather than looked up.
    """
    if type(n) is not int:
        raise ValidationError(f"degree must be an int, got {n!r}")
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    check_cap(cap, "cap")
    if n > cap:
        raise ResourceCapExceeded(f"degree {n} exceeds cap {cap}")
    return {t: _divisions_within_type(t) for t in _even_partitions(n)}


def _divisions_within_type(t) -> int:
    """2 exactly when t splits in A_n and the product m of its parts is a square.

    In a split type (distinct odd parts) the division of pi holds pi^k for
    every k prime to m, and it holds both A_n classes of the type exactly
    when some such pi^k lies in the other class.  The conjugator from pi to
    pi^k multiplies by k on each cycle, so by Zolotarev its sign is the
    product of the Jacobi symbols (k/t_i), which is (k/m).  As a function of
    k that symbol is identically 1, leaving two divisions of one class each,
    exactly when m is a perfect square.
    """
    if not class_splits_in_alternating(t):
        return 1
    m = prod(t)
    return 2 if isqrt(m) ** 2 == m else 1
