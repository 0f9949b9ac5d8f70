"""Concrete finite groups: Cayley tables, permutation closures, and a catalog.

Elements are the indices 0..n-1 with the identity always at index 0.
Groups are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice, permutations, repeat
from math import gcd
from operator import itemgetter

from .errors import (
    DegreeMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    OrderCapExceeded,
    UnknownDescriptor,
    check_cap,
)
from .perms import Permutation

DEFAULT_ORDER_CAP = 5040  # 7!
TABLE_ORDER_CAP = 1024  # table-built groups: a validated table of order 1024 takes about 1 s
EAGER_TABLE_LIMIT = 512  # permutation groups above this keep a lazy table


class Group:
    """A finite group on element indices 0..n-1 with identity 0.

    Products come either from a stored Cayley table or, for larger
    permutation-built groups, from composing the stored permutations on
    demand.  Use :func:`validate_cayley_table`, :func:`from_permutation_generators`
    or :func:`catalog` to construct one.
    """

    __slots__ = ("name", "order", "names", "inverse", "perm_images",
                 "_table", "_perm_index", "_generators", "_orders", "_keys")

    def __init__(self, name, order, names, inverse, perm_images, table, perm_index):
        self.name = name
        self.order = order
        self.names = list(names)
        self.inverse = tuple(inverse)
        self.perm_images = tuple(perm_images) if perm_images is not None else None
        self._table = table
        self._perm_index = perm_index
        self._generators = None
        self._orders = None
        self._keys = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _from_permutations(name, perms):
        """Internal: wrap a closed list of distinct permutations, the identity
        first (a closure walked from the identity, or itertools.permutations)."""
        n = len(perms)
        index = {p.images: i for i, p in enumerate(perms)}
        inverse = tuple(index[p.inverse().images] for p in perms)
        names = [str(p) for p in perms]
        g = Group(name, n, names, inverse, perms, None, index)
        if n <= EAGER_TABLE_LIMIT:
            g.table  # the property builds and keeps the table
        return g

    # -- arithmetic ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        t = self._table
        if t is not None:
            return t[a][b]
        perms = self.perm_images
        qi = perms[b].images
        return self._perm_index[tuple(qi[i] for i in perms[a].images)]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, g: int, s: int) -> int:
        """s^-1 g s."""
        return self.mul(self.mul(self.inverse[s], g), s)

    def power(self, g: int, k: int) -> int:
        """g^k for any integer k (negative powers via the inverse)."""
        if k < 0:
            g, k = self.inverse[g], -k
        result = 0
        base = g
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def element_order(self, g: int) -> int:
        return self.element_orders()[g]

    def element_orders(self) -> tuple[int, ...]:
        """The order of every element (cached).  The powers of each element
        not yet seen are walked once: if g has order m, g^k has order m/gcd(k, m)."""
        if self._orders is None:
            orders = [0] * self.order
            for g in self.elements():
                if not orders[g]:
                    powers = [g]
                    while powers[-1]:
                        powers.append(self.mul(powers[-1], g))
                    m = len(powers)
                    for k, x in enumerate(powers, 1):
                        orders[x] = m // gcd(k, m)
            self._orders = tuple(orders)
        return self._orders

    @property
    def table(self) -> list[list[int]]:
        """The full n x n Cayley table (materialized on first access)."""
        if self._table is None:
            n = self.order
            self._table = [[self.mul(a, b) for b in range(n)] for a in range(n)]
        return self._table

    def elements(self) -> range:
        return range(self.order)

    def generating_set(self) -> tuple[int, ...]:
        """A small generating set, found greedily (cached)."""
        if self._generators is None:
            self._generators = tuple(greedy_generators(self))
        return self._generators

    def is_abelian(self) -> bool:
        gens = self.generating_set()
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def element_order_histogram(self) -> dict[int, int]:
        """How many elements have each order, read off :meth:`element_orders`."""
        return dict(Counter(self.element_orders()))

    def __repr__(self) -> str:
        return f"<Group {self.name!r} of order {self.order}>"


def extend_subgroup(G: Group, members, mask: int, gens) -> tuple[list[int], int]:
    """The subgroup <gens>, grown coset by coset from a subgroup H of it
    (Dimino's method).

    ``members`` lists H and ``mask`` is its bitmask; H must lie in <gens>,
    for instance because ``gens`` holds a generating set of H.  Returns the
    members (H first, then each new right coset in the order found) and
    their mask.

    The elements found so far form a union U of right cosets of H, one per
    representative.  For a representative r and a generator s, the coset
    H(r*s) lies in U exactly when r*s does, so each pair costs one product
    and one bit test, and a new coset costs |H| products.  Once no r*s
    leaves U, U holds the identity and is closed under right multiplication
    by every generator, so (G being finite) it is <gens>.
    """
    found = list(members)
    reps = [0]
    for r in reps:
        for s in gens:
            x = G.mul(r, s)
            if not mask >> x & 1:
                reps.append(x)
                for h in members:
                    y = G.mul(h, x)
                    found.append(y)
                    mask |= 1 << y
    return found, mask


def closure_from_generators(G: Group, gens) -> list[int]:
    """Sorted members of the subgroup generated by the sequence ``gens``, one
    generator at a time; a generator already inside costs one bit test."""
    members, mask = [0], 1
    for i, g in enumerate(gens):
        if not mask >> g & 1:
            members, mask = extend_subgroup(G, members, mask, gens[:i + 1])
    return sorted(members)


def greedy_generators(G: Group, candidates=None):
    """Yield the greedy generators of a table with identity 0: each is the
    first of ``candidates`` (ascending, by default all of G) outside the
    closure of the earlier ones under right multiplication, yielded before
    that closure grows so a caller may check it first.  The members of a
    subgroup H give the generating set of H as its own group would find it."""
    members, mask, gens = [0], 1, []
    for g in G.elements() if candidates is None else candidates:
        if not mask >> g & 1:
            yield g
            gens.append(g)
            members, mask = extend_subgroup(G, members, mask, gens)


# -- validation ----------------------------------------------------------------

def _check_latin(table) -> None:
    """Name the first fault in one walk: row by row its length, a cell that
    is no index in 0..n-1 (a bool is none), a repeat; then column repeats."""
    n = len(table)
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotClosed(f"row {i} has length {len(row)}, expected {n}")
        if set(map(type, row)) != {int} or frozenset(row) != full:
            for j, entry in enumerate(row):
                if type(entry) is not int or entry < 0 or entry >= n:
                    raise NotClosed(f"cell ({i},{j}) holds {entry!r}, not an index in 0..{n - 1}")
            dup = next(x for x in row if row.count(x) > 1)
            raise NotClosed(f"row {i} repeats {dup}")
    for j, col in enumerate(zip(*table)):
        if frozenset(col) != full:
            dup = next(x for x in col if col.count(x) > 1)
            raise NotClosed(f"column {j} repeats {dup}")


def validate_cayley_table(table, names=None, name="table-group",
                          order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Validate an n x n index table and wrap it as a Group.

    Checks, in order: Latin square (NotClosed), a two-sided identity
    (NoIdentity; moved to index 0 if it sits elsewhere), associativity
    (NotAssociative, naming a failing triple in the input's labels) and
    two-sided inverses (NoInverse).

    Associativity is exact, by Light's test on the greedy generators.  Call
    a good when (x*a)*y == x*(a*y) for all x, y.  Each generator is checked
    (n^2 products) before the closure of the checked ones grows.

    - Good elements are closed under the product: for good a and b, both
      sides of the test for a*b equal x*(a*(b*y)).
    - So the closure is good, hence associative, cancellative and holds 0:
      a subgroup H.  Its right cosets partition the table, since h*x = h'*y
      gives k*x = ((k*h^-1)*h')*y for every k in H (h and h' are good).
    - The next generator g lies outside H, so the next closure holds H and
      the disjoint coset Hg: each generator at least doubles the closure.
      That gives at most log2(n) generators and O(n^2 log n) work at every
      order, even on a table that is not a group.
    - Once the closure is all n elements, every element is good: the table
      is associative.  The generators become ``generating_set()``.

    The closure grows by :func:`extend_subgroup`; its argument holds here,
    as it multiplies only good elements and H's right cosets partition the table.
    """
    check_cap(order_cap, "order cap")
    table = [list(row) for row in table]
    n = len(table)
    if n == 0:
        raise NotClosed("empty table")
    if n > order_cap:
        raise OrderCapExceeded(f"order {n} exceeds cap {order_cap}")
    _check_latin(table)

    ids = list(range(n))  # row e is ids for at most one e: the columns are Latin
    identity = next((e for e, row in enumerate(table) if row == ids), None)
    if identity is None or [row[identity] for row in table] != ids:
        raise NoIdentity("no two-sided identity element")

    relabel = ids.copy()
    relabel[0], relabel[identity] = identity, 0  # an involution
    if identity != 0:  # swap rows, columns and values 0 and identity in place
        table[0], table[identity] = table[identity], table[0]
        for row in table:
            row[0], row[identity] = row[identity], row[0]
            i, j = row.index(0), row.index(identity)
            row[i], row[j] = identity, 0
        if names is not None:
            names = list(names)
            names[0], names[identity] = names[identity], names[0]

    group = Group(name, n, (), (), None, table, None)  # inverse, names below
    gens = []
    for a in greedy_generators(group):
        row_a = table[a]
        times_a = itemgetter(*row_a)  # row_x -> the row of x*(a*y) over y
        for x, row_x in enumerate(table):
            row_xa = table[row_x[a]]
            if list(times_a(row_x)) != row_xa:
                y = next(y for y in range(n) if row_x[row_a[y]] != row_xa[y])
                x, a, y = relabel[x], relabel[a], relabel[y]  # input labels
                raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")
        gens.append(a)

    inverse = [row.index(0) for row in table]  # the right inverses
    for i, j in enumerate(inverse):
        if table[j][i] != 0:
            raise NoInverse(f"element {i} has no two-sided inverse")
    if names is None:
        names = [f"g{i}" for i in range(n)]
    elif len(names) != n:
        raise NotClosed(f"{len(names)} names for {n} elements")
    group.names, group.inverse = list(names), tuple(inverse)
    group._generators = tuple(gens)
    return group


def from_permutation_generators(gens, degree: int, name=None,
                                order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Group generated by permutations of {1..degree} under composition.

    Elements are discovered breadth first (identity first, then products with
    the generators in the given order), which fixes the element indexing.
    With no generators nothing backs ``degree``, so one above ``order_cap``
    is rejected before a permutation of that degree is built; every group
    within the cap acts faithfully on at most that many points.
    """
    check_cap(order_cap, "order cap")
    gens = list(gens)
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch(f"generator {g} has degree {g.degree}, expected {degree}")
    if not gens and degree > order_cap:
        raise DegreeMismatch(f"degree {degree} exceeds the order cap {order_cap}")
    elements = [tuple(range(degree))]  # image tuples, composed as Group.mul does
    index = {elements[0]: 0}
    for p in elements:  # grows while it is walked: breadth first
        for g in gens:
            qi = g.images
            q = tuple(qi[i] for i in p)
            if q not in index:
                if len(elements) >= order_cap:
                    raise OrderCapExceeded(
                        f"closure exceeds order cap {order_cap}"
                    )
                index[q] = len(elements)
                elements.append(q)
    if name is None:
        gen_names = ", ".join(str(g) for g in gens) or "()"
        name = f"<{gen_names}>"
    group = Group._from_permutations(name, [Permutation(q) for q in elements])
    group._generators = tuple(sorted({index[g.images] for g in gens} - {0}))
    return group


# -- catalog -------------------------------------------------------------------

def _table_group(name: str, n: int, mul, names) -> Group:
    """The group on 0..n-1 under the product rule ``mul``, validated as a table."""
    return validate_cayley_table([[mul(a, b) for b in range(n)] for a in range(n)],
                                 names, name, order_cap=n)


def _permutation_group(family: str, n: int, keep=None) -> Group:
    """``family:n`` on the permutations of degree n that ``keep`` accepts (all
    if it is None), in lexicographic image order."""
    if n < 1:
        raise UnknownDescriptor(f"{family} degree must be positive, got {n}")
    perms = [p for p in map(Permutation, permutations(range(n))) if keep is None or keep(p)]
    return Group._from_permutations(f"{family}:{n}", perms)


def cyclic(n: int) -> Group:
    if n < 1:
        raise UnknownDescriptor(f"cyclic order must be positive, got {n}")
    return _table_group(f"cyclic:{n}", n, lambda a, b: (a + b) % n, [str(i) for i in range(n)])


def klein4() -> Group:
    """(Z_2)^2, its elements named as in ``elementary_abelian(2, 2)``."""
    return _table_group("klein4", 4, int.__xor__, ["(0,0)", "(0,1)", "(1,0)", "(1,1)"])


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n (symmetries of the regular n-gon)."""
    if n < 1:
        raise UnknownDescriptor(f"dihedral parameter must be positive, got {n}")

    def mul(a, b):
        fa, ia = divmod(a, n)
        fb, ib = divmod(b, n)
        if fb == 0:
            return fa * n + (ia + ib) % n
        return (1 - fa) * n + (ib - ia) % n

    names = [f"r{i}" for i in range(n)] + [f"sr{i}" for i in range(n)]
    names[0] = "e"
    return _table_group(f"dihedral:{n}", 2 * n, mul, names)


_QUNITS = ("1", "i", "j", "k")
# unit multiplication: _QMUL[a][b] = (unit index, sign flip)
_QMUL = (
    ((0, 0), (1, 0), (2, 0), (3, 0)),
    ((1, 0), (0, 1), (3, 0), (2, 1)),
    ((2, 0), (3, 1), (0, 1), (1, 0)),
    ((3, 0), (2, 0), (1, 1), (0, 1)),
)


def quaternion8() -> Group:
    """Quaternion group {1, -1, i, -i, j, -j, k, -k}."""

    def mul(a, b):
        ua, sa = divmod(a, 2)
        ub, sb = divmod(b, 2)
        u, flip = _QMUL[ua][ub]
        return 2 * u + (sa ^ sb ^ flip)

    names = []
    for u in _QUNITS:
        names.extend([u, f"-{u}"])
    return _table_group("quaternion8", 8, mul, names)


def symmetric(n: int) -> Group:
    """Symmetric group S_n with elements in lexicographic image order."""
    return _permutation_group("symmetric", n)


def alternating(n: int) -> Group:
    """Alternating group A_n with elements in lexicographic image order."""
    return _permutation_group("alternating", n, Permutation.is_even)


def elementary_abelian(p: int, k: int) -> Group:
    """(Z_p)^k with tuple elements in lexicographic order."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise UnknownDescriptor(f"elementary_abelian needs a prime, got {p}")
    if k < 1:
        raise UnknownDescriptor(f"elementary_abelian rank must be positive, got {k}")
    places = [p ** j for j in reversed(range(k))]  # element i has the digits i // q % p
    names = [f"({','.join(str(i // q % p) for q in places)})" for i in range(p ** k)]
    return _table_group(f"elementary_abelian:{p}:{k}", p ** k,
                        lambda a, b: sum((a // q + b // q) % p * q for q in places), names)


def heisenberg27() -> Group:
    """The nonabelian group of order 27 and exponent three.

    Generators x, y, z with x^3 = y^3 = z^3 = 1, xy = yx, xz = zx, yz = xzy;
    x is central and elements are normal forms x^a y^b z^c.
    """

    def mul(u, v):
        a, rest = divmod(u, 9)
        b, c = divmod(rest, 3)
        d, rest = divmod(v, 9)
        e, f = divmod(rest, 3)
        return 9 * ((a + d - c * e) % 3) + 3 * ((b + e) % 3) + (c + f) % 3

    def fmt(u):
        a, rest = divmod(u, 9)
        b, c = divmod(rest, 3)
        parts = []
        for sym, exp in (("x", a), ("y", b), ("z", c)):
            if exp == 1:
                parts.append(sym)
            elif exp == 2:
                parts.append(f"{sym}^2")
        return " ".join(parts) or "e"

    return _table_group("heisenberg27", 27, mul, [fmt(u) for u in range(27)])


def direct_product(a: Group, b: Group) -> Group:
    """Direct product with element (i, j) at index i*|b| + j."""
    nb = b.order
    names = [f"({na},{nbn})" for na in a.names for nbn in b.names]
    return _table_group(f"product:{a.name}:{b.name}", a.order * nb,
                        lambda x, y: a.mul(x // nb, y // nb) * nb + b.mul(x % nb, y % nb), names)


#: One row per catalog family: its constructor, the factors of its order from
#: the descriptor's integer arguments (so each cap is checked before anything
#: is built), and whether it is a validated table, which TABLE_ORDER_CAP bounds.
_FAMILIES = {
    "cyclic": (cyclic, lambda n: (n,), True),
    "klein4": (klein4, lambda: (4,), True),
    "dihedral": (dihedral, lambda n: (2, n), True),
    "quaternion8": (quaternion8, lambda: (8,), True),
    "symmetric": (symmetric, lambda n: range(2, n + 1), False),
    "alternating": (alternating, lambda n: range(3, n + 1), False),
    "elementary_abelian": (elementary_abelian, lambda p, k: repeat(p, k), True),
    "heisenberg27": (heisenberg27, lambda: (27,), True),
}


def _parse_descriptor(tokens: list[str], bound: int):
    """(name, order, table flag, builder, rest) of the descriptor heading
    ``tokens``, building nothing.  The order is exact up to ``bound`` and above
    it otherwise: bound.bit_length() + 1 factors are multiplied at most, and a
    valid family with more than two has every factor at least 2.  Invalid
    arguments give order 0 at most, and the builder refuses them."""
    if not tokens:
        raise UnknownDescriptor("empty descriptor")
    head, rest = tokens[0], tokens[1:]
    if head in ("product", "direct_product"):
        left, lorder, _, lbuild, rest = _parse_descriptor(rest, bound)
        right, rorder, _, rbuild, rest = _parse_descriptor(rest, bound)
        # a factor of order 0 still leaves the other factor's order capped
        order = max(lorder, rorder, lorder * rorder)
        return (f"product:{left}:{right}", order, True,
                lambda: direct_product(lbuild(), rbuild()), rest)
    if head not in _FAMILIES:
        raise UnknownDescriptor(f"unknown catalog name {head!r}")
    build, factors, table = _FAMILIES[head]
    arity = factors.__code__.co_argcount
    if len(rest) < arity:
        raise UnknownDescriptor(f"{head} expects {arity} argument(s)")
    args = []
    for tok in rest[:arity]:
        try:
            args.append(int(tok))
        except ValueError:
            raise UnknownDescriptor(f"non-integer argument {tok!r} for {head}") from None
    order = 1
    for f in islice(factors(*args), bound.bit_length() + 1):
        order *= f
    return (":".join([head, *rest[:arity]]), max(order, 0), table,
            lambda: build(*args), rest[arity:])


def _parse(descriptor: str, order_cap: int):
    """(name, order, table flag, builder) of a whole descriptor."""
    tokens = [t for t in str(descriptor).strip().split(":") if t != ""]
    *parsed, rest = _parse_descriptor(tokens, max(order_cap, TABLE_ORDER_CAP))
    if rest:
        raise UnknownDescriptor(f"trailing tokens {rest!r} in {descriptor!r}")
    return parsed


def _check_order(name: str, order: int, table: bool, order_cap: int) -> None:
    """Refuse ``name`` at the first cap its order passes; a validated table
    is also bounded by TABLE_ORDER_CAP."""
    for cap in (order_cap, TABLE_ORDER_CAP) if table else (order_cap,):
        if order > cap:
            raise OrderCapExceeded(f"{name} has order above the cap {cap}")


def catalog(descriptor: str, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a named group from a descriptor like ``symmetric:4`` or
    ``product:cyclic:2:cyclic:4``; its caps are checked before anything is built."""
    check_cap(order_cap, "order cap")
    name, order, table, build = _parse(descriptor, order_cap)
    _check_order(name, order, table, order_cap)
    return build()


#: The stock groups of the standard sweep besides the dense cyclic and
#: dihedral ranges.  Elementary abelian groups stop at rank 4 for p = 2 and
#: rank 3 for p = 3, as larger ones have lattices out of proportion to the
#: rest; degree 7 is above TABLE_ORDER_CAP, which bounds any sweep through
#: cyclic:max_order.  The products mix abelian types and nonabelian factors.
_STANDARD_DESCRIPTORS = (
    "klein4", "quaternion8", "heisenberg27",
    *(f"symmetric:{n}" for n in range(2, 7)),
    *(f"alternating:{n}" for n in range(3, 7)),
    *(f"elementary_abelian:{p}:{k}"
      for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2))),
    *(f"product:cyclic:{a}:cyclic:{b}" for a, b in
      ((2, 4), (2, 6), (2, 8), (4, 4), (2, 12), (3, 9), (3, 12), (4, 8), (6, 6))),
    *(f"product:symmetric:3:{right}"
      for right in ("cyclic:2", "cyclic:3", "cyclic:4", "symmetric:3")),
    "product:quaternion8:cyclic:2", "product:quaternion8:cyclic:3",
    "product:alternating:4:cyclic:2", "product:dihedral:4:cyclic:2",
    "product:dihedral:5:cyclic:2", "product:dihedral:4:cyclic:3",
)


def standard_groups(max_order: int) -> list[Group]:
    """The standard catalog sweep: every stock construction of order <= max_order.

    The whole list is parsed and the kept descriptors' caps are checked
    before any group is built, so a sweep with a table above TABLE_ORDER_CAP
    is refused at once.  Isomorphic duplicates under different constructions
    are kept on purpose.
    """
    check_cap(max_order, "order cap")
    parsed = [_parse(descriptor, max_order)
              for descriptor in (*(f"cyclic:{n}" for n in range(1, max_order + 1)),
                                 *(f"dihedral:{n}" for n in range(2, max_order // 2 + 1)),
                                 *_STANDARD_DESCRIPTORS)]
    kept = []
    for name, order, table, build in parsed:
        if order <= max_order:
            _check_order(name, order, table, max_order)
            kept.append(build)
    return [build() for build in kept]


# -- quotients, subgroups, isomorphism -----------------------------------------

def subgroup_as_group(G: Group, members) -> tuple[Group, list[int]]:
    """The subgroup on ``members`` as its own Group.

    Returns (group, members_sorted) where local index i corresponds to the
    ambient element members_sorted[i]; the identity stays at local index 0.
    """
    members = sorted(members)
    if not members or members[0] != 0:
        raise ValueError("subgroup members must contain the identity 0")
    local = {g: i for i, g in enumerate(members)}
    names = [G.names[g] for g in members]
    try:
        sub = _table_group(f"{G.name}|sub{len(members)}", len(members),
                           lambda a, b: local[G.mul(members[a], members[b])], names)
    except KeyError:
        raise ValueError("member set is not closed under the product") from None
    return sub, members


def right_coset_partition(G: Group, members) -> tuple[list[int], list[int]]:
    """Right cosets Hg of the subgroup with these members: the least member
    of each coset in ascending order (coset 0 is H), and the coset index of
    each g.  Scanning g upward, the first g outside every coset found so far
    is the least member of a new one."""
    coset_of = [-1] * G.order
    reps = []
    rows = None if G._table is None else [G._table[h] for h in members]
    for g in range(G.order):
        if coset_of[g] < 0:
            for x in [row[g] for row in rows] if rows else [G.mul(h, g) for h in members]:
                coset_of[x] = len(reps)
            reps.append(g)
    return reps, coset_of


def quotient_group(G: Group, normal_members) -> tuple[Group, list[int]]:
    """G/N for a normal subgroup N given by its member set.

    Returns (quotient, coset_of) where coset_of[g] is the index of the coset
    of g; cosets are indexed by their minimal elements in ascending order,
    putting the identity coset at index 0.
    """
    nset = frozenset(normal_members)
    reps, coset_of = right_coset_partition(G, nset)
    for s in G.generating_set():  # sN = Ns for each generator s: N is normal
        for h in nset:
            if coset_of[G.mul(h, s)] != coset_of[G.mul(s, h)]:
                raise ValueError("subgroup is not normal")
    names = [f"[{G.names[r]}]" for r in reps]
    quotient = _table_group(f"{G.name}/N{len(nset)}", len(reps),
                            lambda a, b: coset_of[G.mul(reps[a], reps[b])], names)
    return quotient, coset_of


def relabeled_copy(G: Group, relabel) -> Group:
    """The same group with elements renamed by the permutation ``relabel``.

    relabel[i] is the new index of old element i; the result is produced by
    validate_cayley_table, so its identity is normalized back to index 0.
    """
    n = G.order
    relabel = list(relabel)
    inverse = [0] * n
    for old, new in enumerate(relabel):
        inverse[new] = old
    names = [G.names[inverse[i]] for i in range(n)]
    return _table_group(f"{G.name}~relabeled", n,
                        lambda i, j: relabel[G.mul(inverse[i], inverse[j])], names)


def _element_keys(G: Group) -> tuple[tuple[int, int], ...]:
    """(order, number of square roots) of each element, cached on the group;
    an isomorphism keeps both."""
    if G._keys is None:
        roots = Counter(G.mul(x, x) for x in G.elements())
        G._keys = tuple((m, roots[g]) for g, m in enumerate(G.element_orders()))
    return G._keys


def are_isomorphic(G1: Group, G2: Group) -> bool:
    """Backtracking table-isomorphism test (meant for small orders).

    Each element is keyed by its order and its number of square roots, and
    groups whose key multisets differ are not isomorphic.  G1's generators
    get images one at a time among G2's elements of the same key.  The images
    so far are closed into the map on the subgroup they generate
    (x*g -> f(x)*h), and a choice is dropped as soon as that map is
    ill-defined or not injective; a full choice that survives is an
    isomorphism.  Each generator at least doubles the subgroup, so the
    closures along one search path cost about two closures of G1.
    """
    if G1.order != G2.order:
        return False
    keys1, keys2 = _element_keys(G1), _element_keys(G2)
    if sorted(keys1) != sorted(keys2):
        return False
    gens = G1.generating_set()
    candidates = [[h for h, key in enumerate(keys2) if key == keys1[g]] for g in gens]

    def extends(images: tuple[int, ...]) -> bool:
        mapping, hit, frontier = {0: 0}, {0}, [0]
        while frontier:
            a = frontier.pop()
            for g, h in zip(gens, images):
                b, fb = G1.mul(a, g), G2.mul(mapping[a], h)
                if b not in mapping and fb not in hit:
                    mapping[b] = fb
                    hit.add(fb)
                    frontier.append(b)
                elif mapping.get(b) != fb:  # ill-defined, or fb already hit
                    return False
        return len(images) == len(gens) or any(
            extends((*images, h)) for h in candidates[len(images)])

    return extends(())


# -- JSON interchange ------------------------------------------------------------

def group_from_json(data: dict, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Parse the JSON group format.

    Either {"name", "order", "table"} with a full Cayley table, or
    {"name", "degree", "generators"} with 1-based permutation image lists.
    Indices, orders and degrees must be JSON integers (not floats, strings
    or booleans; ``type(x) is int`` excludes bool, which subclasses int).
    A declared order must equal the order of the group built, in either form.
    """
    if not isinstance(data, dict):
        raise NotClosed("group JSON must be an object")
    name = data.get("name", "json-group")
    if not isinstance(name, str):
        raise NotClosed("'name' must be a string")
    if "table" in data:
        table = data["table"]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise NotClosed("'table' must be a list of rows, each a list of indices")
        names = data.get("names")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(x, str) for x in names)
        ):
            raise NotClosed("'names' must be a list of strings")
        G = validate_cayley_table(table, names=names, name=name, order_cap=order_cap)
    elif "generators" in data:
        degree = data.get("degree")
        if type(degree) is not int or degree < 1:
            raise DegreeMismatch(f"bad degree {degree!r}")
        images = data["generators"]
        if not isinstance(images, list) or not all(
            isinstance(g, list) and all(type(x) is int for x in g) for g in images
        ):
            raise NotClosed("'generators' must be a list of image lists of integers")
        try:
            gens = [Permutation.from_one_based(g) for g in images]
        except ValueError as exc:
            raise NotClosed(f"bad generator image list: {exc}") from None
        G = from_permutation_generators(gens, degree, name=name, order_cap=order_cap)
    else:
        raise NotClosed("group JSON needs either a 'table' or 'generators' field")
    order = data.get("order", G.order)
    if type(order) is not int or order != G.order:
        raise NotClosed(f"declared order {order!r} but the group has order {G.order}")
    return G


def group_to_json(G: Group) -> dict:
    return {
        "name": G.name,
        "order": G.order,
        "table": [list(row) for row in G.table],
        "names": list(G.names),
    }
