"""Concrete finite groups: Cayley tables, permutation closures, and a catalog.

Elements are the indices 0..n-1 with the identity always at index 0.
Groups are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from math import factorial
from itertools import permutations as _itertools_permutations

from .errors import (
    DegreeMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    OrderCapExceeded,
    UnknownDescriptor,
)
from .perms import Permutation

DEFAULT_ORDER_CAP = 5040  # 7!
EAGER_TABLE_LIMIT = 512  # permutation groups above this keep a lazy table


class Group:
    """A finite group on element indices 0..n-1 with identity 0.

    Products come either from a stored Cayley table or, for larger
    permutation-built groups, from composing the stored permutations on
    demand.  Use :func:`validate_cayley_table`, :func:`from_permutation_generators`
    or :func:`catalog` to construct one.
    """

    __slots__ = ("name", "order", "names", "inverse", "perm_images",
                 "_table", "_perm_index", "_generators")

    def __init__(self, name, order, names, inverse, perm_images, table, perm_index):
        self.name = name
        self.order = order
        self.names = list(names)
        self.inverse = tuple(inverse)
        self.perm_images = tuple(perm_images) if perm_images is not None else None
        self._table = table
        self._perm_index = perm_index
        self._generators = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _from_permutations(name, perms):
        """Internal: wrap a full, closed list of permutations (identity first)."""
        n = len(perms)
        index = {p.images: i for i, p in enumerate(perms)}
        if len(index) != n:
            raise ValueError("duplicate permutations")
        if perms[0] != Permutation.identity(perms[0].degree):
            raise NoIdentity("element 0 is not the identity permutation")
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
        order = 1
        x = g
        while x != 0:
            x = self.mul(x, g)
            order += 1
        return order

    @property
    def table(self) -> list[list[int]]:
        """The full n x n Cayley table (materialized on first access)."""
        if self._table is None:
            perms = self.perm_images
            index = self._perm_index
            self._table = [
                [index[(p * q).images] for q in perms] for p in perms
            ]
        return self._table

    def elements(self) -> range:
        return range(self.order)

    def generating_set(self) -> tuple[int, ...]:
        """A small generating set, found greedily (cached)."""
        if self._generators is None:
            self._generators = tuple(_greedy_generators(self.order, self.mul))
        return self._generators

    def is_abelian(self) -> bool:
        gens = self.generating_set()
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def element_order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for g in self.elements():
            o = self.element_order(g)
            hist[o] = hist.get(o, 0) + 1
        return hist

    def __repr__(self) -> str:
        return f"<Group {self.name!r} of order {self.order}>"


# -- free functions mirroring the Group methods -------------------------------

def element_order(G: Group, g: int) -> int:
    return G.element_order(g)


def conjugate(G: Group, g: int, s: int) -> int:
    return G.conjugate(g, s)


def power(G: Group, g: int, k: int) -> int:
    return G.power(g, k)


def closure_from_generators(G: Group, gens) -> list[int]:
    """Subgroup generated by ``gens`` via BFS right-multiplication."""
    seen = {0}
    order = [0]
    head = 0
    gens = [g for g in gens if g != 0]
    while head < len(order):
        x = order[head]
        head += 1
        for s in gens:
            y = G.mul(x, s)
            if y not in seen:
                seen.add(y)
                order.append(y)
    return sorted(seen)


def _greedy_generators(order: int, mul):
    """Yield the greedy generators of a table with identity 0: each is the
    smallest element outside the closure of the earlier ones under right
    multiplication, yielded before that closure grows so a caller may check
    it first."""
    gens: list[int] = []
    closed = {0}
    members = [0]
    g = 0
    while len(members) < order:
        while g in closed:
            g += 1
        yield g
        gens.append(g)
        head = 0
        while head < len(members):
            x = members[head]
            head += 1
            for s in gens:
                y = mul(x, s)
                if y not in closed:
                    closed.add(y)
                    members.append(y)


# -- validation ----------------------------------------------------------------

def _check_latin(table) -> None:
    n = len(table)
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotClosed(f"row {i} has length {len(row)}, expected {n}")
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or entry < 0 or entry >= n:
                raise NotClosed(f"cell ({i},{j}) holds {entry!r}, not an index in 0..{n - 1}")
        if set(row) != full:
            dup = next(x for x in row if row.count(x) > 1)
            raise NotClosed(f"row {i} repeats {dup}")
    for j, col in enumerate(zip(*table)):
        if set(col) != full:
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
    """
    table = [list(row) for row in table]
    n = len(table)
    if n == 0:
        raise NotClosed("empty table")
    if n > order_cap:
        raise OrderCapExceeded(f"order {n} exceeds cap {order_cap}")
    _check_latin(table)

    identity = None
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")

    relabel = list(range(n))
    relabel[0], relabel[identity] = identity, 0  # an involution
    if identity != 0:
        table = [
            [relabel[table[relabel[i]][relabel[j]]] for j in range(n)]
            for i in range(n)
        ]
        if names is not None:
            names = list(names)
            names[0], names[identity] = names[identity], names[0]

    gens = []
    for a in _greedy_generators(n, lambda x, y: table[x][y]):
        row_a = table[a]
        for x, row_x in enumerate(table):
            row_xa = table[row_x[a]]
            if [row_x[v] for v in row_a] != row_xa:
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
    group = Group(name, n, list(names), inverse, None, table, None)
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
    gens = list(gens)
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch(f"generator {g} has degree {g.degree}, expected {degree}")
    if not gens and degree > order_cap:
        raise DegreeMismatch(f"degree {degree} exceeds the order cap {order_cap}")
    identity = Permutation.identity(degree)
    elements = [identity]
    index = {identity.images: 0}
    head = 0
    while head < len(elements):
        p = elements[head]
        head += 1
        for g in gens:
            q = p * g
            if q.images not in index:
                if len(elements) >= order_cap:
                    raise OrderCapExceeded(
                        f"closure exceeds order cap {order_cap}"
                    )
                index[q.images] = len(elements)
                elements.append(q)
    if name is None:
        gen_names = ", ".join(str(g) for g in gens) or "()"
        name = f"<{gen_names}>"
    group = Group._from_permutations(name, elements)
    group._generators = tuple(sorted({index[g.images] for g in gens} - {0}))
    return group


# -- catalog -------------------------------------------------------------------

def cyclic(n: int) -> Group:
    if n < 1:
        raise UnknownDescriptor(f"cyclic order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = [str(i) for i in range(n)]
    return validate_cayley_table(table, names, f"cyclic:{n}", order_cap=n)


def klein4() -> Group:
    g = elementary_abelian(2, 2)
    g.name = "klein4"
    return g


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

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    names = [f"r{i}" for i in range(n)] + [f"sr{i}" for i in range(n)]
    names[0] = "e"
    return validate_cayley_table(table, names, f"dihedral:{n}", order_cap=2 * n)


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

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    names = []
    for u in _QUNITS:
        names.extend([u, f"-{u}"])
    return validate_cayley_table(table, names, "quaternion8", order_cap=8)


def symmetric(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Symmetric group S_n with elements in lexicographic image order."""
    if n < 1:
        raise UnknownDescriptor(f"symmetric degree must be positive, got {n}")
    if factorial(n) > order_cap:
        raise OrderCapExceeded(f"|S_{n}| = {factorial(n)} exceeds cap {order_cap}")
    perms = [Permutation(images) for images in _itertools_permutations(range(n))]
    return Group._from_permutations(f"symmetric:{n}", perms)


def alternating(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Alternating group A_n with elements in lexicographic image order."""
    if n < 1:
        raise UnknownDescriptor(f"alternating degree must be positive, got {n}")
    if n > 1 and factorial(n) // 2 > order_cap:
        raise OrderCapExceeded(f"|A_{n}| exceeds cap {order_cap}")
    perms = [
        p
        for images in _itertools_permutations(range(n))
        if (p := Permutation(images)).is_even()
    ]
    return Group._from_permutations(f"alternating:{n}", perms)


def elementary_abelian(p: int, k: int) -> Group:
    """(Z_p)^k with tuple elements in lexicographic order."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise UnknownDescriptor(f"elementary_abelian needs a prime, got {p}")
    if k < 1:
        raise UnknownDescriptor(f"elementary_abelian rank must be positive, got {k}")
    tuples = [()]
    for _ in range(k):
        tuples = [t + (c,) for t in tuples for c in range(p)]
    index = {t: i for i, t in enumerate(tuples)}
    table = [
        [index[tuple((a + b) % p for a, b in zip(ta, tb))] for tb in tuples]
        for ta in tuples
    ]
    names = [f"({','.join(str(c) for c in t)})" for t in tuples]
    return validate_cayley_table(table, names, f"elementary_abelian:{p}:{k}",
                                 order_cap=len(table))


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

    table = [[mul(u, v) for v in range(27)] for u in range(27)]

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

    names = [fmt(u) for u in range(27)]
    return validate_cayley_table(table, names, "heisenberg27", order_cap=27)


def direct_product(a: Group, b: Group) -> Group:
    """Direct product with element (i, j) at index i*|b| + j."""
    nb = b.order
    table = [
        [a.mul(i1, i2) * nb + b.mul(j1, j2) for i2 in range(a.order) for j2 in range(nb)]
        for i1 in range(a.order)
        for j1 in range(nb)
    ]
    names = [f"({na},{nbn})" for na in a.names for nbn in b.names]
    return validate_cayley_table(table, names, f"product:{a.name}:{b.name}",
                                 order_cap=len(table))


_CATALOG_ARITIES = {
    "cyclic": 1,
    "klein4": 0,
    "dihedral": 1,
    "quaternion8": 0,
    "symmetric": 1,
    "alternating": 1,
    "elementary_abelian": 2,
    "heisenberg27": 0,
}


def _parse_descriptor(tokens: list[str], order_cap: int):
    if not tokens:
        raise UnknownDescriptor("empty descriptor")
    head, rest = tokens[0], tokens[1:]
    if head in ("product", "direct_product"):
        left, rest = _parse_descriptor(rest, order_cap)
        right, rest = _parse_descriptor(rest, order_cap)
        return direct_product(left, right), rest
    if head not in _CATALOG_ARITIES:
        raise UnknownDescriptor(f"unknown catalog name {head!r}")
    arity = _CATALOG_ARITIES[head]
    if len(rest) < arity:
        raise UnknownDescriptor(f"{head} expects {arity} argument(s)")
    args = []
    for tok in rest[:arity]:
        try:
            args.append(int(tok))
        except ValueError:
            raise UnknownDescriptor(f"non-integer argument {tok!r} for {head}") from None
    rest = rest[arity:]
    if head == "cyclic":
        g = cyclic(*args)
    elif head == "klein4":
        g = klein4()
    elif head == "dihedral":
        g = dihedral(*args)
    elif head == "quaternion8":
        g = quaternion8()
    elif head == "symmetric":
        g = symmetric(args[0], order_cap)
    elif head == "alternating":
        g = alternating(args[0], order_cap)
    elif head == "elementary_abelian":
        g = elementary_abelian(*args)
    else:
        g = heisenberg27()
    if g.order > order_cap:
        raise OrderCapExceeded(f"{g.name} has order {g.order} > cap {order_cap}")
    return g, rest


def catalog(descriptor: str, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a named group from a descriptor like ``symmetric:4`` or
    ``product:cyclic:2:cyclic:4``."""
    tokens = [t for t in str(descriptor).strip().split(":") if t != ""]
    group, rest = _parse_descriptor(tokens, order_cap)
    if rest:
        raise UnknownDescriptor(f"trailing tokens {rest!r} in {descriptor!r}")
    if group.order > order_cap:
        raise OrderCapExceeded(f"{group.name} has order {group.order} > cap {order_cap}")
    return group


#: direct products included in the standard test sweep, beyond the
#: parameterized families; chosen to cover mixed abelian types and a few
#: nonabelian-by-abelian combinations.
_STANDARD_PRODUCTS = (
    "product:cyclic:2:cyclic:4",
    "product:cyclic:2:cyclic:6",
    "product:cyclic:2:cyclic:8",
    "product:cyclic:4:cyclic:4",
    "product:cyclic:2:cyclic:12",
    "product:cyclic:3:cyclic:9",
    "product:cyclic:3:cyclic:12",
    "product:cyclic:4:cyclic:8",
    "product:cyclic:6:cyclic:6",
    "product:symmetric:3:cyclic:2",
    "product:symmetric:3:cyclic:3",
    "product:symmetric:3:cyclic:4",
    "product:symmetric:3:symmetric:3",
    "product:quaternion8:cyclic:2",
    "product:quaternion8:cyclic:3",
    "product:alternating:4:cyclic:2",
    "product:dihedral:4:cyclic:2",
    "product:dihedral:5:cyclic:2",
    "product:dihedral:4:cyclic:3",
)


def standard_groups(max_order: int) -> list[Group]:
    """The standard catalog sweep: every stock construction of order <= max_order.

    Cyclic and dihedral families are enumerated densely; elementary abelian
    groups stop at rank 4 for p = 2 and rank 3 for p = 3 (the larger ones
    have subgroup lattices out of proportion to everything else here).
    Isomorphic duplicates under different constructions are kept on purpose.
    """
    groups: list[Group] = []
    for n in range(1, max_order + 1):
        groups.append(cyclic(n))
    for n in range(2, max_order // 2 + 1):
        groups.append(dihedral(n))
    if max_order >= 4:
        groups.append(klein4())
    if max_order >= 8:
        groups.append(quaternion8())
    if max_order >= 27:
        groups.append(heisenberg27())
    n = 2
    while factorial(n) <= max_order:
        groups.append(symmetric(n))
        n += 1
    n = 3
    while factorial(n) // 2 <= max_order:
        groups.append(alternating(n))
        n += 1
    ea_shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]
    for p, k in ea_shapes:
        if p ** k <= max_order:
            groups.append(elementary_abelian(p, k))
    for desc in _STANDARD_PRODUCTS:
        g = catalog(desc)
        if g.order <= max_order:
            groups.append(g)
    return groups


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
    try:
        table = [[local[G.mul(a, b)] for b in members] for a in members]
    except KeyError:
        raise ValueError("member set is not closed under the product") from None
    names = [G.names[g] for g in members]
    sub = validate_cayley_table(table, names, f"{G.name}|sub{len(members)}",
                                order_cap=len(members))
    return sub, members


def quotient_group(G: Group, normal_members) -> tuple[Group, list[int]]:
    """G/N for a normal subgroup N given by its member set.

    Returns (quotient, coset_of) where coset_of[g] is the index of the coset
    of g; cosets are indexed by their minimal elements in ascending order,
    putting the identity coset at index 0.
    """
    nset = frozenset(normal_members)
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for h in nset:
            coset_of[G.mul(h, g)] = idx
    for g in range(G.order):
        for h in nset:
            if coset_of[G.mul(h, g)] != coset_of[G.mul(g, h)]:
                raise ValueError("subgroup is not normal")
    table = [
        [coset_of[G.mul(a, b)] for b in reps] for a in reps
    ]
    names = [f"[{G.names[r]}]" for r in reps]
    quotient = validate_cayley_table(table, names, f"{G.name}/N{len(nset)}",
                                     order_cap=len(reps))
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
    table = [
        [relabel[G.mul(inverse[i], inverse[j])] for j in range(n)]
        for i in range(n)
    ]
    names = [G.names[inverse[i]] for i in range(n)]
    return validate_cayley_table(table, names=names, name=f"{G.name}~relabeled",
                                 order_cap=n)


def are_isomorphic(G1: Group, G2: Group) -> bool:
    """Exhaustive table-isomorphism test (meant for small orders).

    Backtracks over images of a generating set of G1, extending each
    candidate assignment to a full homomorphism by closure and checking
    bijectivity.
    """
    if G1.order != G2.order:
        return False
    if G1.element_order_histogram() != G2.element_order_histogram():
        return False
    gens = G1.generating_set()
    if not gens:
        return True  # both trivial
    orders1 = [G1.element_order(g) for g in gens]
    by_order: dict[int, list[int]] = {}
    for h in G2.elements():
        by_order.setdefault(G2.element_order(h), []).append(h)

    def extend(assignment: dict[int, int]) -> bool:
        """Close a partial map gens->G2 into a homomorphism; False on conflict."""
        mapping = {0: 0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            fa = mapping[a]
            for g, fg in assignment.items():
                b = G1.mul(a, g)
                fb = G2.mul(fa, fg)
                if b in mapping:
                    if mapping[b] != fb:
                        return False
                else:
                    mapping[b] = fb
                    frontier.append(b)
        if len(mapping) != G1.order:
            return False
        return len(set(mapping.values())) == G1.order

    def backtrack(i: int, assignment: dict[int, int]) -> bool:
        if i == len(gens):
            return extend(assignment)
        for h in by_order.get(orders1[i], ()):
            assignment[gens[i]] = h
            if backtrack(i + 1, assignment):
                return True
            del assignment[gens[i]]
        return False

    return backtrack(0, {})


# -- JSON interchange ------------------------------------------------------------

def group_from_json(data: dict, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Parse the JSON group format.

    Either {"name", "order", "table"} with a full Cayley table, or
    {"name", "degree", "generators"} with 1-based permutation image lists.
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
        if "order" in data and data["order"] != len(table):
            raise NotClosed(
                f"declared order {data['order']} but table has {len(table)} rows"
            )
        return validate_cayley_table(table, names=names, name=name,
                                     order_cap=order_cap)
    if "generators" in data:
        degree = data.get("degree")
        if not isinstance(degree, int) or degree < 1:
            raise DegreeMismatch(f"bad degree {degree!r}")
        try:
            gens = [Permutation.from_one_based(images) for images in data["generators"]]
        except (ValueError, TypeError) as exc:
            raise NotClosed(f"bad generator image list: {exc}") from None
        return from_permutation_generators(gens, degree, name=name,
                                           order_cap=order_cap)
    raise NotClosed("group JSON needs either a 'table' or 'generators' field")


def group_to_json(G: Group) -> dict:
    return {
        "name": G.name,
        "order": G.order,
        "table": [list(row) for row in G.table],
        "names": list(G.names),
    }
