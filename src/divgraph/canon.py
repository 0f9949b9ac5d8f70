"""Complete canonical forms for vertex-colored, arc-labeled digraphs.

The canonicalizer is an individualization-refinement search: refine the
ordered partition until equitable, branch on the vertices of the first
non-singleton cell, and take the lexicographically minimal leaf encoding.
Automorphisms discovered between equal leaves, or seeded by the caller,
prune sibling branches, so highly symmetric graphs stay tractable.  A leaf
encoding carries the full labeled adjacency, so two graphs receive equal
encodings if and only if they are isomorphic respecting initial cell
classes, arc directions, and arc labels.

The ordered partition is position-indexed: ``cell_of[v]`` is the start
position of v's cell and ``cell_at[s]`` the members of the cell starting at
s (None where none starts).  A split renames only the split cell's members,
cell lists are never mutated, so a search node copies just the two flat
lists, and the search runs on an explicit stack, not Python's recursion.

Adjacency is coded in ints: with K = n + 1 and HI = (max label - min
label + 1) * K, an arc u -> w labelled lab gives u the entry lab*K + s and w
HI + lab*K + s, s the other end's cell start.  Tails sort below heads, each
kind as (label, start), and ``divmod`` decodes a leaf's entries.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from operator import eq, itemgetter
from typing import NamedTuple

from .errors import CanonicalizationBudgetExceeded, InternalInvariantError, check_cap

DEFAULT_BUDGET = 500_000


# A group with identity ``one``, generators ``gens`` and product ``mul``,
# acting faithfully by automorphisms: ``act(g, v)`` is the image of vertex v
# under the element g, and v itself outside ``support``.
SeedGroup = namedtuple("SeedGroup", "one gens mul act support")


class _Image(dict):
    """The vertex map of one seeded element, evaluated where it is read."""

    def __init__(self, act, element):
        self.act, self.element = act, element

    def __missing__(self, v):
        self[v] = image = self.act(self.element, v)
        return image


class CanonicalResult(NamedTuple):
    encoding: bytes
    order: list[int]                      # canonical position -> vertex id
    automorphisms: list[tuple[int, ...]]  # generator vertex maps found
    seeds: list[dict[int, int]]           # seeded elements, evaluated when read
    nodes: int                            # search nodes visited
    leaves: int                           # leaves reached
    rounds: int                           # refinement rounds run
    max_depth: int                        # deepest search node


def canonical_form(n: int, arcs, init_cells, budget: int = DEFAULT_BUDGET,
                   known=()) -> CanonicalResult:
    """Canonicalize a digraph on the vertices 0..n-1.

    ``arcs`` is an iterable of (u, v, label) of ints, u and v in 0..n-1 as
    are cell members (else ValueError), at most one per ordered pair, read
    exactly once as the search is set up: a caller that wants the arcs
    again must copy them first.  ``init_cells`` is an ordered partition of
    the vertices; its cell order encodes invariant vertex classes, and only
    maps preserving each class are considered.  ``known`` lists
    ``SeedGroup``s to prune with from the start; only their generators'
    maps are checked.
    """
    check_cap(budget, "budget")
    return _Searcher(n, arcs, init_cells, budget, known).run()


def _refusal(n, arcs, cells) -> ValueError:
    """The error for a label that is no int, else for the first bad vertex."""
    if set(map(type, map(itemgetter(2), arcs))) - {int}:
        return ValueError("arc labels must be ints")
    ids = chain(chain.from_iterable(arc[:2] for arc in arcs), *cells)
    bad = next(x for x in ids if type(x) is not int or not 0 <= x < n)
    return ValueError(f"vertex {bad!r} is not an int in 0..{n - 1}")


class _Searcher:
    def __init__(self, n, arcs, init_cells, budget, known=()):
        self.n = n
        self.budget = budget
        self.nodes = self.leaves = self.rounds = self.max_depth = 0
        # one int object per vertex, whatever the caller's arcs hold, so no
        # list of arcs with an int per end lasts; any other key fails
        vertex = {v: v for v in range(n)}
        arcs, init_cells = list(arcs), [list(cell) for cell in init_cells]
        if not set(map(type, chain(chain.from_iterable(arcs), *init_cells))) <= {int}:
            raise _refusal(n, arcs, init_cells)
        labels = set(map(itemgetter(2), arcs))
        lo, hi = min(labels, default=0), max(labels, default=0)
        K = self.radix = n + 1
        HI = self.hi = (hi - lo + 1) * K
        self.top = HI + (hi + 1) * K
        tail, head = {lab: lab * K for lab in labels}, {lab: HI + lab * K for lab in labels}
        # w's sorted out-entries, then its in-entries, each with the other end
        self.adj = adj = [[] for _ in vertex]
        try:
            init_cells = [sorted(map(vertex.__getitem__, cell)) for cell in init_cells]
            for u, v, label in arcs:
                adj[vertex[u]].append((head[label], vertex[v]))
            for entries in adj:
                entries.sort()
            self.nout = list(map(len, adj))
            for u, v, label in arcs:
                adj[vertex[v]].append((tail[label], vertex[u]))
        except KeyError:
            raise _refusal(n, arcs, init_cells) from None
        del arcs  # the seeds are checked on the coded lists

        self.init_class = [-1] * n
        for ci, cell in enumerate(init_cells):
            for v in cell:
                if self.init_class[v] != -1:
                    raise ValueError(f"vertex {v} appears in two initial cells")
                self.init_class[v] = ci
        if any(c < 0 for c in self.init_class):
            raise ValueError("initial cells must cover every vertex")
        self.init_cells = list(filter(None, init_cells))

        self.best_key = self.best_order = None
        self.best_path: list[tuple[int, ...]] = []
        self.best_prefix: tuple[int, ...] = ()
        self.generators: list[tuple[int, ...]] = []
        self._gen_set: set[tuple[int, ...]] = set()
        self._bounce: int | None = None
        self.seeds = self._seed(known) if known else []

    def _seed(self, known):
        """Check every generator on its support alone: a class-keeping
        bijection of it, mapping each member's out-arcs onto its image's and
        in-arcs from outside onto arcs.  Then prune with every other element
        of the group each family generates: that only skips images of
        explored branches."""
        cls, adj, nout, seeds = self.init_class, self.adj, self.nout, []
        for one, gens, mul, act, support in known:
            inside = set(support)
            entering = [(v, c, u) for v in inside for c, u in adj[v][nout[v]:] if u not in inside]
            for g in gens:
                image = {v: act(g, v) for v in inside}
                moved = image.get
                if (set(image.values()) != inside
                        or any(cls[v] != cls[w] for v, w in image.items())
                        or any(sorted([(c, moved(x, x)) for c, x in adj[v][:nout[v]]])
                               != adj[w][:nout[w]] for v, w in image.items())
                        or any((c, u) not in adj[image[v]] for v, c, u in entering)):
                    raise InternalInvariantError(
                        f"a seed is not an automorphism of the graph on {self.n} vertices"
                    )
            group, seen = [one], {one}
            for a in group:
                group += (new := {mul(a, b) for b in gens} - seen)
                seen |= new
            seeds += [_Image(act, g) for g in group[1:]]
        self.generators += seeds
        return seeds

    # -- refinement ---------------------------------------------------------

    def _refine(self, cell_at, cell_of, changed):
        """Split cells by neighborhood signatures until equitable, in place.

        A round reads the one adjacency list (out-entries, then in-entries)
        of each vertex ``changed`` by the previous round into signatures
        indexed by vertex, splits each non-singleton cell so reached by the
        tuples of its members' sorted entries, each closed by ``top``, above
        every entry (one key shape, whatever the list's length), and
        applies all its splits at once, so the schedule is invariant under
        isomorphism.  At the root every vertex is changed, so the lists are
        full signatures; out-entries sort below in-entries, so one marker
        orders them as a marker closing each of the two kinds would.  Later,
        only arcs into every part of a split cell but its last (Hopcroft's
        rule) enter, yet they order the members as full signatures would: a
        cell a round can split was uniform before the previous round, so per
        label its members' arcs into the last part follow from those into the
        parts before it, and where two full lists first differ the one with
        more arcs into a part is smaller, as the marker makes it in the
        shortened lists too.  Members with no signature (the marker alone,
        the largest list) form a cell's closing part, in cell order.
        """
        adj, top, n = self.adj, self.top, self.n
        while changed:
            self.rounds += 1
            sig, touched = [None] * n, set()
            for w in changed:
                s = cell_of[w]
                for c, u in adj[w]:
                    if (key := sig[u]) is None:
                        sig[u] = [c + s]
                        if len(cell_at[t := cell_of[u]]) > 1:
                            touched.add(t)
                    else:
                        key.append(c + s)
            splits = []
            for s in sorted(touched):
                parts, rest = {}, []
                for v in cell_at[s]:
                    if (key := sig[v]) is None:
                        rest.append(v)
                    else:
                        key.sort()
                        key.append(top)
                        parts.setdefault(tuple(key), []).append(v)
                ordered = [parts[k] for k in sorted(parts)]
                if rest:
                    ordered.append(rest)
                if len(ordered) > 1:
                    splits.append((s, ordered))
            changed = []
            for s, parts in splits:
                for part in parts:
                    cell_at[s] = part
                    for v in part:
                        cell_of[v] = s
                    s += len(part)
                changed += [v for part in parts[:-1] for v in part]

    # -- search -------------------------------------------------------------

    def run(self) -> CanonicalResult:
        cell_at, cell_of, s = [None] * self.n, [0] * self.n, 0
        for cell in self.init_cells:
            cell_at[s] = cell
            for v in cell:
                cell_of[v] = s
            s += len(cell)
        self._refine(cell_at, cell_of, range(self.n))
        stack = [self._search(cell_at, cell_of, (), [], 0)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(self._search(*child))
        return CanonicalResult(
            self._encode_bytes(self.best_key), self.best_order,
            self.generators[len(self.seeds):], self.seeds,
            self.nodes, self.leaves, self.rounds, self.max_depth,
        )

    def _search(self, cell_at, cell_of, prefix, fixed, known):
        """One search node, yielding its children's arguments in visiting
        order; ``run`` finishes each child's subtree before resuming it.
        ``fixed`` lists the elements among the first ``known`` generators
        fixing the parent's prefix pointwise: the node keeps those fixing its
        last vertex, and tests only later generators on the whole prefix."""
        self.nodes += 1
        depth = len(prefix)
        self.max_depth = max(self.max_depth, depth)
        if self.nodes > self.budget:
            raise CanonicalizationBudgetExceeded(
                f"canonical search exceeded {self.budget} nodes (at depth "
                f"{depth}; {self.leaves} leaves and {len(self.generators) - len(self.seeds)}"
                f" automorphisms found, {len(self.seeds)} seeded)"
            )

        # node-invariant pruning: the canonical leaf minimizes the sequence
        # of cell-size tuples along its path before the leaf key is compared
        cells = list(filter(None, cell_at))
        inv = tuple(map(len, cells))
        if self.best_key is not None and depth < len(self.best_path):
            if inv > self.best_path[depth]:
                return
            if inv < self.best_path[depth]:
                self.best_key = self.best_order = None
        if self.best_key is None:
            del self.best_path[depth:]
            self.best_path.append(inv)

        try:  # the first non-singleton cell starts just before the first None
            start = cell_at.index(None) - 1
        except ValueError:
            self.leaves += 1
            self._handle_leaf(cells, prefix)
            return
        target = cell_at[start]

        if prefix:
            fixed = [g for g in fixed if g[prefix[-1]] == prefix[-1]]
        explored, orbit_of = [], None
        for v in target:
            if explored:
                if orbit_of is None or known < len(self.generators):
                    fixed += [g for g in self.generators[known:]
                              if all(map(eq, map(g.__getitem__, prefix), prefix))]
                    known = len(self.generators)
                    orbit_of = self._cell_orbits(target, fixed)
                if orbit_of is not None:
                    root = orbit_of[v]
                    if any(orbit_of[u] == root for u in explored):
                        continue
            explored.append(v)
            child_at, child_of = list(cell_at), list(cell_of)
            rest = [w for w in target if w != v]
            child_at[start], child_at[start + 1] = [v], rest
            for w in rest:
                child_of[w] = start + 1
            self._refine(child_at, child_of, [v])
            yield child_at, child_of, prefix + (v,), fixed, known
            if self._bounce is not None:
                if self._bounce < depth:
                    return  # a discovered automorphism covers this whole subtree
                self._bounce = None

    def _cell_orbits(self, cell, useful):
        """Orbit representative per cell member under the automorphisms
        ``useful`` fixing the prefix pointwise (None when there are none).
        They stabilize every cell of the node's partition setwise, as it is a
        function of the prefix, so the orbit walk never leaves the cell."""
        if not useful:
            return None
        orbit_of: dict[int, int] = {}
        for u in cell:
            if u not in orbit_of:
                orbit_of[u], queue = u, [u]
                for x in queue:  # the queue grows as the walk reaches new members
                    for g in useful:
                        if (y := g[x]) not in orbit_of:
                            orbit_of[y] = u
                            queue.append(y)
        return orbit_of

    def _handle_leaf(self, cells, prefix):
        """Build the leaf key vertex by vertex, storing none of it while it
        equals the best key and stopping at the first entry above it."""
        order = [cell[0] for cell in cells]
        position = [0] * self.n
        for pos, v in enumerate(order):
            position[v] = pos
        best, adj, nout, cls = self.best_key, self.adj, self.nout, self.init_class
        key = [] if best is None else None
        for i, v in enumerate(order):
            entry = (cls[v], tuple(sorted([c + position[w] for c, w in adj[v][:nout[v]]])))
            if key is None:
                if entry == best[i]:
                    continue
                if entry > best[i]:
                    return
                key = list(best[:i])
            key.append(entry)
        if key is not None:  # the first leaf, or a smaller key
            self.best_key, self.best_order, self.best_prefix = tuple(key), order, prefix
        else:
            mapping = tuple(map(dict(zip(self.best_order, order)).__getitem__, range(self.n)))
            if mapping not in self._gen_set and mapping != tuple(range(self.n)):
                self.generators.append(mapping)
                self._gen_set.add(mapping)
            self._maybe_bounce(mapping, prefix)

    def _maybe_bounce(self, mapping, prefix):
        """After an equal leaf: if the automorphism maps the best leaf's
        branch onto the current one at their first divergence, the rest of
        the current subtree repeats explored territory; unwind to the fork.
        """
        best = self.best_prefix
        k = next((i for i, (a, b) in enumerate(zip(best, prefix)) if a != b), None)
        if k is not None and all(mapping[best[i]] == prefix[i] for i in range(k + 1)):
            self._bounce = k

    def _encode_bytes(self, key) -> bytes:
        chunks = [f"n={self.n}"]
        for init_class, adjacency in key:  # an entry is HI + label*K + position
            arc_txt = ",".join("%d:%d" % divmod(c - self.hi, self.radix) for c in adjacency)
            chunks.append(f"{init_class}|{arc_txt}")
        return ";".join(chunks).encode("ascii")
