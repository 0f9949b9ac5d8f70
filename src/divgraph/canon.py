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
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from typing import NamedTuple

from .errors import CanonicalizationBudgetExceeded, InternalInvariantError

DEFAULT_BUDGET = 500_000
_END = ((float("inf"),),)  # closes a signature list, above every (label, start)


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

    ``arcs`` is an iterable of (u, v, label) with integer labels and at most
    one arc per ordered pair, read exactly once as the search is set up: a
    caller that wants the arcs again must copy them first.  ``init_cells``
    is an ordered partition of the vertices; its cell order encodes
    invariant vertex classes, and only maps preserving each class are
    considered.  ``known`` lists ``SeedGroup``s to prune with from the
    start; only their generators' maps are checked.
    """
    return _Searcher(n, arcs, init_cells, budget, known).run()


class _Searcher:
    def __init__(self, n, arcs, init_cells, budget, known=()):
        self.n = n
        self.budget = budget
        self.nodes = self.leaves = self.rounds = self.max_depth = 0
        # one int object per vertex, whatever the caller's arcs hold: _refine
        # keys dicts by vertex, and a lookup by the stored key skips comparing
        self.vertices = vertex = list(range(n))
        arcs = [(vertex[u], vertex[v], label) for u, v, label in arcs]
        self.out = [[] for _ in range(n)]
        self.in_ = [[] for _ in range(n)]
        for u, v, label in arcs:
            self.out[u].append((label, v))
            self.in_[v].append((label, u))

        self.init_class = [-1] * n
        for ci, cell in enumerate(init_cells):
            for v in cell:
                if self.init_class[v] != -1:
                    raise ValueError(f"vertex {v} appears in two initial cells")
                self.init_class[v] = ci
        if any(c < 0 for c in self.init_class):
            raise ValueError("initial cells must cover every vertex")

        self.best_key = None
        self.best_order = None
        self.best_path: list[tuple[int, ...]] = []
        self.best_prefix: tuple[int, ...] = ()
        self.generators: list[tuple[int, ...]] = []
        self._gen_set: set[tuple[int, ...]] = set()
        self._bounce: int | None = None
        self.seeds = self._seed(known, arcs) if known else []

    def _seed(self, known, arcs):
        """Check every generator on the arcs at its support, then prune with
        every other element of the group each family generates: that only
        skips images of explored branches."""
        arc_set, cls, seeds = set(arcs), self.init_class, []
        for one, gens, mul, act, support in known:
            inside = set(support)
            near = [(v, w, lab) for v in inside for lab, w in self.out[v]]
            near += [(u, v, lab) for v in inside for lab, u in self.in_[v] if u not in inside]
            for g in gens:
                image = [act(g, v) if v in inside else v for v in range(self.n)]
                if (sorted(image) != list(range(self.n))
                        or list(map(cls.__getitem__, image)) != cls
                        or not arc_set.issuperset((image[u], image[w], lab) for u, w, lab in near)):
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

    def _refine(self, cell_at, cell_of, changed, end=_END):
        """Split cells by neighborhood signatures until equitable, in place.

        A round splits each non-singleton cell holding a neighbor of a
        vertex ``changed`` by the previous round, by sorted (label, cell
        start) lists of out- and in-arcs, and applies all its splits at
        once, so the schedule is invariant under isomorphism.

        Only arcs into every part of a split cell but its last (Hopcroft's
        rule) enter the signatures, into the individualized vertex alone in a
        child's first round, yet they order the members as full signatures
        would.  Every cell a round can split was uniform with respect to the
        partition before the previous round (for a child's first round, the
        parent's equitable one), so its members' arcs into unchanged cells
        are identical, and per label their count into a split cell's last
        part follows from their counts into the parts before it.  Where two
        sorted full lists first differ, the one with more arcs into a part
        is smaller, and stays so in the shortened lists if a list that runs
        out sorts above one that goes on: the ``end`` marker closing each.
        The initial cells are not uniform: the root's first round compares
        full signatures of every vertex with no marker (``end=()``).
        """
        out, in_ = self.out, self.in_
        while changed:
            self.rounds += 1
            out_sig, in_sig = defaultdict(list), defaultdict(list)
            for w in changed:
                s = cell_of[w]
                for lab, u in in_[w]:
                    if len(cell_at[cell_of[u]]) > 1:
                        out_sig[u].append((lab, s))
                for lab, u in out[w]:
                    if len(cell_at[cell_of[u]]) > 1:
                        in_sig[u].append((lab, s))
            dirty = sorted({cell_of[u] for u in out_sig.keys() | in_sig.keys()})
            splits = []
            for s in dirty:
                sigs: dict[tuple, list[int]] = {}
                for v in cell_at[s]:
                    sig = (tuple(sorted(out_sig.get(v, ()))) + end,
                           tuple(sorted(in_sig.get(v, ()))) + end)
                    sigs.setdefault(sig, []).append(v)
                if len(sigs) > 1:
                    splits.append((s, [sigs[key] for key in sorted(sigs)]))
            changed, end = [], _END
            for s, parts in splits:
                for part in parts:
                    cell_at[s] = part
                    for v in part:
                        cell_of[v] = s
                    s += len(part)
                changed += [v for part in parts[:-1] for v in part]

    # -- search -------------------------------------------------------------

    def run(self) -> CanonicalResult:
        cell_at, cell_of = [None] * self.n, [0] * self.n
        by_class: dict[int, list[int]] = {}
        for v in self.vertices:
            by_class.setdefault(self.init_class[v], []).append(v)
        s = 0
        for ci in sorted(by_class):
            cell_at[s] = by_class[ci]
            for v in by_class[ci]:
                cell_of[v] = s
            s += len(by_class[ci])
        self._refine(cell_at, cell_of, self.vertices, ())
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
            best_inv = self.best_path[depth]
            if inv > best_inv:
                return
            if inv < best_inv:
                self.best_key = None
                self.best_order = None
                del self.best_path[depth:]
                self.best_path.append(inv)
        elif self.best_key is None:
            del self.best_path[depth:]
            self.best_path.append(inv)

        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            self.leaves += 1
            self._handle_leaf(cells, prefix)
            return

        if prefix:
            fixed = [g for g in fixed if g[prefix[-1]] == prefix[-1]]
        explored: list[int] = []
        orbit_of = None
        start = cell_of[target[0]]
        for v in target:
            if explored:
                if orbit_of is None or known < len(self.generators):
                    fixed += [g for g in self.generators[known:]
                              if all(g[p] == p for p in prefix)]
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
        ``useful``, those fixing the prefix pointwise; None when there are none.

        Automorphisms fixing the prefix stabilize every cell of this node's
        partition setwise (the partition is a deterministic function of the
        prefix), so the orbit walk never leaves the cell.
        """
        if not useful:
            return None
        orbit_of: dict[int, int] = {}
        for u in cell:
            if u in orbit_of:
                continue
            orbit_of[u] = u
            queue = [u]
            while queue:
                x = queue.pop()
                for g in useful:
                    y = g[x]
                    if y not in orbit_of:
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
        best = self.best_key
        key = [] if best is None else None
        for i, v in enumerate(order):
            entry = (self.init_class[v],
                     tuple(sorted((lab, position[w]) for lab, w in self.out[v])))
            if key is None:
                if entry == best[i]:
                    continue
                if entry > best[i]:
                    return
                key = list(best[:i])
            key.append(entry)
        if key is not None:  # the first leaf, or a smaller key
            self.best_key = tuple(key)
            self.best_order = order
            self.best_prefix = prefix
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
        k = 0
        while k < len(best) and k < len(prefix) and best[k] == prefix[k]:
            k += 1
        if k >= len(best) or k >= len(prefix):
            return
        if all(mapping[best[i]] == prefix[i] for i in range(k + 1)):
            self._bounce = k

    def _encode_bytes(self, key) -> bytes:
        chunks = [f"n={self.n}"]
        for init_class, adjacency in key:
            arc_txt = ",".join(f"{lab}:{w}" for lab, w in adjacency)
            chunks.append(f"{init_class}|{arc_txt}")
        return ";".join(chunks).encode("ascii")
