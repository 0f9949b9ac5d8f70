import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from divgraph import analysis
from divgraph.canon import SeedGroup, _Searcher, canonical_form
from divgraph.errors import (
    CanonicalizationBudgetExceeded,
    InternalInvariantError,
    ResourceCapExceeded,
    ValidationError,
)
from divgraph.groups import catalog, relabeled_copy, standard_groups
from divgraph.ust import division_graph


def shuffle_graph(n, arcs, cells, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    new_arcs = [(perm[u], perm[v], lab) for u, v, lab in arcs]
    new_cells = [[perm[v] for v in cell] for cell in cells]
    return new_arcs, new_cells


def test_directed_triangle_vs_reversed():
    tri = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    rev = [(1, 0, 1), (2, 1, 1), (0, 2, 1)]
    a = canonical_form(3, tri, [[0, 1, 2]]).encoding
    b = canonical_form(3, rev, [[0, 1, 2]]).encoding
    # a 3-cycle is isomorphic to its reversal by relabeling
    assert a == b


def test_path_vs_cycle_differ():
    cycle = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    path = [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    a = canonical_form(4, cycle, [[0, 1, 2, 3]]).encoding
    b = canonical_form(4, path, [[0, 1, 2, 3]]).encoding
    assert a != b


def test_labels_distinguish():
    a = canonical_form(2, [(0, 1, 1)], [[0, 1]]).encoding
    b = canonical_form(2, [(0, 1, 2)], [[0, 1]]).encoding
    assert a != b


def test_initial_cells_distinguish():
    arcs = [(0, 1, 1)]
    a = canonical_form(2, arcs, [[0, 1]]).encoding
    b = canonical_form(2, arcs, [[0], [1]]).encoding
    assert a != b


def test_initial_cells_must_partition_the_vertices():
    with pytest.raises(ValueError, match=r"^vertex 1 appears in two initial cells$"):
        canonical_form(3, [], [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match=r"^initial cells must cover every vertex$"):
        canonical_form(3, [], [[0, 2]])


@pytest.mark.parametrize("label", ["a", 1.0])
def test_labels_must_be_ints(label):
    with pytest.raises(ValueError, match=r"^arc labels must be ints$"):
        canonical_form(2, [(0, 1, 1), (1, 0, label)], [[0, 1]])


@pytest.mark.parametrize("arcs, cells, bad", [
    ([(0, -1, 1)], [[0, 1, 2]], "-1"),
    ([(0, 5, 1)], [[0, 1, 2]], "5"),
    ([(0, 1.0, 1)], [[0, 1, 2]], "1.0"),
    ([(True, 1, 1)], [[0, 1, 2]], "True"),
    ([(1, 0, 1), (True, 1, 1)], [[0, 1, 2]], "True"),  # True hashes and compares as 1
    ([], [[0, 1, -1]], "-1"),
])
def test_vertex_ids_must_be_ints_in_range(arcs, cells, bad):
    with pytest.raises(ValueError, match=rf"^vertex {bad} is not an int in 0\.\.2$"):
        canonical_form(3, arcs, cells)


def test_cell_classes_respected():
    # two disjoint arcs; marking different endpoints changes the class layout
    arcs = [(0, 1, 1), (2, 3, 1)]
    a = canonical_form(4, arcs, [[0, 2], [1, 3]]).encoding
    b = canonical_form(4, arcs, [[0, 3], [1, 2]]).encoding
    assert a != b  # in b, one marked vertex is a source and one a sink


def test_invariance_under_random_relabeling():
    rng = random.Random(0)
    # a moderately symmetric labeled digraph: two 4-cycles joined by labeled spokes
    arcs = []
    for i in range(4):
        arcs.append((i, (i + 1) % 4, 1))
        arcs.append((4 + i, 4 + (i + 1) % 4, 1))
        arcs.append((i, 4 + i, 2))
    cells = [list(range(8))]
    base = canonical_form(8, arcs, cells).encoding
    for _ in range(25):
        new_arcs, new_cells = shuffle_graph(8, arcs, cells, rng)
        assert canonical_form(8, new_arcs, new_cells).encoding == base


def test_non_isomorphic_same_degree_sequence():
    # both 3-regular-ish digraph pairs: C6 doubled arcs vs two C3s doubled
    c6 = [(i, (i + 1) % 6, 1) for i in range(6)] + [((i + 1) % 6, i, 1) for i in range(6)]
    two_c3 = (
        [(i, (i + 1) % 3, 1) for i in range(3)]
        + [((i + 1) % 3, i, 1) for i in range(3)]
        + [(3 + i, 3 + (i + 1) % 3, 1) for i in range(3)]
        + [(3 + (i + 1) % 3, 3 + i, 1) for i in range(3)]
    )
    a = canonical_form(6, c6, [list(range(6))]).encoding
    b = canonical_form(6, two_c3, [list(range(6))]).encoding
    assert a != b


def test_highly_symmetric_graph_with_automorphism_pruning():
    # complete bipartite K5,5 with all arcs one direction: |Aut| = (5!)^2
    arcs = [(i, 5 + j, 1) for i in range(5) for j in range(5)]
    result = canonical_form(10, arcs, [list(range(10))])
    assert result.nodes < 2000
    rng = random.Random(1)
    for _ in range(5):
        new_arcs, new_cells = shuffle_graph(10, arcs, [list(range(10))], rng)
        assert canonical_form(10, new_arcs, new_cells).encoding == result.encoding


def test_budget_exhaustion():
    arcs = [(i, 5 + j, 1) for i in range(5) for j in range(5)]
    with pytest.raises(CanonicalizationBudgetExceeded) as info:
        canonical_form(10, arcs, [list(range(10))], budget=3)
    assert str(info.value) == (
        "canonical search exceeded 3 nodes "
        "(at depth 3; 0 leaves and 0 automorphisms found, 0 seeded)"
    )


@pytest.mark.parametrize("budget, error", [(-1, ValidationError),
                                            (0, CanonicalizationBudgetExceeded)])
def test_negative_budget_is_invalid_input(budget, error):
    """A negative budget is bad input (exit 1), also through ``compare``; zero
    is a budget every search exceeds."""
    with pytest.raises(error):
        canonical_form(2, [(0, 1, 1)], [[0, 1]], budget=budget)
    with pytest.raises(error):
        analysis.compare(catalog("cyclic:2"), catalog("cyclic:2"), budget=budget)


@pytest.mark.parametrize("search", [
    lambda: canonical_form(2, [(0, 1, 1)], [[0, 1]], budget=1.5),
    lambda: analysis.compare(catalog("symmetric:3"), catalog("symmetric:3"), budget=1.5),
], ids=["canonical_form", "compare"])
def test_budget_must_be_an_int(search):
    with pytest.raises(ValidationError) as info:
        search()
    assert type(info.value) is ValidationError
    assert str(info.value) == "budget must be an int, got 1.5"


def test_deep_search_hits_budget_not_recursion_limit():
    # the empty graph on 1500 vertices is searched along a 1500-deep path
    with pytest.raises(CanonicalizationBudgetExceeded) as info:
        canonical_form(1500, [], [list(range(1500))], budget=2000)
    assert isinstance(info.value, ResourceCapExceeded)  # CLI exit code 2
    assert "\n" not in str(info.value)
    assert "exceeded 2000 nodes" in str(info.value)


def test_automorphisms_are_automorphisms():
    arcs = [(i, (i + 1) % 6, 1) for i in range(6)]
    result = canonical_form(6, arcs, [list(range(6))])
    arc_set = set(arcs)
    for g in result.automorphisms:
        assert {(g[u], g[v], lab) for u, v, lab in arcs} == arc_set


def test_empty_graph_and_single_vertex():
    assert canonical_form(1, [], [[0]]).encoding
    a = canonical_form(3, [], [[0, 1, 2]]).encoding
    b = canonical_form(3, [], [[2, 0, 1]]).encoding
    assert a == b


def test_counters_repeat_across_relabellings(monkeypatch):
    results = []

    def recording(*args, **kwargs):
        result = canonical_form(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(analysis, "canonical_form", recording)
    G = catalog("symmetric:4")
    rng = random.Random(4)
    for _ in range(3):
        relabel = list(range(G.order))
        rng.shuffle(relabel)
        analysis.certificate(division_graph(relabeled_copy(G, relabel)))
    counters = {
        (r.nodes, r.leaves, r.rounds, len(r.automorphisms), r.encoding)
        for r in results
    }
    assert len(results) == 3 and len(counters) == 1
    nodes, leaves, rounds, _, _ = counters.pop()
    assert 1 <= leaves <= nodes <= rounds


# -- the search before incremental refinement, kept as the reference -------------

#: closes each signature list: above every (label, cell) entry, so where two
#: lists first differ, the one with more arcs into a cell is smaller
_END = ((math.inf,),)


class _ReferenceSearcher(_Searcher):
    """Index-based refinement with full signatures, a deep-copying
    recursive search and its own leaf handling, on its own (label, vertex)
    adjacency lists and (label, position) leaf keys."""

    def __init__(self, n, arcs, init_cells, budget):
        arcs = list(arcs)
        super().__init__(n, arcs, init_cells, budget)
        self.arcs_out = [[] for _ in range(n)]
        self.arcs_in = [[] for _ in range(n)]
        for u, v, label in arcs:
            self.arcs_out[u].append((label, v))
            self.arcs_in[v].append((label, u))
        self.nbrs = [
            tuple({w for _, w in self.arcs_out[v]} | {w for _, w in self.arcs_in[v]})
            for v in range(n)
        ]

    def _refine(self, cells, cell_of, changed):
        out, in_, nbrs = self.arcs_out, self.arcs_in, self.nbrs
        while changed:
            touched = set()
            for v in changed:
                touched.update(nbrs[v])
            dirty = sorted({
                cell_of[w] for w in touched if len(cells[cell_of[w]]) > 1
            })
            splits = {}
            for ci in dirty:
                sigs = {}
                for v in cells[ci]:
                    sig = (
                        tuple(sorted((lab, cell_of[w]) for lab, w in out[v])) + _END,
                        tuple(sorted((lab, cell_of[w]) for lab, w in in_[v])) + _END,
                    )
                    sigs.setdefault(sig, []).append(v)
                if len(sigs) > 1:
                    splits[ci] = [sigs[key] for key in sorted(sigs)]
            if not splits:
                break
            new_cells = []
            changed = set()
            for ci, cell in enumerate(cells):
                if ci in splits:
                    new_cells.extend(splits[ci])
                    changed.update(cell)
                else:
                    new_cells.append(cell)
            cells = new_cells
            for idx, cell in enumerate(cells):
                for v in cell:
                    cell_of[v] = idx
        return cells, cell_of

    def run(self):
        by_class = {}
        for v in range(self.n):
            by_class.setdefault(self.init_class[v], []).append(v)
        cells = [sorted(by_class[ci]) for ci in sorted(by_class)]
        cell_of = [0] * self.n
        for idx, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = idx
        self._search(*self._refine(cells, cell_of, set(range(self.n))), ())
        return self

    def _search(self, cells, cell_of, prefix):
        self.nodes += 1
        inv = tuple(len(cell) for cell in cells)
        depth = len(prefix)
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

        target = None
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                target = ci
                break
        if target is None:
            self._handle_leaf(cells, prefix)
            return

        explored = []
        orbit_of = None
        orbit_gen_count = -1
        for v in cells[target]:
            if explored:
                if orbit_gen_count != len(self.generators):
                    orbit_of = self._cell_orbits(cells[target], [
                        g for g in self.generators if all(g[p] == p for p in prefix)
                    ])
                    orbit_gen_count = len(self.generators)
                if orbit_of is not None:
                    root = orbit_of[v]
                    if any(orbit_of[u] == root for u in explored):
                        continue
            explored.append(v)
            child_cells = [list(c) for c in cells]
            child_cell_of = list(cell_of)
            rest = [w for w in child_cells[target] if w != v]
            child_cells[target] = [v]
            child_cells.insert(target + 1, rest)
            for idx in range(target + 1, len(child_cells)):
                for w in child_cells[idx]:
                    child_cell_of[w] = idx
            child_cell_of[v] = target
            child_cells, child_cell_of = self._refine(
                child_cells, child_cell_of, set(rest) | {v}
            )
            self._search(child_cells, child_cell_of, prefix + (v,))
            if self._bounce is not None:
                if self._bounce < depth:
                    return
                self._bounce = None

    def _handle_leaf(self, cells, prefix):
        order = [cell[0] for cell in cells]
        position = [0] * self.n
        for pos, v in enumerate(order):
            position[v] = pos
        key = tuple(
            (
                self.init_class[v],
                tuple(sorted((lab, position[w]) for lab, w in self.arcs_out[v])),
            )
            for v in order
        )
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_order = order
            self.best_prefix = prefix
        elif key == self.best_key:
            mapping = [0] * self.n
            for pos in range(self.n):
                mapping[self.best_order[pos]] = order[pos]
            mapping = tuple(mapping)
            if mapping not in self._gen_set and any(
                mapping[i] != i for i in range(self.n)
            ):
                self.generators.append(mapping)
                self._gen_set.add(mapping)
            self._maybe_bounce(mapping, prefix)

    def _encode_bytes(self, key):
        chunks = [f"n={self.n}"]
        for init_class, adjacency in key:
            arc_txt = ",".join(f"{lab}:{w}" for lab, w in adjacency)
            chunks.append(f"{init_class}|{arc_txt}")
        return ";".join(chunks).encode("ascii")


@st.composite
def labelled_digraphs(draw, max_n, labels=None):
    """(n, arcs, initial cells): random, circulant or disjoint-copies arcs
    under a random vertex numbering, so that symmetric cases are common.
    Labels run from 1 to at most 3 unless ``labels`` draws them."""
    n = draw(st.integers(1, max_n))
    if labels is None:
        labels = st.integers(1, draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["random", "circulant", "copies"]))
    arcs = {}
    if kind == "random":
        for u, v, lab in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), labels),
            max_size=3 * n,
        )):
            arcs.setdefault((u, v), lab)
    elif kind == "circulant":
        steps = draw(st.lists(st.tuples(st.integers(1, n), labels), max_size=3))
        for step, lab in steps:
            for u in range(n):
                arcs[(u, (u + step) % n)] = lab
    else:
        k = draw(st.integers(1, max(1, n // 2)))
        base = draw(st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), labels),
            max_size=2 * k,
        ))
        for c in range(n // k):
            for u, v, lab in base:
                arcs[(c * k + u, c * k + v)] = lab
    if not draw(st.booleans()):  # self-loops only now and then
        arcs = {(u, v): lab for (u, v), lab in arcs.items() if u != v}
    classes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    numbering = draw(st.permutations(range(n)))
    arcs = [(numbering[u], numbering[v], lab) for (u, v), lab in sorted(arcs.items())]
    cells = [[numbering[v] for v in range(n) if classes[v] == c] for c in range(3)]
    return n, arcs, cells


def _assert_matches_reference(n, arcs, cells):
    new = canonical_form(n, arcs, cells)
    ref = _ReferenceSearcher(n, arcs, cells, budget=10**6).run()
    assert new.encoding == ref._encode_bytes(ref.best_key)
    assert new.order == ref.best_order
    assert new.nodes == ref.nodes
    assert new.automorphisms == ref.generators


@settings(max_examples=400, deadline=None)
@given(labelled_digraphs(max_n=12))
def test_incremental_refinement_matches_reference(graph):
    _assert_matches_reference(*graph)


@settings(max_examples=200, deadline=None)
@given(labelled_digraphs(max_n=10, labels=st.integers(-2, 3)))
def test_zero_and_negative_labels_match_reference(graph):
    """Coded entries order as (label, start) where labels do not start at 1."""
    _assert_matches_reference(*graph)


def test_root_round_splits_out_from_in_lists_at_the_smallest_head_entry():
    # with labels from 1, a tail entry can reach HI = (max - min + 1) * K:
    # splitting the root's sorted lists there instead puts vertex 0's
    # out-entry among the in-entries
    _assert_matches_reference(2, [(0, 1, 1)], [[0, 1]])


def test_one_entry_signature_ranks_after_the_longer_lists_it_starts():
    """At the root, vertex 0's signature is the one entry x of its arc into
    2 and vertex 1's is (x, y): (x, y, top) ranks before (x, top), so 1
    leads the split of their cell.  A key that leaves out the closing top,
    (x,), would put 0 first and make this test fail."""
    n, arcs, cells = 4, [(0, 2, 1), (1, 2, 1), (1, 3, 1)], [[0, 1], [2], [3]]
    _assert_matches_reference(n, arcs, cells)
    assert canonical_form(n, arcs, cells).order == [1, 0, 2, 3]


def test_smaller_leaf_after_an_equal_prefix_matches_reference(monkeypatch):
    # the certificate graph of alternating:4 meets a leaf whose key first
    # falls below the best key after an equal prefix, which the random
    # graphs above do not
    (n, arcs, cells, *_), _ = _certificate_search(catalog("alternating:4"), monkeypatch)
    ref = _ReferenceSearcher(n, arcs, cells, budget=10**6).run()
    new = canonical_form(n, arcs, cells)
    assert (new.encoding, new.order, new.nodes) == (
        ref._encode_bytes(ref.best_key), ref.best_order, ref.nodes)


def _certificate_search(G, monkeypatch):
    """The arguments and result of the one search ``certificate`` runs, its
    streamed arcs kept as a list."""
    calls = []

    def recording(n, arcs, *args, **kwargs):
        args = (n, list(arcs), *args)
        calls.append((args, canonical_form(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, "canonical_form", recording)
    analysis.certificate(division_graph(G))
    (call,) = calls
    assert len(call[0][1]) > 0, "the recorded graph has arcs"
    return call


@pytest.mark.parametrize("G", standard_groups(8) + [catalog("dihedral:6")],
                         ids=lambda G: G.name)
def test_certificate_graphs_match_reference(G, monkeypatch):
    """Refinement by all but the last part of each split, with the end
    marker closing every signature list, searches a real certificate graph
    exactly as full signatures do.  Skipping the largest part instead of the
    last, or dropping the end marker, makes this test fail."""
    (n, arcs, cells, *_), _ = _certificate_search(G, monkeypatch)
    ref = _ReferenceSearcher(n, arcs, cells, budget=10**6).run()
    new = canonical_form(n, arcs, cells)
    assert (new.encoding, new.order, new.nodes, new.automorphisms) == (
        ref._encode_bytes(ref.best_key), ref.best_order, ref.nodes, ref.generators)


@pytest.mark.parametrize("descriptor, counters", [
    ("product:cyclic:2:cyclic:8", (244, 17, 670, 16)),
    ("product:cyclic:4:cyclic:4", (332, 16, 1177, 15)),
    ("cyclic:27", (529, 31, 670, 30)),
    ("product:cyclic:3:cyclic:9", (626, 30, 1626, 29)),
    ("alternating:5", (18, 2, 102, 1)),
    ("symmetric:4", (12, 1, 64, 0)),
    ("product:alternating:4:cyclic:2", (49, 5, 268, 1)),
])
def test_certificate_search_counters_are_pinned(descriptor, counters, monkeypatch):
    # (nodes, leaves, rounds, automorphisms found) of the seeded search
    _, result = _certificate_search(catalog(descriptor), monkeypatch)
    assert (result.nodes, result.leaves, result.rounds, len(result.automorphisms)) == counters


def _classes(n, cells):
    cls = [0] * n
    for c, cell in enumerate(cells):
        for v in cell:
            cls[v] = c
    return cls


def _maps_onto(p, n, arcs_a, cls_a, arcs_b, cls_b):
    return (all(cls_b[p[v]] == cls_a[v] for v in range(n))
            and {(p[u], p[v], lab) for u, v, lab in arcs_a} == set(arcs_b))


@settings(max_examples=300, deadline=None)
@given(labelled_digraphs(max_n=6), st.data())
def test_encodings_agree_with_brute_force_isomorphism(graph, data):
    n, arcs, cells = graph
    numbering = data.draw(st.permutations(range(n)))
    arcs_b = [(numbering[u], numbering[v], lab) for u, v, lab in arcs]
    cells_b = [[numbering[v] for v in cell] for cell in cells]
    edit = data.draw(st.sampled_from(["none", "arc", "label", "class"]))
    u, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if edit == "arc":  # toggle the arc u -> v
        kept = [a for a in arcs_b if a[:2] != (u, v)]
        arcs_b = kept if len(kept) < len(arcs_b) else kept + [(u, v, 1)]
    elif edit == "label" and arcs_b:
        a, b, lab = arcs_b[0]
        arcs_b[0] = (a, b, lab % 3 + 1)
    elif edit == "class":
        cells_b = [[w for w in cell if w != u] for cell in cells_b]
        cells_b[data.draw(st.integers(0, 2))].append(u)

    cls_a, cls_b = _classes(n, cells), _classes(n, cells_b)
    result_a = canonical_form(n, arcs, cells)
    result_b = canonical_form(n, arcs_b, cells_b)
    isomorphic = any(
        _maps_onto(p, n, arcs, cls_a, arcs_b, cls_b) for p in permutations(range(n))
    )
    assert (result_a.encoding == result_b.encoding) == isomorphic
    for g in result_a.automorphisms:
        assert _maps_onto(g, n, arcs, cls_a, arcs, cls_a)
    for g in result_b.automorphisms:
        assert _maps_onto(g, n, arcs_b, cls_b, arcs_b, cls_b)


# -- seeds: known automorphisms to prune with from the start ----------------------

def _automorphisms(n, arcs, cells):
    cls = _classes(n, cells)
    return [p for p in permutations(range(n)) if _maps_onto(p, n, arcs, cls, arcs, cls)]


def _maps(n, gens):
    """The group plain vertex maps generate, multiplied by composition."""
    return SeedGroup(tuple(range(n)), [tuple(g) for g in gens],
                     lambda a, b: tuple(a[x] for x in b), lambda g, v: g[v], range(n))


def _materialized(n, seeds):
    return sorted(tuple(g[v] for v in range(n)) for g in seeds)


def _generated(n, gens):
    """The non-identity maps the given maps generate, by closure."""
    identity = tuple(range(n))
    group = [identity]
    for a in group:
        for b in gens:
            if (c := tuple(a[x] for x in b)) not in group:
                group.append(c)
    return group[1:]


@settings(max_examples=200, deadline=None)
@given(labelled_digraphs(max_n=6), st.data())
def test_oracle_automorphisms_as_seeds_keep_the_encoding(graph, data):
    n, arcs, cells = graph
    autos = _automorphisms(n, arcs, cells)
    families = data.draw(st.lists(st.lists(st.sampled_from(autos), max_size=3), max_size=3))
    plain = canonical_form(n, arcs, cells)
    seeded = canonical_form(n, arcs, cells, known=[_maps(n, f) for f in families])
    assert seeded.encoding == plain.encoding
    assert _materialized(n, seeded.seeds) == sorted(
        g for f in families for g in _generated(n, f))
    assert 0 <= seeded.max_depth <= n
    whole = canonical_form(n, arcs, cells, known=[_maps(n, autos)])
    assert whole.encoding == plain.encoding
    assert _materialized(n, whole.seeds) == sorted(set(autos) - {tuple(range(n))})


# two 2-cycles, labels 1 and 2; cells {0, 2} and {1, 3}
_TWO_CYCLES = [(0, 1, 1), (1, 0, 1), (2, 3, 2), (3, 2, 2)]


@pytest.mark.parametrize("seed", [
    (2, 3, 0, 1),  # keeps the cells, swaps the label-1 and label-2 cycles
    (1, 0, 2, 3),  # maps arcs onto arcs, moves 0 into the other cell
    (0, 0, 2, 3),  # not a bijection
    (0, 1, 2, 4),  # sends a vertex outside the graph
])
def test_non_automorphism_seed_raises(seed):
    with pytest.raises(InternalInvariantError, match="not an automorphism"):
        canonical_form(4, _TWO_CYCLES, [[0, 2], [1, 3]], known=[_maps(4, [(0, 1, 2, 3), seed])])


# 500 disjoint arcs 2i -> 2i+1, labelled 1 for even i and 2 for odd i, and
# the isolated vertices 1000 (in the heads' cell) and 1001 (in the tails')
_ARCS_1002 = [(2 * i, 2 * i + 1, 1 + i % 2) for i in range(500)]
_CELLS_1002 = [list(range(0, 1000, 2)) + [1001], list(range(1, 1000, 2)) + [1000]]


def _swap(support, image):
    """The group {0, 1} whose element 1 maps ``support`` onto ``image``."""
    g = dict(zip(support, image))
    return SeedGroup(0, [1], lambda a, b: (a + b) % 2,
                     lambda e, v: g.get(v, v) if e else v, support)


@pytest.mark.parametrize("support, image", [
    ([1, 1000], [1000, 1]),        # breaks the one arc into 1, from outside
    ([0, 1001], [1001, 0]),        # breaks the one arc out of 0, to outside
    ([0, 1, 2, 3], [2, 3, 0, 1]),  # sends arcs onto arcs of the other label
    ([0, 1], [2, 3]),              # moves a vertex onto one outside its support
])
def test_seeds_are_checked_on_the_arcs_at_their_support(support, image):
    swap_arcs = _swap([0, 1, 4, 5], [4, 5, 0, 1])  # swaps two label-1 arcs
    assert len(_Searcher(1002, _ARCS_1002, _CELLS_1002, 10, [swap_arcs]).seeds) == 1
    with pytest.raises(InternalInvariantError, match="not an automorphism"):
        _Searcher(1002, _ARCS_1002, _CELLS_1002, 10, [_swap(support, image)])


def test_seeds_are_the_group_they_generate():
    # the 6-cycle: one rotation generates all five non-identity rotations
    arcs = [(i, (i + 1) % 6, 1) for i in range(6)]
    rotation = tuple((i + 1) % 6 for i in range(6))
    result = canonical_form(6, arcs, [list(range(6))], known=[_maps(6, [rotation])])
    assert _materialized(6, result.seeds) == sorted(
        tuple((i + k) % 6 for i in range(6)) for k in range(1, 6))
    assert result.automorphisms == []
    assert result.encoding == canonical_form(6, arcs, [list(range(6))]).encoding


def test_budget_error_names_the_seed_count():
    arcs = [(i, 5 + j, 1) for i in range(5) for j in range(5)]
    swap = (1, 0) + tuple(range(2, 10))
    with pytest.raises(CanonicalizationBudgetExceeded) as info:
        canonical_form(10, arcs, [list(range(10))], budget=3, known=[_maps(10, [swap])])
    assert str(info.value) == (
        "canonical search exceeded 3 nodes "
        "(at depth 3; 0 leaves and 0 automorphisms found, 1 seeded)"
    )


def _undirected(edges):
    return [(u, v, 1) for a, b in edges for u, v in ((a, b), (b, a))]


def test_node_invariant_prunes_and_resets_on_two_cycles():
    """C4 + C3 as an undirected 2-regular graph in one initial cell: the
    root refinement cannot tell the cycles apart, so the search meets
    children whose cell sizes beat or lose to the best path so far.  With the
    triangle on 0-2 a later branch resets the best leaf, and with the square
    on 0-3 a later branch is pruned; both labellings encode alike, and unlike
    C7."""
    n, cells = 7, [list(range(7))]
    triangle_first = _undirected([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    square_first = _undirected([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
    seven = _undirected([(v, (v + 1) % 7) for v in range(7)])
    encodings = [canonical_form(n, arcs, cells).encoding
                 for arcs in (triangle_first, square_first, seven)]
    assert encodings[0] == encodings[1] != encodings[2]
    cls = _classes(n, cells)
    maps = [any(_maps_onto(p, n, triangle_first, cls, arcs, cls) for p in permutations(range(n)))
            for arcs in (square_first, seven)]
    assert maps == [True, False]
