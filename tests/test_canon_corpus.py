"""Known answers for the canonicalizer: non-isomorphic graphs that agree on
every cheap invariant, each built from its definition.

Both graphs here are strongly regular with parameters (16, 6, 2, 2), so
colour refinement alone never splits their one initial cell.  Search counters
depend on the labelling, so they are not pinned here.
"""

import random

import pytest

from divgraph.canon import canonical_form

N = 16


def _undirected(adjacent):
    """Both arcs of each edge on the vertices 0..15, the pairs of Z_4 x Z_4."""
    return [(4 * a + b, 4 * c + d, 1)
            for a in range(4) for b in range(4) for c in range(4) for d in range(4)
            if adjacent((a, b), (c, d))]


def shrikhande():
    """Cayley graph of Z_4 x Z_4 on the connection set {±(1,0), ±(0,1), ±(1,1)}."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return _undirected(lambda x, y: ((y[0] - x[0]) % 4, (y[1] - x[1]) % 4) in steps)


def rook_4x4():
    """The squares of a 4 x 4 board, adjacent when a rook moves between them."""
    return _undirected(lambda x, y: x != y and (x[0] == y[0] or x[1] == y[1]))


GRAPHS = {"shrikhande": shrikhande, "rook_4x4": rook_4x4}


def _encoding(arcs):
    return canonical_form(N, arcs, [list(range(N))]).encoding


def _relabelled(arcs, seed):
    perm = list(range(N))
    random.Random(seed).shuffle(perm)
    return [(perm[u], perm[v], label) for u, v, label in arcs]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_is_strongly_regular_16_6_2_2(name):
    arcs = GRAPHS[name]()
    adj = {v: set() for v in range(N)}
    for u, v, _ in arcs:
        adj[u].add(v)
    assert all(u in adj[v] for u in adj for v in adj[u])
    assert {len(nbrs) for nbrs in adj.values()} == {6}
    common = {len(adj[u] & adj[v]) for u in range(N) for v in range(u + 1, N)}
    assert common == {2}


def test_shrikhande_and_rook_get_different_encodings():
    assert _encoding(shrikhande()) != _encoding(rook_4x4())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_one_encoding_over_relabellings(name):
    arcs = GRAPHS[name]()
    encodings = {_encoding(arcs)} | {_encoding(_relabelled(arcs, seed)) for seed in (1, 2, 3)}
    assert len(encodings) == 1
