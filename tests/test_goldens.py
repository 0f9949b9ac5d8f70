"""Golden-file checks for the DOT renderings of the small stock groups.

Comparison is structural: per division subgraph, the multiset of vertex
(color, length) attributes and the multiset of labeled edges, after the
canonical sort the exporter already applies.  Full byte equality is also
asserted since the output is deterministic.  The same groups' certificate
bytes are pinned by sha256, and so is the stdout of ``analyze`` and of
``division-graph --format json`` on them and on symmetric:4, and the stdout
of ``conjecture-scan`` at three order bounds.  So are the catalog's groups
themselves, with subgroups, quotients and relabelled copies built from them.
"""

import hashlib
import random
import re
from pathlib import Path

import pytest

import divgraph as dv
from divgraph.analysis import certificate
from divgraph.cli import run
from divgraph.groups import closure_from_generators
from divgraph.ust import division_graph, division_graph_to_dot

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDEN_GROUPS = [
    "cyclic:2", "cyclic:3", "cyclic:5", "cyclic:4",
    "klein4", "symmetric:3", "quaternion8",
]

#: sha256 of certificate(division_graph(G)); these change only with a
#: deliberate bump of the ``divgraph-cert/2`` prefix.
CERTIFICATE_SHA256 = {
    "cyclic:2": "9b9929298cc8b64b0173050f90c5bfe13be2cd5d3e9c789a4ee9f23b6ecc9390",
    "cyclic:3": "6fdad7aa589b4186e971dc7090571d749b16080a6bc32319031994f266159a40",
    "cyclic:4": "cce715086d81b7db3fa34b1dca86e7e761426e3d1809e4ee85cbf1ea9dd1735f",
    "cyclic:5": "d78eecf3a1353597e05f80dee50229bdcb70056f6600ab27ec77735b4b9f430b",
    "klein4": "fea9a46bc56bf6c84d5bc4ffe73eb10ba2adec0b91365f65db0718b65471cafa",
    "quaternion8": "59a9e7f1b41fe404f3cd7c144b9a513172f16eaadecb457dda27839ba246c216",
    "symmetric:3": "51b934af072b8147b75e164c24b1f85401f6fbb89dc6791e1c243d783c0a87c1",
}

_NODE = re.compile(r'"(d[^"]+)" \[color="(\d+)" length="(\d+)"\];')
_EDGE = re.compile(r'"(d[^"]+)" -> "(d[^"]+)" \[label="(\d+)"\];')


def dot_structure(text: str):
    """Multisets of (cluster, color, length) vertices and labeled edges."""
    nodes = {}
    edges = {}
    for name, color, length in _NODE.findall(text):
        division = name.split("/")[0]
        key = (division, color, length)
        nodes[key] = nodes.get(key, 0) + 1
    for src, dst, label in _EDGE.findall(text):
        key = (src.split("/")[0], src.split("/")[1], dst.split("/")[1], label)
        edges[key] = edges.get(key, 0) + 1
    return nodes, edges


@pytest.mark.parametrize("descriptor", GOLDEN_GROUPS)
def test_dot_matches_golden(descriptor):
    golden_path = GOLDEN_DIR / (descriptor.replace(":", "_") + ".dot")
    golden = golden_path.read_text(encoding="utf-8")
    fresh = division_graph_to_dot(division_graph(dv.catalog(descriptor)))
    assert dot_structure(fresh) == dot_structure(golden)
    assert fresh == golden


def test_goldens_present():
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.dot")) == sorted(
        d.replace(":", "_") + ".dot" for d in GOLDEN_GROUPS
    )


@pytest.mark.parametrize("descriptor", GOLDEN_GROUPS)
def test_certificate_bytes_pinned(descriptor):
    data = certificate(division_graph(dv.catalog(descriptor)))
    assert data.startswith(b"divgraph-cert/2;")
    assert hashlib.sha256(data).hexdigest() == CERTIFICATE_SHA256[descriptor]


#: sha256 of the stdout of ``analyze`` and of ``division-graph --format json``.
STDOUT_SHA256 = {
    ("cyclic:2", "analyze"): "2d310a47916bcdca5d92358b2f7f68a3fd0338ea5c2186221714e976c8e268d9",
    ("cyclic:2", "division-graph"): "d1414fe61e321e64abfec2faf9cd0cca352969afd4a612f917010de3332052fc",
    ("cyclic:3", "analyze"): "1151bfadc43976d7c3bd9a651cd485583f518461ae8929e0d126495202c4344b",
    ("cyclic:3", "division-graph"): "603f675d5fb945b037775769e447b358c5443a52de038635593fdbd61ed712a5",
    ("cyclic:5", "analyze"): "0ca5e59ef03a450b5d9236eaf2ee2a3b853b3ff422e43b5930c8f43ad8188bcd",
    ("cyclic:5", "division-graph"): "de328d930e77d345f7c4ea7b5040a7b733d7a57709680c2968dfe6cfa8d2e4db",
    ("cyclic:4", "analyze"): "7444cf108c4757b4417480b7d50a68e19b032ac0ffdd57895ad77ba1b990dbe7",
    ("cyclic:4", "division-graph"): "e507c6738d226eb96e489d894039941e818a6caadd7d1f19a144ddefcd6935fc",
    ("klein4", "analyze"): "4cba1632639d7d3ef9b421969063bd8c67b01d0469e17cbddb0b75183c9e2e7f",
    ("klein4", "division-graph"): "d0dc3054d3478f33d4d8d2f081b21db32f23deeacdca6a5fa16454bc44bbeb09",
    ("symmetric:3", "analyze"): "019793dd853303c7fa2755c0bcfcc286dc1ff7c476ed360656eabce0951d9583",
    ("symmetric:3", "division-graph"): "243ffd796aa14671bcafb7a46911c9daf85322de9d35d32f9e4ba08cb190ba36",
    ("quaternion8", "analyze"): "16001a95b26c0e462e6a47d00369def5be3d6ae5c7871f4e0db8a943b57468c0",
    ("quaternion8", "division-graph"): "f875ad9ea05e49f101c7b1dc5a063f3de64f62c010a2d06e20f6fc6500bf3a7a",
    ("symmetric:4", "analyze"): "74d6822c61f38a24a738a0f5fa46dde6207f8ec8351c6366271ccfde972c3dc4",
    ("symmetric:4", "division-graph"): "e125ba22618af5a617770a4ed630b11010a28fedb0163b28c672addd94b9df5e",
}


@pytest.mark.parametrize("descriptor,command", sorted(STDOUT_SHA256))
def test_stdout_bytes_pinned(descriptor, command, capsys):
    extra = ["--format", "json"] if command == "division-graph" else []
    assert run([command, "--catalog", descriptor, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[descriptor, command]


#: sha256 of the stdout of ``conjecture-scan --max-order N``.  Its key
#: ``isomorphic_pairs_with_equal_certificates`` lists every pair within one
#: isomorphism class; the scan certifies none of them, as their certificates
#: are equal by invariance (``test_isomorphic_groups_have_equal_certificates``).
SCAN_STDOUT_SHA256 = {
    24: "4fb7cf651f854f5dfcd5d042c88087e6cd91cae2309c224b751a7d6c6e444ee9",
    48: "70cdc663b9de44c0203eb276b10f1cd813cfc362572e460675d44bd7eee30ef9",
    64: "76bdaeadd5ef424edaa6c32f0ff378dfaebf8d8d86651f68ef50f9f9d3dae45c",
    128: "a2c6314feed6722a1435f256a0dd881e1c7a22f3ce8acdd14aab7fd81e3e2ec9",
}


@pytest.mark.parametrize("max_order", sorted(SCAN_STDOUT_SHA256))
def test_conjecture_scan_stdout_pinned(max_order, capsys):
    assert run(["conjecture-scan", "--max-order", str(max_order)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_STDOUT_SHA256[max_order]


#: Catalog groups pinned beyond ``standard_groups(128)``, and the nonabelian
#: groups whose subgroup, quotient and relabelled copy are pinned too
#: (symmetric:6 is above ``EAGER_TABLE_LIMIT``, so its products are composed).
CATALOG_EXTRAS = ("quaternion8", "heisenberg27", "elementary_abelian:5:3",
                  "elementary_abelian:2:6", "dihedral:100", "cyclic:1",
                  "product:klein4:quaternion8")
DERIVED_FROM = ("symmetric:4", "quaternion8", "dihedral:6", "heisenberg27", "symmetric:6")

#: sha256 over each group's name, stored table, permutations, names, inverses
#: and ``generating_set()``.
CATALOG_SHA256 = "171b1640ba423ef1d6087e03cc28f01a715bf5d58da16c8d185c539166d6d26a"


def pinned_groups():
    yield from dv.standard_groups(128)
    yield from map(dv.catalog, CATALOG_EXTRAS)
    for descriptor in DERIVED_FROM:
        G = dv.catalog(descriptor)
        yield dv.subgroup_as_group(G, closure_from_generators(G, G.generating_set()[:-1]))[0]
        yield dv.quotient_group(G, dv.commutator_subgroup(G).members)[0]
        relabel = list(G.elements())
        random.Random(descriptor).shuffle(relabel)
        yield dv.relabeled_copy(G, relabel)


def test_catalog_groups_pinned():
    digest = hashlib.sha256()
    for G in pinned_groups():
        perms = G.perm_images and [p.images for p in G.perm_images]
        record = (G.name, G._table, perms, G.names, G.inverse, G.generating_set())
        digest.update(repr(record).encode())
    assert digest.hexdigest() == CATALOG_SHA256
