"""Golden-file checks for the DOT renderings of the small stock groups.

Comparison is structural: per division subgraph, the multiset of vertex
(color, length) attributes and the multiset of labeled edges, after the
canonical sort the exporter already applies.  Full byte equality is also
asserted since the output is deterministic.  The same groups' certificate
bytes are pinned by sha256.
"""

import hashlib
import re
from pathlib import Path

import pytest

import divgraph as dv
from divgraph.analysis import certificate
from divgraph.ust import division_graph, division_graph_to_dot

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDEN_GROUPS = [
    "cyclic:2", "cyclic:3", "cyclic:5", "cyclic:4",
    "klein4", "symmetric:3", "quaternion8",
]

#: sha256 of certificate(division_graph(G)).data; these change only with a
#: deliberate bump of the ``divgraph-cert/1`` prefix.
CERTIFICATE_SHA256 = {
    "cyclic:2": "fa2076ff72abf9d1e8bfaf00d4267ef25453656cba58564170cc1c94f2e9bf5d",
    "cyclic:3": "3453711479ac608bc0dd4650a28ec6fb8944e0db351093d92aea4c922db9532c",
    "cyclic:4": "3cddef903cbcbb093b43a167fba90e6fe38968fd6f7d7105963669cd8019c0f2",
    "cyclic:5": "bb6ed4ad7067a203f6cf8068c8ac5f18beeba4226d2929b4c8362f4157553994",
    "klein4": "736da4d359e56204d26b5ffadaea2cf11073e5c183140358a3e3d16b9ef1ff77",
    "quaternion8": "d93426cb8fe94107279c458061a80ef8d574324a024273e7ec4027037b78d512",
    "symmetric:3": "cfcaae88475889b119da9e081a6b8855644a229314b7caacb5bb3baec0b4d96b",
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
    data = certificate(division_graph(dv.catalog(descriptor))).data
    assert data.startswith(b"divgraph-cert/1;")
    assert hashlib.sha256(data).hexdigest() == CERTIFICATE_SHA256[descriptor]
