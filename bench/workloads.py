"""Workload definitions: seeded inputs, the op list of one pass, and the
correctness gate of every op.

Each workload is a fixed list of ops over catalog groups.  The seed only
chooses how the elements of every group are renamed before its Cayley table
is written to a JSON file; the program under test sees nothing but those
files.  The groups were chosen so that renaming barely changes the amount of
work (see README.md for the groups left out for that reason).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path


@dataclass(frozen=True)
class Op:
    command: str            # "compare", "verify-lagarias", "analyze" or "scan"
    inputs: tuple[str, ...]  # file names under the input directory
    expect: object          # verdict, or the isomorphic pairs for "scan"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    files: dict[str, str]   # file name -> catalog descriptor


@dataclass(frozen=True)
class OpResult:
    ok: bool
    seconds: float
    certificates: tuple[str, ...] = ()
    detail: str = ""


# -- scan expectations -----------------------------------------------------------

#: Isomorphism classes among the scanned catalog groups that have more than one
#: member; every other scanned group is alone in its class.  Written from the
#: group theory, not from the program's output.
SCAN_IDENTITIES = (
    ("cyclic:2", "symmetric:2"),
    ("cyclic:3", "alternating:3"),
    ("klein4", "dihedral:2", "elementary_abelian:2:2"),
    ("symmetric:3", "dihedral:3"),
    ("dihedral:6", "product:symmetric:3:cyclic:2"),
    ("dihedral:10", "product:dihedral:5:cyclic:2"),
)
SCAN_MAX_ORDER = 20
#: Its certificate alone takes about 9 s, more than a whole pass may.
SCAN_EXCLUDED = ("elementary_abelian:2:4",)


def _identity(descriptor: str) -> str:
    for cls in SCAN_IDENTITIES:
        if descriptor in cls:
            return cls[0]
    return descriptor


# -- workload construction ---------------------------------------------------------

def _compare_ops(pairs, verdict, files):
    ops = []
    for left, right in pairs:
        names = []
        for desc in (left, right):
            name = f"in{len(files):02d}.json"
            files[name] = desc
            names.append(name)
        ops.append(Op("compare", tuple(names), verdict))
    return tuple(ops)


def build(name: str, seed: int, program) -> Workload:
    """The workload ``name`` for ``seed``; ``program`` supplies the catalog."""
    files: dict[str, str] = {}
    if name == "compare":
        ops = _compare_ops((
            ("product:cyclic:2:cyclic:8", "product:cyclic:4:cyclic:4"),
            ("cyclic:27", "product:cyclic:3:cyclic:9"),
        ), "different", files) + _compare_ops((
            ("alternating:5", "alternating:5"),
            ("symmetric:4", "symmetric:4"),
            ("product:alternating:4:cyclic:2", "product:alternating:4:cyclic:2"),
        ), "same", files)
    elif name == "structure":
        ops = []
        for desc in ("symmetric:5", "dihedral:32", "product:symmetric:4:cyclic:2",
                     "product:elementary_abelian:2:3:cyclic:4"):
            fname = f"in{len(files):02d}.json"
            files[fname] = desc
            ops.append(Op("verify-lagarias", (fname,), True))
            ops.append(Op("analyze", (fname,), True))
        ops = tuple(ops)
    elif name == "scan":
        descs = [
            g.name for g in program.groups.standard_groups(SCAN_MAX_ORDER)
            if g.name not in SCAN_EXCLUDED
        ]
        random.Random(f"scan-order/{seed}").shuffle(descs)
        names = []
        for desc in descs:
            fname = f"in{len(files):02d}.json"
            files[fname] = desc
            names.append(fname)
        expected = frozenset(
            (i, j) for i, j in combinations(range(len(descs)), 2)
            if _identity(descs[i]) == _identity(descs[j])
        )
        ops = (Op("scan", tuple(names), expected),)
    else:
        raise KeyError(name)
    return Workload(name, ops, files)


WHY = {
    "compare": "canon both ways: compare on two search-bound abelian pairs "
               "(verdict different) and on two relabellings each of three "
               "groups up to alternating:5 (refinement-bound, verdict same)",
    "structure": "no certificate: verify-lagarias and analyze, where table "
                 "validation, the lattice, coset spaces and analysis do the work",
    "scan": "many small certificates plus pairwise isomorphism tests in one "
            "conjecture_scan over 47 catalog groups",
}
NAMES = tuple(WHY)


def relabelled_table(G, rng: random.Random) -> list[list[int]]:
    """The Cayley table of ``G`` with its elements renamed at random."""
    n = G.order
    new_of = list(range(n))
    rng.shuffle(new_of)
    old_of = [0] * n
    for old, new in enumerate(new_of):
        old_of[new] = old
    table = G.table
    return [[new_of[table[old_of[i]][old_of[j]]] for j in range(n)] for i in range(n)]


def write_inputs(workload: Workload, seed: int, program, directory: Path) -> None:
    """Write every input file of ``workload``, each under a fresh renaming.

    The file carries a neutral name, so the program cannot tell which catalog
    group it holds.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for fname, desc in workload.files.items():
        rng = random.Random(f"relabel/{workload.name}/{seed}/{fname}")
        G = program.groups.catalog(desc)
        data = {"name": fname[:-5], "order": G.order,
                "table": relabelled_table(G, rng)}
        (directory / fname).write_text(json.dumps(data), encoding="utf-8")


# -- running one op -------------------------------------------------------------------

def _execute(op: Op, program, paths):
    """The program's work for one op: what a user would wait for."""
    if op.command == "scan":
        loaded = [
            program.groups.group_from_json(json.loads(p.read_text(encoding="utf-8")))
            for p in paths
        ]
        return program.analysis.conjecture_scan(loaded)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = program.cli.run([op.command, *map(str, paths)])
    return code, out.getvalue()


def _verify(op: Op, outcome, paths) -> tuple[bool, tuple[str, ...], str]:
    if op.command == "scan":
        position = {p.stem: i for i, p in enumerate(paths)}
        found = frozenset(
            tuple(sorted((position[a], position[b])))
            for a, b in outcome.matched_isomorphic
        )
        if not outcome.clean:
            return False, (), f"collisions {outcome.collisions}"
        if found != op.expect:
            return False, (), f"isomorphic pairs {sorted(found ^ op.expect)} differ"
        return True, (), ""
    code, text = outcome
    if code != 0:
        return False, (), f"exit code {code}"
    payload = json.loads(text)
    if op.command == "compare":
        certs = (payload["left_certificate"], payload["right_certificate"])
        if payload["result"] != op.expect:
            return False, certs, f"verdict {payload['result']}"
        return True, certs, ""
    if op.command == "verify-lagarias":
        return payload["passed"] is True, (), "" if payload["passed"] else "not passed"
    agree = all(c["agree"] for c in payload["oracle_checks"].values())
    return agree, (), "" if agree else "oracle checks disagree"


def run_op(op: Op, program, directory: Path) -> OpResult:
    """Run one op, timing only the program's part, and gate its output.

    Any exception fails the op; it is counted, never retried.
    """
    paths = [directory / name for name in op.inputs]
    start = time.perf_counter()
    try:
        outcome = _execute(op, program, paths)
        seconds = time.perf_counter() - start
        ok, certs, detail = _verify(op, outcome, paths)
    except Exception as exc:  # a crash is a failed op, not a benchmark crash
        return OpResult(False, time.perf_counter() - start, (), f"{type(exc).__name__}: {exc}")
    return OpResult(ok, seconds, certs, detail)
