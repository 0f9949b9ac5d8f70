"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 cap or budget exhausted,
3 internal invariant violation (e.g. an equivalence-check counterexample,
which would be either a bug or a very loud finding).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import analysis, groups, lattice, ust
from .canon import DEFAULT_BUDGET
from .divisions import (
    alternating_divisions_by_type,
    conjugacy_classes,
    divisions as compute_divisions,
)
from .errors import (
    DivgraphError,
    InternalInvariantError,
    OrderCapExceeded,
    ResourceCapExceeded,
    ValidationError,
)


def _load_group(args, spec: str | None = None) -> groups.Group:
    """Resolve one group from --catalog/--input or a positional spec."""
    cap, path = args.order_cap, getattr(args, "input", None)
    if spec is None:
        spec = getattr(args, "catalog", None)
    elif spec.endswith(".json") or "/" in spec or Path(spec).exists():
        spec, path = None, spec
    if spec:
        return groups.catalog(spec, order_cap=cap)
    if path is None:
        raise ValidationError("no group given: use --catalog NAME or --input FILE")
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:  # nesting deeper than the interpreter's stack
        raise ValidationError("JSON input nested too deeply") from None
    return groups.group_from_json(data, order_cap=cap)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_validate(args) -> int:
    G = _load_group(args, args.group)
    _dump(args, {"name": G.name, "order": G.order, "valid": True})
    return 0


def _cmd_subgroups(args) -> int:
    G = _load_group(args, args.group)
    L = lattice.all_subgroups(G, order_limit=args.lattice_cap)
    if args.format == "dot":
        _emit(args, lattice.lattice_to_dot(L))
    else:
        _dump(args, lattice.lattice_to_json(L))
    return 0


def _cmd_divisions(args) -> int:
    G = _load_group(args, args.group)
    classes = conjugacy_classes(G)
    divs = compute_divisions(G, classes)
    _dump(args, {
        "group": G.name,
        "division_count": len(divs),
        "divisions": [
            {
                "representative": G.names[d.representative],
                "members": [G.names[g] for g in d.members],
                "united_class_representatives": [
                    G.names[classes[i].representative] for i in d.classes
                ],
                "common_order": d.common_order,
            }
            for d in divs
        ],
    })
    return 0


def _cmd_division_graph(args) -> int:
    G = _load_group(args, args.group)
    L = lattice.all_subgroups(G, order_limit=args.lattice_cap)
    dg = ust.division_graph(G, L)
    if args.division is not None:
        wanted = [
            (d, comp) for d, comp in dg.components
            if G.names[d.representative] == args.division
        ]
        if not wanted:
            raise ValidationError(
                f"no division has representative named {args.division!r}"
            )
        dg = ust.DivisionGraph(dg.group_name, tuple(wanted))
    if args.format == "dot":
        _emit(args, ust.division_graph_to_dot(dg))
    else:
        _dump(args, ust.division_graph_to_json(dg, G))
    return 0


def _cmd_analyze(args) -> int:
    G = _load_group(args, args.group)
    L = lattice.all_subgroups(G, order_limit=args.lattice_cap)
    report = analysis.analyze(G, L)
    _dump(args, report.to_json())
    if not report.all_agree:
        raise InternalInvariantError(
            "graph-derived values disagree with direct computation"
        )
    return 0


def _cmd_compare(args) -> int:
    G1 = _load_group(args, args.left)
    G2 = _load_group(args, args.right)
    result = analysis.compare(G1, G2, budget=args.budget,
                              lattice_cap=args.lattice_cap)
    _dump(args, {
        "left": G1.name,
        "right": G2.name,
        "result": result.verdict,
        "left_certificate": result.left.hex(),
        "right_certificate": result.right.hex(),
    })
    return 0


def _cmd_verify_lagarias(args) -> int:
    G = _load_group(args, args.group)
    L = lattice.all_subgroups(G, order_limit=args.lattice_cap)
    report = ust.verify_lagarias(G, L)
    _dump(args, {
        "group": report.group_name,
        "elements": report.elements,
        "subgroups": report.subgroups,
        "passed": report.passed,
        "violations": [list(v) for v in report.violations],
    })
    if not report.passed:
        raise InternalInvariantError(
            f"division/splitting-type equivalence FAILED on {G.name}: "
            f"{len(report.violations)} violating pair(s); this contradicts a "
            "theorem and deserves loud attention"
        )
    return 0


def _cmd_an_divisions(args) -> int:
    mapping = alternating_divisions_by_type(args.n, cap=args.cap)
    _dump(args, {
        "n": args.n,
        "types": {
            "+".join(str(x) for x in t): count
            for t, count in sorted(mapping.items())
        },
    })
    return 0


def _cmd_conjecture_scan(args) -> int:
    if args.max_order > args.order_cap:  # the scan holds cyclic:max_order
        raise OrderCapExceeded(
            f"max order {args.max_order} exceeds the order cap {args.order_cap}"
        )
    candidates = groups.standard_groups(args.max_order)
    report = analysis.conjecture_scan(candidates, lattice_cap=args.lattice_cap)
    _dump(args, {
        "max_order": args.max_order,
        "groups": list(report.group_names),
        "collisions": [list(c) for c in report.collisions],
        "isomorphic_pairs_with_equal_certificates": [
            list(c) for c in report.matched_isomorphic
        ],
        "clean": report.clean,
    })
    return 0


def _cap(text: str) -> int:
    """A cap, a budget or the scan's order bound: a negative one is invalid input
    (and any work exceeds a zero cap)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors are one-line invalid input (exit 1); 2 is for caps."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache  # parse_args leaves the parser as it was, so one serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divgraph",
        description="Finite-group divisions, splitting types, and graph invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, group=True, lattice_cap=True):
        """A subcommand with only the options its function reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if group:
            p.add_argument("group", nargs="?", default=None,
                           help="catalog descriptor or JSON file path")
            p.add_argument("--catalog", help="catalog descriptor, e.g. symmetric:4")
            p.add_argument("--input", help="path to a JSON group file")
        p.add_argument("--order-cap", type=_cap, default=groups.DEFAULT_ORDER_CAP)
        if lattice_cap:
            p.add_argument("--lattice-cap", type=_cap, default=lattice.DEFAULT_ORDER_LIMIT)
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    command("validate", _cmd_validate, "validate a group table or generators",
            lattice_cap=False)

    p = command("subgroups", _cmd_subgroups, "emit the subgroup lattice")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = command("divisions", _cmd_divisions, "emit the divisions", lattice_cap=False)
    p.add_argument("--format", choices=("json",), default="json")

    p = command("division-graph", _cmd_division_graph, "emit the full division graph")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--division", help="restrict output to one division, by element name")

    command("analyze", _cmd_analyze,
            "recover properties from the graph and cross-check")

    p = command("compare", _cmd_compare,
                "compare two groups by canonical certificates", group=False)
    p.add_argument("--budget", type=_cap, default=DEFAULT_BUDGET)
    p.add_argument("left", help="catalog descriptor or JSON file path")
    p.add_argument("right", help="catalog descriptor or JSON file path")

    command("verify-lagarias", _cmd_verify_lagarias,
            "check divisions against splitting types")

    p = sub.add_parser("an-divisions", help="alternating-group divisions by cycle type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=_cap, default=20)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_an_divisions)

    p = command("conjecture-scan", _cmd_conjecture_scan,
                "scan the catalog for certificate collisions", group=False)
    p.add_argument("--max-order", type=_cap, default=15)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 3
    except ResourceCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (DivgraphError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
