"""Seeded end-to-end benchmark of divgraph, timed as a user sees it.

One workload, in this process:

    python3 bench/run.py --workload compare --seed 1 --seconds 24 --trace 0

prints a few readable lines and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Every workload, each
in its own process, untraced and then traced:

    python3 bench/run.py --seed 1 [--record bench/baseline.json]

exits 1 if any correctness gate failed.  The load is closed-loop: one client,
one thread, each op starting when the previous one has finished.  Reported
times are scaled to a reference machine speed measured by ``speed_probe``.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
MIN_PASSES = 3
#: Time reports are scaled to the machine speed at which speed_probe takes this long.
PROBE_REF_S = 0.03
#: Speed probes per pass at least, spread over the gaps between its ops.
PROBES_PER_PASS = 12

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import workloads  # noqa: E402


def load_program() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, afresh each time."""
    if not (SRC / "divgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no divgraph sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "divgraph" or m.startswith("divgraph.")]:
        del sys.modules[name]
    cli = importlib.import_module("divgraph.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: divgraph imported from {cli.__file__}, not {SRC}")
    return SimpleNamespace(
        cli=cli,
        groups=sys.modules["divgraph.groups"],
        analysis=sys.modules["divgraph.analysis"],
    )


_PROBE_RNG = random.Random(7)
_PROBE_XS = [_PROBE_RNG.randrange(1 << 20) for _ in range(6000)]
_PROBE_ADJ = [[_PROBE_RNG.randrange(600) for _ in range(6)] for _ in range(600)]
_PROBE_TABLE = [[_PROBE_RNG.randrange(48) for _ in range(48)] for _ in range(48)]
_PROBE_MASKS = [_PROBE_RNG.getrandbits(128) for _ in range(300)]


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    program's inner loops: partition refinement by sorted signatures, dict
    counting, Cayley-table lookups and subgroup bitmask joins.

    On a shared machine the same pass can take 1.5-2 times longer for minutes
    at a time.  The median of this probe over a pass measures how fast the
    machine ran during that pass, so timings can be put on one scale.
    """
    start = time.perf_counter()
    n = len(_PROBE_ADJ)
    cell = [i % 7 for i in range(n)]
    for _ in range(8):
        sig = [tuple(sorted((cell[v], 1) for v in _PROBE_ADJ[u])) for u in range(n)]
        keys = {}
        for u in range(n):
            keys.setdefault((cell[u], sig[u]), len(keys))
        cell = [keys[(cell[u], sig[u])] for u in range(n)]
    counts = {}
    for i, x in enumerate(_PROBE_XS):
        counts[x & 4095] = counts.get(x & 4095, 0) + i
    t = _PROBE_TABLE
    equal = 0
    for a in range(len(t)):
        ta = t[a]
        for b in range(len(t)):
            tab, tb = t[ta[b]], t[b]
            for c in range(0, len(t), 2):
                equal += tab[c] == ta[tb[c]]
    joins = set()
    for x in _PROBE_MASKS:
        for y in _PROBE_MASKS[:60]:
            if x & ~y:
                joins.add(x | y)
    return time.perf_counter() - start


def setup(name: str, seed: int, directory: Path):
    """Imports plus input generation: what precedes a user's first command."""
    start = time.perf_counter()
    program = load_program()
    workload = workloads.build(name, seed, program)
    workloads.write_inputs(workload, seed, program, directory)
    return time.perf_counter() - start, program, workload


class Run:
    """Passes over one workload's op list, with the gates applied to each op."""

    def __init__(self, workload, program, directory):
        self.workload = workload
        self.program = program
        self.directory = directory
        self.attempted = 0
        self.failed = 0
        self.problems = []       # one line per failed op or other failed gate
        self.certificates = {}   # op index -> certificate hex of the first pass
        self.passes = []         # (op seconds, median probe seconds) per pass
        self._probes_per_gap = -(-PROBES_PER_PASS // (len(workload.ops) + 1))

    def one_pass(self, pass_index, tracer=None) -> float:
        """Run every op once, with speed probes before each op and after the
        last; return the seconds the program took for the ops."""
        gc.collect()
        op_seconds, probes = [], []
        for i, op in enumerate(self.workload.ops):
            probes.extend(speed_probe() for _ in range(self._probes_per_gap))
            if tracer is not None:
                tracer.start_op(pass_index, i)
            result = workloads.run_op(op, self.program, self.directory)
            op_seconds.append(result.seconds)
            self.attempted += 1
            ok, detail = result.ok, result.detail
            if ok and result.certificates:
                first = self.certificates.setdefault(i, result.certificates)
                if first != result.certificates:
                    ok, detail = False, "certificate bytes changed between passes"
            if not ok:
                self.failed += 1
                self.problems.append(f"pass {pass_index} op {i} {op.command}: {detail}")
        probes.extend(speed_probe() for _ in range(self._probes_per_gap))
        self.passes.append((op_seconds, statistics.median(probes)))
        return sum(op_seconds)


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    directory = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, program, workload = setup(name, seed, directory)
            setups.append(elapsed)
        run = Run(workload, program, directory)
        run.one_pass(-1)  # warm-up: untimed, but gated
        run.passes.clear()
        if traced:
            return _traced(run, name, seed, seconds)
        deadline = time.perf_counter() + seconds
        while len(run.passes) < MIN_PASSES or time.perf_counter() < deadline:
            run.one_pass(len(run.passes))
        # Each pass is scaled by its own probes; set-up by the whole run's.
        run_probe = statistics.median(probe for _, probe in run.passes)
        metrics = {
            "setup_s": (statistics.median(setups) * PROBE_REF_S / run_probe, "s"),
            "wall_s": (statistics.median(
                sum(ops) * PROBE_REF_S / probe for ops, probe in run.passes), "s"),
            "op_p50_s": (statistics.median(
                t * PROBE_REF_S / probe for ops, probe in run.passes for t in ops), "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        op_count = sum(len(ops) for ops, _ in run.passes)
        notes = [
            f"{len(run.passes)} passes of {len(workload.ops)} ops, {op_count} op samples",
            f"median speed probe {run_probe * 1e3:.2f} ms; times are scaled to "
            f"{PROBE_REF_S * 1e3:g} ms per probe",
            f"unscaled: setup_s {statistics.median(setups):.6g} s, wall_s "
            f"{statistics.median(sum(ops) for ops, _ in run.passes):.6g} s, op_p50_s "
            f"{statistics.median(t for ops, _ in run.passes for t in ops):.6g} s",
        ]
        return _result(run, metrics, notes)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _traced(run, name, seed, seconds) -> dict:
    """Alternate untraced and traced passes; per-layer figures come from the
    traced ones, the difference of the two medians is the tracing overhead."""
    tracer = layers.Tracer()
    plain, traced, self_times, counts = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while not traced or time.perf_counter() < deadline:
        if index % 2 == 0:
            plain.append(run.one_pass(index))
        else:
            first_span = tracer.start_pass()
            tracer.install()
            try:
                traced.append(run.one_pass(index, tracer))
            finally:
                tracer.uninstall()
            self_times.append(tracer.self_times(first_span))
            counts.append(tracer.counters.metrics())
        index += 1
    tracer.write(OUT / f"trace-{name}-{seed}.json")
    for later in counts[1:]:
        for key in layers.DETERMINISTIC:
            if later[key] != counts[0][key]:
                run.problems.append(f"counter {key} changed between traced passes")
    metrics = dict(counts[0])
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(t[layer] for t in self_times), "s")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes"]
    return _result(run, metrics, notes)


def _result(run, metrics, notes) -> dict:
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes + run.problems,
    }


def print_result(name: str, result: dict) -> None:
    for note in result["notes"]:
        print(f"{name}: {note}")
    print(f"{name}: error_rate {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for key, m in result["metrics"].items():
        print(f"{name}: {key} {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float, record: Path | None) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=300,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            results[(name, trace)] = json.loads(lines[-1]) if lines else None
    ok = all(r is not None and r["correct"] for r in results.values())
    if record is not None:
        record.write_text(json.dumps({
            "environment": {
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
                "commit": _commit(),
                "seed": seed,
                "seconds": seconds,
            },
            "workloads": {
                name: {
                    "why": workloads.WHY[name],
                    "end_to_end": results[(name, 0)],
                    "per_layer": results[(name, 1)],
                }
                for name in workloads.NAMES
            },
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="with no --workload: write the results here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.record)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print_result(args.workload, result)
    del result["notes"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
