"""Run one workload of the symlift benchmark and print its metrics.

    python3 perfbench/run.py --workload kernel_batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The run imports symlift from ``src/`` next to this directory.  Until
``--seconds`` have elapsed it repeats: set up (fresh import of every symlift
module, input generation from the seed, warm-up), then run the workload's
fixed problem set (a pass) one operation at a time in one thread and check
every output.  ``setup_s`` is the median set-up time.  Every time metric is
in reference seconds (see ``hostspeed.py``): measured time scaled by the
host's speed at that moment, which drifts on a shared host.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of one extra traced pass.  The lines
before it print every metric by name and unit.  ``--workload all`` runs each
workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from hostspeed import PROBE, clock  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import SEED_FREE, WORKLOADS, digest  # noqa: E402

LAYERS = ("words", "symaut", "lift", "kernel", "complexes", "braid", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Lib:
    """The symlift modules, freshly imported from ``SRC``."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "symlift" or m.startswith("symlift.")]:
            del sys.modules[name]
        package = importlib.import_module("symlift")
        if Path(package.__file__).resolve().parent != SRC / "symlift":
            raise ImportError(f"symlift was imported from {package.__file__}, not from {SRC}")
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"symlift.{name}"))


def set_up(workload, seed: int):
    t0 = clock()
    lib = Lib()
    inputs = workload.make_inputs(lib, seed)
    workload.warm_up(lib, inputs)
    return ((t0, clock()),), lib, inputs


class Checker:
    """Counts attempted and failed work units, pass by pass.

    A pass whose output digest differs from the first pass of the run, or
    from the digest recorded for this seed, fails as a whole."""

    def __init__(self, expected_digest: str | None) -> None:
        self.expected = expected_digest
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: set[str] = set()

    def check(self, ops) -> None:
        d = digest(ops)
        self.digest = self.digest or d
        self.attempted += sum(op.units for op in ops)
        failing = [op for op in ops if op.problems]
        for op in failing:
            self.problems.update(op.problems)
        if d != self.digest or (self.expected and d != self.expected):
            failing = ops
            self.problems.add(f"output digest {d[:16]} differs from {(self.expected or self.digest)[:16]}")
        self.failed += sum(op.units for op in failing)


def expected_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get("any" if workload in SEED_FREE else str(seed))


def measure(workload, seed: int, seconds: float, checker: Checker):
    """Set up, then run one pass; repeat until ``seconds`` have elapsed.
    Spreading the set-ups over the run keeps their median steady when the
    machine's speed drifts.  Set-ups and operations are kept as intervals
    of ``clock``, converted to reference seconds once the probe stops."""
    setups, passes = [], []
    start = clock()
    while not passes or clock() - start < seconds:
        setup, lib, inputs = set_up(workload, seed)
        setups.append(setup)
        gc.collect()
        ops = workload.run_pass(lib, inputs)
        checker.check(ops)
        # drop the outputs: held, they would grow peak_rss_mb with the
        # number of passes
        passes.append([op._replace(output="") for op in ops])
    return setups, passes, lib, inputs


def to_reference(setups: list, passes: list[list]) -> tuple[list[float], list[list]]:
    setups = [PROBE.reference(timed) for timed in setups]
    passes = [[(op.latency(PROBE.reference), op.units) for op in ops] for ops in passes]
    return setups, passes


def end_to_end(setups: list[float], passes: list[list]) -> dict[str, float]:
    """Every pass runs the same operations in the same order, so operation i
    has one latency per pass; its latency is their median, and the
    percentiles are taken over the operations of one pass."""
    wall = statistics.median(sum(seconds for seconds, _ in ops) for ops in passes)
    latencies = [statistics.median(seconds * 1e3 for seconds, _ in op) for op in zip(*passes)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": sum(units for _, units in passes[0]) / wall,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    checker = Checker(expected_digest(args.workload, args.seed))
    tracer = None
    PROBE.start()
    try:
        setups, passes, lib, inputs = measure(workload, args.seed, args.seconds, checker)
        if args.trace:
            gc.collect()
            with Tracer(lib) as tracer:
                traced = workload.run_pass(lib, inputs)
            checker.check(traced)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        PROBE.stop()
    raw_wall = statistics.median(sum(op.latency() for op in ops) for ops in passes)
    setups, passes = to_reference(setups, passes)
    e2e = end_to_end(setups, passes)
    units = {name: unit for name, unit in END_TO_END}
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = sum(op.latency(PROBE.reference) for op in traced) - e2e["wall_s"]
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.bin")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = e2e
    samples = sum(len(ops) for ops in passes)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, {samples} timed operations, digest {checker.digest}")
    print(
        f"# host slowness {PROBE.median_slowness():.3f} (median probe chunk / reference chunk, "
        f"{len(PROBE.chunks)} samples); measured median pass {raw_wall:.4g} s"
    )
    for problem in sorted(checker.problems)[:20]:
        print(f"# FAIL {problem}")
    fail_ratio = checker.failed / checker.attempted
    rows = [(name, metrics[name], units[name]) for name in units] + [("fail_ratio", fail_ratio, "ratio")]
    for name, value, unit in rows:
        print(f"{args.workload:<16} {name:<50} {value:>16.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
