"""Record the output digest of one pass per seed in ``digests.json``.

    python3 perfbench/record_digests.py

Seeds 0..31 are recorded for the seeded workloads, and one digest for each
workload whose inputs do not depend on the seed.  A benchmark run with a
recorded seed fails when its outputs differ, so run this only on a version
of symlift whose outputs are known to be right.  A pass with any failed
oracle is not recorded.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SEED_FREE, WORKLOADS, digest

SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.Lib()
    table: dict[str, dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        seeds = [0] if name in SEED_FREE else SEEDS
        for seed in seeds:
            ops = workload.run_pass(lib, workload.make_inputs(lib, seed))
            problems = [p for op in ops for p in op.problems]
            if problems:
                print(f"{name} seed {seed}: {problems[:5]}", file=sys.stderr)
                return 1
            key = "any" if name in SEED_FREE else str(seed)
            table.setdefault(name, {})[key] = digest(ops)
            print(name, key, table[name][key], flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
