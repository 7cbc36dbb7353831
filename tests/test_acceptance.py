"""Acceptance gate: the ``selftest`` check registry at the ``full`` level.

There is one test per entry of ``symlift.selftest.CHECKS``.  Each calls the
check with ``LEVELS["full"]`` and prints an ``ACCEPTANCE <n> <name>:
PASS|FAIL`` line.  On top of the check's own verdict, the gate holds the time
bounds and count floors below, read from the check's report.  The last test
runs ``symlift selftest`` twice normally and once under ``python -O``, and
requires byte-identical reports.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import subprocess
import sys
import time

from symlift.selftest import CHECKS, LEVELS

SEED = 20240811

# seconds a check may take at the full level
TIME_BOUNDS = {
    "presentation": 5,
    "route_agreement": 60,
    "theorem_c_certificates": 300,
    "corollary_d": 30,
    "poset_facts": 600,
    "braid_injectivity_evidence": 300,
}

# per check, pairs of (count read from the report, least allowed value)
COUNT_FLOORS = {
    "stabilizer_algebra": (
        (lambda result: result.get("samples", 0), 100),
        (lambda result: result.get("commutation_checks", 0), 30),
    ),
    "quotient_map": (
        (
            lambda result: sum(
                rank["kernel_translate_checks"] + rank["separating_checks"]
                for rank in result["ranks"].values()
            ),
            400,
        ),
    ),
}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _acceptance_test(number, name, fn):
    def test():
        t0 = time.perf_counter()
        result = fn(LEVELS["full"], SEED)
        elapsed = time.perf_counter() - t0
        ok = result["passed"] and elapsed < TIME_BOUNDS.get(name, float("inf"))
        detail = f"{elapsed:.1f}s"
        if name in COUNT_FLOORS:
            counts = [(count(result), floor) for count, floor in COUNT_FLOORS[name]]
            ok = ok and all(got >= floor for got, floor in counts)
            detail = f"{', '.join(str(got) for got, _ in counts)} sampled, {detail}"
        report(number, name, ok, detail)

    test.__name__ = f"test_criterion_{number}_{name}"
    return test


# module-level functions, so each check keeps a plain test id
for _number, (_name, _fn) in enumerate(CHECKS, start=1):
    _test = _acceptance_test(_number, _name, _fn)
    globals()[_test.__name__] = _test


def test_bounds_name_registered_checks():
    assert set(TIME_BOUNDS) | set(COUNT_FLOORS) <= {name for name, _ in CHECKS}


def test_criterion_10_determinism():
    def run(*python_flags):
        proc = subprocess.run(
            [
                sys.executable,
                *python_flags,
                "-m",
                "symlift.cli",
                "selftest",
                "--level",
                "quick",
                "--seed",
                "7",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    outputs = [run(), run(), run("-O")]
    report(10, "determinism", len(set(outputs)) == 1, "two runs, one more under python -O")
