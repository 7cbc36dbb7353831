#!/usr/bin/env python3
"""Sweep the bounded braid kernel search over strand counts and moduli.

Every row is expected to report an empty flag list; a nonempty one would be
a counterexample to injectivity of the reduced outer action, and the sweep
then exits 1, as ``symlift braid search`` does.  A sweep whose
largest row is over the search budget (``symlift.braid.MAX_SEARCH_WORDS``
words) is refused up front with exit 2.

Usage: python scripts/braid_scan.py [--max-strands 4] [--max-modulus 3] [--max-len 5]
"""

import argparse
import sys
import time

from symlift.braid import bounded_kernel_search, check_search
from symlift.words import WordError


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-strands", type=int, default=4)
    parser.add_argument("--max-modulus", type=int, default=3)
    parser.add_argument("--max-len", type=int, default=5)
    args = parser.parse_args()
    for flag, value, least in (
        ("--max-strands", args.max_strands, 2),
        ("--max-modulus", args.max_modulus, 2),
        ("--max-len", args.max_len, 1),
    ):
        if value < least:
            parser.error(f"{flag} must be >= {least}, not {value}")
    try:
        check_search(args.max_strands, 2, args.max_len)  # the largest row
    except WordError as exc:
        parser.error(str(exc))
    flagged = False
    print(f"{'n':>2} {'k':>2} {'L':>2} {'checked':>8} {'trivial':>8} {'flagged':>8} {'time':>7}")
    for n in range(2, args.max_strands + 1):
        for k in range(2, args.max_modulus + 1):
            t0 = time.perf_counter()
            rep = bounded_kernel_search(n, k, args.max_len)
            print(
                f"{n:>2} {k:>2} {args.max_len:>2} {rep.words_checked:>8} "
                f"{rep.trivial_braids_skipped:>8} {len(rep.flagged):>8} {time.perf_counter() - t0:>6.1f}s"
            )
            for word in rep.flagged:
                print(f"   FLAGGED: {word}")
            flagged = flagged or bool(rep.flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
