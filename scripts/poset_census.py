#!/usr/bin/env python3
"""Census of the fold posets: sizes, chain lengths, order complex homology,
and the time of each stage (enumeration, covers, the whole poset's homology
and the proper part's homology).

Usage: python scripts/poset_census.py [--max-rank 5]
"""

import argparse
import time

from symlift.complexes import (
    MAX_POSET_RANK,
    enumerate_whitehead_poset,
    order_complex_homology,
    proper_part,
)


def timed(fn, *args):
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-rank", type=int, default=5)
    args = parser.parse_args()
    if not 2 <= args.max_rank <= MAX_POSET_RANK:
        parser.error(f"--max-rank must be between 2 and {MAX_POSET_RANK}, not {args.max_rank}")
    header = (
        f"{'n':>2} {'elements':>9} {'covers':>7} {'max chain':>9} {'chi':>4} "
        f"{'proper part reduced betti':>25}"
    )
    print(header)
    print("-" * len(header))
    for n in range(2, args.max_rank + 1):
        poset, enumerate_s = timed(enumerate_whitehead_poset, n)
        covers, covers_s = timed(poset.covers)
        hom, whole_s = timed(order_complex_homology, poset)
        # the whole poset is a cone on the trivial tree, hence acyclic
        part = proper_part(poset)
        proper, proper_s = timed(order_complex_homology, part)
        betti = str(list(proper.reduced_betti)) if part.elements else "(empty)"
        if any(proper.torsion):
            betti += f" torsion {[list(t) for t in proper.torsion]}"
        print(
            f"{n:>2} {len(poset.elements):>9} {len(covers):>7} "
            f"{poset.max_chain_cardinality():>9} {hom.euler_characteristic:>4} {betti:>25}"
        )
        print(f"   simplices by dimension: {list(hom.simplex_counts)}")
        print(
            f"   seconds: enumerate {enumerate_s:.2f}, covers {covers_s:.2f}, "
            f"homology {whole_s:.2f}, proper-part homology {proper_s:.2f}"
        )


if __name__ == "__main__":
    main()
