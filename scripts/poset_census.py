#!/usr/bin/env python3
"""Census of the fold posets: sizes, chain lengths, order complex homology,
and the time of each stage (enumeration, covers, the whole poset's homology
and the proper part's homology).

Every rank is checked against two known facts: the whole poset is a cone on
the trivial tree, so its order complex is acyclic, and the proper part has
reduced homology Z^((n-1)^(n-2)) in degree n-3 and none elsewhere
(McCammond and Meier, Math. Ann. 328, 2004).  A rank that breaks either is
flagged and the census exits 1.

Usage: python scripts/poset_census.py [--max-rank 5]
"""

import argparse
import sys
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


def broken_facts(n: int, whole, part_size: int, proper) -> list[str]:
    """The known facts that rank ``n`` breaks, given the reports of the
    whole poset and of its proper part.  At rank 2 the proper part is
    empty, its one class in degree -1, which a report does not list."""
    broken = [] if whole.is_reduced_acyclic else ["the whole poset is not acyclic"]
    if n == 2:
        if part_size:
            broken.append(f"the proper part has {part_size} elements, not 0")
        return broken
    expected = (0,) * (n - 3) + ((n - 1) ** (n - 2),)
    if proper.reduced_betti != expected or any(proper.torsion):
        broken.append(
            f"the proper part has reduced betti {list(proper.reduced_betti)} and torsion "
            f"{[list(t) for t in proper.torsion]}, not {list(expected)} and none"
        )
    return broken


def main() -> int:
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
    flagged = False
    for n in range(2, args.max_rank + 1):
        poset, enumerate_s = timed(enumerate_whitehead_poset, n)
        covers, covers_s = timed(poset.covers)
        hom, whole_s = timed(order_complex_homology, poset)
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
        broken = broken_facts(n, hom, len(part.elements), proper)
        for fact in broken:
            print(f"   FLAGGED: {fact}")
        flagged = flagged or bool(broken)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
