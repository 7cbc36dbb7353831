#!/usr/bin/env python3
"""Sample products of conjugates of the full inversion and histogram the
certificates: factor counts, conjugator lengths, verification times.

Usage: python scripts/certificate_census.py [--samples 200] [--rank 3] [--seed 1729]
"""

import argparse
import random
import sys
import time
from collections import Counter

from symlift.kernel import certify, random_rho_conjugate_product, verify_certificate
from symlift.lift import kernel_verdict


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--rank", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1729)
    args = parser.parse_args()
    if args.rank < 2:
        parser.error("--rank must be at least 2")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    rng = random.Random(args.seed)
    sizes = Counter()
    max_conj = Counter()
    t_total = 0.0
    for sample in range(args.samples):
        target = random_rho_conjugate_product(rng, args.rank)
        t0 = time.perf_counter()
        cert = certify(target)
        if cert is None or not verify_certificate(cert, target):
            sys.exit(f"sample {sample} ({target}): no verified certificate")
        if kernel_verdict(target, "both").verdict != "in":
            sys.exit(f"sample {sample} ({target}): kernel verdict is not 'in'")
        t_total += time.perf_counter() - t0
        sizes[len(cert.conjugators)] += 1
        max_conj[max((len(c) for c in cert.conjugators), default=0)] += 1
    print(f"{args.samples} samples at rank {args.rank}, {t_total:.1f}s certify+verify")
    print("certificate factor counts:", dict(sorted(sizes.items())))
    print("max conjugator lengths:   ", dict(sorted(max_conj.items())))


if __name__ == "__main__":
    main()
