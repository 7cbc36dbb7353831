"""Deterministic self-test registry behind the `selftest` CLI command.

Every check is a pure function of (scale parameters, seed), so two runs with
the same seed and level produce byte-identical reports.  ``full`` is the
acceptance gate: ``tests/test_acceptance.py`` runs every check in
:data:`CHECKS` at that level.  ``quick`` is a scaled-down version of it.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from . import braid as braid_mod
from . import complexes, kernel as kernel_mod, lift
from .lift import kernel_verdict
from .symaut import (
    GeneratorWord,
    all_letters,
    alpha,
    check_relations,
    eval_generator_word,
    find_outer_relation,
    inner_witness_of,
    outer_equal,
    rho_i,
)
from .words import free_context, normalize, torsion_context

DEFAULT_SEED = 1729

LEVELS = {
    "quick": {
        "presentation_ranks": (3,),
        "route_words": 150,
        "route_ranks": (3,),
        "theorem_c_samples": 40,
        "theorem_c_ranks": (3,),
        "free_relation_length": 5,
        "oracle_words": 120,
        "poset_max_rank": 4,
        "stabilizer_samples": 30,
        "quotient_samples": 12,
        "quotient_ranks": (3,),
        "braid_searches": ((2, 2, 4), (3, 2, 4), (3, 3, 3)),
    },
    "full": {
        "presentation_ranks": (3, 4, 5),
        "route_words": 1000,
        "route_ranks": (3, 4),
        "theorem_c_samples": 250,
        "theorem_c_ranks": (3, 4),
        "free_relation_length": 8,
        "oracle_words": 500,
        "poset_max_rank": 6,
        "stabilizer_samples": 55,
        "quotient_samples": 100,
        "quotient_ranks": (3, 4),
        "braid_searches": ((2, 2, 6), (3, 2, 6), (3, 3, 4)),
    },
}


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def check_presentation(params, seed) -> dict:
    ranks = {}
    ok = True
    for n in params["presentation_ranks"]:
        report = check_relations(n)
        ranks[str(n)] = {
            "instances": len(report.checks),
            "failures": [f"{c.family}{c.instance}" for c in report.failures()],
        }
        ok = ok and report.all_pass
    return {"passed": ok, "ranks": ranks}


def check_route_agreement(params, seed) -> dict:
    """Both routes, run unfiltered on every word, must agree with each other
    and with the verdict's routes, so a word the verdict refutes by its
    action on H_1(E) still has both routes checked on it."""
    rng = _rng(seed, "route_agreement")
    total = 0
    disagreements = 0
    for n in params["route_ranks"]:
        letters = all_letters(n)
        for _ in range(params["route_words"]):
            gw = GeneratorWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, 20))))
            v = kernel_verdict(gw, "both")
            h = eval_generator_word(gw, torsion_context(n, 2))
            routes = {"inner-in-H": inner_witness_of(h) is not None, "lift": lift.lift_route(h).in_kernel}
            total += 1
            if routes["inner-in-H"] != routes["lift"] or v.routes != routes:
                disagreements += 1
    return {
        "passed": disagreements == 0,
        "words": total,
        "disagreements": disagreements,
    }


def check_n2_degeneracy(params, seed) -> dict:
    in_kernel = 0
    for bits in itertools.product((0, 1), repeat=3):
        letters = []
        if bits[0]:
            letters.append(("r", 1))
        if bits[1]:
            letters.append(("r", 2))
        if bits[2]:
            letters.append(("s", 1, 2))
        v = kernel_verdict(GeneratorWord(2, tuple(letters)), "lift")
        if v.verdict == "in":
            in_kernel += 1
    swap_conj_inner = outer_equal(
        eval_generator_word(alpha(2, 1, 2), free_context(2)),
        eval_generator_word(GeneratorWord(2), free_context(2)),
    )
    return {
        "passed": in_kernel == 8 and swap_conj_inner,
        "elements_in_kernel": in_kernel,
        "conjugation_is_inner_at_rank_2": swap_conj_inner,
    }


def check_theorem_c(params, seed) -> dict:
    """Seeded products of rho-conjugates are in the kernel, certified, and
    their certificates verify.  The verifier must also refute: a certificate
    with its last conjugator dropped has the other rho-parity, so it must
    not verify.  The refutation counts toward ``passed`` only; the report
    keeps its counts."""
    rng = _rng(seed, "theorem_c")
    stats = {"samples": 0, "in_kernel": 0, "certified": 0, "verified": 0}
    refuted = True
    for n in params["theorem_c_ranks"]:
        for _ in range(params["theorem_c_samples"]):
            gw = kernel_mod.random_rho_conjugate_product(rng, n)
            stats["samples"] += 1
            v = kernel_verdict(gw, "both")
            if v.verdict == "in" and v.agree:
                stats["in_kernel"] += 1
            cert = kernel_mod.certify(gw)
            if cert is not None:
                stats["certified"] += 1
                if kernel_mod.verify_certificate(cert, gw):
                    stats["verified"] += 1
                if cert.conjugators:
                    shorter = kernel_mod.Certificate(n, cert.conjugators[:-1])
                    refuted = refuted and not kernel_mod.verify_certificate(shorter, gw)
    passed = stats["samples"] == stats["in_kernel"] == stats["certified"] == stats["verified"]
    return {"passed": passed and refuted, **stats}


def check_corollary_d(params, seed) -> dict:
    """Corollary D at rank 3: ``a[1,3]`` and ``a[2,3]^-1`` are outer-equal, no
    reduced word of length <= ``free_relation_length`` in ``a[1,2]``,
    ``a[2,3]``, ``a[3,1]`` is outer-trivial (``symaut.find_outer_relation``), and
    seeded words in them lie in the mod-2 kernel exactly when they cancel in
    the free product of three involutions."""
    ctx = free_context(3)
    a13 = eval_generator_word(alpha(3, 1, 3), ctx)
    a23_inv = eval_generator_word(alpha(3, 2, 3, -1), ctx)
    pair_identified = outer_equal(a13, a23_inv)
    pairs = ((1, 2), (2, 3), (3, 1))
    checked, relation = find_outer_relation(pairs, params["free_relation_length"])
    # letter a[pairs[c-1]]^{+-1} is written +-c
    relation_found = None if relation is None else " ".join(
        str(e * (pairs.index((i, j)) + 1)) for _, i, j, e in relation.letters
    )

    rng = _rng(seed, "corollary_d")
    hctx = torsion_context(3, 2)
    mismatches = 0
    codes = [1, 2, 3, -1, -2, -3]
    for _ in range(params["oracle_words"]):
        word = [rng.choice(codes) for _ in range(rng.randint(0, 10))]
        gw = GeneratorWord(3, tuple(("a", *pairs[abs(c) - 1], 1 if c > 0 else -1) for c in word))
        in_ker = kernel_verdict(gw, "inner-in-H").verdict == "in"
        # independent oracle: exponents mod 2 in the free product of three
        # involutions, on the abstract letters themselves
        abstract = normalize([(abs(c), 1 if c > 0 else -1) for c in word], hctx)
        oracle = len(abstract) == 0
        if in_ker != oracle:
            mismatches += 1
    return {
        "passed": pair_identified and relation_found is None and mismatches == 0,
        "pair_identified": pair_identified,
        "relation_words_checked": checked,
        "relation_found": relation_found,
        "oracle_words": params["oracle_words"],
        "oracle_mismatches": mismatches,
    }


def hypertree_count(n: int) -> int:
    """Classes of rank-n labelled bipartite trees for n >= 2, OEIS A030019:
    the sum over k of n^(k-1) S(n-1, k), with S the Stirling numbers of the
    second kind, built row by row from S(m, k) = k S(m-1, k) + S(m-1, k-1)."""
    stirling = [1]  # S(m, k) for k = 0..m, from m = 0
    for _ in range(n - 1):
        shifted = [0] + stirling
        stirling = [k * s + t for k, (s, t) in enumerate(zip(stirling + [0], shifted))]
    return sum(n ** (k - 1) * s for k, s in enumerate(stirling) if k)


def check_poset_facts(params, seed) -> dict:
    """Sizes (``hypertree_count``), longest chains, and the homology of the
    proper part.

    The whole poset has a minimum, so its order complex is a cone and is
    acyclic for any input.  The proper part has reduced homology free of
    rank (n-1)^(n-2) in degree n-3 and nothing else (McCammond-Meier, "The
    hypertree poset and the l^2-Betti numbers of the motion group of the
    trivial link", Math. Ann. 2004); at rank 2 it is empty.
    """
    sizes = {}
    chains = {}
    proper = {}
    ok = True
    for n in range(2, params["poset_max_rank"] + 1):
        poset = complexes.enumerate_whitehead_poset(n)
        sizes[str(n)] = len(poset.elements)
        chains[str(n)] = poset.max_chain_cardinality()
        ok = ok and sizes[str(n)] == hypertree_count(n) and chains[str(n)] == n - 1
        if n < 3:
            continue
        report = complexes.order_complex_homology(complexes.proper_part(poset))
        proper[str(n)] = {
            "reduced_betti": list(report.reduced_betti),
            "torsion": [list(t) for t in report.torsion],
        }
        expected = [0] * (n - 3) + [(n - 1) ** (n - 2)]
        ok = ok and list(report.reduced_betti) == expected and not any(report.torsion)
    return {
        "passed": ok,
        "sizes": sizes,
        "max_chain_cardinality": chains,
        "proper_part_homology": proper,
    }


def _vertex_aut_at(rng, t, v, comps):
    """Seeded powers in -2..2 on the moving components ``comps`` of ``v``,
    not all zero, and the vertex automorphism they give."""
    while True:
        powers = [rng.randint(-2, 2) for _ in comps]
        if any(powers):
            return powers, complexes.vertex_automorphism(t, v, powers)


def _sample_vertex_aut(rng, poset):
    """A seeded tree, vertex, powers and vertex automorphism, and the
    moving components of the tree."""
    while True:
        t = rng.choice(poset.elements)
        v = rng.randint(1, t.rank)
        moving = complexes.moving_components(t)
        if v in moving:
            return (t, v, *_vertex_aut_at(rng, t, v, moving[v]), moving)


def check_stabilizers(params, seed) -> dict:
    """Vertex automorphisms, evaluated as generator words: conjugating by
    the base vertex's inversion inverts one, and two at distinct vertices of
    one tree commute."""
    rng = _rng(seed, "stabilizers")
    inversion_ok = commute_ok = True
    samples = commutation_checks = 0
    for n in (3, 4):
        ctx = free_context(n)
        poset = complexes.enumerate_whitehead_poset(n)
        for _ in range(params["stabilizer_samples"]):
            t, base, powers, f, moving = _sample_vertex_aut(rng, poset)
            samples += 1
            r = rho_i(n, base)
            inverse = complexes.vertex_automorphism(t, base, [-p for p in powers])
            if eval_generator_word(r * f * r, ctx) != eval_generator_word(inverse, ctx):
                inversion_ok = False
            others = [v for v in moving if v != base]
            if not others:
                continue
            v = rng.choice(others)
            _, g = _vertex_aut_at(rng, t, v, moving[v])
            commutation_checks += 1
            if eval_generator_word(f * g, ctx) != eval_generator_word(g * f, ctx):
                commute_ok = False
        soundness = all(
            ok
            for t in poset.elements
            for _, ok in complexes.stabilizer_soundness(complexes.stabilizer_generators(t))
        )
        if not soundness:
            return {"passed": False, "soundness_failed_rank": n}
    return {
        "passed": inversion_ok and commute_ok,
        "samples": samples,
        "rho_inversion": inversion_ok,
        "commutation_checks": commutation_checks,
        "distinct_vertex_commutation": commute_ok,
    }


def check_quotient_map(params, seed) -> dict:
    rng = _rng(seed, "quotient_map")
    results = {}
    ok = True
    for n in params["quotient_ranks"]:
        report = complexes.quotient_star_check(n, rng, samples=params["quotient_samples"])
        results[str(n)] = report.to_json()
        ok = ok and report.all_pass
    return {"passed": ok, "ranks": results}


def check_braid_search(params, seed) -> dict:
    runs = {}
    ok = True
    for strands, modulus, max_len in params["braid_searches"]:
        report = braid_mod.bounded_kernel_search(strands, modulus, max_len)
        runs[f"{strands},{modulus},{max_len}"] = {
            "words_checked": report.words_checked,
            "flagged": list(report.flagged),
        }
        covered = report.words_checked == braid_mod.search_word_count(strands, max_len)
        ok = ok and covered and not report.flagged
    return {"passed": ok, "runs": runs}


CHECKS: tuple[tuple[str, Callable], ...] = (
    ("presentation", check_presentation),
    ("route_agreement", check_route_agreement),
    ("n2_degeneracy", check_n2_degeneracy),
    ("theorem_c_certificates", check_theorem_c),
    ("corollary_d", check_corollary_d),
    ("poset_facts", check_poset_facts),
    ("stabilizer_algebra", check_stabilizers),
    ("quotient_map", check_quotient_map),
    ("braid_injectivity_evidence", check_braid_search),
)


def run_selftest(level: str = "quick", seed: int = DEFAULT_SEED) -> dict:
    if level not in LEVELS:
        raise ValueError(f"level must be one of {sorted(LEVELS)}")
    params = LEVELS[level]
    checks = []
    all_passed = True
    for name, fn in CHECKS:
        result = fn(params, seed)
        checks.append({"name": name, **result})
        all_passed = all_passed and result["passed"]
    return {
        "level": level,
        "seed": seed,
        "checks": checks,
        "all_passed": all_passed,
    }
