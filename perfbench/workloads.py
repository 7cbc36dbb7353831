"""The four workloads of the symlift benchmark.

Each workload has three parts:

* ``make_inputs(lib, seed)`` builds the inputs from the seed.  The seed only
  picks words inside fixed strata (rank, word length, image size), so every
  seed gives the same size profile.
* ``warm_up(lib, inputs)`` runs a few small untimed calls.
* ``run_pass(lib, inputs)`` runs the fixed problem set once, as a closed loop
  in one thread, and returns one ``OpResult`` per operation.  Each stratum
  is spread evenly over the pass, in an order that does not depend on the
  seed.

``lib`` is a namespace holding the symlift modules.  Every call goes through a
module attribute (``lib.lift.kernel_verdict``), so the tracer's wrappers see
it.  Only the library calls are timed, with ``hostspeed.clock``; checking and
serialising the outputs happens outside the timed region.

The ``*_problems`` functions are the oracles.  Each returns a list of
problems, empty when the output is correct, and each can fail: the tests in
``perfbench/tests`` feed them corrupted outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from typing import Callable, NamedTuple

from hostspeed import clock

# OEIS A030019: labelled hypertrees, the size of the rank-n poset
POSET_SIZES = {2: 1, 3: 4, 4: 29, 5: 311}
POSET_RANKS = (3, 4, 5)
# timed repetitions of each rank within one operation: a rank-4 call takes
# about 30 ms, short enough for one stall of the host to swing it by a third
POSET_REPEATS = {3: 5, 4: 5, 5: 1}
BRAID_SEARCHES = ((4, 2, 5), (3, 2, 7))

KERNEL_RANKS = (3, 4)
KERNEL_MAX_LENGTH = 20
KERNEL_WORDS_PER_LENGTH = 24  # per rank and length: 2 * 21 * 24 = 1008 words
KERNEL_CLI_EVERY = 10  # every tenth verdict goes through cli.main
KERNEL_RHO_PRODUCTS = 100  # per rank

# (m, words per rank and wrapping) for long_images; at rank 3 the image of
# the chain power (a[1,2] a[2,3] a[3,1])^m has conjugators of 464, 1973 and
# 8360 syllables in total at m = 4, 5 and 6
LONG_RANKS = (3, 4)
LONG_STRATA = ((3, 12), (4, 8), (5, 4), (6, 1))


class OpResult(NamedTuple):
    """One operation: its timed repetitions, each a tuple of intervals
    ``(start, end)`` on ``hostspeed.clock``; the work units it covers (braid
    words for a search, else 1); its canonical output and the problems found
    in it.  Its latency is the median over repetitions of the summed
    intervals; most operations run once."""

    timed: tuple[tuple[tuple[float, float], ...], ...]
    units: int
    output: str
    problems: tuple[str, ...]

    def latency(self, seconds_of=None) -> float:
        """``seconds_of(intervals)`` converts one repetition; by default it
        is the measured time."""
        seconds_of = seconds_of or (lambda intervals: sum(t1 - t0 for t0, t1 in intervals))
        return statistics.median(seconds_of(intervals) for intervals in self.timed)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable
    warm_up: Callable
    run_pass: Callable


def digest(ops: list[OpResult]) -> str:
    """SHA-256 over the canonical outputs of one pass, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.output.encode())
        h.update(b"\n")
    return h.hexdigest()


def _spread(strata: list[list]) -> list:
    """Every item of every stratum, each stratum spread evenly over the pass.

    The order depends only on the strata sizes, not on the seed.  Spreading
    keeps the operations of one stratum from all landing in the same burst
    of machine noise, which would swing the percentiles."""
    keyed = [((j + 0.5) / len(items), s, j) for s, items in enumerate(strata) for j in range(len(items))]
    return [strata[s][j] for _, s, j in sorted(keyed)]


def _timed(fn, *args):
    """``(intervals, result, error)`` of one call; ``intervals`` holds the
    one interval ``(start, end)``."""
    t0 = clock()
    try:
        result = fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        return ((t0, clock()),), None, f"{type(exc).__name__}: {exc}"
    return ((t0, clock()),), result, None


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def verdict_problems(payload: dict, rank: int) -> list[str]:
    """Checks on one ``kernel_verdict(route="both")`` payload.

    At rank >= 3 both routes must agree and the verdict must follow them; a
    positive verdict carries its inner witness.
    """
    problems = []
    routes = payload.get("routes", {})
    verdict = payload.get("verdict")
    if verdict not in ("in", "out"):
        problems.append(f"verdict {verdict!r}")
    if rank >= 3:
        if payload.get("agree") is not True or routes.get("inner-in-H") != routes.get("lift"):
            problems.append("routes disagree")
        if verdict != ("in" if routes.get("inner-in-H") else "out"):
            problems.append("verdict does not follow the routes")
    if verdict == "in" and "inner_in_h" not in payload.get("witnesses", {}):
        problems.append("positive verdict without a witness")
    return problems


def long_problems(payload: dict, rank: int, wrapped: bool) -> list[str]:
    """A wrapped word c rho c^-1 is in the kernel, whatever c is."""
    problems = verdict_problems(payload, rank)
    if wrapped and payload.get("verdict") != "in":
        problems.append("c rho c^-1 is not in the kernel")
    return problems


def cli_problems(stdout: str, code: int, rank: int) -> list[str]:
    """Checks on the stdout and exit code of ``symlift lift kernel``."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON object"]
    problems = verdict_problems(payload, rank)
    if payload.get("schema") != "symlift/1":
        problems.append("missing schema")
    if code != (0 if payload.get("verdict") == "in" else 1):
        problems.append(f"exit code {code} does not match the verdict")
    return problems


def certificate_problems(lib, cert, verified: bool, gw) -> list[str]:
    """Checks on a certificate for a product of conjugates of rho.

    Besides ``verify_certificate``, the number of conjugators must match the
    inversion vector of the target: each factor c rho c^-1 flips every bit.
    """
    if cert is None:
        return ["no certificate"]
    problems = []
    if not verified:
        problems.append("certificate does not verify")
    nf = lib.symaut.semidirect_normal_form(gw)
    parity = len(cert.conjugators) % 2
    if nf.perm != tuple(range(1, gw.rank + 1)) or any(b != parity for b in nf.rho):
        problems.append("conjugator count does not match the inversion vector")
    return problems


def poset_problems(n: int, size: int, max_chain: int, whole: dict, proper: dict) -> list[str]:
    """Checks on the rank-n poset, its order complex and its proper part.

    The whole poset has a minimum, so its order complex is a cone: Euler
    characteristic 1 and no reduced homology.  The proper part (without the
    trivial tree) has reduced homology only in its top degree n-3, of rank
    (n-1)^(n-2) (McCammond-Meier, Math. Ann. 2004).
    """
    problems = []
    if size != POSET_SIZES[n]:
        problems.append(f"size {size} != {POSET_SIZES[n]}")
    if max_chain != n - 1:
        problems.append(f"max chain {max_chain} != {n - 1}")
    if whole["euler_characteristic"] != 1:
        problems.append(f"euler characteristic {whole['euler_characteristic']} != 1")
    if any(whole["reduced_betti"]) or any(whole["torsion"]):
        problems.append("order complex is not acyclic")
    expected = [0] * (n - 3) + [(n - 1) ** (n - 2)]
    if proper["reduced_betti"] != expected or any(proper["torsion"]):
        problems.append(
            f"proper part reduced homology {proper['reduced_betti']} "
            f"torsion {proper['torsion']} != {expected}"
        )
    return problems


def expected_braid_words(strands: int, max_length: int) -> int:
    """Freely reduced words of length 1..max_length on 2(s-1) letters."""
    letters = 2 * (strands - 1)
    return letters * sum((letters - 1) ** length for length in range(max_length))


def braid_problems(report: dict, strands: int, modulus: int, max_length: int) -> list[str]:
    problems = []
    expected = expected_braid_words(strands, max_length)
    if report["words_checked"] != expected:
        problems.append(f"words_checked {report['words_checked']} != {expected}")
    if report["flagged"]:
        problems.append(f"flagged {report['flagged']}")
    if (report["strands"], report["modulus"], report["max_length"]) != (
        strands,
        modulus,
        max_length,
    ):
        problems.append("report parameters differ from the request")
    return problems


# ---------------------------------------------------------------------------
# kernel_batch
# ---------------------------------------------------------------------------


def _kernel_inputs(lib, seed: int) -> list[tuple]:
    rng = random.Random(f"{seed}:kernel_batch")
    GeneratorWord = lib.symaut.GeneratorWord
    strata = []
    for n in KERNEL_RANKS:
        letters = lib.symaut.all_letters(n)
        for length in range(KERNEL_MAX_LENGTH + 1):
            strata.append(
                [
                    ["verdict", GeneratorWord(n, tuple(rng.choice(letters) for _ in range(length)))]
                    for _ in range(KERNEL_WORDS_PER_LENGTH)
                ]
            )
        strata.append(
            [["certify", lib.kernel.random_rho_conjugate_product(rng, n)] for _ in range(KERNEL_RHO_PRODUCTS)]
        )
    ops = _spread(strata)
    verdicts = 0
    for op in ops:
        if op[0] == "verdict":
            verdicts += 1
            if verdicts % KERNEL_CLI_EVERY == 0:
                op[0] = "cli"
    return [tuple(op) for op in ops]


def _kernel_op(lib, kind: str, gw) -> OpResult:
    if kind == "verdict":
        timed, v, error = _timed(lib.lift.kernel_verdict, gw, "both")
        if error:
            return OpResult((timed,), 1, error, (error,))
        payload = v.to_json()
        return OpResult((timed,), 1, json.dumps(payload, sort_keys=True), tuple(verdict_problems(payload, gw.rank)))
    if kind == "cli":
        out = io.StringIO()
        argv = ["lift", "kernel", "--n", str(gw.rank), "--route", "both", "--word", str(gw)]
        with contextlib.redirect_stdout(out):
            timed, code, error = _timed(lib.cli.main, argv)
        if error:
            return OpResult((timed,), 1, error, (error,))
        text = out.getvalue()
        return OpResult((timed,), 1, f"{code} {text.strip()}", tuple(cli_problems(text, code, gw.rank)))
    timed, result, error = _timed(_certify_and_verify, lib, gw)
    if error:
        return OpResult((timed,), 1, error, (error,))
    cert, verified = result
    output = json.dumps({"certificate": cert and cert.to_json(), "verified": verified}, sort_keys=True)
    return OpResult((timed,), 1, output, tuple(certificate_problems(lib, cert, verified, gw)))


def _certify_and_verify(lib, gw):
    cert = lib.kernel.certify(gw)
    return cert, cert is not None and lib.kernel.verify_certificate(cert, gw)


def _kernel_warm_up(lib, inputs) -> None:
    seen = set()
    for kind, gw in inputs:
        if (kind, gw.rank) not in seen:
            seen.add((kind, gw.rank))
            _kernel_op(lib, kind, gw)


def _kernel_pass(lib, inputs) -> list[OpResult]:
    return [_kernel_op(lib, kind, gw) for kind, gw in inputs]


# ---------------------------------------------------------------------------
# long_images
# ---------------------------------------------------------------------------


def _long_inputs(lib, seed: int) -> list[tuple]:
    """Chain powers (a[p1,p2] a[p2,p3] ... a[pn,p1])^m and their wraps
    c rho c^-1.  The seed picks the cyclic order p and the letter signs,
    which relabel the images without changing their sizes."""
    rng = random.Random(f"{seed}:long_images")
    GeneratorWord = lib.symaut.GeneratorWord
    strata = []
    for n in LONG_RANKS:
        for m, count in LONG_STRATA:
            for wrapped in (False, True):
                stratum = []
                for _ in range(count):
                    p = rng.sample(range(1, n + 1), n)
                    chain = tuple(("a", p[i], p[(i + 1) % n], rng.choice((1, -1))) for i in range(n))
                    c = GeneratorWord(n, chain * m)
                    stratum.append((wrapped, c * lib.symaut.rho(n) * c.inverse() if wrapped else c))
                strata.append(stratum)
    return _spread(strata)


def _long_op(lib, wrapped: bool, gw) -> OpResult:
    timed, v, error = _timed(lib.lift.kernel_verdict, gw, "both")
    if error:
        return OpResult((timed,), 1, error, (error,))
    payload = v.to_json()
    problems = long_problems(payload, gw.rank, wrapped)
    return OpResult((timed,), 1, json.dumps(payload, sort_keys=True), tuple(problems))


def _long_warm_up(lib, inputs) -> None:
    smallest = min(len(gw) for _, gw in inputs)
    for wrapped, gw in inputs:
        if len(gw) == smallest:
            _long_op(lib, wrapped, gw)


def _long_pass(lib, inputs) -> list[OpResult]:
    return [_long_op(lib, wrapped, gw) for wrapped, gw in inputs]


# ---------------------------------------------------------------------------
# poset_homology
# ---------------------------------------------------------------------------


def proper_part(lib, poset):
    """The poset without its minimum (the trivial tree), built with the
    public ``WhiteheadPoset`` constructor."""
    cx = lib.complexes
    bottom = poset.index_of(cx.trivial_tree(poset.rank))
    keep = [i for i in range(len(poset.elements)) if i != bottom]
    return cx.WhiteheadPoset(
        poset.rank,
        tuple(poset.elements[i] for i in keep),
        tuple(tuple(poset.leq[i][j] for j in keep) for i in keep),
    )


def _poset_op(lib, n: int) -> OpResult:
    """One rank, ``POSET_REPEATS[n]`` times over.  Every repetition is
    checked and must give the same output."""
    runs = [_poset_rank(lib, n) for _ in range(POSET_REPEATS[n])]
    timed = tuple(intervals for intervals, _, _ in runs)
    output = runs[0][1]
    problems = {problem for _, _, found in runs for problem in found}
    if any(out != output for _, out, _ in runs):
        problems.add("repetitions of one rank differ")
    return OpResult(timed, 1, output, tuple(sorted(problems)))


def _poset_rank(lib, n: int):
    """One rank from a cold cache: enumerate, covers, longest chain, and the
    homology of the whole poset and of its proper part.  Building the proper
    part is harness work and is not timed.  Returns the timed intervals, the
    canonical output and its problems."""
    cx = lib.complexes
    # enumerate_whitehead_poset is lru_cached: without this the pass would
    # time a dictionary lookup
    cx.enumerate_whitehead_poset.cache_clear()
    timed = [[clock(), None]]
    try:
        poset = cx.enumerate_whitehead_poset(n)
        covers = poset.covers()
        max_chain = poset.max_chain_cardinality()
        whole = cx.order_complex_homology(poset).to_json()
        timed[-1][1] = clock()
        part = proper_part(lib, poset)
        timed.append([clock(), None])
        proper = cx.order_complex_homology(part).to_json()
        timed[-1][1] = clock()
    except Exception as exc:
        timed[-1][1] = clock()
        error = f"{type(exc).__name__}: {exc}"
        return tuple(map(tuple, timed)), error, [error]
    problems = poset_problems(n, len(poset.elements), max_chain, whole, proper)
    if any(i == j or not poset.leq[i][j] for i, j in covers):
        problems.append("a cover is not a strict order relation")
    output = json.dumps(
        {
            "rank": n,
            "elements": [t.canonical() for t in poset.elements],
            "covers": covers,
            "max_chain": max_chain,
            "homology": whole,
            "proper_homology": proper,
        },
        sort_keys=True,
    )
    return tuple(map(tuple, timed)), output, problems


def _poset_inputs(lib, seed: int) -> tuple[int, ...]:
    # the poset is an exhaustive enumeration: the seed has nothing to pick
    return POSET_RANKS


def _poset_warm_up(lib, ranks) -> None:
    _poset_op(lib, min(ranks))


def _poset_pass(lib, ranks) -> list[OpResult]:
    return [_poset_op(lib, n) for n in ranks]


# ---------------------------------------------------------------------------
# braid_search
# ---------------------------------------------------------------------------


def _braid_op(lib, strands: int, modulus: int, max_length: int) -> OpResult:
    """One exhaustive search; its work units are the braid words it checks."""
    units = expected_braid_words(strands, max_length)
    timed, report, error = _timed(lib.braid.bounded_kernel_search, strands, modulus, max_length)
    if error:
        return OpResult((timed,), units, error, (error,))
    payload = report.to_json()
    problems = braid_problems(payload, strands, modulus, max_length)
    return OpResult((timed,), units, json.dumps(payload, sort_keys=True), tuple(problems))


def _braid_inputs(lib, seed: int) -> tuple[tuple[int, int, int], ...]:
    # the searches are exhaustive: the seed has nothing to pick
    return BRAID_SEARCHES


def _braid_warm_up(lib, searches) -> None:
    _braid_op(lib, 3, 2, 3)


def _braid_pass(lib, searches) -> list[OpResult]:
    return [_braid_op(lib, *params) for params in searches]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel_batch", _kernel_inputs, _kernel_warm_up, _kernel_pass),
        Workload("long_images", _long_inputs, _long_warm_up, _long_pass),
        Workload("poset_homology", _poset_inputs, _poset_warm_up, _poset_pass),
        Workload("braid_search", _braid_inputs, _braid_warm_up, _braid_pass),
    )
}

# workloads whose inputs do not depend on the seed
SEED_FREE = ("poset_homology", "braid_search")
