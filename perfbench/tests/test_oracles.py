"""Every oracle of the benchmark accepts a correct output and rejects a
corrupted one."""

import copy
import io
import contextlib
import json

import pytest

import run
import workloads as wl


def _verdict(lib, text, n):
    gw = lib.symaut.parse_generator_word(text, n)
    return lib.lift.kernel_verdict(gw, "both").to_json()


def test_verdict_oracle_rejects_flipped_verdict_and_disagreeing_routes(lib):
    payload = _verdict(lib, "a[1,2] a[2,3]", 3)
    assert wl.verdict_problems(payload, 3) == []
    flipped = dict(payload, verdict="in" if payload["verdict"] == "out" else "out")
    assert wl.verdict_problems(flipped, 3)
    disagree = copy.deepcopy(payload)
    disagree["routes"]["lift"] = not disagree["routes"]["lift"]
    assert wl.verdict_problems(disagree, 3)
    positive = _verdict(lib, "r[1] r[2] r[3]", 3)
    assert positive["verdict"] == "in" and wl.verdict_problems(positive, 3) == []
    positive["witnesses"] = {}
    assert wl.verdict_problems(positive, 3)


def test_wrapped_word_oracle_rejects_an_out_verdict(lib):
    c = lib.symaut.parse_generator_word("a[1,2] a[2,3] a[3,1]", 3)
    gw = c * lib.symaut.rho(3) * c.inverse()
    payload = lib.lift.kernel_verdict(gw, "both").to_json()
    assert wl.long_problems(payload, 3, wrapped=True) == []
    corrupted = copy.deepcopy(payload)
    corrupted["verdict"] = "out"
    corrupted["routes"] = {"inner-in-H": False, "lift": False}
    assert wl.verdict_problems(corrupted, 3) == []  # consistent on its own
    assert wl.long_problems(corrupted, 3, wrapped=True)


def test_cli_oracle_rejects_wrong_exit_code_and_non_json(lib):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(["lift", "kernel", "--n", "3", "--word", "a[1,2]"])
    assert wl.cli_problems(out.getvalue(), code, 3) == []
    assert wl.cli_problems(out.getvalue(), 1 - code, 3)
    assert wl.cli_problems("Traceback (most recent call last)", code, 3)


def test_certificate_oracle_rejects_a_dropped_conjugator(lib):
    import random

    gw = lib.kernel.random_rho_conjugate_product(random.Random(5), 3)
    cert = lib.kernel.certify(gw)
    ok = lib.kernel.verify_certificate(cert, gw)
    assert wl.certificate_problems(lib, cert, ok, gw) == []
    dropped = lib.kernel.Certificate(cert.rank, cert.conjugators[:-1])
    dropped_ok = lib.kernel.verify_certificate(dropped, gw)
    assert not dropped_ok
    assert wl.certificate_problems(lib, dropped, dropped_ok, gw)
    # even if verification wrongly passed, the inversion-vector check fails
    assert wl.certificate_problems(lib, dropped, True, gw)
    assert wl.certificate_problems(lib, None, False, gw)


def _poset_facts(lib, poset):
    cx = lib.complexes
    whole = cx.order_complex_homology(poset).to_json()
    proper = cx.order_complex_homology(wl.proper_part(lib, poset)).to_json()
    return len(poset.elements), poset.max_chain_cardinality(), whole, proper


@pytest.mark.parametrize("n", [3, 4])
def test_poset_oracle_accepts_the_real_poset(lib, n):
    poset = lib.complexes.enumerate_whitehead_poset(n)
    assert wl.poset_problems(n, *_poset_facts(lib, poset)) == []


def _without(lib, poset, drop):
    keep = [i for i in range(len(poset.elements)) if i != drop]
    return lib.complexes.WhiteheadPoset(
        poset.rank,
        tuple(poset.elements[i] for i in keep),
        tuple(tuple(poset.leq[i][j] for j in keep) for i in keep),
    )


def test_poset_oracle_rejects_a_perturbed_poset(lib):
    poset = lib.complexes.enumerate_whitehead_poset(4)
    top = len(poset.elements) - 1  # sorted by unlabelled count: a maximal tree
    size, chain, whole, proper = _poset_facts(lib, _without(lib, poset, top))
    problems = wl.poset_problems(4, size, chain, whole, proper)
    assert any("size" in p for p in problems)
    assert any("proper part" in p for p in problems)
    _, _, whole, proper = _poset_facts(lib, poset)
    assert wl.poset_problems(4, 29, 2, whole, proper)  # wrong longest chain
    cone_broken = dict(whole, euler_characteristic=0)
    assert wl.poset_problems(4, 29, 3, cone_broken, proper)


def test_proper_part_homology_oracle_alone_rejects_a_perturbed_poset(lib):
    """Only the proper-part check sees a poset with the right size, chain
    length and cone homology but a broken proper part."""
    poset = lib.complexes.enumerate_whitehead_poset(4)
    _, _, whole, proper = _poset_facts(lib, poset)
    part = wl.proper_part(lib, poset)
    perturbed = lib.complexes.order_complex_homology(_without(lib, part, len(part.elements) - 1))
    problems = wl.poset_problems(4, 29, 3, whole, perturbed.to_json())
    assert problems and all("proper part" in p for p in problems)
    assert proper["reduced_betti"] == [0, 9]


def test_braid_oracle_rejects_wrong_counts_and_flags(lib):
    assert wl.expected_braid_words(4, 5) == 4686
    assert wl.expected_braid_words(3, 7) == 4372
    report = lib.braid.bounded_kernel_search(3, 2, 3).to_json()
    assert wl.braid_problems(report, 3, 2, 3) == []
    assert wl.braid_problems(dict(report, words_checked=report["words_checked"] - 1), 3, 2, 3)
    assert wl.braid_problems(dict(report, flagged=["1 2 -1"]), 3, 2, 3)
    assert wl.braid_problems(report, 3, 3, 3)


def test_digest_mismatch_fails_the_whole_pass():
    ops = [wl.OpResult((((0.0, 0.001),),), 1, "a", ()), wl.OpResult((((0.0, 0.001),),), 2, "b", ())]
    checker = run.Checker(expected_digest=None)
    checker.check(ops)
    assert (checker.attempted, checker.failed) == (3, 0)
    checker.check([ops[0], ops[1]._replace(output="c")])
    assert (checker.attempted, checker.failed) == (6, 3)
    recorded = run.Checker(expected_digest=wl.digest(ops))
    recorded.check(ops)
    assert recorded.failed == 0
    wrong = run.Checker(expected_digest="0" * 64)
    wrong.check(ops)
    assert wrong.failed == 3


def test_problems_count_the_units_of_the_failing_operation():
    checker = run.Checker(expected_digest=None)
    checker.check([wl.OpResult((((0.0, 0.1),),), 4686, "x", ("flagged",)), wl.OpResult((((0.0, 0.1),),), 4372, "y", ())])
    assert (checker.attempted, checker.failed) == (9058, 4686)


def test_an_operation_that_raises_is_a_failure():
    timed, result, error = wl._timed(json.loads, "{")
    assert result is None and error.startswith("JSONDecodeError")


def test_poset_repetitions_must_agree_and_time_as_their_median(lib, monkeypatch):
    op = wl._poset_op(lib, 3)
    assert len(op.timed) == wl.POSET_REPEATS[3] and op.problems == ()
    runs = iter([(((0.0, 0.3),), "a", []), (((1.0, 1.1),), "a", []), (((2.0, 2.2),), "b", [])])
    monkeypatch.setitem(wl.POSET_REPEATS, 3, 3)
    monkeypatch.setattr(wl, "_poset_rank", lambda lib, n: next(runs))
    op = wl._poset_op(lib, 3)
    assert op.problems == ("repetitions of one rank differ",)
    assert op.latency() == pytest.approx(0.2)
