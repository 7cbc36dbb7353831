"""Every check can fail: each ``selftest`` check, and each suite-wide
reference check of ``tests/conftest.py``, fails on at least one mutant of
the library (mutation analysis: DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 1978).

A row of ``SELFTEST_ROWS`` gives a mutant, the seed, the exact list of
checks that ``selftest --level quick`` must then fail, and facts about the
report: a dotted path into the checks by name, and the value it must read
there, or a predicate on it.  A new check in ``selftest.CHECKS`` fails
``test_every_check_has_a_row`` until some row fails it, and a new ``bool``
field fails ``test_every_bool_field_reads_false_in_some_row`` until some
row's facts read it false or ``CANNOT_FAIL`` gives the reason none can.

A row of ``REFERENCE_ROWS`` gives a mutant of a fast path that conftest
holds to a reference, and the arguments on which the wrapped check raises.
"""

from __future__ import annotations

import copy
import functools
import inspect
import json
from dataclasses import dataclass, replace
from typing import Callable

import pytest

from conftest import REFERENCES
from reference import is_identity, order_poset, projective_plane_faces, source_mutant
from symlift import braid, complexes, kernel, lift, selftest, symaut
from symlift.cli import main
from symlift.symaut import GeneratorWord, NormalForm, parse_generator_word
from symlift.words import Word, free_context, identity, parse_word, torsion_context


def replaced(owner, name: str, new) -> Callable:
    """A mutant that sets ``owner.name`` to ``new``."""
    return lambda mp: mp.setattr(owner, name, new)


def patched(owner, name: str, change) -> Callable:
    """A mutant that returns ``change(result, *args)`` from ``owner.name``."""

    def mutant(mp):
        original = getattr(owner, name)
        mp.setattr(owner, name, lambda *args: change(original(*args), *args))

    return mutant


def rewrite(old: str, new: str) -> Callable:
    """A function -> its :func:`source_mutant` with every ``old`` replaced by
    ``new``."""
    return lambda f: source_mutant([f], old, new)[f.__name__]


def _drop_cover_below_the_top(poset, n):
    # sizes and longest chains stay, the proper part's homology does not
    if n < 4:
        return poset
    top = len(poset.elements) - 1
    below = [
        i for i in range(top)
        if poset.leq[i][top]
        and poset.elements[i].unlabelled_count == poset.elements[top].unlabelled_count - 1
    ]
    leq = [list(row) for row in poset.leq]
    leq[below[0]][top] = False
    return complexes.WhiteheadPoset(n, poset.elements, tuple(tuple(row) for row in leq))


def _forget_conjugators(vertex):
    hctx = torsion_context(vertex.ctx.rank, 2)
    return complexes.NuclearVertex(hctx, tuple((identity(hctx), t) for _, t in vertex.factors))


def _kept_component_moves_too(t, vertex, powers):
    # the component holding the largest label moves with the first one
    comps = complexes.moving_components(t)[vertex]
    kept = frozenset(range(1, t.rank + 1)) - {vertex}.union(*comps)
    letters = complexes._component_power_letters(vertex, [*comps, kept], [*powers, powers[0]])
    return GeneratorWord(t.rank, letters)


@dataclass(frozen=True)
class Row:
    id: str
    mutant: Callable
    fails: tuple[str, ...]
    facts: dict
    seed: int = 3


SELFTEST_ROWS = [
    Row(
        "false_relation",
        patched(
            symaut, "_relations",
            lambda relations, n: [*relations, ("injected_fault", (0,), (), (("r", 1),))],
        ),
        ("presentation",),
        {"presentation.ranks.3.failures": lambda failures: "injected_fault(0,)" in failures},
    ),
    Row(
        "dropped_cover",
        patched(complexes, "enumerate_whitehead_poset", _drop_cover_below_the_top),
        ("poset_facts",),
        {"poset_facts.sizes.4": 29, "poset_facts.max_chain_cardinality.4": 3},
    ),
    *(
        Row(
            f"count_off_at_rank_{wrong}",
            patched(selftest, "hypertree_count", lambda count, n, wrong=wrong: count + (n == wrong)),
            ("poset_facts",),
            {"poset_facts.sizes": {"2": 1, "3": 4, "4": 29}},
        )
        for wrong in (2, 4)
    ),
    Row(
        # half-words that differ only in image 3's conjugator collide
        "lossy_outer_form",
        patched(symaut, "outer_form", lambda form, f: form[:2] + ((identity(f.ctx),) + form[2][1:],)),
        ("corollary_d",),
        {
            "corollary_d.relation_found": lambda found: found is not None,
            "corollary_d.pair_identified": True,
            "corollary_d.oracle_mismatches": 0,
        },
    ),
    Row(
        # nothing is flagged, but the search no longer covers every word
        "subtree_one_word_short",
        patched(braid, "_subtree_words", lambda count, n, depth: count - 1),
        ("braid_injectivity_evidence",),
        {"braid_injectivity_evidence.runs": lambda runs: not any(r["flagged"] for r in runs.values())},
    ),
    Row(
        "flags_1_1_at_3_strands",
        patched(
            braid, "bounded_kernel_search",
            lambda report, strands, *_: replace(report, flagged=("1 1",)) if strands == 3 else report,
        ),
        ("braid_injectivity_evidence",),
        {"braid_injectivity_evidence.runs.3,2,4.flagged": ["1 1"]},
    ),
    Row(
        # every certificate verifies, but one without its last conjugator is
        # no longer refuted
        "verifier_accepts_anything",
        replaced(kernel, "verify_certificate", lambda cert, target: True),
        ("theorem_c_certificates",),
        {"theorem_c_certificates": lambda check: check["verified"] == check["samples"]},
    ),
    Row(
        # seed 3 draws no route word that needs the "inner after iota" branch
        "lift_route_without_iota",
        patched(
            lift, "lift_route",
            lambda result, h: lift.LiftResult(None, False) if result.composed_with_iota else result,
        ),
        ("route_agreement", "n2_degeneracy"),
        {"route_agreement.disagreements": 4, "n2_degeneracy.elements_in_kernel": 4},
        seed=7,
    ),
    Row(
        # the stabilizer generators no longer fix their trees, first at rank 4
        "vertex_automorphisms_lose_their_last_letter",
        patched(
            complexes, "_component_power_letters",
            lambda letters, *_: letters[:-1] if len(letters) >= 2 else letters,
        ),
        ("stabilizer_algebra",),
        {"stabilizer_algebra.soundness_failed_rank": 4},
    ),
    Row(
        # distinct vertices go to one
        "projection_forgets_conjugators",
        replaced(complexes.NuclearVertex, "project", _forget_conjugators),
        ("quotient_map",),
        {"quotient_map.ranks.3.separation_holds": False},
    ),
    Row(
        # every mod-2 image reads inner, so no sample separates: the search
        # runs out with none found, and that must fail, not pass vacuously
        "mod_2_image_always_inner",
        replaced(
            complexes, "reduce_mod",
            lambda f, k: symaut.identity_aut(torsion_context(f.ctx.rank, 2)),
        ),
        ("quotient_map",),
        {
            "quotient_map.ranks.3.separating_checks": 0,
            "quotient_map.ranks.3.separation_holds": False,
            "quotient_map.ranks.3.kernel_translates_agree": True,
        },
    ),
    Row(
        # two factors on one target break the label bijection of the stars
        "projection_merges_targets",
        patched(
            complexes.NuclearVertex, "project",
            lambda q, _: complexes.NuclearVertex(q.ctx, (q.factors[0],) * 2 + q.factors[2:]),
        ),
        ("quotient_map",),
        {
            "quotient_map.ranks.3.kernel_translates_agree": True,
            "quotient_map.ranks.3.star_isomorphic": False,
            "quotient_map.ranks.3.all_pass": False,
        },
    ),
    Row(
        # the same, on every projected vertex but the standard one: the
        # translates' stars, not only the standard star, must keep n targets
        "projection_merges_targets_off_the_standard_vertex",
        patched(
            complexes.NuclearVertex, "project",
            lambda q, _: complexes.NuclearVertex(q.ctx, (q.factors[0],) * 2 + q.factors[2:])
            if any(conj.syllables for conj, _ in q.factors) else q,
        ),
        ("quotient_map",),
        {
            "quotient_map.ranks.3.kernel_translates_agree": True,
            "quotient_map.ranks.3.star_isomorphic": False,
            "quotient_map.ranks.3.all_pass": False,
        },
    ),
    Row(
        "outer_equality_never_holds",
        replaced(selftest, "outer_equal", lambda f, g: False),
        ("n2_degeneracy", "corollary_d"),
        {
            "n2_degeneracy.conjugation_is_inner_at_rank_2": False,
            "corollary_d.pair_identified": False,
        },
    ),
    Row(
        # an inner automorphism more per vertex automorphism: inversion still
        # negates every power, but commutation holds only up to inner ones
        "kept_component_moves_too",
        replaced(complexes, "vertex_automorphism", _kept_component_moves_too),
        ("stabilizer_algebra",),
        {
            "stabilizer_algebra.distinct_vertex_commutation": False,
            "stabilizer_algebra.rho_inversion": True,
        },
    ),
    Row(
        "inversion_is_the_identity",
        replaced(selftest, "rho_i", lambda n, i: GeneratorWord(n)),
        ("stabilizer_algebra",),
        {
            "stabilizer_algebra.rho_inversion": False,
            "stabilizer_algebra.distinct_vertex_commutation": True,
        },
    ),
    Row(
        # translates by c r[i], which are out of the kernel, not by c r[i] c^-1
        "translate_not_conjugated_back",
        lambda mp: mp.setattr(
            complexes, "quotient_star_check",
            rewrite(" * conj.inverse()", "")(complexes.quotient_star_check),
        ),
        ("quotient_map",),
        {
            "quotient_map.ranks.3.kernel_translates_agree": False,
            "quotient_map.ranks.3.separation_holds": True,
        },
    ),
    Row(
        # the verdict the oracle is compared with, flipped on two-letter words
        "oracle_verdict_flipped",
        patched(
            selftest, "kernel_verdict",
            lambda v, gw, route: replace(v, verdict="out" if v.verdict == "in" else "in")
            if route == "inner-in-H" and len(gw.letters) == 2 else v,
        ),
        ("corollary_d",),
        {"corollary_d.oracle_mismatches": 15, "corollary_d.pair_identified": True},
    ),
]


@pytest.mark.parametrize("row", SELFTEST_ROWS, ids=lambda row: row.id)
def test_selftest_fails_its_mutant(row, monkeypatch, capsys):
    row.mutant(monkeypatch)
    assert main(["selftest", "--level", "quick", "--seed", str(row.seed)]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert [name for name, check in checks.items() if not check["passed"]] == list(row.fails)
    for path, want in row.facts.items():
        got = functools.reduce(lambda report, key: report[key], path.split("."), checks)
        if callable(want):
            assert want(got), (path, got)
        elif isinstance(want, bool):
            assert got is want, (path, got)
        else:
            assert got == want, (path, got)


def test_the_flagging_search_fails_its_command(monkeypatch, capsys):
    next(row for row in SELFTEST_ROWS if row.id == "flags_1_1_at_3_strands").mutant(monkeypatch)
    assert main(["braid", "search", "--n", "3", "--k", "2", "--max-len", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["search"]["flagged"] == ["1 1"]


def checks_without_a_row() -> list[str]:
    failed = {name for row in SELFTEST_ROWS for name in row.fails}
    return [name for name, _ in selftest.CHECKS if name not in failed]


def test_every_check_has_a_row(monkeypatch):
    assert checks_without_a_row() == []
    monkeypatch.setattr(selftest, "CHECKS", selftest.CHECKS + (("unmutated", None),))
    assert checks_without_a_row() == ["unmutated"]


# dotted path of a bool field: why no mutant can make it read false
CANNOT_FAIL: dict[str, str] = {}


def bool_fields(report: dict, prefix: str):
    for key, value in report.items():
        if isinstance(value, dict):
            yield from bool_fields(value, f"{prefix}{key}.")
        elif isinstance(value, bool) and key != "passed":
            yield prefix + key


def test_every_bool_field_reads_false_in_some_row():
    report = selftest.run_selftest("quick", selftest.DEFAULT_SEED)
    fields = {path for c in report["checks"] for path in bool_fields(c, c["name"] + ".")}
    falsified = {path for row in SELFTEST_ROWS for path, want in row.facts.items() if want is False}
    assert sorted(fields - falsified - set(CANNOT_FAIL)) == []
    # like the census's UNREACHED, the list can only shrink
    assert sorted(set(CANNOT_FAIL) - (fields - falsified)) == []


# -- the suite-wide reference checks ------------------------------------------

# checked name: (defining module, the check that wraps it)
CHECKED = {name: (home, check) for (home, name), check in REFERENCES.items()}

F3 = free_context(3)
H3 = torsion_context(3, 2)


@dataclass(frozen=True)
class ReferenceRow:
    name: str
    mutant: Callable  # the fast path -> its mutant
    args: tuple
    wrong: object  # the mutant's result on args
    right: object  # the fast path's
    # a library call that reads the name through ``module``: it raises with
    # the checked mutant there, and gives ``value`` with the checked fast path
    route: tuple = ()  # (module, call, value)
    raises: str = "the reference"  # what the check's AssertionError says


A12 = ("a", 1, 2, 1)
REFERENCE_ROWS = [
    ReferenceRow(
        # c a prefix of d, concatenated without the cascade through _extend_reduced
        "conjugation_step",
        rewrite("_extend_reduced(out, d[m:], k)", "out.extend(d[m:])"),
        (((1, 1),), (2, 1), parse_word("z1 z2 z1 z3", H3).syllables, H3),
        ((1, 1), (2, 1), (2, 1), (1, 1), (3, 1)),
        ((3, 1),),
        # the second letter's g = y2^-1 meets the first letter's conjugator y2
        (symaut, lambda: is_identity(
            symaut.eval_generator_word(parse_generator_word("a[1,2] a[1,2]^-1", 3), F3)
        ), True),
    ),
    ReferenceRow(
        # an x_a after a pair z_a z_n is appended instead of merged
        "even_to_x",
        rewrite("if a == last:", "if False:"),
        (parse_word("z1 z3 z1 z2", H3),),
        Word(free_context(2, "x"), ((1, 1), (1, 1), (2, -1))),
        Word(free_context(2, "x"), ((1, 2), (2, -1))),
        # run unfiltered: a verdict refutes this chain by its action on H_1(E)
        (lift, lambda: lift.lift_route(symaut.eval_generator_word(
            parse_generator_word("a[1,2] a[2,3] a[3,1] a[1,2] a[2,3] a[3,1]", 3), H3
        )).in_kernel, False),
    ),
    ReferenceRow(
        # without "w[-1] is on target i", c_i = w minus any last syllable passes
        "inner_conjugator",
        rewrite("last != i or ", ""),
        ([(parse_word(c, F3), i, 1) for c, i in (("y1 y2", 1), ("y1", 2), ("y1", 3))], F3),
        parse_word("y1 y2", F3),
        None,
        # a[1,2] has c_1 = z2 and c_3 = e, so the mutant reads it as
        # conjugation by z2 (run unfiltered, as a verdict refutes a[1,2] by H_1)
        (symaut, lambda: symaut.inner_witness_of(
            symaut.eval_generator_word(parse_generator_word("a[1,2]", 3), H3)
        ), None),
    ),
    ReferenceRow(
        "generator_conjugate_shape",
        rewrite("sylls[h + 1 :] != c.inverse().syllables", "False"),
        (parse_word("y1 y2 y3", F3),),
        (parse_word("y1", F3), 2, 1),
        None,
    ),
    ReferenceRow(
        # a[i,j] flipped by the inversion bit of its first index, not its second
        "semidirect_normal_form",
        rewrite("if rho_bits[sj]:", "if rho_bits[si]:"),
        (parse_generator_word("r[2] a[1,2]", 3),),
        NormalForm(GeneratorWord(3, (A12,)), (0, 1, 0), (1, 2, 3)),
        NormalForm(GeneratorWord(3, (("a", 1, 2, -1),)), (0, 1, 0), (1, 2, 3)),
    ),
    ReferenceRow(
        # a block of length 2h needs an even palindrome of radius above h
        "parse_semipalindrome_product",
        rewrite("while radius[i + h] < h:", "while radius[i + h] <= h:"),
        (GeneratorWord(3, (A12, A12)),),
        None,
        ((A12, A12),),
    ),
    ReferenceRow(
        # a[1,2] a[2,1] is no involution pair: cancelling it changes the automorphism
        "_h2_reduced",
        lambda fast: lambda gw: GeneratorWord(gw.rank),
        (parse_generator_word("a[1,2] a[2,1] r[3] s[1,3] s[1,3]", 3),),
        GeneratorWord(3),
        GeneratorWord(3, (A12, ("a", 2, 1, 1))),
        raises="another automorphism",
    ),
    ReferenceRow(
        # v_j - v_i for 2 v_j - v_i refutes conjugation by z1, which is inner
        "_h1_refutes",
        rewrite(", 0) + 2", ", 0) + 1"),
        (symaut.inner_relator(3, 1),),
        True,
        False,
        raises="in the kernel",
    ),
    ReferenceRow(
        # any nonzero low taken as a pivot: a 2 counts as a unit
        "_reduce_columns",
        rewrite("if value == 1 or value == -1:", "if value:"),
        ([{0: 2}],),
        (1, [1], [0]),
        (1, [2], []),
        # the projective plane loses its H_1 = Z/2
        (complexes, lambda: complexes.order_complex_homology(
            order_poset(projective_plane_faces(), frozenset.__le__)
        ).torsion, ((), (2,), ())),
    ),
]


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda row: row.name)
def test_reference_check_catches_its_mutant(row, monkeypatch):
    home, check = CHECKED[row.name]
    fast = inspect.unwrap(getattr(home, row.name))
    mutant = row.mutant(fast)
    # each call has its own copy of the arguments: the column reducer
    # consumes its columns
    assert mutant(*copy.deepcopy(row.args)) == row.wrong
    with pytest.raises(AssertionError, match=row.raises):
        check(mutant)(*copy.deepcopy(row.args))
    assert check(fast)(*copy.deepcopy(row.args)) == row.right
    if row.route:
        module, call, value = row.route
        monkeypatch.setattr(module, row.name, check(mutant))
        with pytest.raises(AssertionError, match=row.raises):
            call()
        monkeypatch.setattr(module, row.name, check(fast))
        assert call() == value


def test_every_reference_has_a_row():
    assert sorted(row.name for row in REFERENCE_ROWS) == sorted(CHECKED)
