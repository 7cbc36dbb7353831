import functools
import inspect
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symlift
from reference import (
    image_word,
    image_words,
    iota,
    is_identity,
    raw_evaluation,
    restriction_apply,
    restriction_then,
    source_mutant,
)
from symlift import cli, lift, symaut
from symlift.lift import (
    Restriction,
    kernel_verdict,
    lift_restrict,
    lift_route,
    reduce_mod,
)
from symlift.symaut import (
    GeneratorWord,
    all_letters,
    alpha,
    compose,
    eval_generator_word,
    inner_relator,
    inner_witness_of,
    letter_inverse,
    outer_equal,
    parse_generator_word,
    rho,
    rho_i,
)
from symlift.words import (
    Word,
    WordError,
    conjugation_step,
    even_to_x,
    free_context,
    generator_conjugate_shape,
    identity,
    inner_witness,
    normalize,
    parse_word,
    torsion_context,
)

F2 = free_context(2)
F3 = free_context(3)
H3 = torsion_context(3, 2)


def random_gw(rng, n, max_len=12):
    letters = all_letters(n)
    return GeneratorWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


# -- reduction ----------------------------------------------------------------


def test_reduce_examples():
    assert is_identity(reduce_mod(eval_generator_word(rho(3), F3), 2))
    h = reduce_mod(eval_generator_word(alpha(3, 1, 2), F3), 2)
    assert image_word(h, 1) == parse_word("z2 z1 z2", H3)
    assert image_word(h, 2) == parse_word("z2", H3)
    # compose-then-reduce agrees with reduce-then-compose, and the square
    # of a conjugation move dies
    sq = reduce_mod(eval_generator_word(parse_generator_word("a[1,2] a[1,2]", 3), F3), 2)
    assert sq == compose(h, h)
    assert is_identity(sq)


def test_reduce_requires_free_context():
    with pytest.raises(WordError):
        reduce_mod(eval_generator_word(alpha(3, 1, 2), H3), 2)
    with pytest.raises(WordError):
        reduce_mod(eval_generator_word(rho_i(3, 1), F3), 3)


def test_reduce_is_homomorphism():
    rng = random.Random(1)
    for _ in range(300):
        f = eval_generator_word(random_gw(rng, 3), F3)
        g = eval_generator_word(random_gw(rng, 3), F3)
        assert reduce_mod(compose(f, g), 2) == compose(reduce_mod(f, 2), reduce_mod(g, 2))


def test_torsion_evaluation_is_reduction_of_free_evaluation():
    # the verdict pipeline evaluates directly downstairs; this is the
    # equivariance that justifies it
    for n in (2, 3, 4):
        rng = random.Random(40 + n)
        for _ in range(300):
            gw = random_gw(rng, n)
            lhs = reduce_mod(eval_generator_word(gw, free_context(n)), 2)
            rhs = eval_generator_word(gw, torsion_context(n, 2))
            assert lhs == rhs


# -- restriction --------------------------------------------------------------


def test_restriction_examples():
    h = eval_generator_word(parse_generator_word("s[1,2]", 2), torsion_context(2, 2))
    r = lift_restrict(h)
    assert [str(w) for w in r.images] == ["x1^-1"]
    r_id = lift_restrict(eval_generator_word(GeneratorWord(3), H3))
    assert [str(w) for w in r_id.images] == ["x1", "x2"]
    r_a = lift_restrict(eval_generator_word(alpha(3, 1, 2), H3))
    assert [str(w) for w in r_a.images] == ["x2 x1^-1 x2", "x2"]


def test_restriction_tail_junction_cascades():
    # c_3 = z2 z1 z2 is a prefix of c_1 = z2 z1 z2 z3 z2, so the step
    # c_1 z1 c_1^-1 c_3 ends in c_1[3:]^-1 = z3 z2, and z3 c_3^-1 cancels
    # four syllables into it
    h = eval_generator_word(parse_generator_word("a[1,2] a[3,1] a[1,3]", 3), H3)
    (c1, t1, _), _, (c3, t3, _) = h.images
    step = conjugation_step(c1.syllables, (t1, 1), c3.syllables, H3)
    assert Word(H3, step) == parse_word("z2 z1 z2 z3 z2 z1 z2 z3", H3)
    with pytest.raises(WordError):
        even_to_x(Word(H3, step + ((t3, 1),) + c3.syllables[::-1]))
    x1 = lift_restrict(h).images[0]
    assert x1 == even_to_x(image_word(h, 1) * image_word(h, 3))
    assert str(x1) == "x2 x1^-1 x2"


def test_restriction_is_homomorphism():
    rng = random.Random(2)
    for _ in range(200):
        h1 = eval_generator_word(random_gw(rng, 3), H3)
        h2 = eval_generator_word(random_gw(rng, 3), H3)
        composed = lift_restrict(compose(h1, h2))
        stacked = restriction_then(lift_restrict(h2), lift_restrict(h1))
        assert composed.images == stacked.images


def test_restriction_apply_matches_product_of_image_powers():
    rng = random.Random(5)
    ctx = free_context(3, letter="x")
    for _ in range(200):
        r = lift_restrict(eval_generator_word(random_gw(rng, 4), torsion_context(4, 2)))
        raw = [(rng.randint(1, 3), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rng.randint(0, 6))]
        w = normalize(raw, ctx)
        expected = identity(ctx)
        for gen, exp in w.syllables:
            expected = expected * r.images[gen - 1].pow(exp)
        assert restriction_apply(r, w) == expected


def test_inverting_generators_commutator_is_inner():
    # the automorphism x1 -> x1^-1, xi -> xi x1^-1 commutes with generator
    # inversion up to inner
    ctx = free_context(3, letter="x")
    sigma = Restriction(
        ctx,
        (
            parse_word("x1^-1", ctx),
            parse_word("x2 x1^-1", ctx),
            parse_word("x3 x1^-1", ctx),
        ),
    )
    inv = iota(ctx)
    comm = restriction_then(restriction_then(restriction_then(sigma, inv), sigma), inv)
    assert comm.inner_witness() is not None


# -- kernel verdicts ----------------------------------------------------------


def test_kernel_examples():
    v = kernel_verdict(rho(3), "both")
    assert v.verdict == "in" and v.agree is True
    v = kernel_verdict(alpha(3, 1, 2), "both")
    assert v.verdict == "out" and v.agree is True
    v = kernel_verdict(parse_generator_word("a[2,3] r[1] r[2] r[3] a[2,3]^-1", 3), "both")
    assert v.verdict == "in" and v.agree is True


def test_kernel_single_routes():
    assert kernel_verdict(rho(4), "inner-in-H").verdict == "in"
    assert kernel_verdict(rho(4), "lift").verdict == "in"
    assert kernel_verdict(alpha(4, 2, 3), "lift").verdict == "out"


def test_route_agreement_random():
    for n in (3, 4):
        rng = random.Random(300 + n)
        for _ in range(250):
            gw = GeneratorWord(
                n, tuple(rng.choice(all_letters(n)) for _ in range(rng.randint(0, 20)))
            )
            v = kernel_verdict(gw, "both")
            assert v.agree is True and v.verdict in ("in", "out")


def test_inner_in_h_witness_matches_the_image_word_route():
    # the verdict reads the witness off h's image triples; the reference
    # rebuilds the image words and solves from scratch
    nontrivial = outer = 0
    for n in (2, 3, 4):
        rng = random.Random(500 + n)
        pure = [l for l in all_letters(n) if l[0] == "a"]
        for t in range(100):
            conj = GeneratorWord(n, tuple(rng.choice(pure) for _ in range(rng.randint(0, 6))))
            j = rng.randint(1, n)
            # the inner relator is conjugation by g_j, an inner automorphism moved by conj
            middle = (random_gw(rng, n), rho_i(n, j), inner_relator(n, j))[t % 3]
            gw = conj * middle * conj.inverse()
            h = eval_generator_word(gw, torsion_context(n, 2))
            expected = inner_witness(image_words(h), h.ctx)
            for route in ("inner-in-H", "both"):
                assert kernel_verdict(gw, route).h_witness == expected
            nontrivial += expected is not None and len(expected) > 0
            outer += expected is None
    assert nontrivial >= 100 and outer >= 50


def test_conjugates_of_single_inversions_are_in_kernel():
    rng = random.Random(17)
    pure = [l for l in all_letters(3) if l[0] == "a"]
    for _ in range(100):
        conj = GeneratorWord(3, tuple(rng.choice(pure) for _ in range(rng.randint(0, 6))))
        gw = conj * rho_i(3, rng.randint(1, 3)) * conj.inverse()
        assert kernel_verdict(gw, "inner-in-H").verdict == "in"


def eager_lift_route(r):
    """The lift route's witness and flag from the whole restriction: inner,
    or inner after composing with iota (x_i -> r(x_i)^-1)."""
    expected = r.inner_witness()
    if expected is not None:
        return expected, False
    expected = restriction_then(iota(r.ctx), r).inner_witness()
    return expected, expected is not None


def test_lift_route_flips_shape_signs_as_iota_does():
    # the route reuses the image shapes with flipped signs; the reference
    # composes with iota first (x_i -> r(x_i)^-1) and solves again
    seen = {None: 0, False: 0, True: 0}
    for n in (2, 3, 4):
        rng = random.Random(700 + n)
        for t in range(120):
            conj = random_gw(rng, n, 6)
            j = rng.randint(1, n)
            # conjugation by g_j (the inner relator) restricts to an inner
            # automorphism composed with iota
            middle = (random_gw(rng, n), rho_i(n, j), inner_relator(n, j))[t % 3]
            h = eval_generator_word(conj * middle * conj.inverse(), torsion_context(n, 2))
            result = lift_route(h)
            expected, flipped = eager_lift_route(lift_restrict(h))
            assert result.inner_witness == expected
            assert result.composed_with_iota is flipped
            seen[None if expected is None else flipped] += 1
    assert min(seen.values()) >= 60, seen


def test_lift_route_stops_early_and_agrees_with_the_eager_restriction():
    # the route stops at the first image that is no conjugate of a generator;
    # the reference restricts every image, then tests inner and inner after
    # iota. Words whose letters never move z1 keep x1 a generator, so their
    # first image passes and a later one can fail
    late_failures = 0
    for n in (2, 3, 4, 5):
        rng = random.Random(900 + n)
        fixing_z1 = [l for l in all_letters(n) if l[0] == "a" and l[1] != 1]
        for t in range(150):
            if t % 3 == 0:
                gw = GeneratorWord(n, tuple(rng.choice(fixing_z1) for _ in range(rng.randint(1, 8))))
            elif t % 3 == 1:
                gw = random_gw(rng, n)
            else:
                conj = random_gw(rng, n, 6)
                gw = conj * rho_i(n, rng.randint(1, n)) * conj.inverse()
            h = eval_generator_word(gw, torsion_context(n, 2))
            r = lift_restrict(h)
            expected, flipped = eager_lift_route(r)
            result = lift_route(h)
            assert result.inner_witness == expected, (n, str(gw))
            assert result.composed_with_iota is flipped, (n, str(gw))
            passes = [generator_conjugate_shape(img) is not None for img in r.images]
            late_failures += passes[0] and not all(passes)
    assert late_failures >= 60, late_failures


def test_lift_route_restricts_only_the_images_it_reads(monkeypatch):
    # counted on top of the conftest wrapper, which still checks each call;
    # the route runs unfiltered, since a verdict refutes the "out" cases by
    # their action on H_1(E) before it restricts anything
    import symlift.lift as lift_mod

    calls = []
    checked = lift_mod.even_to_x

    def counted(w):
        calls.append(len(w))
        return checked(w)

    monkeypatch.setattr(lift_mod, "even_to_x", counted)
    cases = (
        (4, "a[1,2]", 1, False),  # x1 -> x2 x1^-1 x2 fails at once
        (1000, "a[1,2]", 1, False),
        (4, "a[2,3]", 2, False),  # x1 stays, x2 -> x3 x2^-1 x3 fails
        (4, "r[1] r[2] r[3] r[4]", 3, True),  # every image is read
    )
    for n, word, expected_calls, in_kernel in cases:
        calls.clear()
        result = lift_route(eval_generator_word(parse_generator_word(word, n), torsion_context(n, 2)))
        assert result.in_kernel is in_kernel and len(calls) == expected_calls, (n, word, calls)
    # a verdict that is not refuted restricts the same images
    calls.clear()
    assert kernel_verdict(parse_generator_word("r[1] r[2] r[3] r[4]", 4), "lift").verdict == "in"
    assert len(calls) == 3


def test_restricted_images_share_their_unit_syllables():
    # every x_g^+-1 syllable of every image is one of 2(n-1) shared tuples
    chain = " ".join(["a[1,2] a[2,3] a[3,1]"] * 6)
    r = lift_restrict(eval_generator_word(parse_generator_word(chain, 3), H3))
    units = [s for img in r.images for s in img.syllables if abs(s[1]) == 1]
    assert len(units) > 100
    assert len({id(s) for s in units}) <= 2 * (3 - 1)


def test_rank_two_collapses_through_the_lift_route():
    in_kernel = []
    for bits in itertools.product((0, 1), repeat=3):
        letters = []
        if bits[0]:
            letters.append(("r", 1))
        if bits[1]:
            letters.append(("r", 2))
        if bits[2]:
            letters.append(("s", 1, 2))
        gw = GeneratorWord(2, tuple(letters))
        v = kernel_verdict(gw, "both")
        in_kernel.append(v.routes["lift"])
        assert v.verdict == ("in" if v.routes["lift"] else "out")
    assert all(in_kernel) and len(in_kernel) == 8
    # the swap shows the direct route diverging at rank 2
    v = kernel_verdict(GeneratorWord(2, (("s", 1, 2),)), "both")
    assert v.routes["lift"] and not v.routes["inner-in-H"]
    assert v.verdict == "in"


def test_verdict_json_shape():
    payload = kernel_verdict(rho(3), "both").to_json()
    assert payload["verdict"] == "in"
    assert payload["agree"] is True
    assert set(payload["routes"]) == {"inner-in-H", "lift"}


# -- refutation by the action on H_1(E) ----------------------------------------


def abelianized_restriction_is_pm_identity(gw) -> bool:
    """Whether the restriction of ``gw``'s automorphism, with each x-image
    read as its exponent sums, is the identity or minus the identity."""
    h = eval_generator_word(gw, torsion_context(gw.rank, 2))
    matrix = []
    for img in lift_restrict(h).images:
        column = [0] * (gw.rank - 1)
        for gen, exp in img.syllables:
            column[gen - 1] += exp
        matrix.append(column)
    unit = [[int(a == b) for b in range(gw.rank - 1)] for a in range(gw.rank - 1)]
    return matrix in (unit, [[-c for c in row] for row in unit])


def kernel_corpus(rng, n, count):
    """Seeded words at rank n: a third random of length 0-24, a third
    conjugates ``c g c^-1`` of conjugation g by a generator, a third products
    ``g' u^-1 g' u`` of two conjugates of such a ``g'`` (both inner in
    H_n(2), though their letters need not cancel there)."""
    words = []
    for t in range(count):
        conj = random_gw(rng, n, 8)
        inner = conj * inner_relator(n, rng.randint(1, n)) * conj.inverse()
        if t % 3 == 0:
            words.append(random_gw(rng, n, 24))
        elif t % 3 == 1:
            words.append(inner)
        else:
            words.append(inner * random_gw(rng, n, 4).inverse() * inner * random_gw(rng, n, 4))
    return words


def test_refutation_reads_the_abelianized_restriction():
    # the letter rule against the restriction itself, image by image
    refuted = 0
    for n in (2, 3, 4, 5):
        rng = random.Random(1000 + n)
        for gw in kernel_corpus(rng, n, 200):
            expected = not abelianized_restriction_is_pm_identity(gw)
            assert lift._h1_refutes(gw) is expected, (n, str(gw))
            assert lift._h1_refutes(lift._h2_reduced(gw)) is expected, (n, str(gw))
            refuted += expected
    assert refuted >= 300, refuted


@functools.cache
def rank_three_corpus() -> tuple:
    """A seeded rank-3 corpus, each word reduced in H_3(2) and paired with
    whether the unfiltered routes (which agree) put it in the kernel."""
    corpus = []
    for gw in kernel_corpus(random.Random(1103), 3, 600):
        h = eval_generator_word(gw, H3)
        inside = inner_witness_of(h) is not None
        assert lift_route(h).in_kernel is inside
        corpus.append((lift._h2_reduced(gw), inside))
    return tuple(corpus)


def rank_three_mismatches(refutes) -> int:
    """Words of the rank-3 corpus that ``refutes`` answers wrongly."""
    return sum(refutes(reduced) is inside for reduced, inside in rank_three_corpus())


def test_rank_three_refutation_decides_the_kernel():
    # Aut(F_2) -> GL(2, Z) has kernel Inn(F_2) (Nielsen): at rank 3 a word is
    # refuted exactly when the unfiltered routes put it out
    in_kernel = sum(inside for _, inside in rank_three_corpus())
    assert in_kernel >= 150 and len(rank_three_corpus()) - in_kernel >= 150, in_kernel
    assert rank_three_mismatches(lift._h1_refutes) == 0


def test_rank_two_never_refutes():
    # GL(1, Z) = {1, -1}
    letters = all_letters(2)
    for length in range(5):
        for word in itertools.product(letters, repeat=length):
            assert not lift._h1_refutes(GeneratorWord(2, word))
    rng = random.Random(1102)
    for _ in range(300):
        assert not lift._h1_refutes(random_gw(rng, 2, 30))


def test_rank_three_refutation_catches_mutant_letter_rules():
    # v_j - v_i for 2 v_j - v_i refutes words in the kernel, which the
    # suite-wide check also rejects; a swap skipped on an index n, and a swap
    # that leaves i and j holding one dict, which the next in-place update of
    # either changes for both, miss words that are out
    halved, no_swap_on_n, shared = (
        source_mutant([lift._h1_refutes], old, new)["_h1_refutes"]
        for old, new in (
            (", 0) + 2", ", 0) + 1"),  # both updates of v_i
            (
                "            moved[i] = (",
                "            if n in (i, j):\n                continue\n            moved[i] = (",
            ),
            ("moved[j] = ({} if i == n else {i: 1}) if vi is None else vi", "moved[j] = moved[i]"),
        )
    )
    for mutant in (halved, no_swap_on_n, shared):
        assert rank_three_mismatches(mutant) > 0


def test_rank_1000_refutation_stays_sparse(monkeypatch):
    # a dense (n-1)^2 matrix at rank 1000 holds 998,001 entries, 8 MB of
    # pointers alone; the suite-wide checks, which evaluate, are taken off
    monkeypatch.setattr(lift, "_h2_reduced", inspect.unwrap(lift._h2_reduced))
    monkeypatch.setattr(lift, "_h1_refutes", inspect.unwrap(lift._h1_refutes))
    n = 1000
    path = " ".join(f"a[{i},{i + 1}]" for i in range(1, n))
    for word in ("a[1,2]", f"s[1,{n}]", " ".join([path] * 3)):
        gw = parse_generator_word(word, n)
        tracemalloc.start()
        try:
            v = kernel_verdict(gw, "both")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.verdict == "out" and v.routes == {"inner-in-H": False, "lift": False}
        assert peak < 1_000_000, (word[:20], peak)


def test_unwrapped_chain_power_answers_out_from_the_cli():
    # (a[1,2] a[2,3] a[3,1])^1000, whose images no memory holds, is refuted
    # by its action on H_1(E); the child's address space is capped at 1 GiB,
    # so a build that evaluates the chain fails here instead of filling memory
    env = {**os.environ, "PYTHONPATH": str(Path(symlift.__file__).parents[1])}
    chain = " ".join(["a[1,2] a[2,3] a[3,1]"] * 1000)
    done = subprocess.run(
        [sys.executable, "-m", "symlift.cli", "lift", "kernel", "--n", "3", "--word", chain],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert done.returncode == 1, done.stderr
    payload = json.loads(done.stdout)
    assert payload["verdict"] == "out" and payload["routes"] == {"inner-in-H": False, "lift": False}
    assert payload["agree"] is True and payload["witnesses"] == {}


# -- the word reduced in H_n(2) ------------------------------------------------


@st.composite
def words_with_cancelling_material(draw):
    """A random word with material spliced in that dies in H_n(2): ``c rho
    c^-1``, ``a a``, ``a a^-1``, ``s s`` and a stray ``r[i]``."""
    n = draw(st.integers(2, 5))
    letters = all_letters(n)
    pick = lambda kind: st.sampled_from([l for l in letters if l[0] == kind])
    word = draw(st.lists(st.sampled_from(letters), max_size=8))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("conjugate", "a a", "a a^-1", "s s", "r")))
        if kind == "conjugate":
            c = GeneratorWord(n, tuple(draw(st.lists(st.sampled_from(letters), max_size=6))))
            piece = (c * rho(n) * c.inverse()).letters
        elif kind == "a a":
            a = draw(pick("a"))
            piece = (a, a)
        elif kind == "a a^-1":
            a = draw(pick("a"))
            piece = (a, letter_inverse(a))
        elif kind == "s s":
            piece = (draw(pick("s")),) * 2
        else:
            piece = (draw(pick("r")),)
        at = draw(st.integers(0, len(word)))
        word[at:at] = piece
    return GeneratorWord(n, tuple(word)), draw(st.sampled_from(("both", "lift", "inner-in-H")))


@given(words_with_cancelling_material())
@settings(max_examples=200)
def test_reduced_word_gives_the_payload_of_the_raw_evaluation(case):
    gw, route = case
    with pytest.MonkeyPatch.context() as mp:
        for module in (symaut, lift):
            mp.setattr(module, "_h2_reduced", lambda gw: gw)
        raw = kernel_verdict(gw, route).to_json()
    assert kernel_verdict(gw, route).to_json() == raw


# out of the kernel, but acting on H_1(E) as the identity
T_RANK_4 = "a[1,2] a[1,3] a[1,2] a[1,4] a[1,3]^-1 a[1,2]^-1 a[1,4]^-1 a[1,2]^-1"


def _wrapped_chain(m: int) -> str:
    """``c rho c^-1`` at rank 3 for ``c = (a[1,2] a[2,3] a[3,1])^m``, whose
    images in H_3(2) grow about 4x per power."""
    c = " ".join(["a[1,2] a[2,3] a[3,1]"] * m)
    c_inv = " ".join(["a[3,1]^-1 a[2,3]^-1 a[1,2]^-1"] * m)
    return f"{c} r[1] r[2] r[3] {c_inv}"


def test_wrapped_chain_power_answers_from_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(symlift.__file__).parents[1])}
    outputs = {}
    for command in ("kernel", "eval"):
        done = subprocess.run(
            [sys.executable, "-m", "symlift.cli", "lift", command, "--n", "3",
             "--word", _wrapped_chain(1000)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs[command] = json.loads(done.stdout)
    assert outputs["kernel"]["verdict"] == "in"
    assert outputs["eval"]["restriction"]["images"] == {"x1": "x1", "x2": "x2"}


def test_wrapped_chain_power_hands_no_letter_to_act_letters(monkeypatch, capsys):
    # every library evaluation is counted; the raw ones that the checks in
    # conftest.py make go through reference.py's own act_letters binding
    received = []
    act = symaut.act_letters

    def counted(images, letters, ctx):
        letters = tuple(letters)
        received.extend(letters)
        act(images, letters, ctx)

    monkeypatch.setattr(symaut, "act_letters", counted)
    word = _wrapped_chain(8)
    gw = parse_generator_word(word, 3)
    assert is_identity(eval_generator_word(gw, torsion_context(3, 2)))
    assert kernel_verdict(gw).verdict == "in"
    assert cli.main(["lift", "eval", "--n", "3", "--word", word]) == 0
    assert cli.main(["symaut", "eval", "--ctx", "H:3:2", "--word", word]) == 0
    assert cli.main(
        ["symaut", "outer-equal", "--ctx", "H:3:2", "--left", word, "--right", "e"]
    ) == 0
    assert received == []
    # a copy of eval_generator_word that skips the reduction hands over
    # every raw letter
    source = inspect.getsource(symaut.eval_generator_word)
    unreduced = source.replace("gw = _h2_reduced(gw)", "pass", 1)
    assert unreduced != source
    namespace = dict(vars(symaut))
    exec(unreduced, namespace)
    assert is_identity(namespace["eval_generator_word"](gw, torsion_context(3, 2)))
    assert received == list(gw.letters)
    received.clear()
    # the counter sees a word that does not cancel and that its action on
    # H_1(E) cannot refute
    assert cli.main(["lift", "kernel", "--n", "4", "--word", f"{T_RANK_4} r[1]"]) == 1
    assert received == [("a", 1, j, 1) for j in (2, 3, 2, 4, 3, 2, 4, 2)]
    capsys.readouterr()


def test_symaut_commands_at_torsion_2_print_the_raw_evaluation(capsys):
    # in H_n(2) the letters are reduced before they are evaluated; the
    # payloads must be those of the raw letters
    rng = random.Random(29)
    for n in (3, 4):
        ctx = torsion_context(n, 2)
        for t in range(30):
            head, tail, c = random_gw(rng, n), random_gw(rng, n), random_gw(rng, n, 6)
            u = head * c * rho(n) * c.inverse() * tail
            v = head * tail if t % 2 else random_gw(rng, n)
            f, g = (raw_evaluation(gw, ctx) for gw in (u, v))
            assert cli.main(["symaut", "eval", "--ctx", f"H:{n}:2", "--word", str(u)]) == 0
            printed = json.loads(capsys.readouterr().out)["images"]
            assert printed == json.loads(json.dumps(f.to_json()))
            equal = outer_equal(f, g)
            argv = ["--ctx", f"H:{n}:2", "--left", str(u), "--right", str(v)]
            assert cli.main(["symaut", "outer-equal", *argv]) == (0 if equal else 1)
            assert json.loads(capsys.readouterr().out)["outer_equal"] is equal

