import random

import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    act_letter,
    acting_letters,
    all_letters_reference,
    image_word,
    is_identity,
    permutation,
    random_pure_word_reference,
)
from symlift.braid import parse_braid
from symlift.symaut import (
    MAX_EVAL_RANK,
    GeneratorWord,
    SymmetricAut,
    all_letters,
    alpha,
    check_relations,
    compose,
    conjugating_witness,
    eval_generator_word,
    find_outer_relation,
    identity_aut,
    is_inner,
    letter_inverse,
    outer_equal,
    outer_form,
    parse_generator_word,
    random_pure_word,
    rho_i,
    semidirect_normal_form,
)
from symlift.words import (
    GroupContext,
    WordError,
    free_context,
    identity,
    parse_word,
    torsion_context,
)

F2 = free_context(2)
F3 = free_context(3)
H3 = torsion_context(3, 2)


def random_word(rng, n, max_len=10, letters=None):
    letters = letters or all_letters(n)
    return GeneratorWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


# -- letters ------------------------------------------------------------------


def test_all_letters_keep_the_nested_loop_order():
    for n in range(1, 9):
        assert all_letters(n) == all_letters_reference(n), n


def test_pure_words_draw_as_choice_over_the_letter_list():
    # one randrange per letter consumes the stream rng.choice did, so every
    # seeded sample (and the rng state after it) is the list-based one
    for seed in range(50):
        for n in range(2, 9):
            for lo, hi in ((0, 4), (1, 4), (0, 10)):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                assert random_pure_word(rng, n, lo, hi) == random_pure_word_reference(
                    ref_rng, n, lo, hi
                ), (seed, n, lo, hi)
                assert rng.getstate() == ref_rng.getstate()


# -- evaluation --------------------------------------------------------------


def test_eval_examples():
    a12 = eval_generator_word(alpha(3, 1, 2), F3)
    assert image_word(a12, 1) == parse_word("y2 y1 y2^-1", F3)
    assert image_word(a12, 2) == parse_word("y2", F3)
    assert image_word(a12, 3) == parse_word("y3", F3)
    r1 = eval_generator_word(rho_i(3, 1), F3)
    assert image_word(r1, 1) == parse_word("y1^-1", F3)
    assert image_word(r1, 2) == parse_word("y2", F3)
    s12 = eval_generator_word(GeneratorWord(3, (("s", 1, 2),)), F3)
    assert image_word(s12, 1) == parse_word("y2", F3)
    assert image_word(s12, 2) == parse_word("y1", F3)


def test_eval_rank_mismatch():
    with pytest.raises(WordError):
        eval_generator_word(alpha(4, 1, 4), F3)


def test_eval_in_torsion_kills_inversions():
    assert is_identity(eval_generator_word(rho_i(3, 1), H3))
    a = eval_generator_word(alpha(3, 1, 2), H3)
    assert image_word(a, 1) == parse_word("z2 z1 z2", H3)


def test_eval_is_homomorphism_bulk():
    for n in (3, 4, 5):
        rng = random.Random(100 + n)
        ctx = free_context(n)
        for _ in range(3500):
            u = random_word(rng, n, 6)
            v = random_word(rng, n, 6)
            assert eval_generator_word(u * v, ctx) == compose(
                eval_generator_word(u, ctx), eval_generator_word(v, ctx)
            )


@st.composite
def context_and_letters(draw):
    n = draw(st.integers(2, 5))
    ctx = draw(st.sampled_from([free_context(n), torsion_context(n, 2), torsion_context(n, 3)]))
    letters = draw(st.lists(st.sampled_from(acting_letters(ctx)), max_size=14))
    return ctx, GeneratorWord(n, tuple(letters))


@given(context_and_letters())
@settings(max_examples=300)
def test_letter_local_eval_matches_compose_fold(case):
    ctx, gw = case
    folded = identity_aut(ctx)
    for letter in gw.letters:
        folded = compose(folded, act_letter(letter, ctx))
    f = eval_generator_word(gw, ctx)
    assert f == folded


def test_r_letters_act_only_in_free_and_order_two_contexts():
    assert is_identity(eval_generator_word(rho_i(3, 2), H3))
    for k in (3, 5):
        with pytest.raises(WordError, match=f"r\\[2\\] inverts a generator of order {k}"):
            eval_generator_word(rho_i(3, 2), torsion_context(3, k))


@given(st.integers(3, 5))
def test_permutation_targets_and_sign_consistency(n):
    rng = random.Random(n)
    ctx = free_context(n)
    f = eval_generator_word(random_word(rng, n, 12), ctx)
    g = eval_generator_word(random_word(rng, n, 12), ctx)
    assert sorted(permutation(f)) == list(range(1, n + 1))
    fg = compose(f, g)
    for i in range(1, n + 1):
        # signs multiply along the permutation
        expected = f.images[permutation(g)[i - 1] - 1][2] * g.images[i - 1][2]
        assert fg.images[i - 1][2] == expected


def test_compose_examples():
    a12 = eval_generator_word(alpha(3, 1, 2), F3)
    assert is_identity(compose(a12, eval_generator_word(alpha(3, 1, 2, -1), F3)))
    r1 = eval_generator_word(rho_i(3, 1), F3)
    assert is_identity(compose(r1, r1))
    r2 = eval_generator_word(rho_i(3, 2), F3)
    conj = compose(compose(r2, a12), r2)
    assert conj == eval_generator_word(alpha(3, 1, 2, -1), F3)


def test_order_facts():
    for n in (2, 3, 4):
        ctx = free_context(n)
        for i in range(1, n + 1):
            r = eval_generator_word(rho_i(n, i), ctx)
            assert is_identity(compose(r, r))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                s = eval_generator_word(GeneratorWord(n, (("s", i, j),)), ctx)
                assert is_identity(compose(s, s))


def test_inverse_word_evaluates_to_the_inverse():
    rng = random.Random(5)
    for _ in range(30):
        gw = random_word(rng, 3, 8)
        f = eval_generator_word(gw, F3)
        assert is_identity(compose(f, eval_generator_word(gw.inverse(), F3)))


def test_conjugators_in_an_equal_context_object_are_accepted():
    twin = GroupContext(3, 2)
    assert twin == H3 and twin is not H3
    images = ((parse_word("z2", twin), 1, 1), (identity(twin), 2, 1), (identity(twin), 3, 1))
    assert SymmetricAut(H3, images).images == images
    free_images = ((parse_word("y2", F3), 1, 1), (identity(F3), 2, 1), (identity(F3), 3, 1))
    with pytest.raises(WordError, match="context mismatch"):
        SymmetricAut(H3, free_images)
    with pytest.raises(WordError, match="context mismatch"):
        SymmetricAut(F3, images)


def test_generator_word_needs_rank_1():
    for rank in (0, -1):
        with pytest.raises(WordError, match="rank must be >= 1"):
            GeneratorWord(rank)
        with pytest.raises(WordError, match="rank must be >= 1"):
            parse_generator_word("e", rank)


def test_generator_word_parse_roundtrip():
    for text in ("e", "a[1,2]", "a[2,1]^-1 r[3] s[1,2]"):
        assert str(parse_generator_word(text, 3)) == text
    with pytest.raises(WordError):
        parse_generator_word("a[1,1]", 3)
    with pytest.raises(WordError):
        parse_generator_word("r[1,2]", 3)
    gw = parse_generator_word("a[1,2] r[1] s[2,3]", 3)
    assert str(gw.inverse()) == "s[2,3] r[1] a[1,2]^-1"


def test_free_cancel_and_inverse_over_every_letter_kind():
    rng = random.Random(29)
    for n in (2, 3, 4, 5):
        letters = all_letters(n)
        # r and s letters are involutions; a letters cancel only their
        # opposite sign, never a letter of another index pair
        for first in letters:
            for second in letters:
                if first[0] == "a":
                    cancels = second == first[:3] + (-first[3],)
                else:
                    cancels = second == first
                pair = GeneratorWord(n, (first, second))
                assert pair.free_cancel().letters == (() if cancels else pair.letters)
        for _ in range(200):
            # few distinct letters, so that cancellations are frequent
            pool = rng.sample(letters, 3)
            pool += [letter_inverse(l) for l in pool]
            w = random_word(rng, n, 16, pool)
            stack = []
            for letter in w.letters:
                if stack and stack[-1] == letter_inverse(letter):
                    stack.pop()
                else:
                    stack.append(letter)
            assert w.free_cancel().letters == tuple(stack)
            assert (w * w.inverse()).free_cancel().letters == ()
            assert w.inverse().inverse() == w


def test_word_parsers_refuse_ranks_over_the_limit_before_reading_a_token():
    # the one rank gate of every command that reads a word: a malformed
    # word over the limit gets the rank message, not the token's
    over = MAX_EVAL_RANK + 1
    message = f"automorphism images are limited to rank <= {MAX_EVAL_RANK}, not {over}"
    for parse, text in ((parse_generator_word, "q[1]"), (parse_generator_word, "e"),
                        (parse_braid, "x"), (parse_braid, "e")):
        with pytest.raises(WordError) as exc:
            parse(text, over)
        assert str(exc.value) == message, (parse, text)
    assert parse_generator_word(f"a[1,{MAX_EVAL_RANK}]", MAX_EVAL_RANK).rank == MAX_EVAL_RANK
    assert parse_braid(str(MAX_EVAL_RANK - 1), MAX_EVAL_RANK).letters == (MAX_EVAL_RANK - 1,)


# -- outer equality -----------------------------------------------------------


def test_outer_equal_examples():
    conj = SymmetricAut(
        F3,
        tuple(
            (identity(F3) if i == 1 else parse_word("y1", F3), i, 1)
            for i in (1, 2, 3)
        ),
    )
    assert outer_equal(conj, identity_aut(F3))
    a12 = eval_generator_word(alpha(3, 1, 2), F3)
    a12_inv = eval_generator_word(alpha(3, 1, 2, -1), F3)
    assert not outer_equal(a12, a12_inv)
    # rank 2 degeneration: the conjugating move is inner
    assert outer_equal(
        eval_generator_word(alpha(2, 1, 2), F2), identity_aut(F2)
    )


def _brute_outer_equal(f, g, max_len=3):
    """Oracle: search all conjugators up to a length bound."""
    ctx = f.ctx
    exps = (1, -1) if ctx.is_free else tuple(range(1, ctx.torsion))
    frontier = [identity(ctx)]
    seen = {()}
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for gen in range(1, ctx.rank + 1):
                for e in exps:
                    cand = w * parse_word(f"{ctx.letter}{gen}^{e}", ctx)
                    if cand.syllables not in seen:
                        seen.add(cand.syllables)
                        nxt.append(cand)
        frontier = nxt
    from symlift.words import Word

    for sylls in seen:
        w = Word(ctx, sylls)
        if all(
            image_word(f, i) == image_word(g, i).conjugated_by(w)
            for i in range(1, ctx.rank + 1)
        ):
            return True
    return False


def test_outer_equal_matches_brute_force():
    rng = random.Random(77)
    for ctx in (F3, H3, torsion_context(3, 3)):
        for _ in range(80):
            f = eval_generator_word(random_word(rng, 3, 4, acting_letters(ctx)), ctx)
            g = eval_generator_word(random_word(rng, 3, 4, acting_letters(ctx)), ctx)
            got = outer_equal(f, g)
            expected = _brute_outer_equal(f, g)
            if got:
                assert expected
                w = conjugating_witness(f, g)
                assert all(
                    image_word(f, i) == image_word(g, i).conjugated_by(w) for i in (1, 2, 3)
                )
            elif expected:  # pragma: no cover - would indicate a solver bug
                assert got
    # witnesses recompose
    f = eval_generator_word(parse_generator_word("a[1,2] a[2,3]", 3), F3)
    w = conjugating_witness(f, f)
    assert w is not None and all(
        image_word(f, i) == image_word(f, i).conjugated_by(w) for i in (1, 2, 3)
    )


def _inner_block(rng, n):
    """Letters evaluating to conjugation by a generator or its inverse."""
    j, e = rng.randint(1, n), rng.choice((1, -1))
    return tuple(("a", i, j, e) for i in range(1, n + 1) if i != j)


def test_outer_forms_are_equal_exactly_when_outer_equal():
    rng = random.Random(4242)
    contexts = (
        F2, F3, free_context(4), H3, torsion_context(3, 3), torsion_context(4, 2)
    )
    for ctx in contexts:
        n = ctx.rank
        letters = acting_letters(ctx)
        outer_equal_pairs = 0
        for trial in range(300):
            u = random_word(rng, n, 8, letters)
            if trial % 2:
                # the same outer class: splice inner automorphisms into u
                spliced = list(u.letters)
                for _ in range(rng.randint(1, 2)):
                    at = rng.randint(0, len(spliced))
                    spliced[at:at] = _inner_block(rng, n)
                v = GeneratorWord(n, tuple(spliced))
            else:
                v = random_word(rng, n, 8, letters)
            f, g = eval_generator_word(u, ctx), eval_generator_word(v, ctx)
            form = outer_form(f)
            same = outer_equal(f, g)
            assert (form == outer_form(g)) == same, (ctx, u, v)
            assert len({form, outer_form(g)}) == (1 if same else 2)
            assert outer_form(SymmetricAut(ctx, form)) == form
            outer_equal_pairs += same
        assert outer_equal_pairs >= 100, ctx


def _reduced_words(letters, max_len):
    words, level = [()], [()]
    for _ in range(max_len):
        level = [w + (l,) for w in level for l in letters if not w or w[-1] != letter_inverse(l)]
        words += level
    return words


@pytest.mark.parametrize(
    "pairs",
    [
        ((1, 2), (2, 3), (3, 1)),
        ((1, 2), (3, 2), (2, 3)),
        ((1, 2), (2, 1), (1, 3)),
        ((1, 2), (3, 4)),
        ((1, 2), (2, 1)),
    ],
)
def test_outer_relation_search_matches_exhaustive_oracle(pairs):
    rank = max(max(pair) for pair in pairs)
    ctx = free_context(rank)
    letters = [("a", i, j, e) for i, j in pairs for e in (1, -1)]
    trivial = [
        len(w)
        for w in _reduced_words(letters, 5)[1:]
        if is_inner(eval_generator_word(GeneratorWord(rank, w), ctx))
    ]
    shortest = min(trivial, default=None)
    for max_len in (1, 2, 3, 4, 5):
        covered = max_len + max_len % 2
        _, relation = find_outer_relation(pairs, max_len)
        if relation is None:
            assert shortest is None or shortest > covered
            continue
        assert relation.free_cancel() == relation and 0 < len(relation) <= covered
        assert set(relation.letters) <= set(letters)
        assert is_inner(eval_generator_word(relation, ctx))
        if len(relation) <= 5:
            assert shortest is not None and shortest >= len(relation) - 1


# -- semidirect normal form ---------------------------------------------------


def test_normal_form_examples():
    nf = semidirect_normal_form(parse_generator_word("r[2] a[1,2]", 3))
    assert str(nf.pure) == "a[1,2]^-1" and nf.rho == (0, 1, 0) and nf.perm == (1, 2, 3)
    nf = semidirect_normal_form(parse_generator_word("a[1,2]", 3))
    assert str(nf.pure) == "a[1,2]" and nf.rho == (0, 0, 0) and nf.perm == (1, 2, 3)
    nf = semidirect_normal_form(parse_generator_word("s[1,2] a[1,2]", 3))
    assert str(nf.pure) == "a[2,1]" and nf.rho == (0, 0, 0) and nf.perm == (2, 1, 3)


def test_normal_form_recomposes_exactly():
    rng = random.Random(31)
    for trial in range(1000):
        n = rng.choice((3, 4))
        gw = random_word(rng, n, 20)
        ctx = free_context(n)
        nf = semidirect_normal_form(gw)
        assert eval_generator_word(nf.recompose(), ctx) == eval_generator_word(gw, ctx)
        assert all(l[0] == "a" for l in nf.pure.letters)


# -- the presentation ---------------------------------------------------------


def test_relations_rank_3_and_4():
    for n in (3, 4):
        report = check_relations(n)
        assert report.all_pass, report.failures()


def test_no_relation_holds_vacuously():
    # two equal letter tuples would pass whatever the evaluation did
    import symlift.symaut as symaut_mod

    for n in range(2, 7):
        relations = list(symaut_mod._relations(n))
        assert len(relations) == len(check_relations(n).checks)
        for family, instance, left, right in relations:
            assert left and left != right, (family, instance)


def test_outer_product_relation_pins_the_inner_witness(monkeypatch):
    # a[1,j] ... a[n,j] is conjugation by y_j itself, so a witness off by an
    # inverse must fail every instance
    import symlift.symaut as symaut_mod

    outer_product = [c for c in check_relations(3).checks if c.family == "outer_product"]
    assert [c.instance for c in outer_product] == [(1,), (2,), (3,)]
    assert all(c.holds for c in outer_product)
    witness = symaut_mod.inner_witness_of
    monkeypatch.setattr(symaut_mod, "inner_witness_of", lambda f: witness(f).inverse())
    report = check_relations(3)
    assert [c.instance for c in report.failures()] == [(1,), (2,), (3,)]


def test_rho_conjugation_flips_only_matching_head():
    a = eval_generator_word(alpha(4, 1, 2), free_context(4))
    for k in (1, 3, 4):
        r = eval_generator_word(rho_i(4, k), free_context(4))
        assert compose(compose(r, a), r) == a
