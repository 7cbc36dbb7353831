import functools
import inspect
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    conjugation_step_reference,
    even_to_x_reference,
    expand_x,
    generator_conjugate_shape_reference,
    inner_conjugator_reference,
    project_mod_k_reference,
)
from symlift import braid, lift, symaut, words
from symlift.lift import Restriction
from symlift.words import (
    Word,
    WordError,
    conjugacy_witness,
    conjugation_step,
    coset_intersection,
    cyclic_reduce,
    even_to_x,
    format_word,
    free_context,
    generator,
    identity,
    inner_witness,
    normalize,
    parse_context,
    parse_word,
    primitive_root,
    project_mod_k,
    torsion_context,
)

F2 = free_context(2)
F3 = free_context(3)
H3 = torsion_context(3, 2)
H33 = torsion_context(3, 3)


def raw_syllables(rank, max_len=8, max_exp=3):
    exps = st.integers(-max_exp, max_exp)
    return st.lists(
        st.tuples(st.integers(1, rank), exps), max_size=max_len
    )


# -- normalization -----------------------------------------------------------


def test_normalize_examples():
    assert parse_word("y1 y1^-1", F3) == identity(F3)
    assert parse_word("y1 y2^-1 y2 y1", F3) == parse_word("y1^2", F3)
    assert parse_word("z1 z2 z2 z1", H3) == identity(H3)


def test_normalize_rejects_bad_index():
    with pytest.raises(WordError):
        normalize([(4, 1)], F3)
    with pytest.raises(WordError):
        normalize([(0, 1)], F3)


def test_generator_matches_normalize():
    for ctx in (F3, H3, H33):
        for i in (1, 3):
            for exp in range(-4, 5):
                assert generator(ctx, i, exp) == normalize([(i, exp)], ctx)
        for i in (0, 4):
            with pytest.raises(WordError) as from_generator:
                generator(ctx, i)
            with pytest.raises(WordError) as from_normalize:
                normalize([(i, 1)], ctx)
            assert str(from_generator.value) == str(from_normalize.value)


@given(raw_syllables(3))
def test_normalize_idempotent_free(raw):
    w = normalize(raw, F3)
    assert normalize(w.syllables, F3) == w


@given(raw_syllables(3))
def test_normalize_idempotent_torsion(raw):
    w = normalize(raw, H33)
    assert normalize(w.syllables, H33) == w
    assert all(1 <= e <= 2 for _, e in w.syllables)


@given(raw_syllables(3), raw_syllables(3))
def test_normalize_is_monoid_homomorphism(a, b):
    for ctx in (F3, H33):
        assert normalize(a + b, ctx) == normalize(a, ctx) * normalize(b, ctx)


@given(st.lists(raw_syllables(3), max_size=5))
def test_product_reduces_only_at_junctions_like_normalize(parts):
    # u w u^-1 makes the junctions cancel deep into their neighbours
    flat = [s for raw in parts for s in raw]
    for ctx in (F3, H3, H33):
        words = [normalize(raw, ctx) for raw in parts]
        assert functools.reduce(Word.__mul__, words, identity(ctx)) == normalize(flat, ctx)
        if words:
            u = words[0]
            raw = [*u.syllables, *flat, *u.inverse().syllables]
            assert functools.reduce(Word.__mul__, [u, *words, u.inverse()]) == normalize(raw, ctx)


@given(raw_syllables(3), raw_syllables(3))
def test_product_length_subadditive(a, b):
    u, v = normalize(a, F3), normalize(b, F3)
    assert len(u * v) <= len(u) + len(v)


@given(raw_syllables(3))
def test_inverse_cancels(raw):
    for ctx in (F3, H3):
        w = normalize(raw, ctx)
        assert w * w.inverse() == identity(ctx)


def test_parse_format_roundtrip():
    for text in ("e", "y1", "y2^-3 y1 y3^2", "y1^5"):
        assert format_word(parse_word(text, F3)) == text
    assert format_word(parse_word("", F3)) == "e"
    with pytest.raises(WordError):
        parse_word("q1", F3)
    with pytest.raises(WordError):
        parse_context("G:3")


# -- conjugacy ---------------------------------------------------------------


def test_conjugacy_examples():
    w = conjugacy_witness(parse_word("y1", F3), parse_word("y2 y1 y2^-1", F3))
    assert w is not None and format_word(w) == "y2"
    assert conjugacy_witness(parse_word("y1", F3), parse_word("y2", F3)) is None
    w = conjugacy_witness(parse_word("z1 z2 z1", H3), parse_word("z2", H3))
    assert w is not None and format_word(w) == "z1"
    # the conjugator search walks the centralizer, generated by the primitive root
    assert primitive_root(parse_word("y1^4", F3)) == parse_word("y1", F3)
    assert primitive_root(parse_word("y1 y2 y1 y2", F3)) == parse_word("y1 y2", F3)


def test_conjugacy_rank_one_is_equality():
    F1 = free_context(1)
    assert conjugacy_witness(parse_word("y1^2", F1), parse_word("y1^2", F1)) is not None
    assert conjugacy_witness(parse_word("y1", F1), parse_word("y1^-1", F1)) is None


@given(raw_syllables(3, max_len=5), raw_syllables(3, max_len=3))
@settings(max_examples=60)
def test_conjugacy_symmetric_with_inverse_witness(raw_u, raw_g):
    u = normalize(raw_u, F3)
    g = normalize(raw_g, F3)
    v = u.conjugated_by(g)
    fwd = conjugacy_witness(u, v)
    back = conjugacy_witness(v, u)
    assert fwd is not None and back is not None
    assert u.conjugated_by(fwd) == v and v.conjugated_by(back) == u
    # the inverse of any valid witness is a valid witness the other way
    assert v.conjugated_by(fwd.inverse()) == u


def _span_reference(u, v):
    """The windowed search that conjugacy_witness ran before it walked the one
    coset: a guessed span around every matching rotation, each candidate
    checked by conjugating."""
    ctx = u.ctx
    if ctx.rank == 1:
        return identity(ctx) if u == v else None
    p, cu = cyclic_reduce(u)
    q, cv = cyclic_reduce(v)
    if len(cu) != len(cv):
        return None
    base = []
    if len(cu) <= 1:
        if cu != cv:
            return None
        base.append(q * p.inverse())
    else:
        c = cu.syllables
        for j in range(len(c)):
            if c[j:] + c[:j] == cv.syllables:
                base.append(q * Word(ctx, c[:j]).inverse() * p.inverse())
        if not base:
            return None
    root = primitive_root(cu) if cu else identity(ctx)
    best = None
    for g0 in base:
        candidates = [g0]
        if root:
            span = len(g0) + 2 * len(p) + len(root) + 2
            axis = p * root * p.inverse()
            if ctx.torsion is not None and len(root) == 1:
                span = min(span, ctx.torsion - 1)
            up = down = identity(ctx)
            for _ in range(span):
                up, down = up * axis, down * axis.inverse()
                candidates += [g0 * up, g0 * down]
        for g in candidates:
            if u.conjugated_by(g) == v and (best is None or g.sort_key() < best.sort_key()):
                best = g
    return best


def _all_words(ctx, max_sylls, max_exp):
    """Every reduced word of at most ``max_sylls`` syllables, exponents up to
    ``max_exp`` in absolute value (all of them mod k), in sort-key order."""
    if ctx.torsion:
        exps = range(1, ctx.torsion)
    else:
        exps = [e for e in range(-max_exp, max_exp + 1) if e]
    level, out = [()], [()]
    for _ in range(max_sylls):
        level = [
            s + ((g, e),)
            for s in level
            for g in range(1, ctx.rank + 1)
            if not s or s[-1][0] != g
            for e in exps
        ]
        out += level
    return [Word(ctx, s) for s in sorted(out, key=lambda s: (len(s), s))]


def test_conjugacy_witness_is_the_least_conjugator():
    # brute force over every short conjugator: the witness is the least one,
    # and the old windowed search agrees; powers w^d and deep conjugators
    # put the minimum away from the first matching rotation, on either side
    rng = random.Random(1729)
    for text, max_sylls in (("F:2", 4), ("H:2:3", 6), ("H:3:2", 5), ("H:2:4", 4)):
        ctx = parse_context(text)
        pool = _all_words(ctx, max_sylls, 2)
        members = set(pool)
        for _ in range(150):
            raw = [(rng.randint(1, ctx.rank), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(0, 4))]
            u = normalize(raw, ctx).pow(rng.choice((1, 1, 2, 3)))
            if rng.random() < 0.85:
                g = pool[rng.randrange(len(pool))]
                v = u.conjugated_by(g)
            else:
                v = normalize([(s[0], -s[1]) for s in raw], ctx)
            w = conjugacy_witness(u, v)
            assert w == _span_reference(u, v), (text, str(u), str(v))
            least = next((c for c in pool if u.conjugated_by(c) == v), None)
            if w in members or w is None:
                assert least == w, (text, str(u), str(v))
            else:
                assert least is None or least.sort_key() > w.sort_key(), (text, str(u), str(v))


def test_cyclic_reduce_merges_across_torsion():
    p, core = cyclic_reduce(parse_word("z1 z2 z1", H3))
    assert format_word(core) == "z2" and format_word(p) == "z1"


def _peel_reference(w):
    """The syllable-at-a-time peel loop that two-pointer cyclic_reduce replaced."""
    k = w.ctx.torsion
    prefix, core = [], list(w.syllables)
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        gen, a = core[0]
        b = core[-1][1]
        middle = core[1:-1]
        prefix.append((gen, a))
        merged = a + b if k is None else (a + b) % k
        if merged != 0:
            middle.append((gen, merged))
        core = middle
    return normalize(prefix, w.ctx), normalize(core, w.ctx)


def _inverse_raw(raw):
    return [(g, -e) for g, e in reversed(raw)]


@given(
    st.sampled_from([F3, H3, H33]),
    raw_syllables(3, max_len=10),
    raw_syllables(3, max_len=6),
)
@settings(max_examples=300)
def test_cyclic_reduce_matches_peel_loop(ctx, raw_p, raw_m):
    # p m p^-1 peels deep; with m = g^a .. g^b the last step merges partially
    for w in (normalize(raw_p, ctx), normalize(raw_p + raw_m + _inverse_raw(raw_p), ctx)):
        p, core = cyclic_reduce(w)
        assert (p, core) == _peel_reference(w)
        assert p * core * p.inverse() == w


def test_cyclic_reduce_partial_merge_closes_the_core():
    w = parse_word("y1 y2^2 y3 y1 y2^-1 y3 y2^3 y1^-1", F3)
    p, core = cyclic_reduce(w)
    assert (p, core) == _peel_reference(w)
    assert format_word(p) == "y1 y2^2" and format_word(core) == "y3 y1 y2^-1 y3 y2^5"
    w = parse_word("z1 z2 z3 z1 z2 z1^2", H33)
    p, core = cyclic_reduce(w)
    assert (p, core) == _peel_reference(w)
    assert format_word(p) == "z1 z2" and format_word(core) == "z3 z1 z2^2"


def test_cyclic_reduce_is_linear_on_deep_conjugates():
    p = normalize([(1 + t % 2, 1) for t in range(10**5)], F3)
    w = p * generator(F3, 3) * p.inverse()
    t0 = time.perf_counter()
    prefix, core = cyclic_reduce(w)
    elapsed = time.perf_counter() - t0
    assert prefix == p and core == generator(F3, 3)
    assert elapsed < 2.0, f"cyclic_reduce took {elapsed:.2f} s on |p| = 10^5"


def test_conjugacy_witness_finds_the_rotation_in_linear_time():
    # a search that compares every rotation takes quadratic time: seconds here
    rng = random.Random(17)
    seq = [1]
    while len(seq) < 40_000:
        g = rng.randint(1, 3)
        if g != seq[-1]:
            seq.append(g)
    if seq[-1] == 1:
        seq.pop()
    for ctx in (F3, H3):
        c = Word(ctx, tuple((g, 1) for g in seq))
        half = len(c) // 2
        d = Word(ctx, c.syllables[half:] + c.syllables[:half])
        t0 = time.perf_counter()
        g = conjugacy_witness(c, d)
        elapsed = time.perf_counter() - t0
        assert c.conjugated_by(g) == d and len(g) == half
        assert elapsed < 2.0, f"conjugacy_witness took {elapsed:.2f} s on |c| = {len(c)}"


@given(raw_syllables(3, max_len=6), st.integers(-7, 7))
@settings(max_examples=200)
def test_pow_matches_repeated_multiplication(raw, m):
    # every exponent in -4..4 and one sampled in -7..7, in each context
    for ctx in (F3, H3, H33):
        w = normalize(raw, ctx)
        for power in {m, *range(-4, 5)}:
            base = w if power >= 0 else w.inverse()
            expected = functools.reduce(Word.__mul__, [base] * abs(power), identity(ctx))
            assert w.pow(power) == expected


# -- inner witnesses ---------------------------------------------------------


def test_inner_witness_examples():
    assert inner_witness([generator(F3, i) for i in (1, 2, 3)], F3) == identity(F3)
    images = [parse_word(f"y2 y{i} y2^-1", F3) for i in (1, 2, 3)]
    assert inner_witness(images, F3) == parse_word("y2", F3)
    images_h = [parse_word(t, H3) for t in ("z2 z1 z2", "z2", "z3")]
    assert inner_witness(images_h, H3) is None


def test_inner_witness_shape_errors():
    with pytest.raises(WordError):
        inner_witness([parse_word("y1 y2", F3)] * 3, F3)
    assert Restriction(F3, (parse_word("y1 y2", F3),) * 3).inner_witness() is None
    with pytest.raises(WordError):
        inner_witness([generator(F3, 1)], F3)


def _brute_inner(images, ctx, max_len=4):
    """Exhaustive search over short candidate conjugators."""
    gens = range(1, ctx.rank + 1)
    exps = (1, -1) if ctx.is_free else tuple(range(1, ctx.torsion))
    alphabet = [(g, e) for g in gens for e in exps]
    seen = {()}
    frontier = [identity(ctx)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g, e in alphabet:
                cand = w * normalize([(g, e)], ctx)
                if cand.syllables not in seen:
                    seen.add(cand.syllables)
                    nxt.append(cand)
        frontier = nxt
    for sylls in sorted(seen, key=lambda s: (len(s), s)):
        from symlift.words import Word

        w = Word(ctx, sylls)
        if all(
            generator(ctx, i).conjugated_by(w) == img
            for i, img in enumerate(images, 1)
        ):
            return w
    return None


def test_inner_witness_matches_exhaustive_search():
    # cross-check of the pinned-exponent solver against brute force
    rng = random.Random(2024)
    for ctx in (F3, torsion_context(3, 2), torsion_context(3, 3), torsion_context(3, 4)):
        exps = (1, -1) if ctx.is_free else (1,)
        for _ in range(120):
            raw = [
                (rng.randint(1, 3), rng.choice(exps))
                for _ in range(rng.randint(0, 2))
            ]
            w = normalize(raw, ctx)
            images = [generator(ctx, i).conjugated_by(w) for i in (1, 2, 3)]
            if rng.random() < 0.4:
                # perturb one image to break innerness most of the time
                i = rng.randint(0, 2)
                g = generator(ctx, rng.randint(1, 3))
                images[i] = images[i].conjugated_by(g)
            got = inner_witness(images, ctx)
            assert Restriction(ctx, tuple(images)).inner_witness() == got
            expected = _brute_inner(images, ctx)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got == expected


def test_coset_intersection_needs_two_constraints():
    e = identity(F3)
    with pytest.raises(WordError):
        coset_intersection([], F3)
    with pytest.raises(WordError):
        coset_intersection([(e, 1, e)], F3)
    assert coset_intersection([(e, 1, e), (e, 2, e)], F3) == e


# -- projection and the even-word basis --------------------------------------


def test_project_examples():
    assert project_mod_k(parse_word("y1^2 y2^-1", F2), 2) == parse_word(
        "z2", torsion_context(2, 2)
    )
    assert project_mod_k(parse_word("y1 y2 y1^-1", F2), 2) == parse_word(
        "z1 z2 z1", torsion_context(2, 2)
    )
    assert project_mod_k(parse_word("y1^4 y2^3", F2), 3) == parse_word(
        "z1", torsion_context(2, 3)
    )
    with pytest.raises(WordError):
        project_mod_k(parse_word("y1", F2), 1)


def test_project_is_homomorphism_bulk():
    rng = random.Random(11)
    for _ in range(10000):
        raw_u = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]
        raw_v = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]
        u = normalize([s for s in raw_u if s[1]], F3)
        v = normalize([s for s in raw_v if s[1]], F3)
        k = rng.choice((2, 3))
        assert project_mod_k(u * v, k) == project_mod_k(u, k) * project_mod_k(v, k)


def test_project_mod_k_matches_the_old_fold():
    rng = random.Random(34)
    for _ in range(2000):
        ctx = free_context(rng.randint(1, 4))
        raw = [(rng.randint(1, ctx.rank), rng.randint(-7, 7)) for _ in range(rng.randint(0, 12))]
        w = normalize([s for s in raw if s[1]], ctx)
        for k in (2, 3, 4, 5):
            assert project_mod_k(w, k) == project_mod_k_reference(w, k), (w, k)


@given(raw_syllables(3))
def test_psi_parity(raw):
    # length mod 2 downstairs tracks exponent sum mod 2 upstairs
    w = normalize(raw, F3)
    # every syllable of an order-2 word has exponent 1
    assert len(project_mod_k(w, 2)) % 2 == sum(e for _, e in w.syllables) % 2


def test_even_to_x_examples():
    assert format_word(even_to_x(parse_word("z1 z3", H3))) == "x1"
    assert format_word(even_to_x(parse_word("z1 z2", H3))) == "x1 x2^-1"
    assert format_word(even_to_x(parse_word("z3 z1", H3))) == "x1^-1"
    with pytest.raises(WordError):
        even_to_x(parse_word("z1", H3))


def test_even_to_x_roundtrip_exhaustive():
    # every even word of length <= 12 at rank 3, exhaustively
    count = 0
    for length in range(0, 13, 2):
        seqs = [[]]
        for _ in range(length):
            seqs = [s + [g] for s in seqs for g in (1, 2, 3) if not s or s[-1] != g]
        for seq in seqs:
            w = normalize([(g, 1) for g in seq], H3)
            if len(w) != length:
                continue
            count += 1
            assert expand_x(even_to_x(w), 3) == w
    assert count > 3000


def random_even_word(rng, n):
    """A reduced even word of ``H_n(2)``, drawn so that about half its
    syllables are ``z_n``: runs like ``z_a z_n z_a`` are the merge case."""
    length = 2 * rng.randint(0, 20)
    seq: list[int] = []
    while len(seq) < length:
        g = n if rng.random() < 0.5 else rng.randint(1, n)
        if not seq or seq[-1] != g:
            seq.append(g)
    return Word(torsion_context(n, 2), tuple((g, 1) for g in seq))


def test_even_to_x_matches_the_normalize_reference():
    rng = random.Random(18)
    merged = 0
    for n in range(2, 7):
        for _ in range(400):
            w = random_even_word(rng, n)
            got = even_to_x(w)
            assert got == even_to_x_reference(w) and got.ctx.letter == "x", w
            assert expand_x(got, n) == w
            merged += any(abs(e) > 1 for _, e in got.syllables)
    # at rank 2 every pair holds z_2, so every run of x_1 merges
    assert merged > 500
    assert format_word(even_to_x(parse_word("z1 z3 z1 z2", H3))) == "x1^2 x2^-1"
    assert format_word(even_to_x(parse_word("z1 z2 z3 z2", H3))) == "x1 x2^-2"
    assert format_word(even_to_x(parse_word("z1 z2 z1 z2", torsion_context(2, 2)))) == "x1^2"


def test_free_contexts_are_one_object_per_rank_and_letter():
    for n in (1, 3, 40):
        for letter in ("x", "y"):
            assert free_context(n, letter) is free_context(n, letter)
    # the letter prints but does not compare
    assert free_context(3, "x") == free_context(3, "y")
    w = even_to_x(parse_word("z1 z2 z3 z2", torsion_context(4, 2)))
    assert w.ctx is free_context(3, letter="x")
    assert format_word(w) == "x1 x2^-1 x3 x2^-1"


def test_order_2_inverse_is_the_reversal():
    rng = random.Random(19)
    for n in range(1, 6):
        ctx = torsion_context(n, 2)
        for _ in range(200):
            w = normalize([(rng.randint(1, n), 1) for _ in range(rng.randint(0, 30))], ctx)
            assert w.inverse().syllables == w.syllables[::-1]
            assert w * w.inverse() == identity(ctx)


def test_even_to_x_fills_its_shared_syllables_in_one_pass(monkeypatch):
    # z_999983 is a generator no other word brings, so the shared tables
    # lack it when the rewrite meets it
    calls = []
    fast = words.even_to_x

    def counted(w):
        calls.append(w)
        return fast(w)

    monkeypatch.setattr(words, "even_to_x", counted)
    w = parse_word("z999983 z1000000", torsion_context(1_000_000, 2))
    assert format_word(words.even_to_x(w)) == "x999983"
    assert len(calls) == 1
    assert words._X_PLUS[999983] == (999983, 1)


def test_even_to_x_refuses_unreduced_words():
    for sylls in (
        ((1, 1), (1, 1)),  # a pair z_a z_a
        ((3, 1), (3, 1)),  # a pair z_n z_n
        ((1, 1), (2, 1), (2, 1), (3, 1)),  # x_2^-1 x_2 across two pairs
        ((1, 1), (3, 1), (3, 1), (1, 1)),  # x_1 x_1^-1 across z_n z_n
    ):
        with pytest.raises(WordError):
            even_to_x(Word(H3, sylls))


# -- the one-pass conjugation step c g c^-1 d --------------------------------

H33 = torsion_context(3, 3)

# (context, c, g, d, c g c^-1 d), one row per junction case
CONJUGATION_STEP_CASES = [
    # c a prefix of d: g cancels into d, and the cancellation runs into c
    (F3, "y1", (2, 1), "y1 y2^-1 y1^-1 y3", "y3"),
    (H3, "z1", (2, 1), "z1 z2 z1 z3", "z3"),
    (H33, "z1", (2, 1), "z1 z2^2 z1^2 z3", "z3"),
    # d a proper prefix of c: c[len(d):]^-1 is left
    (F3, "y1 y2 y3", (1, 1), "y1 y2", "y1 y2 y3 y1 y3^-1"),
    (H3, "z1 z2 z3", (1, 1), "z1 z2", "z1 z2 z3 z1 z3"),
    (H33, "z1 z2 z3", (1, 1), "z1 z2", "z1 z2 z3 z1 z3^2"),
    # c == d: c g
    (F3, "y1 y2", (3, -1), "y1 y2", "y1 y2 y3^-1"),
    (H3, "z1 z2", (3, 1), "z1 z2", "z1 z2 z3"),
    (H33, "z1 z2", (3, 2), "z1 z2", "z1 z2 z3^2"),
    # c[m] and d[m] on one generator with different exponents: one merge
    (F3, "y1 y2", (3, -1), "y1 y2^-1 y3", "y1 y2 y3^-1 y2^-2 y3"),
    (H33, "z1 z2", (3, 1), "z1 z2^2 z3", "z1 z2 z3 z2 z3"),
    # c[m] and d[m] on two generators: plain concatenation
    (H3, "z1 z2", (3, 1), "z1 z3", "z1 z2 z3 z2 z3"),
]


@pytest.mark.parametrize("ctx, c, g, d, want", CONJUGATION_STEP_CASES)
def test_conjugation_step_junction_cases(ctx, c, g, d, want):
    c, d = parse_word(c, ctx).syllables, parse_word(d, ctx).syllables
    got = conjugation_step(c, g, d, ctx)
    assert got == parse_word(want, ctx).syllables
    assert got == conjugation_step_reference(c, g, d, ctx)


def test_conjugation_step_matches_the_product_on_seeded_words():
    rng = random.Random(24)
    cases = {"c prefix of d": 0, "d prefix of c": 0, "merge": 0, "neither": 0}
    for ctx in (F3, H3, H33):
        for _ in range(1500):
            shared = random_word(rng, ctx, 3).syllables
            c = (Word(ctx, shared) * random_word(rng, ctx, 3)).syllables
            d = (Word(ctx, shared) * random_word(rng, ctx, 4)).syllables
            gen = rng.randint(1, ctx.rank)
            if c and c[-1][0] == gen:
                continue
            exp = rng.randint(1, ctx.torsion - 1) if ctx.torsion else rng.choice((1, -1))
            got = conjugation_step(c, (gen, exp), d, ctx)
            assert got == conjugation_step_reference(c, (gen, exp), d, ctx), (ctx, c, d)
            m = next((t for t, (a, b) in enumerate(zip(c, d)) if a != b), min(len(c), len(d)))
            if m == len(c):
                cases["c prefix of d"] += 1
            elif m == len(d):
                cases["d prefix of c"] += 1
            else:
                cases["merge" if c[m][0] == d[m][0] else "neither"] += 1
    assert min(cases.values()) > 100, cases


# -- the closed-form inner test and the mirrored-halves shape ---------------


def canonical(w: Word, target: int) -> Word:
    """``w`` without its trailing ``target`` syllable, as ``SymmetricAut``
    conjugators are stored."""
    if w.syllables and w.syllables[-1][0] == target:
        return Word(w.ctx, w.syllables[:-1])
    return w


def random_word(rng, ctx, length):
    exps = (1, -1, 2) if ctx.is_free else tuple(range(1, ctx.torsion))
    return normalize([(rng.randint(1, ctx.rank), rng.choice(exps)) for _ in range(length)], ctx)


def near_misses(rng, ctx):
    """Image triples of ``conj_w`` for a random ``w``, and the ways one
    image can miss: ``c_j = w`` minus a last syllable that is not on ``j``,
    a second longest conjugator that differs from ``w``, an extra syllable,
    and a wrong target or sign."""
    n = ctx.rank
    w = random_word(rng, ctx, rng.randint(0, 4))
    inner = [(canonical(w, i), i, 1) for i in range(1, n + 1)]
    yield inner
    j = rng.randint(1, n)
    if w.syllables:
        head = Word(ctx, w.syllables[:-1])
        yield inner[: j - 1] + [(canonical(head, j), j, 1)] + inner[j:]
        rival = random_word(rng, ctx, len(w))
        yield inner[: j - 1] + [(canonical(rival, j), j, 1)] + inner[j:]
    extra = canonical(w * random_word(rng, ctx, 1), j)
    yield inner[: j - 1] + [(extra, j, 1)] + inner[j:]
    yield inner[: j - 1] + [(inner[j - 1][0], j % n + 1, 1)] + inner[j:]
    if ctx.is_free:
        yield inner[: j - 1] + [(inner[j - 1][0], j, -1)] + inner[j:]


CLOSED_FORM_CONTEXTS = (
    free_context(1),
    torsion_context(1, 3),
    F2,
    F3,
    H3,
    H33,
    torsion_context(4, 3),
    torsion_context(5, 4),
)


def test_inner_conjugator_matches_the_coset_solve_on_near_misses():
    fast = inspect.unwrap(words.inner_conjugator)
    rng = random.Random(19)
    outcomes = {True: 0, False: 0}
    for ctx in CLOSED_FORM_CONTEXTS:
        for _ in range(300):
            for images in near_misses(rng, ctx):
                got = fast(images, ctx)
                assert got == inner_conjugator_reference(images, ctx), (ctx, images)
                outcomes[got is not None] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_inner_conjugator_named_near_misses():
    def images(*conjugators):
        return [(parse_word(c, F3), i, 1) for i, c in enumerate(conjugators, start=1)]

    # w = y1 y2: image 2 may drop the last syllable, image 3 may not
    assert words.inner_conjugator(images("y1 y2", "y1", "y1 y2"), F3) == parse_word("y1 y2", F3)
    assert words.inner_conjugator(images("y1 y2", "y1", "y1"), F3) is None
    # two different longest conjugators
    assert words.inner_conjugator(images("y2 y3", "y3 y1", "y2 y3"), F3) is None
    # rank 1: only the identity is inner
    f1, h13 = free_context(1), torsion_context(1, 3)
    assert words.inner_conjugator([(identity(f1), 1, 1)], f1) == identity(f1)
    assert words.inner_conjugator([(identity(f1), 1, -1)], f1) is None
    assert words.inner_conjugator([(identity(h13), 1, 1)], h13) == identity(h13)
    # H:3:3: the dropped syllable may have any exponent
    w = parse_word("z3 z2^2", H33)
    images = [(w, 1, 1), (parse_word("z3", H33), 2, 1), (w, 3, 1)]
    assert words.inner_conjugator(images, H33) == w


def mirrored_or_not(rng, ctx):
    """Words ``c g^s c^{-1}`` and the ways a word can fail that shape: a
    wrong middle exponent, halves that do not mirror, an even length."""
    c = random_word(rng, ctx, rng.randint(0, 5))
    gen = rng.randint(1, ctx.rank)
    c = canonical(c, gen)
    exps = (1, -1, 2) if ctx.is_free else tuple(range(1, ctx.torsion))
    yield c * generator(ctx, gen, rng.choice(exps)) * c.inverse()
    yield c * generator(ctx, gen, 1) * random_word(rng, ctx, len(c))
    yield random_word(rng, ctx, rng.randint(0, 9))


def test_generator_conjugate_shape_matches_the_cyclic_reduce_split():
    fast = inspect.unwrap(words.generator_conjugate_shape)
    rng = random.Random(19)
    outcomes = {True: 0, False: 0}
    for ctx in CLOSED_FORM_CONTEXTS:
        for _ in range(500):
            for w in mirrored_or_not(rng, ctx):
                got = fast(w)
                assert repr(got) == repr(generator_conjugate_shape_reference(w)), w
                outcomes[got is not None] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_every_binding_of_a_checked_fast_path_is_wrapped():
    # the session fixture in conftest.py holds each of these to its reference
    for module, name in (
        (symaut, "conjugation_step"),
        (lift, "conjugation_step"),
        (words, "inner_conjugator"),
        (symaut, "inner_conjugator"),
        (braid, "inner_conjugator"),
        (lift, "inner_conjugator"),
        (words, "generator_conjugate_shape"),
        (symaut, "generator_conjugate_shape"),
        (lift, "generator_conjugate_shape"),
        (lift, "even_to_x"),
        (symaut, "_h2_reduced"),
        (lift, "_h2_reduced"),
    ):
        assert inspect.unwrap(getattr(module, name)) is not getattr(module, name), (module, name)
