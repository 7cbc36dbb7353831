import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from symlift.words import (
    ConjugacyWitness,
    WordError,
    centralizer_root,
    conjugacy_witness,
    coset_intersection,
    cyclic_reduce,
    even_to_x,
    expand_x,
    format_word,
    free_context,
    generator,
    identity,
    inner_witness,
    normalize,
    parse_context,
    parse_word,
    product,
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
        assert product(words, ctx) == normalize(flat, ctx)
        if words:
            u = words[0]
            raw = [*u.syllables, *flat, *u.inverse().syllables]
            assert product([u, *words, u.inverse()], ctx) == normalize(raw, ctx)


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
    assert w is not None and format_word(w.conjugator) == "y2"
    assert conjugacy_witness(parse_word("y1", F3), parse_word("y2", F3)) is None
    w = conjugacy_witness(parse_word("z1 z2 z1", H3), parse_word("z2", H3))
    assert w is not None and format_word(w.conjugator) == "z1"


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
    assert fwd.check(u, v) and back.check(v, u)
    # the inverse of any valid witness is a valid witness the other way
    assert ConjugacyWitness(fwd.conjugator.inverse()).check(v, u)


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


@given(
    st.sampled_from([F3, H3, H33]),
    raw_syllables(3, max_len=6),
    st.integers(-7, 7),
)
@settings(max_examples=200)
def test_pow_matches_repeated_multiplication(ctx, raw, m):
    w = normalize(raw, ctx)
    base = w if m >= 0 else w.inverse()
    expected = identity(ctx)
    for _ in range(abs(m)):
        expected = expected * base
    assert w.pow(m) == expected


def test_centralizer_root_of_powers():
    assert centralizer_root(parse_word("y1^4", F3)) == parse_word("y1", F3)
    w = parse_word("y1 y2 y1 y2", F3)
    assert centralizer_root(w) == parse_word("y1 y2", F3)


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
    assert inner_witness([parse_word("y1 y2", F3)] * 3, F3, strict=False) is None
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
            got = inner_witness(images, ctx, strict=False)
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


@given(raw_syllables(3))
def test_psi_parity(raw):
    # length mod 2 downstairs tracks exponent sum mod 2 upstairs
    w = normalize(raw, F3)
    assert project_mod_k(w, 2).letter_length() % 2 == w.exponent_sum() % 2


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
