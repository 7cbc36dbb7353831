import itertools
import random

import pytest
from hypothesis import given, strategies as st
from reference import parse_semipalindrome_product_reference, random_pure_word_reference

from symlift.kernel import (
    Certificate,
    block_conjugators,
    certify,
    certify_status,
    parse_semipalindrome_product,
    random_rho_conjugate_product,
    verify_certificate,
)
from symlift.lift import kernel_verdict
from symlift.symaut import (
    GeneratorWord,
    all_letters,
    inner_relator,
    letter_inverse,
    parse_generator_word,
    rho,
    rho_i,
    semidirect_normal_form,
)
from symlift.words import WordError, free_context

F3 = free_context(3)


def gw(text, n=3):
    return parse_generator_word(text, n)


# -- recognition ---------------------------------------------------------------


def test_parse_examples():
    word = gw("a[1,2] a[2,3] a[2,3] a[1,2]")
    blocks = parse_semipalindrome_product(word)
    assert blocks == (word.letters,)
    # both wraps are same-sign: a[1,2] (a[2,3] (e) a[2,3]) a[1,2]
    block = blocks[0]
    assert block[0] == block[3] == ("a", 1, 2, 1) and block[1] == block[2]
    assert parse_semipalindrome_product(gw("a[1,2]")) is None
    blocks = parse_semipalindrome_product(gw("a[1,2] a[1,2] a[2,3] a[2,3]"))
    assert blocks is not None
    assert [str(GeneratorWord(3, b)) for b in blocks] == ["a[1,2] a[1,2]", "a[2,3] a[2,3]"]
    assert parse_semipalindrome_product(GeneratorWord(3)) == ()


def test_parse_rejects_non_conjugation_letters():
    with pytest.raises(WordError):
        parse_semipalindrome_product(gw("r[1]"))


def test_wrap_inverse_form_recognized():
    word = gw("a[1,2] a[2,3] a[2,3] a[1,2]^-1")
    assert parse_semipalindrome_product(word) == (word.letters,)
    assert parse_semipalindrome_product(gw("a[1,2] a[2,3]")) is None


@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=9))
def test_odd_length_words_never_parse(codes):
    pairs = [(1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)]
    letters = tuple(
        ("a", *pairs[c], 1 if pos else -1) for c, pos in codes
    )
    if len(letters) % 2 == 1:
        assert parse_semipalindrome_product(GeneratorWord(3, letters)) is None


def test_blocks_recompose_letters():
    word = gw("a[1,2] a[2,3] a[2,3] a[1,2] a[3,1] a[3,1]")
    blocks = parse_semipalindrome_product(word)
    assert blocks is not None and len(blocks) == 2
    assert sum(blocks, ()) == word.letters


def test_parse_matches_the_quadratic_reference_on_every_short_word():
    """Every word over two index pairs up to length 12 and over three up to
    length 8, odd lengths included, with seeded mixed signs."""
    rng = random.Random(39)
    parsed = 0
    for pairs, longest in (([(1, 2), (2, 3)], 12), ([(1, 2), (2, 3), (3, 1)], 8)):
        for length in range(1, longest + 1):
            for indices in itertools.product(pairs, repeat=length):
                letters = tuple(("a", i, j, rng.choice((1, -1))) for i, j in indices)
                word = GeneratorWord(3, letters)
                blocks = parse_semipalindrome_product(word)
                assert blocks == parse_semipalindrome_product_reference(word), word
                parsed += blocks is not None
    assert parsed == 1580


def test_parse_takes_the_shortest_first_block():
    # v rev(v) with v = a[1,2] a[2,3]^-1 a[1,2], then a doubled letter: the
    # whole word is no semipalindrome, and the split is the prime factors
    word = gw("a[1,2] a[2,3]^-1 a[1,2] a[1,2]^-1 a[2,3] a[1,2] a[3,1] a[3,1]")
    assert parse_semipalindrome_product(word) == (word.letters[:6], word.letters[6:])
    # a[1,2]^4 parses as two doubled letters, not as one wrap
    word = gw("a[1,2] a[1,2]^-1 a[1,2] a[1,2]")
    assert parse_semipalindrome_product(word) == (word.letters[:2], word.letters[2:])


# -- normal form ---------------------------------------------------------------


def test_semidirect_normal_form_of_inversion_words():
    nf = semidirect_normal_form(gw("r[1] a[1,2] r[1]"))
    assert nf.rho == (0, 0, 0) and nf.perm == (1, 2, 3)
    assert str(nf.pure) == "a[1,2]"  # one letter cannot be a semipalindrome
    assert parse_semipalindrome_product(nf.pure) is None
    nf = semidirect_normal_form(gw("a[1,2] r[2] a[1,2] r[2]"))
    assert not nf.pure.letters and nf.rho == (0, 0, 0)
    # the r[2] does not flip a[1,3], so the pure part cancels entirely
    nf = semidirect_normal_form(gw("a[1,3] r[2] a[1,3]^-1"))
    assert nf.rho == (0, 1, 0) and not nf.pure.letters


# -- certificates ---------------------------------------------------------------


def test_certify_examples():
    cert = certify(gw("a[1,2] a[1,2]"))
    assert cert is not None
    assert [str(c) for c in cert.conjugators] == ["a[1,2]", "e"]
    cert = certify(rho(3))
    assert cert is not None and [str(c) for c in cert.conjugators] == ["e"]
    assert certify(gw("a[1,2]")) is None
    # same-sign wrap around an inverse wrap, and a wrap around a mirror block
    cert = certify(gw("a[1,2] a[2,3] a[2,3]^-1 a[1,2]"))
    assert [str(c) for c in cert.conjugators] == ["a[1,2]", "e"]
    cert = certify(gw("a[1,2] a[2,3] a[3,1] a[3,1] a[2,3] a[1,2]^-1"))
    assert [str(c) for c in cert.conjugators] == ["a[1,2] a[2,3] a[3,1]", "a[1,2]"]


def nest(depth, inverted):
    """v rev(v), or v v^-1 when ``inverted``, with v cycling through three
    letters so that no shorter block splits it."""
    pairs = [(1, 2), (2, 3), (3, 1)]
    v = [("a", *pairs[k % 3], 1) for k in range(depth)]
    back = [("a", i, j, -e if inverted else e) for _, i, j, e in reversed(v)]
    return GeneratorWord(3, tuple(v + back))


def test_deep_nests_parse_and_certify_without_recursion():
    word = nest(2100, inverted=False)
    assert parse_semipalindrome_product(word) == (word.letters,)
    # a deep wrap_inv nest certifies through every level of the nest
    word = nest(2100, inverted=True)
    cert = certify(word)
    assert cert is not None and verify_certificate(cert, word)


def wrap_by_wrap_conjugators(block):
    """Reference construction: start from the mirror-symmetric core, then
    walk the wraps outwards, conjugating every factor found so far by the
    wrap letter and adding ``a, e`` (``a^2 = (a rho a^-1) rho``) for a
    same-sign wrap."""
    n = len(block)
    top = max((k + 1 for k in range(n // 2) if block[k] != block[n - 1 - k]), default=0)
    out = [block[top : n // 2], ()] if top < n // 2 else []
    for d in reversed(range(top)):
        out = [(block[d],) + c for c in out]
        if block[n - 1 - d] == block[d]:
            out += [(block[d],), ()]
    return out


def mixed_wrap_block(rng, n, depth):
    pure = [l for l in all_letters(n) if l[0] == "a"]
    front = [rng.choice(pure) for _ in range(depth)]
    back = [l if rng.random() < 0.5 else letter_inverse(l) for l in reversed(front)]
    return tuple(front + back)


def test_prefix_conjugators_match_wrap_by_wrap_construction():
    rng = random.Random(4242)
    for _ in range(3000):
        n = rng.choice((3, 4))
        block = mixed_wrap_block(rng, n, rng.randint(0, 14))
        assert block_conjugators(block) == wrap_by_wrap_conjugators(block), block
    for inverted in (False, True):
        block = nest(2100, inverted).letters
        assert block_conjugators(block) == wrap_by_wrap_conjugators(block)
    # the blocks of products of conjugates of rho, as certify meets them
    for _ in range(300):
        n = rng.choice((3, 4))
        product = random_rho_conjugate_product(rng, n)
        blocks = parse_semipalindrome_product(semidirect_normal_form(product, cancel=False).pure)
        for block in blocks:
            assert block_conjugators(block) == wrap_by_wrap_conjugators(block)


def test_prefix_conjugators_multiply_back_to_their_block():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.choice((3, 4))
        block = mixed_wrap_block(rng, n, rng.randint(0, 10))
        cert = Certificate(n, tuple(GeneratorWord(n, c) for c in block_conjugators(block)))
        assert verify_certificate(cert, GeneratorWord(n, block))


def test_random_products_draw_as_a_factor_loop():
    # the sampler's rng draws (and so every seeded corpus) are pinned
    for seed in range(20):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        n = 3 + seed % 2
        expected = GeneratorWord(n)
        for _ in range(ref_rng.randint(1, 6)):
            conj = random_pure_word_reference(ref_rng, n, 0, 10)
            expected = expected * conj * rho(n) * conj.inverse()
        assert random_rho_conjugate_product(rng, n) == expected
        assert rng.random() == ref_rng.random()


def test_verify_examples():
    ok = verify_certificate(
        Certificate(3, (gw("a[1,2]"), GeneratorWord(3))), gw("a[1,2] a[1,2]")
    )
    assert ok
    assert verify_certificate(Certificate(3, (GeneratorWord(3),)), rho(3))
    assert not verify_certificate(Certificate(3, (GeneratorWord(3),)), gw("a[1,2]"))
    with pytest.raises(WordError):
        verify_certificate(Certificate(4, ()), gw("a[1,2]"))


def test_verify_refutes_equal_invariants_with_unequal_pure_parts():
    # both sides have the trivial permutation and invert every generator,
    # but their pure parts e and a[1,2] differ by a[1,2], which is no inner
    # automorphism
    cert = Certificate(3, (GeneratorWord(3),))
    assert not verify_certificate(cert, gw("a[1,2] r[1] r[2] r[3]"))
    # a[2,1] a[3,1] acts as conjugation by g_1, so that residue confirms
    assert verify_certificate(cert, gw("a[2,1] a[3,1] r[1] r[2] r[3]"))


def test_product_word_refuses_a_conjugator_of_another_rank():
    for conjugator in (gw("a[4,1]", 4), gw("a[1,2]", 2)):
        cert = Certificate(3, (conjugator,))
        with pytest.raises(WordError, match="rank"):
            cert.product_word()
        with pytest.raises(WordError, match="rank"):
            verify_certificate(cert, rho(3))


def test_certify_raises_when_its_certificate_fails_to_verify(monkeypatch):
    import symlift.kernel

    monkeypatch.setattr(symlift.kernel, "verify_certificate", lambda cert, target: False)
    with pytest.raises(RuntimeError, match="does not verify"):
        certify(gw("a[1,2] a[1,2]"))


def test_certify_soundness_on_random_products():
    rng = random.Random(321)
    for n in (3, 4):
        for _ in range(120):
            target = random_rho_conjugate_product(rng, n)
            cert = certify(target)
            assert cert is not None, str(target)
            assert verify_certificate(cert, target)
            v = kernel_verdict(target, "both")
            assert v.verdict == "in" and v.agree


def test_certify_mixed_wrap_shapes():
    # a (b^2) a^-1 then a (c^2) a: wrap types beyond plain mirror words
    word = gw("a[1,2] a[2,3] a[2,3] a[1,2]^-1 a[1,2] a[3,1] a[3,1] a[1,2]")
    cert = certify(word)
    assert cert is not None and verify_certificate(cert, word)


def test_certify_handles_cross_block_cancellation():
    # freely reduced concatenation of two mirror blocks stops being a
    # letterwise product of semipalindromes; the raw parse must save it
    word = gw("a[1,2] a[2,3] a[2,3] a[1,2] a[1,2]^-1 a[3,1] a[3,1] a[1,2]")
    cert = certify(word)
    assert cert is not None and verify_certificate(cert, word)


def test_certify_outer_trivial_fallback():
    # conjugation by the first generator, written as a product of moves
    inner_word = gw("a[2,1] a[3,1]")
    cert = certify(inner_word)
    assert cert is not None and cert.conjugators == ()
    assert verify_certificate(cert, inner_word)
    # conjugation by y1, y2 and y1 in turn: no relator level parses it, so
    # it gets the rho-parity alone, [] without rho and ["e"] with it
    word = gw("a[2,1] a[3,1] a[1,2] a[3,2] a[2,1] a[3,1]")
    assert certify(word) == Certificate(3, ())
    assert [str(c) for c in certify(word * rho(3)).conjugators] == ["e"]


def test_inner_relator_products_certify_at_either_rho_parity():
    rng = random.Random(5)
    for n in (3, 4):
        for _ in range(150):
            pure = GeneratorWord(n)
            for _ in range(rng.randint(3, 5)):
                rel = inner_relator(n, rng.randint(1, n))
                pure = pure * (rel if rng.random() < 0.5 else rel.inverse())
            for target in (pure, pure * rho(n)):
                status, cert = certify_status(target)
                assert status == "certified", str(target)
                assert verify_certificate(cert, target), str(target)


def test_certify_builds_relators_only_when_level_0_finds_no_parse(monkeypatch):
    import symlift.kernel as kernel_mod

    depth2 = gw("a[1,2]^-1 a[3,2] a[2,1]^-1 a[3,1]^-1")
    # an unreduced raw pure part: the search starts from its reduction and
    # finds the same certificate
    unreduced = gw("a[1,3] a[1,3]^-1 a[1,2]^-1 a[3,2] a[2,1]^-1 a[3,1]^-1")
    for target in (depth2, unreduced):
        assert [str(c) for c in certify(target).conjugators] == [
            "a[3,2]^-1 a[1,2]^-1", "a[3,2]^-1", "a[2,1]^-1 a[3,1]^-1", "e"
        ]

    def no_relators(rank):
        raise AssertionError("relators built")

    monkeypatch.setattr(kernel_mod, "_inner_relators", no_relators)
    assert certify(GeneratorWord(2000)) == Certificate(2000, ())
    rng = random.Random(654)
    for n in (3, 4, 6):
        for _ in range(60):
            target = random_rho_conjugate_product(rng, n)
            assert verify_certificate(certify(target), target)
    for target in (depth2, unreduced):
        with pytest.raises(AssertionError, match="relators built"):
            certify(target)


def test_certify_rejects_wrong_invariants():
    assert certify(gw("s[1,2]")) is None  # nontrivial permutation part
    assert certify(gw("r[1]")) is None  # mixed inversion vector
    assert certify(gw("r[1] r[2]")) is None


def test_no_certificate_for_a_mixed_inversion_vector_or_a_stray_last_letter():
    # the normal form keeps sigma and the inversion bits from index 1 and
    # slices slot 0 off; every stray letter here touches index n, so an
    # off-by-one at either end of that slice changes an answer
    rng = random.Random(1207)
    for n in (2, 3, 4, 5):
        r_n, s_1n = gw(f"r[{n}]", n), gw(f"s[1,{n}]", n)
        assert certify(gw("r[1]", n)) is None
        if n > 2:  # at rank 2, r[1] r[2] is rho itself
            assert certify(gw("r[1] r[2]", n)) is None
        for _ in range(25):
            product = random_rho_conjugate_product(rng, n)
            assert certify(product * r_n) is None, str(product)
            cert = certify(product)
            assert cert is not None and verify_certificate(cert, product), str(product)
            for extra in (s_1n, r_n):
                assert not verify_certificate(cert, product * extra), (str(product), str(extra))


def test_certificate_json_roundtrip():
    cert = certify(gw("a[1,2] a[1,2]"))
    data = cert.to_json()
    again = Certificate.from_json(data)
    assert again == cert


def test_theorem_c_products_stay_in_kernel_both_routes():
    rng = random.Random(55)
    for _ in range(60):
        target = random_rho_conjugate_product(rng, 3)
        v = kernel_verdict(target, "both")
        assert v.verdict == "in" and v.agree


def _random_single_inversion_product(rng, n, factors, conj_len):
    pure = [l for l in all_letters(n) if l[0] == "a"]
    out = GeneratorWord(n)
    for _ in range(factors):
        conj = GeneratorWord(n, tuple(rng.choice(pure) for _ in range(rng.randint(0, conj_len))))
        out = out * conj * rho_i(n, rng.randint(1, n)) * conj.inverse()
    return out


def test_single_inversion_products_certify_when_residual_allows():
    # products of conjugates of individual inversions always sit in the
    # reduction kernel; they certify exactly when the inversion vector of
    # their normal form collapses to all-0 or all-1
    rng = random.Random(808)
    certified = skipped = 0
    while certified < 500:
        n = rng.choice((3, 4))
        target = _random_single_inversion_product(rng, n, rng.randint(1, 4), 8)
        assert kernel_verdict(target, "inner-in-H").verdict == "in"
        bits = set(semidirect_normal_form(target).rho)
        cert = certify(target)
        if bits in ({0}, {1}, set()):
            assert cert is not None and verify_certificate(cert, target)
            certified += 1
        else:
            assert cert is None
            skipped += 1
    assert skipped > 0
