import random

import pytest
from hypothesis import given, strategies as st

from symlift.kernel import (
    Certificate,
    certify,
    is_semipalindrome,
    parse_semipalindrome_product,
    random_rho_conjugate_product,
    rho_normal_form,
    verify_certificate,
)
from symlift.lift import kernel_verdict
from symlift.symaut import (
    GeneratorWord,
    eval_generator_word,
    outer_equal,
    parse_generator_word,
    rho,
)
from symlift.words import WordError, free_context

F3 = free_context(3)


def gw(text, n=3):
    return parse_generator_word(text, n)


# -- recognition ---------------------------------------------------------------


def test_parse_examples():
    d = parse_semipalindrome_product(gw("a[1,2] a[2,3] a[2,3] a[1,2]"))
    assert d is not None and len(d.blocks) == 1
    node = d.blocks[0]
    assert node.kind == "wrap_same" and node.letter == ("a", 1, 2, 1)
    assert node.inner.kind == "wrap_same" and node.inner.inner.kind == "empty"
    assert parse_semipalindrome_product(gw("a[1,2]")) is None
    d = parse_semipalindrome_product(gw("a[1,2] a[1,2] a[2,3] a[2,3]"))
    assert d is not None
    assert [str(w) for w in d.block_words()] == ["a[1,2] a[1,2]", "a[2,3] a[2,3]"]


def test_parse_rejects_non_conjugation_letters():
    with pytest.raises(WordError):
        parse_semipalindrome_product(gw("r[1]"))


def test_wrap_inverse_form_recognized():
    assert is_semipalindrome(gw("a[1,2] a[2,3] a[2,3] a[1,2]^-1"))
    assert not is_semipalindrome(gw("a[1,2] a[2,3]"))


@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=9))
def test_odd_length_words_never_parse(codes):
    pairs = [(1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)]
    letters = tuple(
        ("a", *pairs[c], 1 if pos else -1) for c, pos in codes
    )
    if len(letters) % 2 == 1:
        assert parse_semipalindrome_product(GeneratorWord(3, letters)) is None


def test_derivation_recomposes_letters():
    word = gw("a[1,2] a[2,3] a[2,3] a[1,2] a[3,1] a[3,1]")
    d = parse_semipalindrome_product(word)
    assert d is not None and d.letters() == word.letters


# -- normal form ---------------------------------------------------------------


def test_rho_normal_form_examples():
    nf = rho_normal_form(gw("r[1] a[1,2] r[1]"))
    assert nf.rho_bits == (0, 0, 0) and nf.perm == (1, 2, 3)
    assert str(nf.residual) == "a[1,2]"  # one letter cannot be a semipalindrome
    nf = rho_normal_form(gw("a[1,2] r[2] a[1,2] r[2]"))
    assert nf.semiparts == () and not nf.residual.letters
    assert nf.rho_bits == (0, 0, 0)
    # the r[2] does not flip a[1,3], so the pure part cancels entirely
    nf = rho_normal_form(gw("a[1,3] r[2] a[1,3]^-1"))
    assert nf.rho_bits == (0, 1, 0) and not nf.residual.letters
    assert nf.semiparts == ()


def test_rho_normal_form_recomposition_outer_equal():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.choice((3, 4))
        gw_in = random_rho_conjugate_product(rng, n, max_factors=3, max_conj_len=5)
        nf = rho_normal_form(gw_in)
        ctx = free_context(n)
        assert outer_equal(
            eval_generator_word(nf.recompose(), ctx), eval_generator_word(gw_in, ctx)
        )


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
    d = parse_semipalindrome_product(word)
    assert d is not None and len(d.blocks) == 1
    assert d.letters() == word.letters
    # a deep wrap_inv nest certifies through every level of the derivation
    word = nest(2100, inverted=True)
    cert = certify(word)
    assert cert is not None and verify_certificate(cert, word)


def test_verify_examples():
    ok = verify_certificate(
        Certificate(3, (gw("a[1,2]"), GeneratorWord(3))), gw("a[1,2] a[1,2]")
    )
    assert ok
    assert verify_certificate(Certificate(3, (GeneratorWord(3),)), rho(3))
    assert not verify_certificate(Certificate(3, (GeneratorWord(3),)), gw("a[1,2]"))
    with pytest.raises(WordError):
        verify_certificate(Certificate(4, ()), gw("a[1,2]"))


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


def test_certify_rejects_wrong_invariants():
    assert certify(gw("s[1,2]")) is None  # nontrivial permutation part
    assert certify(gw("r[1]")) is None  # mixed inversion vector
    assert certify(gw("r[1] r[2]")) is None


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
    from symlift.symaut import all_letters, rho_i

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
        bits = set(rho_normal_form(target).rho_bits)
        cert = certify(target)
        if bits in ({0}, {1}, set()):
            assert cert is not None and verify_certificate(cert, target)
            certified += 1
        else:
            assert cert is None
            skipped += 1
    assert skipped > 0
