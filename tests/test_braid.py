import collections
import itertools
import random
import time

import pytest

from reference import braid_inverse, image_word, is_identity, permutation
from symlift import braid
from symlift.braid import (
    MAX_SEARCH_WORDS,
    BraidWord,
    SearchReport,
    artin_action,
    bounded_kernel_search,
    eta_image,
    parse_braid,
    search_word_count,
)
from symlift.lift import reduce_mod
from symlift.symaut import (
    SymmetricAut,
    act_letters,
    canonical_image,
    compose,
    identity_aut,
    inner_witness_of,
)
from symlift.words import (
    WordError,
    free_context,
    identity,
    inner_conjugator,
    parse_word,
    torsion_context,
)

F3 = free_context(3)
H3 = torsion_context(3, 2)


def test_braid_word_reduction_and_parsing():
    # letters are kept as given; the unreduced word acts as its reduction
    b, reduced = BraidWord(3, (1, -1, 2)), BraidWord(3, (2,))
    assert b.letters == (1, -1, 2)
    assert artin_action(b) == artin_action(reduced)
    assert eta_image(b, 2) == eta_image(reduced, 2)
    assert parse_braid("1 2 -1", 3).letters == (1, 2, -1)
    assert parse_braid("e", 3).letters == ()
    with pytest.raises(WordError):
        BraidWord(3, (3,))
    with pytest.raises(WordError):
        parse_braid("x", 3)


def test_artin_generator_action():
    f = artin_action(BraidWord(3, (1,)))
    assert image_word(f, 1) == parse_word("y1 y2 y1^-1", F3)
    assert image_word(f, 2) == parse_word("y1", F3)
    assert image_word(f, 3) == parse_word("y3", F3)
    assert is_identity(artin_action(BraidWord(3)))


def test_braid_relations_exhaustive():
    for n in (2, 3, 4, 5):
        for i in range(1, n - 1):
            assert artin_action(BraidWord(n, (i, i + 1, i))) == artin_action(
                BraidWord(n, (i + 1, i, i + 1))
            )
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                assert artin_action(BraidWord(n, (i, j))) == artin_action(
                    BraidWord(n, (j, i))
                )


def test_inverse_braid_inverts_action():
    b = BraidWord(3, (1, -2, 1, 2))
    assert is_identity(compose(artin_action(b), artin_action(braid_inverse(b))))


def test_eta_examples():
    e = eta_image(BraidWord(3, (1,)), 2)
    assert image_word(e, 1) == parse_word("z1 z2 z1", H3)
    assert image_word(e, 2) == parse_word("z1", H3)
    assert is_identity(eta_image(BraidWord(3), 2))
    # the square of a generator reduces to a non-inner automorphism
    assert inner_witness_of(eta_image(BraidWord(3, (1, 1)), 2)) is None
    with pytest.raises(WordError):
        eta_image(BraidWord(3, (1,)), 1)


def test_eta_equals_reduced_free_action():
    rng = random.Random(11)
    for _ in range(400):
        strands, k = rng.randint(2, 5), rng.randint(2, 4)
        pool = [i for i in range(1, strands)] + [-i for i in range(1, strands)]
        b = BraidWord(strands, tuple(rng.choice(pool) for _ in range(rng.randint(0, 8))))
        assert eta_image(b, k) == reduce_mod(artin_action(b), k), (b, k)


def test_eta_is_homomorphism():
    rng = random.Random(4)
    for _ in range(100):
        u = BraidWord(3, tuple(rng.choice((1, 2, -1, -2)) for _ in range(rng.randint(0, 6))))
        v = BraidWord(3, tuple(rng.choice((1, 2, -1, -2)) for _ in range(rng.randint(0, 6))))
        uv = BraidWord(3, u.letters + v.letters)
        for k in (2, 3):
            assert eta_image(uv, k) == compose(eta_image(u, k), eta_image(v, k))


def test_central_braids_act_innerly_both_sides():
    # the full twist and generator squares at two strands are inner upstairs,
    # so the search must not mistake them for kernel elements
    full_twist = artin_action(BraidWord(3, (1, 2, 1, 2, 1, 2)))
    assert inner_witness_of(full_twist) is not None
    assert inner_witness_of(eta_image(BraidWord(2, (1, 1)), 2)) is not None
    assert inner_witness_of(artin_action(BraidWord(2, (1, 1)))) is not None


def test_search_reports_are_empty():
    for strands, modulus, max_len in ((2, 2, 4), (3, 2, 4), (3, 3, 3)):
        report = bounded_kernel_search(strands, modulus, max_len)
        assert report.flagged == ()
        assert report.words_checked > 0


def test_search_counts_reduced_words():
    report = bounded_kernel_search(2, 2, 4)
    # freely reduced words over one generator pair: 2 per length
    assert report.words_checked == 8
    report = bounded_kernel_search(3, 2, 3)
    assert report.words_checked == 4 + 4 * 3 + 4 * 9


def reference_search(strands: int, modulus: int, max_length: int) -> SearchReport:
    """The free-first search: carry the free images, reduce every word that
    is not inner upstairs.  Its mod-k inner test is looked up on the braid
    module, so a fault injected there reaches both searches."""
    fctx = free_context(strands)
    letters = sorted([i for i in range(1, strands)] + [-i for i in range(1, strands)])
    steps = {l: braid._generator_word(BraidWord(strands, (l,))).letters for l in letters}
    flagged, checked, trivial = [], 0, 0
    stack = [((), identity_aut(fctx))]
    while stack:
        word, aut = stack.pop()
        if len(word) >= max_length:
            continue
        for l in letters:
            if word and word[-1] == -l:
                continue
            new_word = word + (l,)
            images = list(aut.images)
            act_letters(images, steps[l], fctx)
            new_aut = SymmetricAut(fctx, tuple(images))
            checked += 1
            if is_identity(new_aut):
                trivial += 1
            elif inner_witness_of(new_aut) is None:
                reduced = reduce_mod(new_aut, modulus)
                if braid.inner_conjugator(reduced.images, reduced.ctx) is not None:
                    flagged.append(" ".join(map(str, new_word)))
            stack.append((new_word, new_aut))
    flagged.sort()
    return SearchReport(strands, modulus, max_length, checked, trivial, tuple(flagged))


SEARCHES = [(n, k, length) for n, length in ((2, 8), (3, 6), (4, 4), (5, 3)) for k in (2, 3, 4)]


@pytest.mark.parametrize("strands,modulus,max_length", SEARCHES)
def test_search_matches_free_first_reference(strands, modulus, max_length):
    report = bounded_kernel_search(strands, modulus, max_length)
    assert report == reference_search(strands, modulus, max_length)
    assert report.words_checked == search_word_count(strands, max_length)


def inversion_count(perm: tuple[int, ...]) -> int:
    return sum(1 for x, y in itertools.combinations(perm, 2) if x > y)


def braid_letters(strands: int) -> list[int]:
    return [l for l in range(1 - strands, strands) if l]


def all_words(strands: int, max_length: int) -> list[tuple[int, ...]]:
    """Every freely reduced braid word of length 1..max_length, by brute force."""
    pool = [i for i in range(1, strands)] + [-i for i in range(1, strands)]
    return [
        word
        for length in range(1, max_length + 1)
        for word in itertools.product(pool, repeat=length)
        if all(x != -y for x, y in zip(word, word[1:]))
    ]


def test_carried_images_are_the_reduced_free_action():
    for strands, modulus, max_length in ((2, 3, 6), (3, 2, 5), (3, 4, 4), (4, 3, 3)):
        seen = 0
        walk = braid._search_tree(strands, modulus, max_length, braid_letters(strands))
        for word, inversions, reduced in walk:
            free = artin_action(BraidWord(strands, word))
            assert inversions == inversion_count(permutation(free)), word
            to_go = max_length - len(word)
            if reduced is None:
                assert inversions > to_go, word
                seen += braid._subtree_words(strands, to_go)
            else:
                assert reduced == reduce_mod(free, modulus).images, word
                seen += 1
        assert seen == search_word_count(strands, max_length)


def test_search_word_count_counts_every_freely_reduced_word():
    # one closed form for every strand count, 2 strands included
    for strands, max_length in ((2, 1), (2, 9), (3, 1), (3, 6), (4, 4), (5, 3)):
        assert search_word_count(strands, max_length) == len(all_words(strands, max_length))


def test_evaluated_words_are_those_that_can_still_reach_a_pure_braid():
    for strands, modulus, max_length in ((2, 2, 7), (3, 3, 5), (4, 2, 4)):
        reachable = set()
        pruned = set()
        for word in all_words(strands, max_length):
            # room[d]: the prefix of d + 1 letters has at most as many
            # inversions as letters still to go
            counts = [
                inversion_count(permutation(artin_action(BraidWord(strands, word[:d]))))
                for d in range(1, len(word) + 1)
            ]
            room = [counts[d] <= max_length - d - 1 for d in range(len(word))]
            if all(room):
                reachable.add(word)
            elif all(room[:-1]):
                pruned.add(word)
        walked = list(braid._search_tree(strands, modulus, max_length, braid_letters(strands)))
        assert {w for w, _, reduced in walked if reduced is not None} == reachable
        assert {w for w, _, reduced in walked if reduced is None} == pruned
        assert len(walked) == len(reachable) + len(pruned)


def test_evaluated_word_counts():
    # (words evaluated, pure words among them) in the subtrees that the
    # benchmark's two searches walk, of 4,686 and 4,372 words; their full
    # trees evaluate 216 and 712 words, 116 and 372 of them pure.  A word's
    # inversion count has the parity of its length, so no word of odd length
    # is pure: (3,2,7) evaluates what (3,2,6) does, and only an even
    # max_length tells a prune at count >= letters to go from the exact
    # count > letters to go
    for params, evaluated, pure in (
        ((4, 2, 5), 40 + 28, 22 + 14),
        ((3, 2, 7), 178, 93),
        ((3, 2, 6), 178, 93),
    ):
        roots = braid._first_letter_orbits(params[0])
        walked = [(inversions, reduced) for _, inversions, reduced in braid._search_tree(*params, roots)]
        assert sum(reduced is not None for _, reduced in walked) == evaluated
        assert sum(reduced is not None and not inversions for inversions, reduced in walked) == pure
        # the full tree evaluates as many words below each letter of an
        # orbit as below its representative, and as many pure words
        full = collections.Counter()
        for word, inversions, reduced in braid._search_tree(*params, braid_letters(params[0])):
            if reduced is not None:
                full[word[0], not inversions] += 1
        for root, orbit in roots.items():
            for letter in orbit:
                assert full[letter, False] == full[root, False] and full[letter, True] == full[root, True]
        assert sum(full.values()) == {(4, 2, 5): 216, (3, 2, 7): 712, (3, 2, 6): 712}[params]


def test_mod_k_inner_test_runs_only_on_pure_words(monkeypatch):
    tested = []

    def counted(images, ctx):
        if not ctx.is_free:
            tested.append(tuple(target for _, target, _ in images))
        return inner_conjugator(images, ctx)

    monkeypatch.setattr(braid, "inner_conjugator", counted)
    # the pure words of the walked subtrees (test_evaluated_word_counts)
    for params, pure in (((4, 2, 5), 36), ((3, 2, 7), 93)):
        tested.clear()
        bounded_kernel_search(*params)
        assert len(tested) == pure
        assert set(tested) == {tuple(range(1, params[0] + 1))}


def test_free_action_evaluated_only_for_words_inner_mod_k(monkeypatch):
    # every free action the search builds is one act_letters call, stepped
    # from the identity or from the word two letters shorter; only the
    # subtrees of the orbit representatives, 1 to n // 2, are walked
    built = []
    act = braid.act_letters

    def stepped(images, letters, ctx):
        act(images, letters, ctx)
        if ctx.is_free:
            built.append(tuple(images))

    monkeypatch.setattr(braid, "act_letters", stepped)
    for strands, modulus, max_length in ((2, 3, 6), (3, 2, 6), (3, 3, 6), (4, 2, 4)):
        built.clear()
        bounded_kernel_search(strands, modulus, max_length)
        inner = [
            word
            for word in all_words(strands, max_length)
            if 0 < word[0] <= strands // 2
            and inner_witness_of(eta_image(BraidWord(strands, word), modulus)) is not None
        ]
        expected = [artin_action(BraidWord(strands, word)).images for word in inner]
        assert collections.Counter(built) == collections.Counter(expected) and inner


def test_two_strand_search_steps_each_power_from_the_last(monkeypatch):
    # every even power of s1 is inner mod k; only the positive powers are
    # walked (the mirror carries them onto the negative ones), s1^2 is
    # stepped from the identity, and each later power from its
    # predecessor's images by two braid letters
    from_identity = []
    act = braid.act_letters

    def counted(images, letters, ctx):
        letters = list(letters)
        if ctx.is_free and images == list(identity_aut(ctx).images):
            from_identity.append(len(letters))
        act(images, letters, ctx)

    monkeypatch.setattr(braid, "act_letters", counted)
    for modulus in (2, 3):
        from_identity.clear()
        report = bounded_kernel_search(2, modulus, 40)
        assert from_identity == [4]
        assert report == reference_search(2, modulus, 40)


@pytest.mark.parametrize("strands,modulus,max_length", [(2, 2, 8), (3, 2, 6), (4, 2, 4)])
def test_search_builds_no_braid_word_or_scratch_evaluation(monkeypatch, strands, modulus, max_length):
    # every image list comes from the letter table and act_letters alone
    expected = reference_search(strands, modulus, max_length)

    def forbidden(*args, **kwargs):
        raise AssertionError("the search built a braid word or evaluated one from scratch")

    for name in ("artin_action", "_generator_word", "BraidWord", "eval_generator_word"):
        monkeypatch.setattr(braid, name, forbidden)
    report = bounded_kernel_search(strands, modulus, max_length)
    monkeypatch.undo()
    assert report == expected


def test_lossy_mod_k_test_flags_the_same_braids_in_both_searches(monkeypatch):
    # a broken mod-k inner test: every torsion automorphism with the identity
    # permutation reads as inner, so pure braids like s1^2 are flagged from 3
    # strands on (at 2 strands every pure braid is inner upstairs).  The
    # flagged words begin with every letter, so the search must map its
    # representatives' flagged words through orbits of 4 letters and of 2
    def lossy(images, ctx):
        pure = tuple(target for _, target, _ in images) == tuple(range(1, ctx.rank + 1))
        if not ctx.is_free and pure:
            return identity(ctx)
        return inner_conjugator(images, ctx)

    monkeypatch.setattr(braid, "inner_conjugator", lossy)
    for strands, modulus, max_length in ((2, 2, 8), (2, 3, 6), (3, 2, 4), (3, 3, 4), (4, 2, 3), (4, 4, 3)):
        report = bounded_kernel_search(strands, modulus, max_length)
        assert report == reference_search(strands, modulus, max_length)
        first_letters = {int(word.split()[0]) for word in report.flagged}
        assert first_letters == (set(braid_letters(strands)) if strands > 2 else set())


def half_twist(strands: int) -> BraidWord:
    """(s1 ... s_{n-1})(s1 ... s_{n-2}) ... (s1)."""
    return BraidWord(strands, tuple(i for top in range(strands - 1, 0, -1) for i in range(1, top + 1)))


@pytest.mark.parametrize("strands", [2, 3, 4, 5, 6])
def test_flip_and_mirror_flip_are_conjugations_in_aut_fn(strands):
    # the flip s_i -> s_{n-i} is conjugation by the half twist D, and
    # s_i -> s_{n-i}^-1 is conjugation by theta: y_j -> y_{n+1-j}^-1
    fctx = free_context(strands)
    theta = SymmetricAut(
        fctx, tuple(canonical_image(identity(fctx), strands + 1 - j, -1) for j in range(1, strands + 1))
    )
    assert is_identity(compose(theta, theta))
    twist = artin_action(half_twist(strands))
    twist_inverse = artin_action(braid_inverse(half_twist(strands)))
    for i in range(1, strands):
        s_i = artin_action(BraidWord(strands, (i,)))
        assert compose(twist, compose(s_i, twist_inverse)) == artin_action(BraidWord(strands, (strands - i,)))
        assert compose(theta, compose(s_i, theta)) == artin_action(BraidWord(strands, (i - strands,)))


def test_mirror_and_flip_keep_every_search_predicate():
    # pure, inner mod k, trivial and inner upstairs agree on w, mu(w) and
    # phi(w) for every freely reduced word: 17,232 (word, image, k) triples
    pairs = 0
    for strands, max_length in ((2, 12), (3, 6), (4, 4), (5, 3)):
        orbits = braid._first_letter_orbits(strands)
        assert sorted(l for orbit in orbits.values() for l in orbit) == braid_letters(strands)
        assert all(len(orbit) == (2 if 2 * root == strands else 4) for root, orbit in orbits.items())
        words = all_words(strands, max_length)
        upstairs = {}
        for word in words:
            free = artin_action(BraidWord(strands, word))
            upstairs[word] = (permutation(free), is_identity(free), inner_witness_of(free) is not None)
        for modulus in (2, 3, 4):
            downstairs = {
                word: inner_witness_of(eta_image(BraidWord(strands, word), modulus)) is not None
                for word in words
            }
            for word in words:
                pure = upstairs[word][0] == tuple(range(1, strands + 1))
                for image in (
                    tuple(-l for l in word),
                    tuple((strands - abs(l)) * (1 if l > 0 else -1) for l in word),
                ):
                    image_pure = upstairs[image][0] == tuple(range(1, strands + 1))
                    assert (pure, *upstairs[word][1:]) == (image_pure, *upstairs[image][1:]), word
                    assert downstairs[word] == downstairs[image], (word, modulus)
                    pairs += 1
    assert pairs == 17_232


@pytest.mark.parametrize(
    "strands,max_length,words,trivial", [(3, 12, 1_062_880, 1_944), (4, 8, 585_936, 912)]
)
def test_largest_searches_at_the_limit(strands, max_length, words, trivial):
    # the two largest searches the budget accepts at 3 and 4 strands, as the
    # exhaustive walk reported them
    report = bounded_kernel_search(strands, 2, max_length)
    assert (report.words_checked, report.trivial_braids_skipped, report.flagged) == (words, trivial, ())


def no_work(*args):
    raise AssertionError("search started")


def test_search_rejects_bad_parameters_before_any_work(monkeypatch):
    monkeypatch.setattr(braid, "_search_tree", no_work)
    for args, message in (
        ((1, 2, 3), "2 strands"),
        ((3, 1, 3), "modulus must be >= 2"),
        ((3, 0, 3), "modulus must be >= 2"),
        ((3, 2, 0), "max_length"),
    ):
        with pytest.raises(WordError, match=message):
            bounded_kernel_search(*args)


def test_search_budget(monkeypatch):
    monkeypatch.setattr(braid, "_search_tree", no_work)
    assert search_word_count(2, 5) == 10
    assert search_word_count(4, 12) == 366_210_936
    assert search_word_count(4, 6) < MAX_SEARCH_WORDS // 50
    start = time.perf_counter()
    with pytest.raises(WordError) as exc:
        bounded_kernel_search(4, 2, 12)
    assert "366,210,936" in str(exc.value) and f"{MAX_SEARCH_WORDS:,}" in str(exc.value)
    for args in ((2, 2, MAX_SEARCH_WORDS), (3, 2, 10**9), (10**6, 2, 2)):
        with pytest.raises(WordError, match="over the limit"):
            bounded_kernel_search(*args)
    # at 2 strands the search costs time quadratic in its length, and the
    # square is charged: 1,414^2 fits the limit and 1,415^2 does not
    with pytest.raises(AssertionError, match="search started"):
        bounded_kernel_search(2, 2, 1414)
    with pytest.raises(WordError) as exc:
        bounded_kernel_search(2, 2, 1415)
    assert "length 1415" in str(exc.value) and f"{MAX_SEARCH_WORDS:,}" in str(exc.value)
    # within the budget, strands are capped as every command that builds n
    # images caps the rank
    with pytest.raises(AssertionError, match="search started"):
        bounded_kernel_search(1000, 2, 1)
    with pytest.raises(WordError, match="limited to rank <= 1000, not 1001"):
        bounded_kernel_search(1001, 2, 1)
    assert time.perf_counter() - start < 1.0
