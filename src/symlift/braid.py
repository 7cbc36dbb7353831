"""Braids acting on free groups, and their reductions mod k.

The generator ``s_i`` acts by ``y_i -> y_i y_{i+1} y_i^{-1}``,
``y_{i+1} -> y_i`` (one of the two mirror conventions; both satisfy the braid
relations, and the kernel searches below are convention-independent).  Its
word in the presentation letters is ``s[i,i+1] a[i,i+1]``, so a braid is
evaluated letter by letter by the symmetric automorphism machinery, in the
free group or directly in a free product of cyclic groups.  A
:class:`BraidWord` keeps its letters as given: ``s_i s_i^-1`` evaluates to
the identity, so free reduction would not change any action.

Reducing generators mod k gives an action on the free product of cyclic
groups.  It is evaluated in the torsion context itself: projecting
conjugators mod k commutes with every letter action, and trailing
target syllables are absorbed on both sides, so this equals reducing the
free-group action.  The bounded search looks for braids that act non-innerly
on the free group but innerly after reduction: any such braid would be a
nontrivial element of the reduced outer action's kernel.  A braid that is
trivial or inner on the free group is inner mod k, so the search decides mod
k first and evaluates the free action only for the few words that are inner
mod k.  An inner automorphism fixes every generator's class, so only pure
braids (identity permutation) can be inner mod k.  Each letter moves the
permutation's inversion count by exactly one, so a word whose count exceeds
the letters still allowed has no pure braid below it, and the search counts
that subtree in closed form instead of walking it.  Braid triviality itself
is decided through the faithfulness of the free-group action, so
braid-relation ghosts (freely reduced words representing the trivial braid)
are never miscounted.

Two letter maps let the search walk one first letter per orbit.  The flip
``phi(s_i) = s_{n-i}`` is conjugation by the half twist D, since
``D s_i D^-1 = s_{n-i}``: the action of ``phi(b)`` is that of b conjugated
by that of D, in the free group and mod k alike.  The map
``s_i -> s_{n-i}^-1`` acts as conjugation by ``theta: y_j -> y_{n+1-j}^-1``
(``theta A(s_i) theta^-1 = A(s_{n-i}^-1)``), and theta keeps the normal
closure of the k-th powers, so it induces the same conjugation mod k.  The
mirror ``mu(s_i) = s_i^-1`` is that map after ``phi``, so it acts by
conjugation too.  A conjugate of an automorphism is the identity, or inner,
exactly when the automorphism is, so ``mu`` and ``phi`` keep every
predicate the search tests.  ``mu`` keeps a word's permutation and ``phi``
conjugates it by the reversal, so every prefix keeps its inversion count
and the pruning treats both words alike.  Both maps carry the freely
reduced words that begin with one letter onto those, of the same lengths,
that begin with its image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .symaut import (
    MAX_EVAL_RANK,
    GeneratorWord,
    Image,
    Letter,
    SymmetricAut,
    act_letters,
    eval_generator_word,
    identity_aut,
)
from .words import WordError, check_rank, free_context, inner_conjugator, torsion_context

# Most freely reduced braid words one bounded_kernel_search may enumerate;
# larger searches are refused before they start.  At 3 strands, the slowest,
# a search at the limit (length 12, 1,062,880 words) takes about 1.1-1.2 s on
# one core of a 2-core x86-64 host.  At 2 strands the images grow with the word
# and each word costs time linear in them, so the search costs time
# quadratic in max_length: it is charged max_length ** 2 against the same
# limit, which accepts length 1,414 (about 0.2 s) and refuses 1,415.
MAX_SEARCH_WORDS = 2_000_000


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid generators; letter i is s_i, letter -i is
    s_i^{-1}.  The letters are kept as given: a word and its free reduction
    evaluate to the same automorphism."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise WordError("braid groups need at least 2 strands")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise WordError(f"braid letter {letter} out of range")


def parse_braid(text: str, strands: int) -> BraidWord:
    """The braid word ``text`` spells on ``strands`` strands; more than
    :data:`~symlift.symaut.MAX_EVAL_RANK` strands are refused before any
    token is read."""
    check_rank(strands, MAX_EVAL_RANK, "automorphism images")
    text = text.strip()
    if text in ("", "e"):
        return BraidWord(strands)
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise WordError(f"bad braid word {text!r}: integers expected") from exc
    return BraidWord(strands, letters)


def _step(l: int) -> tuple[Letter, Letter]:
    """The presentation letters of braid letter ``l``: s_i is
    ``s[i,i+1] a[i,i+1]`` and s_i^-1 is ``a[i,i+1]^-1 s[i,i+1]``."""
    i = abs(l)
    if l > 0:
        return ("s", i, i + 1), ("a", i, i + 1, 1)
    return ("a", i, i + 1, -1), ("s", i, i + 1)


def _generator_word(b: BraidWord) -> GeneratorWord:
    return GeneratorWord(b.strands, tuple(x for l in b.letters for x in _step(l)))


def artin_action(b: BraidWord) -> SymmetricAut:
    """The braid as a symmetric automorphism of the free group."""
    return eval_generator_word(_generator_word(b), free_context(b.strands))


def eta_image(b: BraidWord, k: int) -> SymmetricAut:
    """The braid's action after reducing every generator mod ``k``,
    evaluated directly in the free product of cyclic groups of order ``k``."""
    return eval_generator_word(_generator_word(b), torsion_context(b.strands, k))


@dataclass(frozen=True)
class SearchReport:
    strands: int
    modulus: int
    max_length: int
    words_checked: int
    trivial_braids_skipped: int
    flagged: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "strands": self.strands,
            "modulus": self.modulus,
            "max_length": self.max_length,
            "words_checked": self.words_checked,
            "trivial_braids_skipped": self.trivial_braids_skipped,
            "flagged": list(self.flagged),
        }


def search_word_count(strands: int, max_length: int) -> int:
    """Freely reduced braid words of length 1..``max_length``: each of the
    ``2(n-1)`` first letters roots a subtree of :func:`_subtree_words`."""
    return 2 * (strands - 1) * _subtree_words(strands, max_length - 1)


def check_search(strands: int, modulus: int, max_length: int) -> None:
    """Refuse a malformed or over-budget search before doing any work.  The
    budget counts words, except at 2 strands, where it counts
    ``max_length ** 2``.  Within it, more than
    :data:`~symlift.symaut.MAX_EVAL_RANK` strands are refused, as by every
    command that builds n images."""
    if strands < 2:
        raise WordError("braid groups need at least 2 strands")
    if max_length < 1:
        raise WordError("max_length must be >= 1")
    if modulus < 2:
        raise WordError(f"modulus must be >= 2, got {modulus}")
    letters = 2 * (strands - 1)
    if letters == 2:
        # each power of s1 costs time linear in its length: charge the square
        if max_length**2 > MAX_SEARCH_WORDS:
            raise WordError(
                f"braid search at 2 strands up to length {max_length} costs time quadratic in "
                f"the length: {max_length:,}^2 = {max_length**2:,}, over the limit of "
                f"{MAX_SEARCH_WORDS:,}"
            )
    else:
        # the count exceeds (2n-3)^max_length: past 10^30 it is not worth building
        if max_length * math.log10(letters - 1) > 30:
            size = "more than 10^30"
        else:
            count = search_word_count(strands, max_length)
            size = f"{count:,}" if count > MAX_SEARCH_WORDS else None
        if size is not None:
            raise WordError(
                f"braid search at {strands} strands up to length {max_length} covers {size} "
                f"words, over the limit of {MAX_SEARCH_WORDS:,}"
            )
    check_rank(strands, MAX_EVAL_RANK, "automorphism images")


def _subtree_words(strands: int, depth: int) -> int:
    """Words in the search tree below and including one word with ``depth``
    letters still to go: ``sum((2n-3)^j for j <= depth)``, in closed form."""
    branching = 2 * strands - 3
    if branching == 1:
        return depth + 1
    return (branching ** (depth + 1) - 1) // (branching - 1)


def _search_tree(
    strands: int, modulus: int, max_length: int, first_letters: Iterable[int]
) -> Iterator[tuple[tuple[int, ...], int, Optional[tuple[Image, ...]]]]:
    """The freely reduced braid words of length 1..``max_length`` that begin
    with one of ``first_letters``, depth first, as ``(word, inversions,
    mod-k images)``, where ``inversions`` is the inversion count of the
    word's permutation.

    Each letter swaps the targets at two adjacent positions, so it moves the
    inversion count by exactly one, read off the parent's targets.  A word
    whose count exceeds the letters still to go has no pure braid below it:
    it is yielded with images None and its subtree (``_subtree_words`` words)
    is not walked.  Every other word's images are its parent's advanced by
    the last letter's two presentation letters (:func:`_step`) through
    :func:`act_letters`, so a word costs one step, not an evaluation.  The
    images are the ``(conjugator, target, sign)`` tuple that step builds,
    canonical by construction, so no ``SymmetricAut`` is built or validated
    per word.  A kept word's parent is always kept, as its count differs by
    one and it has one more letter to go.
    """
    tctx = torsion_context(strands, modulus)
    letters = sorted([i for i in range(1, strands)] + [-i for i in range(1, strands)])
    stack: list[tuple[tuple[int, ...], int, tuple]] = [((), 0, identity_aut(tctx).images)]
    while stack:
        word, inversions, images = stack.pop()
        to_go = max_length - len(word) - 1
        for l in letters if word else first_letters:
            if word and word[-1] == -l:
                continue
            i = abs(l)
            new_word = word + (l,)
            new_inversions = inversions + (1 if images[i - 1][1] < images[i][1] else -1)
            if new_inversions > to_go:
                yield new_word, new_inversions, None
                continue
            stepped = list(images)
            act_letters(stepped, _step(l), tctx)
            new_images = tuple(stepped)
            yield new_word, new_inversions, new_images
            if to_go:
                stack.append((new_word, new_inversions, new_images))


def _first_letter_orbits(strands: int) -> dict[int, dict[int, dict[int, int]]]:
    """For each orbit of first letters under the mirror ``l -> -l`` and the
    flip ``l -> sgn(l)(n - |l|)``, its smallest positive letter, mapped to
    one letter map per letter of the orbit that carries the representative
    there.  The orbit of i is ``{+-i, +-(n - i)}``: 4 letters, or 2 when
    ``i = n - i``."""
    flip = {l: (strands - abs(l)) * (1 if l > 0 else -1) for l in range(1 - strands, strands) if l}
    symmetries = ({l: l for l in flip}, {l: -l for l in flip}, flip, {l: -m for l, m in flip.items()})
    orbits: dict[int, dict[int, dict[int, int]]] = {}
    for root in range(1, strands // 2 + 1):
        orbits[root] = {}
        for g in symmetries:
            orbits[root].setdefault(g[root], g)
    return orbits


def bounded_kernel_search(strands: int, modulus: int, max_length: int) -> SearchReport:
    """Search for outer-kernel elements of the reduced braid action.

    Enumerates freely reduced braid words up to ``max_length`` and flags any
    braid that acts non-innerly on the free group (so it is outer-nontrivial;
    central braids like the full twist act innerly and are excluded) while
    its mod-k image acts innerly.  Injectivity of the reduced action predicts
    an empty flag list.

    The mirror and the flip (module docstring) carry the subtree of one
    first letter onto that of every letter of its orbit, keeping each word's
    length and every predicate the search tests.  So only the subtree of
    each orbit's representative is walked (:func:`_first_letter_orbits`):
    each of its words counts once per letter of the orbit, and each flagged
    word is reported through every map of the orbit.

    Only the mod-k images are carried from word to word.  Reduction maps
    the identity to the identity and inner automorphisms to inner ones, so a
    word that is not inner mod k is neither trivial nor flagged.  Inner
    images have the identity permutation, so the walk (:func:`_search_tree`)
    evaluates only the words that can still reach a pure braid within
    ``max_length`` and counts every other subtree without walking it;
    ``words_checked`` is the tally of both.  Only pure words get the mod-k
    inner test, and the free action is evaluated only for words that are
    inner mod k.  One :func:`act_letters` call builds its free images from
    the letter table :func:`_step`: it steps those of the word two letters
    shorter by the last two letters when that word was evaluated too (at 2
    strands every even power of s1 is, so each costs one step linear in its
    images), else a copy of the identity images by all of the word's
    letters; no ``BraidWord`` or ``SymmetricAut`` is built.  Raises
    ``WordError`` for malformed parameters, for searches over
    :data:`MAX_SEARCH_WORDS` words, or at 2 strands over it in
    ``max_length ** 2``, and for more than
    :data:`~symlift.symaut.MAX_EVAL_RANK` strands.
    """
    check_search(strands, modulus, max_length)
    tctx = torsion_context(strands, modulus)
    fctx = free_context(strands)
    identity = list(identity_aut(fctx).images)
    subtree_words = [_subtree_words(strands, depth) for depth in range(max_length + 1)]
    orbits = _first_letter_orbits(strands)
    flagged: list[str] = []
    checked = 0
    trivial = 0
    # free images of the evaluated words, each list kept until a word two
    # letters longer advances it
    free_images: dict[tuple[int, ...], list[Image]] = {}
    for word, inversions, reduced in _search_tree(strands, modulus, max_length, orbits):
        orbit = orbits[word[0]]
        if reduced is None:
            checked += len(orbit) * subtree_words[max_length - len(word)]
            continue
        checked += len(orbit)
        if inversions or inner_conjugator(reduced, tctx) is None:
            continue
        stored = free_images.pop(word[:-2], None)
        images, tail = (list(identity), word) if stored is None else (stored, word[-2:])
        act_letters(images, [x for l in tail for x in _step(l)], fctx)
        free_images[word] = images
        if images == identity:
            trivial += len(orbit)
        elif inner_conjugator(images, fctx) is None:
            flagged.extend(" ".join(str(g[l]) for l in word) for g in orbit.values())
    flagged.sort()
    return SearchReport(strands, modulus, max_length, checked, trivial, tuple(flagged))
