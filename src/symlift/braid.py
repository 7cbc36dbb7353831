"""Braids acting on free groups, and their reductions mod k.

The generator ``s_i`` acts by ``y_i -> y_i y_{i+1} y_i^{-1}``,
``y_{i+1} -> y_i`` (one of the two mirror conventions; both satisfy the braid
relations, and the kernel searches below are convention-independent).  Its
word in the presentation letters is ``s[i,i+1] a[i,i+1]``, so braid values
carry source words and compose within the symmetric automorphism machinery.

Reducing generators mod k gives an action on the free product of cyclic
groups.  The bounded search looks for braids that act non-innerly on the
free group but innerly after reduction: any such braid would be a nontrivial
element of the reduced outer action's kernel.  Braid triviality itself is
decided through the faithfulness of the free-group action, so braid-relation
ghosts (freely reduced words representing the trivial braid) are never
miscounted.
"""

from __future__ import annotations

from dataclasses import dataclass
from .symaut import (
    GeneratorWord,
    SymmetricAut,
    act_letters,
    eval_generator_word,
    identity_aut,
    inner_witness_of,
)
from .lift import reduce_mod
from .words import WordError, free_context


@dataclass(frozen=True)
class BraidWord:
    """Freely reduced word in the braid generators; letter i is s_i,
    letter -i is s_i^{-1}."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise WordError("braid groups need at least 2 strands")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise WordError(f"braid letter {letter} out of range")
        reduced = _free_reduce(self.letters)
        if reduced != self.letters:
            object.__setattr__(self, "letters", reduced)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise WordError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) or "e"


def _free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def parse_braid(text: str, strands: int) -> BraidWord:
    text = text.strip()
    if text in ("", "e"):
        return BraidWord(strands)
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise WordError(f"bad braid word {text!r}: integers expected") from exc
    return BraidWord(strands, letters)


def _generator_word(b: BraidWord) -> GeneratorWord:
    letters = []
    for l in b.letters:
        i = abs(l)
        if l > 0:
            letters.extend([("s", i, i + 1), ("a", i, i + 1, 1)])
        else:
            letters.extend([("a", i, i + 1, -1), ("s", i, i + 1)])
    return GeneratorWord(b.strands, tuple(letters))


def artin_action(b: BraidWord) -> SymmetricAut:
    """The braid as a symmetric automorphism of the free group."""
    return eval_generator_word(_generator_word(b), free_context(b.strands))


def eta_image(b: BraidWord, k: int) -> SymmetricAut:
    """The braid's action after reducing every generator mod ``k``."""
    if k < 2:
        raise WordError(f"modulus must be >= 2, got {k}")
    return reduce_mod(artin_action(b), k)


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


def bounded_kernel_search(strands: int, modulus: int, max_length: int) -> SearchReport:
    """Search for outer-kernel elements of the reduced braid action.

    Enumerates freely reduced braid words up to ``max_length`` and flags any
    braid that acts non-innerly on the free group (so it is outer-nontrivial;
    central braids like the full twist act innerly and are excluded) while
    its mod-k image acts innerly.  Injectivity of the reduced action predicts
    an empty flag list.
    """
    if strands < 2:
        raise WordError("braid groups need at least 2 strands")
    if max_length < 1:
        raise WordError("max_length must be >= 1")
    fctx = free_context(strands)
    letters = [i for i in range(1, strands)] + [-i for i in range(1, strands)]
    flagged: list[str] = []
    checked = 0
    trivial = 0

    steps = {l: _generator_word(BraidWord(strands, (l,))).letters for l in letters}
    stack: list[tuple[tuple[int, ...], SymmetricAut]] = [((), identity_aut(fctx))]
    while stack:
        word, aut = stack.pop()
        if len(word) >= max_length:
            continue
        for l in sorted(letters):
            if word and word[-1] == -l:
                continue
            new_word = word + (l,)
            # right-multiply by the step's two letters, updating images in place;
            # nothing below reads a source word, so none is kept
            images = list(aut.images)
            act_letters(images, steps[l], fctx)
            new_aut = SymmetricAut(fctx, tuple(images))
            checked += 1
            if new_aut.is_identity():
                trivial += 1
            elif inner_witness_of(new_aut) is None:
                h = reduce_mod(new_aut, modulus)
                if inner_witness_of(h) is not None:
                    flagged.append(" ".join(map(str, new_word)))
            stack.append((new_word, new_aut))
    flagged.sort()
    return SearchReport(strands, modulus, max_length, checked, trivial, tuple(flagged))
