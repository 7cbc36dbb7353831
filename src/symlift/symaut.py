"""Symmetric automorphisms as first-class values.

A symmetric automorphism sends each generator to a conjugate of a generator
(or of an inverse generator, in free contexts).  It is stored as one
``(conjugator, target, sign)`` triple per generator, with the conjugator in a
canonical form that never ends in a syllable of the target generator.

Automorphisms are usually built by evaluating a word in the presentation
letters

* ``a[i,j]``: conjugate generator i by generator j, fix the rest,
* ``r[i]``: invert generator i (the identity at torsion 2, refused at
  higher torsion),
* ``s[i,j]``: swap generators i and j,

and evaluation is a homomorphism: ``eval(uv) = eval(u) . eval(v)`` where
``.`` is composition acting on the right argument first.  An automorphism
holds only its images; to invert one, evaluate the inverse word.

Evaluation is letter-local: it keeps one list of images and updates it in
place for each letter (:func:`act_letters`).  An ``a``-letter rewrites one
conjugator in one tuple pass (:func:`~symlift.words.conjugation_step`), an
``s``-letter swaps two images and an ``r``-letter flips a sign, so a letter
costs time linear in the conjugators it touches.  Every
automorphism the other modules build comes from letters this way: a product
is the concatenated letter word.

:func:`compose` and :meth:`SymmetricAut.apply` stay on the general
substitute-and-decompose path: ``apply`` writes out every image's
syllables and reduces them with one :func:`~symlift.words.normalize`, which
shares no merge code with ``conjugation_step``.  Nothing outside this
module calls them: they are the independent reference the tests check
letter evaluation against.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .words import (
    GroupContext,
    Syllable,
    Word,
    WordError,
    check_rank,
    conjugation_step,
    coset_intersection,
    cyclic_reduce,  # perfbench/tests/test_tracing.py asserts this binding
    format_word,
    free_context,
    generator,
    generator_conjugate_shape,
    identity as identity_word,
    inner_conjugator,
    normalize,
    pinned_coset_element,
)

# letters are ("a", i, j, exp) with exp = +-1, ("r", i) and ("s", i, j)
Letter = tuple


def letter_inverse(letter: Letter) -> Letter:
    if letter[0] == "a":
        _, i, j, e = letter
        return ("a", i, j, -e)
    return letter


def letter_str(letter: Letter) -> str:
    if letter[0] == "a":
        _, i, j, e = letter
        return f"a[{i},{j}]" + ("" if e == 1 else "^-1")
    if letter[0] == "r":
        return f"r[{letter[1]}]"
    return f"s[{letter[1]},{letter[2]}]"


# the word parsers refuse a higher rank before they read a token, so no
# command that reads a word builds n images, relators or letters past it
MAX_EVAL_RANK = 1000

_LETTER_RE = re.compile(r"^([ars])\[(\d+),?(\d+)?\](?:\^(-?1))?$")


@dataclass(frozen=True)
class GeneratorWord:
    """Word in the presentation letters; the input format of the pipelines."""

    rank: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise WordError(f"rank must be >= 1, got {self.rank}")
        for letter in self.letters:
            kind = letter[0]
            if kind == "a":
                _, i, j, e = letter
                ok = i != j and 1 <= i <= self.rank and 1 <= j <= self.rank and e in (1, -1)
            elif kind == "r":
                ok = len(letter) == 2 and 1 <= letter[1] <= self.rank
            elif kind == "s":
                _, i, j = letter
                ok = i != j and 1 <= i <= self.rank and 1 <= j <= self.rank
            else:
                ok = False
            if not ok:
                raise WordError(f"bad letter {letter!r} for rank {self.rank}")

    @classmethod
    def _trusted(cls, rank: int, letters: tuple[Letter, ...]) -> "GeneratorWord":
        """A word from letters already known to be valid at ``rank``, without
        ``__post_init__``'s checks."""
        gw = object.__new__(cls)
        object.__setattr__(gw, "rank", rank)
        object.__setattr__(gw, "letters", letters)
        return gw

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        if self.rank != other.rank:
            raise WordError("rank mismatch")
        return GeneratorWord._trusted(self.rank, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "GeneratorWord":
        letters = tuple(map(letter_inverse, reversed(self.letters)))
        return GeneratorWord._trusted(self.rank, letters)

    def free_cancel(self) -> "GeneratorWord":
        """Cancel adjacent exactly-inverse letters (valid in any quotient)."""
        out: list[Letter] = []
        for letter in self.letters:
            if out and out[-1] == letter_inverse(letter):
                out.pop()
            else:
                out.append(letter)
        return GeneratorWord._trusted(self.rank, tuple(out))

    def __str__(self) -> str:
        return " ".join(map(letter_str, self.letters)) or "e"


def parse_generator_word(text: str, rank: int) -> GeneratorWord:
    """The word ``text`` spells at ``rank``; a rank over :data:`MAX_EVAL_RANK`
    is refused before any token is read."""
    check_rank(rank, MAX_EVAL_RANK, "automorphism images")
    text = text.strip()
    if text in ("", "e"):
        return GeneratorWord(rank)
    letters: list[Letter] = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if m is None:
            raise WordError(f"bad generator letter {token!r}")
        kind, i, j, exp = m.group(1), int(m.group(2)), m.group(3), m.group(4)
        if kind == "a":
            if j is None:
                raise WordError(f"a-letter needs two indices: {token!r}")
            letters.append(("a", i, int(j), int(exp or 1)))
        elif kind == "r":
            if j is not None or exp is not None:
                raise WordError(f"bad r-letter {token!r}")
            letters.append(("r", i))
        else:
            if j is None or exp is not None:
                raise WordError(f"bad s-letter {token!r}")
            letters.append(("s", i, int(j)))
    return GeneratorWord(rank, tuple(letters))


def alpha(rank: int, i: int, j: int, exp: int = 1) -> GeneratorWord:
    return GeneratorWord(rank, (("a", i, j, exp),))


def rho_i(rank: int, i: int) -> GeneratorWord:
    return GeneratorWord(rank, (("r", i),))


def rho(rank: int) -> GeneratorWord:
    """The product r[1] ... r[n] inverting every generator."""
    return GeneratorWord(rank, tuple(("r", i) for i in range(1, rank + 1)))


def all_letters(rank: int) -> list[Letter]:
    letters: list[Letter] = []
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i != j:
                letters.append(("a", i, j, 1))
                letters.append(("a", i, j, -1))
    letters.extend(("r", i) for i in range(1, rank + 1))
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            letters.append(("s", i, j))
    return letters


# ---------------------------------------------------------------------------
# The automorphism value
# ---------------------------------------------------------------------------

Image = tuple[Word, int, int]  # (conjugator, target, sign)


def canonical_image(conj: Word, target: int, sign: int) -> Image:
    """The image triple with the conjugator in canonical form.

    A trailing target power is absorbed, since
    ``(w g^m) g^s (w g^m)^{-1} = w g^s w^{-1}``.
    """
    sylls = conj.syllables
    while sylls and sylls[-1][0] == target:
        sylls = sylls[:-1]
    return Word(conj.ctx, sylls), target, sign


@dataclass(frozen=True)
class SymmetricAut:
    """Automorphism with images ``g_i -> c_i g_{t_i}^{s_i} c_i^{-1}``."""

    ctx: GroupContext
    images: tuple[Image, ...]

    def __post_init__(self) -> None:
        n = self.ctx.rank
        if len(self.images) != n:
            raise WordError(f"expected {n} images, got {len(self.images)}")
        targets = sorted(t for _, t, _ in self.images)
        if targets != list(range(1, n + 1)):
            raise WordError(f"targets are not a permutation: {targets}")
        for conj, target, sign in self.images:
            if conj.ctx is not self.ctx and conj.ctx != self.ctx:
                raise WordError("image conjugator context mismatch")
            if self.ctx.is_free:
                if sign not in (1, -1):
                    raise WordError(f"bad sign {sign}")
            elif sign != 1:
                raise WordError("torsion images cannot invert generators")
            if conj.syllables and conj.syllables[-1][0] == target:
                raise WordError("conjugator not canonical (ends in target)")

    def apply(self, w: Word) -> Word:
        """Image of a word: each syllable ``g_i^e`` written out as
        ``c_i g_{t_i}^{s_i e} c_i^{-1}``, and the whole reduced at once."""
        if w.ctx != self.ctx:
            raise WordError("context mismatch")
        raw: list[Syllable] = []
        for gen, exp in w.syllables:
            conj, target, sign = self.images[gen - 1]
            raw += conj.syllables
            raw.append((target, sign * exp))
            raw += conj.inverse().syllables
        return normalize(raw, self.ctx)

    def to_json(self) -> list[dict]:
        return [
            {"conjugator": format_word(conj), "target": t, "sign": s}
            for conj, t, s in self.images
        ]


def identity_aut(ctx: GroupContext) -> SymmetricAut:
    e = identity_word(ctx)
    return SymmetricAut(ctx, tuple((e, i, 1) for i in range(1, ctx.rank + 1)))


def compose(f: SymmetricAut, g: SymmetricAut) -> SymmetricAut:
    """f . g, acting as g first: (f.g)(w) = f(g(w))."""
    if f.ctx != g.ctx:
        raise WordError("context mismatch")
    images = []
    for conj, target, sign in g.images:
        w = f.apply(generator(f.ctx, target, sign).conjugated_by(conj))
        shape = generator_conjugate_shape(w)
        if shape is None:
            raise WordError(f"image is not a conjugate of a generator: {w}")
        images.append(canonical_image(*shape))
    return SymmetricAut(f.ctx, tuple(images))


def act_letters(images: list[Image], letters: Iterable[Letter], ctx: GroupContext) -> None:
    """Right-multiply the automorphism held in ``images`` by ``letters``.

    Updates the ``(conjugator, target, sign)`` list in place, letter by
    letter, touching only the images a letter changes:

    * ``a[i,j]^e`` sends g_i to ``f(g_j)^e f(g_i) f(g_j)^{-e}``, so only the
      conjugator of image i changes, to ``c_j g_{t_j}^{s_j e} c_j^{-1} c_i``
      with a trailing ``t_i``-syllable dropped.  That word is one
      :func:`~symlift.words.conjugation_step` (``c_j`` is canonical, so it
      does not end in ``t_j``), and it is wrapped as one ``Word``.  The core
      ``g_{t_i}^{s_i}`` stays, and the centralizer of a generator power is
      the generator's cyclic group, so no cyclic reduction is needed;
    * ``s[i,j]`` swaps images i and j;
    * ``r[i]`` flips the sign of image i in a free context, acts trivially
      at torsion 2 and is refused at higher torsion, where ``g^{-1} = g^{k-1}``
      is not a conjugate of a generator.

    Each letter costs time linear in the two conjugators it reads.
    """
    k = ctx.torsion
    for letter in letters:
        kind = letter[0]
        if kind == "a":
            _, i, j, exp = letter
            cj, tj, sj = images[j - 1]
            ci, ti, si = images[i - 1]
            e = sj * exp if k is None else exp % k
            sylls = conjugation_step(cj.syllables, (tj, e), ci.syllables, ctx)
            if sylls and sylls[-1][0] == ti:
                sylls = sylls[:-1]
            images[i - 1] = (Word(ctx, sylls), ti, si)
        elif kind == "r":
            if ctx.is_free:
                ci, ti, si = images[letter[1] - 1]
                images[letter[1] - 1] = (ci, ti, -si)
            elif k != 2:
                raise WordError(
                    f"r[{letter[1]}] inverts a generator of order {k}, which has no symmetric image"
                )
        else:
            _, i, j = letter
            images[i - 1], images[j - 1] = images[j - 1], images[i - 1]


def _h2_reduced(gw: GeneratorWord) -> GeneratorWord:
    """A word evaluating to the same automorphism of the order-2 product,
    reduced in one stack pass.

    There ``r[i]`` acts trivially, ``a[i,j]^-1`` acts as ``a[i,j]``, and
    ``a[i,j]`` and ``s[i,j]`` are involutions (the partial conjugations of
    the order-2 free product).  So every ``r`` is dropped, every ``a`` is
    written with exponent 1, and equal neighbours cancel.
    """
    out: list[Letter] = []
    for letter in gw.letters:
        if letter[0] == "r":
            continue
        if letter[0] == "a" and letter[3] == -1:
            letter = ("a", letter[1], letter[2], 1)
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return GeneratorWord._trusted(gw.rank, tuple(out))


def eval_generator_word(gw: GeneratorWord, ctx: GroupContext) -> SymmetricAut:
    """The automorphism a presentation word evaluates to.

    Starts from the identity images and applies each letter in place with
    :func:`act_letters`, so the cost per letter is linear in the conjugators
    it touches; the value is built (and validated) once at the end.  In the
    order-2 product ``H_n(2)`` the letters applied are those of
    :func:`_h2_reduced`: a conjugate ``c rho c^-1`` builds no image at all,
    and no image is built that a later letter cancels.  Images are
    canonical, so the value is that of the raw letters.
    """
    if gw.rank != ctx.rank:
        raise WordError(f"rank mismatch: word has {gw.rank}, context {ctx.rank}")
    if ctx.torsion == 2:
        gw = _h2_reduced(gw)
    e = identity_word(ctx)
    images: list[Image] = [(e, i, 1) for i in range(1, ctx.rank + 1)]
    act_letters(images, gw.letters, ctx)
    return SymmetricAut(ctx, tuple(images))


# ---------------------------------------------------------------------------
# Outer equality
# ---------------------------------------------------------------------------


def conjugating_witness(f: SymmetricAut, g: SymmetricAut) -> Optional[Word]:
    """Word w with f = conj_w . g, i.e. f(u) = w g(u) w^{-1} for all u.

    Since conjugation preserves each image's target and sign, those must
    match; what remains is a simultaneous-conjugacy coset intersection
    (:func:`~symlift.words.coset_intersection`), exact in free and torsion
    contexts alike.  Any witness is unique for rank >= 2.
    """
    if f.ctx != g.ctx:
        raise WordError("context mismatch")
    ctx = f.ctx
    constraints = []
    for (cf, tf, sf), (cg, tg, sg) in zip(f.images, g.images):
        if tf != tg or sf != sg:
            return None
        constraints.append((cf, tf, cg))
    if ctx.rank == 1:
        return identity_word(ctx)  # rank 1: inner is trivial, images matched
    return coset_intersection(constraints, ctx)


def outer_equal(f: SymmetricAut, g: SymmetricAut) -> bool:
    """Equality in the outer quotient: is g^{-1} . f inner?"""
    return conjugating_witness(f, g) is not None


def inner_witness_of(f: SymmetricAut) -> Optional[Word]:
    """Word w with f = conj_w, solved from f's own images, or None."""
    return inner_conjugator(f.images, f.ctx)


def outer_form(f: SymmetricAut) -> tuple[Image, ...]:
    """Hashable representative of f's outer class: f and g are outer-equal
    exactly when ``outer_form(f) == outer_form(g)``.

    The images of ``conj_{w^{-1}} . f`` for the one ``w = c_1 g_{t_1}^m``
    that leaves image 1's conjugator e and image 2's without a leading
    ``t_1``-syllable (the pin of ``coset_intersection`` with ``B_i = e``).
    One member of each class meets both, so all members share the form.
    """
    if f.ctx.rank == 1:
        return f.images  # rank 1: conjugation is trivial
    e = identity_word(f.ctx)
    first, second = ((c, t, e) for c, t, _ in f.images[:2])
    w_inv = pinned_coset_element(first, second, f.ctx).inverse()
    return tuple(canonical_image(w_inv * c, t, s) for c, t, s in f.images)


def find_outer_relation(
    pairs: Sequence[tuple[int, int]], max_len: int
) -> tuple[int, Optional[GeneratorWord]]:
    """An outer-trivial reduced word of length <= ``max_len`` rounded up to
    even, in the letters ``a[i,j]^{+-1}`` for ``(i, j)`` in ``pairs``.

    Meets in the middle: a reduced word of length <= 2h is outer-trivial
    exactly when two distinct reduced half-words of length <= h share an
    :func:`outer_form` (split it as ``u v^{-1}``).  Half-words grow level by
    level, one :func:`act_letters` step from their parent's images.  Returns
    how many were checked (the empty one included) and the first collision
    as the freely reduced ``u v^{-1}``, or None.
    """
    ctx = free_context(max(max(pair) for pair in pairs))
    letters = [("a", i, j, e) for i, j in pairs for e in (1, -1)]
    start = identity_aut(ctx)
    seen = {outer_form(start): GeneratorWord(ctx.rank)}
    level = [((), start.images)]
    for _ in range((max_len + 1) // 2):
        grown = []
        for word, images in level:
            for letter in letters:
                if word and word[-1] == letter_inverse(letter):
                    continue
                u, new = GeneratorWord(ctx.rank, word + (letter,)), list(images)
                act_letters(new, (letter,), ctx)
                form = outer_form(SymmetricAut(ctx, tuple(new)))
                if form in seen:
                    return len(seen) + 1, (u * seen[form].inverse()).free_cancel()
                seen[form] = u
                grown.append((u.letters, new))
        level = grown
    return len(seen), None


def is_inner(f: SymmetricAut) -> bool:
    return inner_witness_of(f) is not None


# ---------------------------------------------------------------------------
# Semidirect normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Decomposition word = pure . r-part . permutation, exact in Aut."""

    pure: GeneratorWord
    rho: tuple[int, ...]
    perm: tuple[int, ...]

    def recompose(self) -> GeneratorWord:
        rank = len(self.rho)
        letters = list(self.pure.letters)
        letters.extend(("r", i + 1) for i, bit in enumerate(self.rho) if bit)
        letters.extend(_transposition_letters(self.perm))
        return GeneratorWord(rank, tuple(letters))


def _transposition_letters(perm: tuple[int, ...]) -> list[Letter]:
    """Letters s[a,b] whose left-to-right evaluation is the permutation."""
    letters: list[Letter] = []
    seen = set()
    for start in range(1, len(perm) + 1):
        if start in seen or perm[start - 1] == start:
            seen.add(start)
            continue
        cycle = [start]
        nxt = perm[start - 1]
        while nxt != start:
            cycle.append(nxt)
            nxt = perm[nxt - 1]
        seen.update(cycle)
        # (c1 c2 ... cl) = (c1 c2)(c2 c3)...(c_{l-1} c_l) under left-first eval
        for a, b in zip(cycle, cycle[1:]):
            letters.append(("s", a, b))
    return letters


def semidirect_normal_form(gw: GeneratorWord, cancel: bool = True) -> NormalForm:
    """Push every r- and s-letter to the right.

    Uses r_k a[i,j] r_k = a[i,j]^{-1 if k=j} and s a[i,j] s^{-1} =
    a[s(i),s(j)]; the result evaluates to the same automorphism exactly.
    With ``cancel`` the accumulated pure part is freely reduced.  The
    permutation and the inversion bits are indexed from 1 (slot 0 is
    sliced off on return), and an ``a`` letter that neither changes is
    appended as its own tuple.
    """
    n = gw.rank
    pure: list[Letter] = []
    rho_bits = [0] * (n + 1)
    perm = list(range(n + 1))  # perm[i] = sigma(i)
    for letter in gw.letters:
        kind = letter[0]
        if kind == "a":
            _, i, j, e = letter
            si, sj = perm[i], perm[j]
            if rho_bits[sj]:
                e = -e
            if cancel and pure:
                last = pure[-1]
                if last[1] == si and last[2] == sj and last[3] == -e:
                    pure.pop()
                    continue
            if si != i or sj != j or e != letter[3]:
                letter = ("a", si, sj, e)
            pure.append(letter)
        elif kind == "r":
            rho_bits[perm[letter[1]]] ^= 1
        else:
            _, i, j = letter
            perm[i], perm[j] = perm[j], perm[i]
    return NormalForm(GeneratorWord._trusted(n, tuple(pure)), tuple(rho_bits[1:]), tuple(perm[1:]))


# ---------------------------------------------------------------------------
# Presentation verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationCheck:
    family: str
    instance: tuple
    holds: bool


def inner_relator(rank: int, j: int) -> GeneratorWord:
    """``a[1,j] ... a[n,j]`` without ``a[j,j]``: conjugation by generator j."""
    return GeneratorWord(rank, tuple(("a", i, j, 1) for i in range(1, rank + 1) if i != j))


def _relations(n: int):
    """The defining relations at rank ``n`` as ``(family, instance, left, right)``.

    ``left`` and ``right`` are letter tuples that evaluate to the same
    automorphism; ``()`` is the identity, and ``u v = v u`` states that u and
    v commute.  ``outer_product`` holds in the outer group only: its left
    side acts as conjugation by generator j, which :func:`check_relations`
    confirms through the inner solver.
    """

    def a(i: int, j: int, exp: int = 1) -> Letter:
        return ("a", i, j, exp)

    def perms(k: int):
        return itertools.permutations(range(1, n + 1), k)

    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for i, j, k, l in perms(4):
        yield "disjoint_commute", (i, j, k, l), (a(i, j), a(k, l)), (a(k, l), a(i, j))
    for i, j, k in perms(3):
        yield "shared_head_commute", (i, j, k), (a(i, k), a(j, k)), (a(j, k), a(i, k))
    for i, j, k in perms(3):
        yield "triple", (i, j, k), (a(i, j), a(j, k), a(i, k)), (a(i, k), a(j, k), a(i, j))
    for k in range(1, n + 1):
        r = ("r", k)
        for i, j in perms(2):
            yield "r_conjugation", (k, i, j), (r, a(i, j), r), (a(i, j, -1 if k == j else 1),)
    for p, q in pairs:
        s, tr = ("s", p, q), {p: q, q: p}
        for i, j in perms(2):
            yield "s_conjugation", (p, q, i, j), (s, a(i, j), s), (a(tr.get(i, i), tr.get(j, j)),)
    for i in range(1, n + 1):
        yield "r_involution", (i,), (("r", i), ("r", i)), ()
    for i, j in pairs:
        yield "r_commute", (i, j), (("r", i), ("r", j)), (("r", j), ("r", i))
        yield "s_involution", (i, j), (("s", i, j), ("s", i, j)), ()
    for i, j, k in perms(3):
        yield "s_braid", (i, j, k), (("s", i, j), ("s", j, k), ("s", i, j)), (("s", i, k),)
    for p, q in pairs:
        s, tr = ("s", p, q), {p: q, q: p}
        for i in range(1, n + 1):
            yield "s_r_conjugation", (p, q, i), (s, ("r", i), s), (("r", tr.get(i, i)),)
    for j in range(1, n + 1):
        yield "outer_product", (j,), inner_relator(n, j).letters, ()


@dataclass(frozen=True)
class RelationReport:
    rank: int
    checks: tuple[RelationCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.holds]

    def to_json(self) -> dict:
        families: dict[str, dict] = {}
        for c in self.checks:
            fam = families.setdefault(c.family, {"instances": 0, "failed": []})
            fam["instances"] += 1
            if not c.holds:
                fam["failed"].append(list(c.instance))
        return {"rank": self.rank, "all_pass": self.all_pass, "families": families}


MAX_RELATIONS_RANK = 12  # the instances grow as n^4: rank 12 takes 1 to 2 s


def check_relations(n: int) -> RelationReport:
    """Evaluate both sides of every defining relation at rank ``n`` (exact)."""
    if n < 2:
        raise WordError("check_relations needs rank >= 2")
    check_rank(n, MAX_RELATIONS_RANK, "relation checks")
    ctx = free_context(n)
    checks: list[RelationCheck] = []
    for family, instance, left, right in _relations(n):
        f = eval_generator_word(GeneratorWord(n, left), ctx)
        if family == "outer_product":
            holds = inner_witness_of(f) == generator(ctx, instance[0])
        else:
            holds = f == eval_generator_word(GeneratorWord(n, right), ctx)
        checks.append(RelationCheck(family, instance, holds))
    return RelationReport(n, tuple(checks))
