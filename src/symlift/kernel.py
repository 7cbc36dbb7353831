"""Constructive kernel membership: recognition and certificates.

A *semipalindrome* is a word on the conjugation letters ``a[i,j]^{+-1}``
generated by two rules: the empty word and doubled letters are
semipalindromes, and wrapping ``u -> a u a`` or ``u -> a u a^{-1}`` preserves
the property.  Conjugating the full inversion ``rho = r[1]...r[n]`` by any
pure word and cancelling the inversions produces such a word, and conversely
every semipalindrome factors explicitly as a product of conjugates of rho:

* ``v rev(v) = (v rho v^{-1}) rho``, since ``rho a rho = a^{-1}``,
* ``a u a^{-1}`` conjugates every factor of ``u`` by ``a``, and
* ``a u a = (a u a^{-1}) a^2`` handles same-sign wraps.

Unrolled, every conjugator is a prefix of the block's letters (see
:func:`block_conjugators`).  ``certify`` turns any generator word of the
right shape (trivial permutation part, inversion vector all-0 or all-1, pure
part a product of semipalindromes) into a verified list of conjugators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .symaut import (
    GeneratorWord,
    Letter,
    all_letters,
    eval_generator_word,
    inner_relator,
    is_inner,
    letter_inverses,
    parse_generator_word,
    rho,
    semidirect_normal_form,
)
from .lift import kernel_verdict
from .words import WordError, free_context

# rounds of multiplying the pure part by inner relators before giving up
SEARCH_DEPTH = 2
# longest reduced pure part whose images ``certify`` evaluates to try the
# empty certificate; image words can grow exponentially with the length
EVAL_GATE_LETTERS = 60

Block = tuple[Letter, ...]


def _require_pure(gw: GeneratorWord) -> None:
    for letter in gw.letters:
        if letter[0] != "a":
            raise WordError(f"non-conjugation letter {letter!r} in pure word")


def _sp_table(letters: tuple[Letter, ...]):
    """Interval table: sp(i, j) iff letters[i:j] is a semipalindrome.

    The doubled-letter base is the same-sign wrap around the empty word, so a
    single recurrence suffices: first and last letters agree up to sign and
    the interior is a semipalindrome.  Unrolled, letters[i:j] has even length
    and its mirrored pairs agree up to sign; ``radius[c]`` counts the pairs
    that agree outwards from the gap before letters[c].  The letters are
    ``a``-letters, which agree up to sign when their indices agree.
    """
    n = len(letters)
    radius = []
    for c in range(n + 1):
        r = 0
        while r < c and c + r < n:
            left, right = letters[c - 1 - r], letters[c + r]
            if left[1] != right[1] or left[2] != right[2]:
                break
            r += 1
        radius.append(r)

    def sp(i: int, j: int) -> bool:
        return (j - i) % 2 == 0 and radius[(i + j) // 2] >= (j - i) // 2

    return sp


def parse_semipalindrome_product(gw: GeneratorWord) -> Optional[tuple[Block, ...]]:
    """Split of ``gw`` into semipalindrome blocks (letter tuples), or None.

    The interval table is complete, so recognition never depends on the split
    policy.  The split itself is deterministic: each block is as short as
    possible subject to the remainder still parsing.  Short blocks keep the
    wrap nesting (and hence certificate conjugators) no deeper than the
    blocks the input was assembled from; maximal blocks can fuse factors into
    one deep nest whose conjugators evaluate to exponentially long images.
    """
    _require_pure(gw)
    letters = gw.letters
    n = len(letters)
    if n % 2:
        return None
    sp = _sp_table(letters)
    # splittable[i]: letters[i:] is a product of semipalindromes
    splittable = [False] * n + [True]
    for i in range(n - 2, -1, -2):
        splittable[i] = any(splittable[j] and sp(i, j) for j in range(i + 2, n + 1, 2))
    if not splittable[0]:
        return None
    blocks = []
    i = 0
    while i < n:
        j = next(j for j in range(i + 2, n + 1, 2) if splittable[j] and sp(i, j))
        blocks.append(letters[i:j])
        i = j
    return tuple(blocks)


def block_conjugators(block: Block) -> list[Block]:
    """Conjugators of one semipalindrome block, each a prefix of it.

    Pair d of a block of length 2h is ``(block[d], block[2h-1-d])``, counted
    from the outside; its letters agree up to sign.  Past the innermost pair
    of opposite signs, at ``top``, the core is ``v rev(v)`` with
    ``v = block[top:h]``: the factors ``v, e``.  The wrap at depth d
    conjugates every factor inside it by ``block[d]``, so a factor found at
    depth d gains the prefix ``block[:d]``: the core gives ``block[:h],
    block[:top]``, and each same-sign wrap d adds ``a^2 = (a rho a^{-1})
    rho`` as ``block[:d+1], block[:d]``.
    """
    h = len(block) // 2
    top = max((d + 1 for d in range(h) if block[d] != block[-1 - d]), default=0)
    out = [block[:h], block[:top]] if top < h else []
    for d in range(top - 1, -1, -1):
        if block[-1 - d] == block[d]:
            out += [block[: d + 1], block[:d]]
    return out


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Conjugators ``c_1..c_m`` with the target equal to ``prod c_k rho c_k^{-1}``."""

    rank: int
    conjugators: tuple[GeneratorWord, ...]

    def product_word(self) -> GeneratorWord:
        r = rho(self.rank).letters
        if any(c.rank != self.rank for c in self.conjugators):
            raise WordError(f"certificate conjugators must have rank {self.rank}")
        inv = letter_inverses(l for c in self.conjugators for l in c.letters)
        letters: list[Letter] = []
        for c in self.conjugators:
            letters += c.letters
            letters += r
            letters += map(inv.__getitem__, reversed(c.letters))
        return GeneratorWord._trusted(self.rank, tuple(letters))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "conjugators": [str(c) for c in self.conjugators],
        }

    @classmethod
    def from_json(cls, data) -> "Certificate":
        if not isinstance(data, dict) or "rank" not in data or "conjugators" not in data:
            raise WordError("certificate must be an object with 'rank' and 'conjugators'")
        rank, texts = data["rank"], data["conjugators"]
        if type(rank) is not int or rank < 1:
            raise WordError(f"certificate rank must be a positive integer, not {rank!r}")
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise WordError("certificate conjugators must be a list of strings")
        return cls(rank, tuple(parse_generator_word(t, rank) for t in texts))


def _inner_relators(rank: int) -> list[GeneratorWord]:
    """Each word acting as conjugation by a generator, then its inverse."""
    out = []
    for j in range(1, rank + 1):
        rel = inner_relator(rank, j)
        out += [rel, rel.inverse()]
    return out


def _relator_level(
    level: list[GeneratorWord], relators: list[GeneratorWord], seen: set
) -> list[GeneratorWord]:
    """The unseen reduced words ``rel * pure`` and ``pure * rel``, in order."""
    out = []
    for pure in level:
        for rel in relators:
            for cand in (rel * pure, pure * rel):
                cand = cand.free_cancel()
                if cand.letters not in seen:
                    seen.add(cand.letters)
                    out.append(cand)
    return out


def certify(gw: GeneratorWord) -> Optional[Certificate]:
    """Certificate expressing ``gw`` as a product of conjugates of rho.

    Requires the normal form to have trivial permutation and an inversion
    vector that is all zero or all one (both are invariants of the outer
    class, so failure there is definitive).  The pure part is parsed as a
    product of semipalindromes first *without* free cancellation: cancelling
    across block boundaries can destroy parseability, while inputs built as
    products of conjugates of rho parse raw.  Level 0 of the search holds the
    raw and the reduced pure part; each further level, up to
    ``SEARCH_DEPTH``, multiplies the last one by inner relators (words
    acting by conjugation, which keep the outer class) on either side.  An
    outer-trivial pure part of at most ``EVAL_GATE_LETTERS`` letters gets the
    empty certificate; beyond these bounds the absence is reported as None.
    """
    return _certify(gw)[0]


def certify_status(gw: GeneratorWord) -> tuple[str, Optional[Certificate]]:
    """``("certified", cert)``, ``("absent", None)`` outside the kernel,
    where no certificate exists, or ``("unproven", None)`` for a kernel
    element the bounded search of :func:`certify` does not certify.  The
    kernel verdict is computed at most once: the search's own, when it
    asked one."""
    cert, verdict = _certify(gw)
    if cert is not None:
        return "certified", cert
    if verdict is None:
        verdict = kernel_verdict(gw).verdict
    return ("unproven" if verdict == "in" else "absent"), None


def _certify(gw: GeneratorWord) -> tuple[Optional[Certificate], Optional[str]]:
    """:func:`certify`'s search: the certificate or None, and the kernel
    verdict the search asked for, or None when it asked none."""
    n = gw.rank
    nf = semidirect_normal_form(gw, cancel=False)
    if nf.perm != tuple(range(1, n + 1)) or set(nf.rho) not in ({0}, {1}, set()):
        return None, None
    reduced = nf.pure.free_cancel()
    level = [nf.pure] if reduced.letters == nf.pure.letters else [nf.pure, reduced]
    seen = {pure.letters for pure in level}
    relators: list[GeneratorWord] = []  # n^2 letters: built once level 0 fails
    verdict = None
    for depth in range(SEARCH_DEPTH + 1):
        if depth:
            if not relators:
                # every certificate verifies, so none exists outside the kernel
                verdict = kernel_verdict(gw).verdict
                if verdict != "in":
                    return None, verdict
                relators = _inner_relators(n)
            level = _relator_level(level, relators, seen)
        for pure in level:
            blocks = parse_semipalindrome_product(pure)
            if blocks is not None:
                conjugators = [
                    GeneratorWord._trusted(n, c)
                    for block in blocks
                    for c in block_conjugators(block)
                ]
                if nf.rho and nf.rho[0] == 1:
                    conjugators.append(GeneratorWord(n))
                cert = Certificate(n, tuple(conjugators))
                if not verify_certificate(cert, gw):
                    raise RuntimeError(f"internal: certificate for {gw} does not verify")
                return cert, verdict
    if len(reduced) <= EVAL_GATE_LETTERS and verify_certificate(Certificate(n, ()), gw):
        return Certificate(n, ()), verdict
    return None, verdict


def verify_certificate(cert: Certificate, target: GeneratorWord) -> bool:
    """Does the certified product equal ``target`` in the outer group?

    Compares semidirect normal forms, which are exact in the automorphism
    group.  Permutation part and inversion vector are outer invariants, so a
    mismatch refutes immediately.  Both pure parts are freely reduced, so
    they are equal in the free group exactly when their letters are equal,
    which confirms.  Only unequal pure parts fall back to evaluating their
    residue, which is exact but can be expensive: image words of long
    compositions grow exponentially, which is why the letter-level route
    comes first.
    """
    if cert.rank != target.rank:
        raise WordError("certificate / target rank mismatch")
    nf_w = semidirect_normal_form(cert.product_word(), cancel=True)
    nf_t = semidirect_normal_form(target, cancel=True)
    if nf_w.perm != nf_t.perm or nf_w.rho != nf_t.rho:
        return False
    if nf_w.pure.letters == nf_t.pure.letters:
        return True
    residue = (nf_t.pure.inverse() * nf_w.pure).free_cancel()
    return is_inner(eval_generator_word(residue, free_context(cert.rank)))


def random_rho_conjugate_product(rng, rank: int) -> GeneratorWord:
    """Sample ``prod_k c_k rho c_k^{-1}``: 1-6 factors, pure conjugators of
    0-10 letters."""
    letters = [l for l in all_letters(rank) if l[0] == "a"]
    conjugators = tuple(
        GeneratorWord(rank, tuple(rng.choice(letters) for _ in range(rng.randint(0, 10))))
        for _ in range(rng.randint(1, 6))
    )
    return Certificate(rank, conjugators).product_word()
