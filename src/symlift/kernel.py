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

Read through the index pairs of its letters, a semipalindrome is an even
palindrome, so recognising a product of them is recognising a palstar.
:func:`parse_semipalindrome_product` does that in linear time: Manacher's
algorithm (J. ACM 1975) gives the even-palindrome radius at every gap, and
the word splits greedily into shortest even-palindrome prefixes, which by
Knuth, Morris and Pratt (SIAM J. Comput. 1977) are its prime factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .symaut import (
    GeneratorWord,
    Letter,
    eval_generator_word,
    inner_relator,
    is_inner,
    letter_inverse,
    parse_generator_word,
    random_pure_word,
    rho,
    semidirect_normal_form,
)
from .lift import kernel_verdict
from .words import WordError, free_context

# rounds of multiplying the pure part by inner relators before giving up
SEARCH_DEPTH = 2
# longest reduced pure part whose images ``certify_status`` evaluates to try
# the rho-parity alone; image words can grow exponentially with the length
EVAL_GATE_LETTERS = 60

Block = tuple[Letter, ...]


def _require_pure(gw: GeneratorWord) -> None:
    for letter in gw.letters:
        if letter[0] != "a":
            raise WordError(f"non-conjugation letter {letter!r} in pure word")


def parse_semipalindrome_product(gw: GeneratorWord) -> Optional[tuple[Block, ...]]:
    """Split of ``gw`` into semipalindrome blocks (letter tuples), or None.

    The letters are ``a``-letters, which agree up to sign when their index
    pairs agree, so a semipalindrome is an even palindrome in the index pairs
    and a product of them is a *palstar*.  ``radius[g]`` counts the mirrored
    pairs that agree outwards from the gap before ``letters[g]``; Manacher's
    algorithm (J. ACM 1975) fills every gap in linear time by starting each
    gap inside the rightmost palindrome found so far at its mirror's radius.
    ``letters[i:i+2h]`` is a semipalindrome exactly when
    ``radius[i+h] >= h``.

    The split is greedy: at position ``i`` the block is ``letters[i:i+2h]``
    for the smallest ``h >= 1`` with ``radius[i+h] >= h``, and the word does
    not parse when there is none.  Each search costs at most its own block,
    or the rest of the word once, so the parse is linear.  Greedy is
    complete: by Knuth, Morris and Pratt (SIAM J. Comput. 1977), a palstar
    factors uniquely into prime palstars, and its shortest nonempty even
    palindrome prefix is the first of them.  So the blocks are the prime
    factors, each as short as possible subject to the remainder still
    parsing.  Short blocks keep the wrap nesting (and hence certificate
    conjugators) no deeper than the blocks the input was assembled from;
    maximal blocks can fuse factors into one deep nest whose conjugators
    evaluate to exponentially long images.
    """
    _require_pure(gw)
    letters = gw.letters
    n = len(letters)
    if n % 2:
        return None
    pairs = [letter[1:3] for letter in letters]
    radius = [0] * (n + 1)
    center = reach = 0  # the palindrome around gap ``center`` ends at ``reach``
    for g in range(1, n):
        r = min(radius[2 * center - g], reach - g) if g < reach else 0
        while r < g and g + r < n and pairs[g - 1 - r] == pairs[g + r]:
            r += 1
        radius[g] = r
        if g + r > reach:
            center, reach = g, g + r
    blocks = []
    i = 0
    while i < n:
        h = 1
        while radius[i + h] < h:
            h += 1
            if i + 2 * h > n:
                return None
        blocks.append(letters[i : i + 2 * h])
        i += 2 * h
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
        letters: list[Letter] = []
        for c in self.conjugators:
            letters += c.letters
            letters += r
            letters += map(letter_inverse, reversed(c.letters))
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
    """Certificate expressing ``gw`` as a product of conjugates of rho, or
    None: the certificate of :func:`certify_status`."""
    return certify_status(gw)[1]


def certify_status(gw: GeneratorWord) -> tuple[str, Optional[Certificate]]:
    """``("certified", cert)``, ``("absent", None)`` outside the kernel,
    where no certificate exists, or ``("unproven", None)`` for a kernel
    element the bounded search does not certify.

    A certificate needs the normal form to have trivial permutation and an
    inversion vector that is all zero or all one (both are invariants of the
    outer class).  That vector gives the rho-parity: no conjugator, or the
    trivial one ``e``.  The pure part is parsed as a product of
    semipalindromes first *without* free cancellation: cancelling across
    block boundaries can destroy parseability, while inputs built as
    products of conjugates of rho parse raw.  Only when the raw pure part
    fails is the freely reduced one built and parsed.  The block conjugators
    followed by the parity are the certificate.

    Every other answer asks the kernel verdict, once.  Inside the kernel the
    search goes on from the reduced pure part: each level, up to
    ``SEARCH_DEPTH``, multiplies the last one by inner relators (words
    acting by conjugation, which keep the outer class) on either side and
    freely reduces.  Free reduction is confluent, so a raw level would only
    repeat the reduced one's candidates.  Last, an outer-trivial pure part
    of at most ``EVAL_GATE_LETTERS`` letters gets the parity alone.
    """
    n = gw.rank
    nf = semidirect_normal_form(gw, cancel=False)
    shaped = nf.perm == tuple(range(1, n + 1)) and set(nf.rho) in ({0}, {1}, set())
    parity = (GeneratorWord(n),) if 1 in nf.rho else ()
    reduced = nf.pure
    blocks = parse_semipalindrome_product(reduced) if shaped else None
    if shaped and blocks is None:
        reduced = nf.pure.free_cancel()
        if reduced.letters != nf.pure.letters:
            blocks = parse_semipalindrome_product(reduced)
    if blocks is None:
        # every certificate verifies, so none exists outside the kernel
        if kernel_verdict(gw).verdict != "in":
            return "absent", None
        if not shaped:
            return "unproven", None
        relators = _inner_relators(n)
        level, seen = [reduced], {reduced.letters}
        for _ in range(SEARCH_DEPTH):
            level = _relator_level(level, relators, seen)
            parses = map(parse_semipalindrome_product, level)
            blocks = next((b for b in parses if b is not None), None)
            if blocks is not None:
                break
        if blocks is None:
            cert = Certificate(n, parity)
            if len(reduced) <= EVAL_GATE_LETTERS and verify_certificate(cert, gw):
                return "certified", cert
            return "unproven", None
    conjugators = [
        GeneratorWord._trusted(n, c) for block in blocks for c in block_conjugators(block)
    ]
    cert = Certificate(n, tuple(conjugators) + parity)
    if not verify_certificate(cert, gw):
        raise RuntimeError(f"internal: certificate for {gw} does not verify")
    return "certified", cert


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
    conjugators = tuple(random_pure_word(rng, rank, 0, 10) for _ in range(rng.randint(1, 6)))
    return Certificate(rank, conjugators).product_word()
