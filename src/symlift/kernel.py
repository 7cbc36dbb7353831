"""Constructive kernel membership: recognition and certificates.

A *semipalindrome* is a word on the conjugation letters ``a[i,j]^{+-1}``
generated by two rules: the empty word and doubled letters are
semipalindromes, and wrapping ``u -> a u a`` or ``u -> a u a^{-1}`` preserves
the property.  Conjugating the full inversion ``rho = r[1]...r[n]`` by any
pure word and cancelling the inversions produces such a word, and conversely
every semipalindrome factors explicitly as a product of conjugates of rho:

* ``a^2 = (a rho a^{-1}) rho``,
* certificates conjugate through ``a u a^{-1}`` wraps, and
* ``a u a = (a u a^{-1}) a^2`` handles same-sign wraps.

``certify`` turns any generator word of the right shape (trivial permutation
part, inversion vector all-0 or all-1, pure part a product of
semipalindromes) into a verified list of conjugators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from .symaut import (
    GeneratorWord,
    Letter,
    eval_generator_word,
    letter_inverse,
    rho,
    semidirect_normal_form,
)
from .words import WordError, free_context


@dataclass(frozen=True)
class SpNode:
    """One derivation step: empty base, or a wrap around an inner node."""

    kind: Literal["empty", "wrap_same", "wrap_inv"]
    letter: Optional[Letter] = None
    inner: Optional["SpNode"] = None

    def letters(self) -> tuple[Letter, ...]:
        head, tail = [], []
        node = self
        while node.kind != "empty":
            letter = node.letter
            head.append(letter)
            tail.append(letter if node.kind == "wrap_same" else letter_inverse(letter))
            node = node.inner
        return tuple(head + tail[::-1])


@dataclass(frozen=True)
class SemipalindromeDerivation:
    """Split of a word into semipalindrome blocks with their derivations."""

    rank: int
    blocks: tuple[SpNode, ...]

    def letters(self) -> tuple[Letter, ...]:
        return tuple(l for block in self.blocks for l in block.letters())

    def block_words(self) -> tuple[GeneratorWord, ...]:
        return tuple(GeneratorWord(self.rank, b.letters()) for b in self.blocks)


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
    that agree outwards from the gap before letters[c].
    """
    n = len(letters)
    radius = []
    for c in range(n + 1):
        r = 0
        while r < c and c + r < n and letters[c + r] in (
            letters[c - 1 - r], letter_inverse(letters[c - 1 - r])
        ):
            r += 1
        radius.append(r)

    def sp(i: int, j: int) -> bool:
        return (j - i) % 2 == 0 and radius[(i + j) // 2] >= (j - i) // 2

    return sp


def _derivation(letters: tuple[Letter, ...], i: int, j: int) -> SpNode:
    node = SpNode("empty")
    for k in range((i + j) // 2 - 1, i - 1, -1):  # innermost pair first
        first, last = letters[k], letters[i + j - 1 - k]
        node = SpNode("wrap_same" if last == first else "wrap_inv", first, node)
    return node


def parse_semipalindrome_product(gw: GeneratorWord) -> Optional[SemipalindromeDerivation]:
    """Full derivation of ``gw`` as a product of semipalindromes, or None.

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
        j = min(j for j in range(i + 2, n + 1, 2) if splittable[j] and sp(i, j))
        blocks.append(_derivation(letters, i, j))
        i = j
    return SemipalindromeDerivation(gw.rank, tuple(blocks))


def is_semipalindrome(gw: GeneratorWord) -> bool:
    _require_pure(gw)
    return _sp_table(gw.letters)(0, len(gw.letters))


# ---------------------------------------------------------------------------
# rho normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoNormalForm:
    """Pushed-right form with the pure part split into semipalindromes.

    ``segments`` partitions the reduced pure part in order; entries are
    ``("sp", word)`` for recognized blocks and ``("residual", word)`` for
    letters no recognized block covers.  Residual letters flag input outside
    the certifiable shape.
    """

    rank: int
    segments: tuple[tuple[str, GeneratorWord], ...]
    rho_bits: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def semiparts(self) -> tuple[GeneratorWord, ...]:
        return tuple(w for kind, w in self.segments if kind == "sp")

    @property
    def residual(self) -> GeneratorWord:
        letters: tuple[Letter, ...] = ()
        for kind, w in self.segments:
            if kind == "residual":
                letters += w.letters
        return GeneratorWord(self.rank, letters)

    def recompose(self) -> GeneratorWord:
        letters: tuple[Letter, ...] = ()
        for _, w in self.segments:
            letters += w.letters
        pure = GeneratorWord(self.rank, letters)
        from .symaut import NormalForm

        return NormalForm(pure, self.rho_bits, self.perm).recompose()


def rho_normal_form(gw: GeneratorWord) -> RhoNormalForm:
    """Push r/s letters right, then greedily carve semipalindrome blocks."""
    nf = semidirect_normal_form(gw, cancel=True)
    letters = nf.pure.letters
    sp = _sp_table(letters)
    n = len(letters)
    segments: list[tuple[str, GeneratorWord]] = []
    residual_run: list[Letter] = []
    i = 0
    while i < n:
        best = 0
        for j in range(i + 2, n + 1, 2):
            if sp(i, j):
                best = j
        if best:
            if residual_run:
                segments.append(("residual", GeneratorWord(gw.rank, tuple(residual_run))))
                residual_run = []
            segments.append(("sp", GeneratorWord(gw.rank, letters[i:best])))
            i = best
        else:
            residual_run.append(letters[i])
            i += 1
    if residual_run:
        segments.append(("residual", GeneratorWord(gw.rank, tuple(residual_run))))
    return RhoNormalForm(gw.rank, tuple(segments), nf.rho, nf.perm)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Conjugators ``c_1..c_m`` with the target equal to ``prod c_k rho c_k^{-1}``."""

    rank: int
    conjugators: tuple[GeneratorWord, ...]

    def product_word(self) -> GeneratorWord:
        r = rho(self.rank)
        out = GeneratorWord(self.rank)
        for c in self.conjugators:
            out = out * c * r * c.inverse()
        return out

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "conjugators": [str(c) for c in self.conjugators],
        }

    @classmethod
    def from_json(cls, data) -> "Certificate":
        from .symaut import parse_generator_word

        if not isinstance(data, dict) or "rank" not in data or "conjugators" not in data:
            raise WordError("certificate must be an object with 'rank' and 'conjugators'")
        rank, texts = data["rank"], data["conjugators"]
        if type(rank) is not int or rank < 1:
            raise WordError(f"certificate rank must be a positive integer, not {rank!r}")
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise WordError("certificate conjugators must be a list of strings")
        return cls(rank, tuple(parse_generator_word(t, rank) for t in texts))


def _node_certificate(node: SpNode, rank: int) -> list[GeneratorWord]:
    letters = node.letters()
    n = len(letters)
    # the nest below depth d is mirror-symmetric iff every pair (k, n-1-k)
    # with k >= d is equal: the outermost one starts after the last unequal pair
    top = max(
        (k + 1 for k in range(n // 2) if letters[k] != letters[n - 1 - k]), default=0
    )
    out: list[GeneratorWord] = []
    if top < n // 2:
        # mirror-symmetric block: v rev(v) = (v rho v^{-1}) rho, two factors
        out = [GeneratorWord(rank, letters[top : n // 2]), GeneratorWord(rank)]
    for d in reversed(range(top)):
        letter_word = GeneratorWord(rank, (letters[d],))
        out = [letter_word * c for c in out]
        if letters[n - 1 - d] == letters[d]:
            # a u a = (a u a^{-1}) a^2  and  a^2 = (a rho a^{-1}) rho
            out += [letter_word, GeneratorWord(rank)]
    return out


def _certificate_for_derivation(d: SemipalindromeDerivation) -> list[GeneratorWord]:
    out: list[GeneratorWord] = []
    for block in d.blocks:
        out.extend(_node_certificate(block, d.rank))
    return out


def _inner_relators(rank: int) -> list[GeneratorWord]:
    out = []
    for j in range(1, rank + 1):
        letters = tuple(("a", i, j, 1) for i in range(1, rank + 1) if i != j)
        out.append(GeneratorWord(rank, letters))
    return out


def certify(gw: GeneratorWord, search_depth: int = 2) -> Optional[Certificate]:
    """Certificate expressing ``gw`` as a product of conjugates of rho.

    Requires the normal form to have trivial permutation and an inversion
    vector that is all zero or all one (both are invariants of the outer
    class, so failure there is definitive).  The pure part is parsed as a
    product of semipalindromes first *without* free cancellation: cancelling
    across block boundaries can destroy parseability, while inputs built as
    products of conjugates of rho parse raw.  If neither the raw nor the
    reduced pure part parses, a bounded search multiplies by inner relators
    (words acting by conjugation) before giving up, so absence beyond the
    bound is reported honestly as None.
    """
    n = gw.rank
    nf_raw = semidirect_normal_form(gw, cancel=False)
    if nf_raw.perm != tuple(range(1, n + 1)):
        return None
    bits = set(nf_raw.rho)
    if bits not in ({0}, {1}, set()):
        return None
    add_rho = nf_raw.rho and nf_raw.rho[0] == 1

    def finish(conjugators: list[GeneratorWord]) -> Certificate:
        if add_rho:
            conjugators = conjugators + [GeneratorWord(n)]
        cert = Certificate(n, tuple(conjugators))
        if not verify_certificate(cert, gw):
            raise RuntimeError(f"internal: certificate for {gw} does not verify")
        return cert

    candidates = [nf_raw.pure, nf_raw.pure.free_cancel()]
    seen = set()
    frontier = []
    for cand in candidates:
        if cand.letters not in seen:
            seen.add(cand.letters)
            frontier.append(cand)
    for pure in frontier:
        d = parse_semipalindrome_product(pure)
        if d is not None:
            return finish(_certificate_for_derivation(d))
    # bounded fallback: rewrite by inner relators, which do not change the
    # outer class, and retry the parse
    relators = _inner_relators(n)
    current = frontier[:]
    for _ in range(search_depth):
        nxt = []
        for pure in current:
            for rel in relators:
                for variant in (rel, rel.inverse()):
                    for cand in (variant * pure, pure * variant):
                        cand = cand.free_cancel()
                        if cand.letters in seen:
                            continue
                        seen.add(cand.letters)
                        d = parse_semipalindrome_product(cand)
                        if d is not None:
                            return finish(_certificate_for_derivation(d))
                        nxt.append(cand)
        current = nxt
    # last resort: an outer-trivial element is the empty product; gate the
    # image evaluation behind a length bound to stay responsive
    if len(nf_raw.pure.free_cancel().letters) <= 60:
        empty = Certificate(n, ())
        if verify_certificate(empty, gw):
            return empty
    return None


def verify_certificate(cert: Certificate, target: GeneratorWord) -> bool:
    """Does the certified product equal ``target`` in the outer group?

    Compares semidirect normal forms, which are exact in the automorphism
    group.  Permutation part and inversion vector are outer invariants, so a
    mismatch refutes immediately; equal pure parts (after free cancellation)
    confirm.  Only a nonzero pure residue falls back to evaluating images,
    which is exact but can be expensive: image words of long compositions
    grow exponentially, which is why the letter-level route comes first.
    """
    if cert.rank != target.rank:
        raise WordError("certificate / target rank mismatch")
    nf_w = semidirect_normal_form(cert.product_word(), cancel=True)
    nf_t = semidirect_normal_form(target, cancel=True)
    if nf_w.perm != nf_t.perm or nf_w.rho != nf_t.rho:
        return False
    residue = (nf_t.pure.inverse() * nf_w.pure).free_cancel()
    if not residue.letters:
        return True
    from .symaut import is_inner

    ctx = free_context(cert.rank)
    return is_inner(eval_generator_word(residue, ctx))


def random_rho_conjugate_product(
    rng, rank: int, max_factors: int = 6, max_conj_len: int = 10
) -> GeneratorWord:
    """Sample ``prod_k c_k rho c_k^{-1}`` with pure random conjugators."""
    letters = []
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i != j:
                letters.append(("a", i, j, 1))
                letters.append(("a", i, j, -1))
    out = GeneratorWord(rank)
    r = rho(rank)
    for _ in range(rng.randint(1, max_factors)):
        conj = GeneratorWord(
            rank, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_conj_len)))
        )
        out = out * conj * r * conj.inverse()
    return out
