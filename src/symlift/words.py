"""Exact word algebra in free groups and free products of finite cyclic groups.

Two families of groups are supported, selected by a ``GroupContext``:

* the free group on ``n`` generators (``torsion is None``), and
* the free product of ``n`` copies of the cyclic group of order ``k``
  (``torsion == k``).

Words are stored in syllable normal form: a tuple of ``(generator, exponent)``
pairs with nonzero exponents (taken in ``1..k-1`` for torsion contexts) and no
two adjacent syllables on the same generator.  The empty tuple is the
identity.  Everything here is an immutable value and every operation is a
pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

Syllable = tuple[int, int]


class WordError(ValueError):
    """Raised for malformed words, context mismatches and bad indices."""


@dataclass(frozen=True)
class GroupContext:
    """Ambient group: rank ``n`` plus optional torsion modulus ``k``.

    ``letter`` is presentation metadata only (how generators print); it does
    not participate in equality, so the even-word copy of a free group (letter
    ``x``) compares equal to the plain one of the same rank.
    """

    rank: int
    torsion: Optional[int] = None
    letter: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise WordError(f"rank must be >= 1, got {self.rank}")
        if self.torsion is not None and self.torsion < 2:
            raise WordError(f"torsion modulus must be >= 2, got {self.torsion}")
        if not self.letter:
            object.__setattr__(self, "letter", "z" if self.torsion else "y")

    @property
    def is_free(self) -> bool:
        return self.torsion is None

    def describe(self) -> str:
        if self.is_free:
            return f"F:{self.rank}"
        return f"H:{self.rank}:{self.torsion}"


def check_rank(n: int, limit: int, what: str) -> None:
    """Refuse a rank over ``limit`` before anything rank-sized is built."""
    if n > limit:
        raise WordError(f"{what} are limited to rank <= {limit}, not {n}")


# one object per context: words built in it pass the ``is`` check in
# ``_require_same_ctx`` instead of falling back to the dataclass ``__eq__``
@lru_cache(maxsize=None)
def free_context(rank: int, letter: str = "y") -> GroupContext:
    return GroupContext(rank, None, letter)


@lru_cache(maxsize=None)
def torsion_context(rank: int, modulus: int) -> GroupContext:
    return GroupContext(rank, modulus)


def parse_context(text: str) -> GroupContext:
    parts = text.strip().split(":")
    if parts and parts[0] == "F" and len(parts) == 2:
        return free_context(int(parts[1]))
    if parts and parts[0] == "H" and len(parts) == 3:
        return torsion_context(int(parts[1]), int(parts[2]))
    raise WordError(f"bad context {text!r}; expected F:n or H:n:k")


@dataclass(frozen=True)
class Word:
    """Reduced word.  Construct through :func:`normalize`, :func:`generator`
    or :func:`parse_word`; ``Word(ctx, syllables)`` itself does not reduce,
    so it takes only syllables already in normal form."""

    ctx: GroupContext
    syllables: tuple[Syllable, ...]

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        _require_same_ctx(self.ctx, other.ctx)
        out = list(self.syllables)
        _extend_reduced(out, other.syllables, self.ctx.torsion)
        return Word(self.ctx, tuple(out))

    def inverse(self) -> "Word":
        k = self.ctx.torsion
        inv = [(g, -e if k is None else (-e) % k) for g, e in reversed(self.syllables)]
        return Word(self.ctx, tuple(inv))

    def pow(self, m: int) -> "Word":
        """``self^m``, as one :func:`normalize` of |m| copies of the base."""
        base = self if m >= 0 else self.inverse()
        return normalize(base.syllables * abs(m), self.ctx)

    def conjugated_by(self, g: "Word") -> "Word":
        """g * self * g^{-1}."""
        return g * self * g.inverse()

    def sort_key(self) -> tuple:
        return (len(self.syllables), self.syllables)

    def __str__(self) -> str:
        return format_word(self)


def _require_same_ctx(a: GroupContext, b: GroupContext) -> None:
    # one object per context is the common case: skip the dataclass __eq__
    if a is not b and a != b:
        raise WordError(f"context mismatch: {a.describe()} vs {b.describe()}")


def _extend_reduced(
    out: list[Syllable], sylls: tuple[Syllable, ...], modulus: Optional[int]
) -> None:
    """Append the reduced syllables ``sylls`` to the reduced list ``out``.

    Only the junction can cancel: syllables merge into the end of ``out``
    while they meet its last generator, and once one does not, the rest is
    already reduced and is copied in bulk.
    """
    for t, (gen, exp) in enumerate(sylls):
        if not out or out[-1][0] != gen:
            out.extend(sylls[t:] if t else sylls)
            return
        merged = out.pop()[1] + exp
        if modulus is not None:
            merged %= modulus
        if merged != 0:
            out.append((gen, merged))


def conjugation_step(
    c: tuple[Syllable, ...], g: Syllable, d: tuple[Syllable, ...], ctx: GroupContext
) -> tuple[Syllable, ...]:
    """The reduced syllables of ``c g c^{-1} d``, for reduced ``c`` and ``d``
    and a syllable ``g`` on a generator that ``c`` does not end in.

    ``c g c^{-1}`` is reduced as written, and its ``c^{-1}`` meets ``d``
    only across their common prefix ``c[:m]``, which cancels whole.  When
    ``c`` is longer than ``m`` the rest is ``c g c[m:]^{-1} d[m:]``, and
    only the junction can merge: ``c[m]`` and ``d[m]`` differ, so on a shared
    generator they leave one nonzero syllable, whose neighbours are on other
    generators.  When ``c`` is a prefix of ``d``, ``g`` meets ``d[m:]`` and a
    cancellation there can run back into ``c``, so :func:`_extend_reduced`
    takes that case.
    """
    k = ctx.torsion
    m = 0
    for a, b in zip(c, d):
        if a != b:
            break
        m += 1
    if m == len(c):
        out = list(c)
        out.append(g)
        _extend_reduced(out, d[m:], k)
        return tuple(out)
    rest = c[: m - 1 : -1] if m else c[::-1]  # c[m:]^{-1}: at torsion 2 a reversal
    if k != 2:
        rest = tuple((h, -e if k is None else k - e) for h, e in rest)
    if m < len(d) and c[m][0] == d[m][0]:
        merged = d[m][1] - c[m][1]
        if k is not None:
            merged %= k
        return c + (g,) + rest[:-1] + ((d[m][0], merged),) + d[m + 1 :]
    return c + (g,) + rest + d[m:]


def normalize(raw: Iterable[Syllable], ctx: GroupContext) -> Word:
    """Reduce a raw syllable sequence to normal form.

    Idempotent, and a monoid homomorphism from raw sequences to the group:
    interleaving normalization with concatenation never changes the result.
    """
    modulus = ctx.torsion
    out: list[Syllable] = []
    for gen, exp in raw:
        if not 1 <= gen <= ctx.rank:
            raise WordError(f"generator index {gen} out of range 1..{ctx.rank}")
        if not isinstance(exp, int):
            raise WordError(f"exponent {exp!r} is not an integer")
        if modulus is not None:
            exp %= modulus
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out.pop()[1] + exp
            if modulus is not None:
                merged %= modulus
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return Word(ctx, tuple(out))


def identity(ctx: GroupContext) -> Word:
    return Word(ctx, ())


def generator(ctx: GroupContext, i: int, exp: int = 1) -> Word:
    return normalize(((i, exp),), ctx)


_SYLLABLE_RE = re.compile(r"^([xyz])(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, ctx: GroupContext) -> Word:
    text = text.strip()
    if text in ("", "e"):
        return identity(ctx)
    raw: list[Syllable] = []
    letters = set()
    for token in text.split():
        m = _SYLLABLE_RE.match(token)
        if m is None:
            raise WordError(f"bad syllable {token!r}")
        letters.add(m.group(1))
        raw.append((int(m.group(2)), int(m.group(3) or 1)))
    if len(letters) > 1:
        raise WordError(f"mixed generator letters in {text!r}")
    return normalize(raw, ctx)


def format_word(w: Word) -> str:
    if not w.syllables:
        return "e"
    letter = w.ctx.letter
    parts = []
    for gen, exp in w.syllables:
        parts.append(f"{letter}{gen}" if exp == 1 else f"{letter}{gen}^{exp}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Conjugacy
# ---------------------------------------------------------------------------


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = p * c * p^{-1}`` with ``c`` cyclically reduced.

    Returns ``(p, c)``.  A word is cyclically reduced when its first and last
    syllables involve distinct generators (or it has at most one syllable).
    Two pointers walk in from both ends while the end syllables share a
    generator, so the cost is linear in ``len(w)``.  When their exponents do
    not cancel, the merged syllable closes the core: the next syllable from
    the left is on another generator, so no further peel is possible.
    """
    ctx = w.ctx
    sylls = w.syllables
    i, j = 0, len(sylls) - 1
    while i < j and sylls[i][0] == sylls[j][0]:
        gen, a = sylls[i]
        merged = a + sylls[j][1]
        if ctx.torsion is not None:
            merged %= ctx.torsion
        if merged != 0:
            core = sylls[i + 1 : j] + ((gen, merged),)
            return Word(ctx, sylls[: i + 1]), Word(ctx, core)
        i += 1
        j -= 1
    return Word(ctx, sylls[:i]), Word(ctx, sylls[i : j + 1])


def primitive_root(core: Word) -> Word:
    """Smallest word r with core = r^d; requires core cyclically reduced."""
    sylls = core.syllables
    if not sylls:
        return core
    if len(sylls) == 1:
        gen, exp = sylls[0]
        e = 1 if (core.ctx.torsion is not None or exp > 0) else -1
        return Word(core.ctx, ((gen, e),))
    n = len(sylls)
    for d in range(1, n + 1):
        if n % d:
            continue
        if sylls == sylls[:d] * (n // d):
            return Word(core.ctx, sylls[:d])
    return core


def conjugacy_witness(u: Word, v: Word) -> Optional[Word]:
    """The shortest g with g u g^{-1} = v (ties broken by syllables), or None.

    With ``u = p cu p^{-1}`` and ``v = q cv q^{-1}`` (:func:`cyclic_reduce`)
    the conjugators are ``q h p^{-1}`` with ``h cu h^{-1} = cv``.  Cores of
    at most one syllable must be equal; ``h`` is then a power ``g^t`` of the
    core's generator, which ``p`` and ``q`` end off, so ``q g^t p^{-1}`` is
    one syllable longer than ``q p^{-1}`` when ``g^t != e``.  Longer cores
    are cyclic permutations ``cu = s r``, ``cv = r s`` (Lyndon-Schupp, Thm
    IV.1.4), so the conjugators are one coset ``g0 a^t`` with
    ``g0 = q s^{-1} p^{-1}`` and ``a = p root p^{-1}``.  Syllable length is
    half the distance from the base vertex ``o`` in the Bass-Serre tree
    (Serre, Trees), where ``a`` is hyperbolic: ``|g0 a^t|`` falls and then
    rises in ``t``, by at least one syllable per step away from its minimum,
    which at most two adjacent ``t`` reach (the one ``t`` where the axis
    projections of ``g0^{-1} o`` and ``a^t o`` coincide is that minimum).
    The first matching rotation has ``|s| < |root|``, so for ``t < 0`` the
    word ``q (root^{-t} s)^{-1} p^{-1}`` loses at most one syllable at each
    junction and is longer than ``g0``: the walk goes up from ``t = 0``
    while the sort key strictly falls.
    """
    _require_same_ctx(u.ctx, v.ctx)
    ctx = u.ctx
    p, cu = cyclic_reduce(u)
    q, cv = cyclic_reduce(v)
    if len(cu) <= 1 or len(cv) <= 1:
        if cu != cv:
            return None
        best = q * p.inverse()
    else:
        c, d = cu.syllables, cv.syllables
        # the first rotation c[j:] + c[:j] equal to d is the first match of
        # d in c + c, found by one linear-time str.find on the printed
        # tuples: each syllable prints as "(g, e)", so a match starts and
        # ends on syllable boundaries, and the "(" before it number j + 1
        doubled = str(c + c)
        at = doubled.find(str(d)[1:-1]) if len(c) == len(d) else -1
        if at < 0:
            return None
        j = doubled.count("(", 0, at) - 1
        best = q * Word(ctx, c[:j]).inverse() * p.inverse()
        axis = p * primitive_root(cu) * p.inverse()
        g = best * axis
        while g.sort_key() < best.sort_key():
            best, g = g, g * axis
    if u.conjugated_by(best) != v:
        raise RuntimeError(f"internal: {best} does not conjugate {u} to {v}")
    return best


# ---------------------------------------------------------------------------
# Inner automorphism detection
# ---------------------------------------------------------------------------


def _trailing_exponent(w: Word, gen: int) -> int:
    if w.syllables and w.syllables[-1][0] == gen:
        return w.syllables[-1][1]
    return 0


def _leading_exponent(w: Word, gen: int) -> int:
    if w.syllables and w.syllables[0][0] == gen:
        return w.syllables[0][1]
    return 0


Coset = tuple[Word, int, Word]  # (A, t, B) stands for A <g_t> B^{-1}


def pinned_coset_element(first: Coset, second: Coset, ctx: GroupContext) -> Word:
    """The one ``w = A_1 g_{t_1}^m B_1^{-1}`` for which ``A_2^{-1} w B_2``
    keeps no ``g_{t_1}``-syllable in the middle: ``m = -(a+b)``, with ``a`` the
    trailing ``t_1``-exponent of ``A_2^{-1} A_1`` and ``b`` the leading one
    of ``B_1^{-1} B_2`` (0 when absent; mod k in a torsion context)."""
    a1, t1, b1 = first
    a2, _, b2 = second
    x = a2.inverse() * a1
    y = b1.inverse() * b2
    m = -(_trailing_exponent(x, t1) + _leading_exponent(y, t1))
    return a1 * generator(ctx, t1, m) * b1.inverse()


def coset_intersection(constraints: Sequence[Coset], ctx: GroupContext) -> Optional[Word]:
    """Solve ``w`` in the intersection of cosets ``A_i <g_{t_i}> B_i^{-1}``.

    ``constraints`` is a list of at least two ``(A_i, t_i, B_i)`` whose
    targets ``t_i`` are pairwise distinct (as for generator images of a
    symmetric automorphism).  It solves outer equality
    (``symaut.conjugating_witness``), in free contexts and in free products
    of cyclic groups alike; the inner test, where every ``B_i = e``, reads
    its answer off the conjugators instead (:func:`inner_conjugator`).

    Writing ``w = A_1 g^m B_1^{-1}``, membership in the second coset demands
    that the middle ``g_{t_1}``-syllable of ``A_2^{-1} A_1 g^m B_1^{-1} B_2``
    vanish (the reduced form otherwise retains a ``t_1``-syllable, while
    elements of ``<g_{t_2}>`` have none, and ``t_2 != t_1``).  That pins
    ``m`` (:func:`pinned_coset_element`); the argument uses only syllable
    normal form, so it holds in both contexts.  The single candidate is then
    verified against every constraint, stopping at the first that fails.
    Any two solutions differ by a central element, and centres here are
    trivial for rank >= 2, so the solution is unique when it exists.  With
    every ``B_i = e`` the same pin gives ``symaut.outer_form``.
    """
    if len(constraints) < 2:
        raise WordError("coset_intersection needs at least two constraints")
    if constraints[0][1] == constraints[1][1]:
        raise WordError("coset targets must be distinct")
    w = pinned_coset_element(constraints[0], constraints[1], ctx)
    for a_i, t_i, b_i in constraints:
        if not _is_power_of(a_i.inverse() * w * b_i, t_i):
            return None
    return w


def _is_power_of(w: Word, gen: int) -> bool:
    if len(w.syllables) == 0:
        return True
    return len(w.syllables) == 1 and w.syllables[0][0] == gen


def generator_conjugate_shape(w: Word) -> Optional[tuple[Word, int, int]]:
    """Decompose ``w = c * g_t^s * c^{-1}`` with ``s = +-1``; None otherwise.

    In a reduced ``c g_t^s c^{-1}`` the last syllable of ``c`` is not on
    ``t`` (it would merge), so nothing cancels and the word has exactly
    ``2|c| + 1`` syllables: ``g_t^s`` is the middle one, ``c`` the half
    before it, and the half after it must be ``c^{-1}``.  ``c`` is the
    canonical conjugator (it never ends in ``g_t``).  Torsion exponents lie
    in ``1..k-1``, so there ``s = -1`` cannot occur and ``s`` is 1.
    """
    sylls = w.syllables
    if not len(sylls) % 2:
        return None
    h = len(sylls) // 2
    gen, exp = sylls[h]
    if exp not in (1, -1):
        return None
    c = Word(w.ctx, sylls[:h])
    if sylls[h + 1 :] != c.inverse().syllables:
        return None
    return c, gen, exp


def inner_witness(images: Sequence[Word], ctx: GroupContext) -> Optional[Word]:
    """Word ``w`` with ``w g_i w^{-1} = images[i]`` for all i, or None.

    Any image that is not a conjugate of a generator or its inverse raises.
    The decomposed images go to :func:`inner_conjugator`.
    """
    if len(images) != ctx.rank:
        raise WordError(f"expected {ctx.rank} images, got {len(images)}")
    shapes = []
    for i, img in enumerate(images, start=1):
        _require_same_ctx(img.ctx, ctx)
        shape = generator_conjugate_shape(img)
        if shape is None:
            raise WordError(f"image {i} is not a conjugate of a generator: {img}")
        shapes.append(shape)
    return inner_conjugator(shapes, ctx)


def inner_conjugator(
    images: Sequence[tuple[Word, int, int]], ctx: GroupContext
) -> Optional[Word]:
    """Word ``w`` with ``w g_i w^{-1} = c_i g_{t_i}^{s_i} c_i^{-1}`` for all
    image triples, or None.  Every ``c_i`` must be canonical (not ending in
    ``g_{t_i}``), as in a ``SymmetricAut`` or a
    :func:`generator_conjugate_shape`.

    ``conj_w`` has each ``t_i = i`` and ``s_i = 1``, and ``c_i^{-1} w``
    centralizes ``g_i``.  The centralizer of a generator is its cyclic
    group, in free groups and in free products of cyclic groups, so
    ``w = c_i g_i^m`` for some ``m``.  As ``c_i`` does not end in ``g_i``,
    that product is reduced: ``c_i = w``, or ``c_i`` is ``w`` without its
    last syllable and that syllable is on ``g_i``.  At rank >= 2 the last
    syllable of ``w`` is on one generator only, so some ``c_i = w`` and
    ``w`` is the longest conjugator.  Conversely, a longest ``w`` that
    passes those ``n`` comparisons lies in every ``c_i <g_i>``, so it is
    the witness, and the only one (the centre is trivial at rank >= 2).
    """
    for i, (_, target, sign) in enumerate(images, start=1):
        if target != i or sign != 1:
            return None
    if ctx.rank == 1:
        return identity(ctx)  # rank 1: conjugation is trivial, the map must be identity
    w = max((conj for conj, _, _ in images), key=len)
    sylls = w.syllables
    head = sylls[:-1]
    last = sylls[-1][0] if sylls else 0
    for i, (conj, _, _) in enumerate(images, start=1):
        if conj.syllables != sylls and (last != i or conj.syllables != head):
            return None
    return w


# ---------------------------------------------------------------------------
# Reduction mod k and the even-word basis
# ---------------------------------------------------------------------------


def project_mod_k(w: Word, k: int) -> Word:
    """Homomorphic image under generator-wise reduction mod ``k``."""
    if not w.ctx.is_free:
        raise WordError("project_mod_k expects a free-context word")
    return normalize(w.syllables, torsion_context(w.ctx.rank, k))


# the x-syllables ``(g, 1)`` and ``(g, -1)`` that every ``even_to_x`` output
# shares, added the first time a word brings a generator: they hold only the
# generators seen, whatever the rank
_X_PLUS: dict[int, Syllable] = {}
_X_MINUS: dict[int, Syllable] = {}


def even_to_x(w: Word) -> Word:
    """Rewrite an even word of the order-2 free product in the basis
    ``x_i = z_i z_n`` (with ``x_n`` standing for the identity).

    The input pairs up as ``(z_a z_b)(z_c z_d)...`` and each pair ``z_a z_b``
    expands to ``z_a z_n . z_n z_b = x_a x_b^{-1}``.  Exact inverse of
    substituting ``x_i -> z_i z_n`` and reducing.

    The rewrite is one pass over the pairs that only ever merges, and its
    output is reduced as built.  In a reduced z-word ``a != b`` inside a
    pair, so ``x_a x_b^{-1}`` is reduced; across pairs ``b != c``, so
    ``x_b^{-1} x_c`` is too.  The only interaction is where ``z_n`` is
    skipped: ``x_a`` after a pair ``z_a z_n`` (as in ``z_a z_n z_a z_b ->
    x_a^2 x_b^{-1}``), or ``x_b^{-1}`` after a pair ``z_a z_b`` when the next
    pair is ``z_n z_b``.  Both are same-sign merges, so no syllable ever
    cancels.  A pair ``z_a z_a``, and any other cancellation an unreduced
    input would need, raises ``WordError``.

    Every unmerged syllable is the shared tuple from ``_X_PLUS`` or
    ``_X_MINUS``, added there the first time a word brings its generator;
    only merged powers are new tuples.
    """
    ctx = w.ctx
    if ctx.is_free or ctx.torsion != 2:
        raise WordError("even_to_x expects a word over an order-2 free product")
    if ctx.rank < 2:
        raise WordError("even_to_x needs rank >= 2")
    if len(w) % 2:
        raise WordError(f"odd-length word: {w}")
    n = ctx.rank
    plus, minus = _X_PLUS, _X_MINUS
    out: list[Syllable] = []
    last = 0  # the generator of out[-1], 0 while out is empty
    pairs = iter(w.syllables)
    for (a, _), (b, _) in zip(pairs, pairs):
        if a == b:
            raise WordError(f"unreduced pair z{a} z{b} in {w}")
        if a != n:
            if a == last:
                exp = out[-1][1] + 1
                if not exp:
                    raise WordError(f"unreduced word: {w}")
                out[-1] = (a, exp)
            else:
                out.append(plus.get(a) or plus.setdefault(a, (a, 1)))
            last = a
        if b != n:
            if b == last:
                exp = out[-1][1] - 1
                if not exp:
                    raise WordError(f"unreduced word: {w}")
                out[-1] = (b, exp)
            else:
                out.append(minus.get(b) or minus.setdefault(b, (b, -1)))
            last = b
    return Word(free_context(n - 1, letter="x"), tuple(out))
