"""The computable lifting pipeline.

Three maps are chained here:

* ``reduce_mod``: push a symmetric automorphism of the free group down to
  the order-k free product by reducing every conjugator mod k (at k = 2
  signs die because the generators become involutions).  Evaluation commutes
  with it, so the pipelines evaluate words directly in the order-2 product
  and ``reduce_mod`` stays the reference they are checked against;
* ``lift_restrict``: restrict an automorphism of the order-2 free product to
  its even-word subgroup E, a free group of rank ``n-1`` with basis
  ``x_i = z_i z_n``;
* ``kernel_verdict``: decide membership in the kernel of the reduction, by
  the direct route (is the reduced automorphism inner?) and by the lift route
  (is the restriction inner, or inner after inverting every ``x_i``?).

Evaluation in the order-2 product reduces a word in its letter group first
(:func:`~symlift.symaut.eval_generator_word`), so a conjugate
``c rho c^-1`` builds no image at all.

Before it evaluates anything, ``kernel_verdict`` reads the word's action on
``H_1(E) = Z^{n-1}`` (:func:`_h1_refutes`), one sparse vector step per
letter.  An inner automorphism of the order-2 product restricts to E as an
inner automorphism, possibly composed with inverting every ``x_i``, so it
acts there as ``I`` or ``-I``: any other matrix proves the word out of the
kernel, and the verdict says so without building an image.  The test is
exact one way only.  At rank 2 it never refutes (``GL(1, Z) = {+-1}``).  At
rank 3 it decides the lift route both ways, since the kernel of
``Aut(F_2) -> GL(2, Z)`` is ``Inn(F_2)`` (Nielsen); the routes still run on
a ``+-I`` word to produce the witnesses.  From rank 4 up, ``+-I`` proves
nothing, and the routes decide.

For rank >= 3 the two routes provably agree; at rank 2 only the lift route is
authoritative (the generator swap restricts to the inverting map, collapsing
the direct route), and there the lift route reports everything in the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from .symaut import (
    GeneratorWord,
    SymmetricAut,
    _h2_reduced,
    canonical_image,
    eval_generator_word,
    inner_witness_of,
)
from .words import (
    GroupContext,
    Word,
    WordError,
    _extend_reduced,
    conjugation_step,
    even_to_x,
    free_context,
    format_word,
    generator_conjugate_shape,
    inner_conjugator,
    inner_witness,  # unused here; perfbench/tests/test_tracing.py asserts this binding
    project_mod_k,
    torsion_context,
)

Route = Literal["inner-in-H", "lift", "both"]


def reduce_mod(f: SymmetricAut, k: int) -> SymmetricAut:
    """Reduce generators mod ``k``; conjugators project, targets survive.

    For ``k == 2`` signs are dropped (an involution equals its inverse).  For
    larger ``k`` an inverted generator has no symmetric image, so signs must
    all be +1 (braid images always are).
    """
    if not f.ctx.is_free:
        raise WordError("reduce_mod expects a free-context automorphism")
    if k > 2 and any(s != 1 for _, _, s in f.images):
        raise WordError("cannot reduce a generator-inverting automorphism mod k > 2")
    ctx = torsion_context(f.ctx.rank, k)
    images = tuple(
        canonical_image(project_mod_k(conj, k), target, 1) for conj, target, _sign in f.images
    )
    return SymmetricAut(ctx, images)


@dataclass(frozen=True)
class Restriction:
    """Automorphism of the even-word free group, given by x-images."""

    ctx: GroupContext
    images: tuple[Word, ...]

    def inner_witness(self) -> Optional[Word]:
        """The word conjugating every ``x_i`` to its image, or None: also
        when some image is no conjugate of a generator."""
        shapes = [generator_conjugate_shape(img) for img in self.images]
        if None in shapes:
            return None
        return inner_conjugator(shapes, self.ctx)

    def to_json(self) -> dict:
        return {
            "rank": self.ctx.rank,
            "images": {f"x{i}": format_word(w) for i, w in enumerate(self.images, 1)},
        }


def _restricted_images(h: SymmetricAut) -> Iterator[Word]:
    """The x-words ``h(x_1), ..., h(x_{n-1})``, built one at a time.

    Computes ``h(x_i) = h(z_i) h(z_n)`` and rewrites it in the x-basis; exact
    because parity is preserved (each generator image has odd length).  With
    ``h(z_i) = c_i z_{t_i} c_i^{-1}`` the product is one
    :func:`~symlift.words.conjugation_step` ``c_i z_{t_i} c_i^{-1} c_n``
    followed by ``z_{t_n} c_n^{-1}``, whose junction can cancel (``c_n`` may
    be a prefix of ``c_i``), so it goes through ``_extend_reduced``.  The
    context is checked when the first image is asked for.
    """
    ctx = h.ctx
    if ctx.is_free or ctx.torsion != 2:
        raise WordError("lift_restrict expects an order-2 free-product automorphism")
    if ctx.rank < 2:
        raise WordError("lift_restrict needs rank >= 2")
    cn, tn, _ = h.images[-1]
    tail = ((tn, 1),) + cn.syllables[::-1]
    for ci, ti, _ in h.images[:-1]:
        out = list(conjugation_step(ci.syllables, (ti, 1), cn.syllables, ctx))
        _extend_reduced(out, tail, 2)
        yield even_to_x(Word(ctx, tuple(out)))


def lift_restrict(h: SymmetricAut) -> Restriction:
    """Restriction of an order-2 free-product automorphism to even words:
    every image of :func:`_restricted_images`, in the rank ``n-1`` x-basis."""
    images = tuple(_restricted_images(h))
    return Restriction(free_context(h.ctx.rank - 1, letter="x"), images)


@dataclass(frozen=True)
class LiftResult:
    inner_witness: Optional[Word]
    composed_with_iota: bool

    @property
    def in_kernel(self) -> bool:
        return self.inner_witness is not None


def lift_route(h: SymmetricAut) -> LiftResult:
    """Kernel test through the restriction: inner, or inner after iota.

    Both tests need every image to be a conjugate of an x-generator, so the
    images are restricted one at a time and the route stops at the first
    whose shape is not: a word whose image j fails builds j images, not
    ``n-1``.  Each shape is taken once.  Inverting every ``x_i`` (iota)
    sends every image to its inverse, and the shape of ``w^{-1}`` is that of
    ``w`` with the sign flipped, so the second test reuses the shapes with
    every sign flipped.
    """
    shapes = []
    for img in _restricted_images(h):
        shape = generator_conjugate_shape(img)
        if shape is None:
            return LiftResult(None, False)
        shapes.append(shape)
    ctx = free_context(h.ctx.rank - 1, letter="x")
    w = inner_conjugator(shapes, ctx)
    if w is not None:
        return LiftResult(w, False)
    w = inner_conjugator([(c, t, -s) for c, t, s in shapes], ctx)
    return LiftResult(w, w is not None)


@dataclass(frozen=True)
class KernelVerdict:
    rank: int
    word: GeneratorWord
    route: Route
    verdict: Literal["in", "out"]
    routes: dict
    agree: Optional[bool]
    h_witness: Optional[Word]
    lift_result: Optional[LiftResult]

    def to_json(self) -> dict:
        payload: dict = {
            "rank": self.rank,
            "word": str(self.word),
            "route": self.route,
            "verdict": self.verdict,
            "routes": self.routes,
        }
        if self.agree is not None:
            payload["agree"] = self.agree
        witnesses: dict = {}
        if self.h_witness is not None:
            witnesses["inner_in_h"] = format_word(self.h_witness)
        if self.lift_result is not None and self.lift_result.inner_witness is not None:
            witnesses["lift_inner"] = format_word(self.lift_result.inner_witness)
            witnesses["composed_with_iota"] = self.lift_result.composed_with_iota
        payload["witnesses"] = witnesses
        return payload


# the lift route's answer for every word the H_1 pass refutes
_NOT_INNER = LiftResult(None, False)


def _h1_refutes(gw: GeneratorWord) -> bool:
    """Whether ``gw`` acts on ``H_1(E) = Z^{n-1}`` as neither ``I`` nor
    ``-I``, which proves it out of the kernel.

    With f the automorphism of the order-2 product, ``v_a`` is the class of
    ``f(z_a) z_n``: ``e_a`` for a < n and 0 for a = n at the empty word.
    Column a of the matrix is ``v_a - v_n``, the class of ``f(x_a) =
    (f(z_a) z_n) (f(z_n) z_n)^{-1}``.  Words right-multiply, as in
    :func:`~symlift.symaut.act_letters`: ``a[i,j]^{+-1}`` sends ``f(z_i)`` to
    ``f(z_j) f(z_i) f(z_j)``, so ``v_i <- 2 v_j - v_i``; ``s[i,j]`` swaps
    ``v_i`` and ``v_j``; ``r[i]`` acts trivially.  Only the vectors a letter
    has moved are stored, each a sparse ``{index: coefficient}`` dict that
    its first move creates.  ``a[i,j]`` negates ``v_i``'s dict in place and
    adds ``2 v_j`` to it entry by entry; ``s[i,j]`` exchanges the two dicts,
    so no two indices share one.  A letter costs the sizes of the vectors it
    reads, whatever the rank, and builds no dict after that first move.
    """
    n = gw.rank
    moved: dict[int, dict[int, int]] = {}
    for letter in gw.letters:
        kind = letter[0]
        if kind == "a":
            i, j = letter[1], letter[2]
            vi = moved.get(i)
            if vi is None:
                vi = moved[i] = {} if i == n else {i: 1}
            for k, c in vi.items():
                vi[k] = -c
            vj = moved.get(j)
            if vj is None:  # unmoved, v_j is e_j, or 0 at j = n
                if j != n:
                    c = vi.get(j, 0) + 2
                    if c:
                        vi[j] = c
                    else:
                        del vi[j]
            else:
                for k, c in vj.items():
                    c = vi.get(k, 0) + 2 * c
                    if c:
                        vi[k] = c
                    else:
                        del vi[k]
        elif kind == "s":
            i, j = letter[1], letter[2]
            vi = moved.get(i)
            vj = moved.get(j)
            moved[i] = ({} if j == n else {j: 1}) if vj is None else vj
            moved[j] = ({} if i == n else {i: 1}) if vi is None else vi
    vn = moved.get(n, {})
    # while v_n = 0 an unmoved column is e_a, so only the moved ones are read
    columns = range(1, n) if vn else [a for a in moved if a != n]
    signs = {1} if len(columns) < n - 1 else set()
    for a in columns:
        va = moved.get(a)
        column = {a: 1} if va is None else dict(va)
        for k, c in vn.items():
            c = column.get(k, 0) - c
            if c:
                column[k] = c
            else:
                del column[k]
        sign = column.get(a)
        if len(column) != 1 or sign not in (1, -1):
            return True
        signs.add(sign)
    return len(signs) > 1


def kernel_verdict(gw: GeneratorWord, route: Route = "both") -> KernelVerdict:
    """Membership in the kernel of the mod-2 reduction, with witnesses.

    The word is reduced in ``H_n(2)`` once, and the refutation and the
    evaluation both read the reduced word.  If its action on ``H_1(E)``
    refutes it (:func:`_h1_refutes`), every asked route reads false and
    nothing is evaluated; otherwise the routes run on its automorphism.
    At rank 2 the ``both`` route still reports agreement, but the verdict
    follows the lift route alone.
    """
    n = gw.rank
    if n < 2:
        raise WordError("kernel_verdict needs rank >= 2")
    reduced = _h2_reduced(gw)
    h = None if _h1_refutes(reduced) else eval_generator_word(reduced, torsion_context(n, 2))
    routes: dict = {}
    h_witness = None
    lift_result = None
    if route in ("inner-in-H", "both"):
        h_witness = None if h is None else inner_witness_of(h)
        routes["inner-in-H"] = h_witness is not None
    if route in ("lift", "both"):
        lift_result = _NOT_INNER if h is None else lift_route(h)
        routes["lift"] = lift_result.in_kernel
    if route == "both":
        agree = routes["inner-in-H"] == routes["lift"]
        authoritative = routes["lift"] if n == 2 else routes["inner-in-H"]
    else:
        agree = None
        authoritative = routes[route]
    return KernelVerdict(
        rank=n,
        word=gw,
        route=route,
        verdict="in" if authoritative else "out",
        routes=routes,
        agree=agree,
        h_witness=h_witness,
        lift_result=lift_result,
    )
