"""Slow, independent references that the tests hold the fast paths to."""

from __future__ import annotations

import functools
from typing import Optional

from symlift.words import (
    GroupContext,
    Syllable,
    Word,
    coset_intersection,
    cyclic_reduce,
    free_context,
    identity,
    normalize,
)


def even_to_x_reference(w: Word) -> Word:
    """``even_to_x`` through a raw list and ``normalize``: each pair
    ``z_a z_b`` becomes ``x_a x_b^{-1}`` with ``x_n`` dropped, and
    ``normalize`` does every merge and cancellation.  Expects an even word of
    an order-2 free product of rank >= 2."""
    n = w.ctx.rank
    raw: list[Syllable] = []
    sylls = w.syllables
    for t in range(0, len(sylls), 2):
        a, b = sylls[t][0], sylls[t + 1][0]
        if a != n:
            raw.append((a, 1))
        if b != n:
            raw.append((b, -1))
    return normalize(raw, free_context(n - 1, letter="x"))


def inner_conjugator_reference(images, ctx: GroupContext) -> Optional[Word]:
    """``inner_conjugator`` as a coset solve: each ``t_i = i`` and
    ``s_i = 1``, and ``w`` in every ``c_i <g_i>``, intersected by
    ``coset_intersection``."""
    e = identity(ctx)
    constraints = []
    for i, (conj, target, sign) in enumerate(images, start=1):
        if target != i or sign != 1:
            return None
        constraints.append((conj, target, e))
    if ctx.rank == 1:
        return e
    return coset_intersection(constraints, ctx)


def generator_conjugate_shape_reference(w: Word) -> Optional[tuple[Word, int, int]]:
    """``generator_conjugate_shape`` through ``cyclic_reduce``: the core
    must be one syllable ``g_t^s`` with ``s = 1``, or ``s = -1`` in a free
    context."""
    p, core = cyclic_reduce(w)
    if len(core) != 1:
        return None
    gen, exp = core.syllables[0]
    if exp != 1 and (exp != -1 or not w.ctx.is_free):
        return None
    return p, gen, exp


def checked(fast, reference):
    """``fast``, failing with ``AssertionError`` on any result that differs
    from ``reference`` on the same arguments, the printed context letter of
    every word included.  Errors that ``fast`` raises pass through
    unchanged."""

    @functools.wraps(fast)
    def wrapper(*args):
        got = fast(*args)
        want = reference(*args)
        if repr(got) != repr(want):
            raise AssertionError(f"{fast.__name__}{args} gave {got}, the reference {want}")
        return got

    return wrapper


def checked_even_to_x(fast):
    """``fast`` (an ``even_to_x``) held to :func:`even_to_x_reference`."""
    return checked(fast, even_to_x_reference)
