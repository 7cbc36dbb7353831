"""Slow, independent references that the tests hold the fast paths to."""

from __future__ import annotations

import functools

from symlift.words import Syllable, Word, free_context, normalize


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


def checked_even_to_x(fast):
    """``fast`` (an ``even_to_x``), failing with ``AssertionError`` on any
    result that differs from :func:`even_to_x_reference`.  Errors that
    ``fast`` raises pass through unchanged."""

    @functools.wraps(fast)
    def even_to_x(w: Word) -> Word:
        got = fast(w)
        want = even_to_x_reference(w)
        if got != want or got.ctx.letter != want.ctx.letter:
            raise AssertionError(f"even_to_x({w}) gave {got}, the reference {want}")
        return got

    return even_to_x
