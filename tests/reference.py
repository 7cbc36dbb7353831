"""Slow, independent references that the tests hold the fast paths to, and
the one way the tests build a mutant from library source."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import sys
from typing import Optional

from symlift.braid import BraidWord
from symlift.complexes import (
    HomologyReport,
    LabelledBipartiteTree,
    NuclearVertex,
    WhiteheadPoset,
    _canonicalize_factors,
    _dense_smith,
)
from symlift.kernel import _require_pure
from symlift.lift import Restriction, lift_route
from symlift.symaut import (
    GeneratorWord,
    Letter,
    NormalForm,
    SymmetricAut,
    act_letters,
    all_letters,
    identity_aut,
    inner_witness_of,
    letter_inverse,
)
from symlift.words import (
    GroupContext,
    Syllable,
    Word,
    WordError,
    coset_intersection,
    cyclic_reduce,
    free_context,
    generator,
    identity,
    normalize,
    torsion_context,
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


def project_mod_k_reference(w: Word, k: int) -> Word:
    """``project_mod_k``'s own fold before it went through ``normalize``:
    each exponent reduced mod ``k`` and merged into the last syllable."""
    out: list[Syllable] = []
    for gen, exp in w.syllables:
        exp %= k
        if not exp:
            continue
        if out and out[-1][0] == gen:
            merged = (out.pop()[1] + exp) % k
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return Word(torsion_context(w.ctx.rank, k), tuple(out))


def conjugation_step_reference(c, g, d, ctx: GroupContext) -> tuple[Syllable, ...]:
    """``conjugation_step`` as one ``normalize`` of the syllables of ``c``,
    ``g``, ``c^{-1}`` and ``d`` in a row."""
    return normalize((*c, g, *Word(ctx, c).inverse().syllables, *d), ctx).syllables


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


def semidirect_normal_form_reference(gw: GeneratorWord, cancel: bool = True) -> NormalForm:
    """``semidirect_normal_form`` with an ``emit`` closure that tests
    cancellation against ``letter_inverse`` and a pure part built by the
    public constructor."""
    n = gw.rank
    pure: list[Letter] = []
    rho_bits = [0] * n
    perm = list(range(1, n + 1))  # perm[i-1] = sigma(i)

    def emit(letter: Letter) -> None:
        if cancel and pure and pure[-1] == letter_inverse(letter):
            pure.pop()
        else:
            pure.append(letter)

    for letter in gw.letters:
        kind = letter[0]
        if kind == "a":
            _, i, j, e = letter
            si, sj = perm[i - 1], perm[j - 1]
            emit(("a", si, sj, e * (-1 if rho_bits[sj - 1] else 1)))
        elif kind == "r":
            rho_bits[perm[letter[1] - 1] - 1] ^= 1
        else:
            _, i, j = letter
            perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return NormalForm(GeneratorWord(n, tuple(pure)), tuple(rho_bits), tuple(perm))


def parse_semipalindrome_product_reference(gw: GeneratorWord) -> Optional[tuple[tuple, ...]]:
    """``parse_semipalindrome_product`` with mirrored letters matched
    through ``letter_inverse`` and each block end taken as the ``min`` of
    every end that works."""
    _require_pure(gw)
    letters = gw.letters
    n = len(letters)
    if n % 2:
        return None
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

    splittable = [False] * n + [True]
    for i in range(n - 2, -1, -2):
        splittable[i] = any(splittable[j] and sp(i, j) for j in range(i + 2, n + 1, 2))
    if not splittable[0]:
        return None
    blocks = []
    i = 0
    while i < n:
        j = min(j for j in range(i + 2, n + 1, 2) if splittable[j] and sp(i, j))
        blocks.append(letters[i:j])
        i = j
    return tuple(blocks)


def smith_rank_divisors_reference(
    rows: dict[int, dict[int, int]],
) -> tuple[int, list[int], list[int]]:
    """Rank, elementary divisors and unit pivot rows of a sparse integer
    matrix given as rows, which it consumes: the row-and-column elimination
    that ``complexes._reduce_columns`` replaced.

    Walks the columns once, in descending index order, pivoting each on a
    +-1 entry in its shortest row (a unimodular step, so rank and divisors
    are unchanged; the order only moves fill, and descending order makes
    about half as much as ascending on the rank-6 top boundary), then runs a
    dense Smith reduction on whatever survives, unit entries made by fill
    included.  A unit pivot row, as it stands when it is pivoted, is zero at
    every earlier pivot column and +-1 at its own, and it differs from its
    input row by multiples of earlier pivot rows.  So the input's block on
    the unit pivot rows and their columns is unimodular.  The dense phase's
    pivots have no such block and are not returned.
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    pivot_rows = []
    for c0 in sorted(cols, reverse=True):
        # the +-1 entry in the shortest row, ties to the smallest row id
        r0 = -1
        shortest = 0
        for r in cols[c0]:
            row = rows[r]
            v = row[c0]
            if (v == 1 or v == -1) and (
                r0 < 0 or len(row) < shortest or (len(row) == shortest and r < r0)
            ):
                r0, shortest = r, len(row)
        if r0 < 0:
            continue
        prow = rows.pop(r0)
        v0 = prow.pop(c0)
        targets = cols.pop(c0)
        targets.discard(r0)
        for c in prow:
            cols[c].discard(r0)
        for r in targets:
            row = rows[r]
            factor = row.pop(c0) * v0  # v0 in {1,-1}: row -= factor * prow
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -factor * v
                    cols[c].add(r)
                elif old == factor * v:
                    del row[c]
                    cols[c].discard(r)
                else:
                    row[c] = old - factor * v
            if not row:
                del rows[r]
        pivot_rows.append(r0)
    unit_pivots = len(pivot_rows)
    if not rows:
        return unit_pivots, [1] * unit_pivots, pivot_rows
    # dense Smith normal form on the small leftover core
    row_ids = sorted(rows)
    col_ids = sorted({c for row in rows.values() for c in row})
    a = [[rows[r].get(c, 0) for c in col_ids] for r in row_ids]
    divisors = _dense_smith(a)
    rank = unit_pivots + len(divisors)
    return rank, [1] * unit_pivots + divisors, pivot_rows


def label_components_reference(labels, sets) -> list[frozenset]:
    """The components of ``labels``, each set joining its labels, sorted by
    smallest label, by merging: every label maps to its component, and each
    set replaces the components of its labels by their union."""
    component = {l: frozenset((l,)) for l in labels}
    for s in sets:
        merged = frozenset().union(*(component[l] for l in s))
        for l in merged:
            component[l] = merged
    return sorted(set(component.values()), key=min)


def components_without(t: LabelledBipartiteTree, label: int) -> list[frozenset[int]]:
    """Label sets of the components of the tree minus one labelled vertex,
    sorted by smallest label, by the merge above."""
    others = [l for l in range(1, t.rank + 1) if l != label]
    return label_components_reference(others, [unit - {label} for unit in t.units])


def restriction_apply(r: Restriction, w: Word) -> Word:
    """The x-word ``w`` with every ``x_i`` replaced by ``r``'s image of it,
    reduced by one ``normalize``."""
    raw: list[Syllable] = []
    for gen, exp in w.syllables:
        img = r.images[gen - 1]
        raw += (img if exp > 0 else img.inverse()).syllables * abs(exp)
    return normalize(raw, r.ctx)


def restriction_then(r: Restriction, other: Restriction) -> Restriction:
    """The composition acting with ``r`` first."""
    return Restriction(r.ctx, tuple(restriction_apply(other, img) for img in r.images))


def iota(ctx: GroupContext) -> Restriction:
    """The automorphism inverting every x-generator."""
    return Restriction(ctx, tuple(generator(ctx, i, -1) for i in range(1, ctx.rank + 1)))


def expand_x(w: Word, n: int) -> Word:
    """Substitute ``x_i -> z_i z_n`` into a rank ``n-1`` x-word."""
    if not w.ctx.is_free or w.ctx.rank != n - 1:
        raise WordError(f"expected a free word of rank {n - 1}")
    raw: list[Syllable] = []
    for gen, exp in w.syllables:
        step = [(gen, 1), (n, 1)] if exp > 0 else [(n, 1), (gen, 1)]
        for _ in range(abs(exp)):
            raw.extend(step)
    return normalize(raw, torsion_context(n, 2))


def image_word(f: SymmetricAut, i: int) -> Word:
    """The image ``f(g_i) = c_i g_{t_i}^{s_i} c_i^{-1}`` as a word."""
    conj, target, sign = f.images[i - 1]
    return generator(f.ctx, target, sign).conjugated_by(conj)


def image_words(f: SymmetricAut) -> tuple[Word, ...]:
    """The images ``f(g_1), ..., f(g_n)`` as words."""
    return tuple(image_word(f, i) for i in range(1, f.ctx.rank + 1))


def is_identity(f: SymmetricAut) -> bool:
    """Whether every generator is its own image."""
    return all(not conj and t == i and s == 1 for i, (conj, t, s) in enumerate(f.images, start=1))


def permutation(f: SymmetricAut) -> tuple[int, ...]:
    """One-line permutation: generator i maps into the class of t(i)."""
    return tuple(t for _, t, _ in f.images)


def braid_inverse(b: BraidWord) -> BraidWord:
    """The braid word read backwards, each letter inverted."""
    return BraidWord(b.strands, tuple(-l for l in reversed(b.letters)))


def relabelled(t: LabelledBipartiteTree, perm) -> LabelledBipartiteTree:
    """``t`` with label i replaced by ``perm[i-1]``."""
    return LabelledBipartiteTree(t.rank, tuple(frozenset(perm[l - 1] for l in unit) for unit in t.units))


def all_letters_reference(rank: int) -> list[Letter]:
    """Every presentation letter by nested loops: ``a[i,j]`` and its inverse
    for each ``i != j``, then each ``r[i]``, then each ``s[i,j]`` with
    ``i < j``."""
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


def random_pure_word_reference(rng, rank: int, lo: int, hi: int) -> GeneratorWord:
    """A pure word drawn with ``rng.choice`` from the list of every pure
    letter."""
    pure = [l for l in all_letters_reference(rank) if l[0] == "a"]
    return GeneratorWord(rank, tuple(rng.choice(pure) for _ in range(rng.randint(lo, hi))))


def acting_letters(ctx: GroupContext) -> list[Letter]:
    """The presentation letters with a symmetric action on ``ctx``: all of
    them in free and order-2 contexts, and all but ``r[i]`` at higher
    torsion k, where ``g_i^{-1} = g_i^{k-1}`` is no conjugate of a
    generator."""
    return [l for l in all_letters(ctx.rank) if l[0] != "r" or ctx.torsion in (None, 2)]


def raw_evaluation(gw: GeneratorWord, ctx: GroupContext) -> SymmetricAut:
    """``gw``'s automorphism of ``ctx``, every letter applied as it stands,
    with no reduction in ``H_n(2)``.  ``act_letters`` is the binding taken
    when this module is imported, so a test that patches the library's
    binding does not see these calls."""
    images = list(identity_aut(ctx).images)
    act_letters(images, gw.letters, ctx)
    return SymmetricAut(ctx, tuple(images))


def act_letter(letter: Letter, ctx: GroupContext) -> SymmetricAut:
    """One presentation letter as an automorphism, its images written out
    by hand, for ``compose`` to fold letter by letter."""
    n = ctx.rank
    e = identity(ctx)
    images = [(e, i, 1) for i in range(1, n + 1)]
    kind = letter[0]
    if kind == "a":
        _, i, j, exp = letter
        images[i - 1] = (generator(ctx, j, exp), i, 1)
    elif kind == "r":
        i = letter[1]
        if ctx.is_free:
            images[i - 1] = (e, i, -1)
        # in torsion contexts generators are involutions: r[i] acts trivially
    else:
        _, i, j = letter
        images[i - 1] = (e, j, 1)
        images[j - 1] = (e, i, 1)
    return SymmetricAut(ctx, tuple(images))


def nuclear_vertex_from_basis(basis, ctx: GroupContext) -> NuclearVertex:
    """The nuclear vertex of a basis given as words, each of which must be
    a conjugate of a generator, with every generator class hit once."""
    factors = []
    for w in basis:
        shape = generator_conjugate_shape_reference(w)
        if shape is None:
            raise WordError(f"basis word is not a conjugate of a generator: {w}")
        conj, target, _sign = shape
        factors.append((conj, target))
    if sorted(t for _, t in factors) != list(range(1, ctx.rank + 1)):
        raise WordError("basis factors do not hit every generator class")
    return NuclearVertex(ctx, _canonicalize_factors(factors, ctx))


def is_reduced_acyclic(report: HomologyReport) -> bool:
    """Whether every reduced Betti number is 0 and no torsion is left."""
    return not any(report.reduced_betti) and not any(report.torsion)


def projective_plane_faces():
    """The face poset of the 6-vertex real projective plane: its order
    complex is the barycentric subdivision, with H_1 = Z/2."""
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
    ]
    return sorted(
        {frozenset(f) for t in triangles for k in (1, 2, 3) for f in itertools.combinations(t, k)},
        key=lambda f: (len(f), sorted(f)),
    )


def order_poset(elements, leq) -> WhiteheadPoset:
    """The poset on ``elements`` ordered by ``leq(a, b)``; the homology
    reads only the order, so any elements can stand in for trees."""
    order = tuple(tuple(leq(a, b) for b in elements) for a in elements)
    return WhiteheadPoset(2, tuple(elements), order)


def label_set_splits(key: frozenset[frozenset[int]]) -> list[frozenset[frozenset[int]]]:
    """The classes with a fold to ``key``, on frozenset label sets: split
    one label set E at a label l in E into two sets that meet in {l}, each
    with at least two labels."""
    out = []
    for labels in key:
        others = key - {labels}
        for l in labels:
            rest = sorted(labels - {l})
            # rest[0] always stays, so each unordered split is listed once
            for size in range(1, len(rest)):
                for moved in itertools.combinations(rest[1:], size):
                    moved_set = frozenset(moved)
                    out.append(others | {labels - moved_set, moved_set | {l}})
    return out


def label_set_merges(key: frozenset[frozenset[int]]) -> list[frozenset[frozenset[int]]]:
    """The classes one fold below ``key``: merge two label sets that share
    a label (the fold at that label)."""
    return [
        key - {a, b} | {a | b}
        for a, b in itertools.combinations(key, 2)
        if not a.isdisjoint(b)
    ]


def tree_symmetries_reference(t: LabelledBipartiteTree) -> list[tuple[int, ...]]:
    """The label permutations preserving ``t`` up to isomorphism, found by
    trying all n! relabellings."""
    return [
        perm
        for perm in itertools.permutations(range(1, t.rank + 1))
        if relabelled(t, perm) == t
    ]


def generated_subgroup(gens, n: int) -> set[tuple[int, ...]]:
    """The permutations of 1..n that ``gens`` generate, listed by closure."""
    ident = tuple(range(1, n + 1))
    group = {ident}
    frontier = [ident]
    gens = list(gens)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[i - 1] for i in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def symmetry_generators_reference(t: LabelledBipartiteTree) -> list[tuple[int, ...]]:
    """``symmetry_generators`` as a greedy pick over the listed group: every
    symmetry in (support size, tuple) order that the ones picked before do
    not generate."""
    n = t.rank
    ident = tuple(range(1, n + 1))
    sym = [p for p in tree_symmetries_reference(t) if p != ident]
    sym.sort(key=lambda p: (sum(p[i] != i + 1 for i in range(n)), p))
    chosen: list[tuple[int, ...]] = []
    generated = {ident}
    for p in sym:
        if p not in generated:
            chosen.append(p)
            generated = generated_subgroup(chosen, n)
    return chosen


def source_mutant(functions, old: str, new: str) -> dict:
    """A copy of the first function's module namespace in which
    ``functions``, unwrapped, are compiled again from their joined source
    with every ``old`` replaced by ``new``."""
    functions = [inspect.unwrap(f) for f in functions]
    source = "".join(inspect.getsource(f) for f in functions)
    mutated = source.replace(old, new)
    if mutated == source:
        raise AssertionError(f"{old!r} is not in the source")
    namespace = dict(vars(sys.modules[functions[0].__module__]))
    exec(mutated, namespace)
    return namespace


def trusted_view(value):
    """What a value built by a ``_trusted`` constructor must share with the
    one its public constructor builds: the value itself, and for a poset
    also the up-sets, covers and longest chain that ``_trusted`` takes as
    given."""
    if isinstance(value, WhiteheadPoset):
        return value, value._up_sets, value.covers(), value.max_chain_cardinality()
    return value


def checked_trusted(cls):
    """``cls._trusted``, failing with ``AssertionError`` unless the public
    constructor accepts the same fields (which validates them) and builds a
    value with the same :func:`trusted_view`.  ``_trusted`` takes the public
    fields first; a poset's handed-over up-sets and covers follow them.
    Returns a classmethod to patch in."""
    trusted = cls._trusted
    public = sum(f.init for f in dataclasses.fields(cls))

    def wrapper(cls, *args):
        got = trusted(*args)
        name = f"{cls.__name__}._trusted"
        try:
            want = trusted_view(cls(*args[:public]))
        except WordError as exc:
            raise AssertionError(f"{name} was handed an invalid value: {exc}") from None
        if want != trusted_view(got):
            raise AssertionError(f"{name} built {got}, the public constructor {want}")
        return got

    return classmethod(wrapper)


def checked(fast, reference):
    """``fast``, failing with ``AssertionError`` on any result that differs
    from ``reference`` on the same arguments, the printed context letter of
    every word included.  Errors that ``fast`` raises pass through
    unchanged."""

    @functools.wraps(fast)
    def wrapper(*args, **kwargs):
        got = fast(*args, **kwargs)
        want = reference(*args, **kwargs)
        if repr(got) != repr(want):
            raise AssertionError(f"{fast.__name__}{args}{kwargs} gave {got}, the reference {want}")
        return got

    return wrapper


def checked_column_reduction(fast):
    """``fast`` (``complexes._reduce_columns``), failing with
    ``AssertionError`` unless its rank and elementary divisors equal those
    of :func:`smith_rank_divisors_reference` on the transpose, a copy of the
    columns taken as rows, as the reducer consumes them.  The transpose has
    the same rank and divisors.  Read the other way round, with the columns
    as columns, the rank-5 proper part's one coboundary takes the reference
    about 14 s, against 1 ms transposed."""

    @functools.wraps(fast)
    def wrapper(columns):
        columns = list(columns)
        rows = {c: dict(column) for c, column in enumerate(columns)}
        got = fast(columns)
        want = smith_rank_divisors_reference(rows)[:2]
        if got[:2] != want:
            raise AssertionError(
                f"{fast.__name__} gave rank and divisors {got[:2]}, the reference {want}"
            )
        return got

    return wrapper


def checked_h2_reduction(fast):
    """``fast`` (``symaut._h2_reduced``), failing with ``AssertionError``
    unless the word it returns evaluates in the order-2 product to the same
    automorphism as the letters it was given, both by :func:`raw_evaluation`."""

    @functools.wraps(fast)
    def wrapper(gw):
        got = fast(gw)
        ctx = torsion_context(gw.rank, 2)
        if raw_evaluation(got, ctx) != raw_evaluation(gw, ctx):
            raise AssertionError(f"{fast.__name__} reduced {gw} to {got}, another automorphism")
        return got

    return wrapper


def checked_h1_refutation(fast):
    """``fast`` (``lift._h1_refutes``), failing with ``AssertionError`` when
    it refutes a word that either route, run unfiltered on the word's
    automorphism of the order-2 product, puts in the kernel."""

    @functools.wraps(fast)
    def wrapper(gw):
        refuted = fast(gw)
        if refuted:
            h = raw_evaluation(gw, torsion_context(gw.rank, 2))
            if inner_witness_of(h) is not None or lift_route(h).in_kernel:
                raise AssertionError(f"{fast.__name__} refuted {gw}, which is in the kernel")
        return refuted

    return wrapper

