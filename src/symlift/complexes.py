"""Labelled bipartite trees, the fold poset, and vertex automorphisms.

A labelled bipartite tree on rank ``n`` has ``n`` labelled vertices (one per
basis index), some unlabelled vertices, and edges that each join a labelled
vertex to an unlabelled one; valence-1 vertices must be labelled.  Such a
tree is its unlabelled vertices' label sets, a hypertree on 1..n in the
sense of McCammond and Meier.  Folding two edges at a labelled vertex
merges their unlabelled endpoints; fold-reachability partially orders the
trees over a fixed basis, with the star-shaped trivial tree as the unique
minimum.

The same poset, read with its labels as the factors of a free-product basis,
is the star of a nuclear vertex in the complex the outer symmetric
automorphism group acts on; this module also writes vertex automorphisms as
letter words, emits stabilizer generators and checks them on their images,
explores nuclear vertices through shared stars, and checks that mod-2
projection of labels collapses exactly the reduction kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .symaut import (
    MAX_EVAL_RANK,
    GeneratorWord,
    Letter,
    SymmetricAut,
    act_letters,
    canonical_image,
    compose,  # unused here; perfbench/tests/test_tracing.py asserts this binding
    eval_generator_word,
    is_inner,
    random_pure_word,
    rho_i,
)
from .lift import reduce_mod
from .words import (
    GroupContext,
    Word,
    WordError,
    check_rank,
    format_word,
    free_context,
    identity as identity_word,
    project_mod_k,
    torsion_context,
)

Edge = tuple[int, int]  # (label, unlabelled id)

# An isomorphism class of trees (labels fixed, unlabelled vertices
# interchangeable) as the set of its unlabelled vertices' label sets, each
# set a bitmask with bit l for label l.  Two unlabelled vertices share at
# most one label, as a second would close a 4-cycle, so each vertex is fixed
# by its label set and the key is exact.
LabelMasks = frozenset[int]


def _encode(units: Sequence[frozenset[int]], name: Callable[[int], str]) -> str:
    """Minimal rooted encoding over unlabelled roots, labels written by
    ``name``.  Codes are built leaves first along a breadth-first order of
    the units, each writing its labels' branches, so deep trees need no
    recursion.

    A unit's code is ``(`` and its sorted label branches, each starting with
    its label's name, so its second character is the smallest first
    character of its labels' names.  Only the units holding a label whose
    name starts with the smallest first character of all can give the
    minimum, and only they are tried as roots (with ``str`` up to rank 9,
    the units holding label 1; with one name for every label, all units).
    """
    label_units: dict[int, list[int]] = {}
    for u, labels in enumerate(units):
        for l in labels:
            label_units.setdefault(l, []).append(u)
    names = {l: name(l) for l in label_units}

    def rooted(root: int) -> str:
        # (unit, the label it hangs from or 0), each unit listed before the
        # units below it
        order = [(root, 0)]
        for u, up in order:
            for l in units[u]:
                if l != up:
                    for w in label_units[l]:
                        if w != u:
                            order.append((w, l))
        below: dict[int, list[str]] = {}  # label -> codes of the units it holds up
        for u, up in reversed(order):
            branches = []
            for l in units[u]:
                if l != up:
                    kids = below.get(l)
                    branches.append(f"{names[l]}[{','.join(sorted(kids))}]" if kids else names[l])
            branches.sort()
            code = f"({','.join(branches)})"
            kids = below.get(up)
            if kids is None:
                below[up] = [code]
            else:
                kids.append(code)
        return code

    first = min(text[:1] for text in names.values())
    roots = {u for l, text in names.items() if text[:1] == first for u in label_units[l]}
    return min(rooted(u) for u in roots)


@dataclass(frozen=True)
class LabelledBipartiteTree:
    """``units[u]`` is the label set of unlabelled vertex ``u``.  Valid sets
    use labels 1..n, have two labels or more, sum to ``sum(|E| - 1) == n - 1``
    and connect the labels.  Equality and the hash read ``rank`` and
    ``label_sets``, the sets unordered."""

    rank: int
    units: tuple[frozenset[int], ...] = field(compare=False)
    label_sets: frozenset[frozenset[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.rank
        if n < 2:
            raise WordError(f"trees need rank >= 2, not {n}")
        labels = frozenset().union(*self.units)
        if labels != set(range(1, n + 1)):
            raise WordError(f"labels {sorted(labels)} must be exactly 1..{n}")
        for u, unit in enumerate(self.units):
            if len(unit) < 2:
                raise WordError(f"unlabelled vertex {u} has valence < 2")
        if sum(len(unit) - 1 for unit in self.units) != n - 1:
            raise WordError(f"label sets are no tree: sum(|E| - 1) must be {n - 1}")
        # n + |units| vertices and one edge fewer: some component is a tree,
        # so there is a leaf to peel, and the walk from the last one peeled
        # reaches every vertex exactly when the sets connect the labels
        if len(_centre_walk(self)[0]) != n + len(self.units):
            raise WordError("tree is not connected")
        object.__setattr__(self, "label_sets", frozenset(self.units))

    @classmethod
    def _trusted(cls, rank: int, units: tuple[frozenset[int], ...]) -> "LabelledBipartiteTree":
        """A tree from label sets already known to be a hypertree on 1..rank,
        without ``__post_init__``'s checks."""
        t = object.__new__(cls)
        object.__setattr__(t, "rank", rank)
        object.__setattr__(t, "units", units)
        object.__setattr__(t, "label_sets", frozenset(units))
        return t

    @property
    def unlabelled_count(self) -> int:
        return len(self.units)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted((l, u) for u, labels in enumerate(self.units) for l in labels))

    @cached_property
    def _canonical(self) -> str:
        return _encode(self.units, str)

    def canonical(self) -> str:
        """Isomorphism-class text (labels kept, unlabelled vertices
        interchangeable), for output and sorting."""
        return self._canonical

    def type_encoding(self) -> str:
        """Isomorphism class forgetting labels (the tree's type)."""
        return _encode(self.units, lambda l: "*")

    def to_dot(self) -> str:
        lines = ["graph tree {"]
        for l in range(1, self.rank + 1):
            lines.append(f'  b{l} [label="b{l}", shape=circle];')
        for u in range(len(self.units)):
            lines.append(f"  u{u} [label=\"\", shape=point];")
        for l, u in self.edges:
            lines.append(f"  b{l} -- u{u};")
        lines.append("}")
        return "\n".join(lines)


# The canonical code tries up to n - 1 roots at O(n log n) each: a star
# with 499 arms takes about 1 s through `complex tree`.
MAX_TREE_RANK = 500


def trivial_tree(n: int) -> LabelledBipartiteTree:
    return LabelledBipartiteTree(n, (frozenset(range(1, n + 1)),))


def tree_from_units(n: int, units: Sequence[Sequence[int]]) -> LabelledBipartiteTree:
    """Build a tree by listing, per unlabelled vertex, its adjacent labels."""
    sets = tuple(map(frozenset, units))
    for u, (labels, unit) in enumerate(zip(units, sets)):
        if len(labels) != len(unit):
            raise WordError(f"unlabelled vertex {u} lists a label twice")
    return LabelledBipartiteTree(n, sets)


def all_folds(t: LabelledBipartiteTree) -> list[tuple[int, int, int, LabelledBipartiteTree]]:
    """Every fold ``(label, u1, u2, tree)``: the edges (label, u1) and
    (label, u2) identified, u2 merged into u1 and the ids above u2 moved
    down by one."""
    out = []
    for label in range(1, t.rank + 1):
        units = [u for u, labels in enumerate(t.units) if label in labels]
        for u1, u2 in itertools.combinations(units, 2):
            merged = list(t.units)
            merged[u1] |= merged[u2]
            del merged[u2]
            out.append((label, u1, u2, LabelledBipartiteTree(t.rank, tuple(merged))))
    return out


def _mask_splits(key: LabelMasks) -> Iterable[LabelMasks]:
    """The classes with a fold to ``key``, each once: split one label set E
    at a label l in E into two sets that meet in {l}, each with at least
    two labels."""
    for mask in key:
        others = key - {mask}
        labels = mask
        while labels:
            bit = labels & -labels
            labels ^= bit
            rest = mask ^ bit
            # the lowest label of rest always stays, so each unordered split
            # is listed once, by the nonempty subset of the others that moves
            free = rest & (rest - 1)
            moved = free
            while moved:
                yield others | {mask ^ moved, moved | bit}
                moved = (moved - 1) & free


# ---------------------------------------------------------------------------
# The Whitehead poset over a fixed basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WhiteheadPoset:
    """Trees ordered by fold-reachability.  ``leq[i][j]`` is true iff
    ``elements[i] <= elements[j]``.  The enumeration's rows are ``bytes``
    (1 where ``i <= j``); a caller's rows may be any sequences of bools or
    0/1.  A poset from the public constructor reads its up-sets and covers
    off ``leq`` once, and the first read raises ``WordError`` unless ``leq``
    is a square table of a partial order on the elements.  The enumeration
    hands its own over through ``_trusted``, so its posets never read
    ``leq``; ``proper_part`` builds through the public constructor."""

    rank: int
    elements: tuple[LabelledBipartiteTree, ...]
    leq: tuple[Sequence[int], ...]

    @classmethod
    def _trusted(
        cls,
        rank: int,
        elements: tuple[LabelledBipartiteTree, ...],
        leq: tuple[Sequence[int], ...],
        up_sets: tuple[tuple[int, ...], ...],
        covers: tuple[tuple[int, int], ...],
    ) -> "WhiteheadPoset":
        """A poset whose strict up-sets (each ascending) and sorted covers
        are already known to be those of ``leq``, without reading ``leq``."""
        poset = cls(rank, elements, leq)
        poset.__dict__["_order"] = up_sets, covers
        return poset

    def index_of(self, t: LabelledBipartiteTree) -> int:
        try:
            return self.elements.index(t)
        except ValueError:
            raise WordError("tree not in poset") from None

    @cached_property
    def _order(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
        """For each i, the ascending indices j != i with elements[i] <=
        elements[j]; and the sorted covers, the minimal elements j of the
        strict up-set of i.  A poset from ``_trusted`` holds them as handed
        over; any other reads them off ``leq`` here, once.

        ``leq`` must be square and reflexive.  Transitivity and
        antisymmetry are one test on bitsets: no point strictly above a
        point of i's strict up-set lies outside that up-set, i itself
        included.  A point of up(i) covers i exactly when it is strictly
        above no other point of up(i)."""
        size = len(self.elements)
        if len(self.leq) != size:
            raise WordError(f"leq has {len(self.leq)} rows for {size} elements")
        up = []
        for i, row in enumerate(self.leq):
            flags = bytes(row)  # a bytes row as it is; few entries are 1: find them by memchr
            if len(flags) != size or flags[i] != 1:
                raise WordError(f"leq row {i} is not a reflexive row of {size} entries")
            above = []
            j = flags.find(1)
            while j >= 0:
                if j != i:
                    above.append(j)
                j = flags.find(1, j + 1)
            up.append(tuple(above))
        bits = [sum(1 << j for j in above) for above in up]
        covers = []
        for i, above in enumerate(up):
            between = 0
            for m in above:
                between |= bits[m]
            if between & ~bits[i]:
                raise WordError(f"leq is not a partial order: it fails at row {i}")
            covers.extend((i, j) for j in above if not between >> j & 1)
        return tuple(up), tuple(covers)

    @property
    def _up_sets(self) -> tuple[tuple[int, ...], ...]:
        return self._order[0]

    @property
    def _covers(self) -> tuple[tuple[int, int], ...]:
        return self._order[1]

    @cached_property
    def _simplex_counts(self) -> tuple[int, ...]:
        return _chain_counts(self._up_sets)

    def covers(self) -> list[tuple[int, int]]:
        """Sorted pairs (i, j) with elements[i] covered by elements[j]: the
        minimal elements j of the strict up-set of i.  The list is the
        caller's own."""
        return list(self._covers)

    def max_chain_cardinality(self) -> int:
        """Elements in a longest chain."""
        return len(self._simplex_counts) if self.elements else 0

    def to_dot(self) -> str:
        lines = ["digraph poset {", "  rankdir=BT;"]
        for i, t in enumerate(self.elements):
            lines.append(f'  n{i} [label="{t.canonical()}"];')
        for i, j in self._covers:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "size": len(self.elements),
            "elements": [t.canonical() for t in self.elements],
            "covers": self.covers(),
            "max_chain_cardinality": self.max_chain_cardinality(),
        }


def proper_part(poset: WhiteheadPoset) -> WhiteheadPoset:
    """The poset without its minimum, the trivial tree."""
    bottom = poset.index_of(trivial_tree(poset.rank))
    leq = tuple(row[:bottom] + row[bottom + 1 :] for row in poset.leq)
    return WhiteheadPoset(
        poset.rank,
        poset.elements[:bottom] + poset.elements[bottom + 1 :],
        leq[:bottom] + leq[bottom + 1 :],
    )


MAX_POSET_RANK = 6  # rank 7 has 79,745 classes: a dense leq of ~6.4e9 bytes (6.4 GB)


def _check_poset_rank(n: int) -> None:
    """The poset's refusals: no valid trees at rank 1, and a limit above."""
    if n < 2:
        raise WordError("the poset needs rank >= 2 (no valid trees at rank 1)")
    check_rank(n, MAX_POSET_RANK, "posets")


@lru_cache(maxsize=None)
def enumerate_whitehead_poset(n: int) -> WhiteheadPoset:
    """All isomorphism classes of labelled bipartite trees at rank ``n``,
    ordered by fold-reachability.

    The search runs on label sets, each an int bitmask: a class is the set
    of its unlabelled vertices' label sets, and an unfold splits one set at
    a label into two sets that meet there.  Every non-trivial tree has a
    fold, so a breadth-first search of splits from the trivial tree's
    ``{{1..n}}`` reaches every class, and each split it finds is an upper
    cover (a fold lowers the unlabelled count by one, so nothing lies
    between).  Each class is one ``LabelledBipartiteTree``, built without
    re-validation; the elements are sorted by ``(unlabelled_count,
    canonical())``.  The covers close to the up-sets, which set the ``leq``
    row bits; covers and up-sets are handed to the poset through
    ``WhiteheadPoset._trusted``, so it never reads them back off the rows.
    """
    _check_poset_rank(n)
    queue: list[LabelMasks] = [frozenset({(1 << (n + 1)) - 2})]
    found = {queue[0]: 0}
    pairs = []  # (class, split) as positions in the queue
    for i, key in enumerate(queue):
        for split in _mask_splits(key):
            j = found.get(split)
            if j is None:
                j = found[split] = len(queue)
                queue.append(split)
            pairs.append((i, j))
    unit_of = {}  # mask -> its labels ascending, and as a set
    trees = []
    for key in queue:
        for mask in key:
            if mask not in unit_of:
                labels = tuple(l for l in range(1, n + 1) if mask >> l & 1)
                unit_of[mask] = (labels, frozenset(labels))
        units = tuple(unit for _, unit in sorted(unit_of[mask] for mask in key))
        trees.append(LabelledBipartiteTree._trusted(n, units))
    order = sorted(range(len(queue)), key=lambda i: (len(queue[i]), trees[i].canonical()))
    position = [0] * len(queue)
    for p, i in enumerate(order):
        position[i] = p
    covers = sorted((position[i], position[j]) for i, j in pairs)
    size = len(order)
    # a cover (i, j) has i < j, so each up-set is complete before it is read
    above: list[set[int]] = [set() for _ in range(size)]
    for i, j in reversed(covers):
        above[i].add(j)
        above[i] |= above[j]
    up_sets = tuple(tuple(sorted(up)) for up in above)
    leq = []
    for i, up in enumerate(up_sets):
        row = bytearray(size)
        row[i] = 1
        for j in up:
            row[j] = 1
        leq.append(bytes(row))
    elements = tuple(trees[i] for i in order)
    return WhiteheadPoset._trusted(n, elements, tuple(leq), up_sets, tuple(covers))


# ---------------------------------------------------------------------------
# Order complex homology (exact integer arithmetic)
# ---------------------------------------------------------------------------


def _subtract(column: dict[int, int], value: int, pivot: tuple[int, dict[int, int]]) -> None:
    """Clear ``column``'s entry ``value``, already popped, at the low of the
    unit column ``pivot``: subtract ``value`` over the pivot's +-1 entry
    times the pivot's other entries."""
    unit, rest = pivot
    factor = value * unit  # value / unit, as unit is +-1
    for r, v in rest.items():
        old = column.get(r)
        if old is None:
            column[r] = -factor * v
        elif old == factor * v:
            del column[r]
        else:
            column[r] = old - factor * v


def _reduce_columns(columns: Iterable[dict[int, int]]) -> tuple[int, list[int], list[int]]:
    """Rank, elementary divisors and unit lows of the integer matrix whose
    columns are ``columns`` (row -> nonzero entry), which it consumes.

    The columns are reduced left to right as in persistent homology
    (Zomorodian and Carlsson, "Computing persistent homology", DCG 33,
    2005), over Z with unit pivots: a column's low is its largest row, and
    while that is the low of an earlier unit column, the column is cleared
    there by that one.  A column whose low entry is +-1 becomes the unit
    column of that low, one whose low entry is not is set aside, and a zero
    column is dropped.  Each column set aside is then cleared at every unit
    low, largest first (a subtraction leaves entries only below the low it
    clears), and what is left goes to ``_dense_smith``.
    ``order_complex_homology`` hands it coboundaries, each chain's cofaces
    at negated rows, so a low is a column's earliest coface.

    Column operations are unimodular, and the unit columns U have distinct
    +-1 lows L, so on L they are triangular with a unit diagonal.  Once the
    set-aside columns S are zero on L, Smith([U S]) = I + Smith(S off L).
    The reduced matrix is the input times a unimodular V, so the input's
    rows L hold a unimodular block too: that is what lets
    ``order_complex_homology`` clear L from the coboundary above.
    """
    units: dict[int, tuple[int, dict[int, int]]] = {}  # low -> its entry, the rest
    aside = []
    for column in columns:
        while column:
            low = max(column)
            value = column.pop(low)
            pivot = units.get(low)
            if pivot is None:
                if value == 1 or value == -1:
                    units[low] = (value, column)
                else:
                    column[low] = value
                    aside.append(column)
                break
            _subtract(column, value, pivot)
    core = []
    for column in aside:
        hits = [r for r in column if r in units]
        while hits:
            low = max(hits)
            _subtract(column, column.pop(low), units[low])
            hits = [r for r in column if r in units]
        if column:
            core.append(column)
    rank = len(units)
    if not core:
        return rank, [1] * rank, list(units)
    # dense Smith normal form on the small leftover core
    row_ids = sorted({r for column in core for r in column})
    divisors = _dense_smith([[column.get(r, 0) for column in core] for r in row_ids])
    return rank + len(divisors), [1] * rank + divisors, list(units)


def _dense_smith(a: list[list[int]]) -> list[int]:
    rows, cols = len(a), len(a[0]) if a else 0
    divisors = []
    top = 0
    while top < rows and top < cols:
        pr = pc = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if pr is None:
            break
        a[top], a[pr] = a[pr], a[top]
        for row in a:
            row[top], row[pc] = row[pc], row[top]
        progress = True
        while progress:
            progress = False
            for i in range(top + 1, rows):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    for j in range(top, cols):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        progress = True
            for j in range(top + 1, cols):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for i in range(top, rows):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        progress = True
        divisors.append(abs(a[top][top]))
        top += 1
    # enforce divisibility chain
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = math.gcd(divisors[i], divisors[j])
            l = divisors[i] * divisors[j] // g if g else 0
            divisors[i], divisors[j] = g, l
    return [d for d in divisors if d != 0]


@dataclass(frozen=True)
class HomologyReport:
    rank: int
    simplex_counts: tuple[int, ...]
    euler_characteristic: int
    reduced_betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "simplex_counts": list(self.simplex_counts),
            "euler_characteristic": self.euler_characteristic,
            "reduced_betti": list(self.reduced_betti),
            "torsion": [list(t) for t in self.torsion],
        }


def _chain_counts(up: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Chains of each size, one element up, by the recursion in
    ``order_complex_homology``."""
    counts = [len(up)]
    starting = [1] * len(up)
    while True:
        starting = [sum(map(starting.__getitem__, above)) for above in up]
        total = sum(starting)
        if not total:
            return tuple(counts)
        counts.append(total)


def _reduced_homology(
    up: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Chain counts, reduced Betti numbers and torsion, one entry per
    dimension, of the order complex of the poset with strict up-sets
    ``up``: the trie and the reduction of ``order_complex_homology``.  The
    points' coboundary is a union-find pass over the edges; each coboundary
    above it goes to ``_reduce_columns`` as one column per chain that is not
    cleared, its cofaces with the boundary's alternating signs, filled from
    the level above and read once."""
    size = len(up)
    # faces[d] lists the d-chains' faces as (d-1)-chain indices, and lasts
    # the top level's last elements; a point's one face is the empty chain,
    # index 0, whose child by j is the point j
    faces: list[list[tuple[int, ...]]] = [[(0,)] * size]
    lasts: Sequence[int] = range(size)
    child: Sequence[int] | dict[int, int] = range(size)
    while True:
        level_lasts: list[int] = []
        level_faces: list[tuple[int, ...]] = []
        level_child: dict[int, int] = {}
        for p, (i, parent_faces) in enumerate(zip(lasts, faces[-1])):
            key = p * size
            for j in up[i]:
                level_child[key + j] = len(level_lasts)
                level_lasts.append(j)
                level_faces.append((*[child[f * size + j] for f in parent_faces], p))
        if not level_lasts:
            break
        faces.append(level_faces)
        lasts = level_lasts
        child = level_child
    counts = tuple(map(len, faces))
    dims = len(counts)
    ranks = [0] * (dims + 1)
    divisors: list[list[int]] = [[] for _ in range(dims + 1)]
    # augmentation: rank of the map C_0 -> Z
    ranks[0] = 1 if counts[0] else 0
    # the coboundary of the points: a spanning forest, its edges in trie
    # order, each joining two trees (an edge's faces are its two points)
    root = list(range(size))
    cleared: set[int] = set()
    for edge, (a, b) in enumerate(faces[1] if dims > 1 else ()):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            cleared.add(edge)
    ranks[1], divisors[1] = len(cleared), [1] * len(cleared)
    for d in range(2, dims):
        # the (d-1)-chains' coface columns, each d-chain c at row -c, so a
        # column's low is its earliest coface; cleared chains get no column
        signs = (1, -1) * (d // 2 + 1)
        columns = {f: {} for f in range(counts[d - 1]) if f not in cleared}
        for c, chain_faces in enumerate(faces[d]):
            row = -c
            for f, sign in zip(chain_faces, signs):
                column = columns.get(f)
                if column is not None:
                    column[row] = sign
        faces[d] = []
        ranks[d], divisors[d], lows = _reduce_columns(columns.values())
        cleared = {-low for low in lows}
    betti = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(dims))
    torsion = tuple(tuple(v for v in divisors[d + 1] if v > 1) for d in range(dims))
    return counts, betti, torsion


def order_complex_homology(poset: WhiteheadPoset) -> HomologyReport:
    """Reduced integral homology of the poset's order complex.

    A poset with a least element is a cone on it, so it is acyclic and is
    answered at once, with the simplex counts of ``_chain_counts``, cached
    on the poset: a recursion that builds no chain.  The chains of k + 1
    elements that start at i number the sum over j in up(i) of the chains of
    k elements that start at j.  Every other poset is reduced over all its
    chains, and reports the counts of the chains it built.

    ``_reduced_homology`` takes the chains from a trie: a d-chain is
    (parent, last), with parent the chain without its last element.  The
    face that drops element k < d is the parent's face that drops k,
    extended by last, so the faces in order are ``child[f * size + last]``
    for each face f of the parent, then the parent.

    The coboundaries, the boundaries' transposes, have the same ranks and
    elementary divisors, and they are reduced from the bottom dimension up
    with clearing (Chen and Kerber, "Persistent homology computation with a
    twist", EuroCG 2011; for cohomology de Silva, Morozov and
    Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse
    Problems 27, 2011, and Bauer, "Ripser", J. Appl. Comput. Topol. 5,
    2021).  The points' coboundary is not reduced: one union-find pass over
    the edges in trie order (Kruskal) keeps each edge that joins two trees.
    Its rank is the forest's size, every divisor 1, and the forest's edges
    are cleared from the next coboundary.  Each coboundary above goes to
    ``_reduce_columns`` as one column per (d-1)-chain that is not cleared,
    its d-chain cofaces c at row -c, so a column's low is its earliest
    coface; the d-chains at the lows of its unit columns are cleared one
    level up.  Any spanning forest and any row order are exact, but these
    two keep the fill small: on the rank-6 proper part, rows at +c or a
    depth-first forest made over a hundred times the column subtractions.

    Clearing is exact over Z.  Column reduction turns the coboundary B
    below into R = B V with V unimodular; on its unit lows P and their
    columns Q the block R[P, Q] is triangular with a +-1 diagonal.  The
    coboundary A above has A R = 0, so A[:, P] = -A[:, rest] R[rest, Q]
    R[P, Q]^-1: the columns P are integer combinations of the others.
    Dropping them leaves the column lattice, and with it the rank and the
    elementary divisors, unchanged.  For the forest F, B is the points'
    coboundary itself, and its block on F and all but one point of each
    tree, the forest's incidence matrix less one column per tree, is
    unimodular.  Rows of the columns set aside for the dense Smith phase
    are never cleared.
    """
    up = poset._up_sets
    if any(len(above) == len(up) - 1 for above in up):
        counts = poset._simplex_counts
        betti, torsion = (0,) * len(counts), ((),) * len(counts)
    else:
        counts, betti, torsion = _reduced_homology(up)
    chi = sum((-1) ** d * c for d, c in enumerate(counts))
    return HomologyReport(poset.rank, counts, chi, betti, torsion)


# ---------------------------------------------------------------------------
# Vertex automorphisms
# ---------------------------------------------------------------------------


def _centre_walk(t: LabelledBipartiteTree) -> tuple[list[int], dict[int, list[int]]]:
    """The tree's vertices in breadth-first order from its centre, label l as
    vertex l and unit u as vertex -1 - u, and each vertex's children.

    Every leaf is a label, so paths between leaves have even length and
    peeling leaves ends at a single vertex, the centre.  On label sets that
    do not connect the labels the order misses a vertex.
    """
    adjacent: dict[int, list[int]] = {l: [] for l in range(1, t.rank + 1)}
    for u, labels in enumerate(t.units):
        adjacent[-1 - u] = list(labels)
        for l in labels:
            adjacent[l].append(-1 - u)
    degree = {v: len(ws) for v, ws in adjacent.items()}
    peeled = [v for v, d in degree.items() if d == 1]
    for v in peeled:
        for w in adjacent[v]:
            degree[w] -= 1
            if degree[w] == 1:
                peeled.append(w)
    centre = peeled[-1]
    order, kids = [centre], {centre: []}
    for v in order:
        for w in adjacent[v]:
            if w not in kids:
                kids[w] = []
                kids[v].append(w)
                order.append(w)
    return order, kids


def moving_components(t: LabelledBipartiteTree) -> dict[int, list[frozenset[int]]]:
    """Per labelled vertex, in ascending order, the components of the tree
    minus that vertex which a vertex automorphism there may move, sorted by
    smallest label: all but the one holding the largest label, which stays
    at power 0.  Vertices that leave a single component are left out.

    The components at a label are the label sets of the subtrees hanging
    off it in the centre-rooted walk, one per child unit, and the labels
    outside its own subtree, across its parent.
    """
    order, kids = _centre_walk(t)
    everything = frozenset(range(1, t.rank + 1))
    below: dict[int, frozenset[int]] = {}  # the labels of each subtree not yet joined
    moving = {}
    for v in reversed(order):
        comps = [below.pop(w) for w in kids[v]]
        below[v] = frozenset([v] * (v > 0)).union(*comps)
        if v < 0:
            continue
        if v != order[0]:
            comps.append(everything - below[v])
        if len(comps) > 1:
            kept = max(comps, key=max)
            moving[v] = sorted((comp for comp in comps if comp is not kept), key=min)
    return dict(sorted(moving.items()))


def vertex_automorphism(
    t: LabelledBipartiteTree, vertex: int, powers: Sequence[int]
) -> GeneratorWord:
    """The vertex automorphism at ``vertex`` that conjugates every label of
    the i-th moving component by ``g_vertex^powers[i]``.

    Power p_l on label l is written ``a[l,vertex]^{+-1}`` |p_l| times, labels
    in ascending order.  One power per component makes the powers constant
    on components by construction; the inverse negates them.
    """
    comps = moving_components(t).get(vertex)
    if not comps:
        raise WordError(f"vertex {vertex} has no moving components")
    if len(powers) != len(comps):
        raise WordError(f"vertex {vertex} has {len(comps)} moving components, not {len(powers)}")
    return GeneratorWord(t.rank, _component_power_letters(vertex, comps, powers))


def _component_power_letters(
    vertex: int, comps: Sequence[frozenset[int]], powers: Sequence[int]
) -> tuple[Letter, ...]:
    """The letters of :func:`vertex_automorphism` for moving components
    ``comps`` already in hand."""
    by_label = sorted((l, p) for comp, p in zip(comps, powers) for l in comp)
    letters = []
    for l, p in by_label:
        letters.extend(("a", l, vertex, 1 if p > 0 else -1) for _ in range(abs(p)))
    return tuple(letters)


# ---------------------------------------------------------------------------
# Stabilizer generators
# ---------------------------------------------------------------------------


def symmetry_generators(t: LabelledBipartiteTree) -> list[tuple[int, ...]]:
    """Generators of the label permutations preserving the tree up to
    isomorphism, read off the tree rooted at its centre, which they all fix.

    There swaps of isomorphic sibling subtrees generate them (Colbourn and
    Booth, SIAM J. Comput. 10, 1981).  Siblings sort by rooted code, then by
    smallest label, and a subtree lists its labels in that order, so two of
    one code pair their labels position by position.  Each sibling but the
    last of its code swaps with the later one holding the least label where
    it holds its own smallest; in (support size, tuple) order these are the
    picks of a greedy pass over the listed group.
    """
    n = t.rank
    order, kids = _centre_walk(t)
    codes: dict[tuple, int] = {}
    code, flat = {}, {}  # flat[v]: the labels of v's subtree, in sibling order
    swaps = []
    for v in reversed(order):
        kids[v].sort(key=lambda w: (code[w], min(flat[w])))
        code[v] = codes.setdefault((v > 0, tuple(code[w] for w in kids[v])), len(codes))
        flat[v] = [v] * (v > 0) + [l for w in kids[v] for l in flat[w]]
        for _, group in itertools.groupby(kids[v], key=code.get):
            group = [flat[w] for w in group]
            for i, mine in enumerate(group[:-1]):
                at = mine.index(min(mine))
                theirs = min(group[i + 1 :], key=lambda other: other[at])
                perm = list(range(1, n + 1))
                for a, b in zip(mine, theirs):
                    perm[a - 1], perm[b - 1] = b, a
                swaps.append(tuple(perm))
    return sorted(swaps, key=lambda p: (sum(p[i] != i + 1 for i in range(n)), p))


@dataclass(frozen=True)
class StabilizerGenerators:
    tree: LabelledBipartiteTree
    vertex_auts: tuple[GeneratorWord, ...]
    inversions: tuple[GeneratorWord, ...]
    symmetries: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "tree": self.tree.canonical(),
            "vertex_auts": [str(gw) for gw in self.vertex_auts],
            "inversions": [str(g) for g in self.inversions],
            "symmetries": [list(p) for p in self.symmetries],
        }


def stabilizer_generators(t: LabelledBipartiteTree) -> StabilizerGenerators:
    """Generators of the vertex stabilizer over the standard basis.

    Per labelled vertex with k complementary components, k-1 vertex
    automorphisms, each moving one component at power 1 (the component
    containing the largest label stays at power 0); all generator
    inversions; and label symmetries of the tree.  Completeness is the
    content of an external stabilizer theorem; soundness of every emitted
    generator is checkable (see stabilizer_soundness).
    """
    n = t.rank
    symmetries = tuple(symmetry_generators(t))
    vertex_auts = tuple(
        GeneratorWord(n, _component_power_letters(v, [comp], [1]))
        for v, comps in moving_components(t).items()
        for comp in comps
    )
    inversions = tuple(rho_i(n, i) for i in range(1, n + 1))
    return StabilizerGenerators(t, vertex_auts, inversions, symmetries)


def _is_vertex_automorphism(t: LabelledBipartiteTree, f: SymmetricAut) -> bool:
    """Whether every image of f is ``(g_v^p_l, l, +1)`` for one vertex v,
    with p constant on each component of the tree minus v.  A canonical
    conjugator never ends in its target, so p_v = 0 holds by form.

    The sets ``unit - {v}`` lie each in one component and join into the
    components through the labels they share, so p is constant on the
    components exactly when it is constant on each of those sets."""
    syllables = {}
    for l, (conj, target, sign) in enumerate(f.images, start=1):
        if target != l or sign != 1 or len(conj) > 1:
            return False
        if conj:
            syllables[l] = conj.syllables[0]
    bases = {v for v, _ in syllables.values()}
    if not bases:
        return True  # the identity
    if len(bases) > 1:
        return False
    (v,) = bases
    powers = {l: p for l, (_, p) in syllables.items()}
    return all(len({powers.get(l, 0) for l in unit if l != v}) == 1 for unit in t.units)


def stabilizer_soundness(gens: StabilizerGenerators) -> list[tuple[str, bool]]:
    """Membership evidence for each generator in ``gens``, read off its
    images over the free group.

    A vertex automorphism must conjugate each label l by a power of one
    vertex's generator, constant on the components of the tree minus that
    vertex; an inversion must fix every label's factor (conjugator e, target
    l), hence the literal tree; a symmetry must map the label sets onto
    themselves.
    """
    t = gens.tree
    ctx = free_context(t.rank)
    results: list[tuple[str, bool]] = []
    for gw in gens.vertex_auts:
        f = eval_generator_word(gw, ctx)
        results.append((f"vertex_aut {gw}", _is_vertex_automorphism(t, f)))
    for gw in gens.inversions:
        f = eval_generator_word(gw, ctx)
        fixed = all(not conj and target == l for l, (conj, target, _) in enumerate(f.images, 1))
        results.append((f"inversion {gw}", fixed))
    for p in gens.symmetries:
        relabelled = frozenset(frozenset(p[l - 1] for l in unit) for unit in t.units)
        results.append((f"symmetry {p}", relabelled == t.label_sets))
    return results


# ---------------------------------------------------------------------------
# Nuclear vertices
# ---------------------------------------------------------------------------


Factor = tuple[Word, int]  # (conjugator, target index)


@dataclass(frozen=True)
class NuclearVertex:
    """Basis-up-to-inner-and-reordering, with generator signs dropped.

    Labels are the cyclic factors a basis spans, so a word and its inverse
    give the same factor; equality is simultaneous conjugacy of factor sets.
    """

    ctx: GroupContext
    factors: tuple[Factor, ...]

    @classmethod
    def standard(cls, ctx: GroupContext) -> "NuclearVertex":
        e = identity_word(ctx)
        return cls(ctx, tuple((e, i) for i in range(1, ctx.rank + 1)))

    @classmethod
    def from_aut(cls, f: SymmetricAut) -> "NuclearVertex":
        """The vertex of the basis ``f(g_1), ..., f(g_n)``, whose factors are
        the ``(conjugator, target)`` pairs of f's images."""
        return cls(f.ctx, _canonicalize_factors([(c, t) for c, t, _ in f.images], f.ctx))

    def project(self) -> "NuclearVertex":
        """Mod-2 image: the quotient map on nuclear vertices."""
        if not self.ctx.is_free:
            raise WordError("project expects a free-context vertex")
        hctx = torsion_context(self.ctx.rank, 2)
        projected = [(project_mod_k(conj, 2), t) for conj, t in self.factors]
        return NuclearVertex(hctx, _canonicalize_factors(projected, hctx))

    def encode(self) -> str:
        return "; ".join(f"{t}:{format_word(conj)}" for conj, t in self.factors)


def _conjugated(xi: Word, factors: Sequence[Factor]) -> list[Factor]:
    """The factors conjugated by ``xi``, less trailing target syllables."""
    return [canonical_image(xi * conj, t, 1)[:2] for conj, t in factors]


def _canonicalize_factors(factors: Sequence[Factor], ctx: GroupContext) -> tuple[Factor, ...]:
    """Minimize total conjugator length over simultaneous conjugation.

    The cost of a conjugator choice x is the sum of distances from x to the
    vertices c_i <g_{t_i}> of the Bass-Serre tree, a convex function.  A
    move goes from x to x s, with s the first syllable of some stripped
    x^{-1} c_i: only these neighbours step towards a vertex, so a
    non-minimal x always has a strictly cheaper move, the minimizers are
    connected by moves, and the search stays in the finite hull of e and
    the vertices.  Single-letter moves would not do: the cost can be flat
    along a ray x g^k.  Each candidate is conjugated and costed once, when
    it is popped; one above the best cost so far is dropped, as the best
    only falls.  Among minimizers the lexicographically least sorted factor
    tuple wins.

    The search starts from e alone.  Suppose it ended with the best cost
    above the minimum m.  The node that set the final best was expanded,
    and being non-minimal it had a strictly cheaper move y, which was
    either visited before or pushed; either way y was costed, and its cost,
    below the final best, would have lowered the best.  So the best ends at
    m.  A node of cost m is never dropped, so every minimizer popped is
    expanded, and as the minimizers are connected by moves all of them are
    reached from the first.
    """
    e = identity_word(ctx)
    factors = _conjugated(e, factors)
    frontier = [e]
    best = math.inf
    visited: set = set()
    minimizers: list[list[Factor]] = []
    while frontier:
        x = frontier.pop()
        if x.syllables in visited:
            continue
        visited.add(x.syllables)
        moved = _conjugated(x.inverse(), factors)
        c = sum(len(w) for w, _ in moved)
        if c > best:
            continue
        if c < best:
            best = c
            minimizers = []
        minimizers.append(moved)
        for w, _ in moved:
            if w:
                y = x * Word(ctx, w.syllables[:1])
                if y.syllables not in visited:
                    frontier.append(y)
    candidates = [sorted(moved, key=lambda f: (f[1], f[0].sort_key())) for moved in minimizers]
    return tuple(min(candidates, key=lambda tt: [(t, w.sort_key()) for w, t in tt]))


# ---------------------------------------------------------------------------
# Nuclear ball exploration
# ---------------------------------------------------------------------------


def _tree_vertex_aut_group(
    moving: dict[int, list[frozenset[int]]], powers: range
) -> list[tuple[tuple[Letter, ...], str]]:
    """All products of vertex automorphisms carried by a tree over the
    standard basis, given its :func:`moving_components`, each as the letters
    of its factors in vertex order with its tag; each component's exponent
    runs over ``powers``."""
    per_vertex = []
    for v, comps in moving.items():
        options = []
        for combo in itertools.product(powers, repeat=len(comps)):
            letters = _component_power_letters(v, comps, combo)
            options.append((letters, f"v{v}:{combo}" if any(combo) else ""))
        per_vertex.append(options)
    return [
        (
            tuple(itertools.chain.from_iterable(letters for letters, _ in assignment)),
            ",".join(tag for _, tag in assignment if tag) or "id",
        )
        for assignment in itertools.product(*per_vertex)
    ]


@dataclass(frozen=True)
class BallReport:
    ctx: GroupContext
    radius: int
    bound: Optional[int]
    bound_limited: bool
    levels: tuple[tuple[str, ...], ...]  # canonical encodings per distance
    witnesses: dict

    def counts(self) -> list[int]:
        return [len(level) for level in self.levels]

    def to_json(self) -> dict:
        return {
            "context": self.ctx.describe(),
            "radius": self.radius,
            "bound": self.bound,
            "bound_limited": self.bound_limited,
            "counts": self.counts(),
            "levels": [list(level) for level in self.levels],
            "witnesses": self.witnesses,
        }

    def to_dot(self) -> str:
        lines = ["graph ball {"]
        ids: dict[str, str] = {}
        for d, level in enumerate(self.levels):
            for enc in level:
                ids[enc] = f"v{len(ids)}"
                lines.append(f'  {ids[enc]} [label="d{d}: {enc}"];')
        for enc, (parent, _tag) in self.witnesses.items():
            if parent is not None:
                lines.append(f"  {ids[parent]} -- {ids[enc]};")
        lines.append("}")
        return "\n".join(lines)


# Moves listed, and move applications summed over the levels (at least one
# per level), allowed in one exploration.  F:4 at radius 2 and bound 2
# applies 124,848 moves in about 13 s on one core of a 2-vCPU x86-64 host.
MAX_BALL_WORK = 150_000


def nuclear_ball(ctx: GroupContext, radius: int, bound: Optional[int] = None) -> BallReport:
    """Breadth-first exploration of nuclear vertices through shared stars.

    A neighbor of a nuclear vertex is the vertex of a basis obtained by a
    vertex-automorphism group element of some tree over the current basis.
    Torsion contexts enumerate those groups exactly and take no ``bound``;
    free contexts need ``bound >= 0`` on the exponents, and the report
    carries the soundness caveat.  Each vertex keeps its automorphism's
    image list, and a move steps a copy of it with :func:`act_letters`.
    The vertex depends only on the stepped list's ``(conjugator, target)``
    pairs, so each distinct list is canonicalized once.
    From radius 1 on, the moves listed and the move applications summed
    over the levels are each refused above ``MAX_BALL_WORK`` before that
    work starts; radius 0 applies no move, so it lists none.
    """
    if radius < 0:
        raise WordError("radius must be >= 0")
    if ctx.is_free and (bound is None or bound < 0):
        raise WordError(f"free-context exploration needs an exponent bound >= 0, not {bound}")
    if not ctx.is_free and bound is not None:
        raise WordError("torsion contexts are explored exactly and take no exponent bound")
    # the poset's rank limit bounds the start vertex too, but radius 0
    # applies no move and reads no poset
    _check_poset_rank(ctx.rank)
    elements = enumerate_whitehead_poset(ctx.rank).elements if radius else ()
    trees = [(t, moving_components(t)) for t in elements]
    # exponents bounded in free contexts, exact otherwise
    powers = range(-bound, bound + 1) if ctx.is_free else range(ctx.torsion)
    # every exponent choice but all-zero is a move, so this is len(moves)
    candidates = sum(len(powers) ** sum(map(len, moving.values())) - 1 for _, moving in trees)
    if candidates > MAX_BALL_WORK:
        raise WordError(
            f"the ball would list {candidates:,} moves, over the limit of {MAX_BALL_WORK:,}"
        )
    moves = [
        (letters, f"{t.canonical()}|{tag}")
        for t, moving in trees
        for letters, tag in _tree_vertex_aut_group(moving, powers)
        if letters
    ]
    start = NuclearVertex.standard(ctx).encode()
    witnesses: dict[str, tuple[Optional[str], str]] = {start: (None, "start")}
    levels: list[tuple[str, ...]] = [(start,)]
    e = identity_word(ctx)
    current = [(start, [(e, i, 1) for i in range(1, ctx.rank + 1)])]
    seen: set = set()  # the (conjugator, target) lists stepped to so far
    work = 0
    for _ in range(radius):
        work += max(len(current) * len(moves), 1)
        if work > MAX_BALL_WORK:
            raise WordError(
                f"the ball would apply {work:,} moves by distance {len(levels)}, "
                f"over the limit of {MAX_BALL_WORK:,}"
            )
        nxt = []
        for enc0, images in current:
            for letters, tag in moves:
                # the move is carried by a tree over the current basis:
                # conjugate the standard move through the current images
                stepped = list(images)
                act_letters(stepped, letters, ctx)
                # a list stepped to before has its vertex in the ball already
                key = tuple((conj.syllables, target) for conj, target, _ in stepped)
                if key in seen:
                    continue
                seen.add(key)
                enc2 = NuclearVertex.from_aut(SymmetricAut(ctx, tuple(stepped))).encode()
                if enc2 in witnesses:
                    continue
                witnesses[enc2] = (enc0, tag)
                nxt.append((enc2, stepped))
        nxt.sort(key=lambda pair: pair[0])
        levels.append(tuple(enc for enc, _ in nxt))
        current = nxt
    return BallReport(
        ctx,
        radius,
        bound,
        bound_limited=ctx.is_free,
        levels=tuple(levels),
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# The quotient map on stars and nuclear vertices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientCheckReport:
    rank: int
    star_isomorphic: bool
    kernel_translate_checks: int
    kernel_translates_agree: bool
    separating_checks: int
    separation_holds: bool

    @property
    def all_pass(self) -> bool:
        return self.star_isomorphic and self.kernel_translates_agree and self.separation_holds

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "star_isomorphic": self.star_isomorphic,
            "kernel_translate_checks": self.kernel_translate_checks,
            "kernel_translates_agree": self.kernel_translates_agree,
            "separating_checks": self.separating_checks,
            "separation_holds": self.separation_holds,
            "all_pass": self.all_pass,
        }


def quotient_star_check(n: int, rng, samples: int) -> QuotientCheckReport:
    """Checks that label-wise mod-2 projection behaves like a quotient map.

    (a) The star of every projected vertex the check builds (the standard
        one, each kernel translate and each separating translate) is
        isomorphic to the star it projects from.  A star is fixed by the
        factors of its basis: its trees are labelled by them, and the fold
        order only sees the tree shapes.  Projection keeps every label a
        generator conjugate, so the label bijection is a poset isomorphism
        exactly when the projection keeps n factors on the targets 1..n.
    (b) Translating by products of conjugates of generator inversions (all of
        which die mod 2) never moves the projected vertex.
    (c) Translates whose mod-2 image is non-inner land on distinct projected
        vertices.  Each sample, a pure word of 1-4 letters, is evaluated once,
        in F_n, and its mod-2 image read as ``reduce_mod(g, 2)`` (evaluation
        commutes with reduction).  Samples with an inner image are drawn
        again, up to ``20 * samples`` attempts; the part holds only when
        ``samples`` separating samples were found, none of them on the
        standard projected vertex.

    Ranks below 3 are refused: there every pure word is inner mod 2, so (c)
    would have nothing to test.  Ranks over :data:`MAX_EVAL_RANK` are
    refused, as by every command that builds n images.
    """
    if n < 3:
        raise WordError(f"the quotient check needs rank >= 3, not {n}")
    check_rank(n, MAX_EVAL_RANK, "automorphism images")
    if samples < 1:
        raise WordError(f"samples must be >= 1, not {samples}")
    fctx = free_context(n)
    q0 = NuclearVertex.standard(fctx).project()
    projected = [q0]  # every projected vertex, for (a)
    kernel_ok = True
    k_checks = 0
    for _ in range(samples):
        gw = GeneratorWord(n)
        for _ in range(rng.randint(1, 3)):
            conj = random_pure_word(rng, n, 0, 4)
            i = rng.randint(1, n)
            gw = gw * conj * rho_i(n, i) * conj.inverse()
        g = eval_generator_word(gw, fctx)
        k_checks += 1
        projected.append(NuclearVertex.from_aut(g).project())
        if projected[-1] != q0:
            kernel_ok = False
    sep_ok = True
    s_checks = 0
    attempts = 0
    while s_checks < samples and attempts < samples * 20:
        attempts += 1
        g = eval_generator_word(random_pure_word(rng, n, 1, 4), fctx)
        if is_inner(reduce_mod(g, 2)):
            continue
        s_checks += 1
        projected.append(NuclearVertex.from_aut(g).project())
        if projected[-1] == q0:
            sep_ok = False
    targets = list(range(1, n + 1))
    star_iso = all(sorted(t for _, t in q.factors) == targets for q in projected)
    return QuotientCheckReport(
        rank=n,
        star_isomorphic=star_iso,
        kernel_translate_checks=k_checks,
        kernel_translates_agree=kernel_ok,
        separating_checks=s_checks,
        separation_holds=sep_ok and s_checks == samples,
    )
