import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from reference import (
    acting_letters,
    components_without,
    generated_subgroup,
    image_words,
    is_identity,
    is_reduced_acyclic,
    label_components_reference,
    label_set_merges,
    label_set_splits,
    nuclear_vertex_from_basis,
    order_poset,
    projective_plane_faces,
    relabelled,
    smith_rank_divisors_reference,
    source_mutant,
    symmetry_generators_reference,
    tree_symmetries_reference,
)
from symlift import complexes, selftest
from symlift.complexes import (
    LabelledBipartiteTree,
    NuclearVertex,
    WhiteheadPoset,
    all_folds,
    enumerate_whitehead_poset,
    moving_components,
    nuclear_ball,
    order_complex_homology,
    proper_part,
    quotient_star_check,
    StabilizerGenerators,
    stabilizer_generators,
    stabilizer_soundness,
    symmetry_generators,
    tree_from_units,
    trivial_tree,
    vertex_automorphism,
    _canonicalize_factors,
    _conjugated,
    _dense_smith,
    _reduce_columns,
    _tree_vertex_aut_group,
)
from symlift.symaut import (
    GeneratorWord,
    compose,
    eval_generator_word,
    is_inner,
    outer_equal,
    parse_generator_word,
    rho_i,
)
from symlift.words import (
    Word,
    WordError,
    format_word,
    free_context,
    identity,
    normalize,
    parse_word,
    torsion_context,
)

F3 = free_context(3)
H3 = torsion_context(3, 2)
PATH3 = tree_from_units(3, [[1, 3], [3, 2]])  # b1 - u - b3 - u' - b2


# -- trees and validation -------------------------------------------------------


def test_tree_conditions_enforced():
    with pytest.raises(WordError):
        tree_from_units(3, [[1, 2]])  # label 3 missing
    with pytest.raises(WordError):
        tree_from_units(3, [[1, 2, 3], [1]])  # valence-1 unlabelled vertex
    with pytest.raises(WordError):
        tree_from_units(3, [[1, 2], [2, 3], [3, 1]])  # cycle
    with pytest.raises(WordError):
        tree_from_units(3, [[1, 2], [], [2, 3]])  # an empty unlabelled vertex
    for n in (1, 0):  # refused by rank, before the units are read
        with pytest.raises(WordError, match=f"^trees need rank >= 2, not {n}$"):
            tree_from_units(n, [list(range(1, n + 1))])
    with pytest.raises(WordError, match="twice"):
        tree_from_units(3, [[1, 2, 2], [2, 3]])
    with pytest.raises(WordError, match="connected"):
        # the count sum(|E| - 1) = n - 1 holds, but {4, 5} hangs apart
        tree_from_units(5, [[1, 2, 3], [1, 2], [4, 5]])


def recursive_encode(units, name):
    """Reference for the canonical encoding: the recursive rooted code."""
    label_units = {}
    for u, labels in enumerate(units):
        for l in labels:
            label_units.setdefault(l, []).append(u)

    def enc_unit(u, parent):
        return "(" + ",".join(sorted(enc_label(l, u) for l in units[u] if l != parent)) + ")"

    def enc_label(l, parent):
        kids = sorted(enc_unit(u, l) for u in label_units[l] if u != parent)
        return name(l) + ("" if not kids else "[" + ",".join(kids) + "]")

    return min(enc_unit(u, None) for u in range(len(units)))


def random_hypertree(n, rng):
    """A seeded random tree at rank ``n``: each unit joins one label already
    placed to one or more new labels, in a shuffled label order."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    placed, units = labels[:1], []
    while len(placed) < n:
        new = labels[len(placed) : len(placed) + rng.randint(1, min(3, n - len(placed)))]
        units.append(frozenset([rng.choice(placed), *new]))
        placed += new
    return LabelledBipartiteTree(n, tuple(units))


def test_encoding_matches_the_recursive_reference():
    trees = [t for n in (2, 3, 4, 5) for t in enumerate_whitehead_poset(n).elements]
    # from rank 10 on, label 1 is a prefix of labels 10.., so the minimal code
    # can be rooted at a unit without label 1
    rng = random.Random(15)
    trees += [random_hypertree(n, rng) for n in (10, 11, 12, 13) for _ in range(60)]
    for t in trees:
        s = LabelledBipartiteTree(t.rank, t.units[::-1])
        for tree in (t, s):
            assert tree.canonical() == recursive_encode(tree.units, str)
            assert tree.type_encoding() == recursive_encode(tree.units, lambda l: "*")


def test_tree_identity_reads_rank_and_label_sets_only():
    t = tree_from_units(6, [[1, 2], [2, 3, 6], [3, 5], [4, 6]])
    reversed_units = tree_from_units(6, [[4, 6], [3, 5], [2, 3, 6], [1, 2]])
    permuted = tree_from_units(6, [[6, 3, 2], [6, 4], [2, 1], [5, 3]])
    for other in (reversed_units, permuted):
        assert other == t and hash(other) == hash(t)
    assert len({t, reversed_units, permuted}) == 1
    assert trivial_tree(5) != t and len({t, trivial_tree(5)}) == 2
    assert tree_from_units(6, [[1, 2], [2, 3, 6], [3, 4], [5, 6]]) != t
    assert t != t.units and t != t.label_sets
    assert repr(t) == (
        "LabelledBipartiteTree(rank=6, units=(frozenset({1, 2}), frozenset({2, 3, 6}), "
        "frozenset({3, 5}), frozenset({4, 6})))"
    )
    assert repr(reversed_units).startswith("LabelledBipartiteTree(rank=6, units=(frozenset({4, 6}),")


def test_tree_canonical_identifies_isomorphic_labelings():
    a = tree_from_units(3, [[1, 3], [3, 2]])
    b = tree_from_units(3, [[2, 3], [3, 1]])
    assert a == b
    c = tree_from_units(3, [[1, 2], [2, 3]])
    assert a != c
    assert a.type_encoding() == c.type_encoding()


# -- folds ----------------------------------------------------------------------


def test_fold_examples():
    # the one fold of PATH3 is at label 3, of units 0 and 1
    assert all_folds(PATH3) == [(3, 0, 1, trivial_tree(3))]
    assert all_folds(trivial_tree(3)) == []
    # a rank-4 tree whose fold at the doubly-attached label collapses it
    t4 = tree_from_units(4, [[1, 2, 3], [3, 4]])
    assert all_folds(t4) == [(3, 0, 1, trivial_tree(4))]


def test_folds_reduce_unlabelled_count_by_one():
    poset = enumerate_whitehead_poset(4)
    for t in poset.elements:
        for _, _, _, folded in all_folds(t):
            assert folded.unlabelled_count == t.unlabelled_count - 1


# -- the poset -------------------------------------------------------------------


def subset_scan(n):
    """Reference enumeration: every edge subset of the right size that is a
    tree, one per isomorphism class, in poset order."""
    found = {}
    for m in range(1, n):
        slots = [(l, u) for l in range(1, n + 1) for u in range(m)]
        for chosen in itertools.combinations(slots, n + m - 1):
            units = tuple(frozenset(l for l, v in chosen if v == u) for u in range(m))
            try:
                t = LabelledBipartiteTree(n, units)
            except WordError:
                continue
            found.setdefault(t.canonical(), t)
    return sorted(found.values(), key=lambda t: (t.unlabelled_count, t.canonical()))


def fold_reachable(poset):
    """Reference order, from tree-level folds: for each index j, the indices
    reachable from ``j`` by folds."""
    down = [{poset.index_of(folded) for *_, folded in all_folds(t)} for t in poset.elements]
    reachable = []
    for j in range(len(poset.elements)):
        reach, stack = {j}, [j]
        while stack:
            for i in down[stack.pop()] - reach:
                reach.add(i)
                stack.append(i)
        reachable.append(reach)
    return reachable


def label_sets(t):
    """The label-set key of a tree: one label set per unlabelled vertex."""
    by_unit = {}
    for l, u in t.edges:
        by_unit.setdefault(u, set()).add(l)
    return frozenset(frozenset(labels) for labels in by_unit.values())


def test_hypertree_count_is_a030019():
    assert [selftest.hypertree_count(n) for n in range(2, 8)] == [1, 4, 29, 311, 4447, 79745]


def test_poset_counts():
    for n in (2, 3, 4, 5):
        assert len(enumerate_whitehead_poset(n).elements) == selftest.hypertree_count(n)
    assert len(enumerate_whitehead_poset(3).covers()) == 3
    with pytest.raises(WordError):
        enumerate_whitehead_poset(1)
    with pytest.raises(WordError, match="^posets are limited to rank <= 6, not 7$"):
        enumerate_whitehead_poset(7)


def test_unfolding_matches_subset_scan_and_fold_reachability():
    for n in (2, 3, 4, 5):
        poset = enumerate_whitehead_poset(n)
        if n < 5:  # the subset scan is out of reach at rank 5
            assert [t.canonical() for t in poset.elements] == [
                t.canonical() for t in subset_scan(n)
            ]
        size = len(poset.elements)
        for j, below in enumerate(fold_reachable(poset)):
            assert [poset.leq[i][j] for i in range(size)] == [i in below for i in range(size)]


def test_unfolds_invert_folds_and_give_the_upper_covers():
    for n in (3, 4, 5):
        poset = enumerate_whitehead_poset(n)
        keys = [label_sets(t) for t in poset.elements]
        above = {i: set() for i in range(len(keys))}
        for i, j in poset.covers():
            above[i].add(keys[j])
        for i, key in enumerate(keys):
            splits = label_set_splits(key)
            for split in splits:
                assert key in label_set_merges(split)
            assert len(splits) == len(set(splits)) and set(splits) == above[i]


def test_label_sets_and_canonical_agree_on_equality():
    # every rank-5 class under every relabelling, its unlabelled ids reversed
    canonical_of = {}
    for t in enumerate_whitehead_poset(5).elements:
        for perm in itertools.permutations(range(1, 6)):
            units = tuple(frozenset(perm[l - 1] for l in labels) for labels in reversed(t.units))
            s = LabelledBipartiteTree(5, units)
            assert canonical_of.setdefault(label_sets(s), s.canonical()) == s.canonical()
    assert len(set(canonical_of.values())) == len(canonical_of) == 311


def test_enumeration_builds_one_tree_per_class(monkeypatch):
    built = []
    trusted = LabelledBipartiteTree._trusted

    def counted(cls, rank, units):
        built.append(units)
        return trusted(rank, units)

    monkeypatch.setattr(LabelledBipartiteTree, "_trusted", classmethod(counted))
    enumerate_whitehead_poset.cache_clear()
    poset = enumerate_whitehead_poset(5)
    assert len(built) == len(poset.elements) == 311


def test_trusted_constructions_are_revalidated():
    # the session fixture in conftest.py re-runs every public validator
    with pytest.raises(AssertionError, match="invalid"):
        LabelledBipartiteTree._trusted(4, (frozenset({1, 2}), frozenset({2, 3})))  # no label 4
    with pytest.raises(AssertionError, match="invalid"):
        GeneratorWord._trusted(2, (("a", 1, 1, 1),))


def test_a_dropped_handed_over_cover_is_caught():
    # the rows still hold the order the covers close to, so the public
    # constructor reads the cover back off them
    namespace = source_mutant(
        [complexes.enumerate_whitehead_poset], "tuple(covers))", "tuple(covers[1:]))"
    )
    with pytest.raises(AssertionError, match="the public constructor"):
        namespace["enumerate_whitehead_poset"](4)


def test_enumerated_posets_never_read_leq(monkeypatch):
    order = WhiteheadPoset.__dict__["_order"]
    original, read = order.func, []
    monkeypatch.setattr(order, "func", lambda poset: read.append(poset) or original(poset))
    enumerated, parts = [], []
    for n in (2, 3, 4, 5):
        enumerate_whitehead_poset.cache_clear()
        poset = enumerate_whitehead_poset(n)
        enumerated.append(poset)
        parts.append(proper_part(poset))
    for p in enumerated + parts:
        p.to_dot(), p.to_json(), order_complex_homology(p)
    public = WhiteheadPoset(poset.rank, poset.elements, poset.leq)
    assert public.covers() == poset.covers()
    # the public constructor reads its leq: a caller's poset and a proper part
    assert all(any(p is q for q in read) for p in parts + [public])
    assert not any(p is q for p in enumerated for q in read)


def test_poset_rank3_is_exactly_trivial_plus_paths():
    expected = {trivial_tree(3).canonical()}
    for center in (1, 2, 3):
        rest = [l for l in (1, 2, 3) if l != center]
        expected.add(
            tree_from_units(3, [[rest[0], center], [center, rest[1]]]).canonical()
        )
    got = {t.canonical() for t in enumerate_whitehead_poset(3).elements}
    assert got == expected


def test_max_chain_cardinality():
    for n in (2, 3, 4, 5):
        assert enumerate_whitehead_poset(n).max_chain_cardinality() == n - 1


def test_covers_returns_a_copy_of_its_cache():
    p = enumerate_whitehead_poset(4)
    poset = WhiteheadPoset(p.rank, p.elements, p.leq)
    covers = poset.covers()
    expected = list(covers)
    covers.clear()
    assert poset.covers() == expected and len(expected) == 48
    assert poset.max_chain_cardinality() == 3


def test_leq_rows_are_bytes_and_tuple_rows_read_the_same():
    p = enumerate_whitehead_poset(4)
    assert all(type(row) is bytes for row in p.leq)
    tuples = WhiteheadPoset(p.rank, p.elements, tuple(tuple(map(bool, row)) for row in p.leq))
    assert tuples._up_sets == p._up_sets and tuples.covers() == p.covers()


# `complex poset --n 6` peaked at 179 MB with rows of bools and at 47 MB
# with bytes rows (2-core x86-64 Linux)
RANK_6_POSET_MAX_RSS_MB = 100


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_rank_6_poset_command_stays_small():
    # the child's own peak, VmHWM in KiB: its getrusage ru_maxrss would also
    # count the pytest process's peak, which Linux carries across fork and exec
    code = (
        "import contextlib, os\n"
        "from symlift import cli\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    assert cli.main(['complex', 'poset', '--n', '6']) == 0\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(complexes.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert int(child.stdout) / 1024 < RANK_6_POSET_MAX_RSS_MB


def test_proper_part_covers_and_reports():
    # the proper part is not closed under folds: its covers come from leq
    for n in (2, 3, 4, 5):
        poset = enumerate_whitehead_poset(n)
        part = proper_part(poset)
        bottom = poset.index_of(trivial_tree(n))
        assert bottom == 0
        assert part.covers() == [(i - 1, j - 1) for i, j in poset.covers() if i != bottom]
        assert part.max_chain_cardinality() == max(n - 2, 0)
        assert part.to_json()["size"] == len(poset.elements) - 1
        assert part.to_dot().count(" -> ") == len(part.covers())


def test_trivial_tree_is_unique_minimum():
    p = enumerate_whitehead_poset(4)
    bottom = p.index_of(trivial_tree(4))
    assert all(p.leq[bottom][j] for j in range(len(p.elements)))
    minima = [
        i
        for i in range(len(p.elements))
        if all(not p.leq[j][i] for j in range(len(p.elements)) if j != i)
    ]
    assert minima == [bottom]


# -- homology --------------------------------------------------------------------


def test_homology_point():
    report = order_complex_homology(enumerate_whitehead_poset(2))
    assert report.euler_characteristic == 1 and is_reduced_acyclic(report)


def test_homology_rank_3_star():
    poset = enumerate_whitehead_poset(3)
    report = order_complex_homology(poset)
    assert report.simplex_counts == (4, 3)
    assert report.euler_characteristic == 1 and is_reduced_acyclic(report)
    # the proper part is three points
    proper = order_complex_homology(proper_part(poset))
    assert proper.reduced_betti == (2,) and proper.torsion == ((),)


def test_homology_rank_4():
    poset = enumerate_whitehead_poset(4)
    report = order_complex_homology(poset)
    assert report.euler_characteristic == 1 and is_reduced_acyclic(report)
    proper = order_complex_homology(proper_part(poset))
    assert proper.reduced_betti == (0, 9) and proper.torsion == ((), ())


def test_sparse_smith_matches_dense_smith():
    rng = random.Random(6)
    nonunit_pivots = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        dense = [[0] * ncols for _ in range(nrows)]
        for _ in range(rng.randint(1, nrows * ncols)):
            value = rng.choice((1, -1, 1, -1, 2, -2, 3, 4, -6))
            dense[rng.randrange(nrows)][rng.randrange(ncols)] = value
        columns = [{r: row[c] for r, row in enumerate(dense) if row[c]} for c in range(ncols)]
        expected = _dense_smith([list(row) for row in dense])
        rank, divisors, lows = _reduce_columns(columns)
        assert (rank, divisors) == (len(expected), expected)
        # the lows are distinct, and the input's rows there hold a
        # unimodular block (their Smith form is all ones), as clearing needs
        assert len(set(lows)) == len(lows) <= divisors.count(1)
        if lows:
            assert _dense_smith([list(dense[r]) for r in lows]) == [1] * len(lows)
        nonunit_pivots += any(d > 1 for d in expected)
    assert nonunit_pivots > 20
    # no unit entry at all: the whole matrix goes to the dense core
    assert _reduce_columns([{0: 2}, {1: 3}]) == (2, [1, 6], [])


def test_homology_finds_torsion_of_the_projective_plane():
    faces = projective_plane_faces()
    assert len(faces) == 31
    report = order_complex_homology(order_poset(faces, frozenset.__le__))
    assert report.simplex_counts == (31, 90, 60)
    assert report.reduced_betti == (0, 0, 0)
    assert report.torsion == ((), (2,), ())


def suspended_projective_plane():
    """Two incomparable elements above every face: the order complex is the
    suspension, with H_2 = Z/2 one degree below the top."""
    return order_poset(
        projective_plane_faces() + ["north", "south"],
        lambda a, b: a == b if isinstance(a, str) else isinstance(b, str) or a <= b,
    )


def homology_without_clearing(poset):
    """Reference: reduced homology from every full boundary, each reduced
    by ``smith_rank_divisors_reference`` on its own."""
    size = len(poset.elements)
    chains = [[(i,) for i in range(size)]]
    while True:
        longer = [
            c + (j,) for c in chains[-1] for j in range(size) if j != c[-1] and poset.leq[c[-1]][j]
        ]
        if not longer:
            break
        chains.append(longer)
    counts = [len(level) for level in chains]
    ranks = [1 if size else 0] + [0] * len(chains)
    divisors = [[] for _ in range(len(chains) + 1)]
    for d in range(1, len(chains)):
        index = {chain: i for i, chain in enumerate(chains[d - 1])}
        rows = {}
        for col, chain in enumerate(chains[d]):
            for skip in range(d + 1):
                rows.setdefault(index[chain[:skip] + chain[skip + 1 :]], {})[col] = (-1) ** skip
        ranks[d], divisors[d], _ = smith_rank_divisors_reference(rows)
    betti = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(len(chains)))
    torsion = tuple(tuple(v for v in divisors[d + 1] if v > 1) for d in range(len(chains)))
    return tuple(counts), betti, torsion


def test_clearing_matches_the_homology_of_the_full_boundaries():
    posets = [order_poset(projective_plane_faces(), frozenset.__le__), suspended_projective_plane()]
    for n in (2, 3, 4, 5):
        posets += [enumerate_whitehead_poset(n), proper_part(enumerate_whitehead_poset(n))]
    for poset in posets:
        report = order_complex_homology(poset)
        expected = homology_without_clearing(poset)
        assert (report.simplex_counts, report.reduced_betti, report.torsion) == expected
    assert expected[1:] == ((0, 0, 64), ((), (), ()))  # the rank-5 proper part
    # the top boundary's non-unit pivot leaves 20 rows to the dense phase:
    # clearing them too reads reduced betti (0, 19, 19, 0)
    suspended = order_complex_homology(posets[1])
    assert suspended.reduced_betti == (0, 0, 0, 0)
    assert suspended.torsion == ((), (), (2,), ())


def random_posets(seed, count):
    """Seeded random orders on 4 to 12 elements: half the transitive
    closures of random relations i < j, half of height two, each element
    that is not minimal above two or more minimal ones."""
    rng = random.Random(seed)
    posets = []
    for k in range(count):
        size = rng.randint(4, 12)
        below = [{i} for i in range(size)]
        if k % 2:
            minimal = [0, 1]
            for j in range(2, size):
                if rng.random() < 0.5:
                    minimal.append(j)
                else:
                    below[j].update(rng.sample(minimal, rng.randint(2, len(minimal))))
        else:
            for j in range(size):
                for i in range(j):
                    if rng.random() < 0.3:
                        below[j] |= below[i]
        posets.append(order_poset(range(size), lambda a, b, below=below: a in below[b]))
    return posets


def shuffled(poset, rng):
    """The same order with its elements listed in a random order, so that
    the indices are no linear extension."""
    perm = list(range(len(poset.elements)))
    rng.shuffle(perm)
    leq = tuple(tuple(poset.leq[a][b] for b in perm) for a in perm)
    return WhiteheadPoset(poset.rank, tuple(poset.elements[a] for a in perm), leq)


def core_test_posets():
    """The random posets, the projective plane's face poset and its
    suspension, and the posets at ranks 2-5 and their proper parts, each as
    given and shuffled by a seeded permutation."""
    rng = random.Random(23)
    posets = random_posets(21, 80)
    posets += [order_poset(projective_plane_faces(), frozenset.__le__), suspended_projective_plane()]
    for n in (2, 3, 4, 5):
        posets += [enumerate_whitehead_poset(n), proper_part(enumerate_whitehead_poset(n))]
    return posets + [shuffled(poset, rng) for poset in posets]


def has_least_element(poset):
    """Whether some element lies below every element, read off ``leq``."""
    return any(all(row) for row in poset.leq)


def test_homology_and_chain_counts_match_the_full_boundaries():
    cones = 0
    posets = core_test_posets()
    for poset in posets:
        expected = homology_without_clearing(poset)
        report = order_complex_homology(poset)
        assert (report.simplex_counts, report.reduced_betti, report.torsion) == expected
        assert complexes._chain_counts(poset._up_sets) == expected[0]
        cones += has_least_element(poset)
    # both branches run: the cones are answered at once, the rest reduced
    assert (cones, len(posets)) == (16, 180)


def test_whole_posets_are_cones_and_proper_parts_are_reduced(monkeypatch):
    reduced = []

    def recorded(up):
        reduced.append(up)
        return (), (), ()

    monkeypatch.setattr(complexes, "_reduced_homology", recorded)
    for n in (2, 3, 4, 5, 6):
        poset = enumerate_whitehead_poset(n)
        assert has_least_element(poset)
        order_complex_homology(poset)
        assert reduced == []
    for n in (3, 4, 5, 6):
        part = proper_part(enumerate_whitehead_poset(n))
        assert not has_least_element(part)
        order_complex_homology(part)
        assert reduced.pop() is part._up_sets


@pytest.mark.parametrize(
    "mutated_test",
    [
        # also call a poset a cone when one element lies below all but one
        ">= len(up) - 2",
        # call a poset a cone when one element lies below all but one, and
        # reduce the true cones
        "== len(up) - 2",
    ],
    ids=["below_all_but_at_most_one", "below_all_but_one"],
)
def test_a_wrong_least_element_test_is_caught(mutated_test):
    namespace = source_mutant([complexes.order_complex_homology], "== len(up) - 1", mutated_test)
    wrong = 0
    for poset in core_test_posets():
        report = namespace["order_complex_homology"](poset)
        expected = homology_without_clearing(poset)
        wrong += (report.simplex_counts, report.reduced_betti, report.torsion) != expected
    assert wrong > 0


@pytest.mark.parametrize(
    "old, new",
    [
        # the union test skipped: the forest takes every edge
        ("if a != b:", "if True:"),
        # every coface entered with sign +1
        ("signs = (1, -1)", "signs = (1, 1)"),
        # the chains cleared one level up are the lows' neighbours
        ("cleared = {-low for low in lows}", "cleared = {1 - low for low in lows}"),
    ],
    ids=["forest_takes_every_edge", "unsigned_cofaces", "cleared_off_by_one"],
)
def test_a_wrong_coboundary_reduction_is_caught(old, new):
    reduced = source_mutant([complexes._reduced_homology], old, new)["_reduced_homology"]
    wrong = 0
    for poset in core_test_posets():
        wrong += reduced(poset._up_sets) != homology_without_clearing(poset)
    assert wrong > 0


def test_the_homology_reads_the_order_not_the_listing():
    part = proper_part(enumerate_whitehead_poset(5))
    listed = shuffled(part, random.Random(47))
    assert listed._up_sets != part._up_sets
    assert order_complex_homology(listed) == order_complex_homology(part)


def test_collapses_match_the_homology_of_the_full_boundaries():
    # the reducer on its own: order_complex_homology answers the random
    # posets that have a least element without it
    for poset in random_posets(21, 80) + [proper_part(enumerate_whitehead_poset(5))]:
        assert complexes._reduced_homology(poset._up_sets) == homology_without_clearing(poset)


def test_max_chain_cardinality_counts_the_chain_sizes():
    for poset in core_test_posets():
        counts = homology_without_clearing(poset)[0]
        assert poset.max_chain_cardinality() == sum(1 for c in counts if c)


@pytest.mark.parametrize(
    "leq",
    [
        ((1, 1), (1, 1)),  # a cycle: 0 < 1 < 0
        ((1, 1, 0), (0, 1, 1), (0, 0, 1)),  # 0 < 1 < 2 without 0 < 2
        ((0, 1, 1), (0, 1, 1), (0, 0, 1)),  # not reflexive
        ((1, 1, 1), (0, 1, 1)),  # not square
        ((1, 1), (0, 1, 1), (0, 0, 1)),  # a short row
    ],
)
def test_a_table_that_is_no_partial_order_is_refused(leq):
    for read in (WhiteheadPoset.max_chain_cardinality, order_complex_homology):
        with pytest.raises(WordError):
            read(WhiteheadPoset(2, ("a", "b", "c")[: len(leq)], leq))


# -- vertex automorphisms ---------------------------------------------------------


def test_components_and_valences():
    comps = components_without(PATH3, 3)
    assert [sorted(c) for c in comps] == [[1], [2]]
    assert len(components_without(trivial_tree(3), 1)) == 1


def _component_test_trees() -> list[LabelledBipartiteTree]:
    """Every tree of ranks 2 to 5, seeded random hypertrees up to rank 40
    and the 500-label path."""
    rng = random.Random(41)
    trees = [t for n in range(2, 6) for t in enumerate_whitehead_poset(n).elements]
    trees += [random_hypertree(n, rng) for n in (2, 5, 9, 17, 40) for _ in range(30)]
    trees.append(tree_from_units(500, [[l, l + 1] for l in range(1, 500)]))
    return trees


def _component_misses(moving_components, trees) -> list[tuple[LabelledBipartiteTree, int]]:
    """The (tree, label) pairs at which ``moving_components`` differs from
    the frozenset merge's components less the one holding the largest
    label, or lists a label that leaves one component."""
    misses = []
    for t in trees:
        moving = moving_components(t)
        assert list(moving) == sorted(moving)
        for v in range(1, t.rank + 1):
            comps = components_without(t, v)
            kept = max(comps, key=max)
            if moving.get(v) != ([comp for comp in comps if comp != kept] or None):
                misses.append((t, v))
    return misses


def test_label_components_match_the_frozenset_merge():
    trees = _component_test_trees()
    for t in trees:
        labels = range(1, t.rank + 1)
        assert label_components_reference(labels, t.units) == [frozenset(labels)]
        assert LabelledBipartiteTree(t.rank, t.units) == t
    assert _component_misses(moving_components, trees) == []
    # the counts hold, but a 4-cycle leaves {3, 4, 5, 6} apart, in an order
    # that joins the merge's components late
    sets = [{5, 6}, {3, 4}, {4, 6}, {8, 9}, {1, 2, 7}, {1, 8}, {3, 5}]
    assert label_components_reference(range(1, 10), sets) == [{1, 2, 7, 8, 9}, {3, 4, 5, 6}]
    with pytest.raises(WordError, match="tree is not connected"):
        tree_from_units(9, sets)


def test_components_without_the_one_across_the_parent_are_caught():
    namespace = source_mutant(
        [complexes.moving_components], "comps.append(everything - below[v])", "pass"
    )
    assert _component_misses(namespace["moving_components"], _component_test_trees()[:-1])


def test_moving_components_keep_the_largest_label_still():
    assert moving_components(PATH3) == {3: [frozenset({1})]}
    assert moving_components(trivial_tree(4)) == {}
    # at b2 the components are {1, 5}, {3} and {4}: the first holds 5, so it
    # stays although it does not sort last
    star = tree_from_units(5, [[2, 1, 5], [2, 3], [2, 4]])
    assert moving_components(star)[2] == [frozenset({3}), frozenset({4})]
    for t in enumerate_whitehead_poset(5).elements:
        moving = moving_components(t)
        for v in range(1, 6):
            comps = components_without(t, v)
            if v not in moving:
                assert len(comps) == 1
                continue
            (kept,) = [c for c in comps if c not in moving[v]]
            assert len(moving[v]) == len(comps) - 1 and max(map(max, comps)) in kept


def test_vertex_aut_example_matches_generator():
    gw = vertex_automorphism(PATH3, 3, [1])
    assert gw == parse_generator_word("a[1,3]", 3)
    # labels ascending, |p| letters each, the kept component {4} at power 0
    t = tree_from_units(4, [[1, 2, 3], [3, 4]])
    assert str(vertex_automorphism(t, 3, [-2])) == "a[1,3]^-1 a[1,3]^-1 a[2,3]^-1 a[2,3]^-1"


def test_vertex_aut_on_trivial_tree_is_inner():
    # power 2 on the only component of the trivial tree minus b1 is inner,
    # so the trivial tree has nothing to move
    assert is_inner(eval_generator_word(parse_generator_word("a[2,1] a[2,1] a[3,1] a[3,1]", 3), F3))
    assert moving_components(trivial_tree(3)) == {}
    # likewise moving the kept component too is inner
    kept = parse_generator_word("a[2,3] a[2,3]", 3)
    assert is_inner(eval_generator_word(vertex_automorphism(PATH3, 3, [2]) * kept, F3))


def test_vertex_automorphism_refuses_bad_vertex_or_power_count():
    for vertex in (0, 1, 2, 4):  # out of range, or leaves one component
        with pytest.raises(WordError, match=f"vertex {vertex} has no moving components"):
            vertex_automorphism(PATH3, vertex, [1])
    with pytest.raises(WordError, match="has no moving components"):
        vertex_automorphism(trivial_tree(3), 1, [])
    for powers in ([], [1, 0]):
        with pytest.raises(WordError, match=f"1 moving components, not {len(powers)}"):
            vertex_automorphism(PATH3, 3, powers)


def test_vertex_aut_inverse_and_torsion_powers():
    gw = vertex_automorphism(PATH3, 3, [2])
    f = eval_generator_word(gw, F3)
    g = eval_generator_word(vertex_automorphism(PATH3, 3, [-2]), F3)
    assert is_identity(compose(f, g))
    assert is_identity(eval_generator_word(gw, H3))  # exponents collapse mod 2


def _seeded_powers(rng, comps):
    return [rng.randint(-2, 2) for _ in comps]


def test_rho_inversion_of_vertex_automorphisms():
    rng = random.Random(99)
    for n in (3, 4):
        ctx = free_context(n)
        poset = enumerate_whitehead_poset(n)
        samples = 0
        while samples < 40:
            t = rng.choice(poset.elements)
            v = rng.randint(1, n)
            moving = moving_components(t)
            if v not in moving:
                continue
            powers = _seeded_powers(rng, moving[v])
            if not any(powers):
                continue
            samples += 1
            gw = vertex_automorphism(t, v, powers)
            f = eval_generator_word(gw, ctx)
            negated = eval_generator_word(vertex_automorphism(t, v, [-p for p in powers]), ctx)
            r = eval_generator_word(rho_i(n, v), ctx)
            assert compose(compose(r, f), r) == negated
            # squares are commutators with the matching inversion, against the true inverse
            inverse = eval_generator_word(gw.inverse(), ctx)
            assert compose(f, f) == compose(compose(compose(f, r), inverse), r)


def test_distinct_vertex_automorphisms_commute_up_to_inner():
    rng = random.Random(101)
    poset = enumerate_whitehead_poset(4)
    ctx = free_context(4)
    checked = 0
    while checked < 25:
        t = rng.choice(poset.elements)
        moving = moving_components(t)
        if len(moving) < 2:
            continue
        v1, v2 = rng.sample(sorted(moving), 2)
        f, g = (
            eval_generator_word(vertex_automorphism(t, v, _seeded_powers(rng, moving[v])), ctx)
            for v in (v1, v2)
        )
        assert outer_equal(compose(f, g), compose(g, f))
        checked += 1


@pytest.mark.parametrize(
    "ranks, powers, want", [((3, 4), range(-2, 3), 192), ((3, 4, 5), range(-1, 2), 2208)]
)
def test_distinct_vertex_automorphisms_commute_exactly(ranks, powers, want):
    # every pair that selftest's stabilizer check can sample (ranks 3 and 4,
    # powers -2..2), and rank 5: they commute, not only up to an inner
    # automorphism, so the check compares them exactly
    pairs = 0
    for n in ranks:
        ctx = free_context(n)
        for t in enumerate_whitehead_poset(n).elements:
            moving = moving_components(t)
            autos = {
                v: [
                    eval_generator_word(vertex_automorphism(t, v, p), ctx)
                    for p in itertools.product(powers, repeat=len(comps))
                    if any(p)
                ]
                for v, comps in moving.items()
            }
            for v, w in itertools.combinations(moving, 2):
                for f, g in itertools.product(autos[v], autos[w]):
                    assert compose(f, g) == compose(g, f), (t, v, w)
                    pairs += 1
    assert pairs == want


# -- stabilizers -------------------------------------------------------------------


def test_stabilizer_trivial_tree():
    gens = stabilizer_generators(trivial_tree(3))
    assert gens.vertex_auts == ()
    assert len(gens.inversions) == 3
    assert len(generated_subgroup(gens.symmetries, 3)) == 6


def test_stabilizer_path_tree():
    gens = stabilizer_generators(PATH3)
    assert [str(gw) for gw in gens.vertex_auts] == ["a[1,3]"]
    group = generated_subgroup(gens.symmetries, 3)
    assert group == {(1, 2, 3), (2, 1, 3)}


def test_stabilizer_rank4_example():
    t = tree_from_units(4, [[4, 1, 2], [4, 3]])
    gens = stabilizer_generators(t)
    assert len(gens.vertex_auts) == 1
    group = generated_subgroup(gens.symmetries, 4)
    assert group == {(1, 2, 3, 4), (2, 1, 3, 4)}


# the rank-6 trees on which swapping each sibling with the next one of its
# code would print another second generator, with the generators the
# greedy pick over the listed group chooses (one tree type, 30 labellings)
SECOND_GENERATOR_PINS = {
    "1,2;2,3,6;3,5;4,6": [(1, 2, 6, 5, 4, 3), (4, 6, 3, 1, 5, 2)],
    "1,2;2,3,4;3,6;4,5": [(1, 2, 4, 3, 6, 5), (5, 4, 3, 2, 1, 6)],
    "1,2;2,3,5;3,6;4,5": [(1, 2, 5, 6, 3, 4), (4, 5, 3, 1, 2, 6)],
    "1,3;2,3,6;2,5;4,6": [(1, 6, 3, 5, 4, 2), (4, 2, 6, 1, 5, 3)],
    "1,3;2,3,4;2,6;4,5": [(1, 4, 3, 2, 6, 5), (5, 2, 4, 3, 1, 6)],
    "1,3;2,3,5;2,6;4,5": [(1, 5, 3, 6, 2, 4), (4, 2, 5, 1, 3, 6)],
    "1,4;2,4,6;2,5;3,6": [(1, 6, 5, 4, 3, 2), (3, 2, 1, 6, 5, 4)],
    "1,4;2,3,4;2,6;3,5": [(1, 3, 2, 4, 6, 5), (5, 2, 4, 3, 1, 6)],
    "1,4;2,4,5;2,6;3,5": [(1, 5, 6, 4, 2, 3), (3, 2, 1, 5, 4, 6)],
    "1,5;2,4;2,5,6;3,6": [(1, 6, 4, 3, 5, 2), (3, 2, 1, 4, 6, 5)],
    "1,5;2,3,5;2,6;3,4": [(1, 3, 2, 6, 5, 4), (4, 2, 5, 1, 3, 6)],
    "1,5;2,4,5;2,6;3,4": [(1, 4, 6, 2, 5, 3), (3, 2, 1, 5, 4, 6)],
    "1,6;2,4;2,5,6;3,5": [(1, 5, 4, 3, 2, 6), (3, 2, 1, 4, 6, 5)],
    "1,6;2,3,6;2,5;3,4": [(1, 3, 2, 5, 4, 6), (4, 2, 6, 1, 5, 3)],
    "1,6;2,4,6;2,5;3,4": [(1, 4, 5, 2, 3, 6), (3, 2, 1, 6, 5, 4)],
    "1,2;1,4,6;3,6;4,5": [(1, 2, 5, 6, 3, 4), (4, 5, 3, 1, 2, 6)],
    "1,2;1,4,5;3,5;4,6": [(1, 2, 6, 5, 4, 3), (4, 6, 3, 1, 5, 2)],
    "1,2;1,5,6;3,6;4,5": [(1, 2, 4, 3, 6, 5), (5, 4, 3, 2, 1, 6)],
    "1,3;1,4,6;2,6;4,5": [(1, 5, 3, 6, 2, 4), (4, 2, 5, 1, 3, 6)],
    "1,3;1,4,5;2,5;4,6": [(1, 6, 3, 5, 4, 2), (4, 2, 6, 1, 5, 3)],
    "1,3;1,5,6;2,6;4,5": [(1, 4, 3, 2, 6, 5), (5, 2, 4, 3, 1, 6)],
    "1,3,5;1,6;2,5;3,4": [(1, 4, 5, 2, 3, 6), (3, 2, 1, 6, 5, 4)],
    "1,3,6;1,5;2,6;3,4": [(1, 4, 6, 2, 5, 3), (3, 2, 1, 5, 4, 6)],
    "1,3,4;1,6;2,4;3,5": [(1, 5, 4, 3, 2, 6), (3, 2, 1, 4, 6, 5)],
    "1,3,6;1,4;2,6;3,5": [(1, 5, 6, 4, 2, 3), (3, 2, 1, 5, 4, 6)],
    "1,3,4;1,5;2,4;3,6": [(1, 6, 4, 3, 5, 2), (3, 2, 1, 4, 6, 5)],
    "1,3,5;1,4;2,5;3,6": [(1, 6, 5, 4, 3, 2), (3, 2, 1, 6, 5, 4)],
    "1,4;1,5,6;2,6;3,5": [(1, 3, 2, 4, 6, 5), (5, 2, 4, 3, 1, 6)],
    "1,4,5;1,6;2,5;3,4": [(1, 3, 2, 5, 4, 6), (4, 2, 6, 1, 5, 3)],
    "1,4,6;1,5;2,6;3,4": [(1, 3, 2, 6, 5, 4), (4, 2, 5, 1, 3, 6)],
}


def _pinned_tree(spec: str) -> LabelledBipartiteTree:
    return tree_from_units(6, [[int(l) for l in unit.split(",")] for unit in spec.split(";")])


@pytest.fixture(scope="module")
def listed_symmetries():
    """Every tree of ranks 2 to 5 with its symmetries from the n! scan and
    the generators the greedy pick over them chooses."""
    return [
        (t, tree_symmetries_reference(t), symmetry_generators_reference(t))
        for n in range(2, 6)
        for t in enumerate_whitehead_poset(n).elements
    ]


def _generator_misses(generators, listed_symmetries) -> list:
    """The trees on which ``generators`` differs from the greedy reference
    (ranks 2 to 5) or from the pinned rank-6 generators."""
    misses = [t for t, _, want in listed_symmetries if generators(t) != want]
    for spec, want in SECOND_GENERATOR_PINS.items():
        if generators(_pinned_tree(spec)) != want:
            misses.append(spec)
    return misses


def test_symmetry_generators_are_the_greedy_picks(listed_symmetries):
    assert _generator_misses(symmetry_generators, listed_symmetries) == []


def test_symmetry_generators_generate_every_symmetry(listed_symmetries):
    for t, symmetries, _ in listed_symmetries:
        assert generated_subgroup(symmetry_generators(t), t.rank) == set(symmetries), t


@pytest.mark.parametrize("n", [9, 50])
def test_star_symmetries_are_n_minus_1_sound_transpositions(n):
    gens = stabilizer_generators(trivial_tree(n))
    assert len(gens.symmetries) == n - 1
    assert all(ok for _, ok in stabilizer_soundness(gens))
    moved = [[l for l in range(1, n + 1) if p[l - 1] != l] for p in gens.symmetries]
    assert all(len(pair) == 2 for pair in moved)
    # n - 1 transpositions generate the symmetric group when their pairs
    # connect 1..n, which is when they form a tree
    tree_from_units(n, moved)


@pytest.mark.parametrize(
    "old, new",
    [
        ("theirs = min(group[i + 1 :], key=lambda other: other[at])", "theirs = group[i + 1]"),
        ("centre = peeled[-1]", "centre = -1"),
    ],
    ids=["next_sibling_only", "rooted_at_unit_0"],
)
def test_a_wrong_symmetry_pass_is_caught(listed_symmetries, old, new):
    namespace = source_mutant([complexes._centre_walk, complexes.symmetry_generators], old, new)
    assert _generator_misses(namespace["symmetry_generators"], listed_symmetries)


def test_stabilizer_soundness_across_rank_4():
    for t in enumerate_whitehead_poset(4).elements:
        assert all(ok for _, ok in stabilizer_soundness(stabilizer_generators(t)))


def test_stabilizer_soundness_checks_the_generators_it_is_given():
    gens = stabilizer_generators(PATH3)
    # a[2,1] moves b2 but not b3, which share a component of PATH3 minus b1;
    # a[1,2] and s[1,2] move a label's factor; r[1] is no conjugation; the
    # products conjugate by two generators, or by a longer word
    for field, forged in (
        ("vertex_auts", "a[2,1]"),
        ("vertex_auts", "r[1]"),
        ("vertex_auts", "a[1,3] a[3,2]"),
        ("vertex_auts", "a[1,3] a[2,1]"),
        ("inversions", "a[1,2]"),
        ("inversions", "s[1,2]"),
    ):
        added = replace(gens, **{field: getattr(gens, field) + (parse_generator_word(forged, 3),)})
        flags = dict(stabilizer_soundness(added))
        assert list(flags.values()).count(False) == 1 and not flags[f"{field[:-1]} {forged}"]
    added = replace(gens, symmetries=gens.symmetries + ((1, 3, 2),))
    assert [ok for _, ok in stabilizer_soundness(added)].count(False) == 1
    # any powers at one vertex pass: here b2 leaves three components
    star = tree_from_units(4, [[1, 2], [2, 3], [2, 4]])
    gw = vertex_automorphism(star, 2, [2, -1])
    only = replace(gens, tree=star, vertex_auts=(gw,), inversions=(), symmetries=())
    assert stabilizer_soundness(only) == [("vertex_aut a[1,2] a[1,2] a[3,2]^-1", True)]


def test_stabilizer_soundness_builds_no_tree(monkeypatch):
    # symmetries are checked on the label sets: no relabelled tree is built
    star = tree_from_units(6, [[1, 2, 3], [3, 4, 5, 6]])
    gens = stabilizer_generators(star)
    added = replace(gens, symmetries=gens.symmetries + ((2, 1, 4, 3, 5, 6),))
    expected = [(name, not name.endswith("(2, 1, 4, 3, 5, 6)")) for name, _ in stabilizer_soundness(added)]

    def forbidden(*args):
        raise AssertionError("stabilizer_soundness built a tree")

    monkeypatch.setattr(LabelledBipartiteTree, "__post_init__", forbidden)
    monkeypatch.setattr(LabelledBipartiteTree, "_trusted", classmethod(forbidden))
    assert gens.symmetries and stabilizer_soundness(added) == expected


def test_soundness_refuses_powers_that_differ_across_a_unit():
    # a[l,v]^p on one label of unit - {v} but not on another: the check
    # reads each unit alone and must refuse it
    forged = 0
    for t in enumerate_whitehead_poset(4).elements:
        for v, unit in itertools.product(range(1, 5), t.units):
            rest = sorted(unit - {v})
            if len(rest) < 2:
                continue
            for p in (1, -2):
                gw = GeneratorWord(4, (("a", rest[0], v, p // abs(p)),) * abs(p))
                only = StabilizerGenerators(t, (gw,), (), ())
                assert stabilizer_soundness(only) == [(f"vertex_aut {gw}", False)]
                forged += 1
    assert forged > 100
    # seeded power maps, each label at its component's power half the
    # time: the unit-local check answers as the components do
    rng = random.Random(59)
    ctx = free_context(5)
    verdicts = set()
    for t in rng.sample(enumerate_whitehead_poset(5).elements, 100):
        v = rng.randint(1, 5)
        comps = components_without(t, v)
        powers = {}
        for comp in comps:
            p = rng.randint(-2, 2)
            powers.update({l: p if rng.random() < 0.5 else rng.randint(-1, 1) for l in comp})
        letters = tuple(
            ("a", l, v, 1 if p > 0 else -1) for l, p in sorted(powers.items()) for _ in range(abs(p))
        )
        want = all(len({powers[l] for l in comp}) == 1 for comp in comps)
        f = eval_generator_word(GeneratorWord(5, letters), ctx)
        assert complexes._is_vertex_automorphism(t, f) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def _swapped_indices(letters):
    return tuple(("a", j, i, e) for _, i, j, e in letters)


def _first_label_only(letters):
    return tuple(l for l in letters if l[1] == letters[0][1])


@pytest.mark.parametrize("mutate", [_swapped_indices, _first_label_only])
def test_stabilizer_soundness_catches_mutated_vertex_automorphisms(monkeypatch, mutate):
    import symlift.complexes as complexes_mod

    # every vertex automorphism's letters are written by this one helper
    build = complexes_mod._component_power_letters
    monkeypatch.setattr(
        complexes_mod,
        "_component_power_letters",
        lambda v, comps, powers: mutate(build(v, comps, powers)),
    )
    flags = [
        ok
        for t in enumerate_whitehead_poset(4).elements
        for _, ok in stabilizer_soundness(stabilizer_generators(t))
    ]
    assert not all(flags)


def test_acts_without_rotations_on_chains():
    # a symmetry preserving a chain (as a set) must fix each member: members
    # of a chain have distinct unlabelled counts, hence distinct types
    for n in (3, 4):
        poset = enumerate_whitehead_poset(n)
        pairs = [
            (i, j)
            for i in range(len(poset.elements))
            for j in range(len(poset.elements))
            if i != j and poset.leq[i][j]
        ]
        for i, j in pairs:
            a, b = poset.elements[i], poset.elements[j]
            for perm in tree_symmetries_reference(a):
                image_pair = {relabelled(a, perm).canonical(), relabelled(b, perm).canonical()}
                if image_pair == {a.canonical(), b.canonical()}:
                    assert relabelled(a, perm).canonical() == a.canonical()
                    assert relabelled(b, perm).canonical() == b.canonical()


# -- nuclear vertices ---------------------------------------------------------------


def test_nuclear_vertex_identifies_inner_translates():
    v = nuclear_vertex_from_basis(
        (parse_word("z3 z1 z3", H3), parse_word("z2", H3), parse_word("z3", H3)), H3
    )
    w = nuclear_vertex_from_basis(
        (parse_word("z1", H3), parse_word("z3 z2 z3", H3), parse_word("z3", H3)), H3
    )
    assert v == w


def _vertex_from_factors(*conjugators):
    """The F3 vertex of the basis c_i y_i c_i^-1."""
    basis = []
    for i, text in enumerate(conjugators, start=1):
        c = parse_word(text, F3)
        basis.append(c * parse_word(f"y{i}", F3) * c.inverse())
    return nuclear_vertex_from_basis(basis, F3)


def test_nuclear_vertex_free_conjugates_share_one_form():
    # y1^3 conjugates one factor set into the other; the least conjugator
    # lengths sit at y1^0 and y1^3, which single letters do not join
    v = _vertex_from_factors("e", "y1^-3 y2 y3 y2^-1 y1", "y2")
    w = _vertex_from_factors("e", "y2 y3 y2^-1 y1", "y1^3 y2")
    assert v == w
    # a factor set whose conjugator length is flat along the ray y1^k
    u = _vertex_from_factors(
        "e",
        "y1^4 y3^-1 y1^-2 y3",
        "y1^3 y3^-1 y1^-2 y3 y2 y3^-1 y1^2 y3 y1^-2 y3^-1 y1^-2 y3 y2^-1 y3^-1 y1^2 y3 y1^-1",
    )
    assert u == _vertex_from_factors(*(format_word(c) for c, _ in u.factors))


def _reference_canonicalize(factors, ctx):
    """The search as first written: started from all n + 1 seeds (e and
    each conjugator), with every seed and every neighbour costed before it
    is pushed, and only those no dearer than the best kept."""

    def cost(x):
        return sum(len(w) for w, _ in _conjugated(x.inverse(), factors))

    e = identity(ctx)
    factors = _conjugated(e, factors)
    seeds = [e] + [conj for conj, _ in factors]
    best = min(cost(s) for s in seeds)
    visited = set()
    frontier = [s for s in seeds if cost(s) <= best]
    minimizers = []
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
                if y.syllables not in visited and cost(y) <= best:
                    frontier.append(y)
    candidates = [sorted(moved, key=lambda f: (f[1], f[0].sort_key())) for moved in minimizers]
    return tuple(min(candidates, key=lambda tt: [(t, w.sort_key()) for w, t in tt]))


def test_canonical_factors_match_the_reference_search():
    # seeded random conjugators, and the images of seeded automorphisms; the
    # seeds of the reference check that a search from e alone loses no minimizer
    contexts = (
        F3, free_context(4), H3, torsion_context(4, 2), torsion_context(3, 3), torsion_context(4, 5)
    )
    for ctx in contexts:
        n = ctx.rank
        rng = random.Random(f"factors:{ctx.describe()}")
        letters = acting_letters(ctx)
        for _ in range(120):
            if rng.random() < 0.5:
                factors = []
                for t in rng.sample(range(1, n + 1), n):
                    length = rng.randint(0, 6)
                    raw = [(rng.randint(1, n), rng.choice((-2, -1, 1, 2))) for _ in range(length)]
                    factors.append((normalize(raw, ctx), t))
            else:
                gw = GeneratorWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, 10))))
                factors = [(c, t) for c, t, _ in eval_generator_word(gw, ctx).images]
            assert _canonicalize_factors(factors, ctx) == _reference_canonicalize(factors, ctx)


def test_nuclear_vertex_inversion_translate_is_fixed():
    v0 = NuclearVertex.standard(F3)
    r1 = eval_generator_word(rho_i(3, 1), F3)
    assert NuclearVertex.from_aut(r1) == v0


def test_nuclear_ball_counts():
    assert nuclear_ball(H3, 0).counts() == [1]
    ball = nuclear_ball(H3, 1)
    assert ball.counts() == [1, 3]
    # each distance-1 vertex is the translate by a single conjugation move
    moves = [
        NuclearVertex.from_aut(eval_generator_word(parse_generator_word(f"a[{i},{j}]", 3), H3))
        .encode()
        for i, j in itertools.permutations((1, 2, 3), 2)
    ]
    assert set(ball.levels[1]) <= set(moves)


def test_nuclear_ball_canonicalizes_each_distinct_image_list_once(monkeypatch):
    act = complexes.act_letters
    canonicalize = complexes._canonicalize_factors
    stepped = []  # every (conjugator, target) list a move steps to
    calls = []

    def recorded_act(images, letters, ctx):
        act(images, letters, ctx)
        stepped.append(tuple((conj.syllables, target) for conj, target, _ in images))

    def counted(factors, ctx):
        calls.append(tuple((conj.syllables, target) for conj, target in factors))
        return canonicalize(factors, ctx)

    monkeypatch.setattr(complexes, "act_letters", recorded_act)
    monkeypatch.setattr(complexes, "_canonicalize_factors", counted)
    for ctx, bound in ((torsion_context(4, 2), None), (free_context(3), 1)):
        stepped.clear()
        calls.clear()
        nuclear_ball(ctx, 2, bound)
        # once per distinct list, and fewer times than the moves stepped
        assert sorted(calls) == sorted(set(stepped))
        assert len(calls) < len(stepped)


def test_from_aut_reads_the_images_like_the_image_word_round_trip():
    # reference: rebuild each image word and decompose it again
    for ctx in (F3, H3, torsion_context(3, 3), torsion_context(4, 2)):
        rng = random.Random(ctx.rank * 10 + (ctx.torsion or 0))
        letters = acting_letters(ctx)
        for _ in range(60):
            length = rng.randint(0, 12)
            gw = GeneratorWord(ctx.rank, tuple(rng.choice(letters) for _ in range(length)))
            f = eval_generator_word(gw, ctx)
            assert NuclearVertex.from_aut(f) == nuclear_vertex_from_basis(image_words(f), ctx)


def test_ball_moves_are_letter_words_of_the_composed_vertex_automorphisms():
    # reference: compose the evaluated vertex automorphisms one by one
    for ctx, powers in ((F3, range(-1, 2)), (torsion_context(4, 2), range(2)),
                        (torsion_context(4, 3), range(3))):
        for t in enumerate_whitehead_poset(ctx.rank).elements:
            for letters, tag in _tree_vertex_aut_group(moving_components(t), powers):
                expected = eval_generator_word(GeneratorWord(ctx.rank), ctx)
                for v, combo in re.findall(r"v(\d+):\(([^)]*)\)", tag):
                    combo = [int(p) for p in combo.split(",") if p.strip()]
                    gw = vertex_automorphism(t, int(v), combo)
                    expected = compose(expected, eval_generator_word(gw, ctx))
                f = eval_generator_word(GeneratorWord(ctx.rank, letters), ctx)
                assert f == expected
                # only the empty word is the identity, so the ball lists
                # exactly the non-identity moves
                assert is_identity(f) == (not letters) == (tag == "id")


def test_nuclear_ball_work_budget(monkeypatch):
    import symlift.complexes as complexes_mod

    # refused before a move is listed: 11 exponents on up to 3 components
    with pytest.raises(WordError, match="list 184,600 moves, over the limit of 150,000"):
        nuclear_ball(free_context(5), 1, bound=5)
    # H:5:2 lists 1,360 moves and reaches 215 vertices at distance 1
    with pytest.raises(WordError, match="293,760 moves by distance 2"):
        nuclear_ball(torsion_context(5, 2), 2)
    H42 = torsion_context(4, 2)
    monkeypatch.setattr(complexes_mod, "MAX_BALL_WORK", 59)
    with pytest.raises(WordError, match="list 60 moves"):
        nuclear_ball(H42, 1)
    # H:4:2 lists 60 moves and applies 60 + 60 * 24 = 1,500 by radius 2
    monkeypatch.setattr(complexes_mod, "MAX_BALL_WORK", 1_499)
    with pytest.raises(WordError, match="1,500 moves by distance 2"):
        nuclear_ball(H42, 2)
    monkeypatch.setattr(complexes_mod, "MAX_BALL_WORK", 1_500)
    assert nuclear_ball(H42, 2).counts() == [1, 24, 312]
    # a level with nothing to apply still counts one, so the radius is bounded
    monkeypatch.setattr(complexes_mod, "MAX_BALL_WORK", 10)
    assert nuclear_ball(torsion_context(2, 2), 10).counts() == [1] + [0] * 10
    with pytest.raises(WordError, match="by distance 11"):
        nuclear_ball(torsion_context(2, 2), 11)


def test_nuclear_ball_at_radius_0_lists_no_moves(monkeypatch):
    import symlift.complexes as complexes_mod

    # radius 0 applies no move, so no move count can refuse it
    monkeypatch.setattr(complexes_mod, "MAX_BALL_WORK", 5)
    for ctx, bound in ((torsion_context(4, 2), None), (free_context(5), 5)):
        ball = nuclear_ball(ctx, 0, bound)
        assert ball.levels == ((NuclearVertex.standard(ctx).encode(),),)
        with pytest.raises(WordError, match="moves, over the limit of 5$"):
            nuclear_ball(ctx, 1, bound)


def test_nuclear_ball_at_radius_0_reads_no_poset(monkeypatch):
    import symlift.complexes as complexes_mod

    def no_poset(n):
        raise AssertionError("the ball enumerated a poset at radius 0")

    monkeypatch.setattr(complexes_mod, "enumerate_whitehead_poset", no_poset)
    for n in range(2, 7):
        for ctx, bound in ((torsion_context(n, 2), None), (free_context(n), 1)):
            ball = nuclear_ball(ctx, 0, bound)
            assert ball.levels == ((NuclearVertex.standard(ctx).encode(),),)
    # the poset's refusals hold at radius 0 all the same
    for n, message in ((1, "rank >= 2"), (7, "rank <= 6, not 7")):
        with pytest.raises(WordError, match=message):
            nuclear_ball(free_context(n), 0, 1)


def test_nuclear_ball_free_context_flagged():
    ball = nuclear_ball(F3, 1, bound=1)
    assert ball.bound_limited and ball.bound == 1
    assert ball.counts() == [1, 6]
    with pytest.raises(WordError):
        nuclear_ball(F3, 1)  # bound mandatory over the free group
    with pytest.raises(WordError, match=">= 0"):
        nuclear_ball(F3, 1, bound=-1)
    with pytest.raises(WordError, match="no exponent bound"):
        nuclear_ball(H3, 1, bound=5)  # torsion contexts are exact


# -- quotient map -------------------------------------------------------------------


def test_quotient_translates():
    v0 = NuclearVertex.standard(F3)
    q0 = v0.project()
    gk = eval_generator_word(parse_generator_word("a[2,3] r[1] a[2,3]^-1", 3), F3)
    assert NuclearVertex.from_aut(gk).project() == q0
    ga = eval_generator_word(parse_generator_word("a[1,2]", 3), F3)
    assert NuclearVertex.from_aut(ga).project() != q0


def test_quotient_star_check_passes():
    for n in (3, 4):
        report = quotient_star_check(n, random.Random(31 + n), samples=15)
        assert report.all_pass, report.to_json()


def test_quotient_star_check_reads_no_poset(monkeypatch):
    import symlift.complexes as complexes_mod

    def no_poset(n):
        raise AssertionError("the quotient check enumerated a poset")

    monkeypatch.setattr(complexes_mod, "enumerate_whitehead_poset", no_poset)
    for n in range(3, 8):
        report = quotient_star_check(n, random.Random(n), samples=4)
        assert report.all_pass and "star_sizes" not in report.to_json(), report.to_json()


def test_quotient_star_check_builds_no_letter_table_at_rank_1000():
    # the pure letters are drawn by index: a table of all 1,998,000 of them
    # alone peaks at about 250 MB
    tracemalloc.start()
    try:
        report = quotient_star_check(1000, random.Random(1729), samples=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass, report.to_json()
    assert peak < 20_000_000, peak


def test_quotient_star_check_refuses_rank_2_before_any_work():
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(WordError, match="rank >= 3"):
        quotient_star_check(2, rng, samples=200)
    assert rng.getstate() == state

