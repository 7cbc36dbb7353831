"""Inputs are made from the seed inside fixed strata: two seeds give
different words with the same size profile, and both pass every oracle."""

import collections

import pytest

import workloads as wl


def _kernel_strata(inputs):
    return collections.Counter(
        (kind if kind != "cli" else "verdict", gw.rank, len(gw) if kind != "certify" else None)
        for kind, gw in inputs
    )


def _long_strata(inputs):
    return collections.Counter((wrapped, gw.rank, len(gw)) for wrapped, gw in inputs)


@pytest.mark.parametrize(
    "name, strata",
    [("kernel_batch", _kernel_strata), ("long_images", _long_strata)],
)
def test_seeds_change_words_but_not_strata(lib, name, strata):
    make = wl.WORKLOADS[name].make_inputs
    a, b = make(lib, 1), make(lib, 2)
    assert make(lib, 1) == a
    assert a != b
    assert strata(a) == strata(b)


def test_kernel_batch_profile(lib):
    inputs = wl.WORKLOADS["kernel_batch"].make_inputs(lib, 7)
    kinds = collections.Counter(kind for kind, _ in inputs)
    verdicts = kinds["verdict"] + kinds["cli"]
    assert verdicts == len(wl.KERNEL_RANKS) * (wl.KERNEL_MAX_LENGTH + 1) * wl.KERNEL_WORDS_PER_LENGTH
    assert kinds["cli"] == verdicts // wl.KERNEL_CLI_EVERY
    assert len(inputs) >= 100


def test_long_images_sizes_do_not_depend_on_the_seed(lib):
    """Image sizes of each stratum are the same for every seed."""
    ctx = {n: lib.words.torsion_context(n, 2) for n in wl.LONG_RANKS}

    def sizes(seed):
        out = collections.Counter()
        for wrapped, gw in wl.WORKLOADS["long_images"].make_inputs(lib, seed):
            if not wrapped and len(gw) <= 4 * gw.rank:
                images = lib.symaut.eval_generator_word(gw, ctx[gw.rank]).images
                out[gw.rank, len(gw), sum(len(c) for c, _, _ in images)] += 1
        return out

    assert sizes(1) == sizes(2)


@pytest.mark.parametrize("name", ["kernel_batch", "long_images"])
def test_held_out_seed_passes_every_oracle(lib, name):
    workload = wl.WORKLOADS[name]
    inputs = workload.make_inputs(lib, 987654)
    small = [op for op in inputs if len(op[1]) <= 24][:150]
    ops = workload.run_pass(lib, small)
    assert [op.problems for op in ops if op.problems] == []
