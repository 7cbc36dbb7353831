"""The tracer patches every namespace, derives self time from spans, and
reports exactly the per-layer metrics that BENCHMARK.json lists."""

import json
from array import array
from pathlib import Path

import run
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def test_per_layer_and_end_to_end_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_install_patches_every_binding_and_uninstall_restores(lib):
    original = lib.words.cyclic_reduce
    assert lib.symaut.cyclic_reduce is original
    mul = lib.words.Word.__mul__
    with tracing.Tracer(lib) as tracer:
        assert lib.words.cyclic_reduce is lib.symaut.cyclic_reduce is not original
        assert lib.lift.inner_witness is lib.words.inner_witness
        assert lib.words.Word.__mul__ is not mul
        assert hasattr(lib.complexes.enumerate_whitehead_poset, "cache_clear")
        assert lib.complexes.compose is lib.symaut.compose
    assert lib.words.cyclic_reduce is original and lib.symaut.cyclic_reduce is original
    assert lib.words.Word.__mul__ is mul
    assert len(tracer.start) == 0


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer(lib=None)
    tracer.start = array("d", [0.0, 1.0, 2.0, 2.5])
    tracer.end = array("d", [10.0, 4.0, 3.0, 5.0])
    tracer.parent = array("i", [-1, 0, 1, 0])
    assert tracer.self_times() == [10.0 - 3.0 - 2.5, 3.0 - 1.0, 1.0, 2.5]


def _traced_metrics(lib, inputs):
    with tracing.Tracer(lib) as tracer:
        ops = wl.WORKLOADS["kernel_batch"].run_pass(lib, inputs)
    assert all(not op.problems for op in ops)
    return tracer.layer_metrics()


def test_counts_repeat_exactly_and_parents_are_recorded(lib):
    inputs = wl.WORKLOADS["kernel_batch"].make_inputs(lib, 3)
    inputs = inputs[:40] + [op for op in inputs if op[0] == "certify"][:20]
    first = _traced_metrics(lib, inputs)
    second = _traced_metrics(lib, inputs)
    counts = [name for name, unit, _ in tracing.PER_LAYER if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["symaut.eval_generator_word.calls"] > 0
    assert first["words.Word.mul.syllables_in"] > first["words.Word.mul.calls"]
    assert first["kernel.certify.calls"] > 0
    assert 0 < first["kernel.certify.parse_success_ratio"] <= 1
    assert first["symaut.compose.peak_conjugator_syllables"] > 0
    assert set(first) == {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}


def test_braid_counters_come_from_the_search_span(lib):
    with tracing.Tracer(lib) as tracer:
        report = lib.braid.bounded_kernel_search(3, 2, 3)
    metrics = tracer.layer_metrics()
    assert metrics["braid.bounded_kernel_search.words_checked"] == report.words_checked == wl.expected_braid_words(3, 3)
    assert metrics["braid.bounded_kernel_search.trivial_skipped"] == report.trivial_braids_skipped
    # one step evaluation per word checked, plus the identity
    assert metrics["braid.bounded_kernel_search.step_evals"] == report.words_checked + 1


def test_written_spans_round_trip(tmp_path, lib):
    with tracing.Tracer(lib) as tracer:
        lib.words.cyclic_reduce(lib.words.parse_word("y1 y2 y1^-1", lib.words.free_context(2)))
    path = tmp_path / "spans.bin"
    tracer.write(path)
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for name, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(handle, header["spans"])
            columns[name] = column
    assert header["spans"] == len(tracer.start) > 0
    assert [header["names"][i] for i in columns["name"]][0] == "words.cyclic_reduce"
    assert list(columns["end"]) == list(tracer.end)
