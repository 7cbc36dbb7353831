"""Spans around the symlift layers, installed from outside the library.

``Tracer.install`` wraps each function in ``TARGETS``.  A plain function is
replaced in every ``symlift`` module that binds it (``cyclic_reduce`` lives
in both ``words`` and ``symaut``); a method is replaced on its class.  Every
call records one span: name, start, end, parent span and up to two work
counts.  Spans are kept in flat arrays in memory and written out once, when
the run ends.  Self time and the per-layer counters are derived from them.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import wraps
from pathlib import Path
from time import perf_counter

_MODULE_PREFIX = "symlift"


def _syllables_in(args, result):
    return sum(len(a) for a in args), 0


def _first_arg_len(args, result):
    return len(args[0]), 0


def _letters(args, result):
    return len(args[0].letters), 0


def _peak_conjugator(args, result):
    return max(len(conj) for conj, _, _ in result.images), 0


def _found(args, result):
    return int(result is not None), 0


def _poset_elements(args, result):
    return len(result.elements), 0


def _length(args, result):
    return len(result), 0


def _simplices(args, result):
    return sum(result.simplex_counts), 0


def _search_counts(args, result):
    return result.words_checked, result.trivial_braids_skipped


# (module, attribute path, work counter); the span name is
# "<module>.<path>", with Word.__mul__ shown as Word.mul
TARGETS = (
    ("words", "Word.__mul__", _syllables_in),
    ("words", "Word.pow", None),
    ("words", "cyclic_reduce", _first_arg_len),
    ("words", "inner_witness", None),
    ("words", "coset_intersection", None),
    ("symaut", "eval_generator_word", _letters),
    ("symaut", "compose", _peak_conjugator),
    ("symaut", "SymmetricAut.apply", None),
    ("symaut", "conjugating_witness", None),
    ("symaut", "semidirect_normal_form", None),
    ("lift", "kernel_verdict", None),
    ("lift", "lift_restrict", None),
    ("lift", "reduce_mod", None),
    ("lift", "Restriction.inner_witness", None),
    ("kernel", "certify", _found),
    ("kernel", "parse_semipalindrome_product", _found),
    ("kernel", "verify_certificate", None),
    ("complexes", "enumerate_whitehead_poset", _poset_elements),
    ("complexes", "WhiteheadPoset.covers", _length),
    ("complexes", "order_complex_homology", _simplices),
    ("complexes", "LabelledBipartiteTree.canonical", None),
    ("complexes", "all_folds", None),
    ("braid", "bounded_kernel_search", _search_counts),
    ("cli", "main", None),
)


# (name, unit, better): the per-layer metrics of a traced run, in the order
# of BENCHMARK.json.  Times are self times summed over one traced pass; the
# counts are exact and repeat from run to run.
PER_LAYER = (
    ("words.Word.mul.calls", "count", "lower"),
    ("words.Word.mul.self_s", "s", "lower"),
    ("words.Word.mul.syllables_in", "count", "lower"),
    ("words.cyclic_reduce.calls", "count", "lower"),
    ("words.cyclic_reduce.self_s", "s", "lower"),
    ("words.cyclic_reduce.syllables_in", "count", "lower"),
    ("words.Word.pow.self_s", "s", "lower"),
    ("words.inner_witness.self_s", "s", "lower"),
    ("words.coset_intersection.self_s", "s", "lower"),
    ("symaut.eval_generator_word.calls", "count", "lower"),
    ("symaut.eval_generator_word.letters", "count", "lower"),
    ("symaut.eval_generator_word.self_s", "s", "lower"),
    ("symaut.compose.calls", "count", "lower"),
    ("symaut.compose.self_s", "s", "lower"),
    ("symaut.compose.peak_conjugator_syllables", "count", "lower"),
    ("symaut.SymmetricAut.apply.calls", "count", "lower"),
    ("symaut.SymmetricAut.apply.self_s", "s", "lower"),
    ("symaut.conjugating_witness.self_s", "s", "lower"),
    ("symaut.semidirect_normal_form.self_s", "s", "lower"),
    ("lift.kernel_verdict.self_s", "s", "lower"),
    ("lift.lift_restrict.self_s", "s", "lower"),
    ("lift.reduce_mod.self_s", "s", "lower"),
    ("lift.Restriction.inner_witness.self_s", "s", "lower"),
    ("kernel.certify.calls", "count", "lower"),
    ("kernel.certify.self_s", "s", "lower"),
    ("kernel.certify.parse_success_ratio", "ratio", "higher"),
    ("kernel.parse_semipalindrome_product.calls", "count", "lower"),
    ("kernel.verify_certificate.self_s", "s", "lower"),
    ("kernel.verify_certificate.eval_fallbacks", "count", "lower"),
    ("complexes.enumerate_whitehead_poset.self_s", "s", "lower"),
    ("complexes.enumerate_whitehead_poset.elements", "count", "higher"),
    ("complexes.WhiteheadPoset.covers.self_s", "s", "lower"),
    ("complexes.WhiteheadPoset.covers.count", "count", "higher"),
    ("complexes.order_complex_homology.self_s", "s", "lower"),
    ("complexes.order_complex_homology.simplices", "count", "higher"),
    ("complexes.LabelledBipartiteTree.canonical.calls", "count", "lower"),
    ("complexes.all_folds.calls", "count", "lower"),
    ("braid.bounded_kernel_search.self_s", "s", "lower"),
    ("braid.bounded_kernel_search.words_checked", "count", "higher"),
    ("braid.bounded_kernel_search.trivial_skipped", "count", "higher"),
    ("braid.bounded_kernel_search.step_evals", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__mul__', 'mul')}"


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.work_a = array("q")
        self.work_b = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        name_id = len(self.names)
        self.names.append(name)
        stack, start, end = self._stack, self.start, self.end
        names, parent, work_a, work_b = self.name, self.parent, self.work_a, self.work_b

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            start.append(0.0)
            end.append(0.0)
            work_a.append(0)
            work_b.append(0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if work is not None:
                work_a[index], work_b[index] = work(args, result)
            return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == _MODULE_PREFIX or key.startswith(_MODULE_PREFIX + ".")
        ]
        for module_name, path, work in TARGETS:
            owner = getattr(self.lib, module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            traced = self._wrap(span_name(module_name, path), original, work)
            if classes:
                self._set(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[index] - self.start[index]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """The counters of ``PER_LAYER`` (without the tracing overhead)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        work_a: dict[str, int] = {}
        work_b: dict[str, int] = {}
        peak: dict[str, int] = {}
        children: dict[tuple[str, str], int] = {}
        names = [self.names[i] for i in self.name]
        for index, (name, own) in enumerate(zip(names, self.self_times())):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            work_a[name] = work_a.get(name, 0) + self.work_a[index]
            work_b[name] = work_b.get(name, 0) + self.work_b[index]
            peak[name] = max(peak.get(name, 0), self.work_a[index])
            p = self.parent[index]
            if p >= 0:
                children[names[p], name] = children.get((names[p], name), 0) + 1
        found = {}
        for module_name, path, _ in TARGETS:
            name = span_name(module_name, path)
            found[f"{name}.calls"] = calls.get(name, 0)
            found[f"{name}.self_s"] = self_s.get(name, 0.0)
        parses = calls.get("kernel.parse_semipalindrome_product", 0)
        search = "braid.bounded_kernel_search"
        found.update(
            {
                "words.Word.mul.syllables_in": work_a.get("words.Word.mul", 0),
                "words.cyclic_reduce.syllables_in": work_a.get("words.cyclic_reduce", 0),
                "symaut.eval_generator_word.letters": work_a.get("symaut.eval_generator_word", 0),
                "symaut.compose.peak_conjugator_syllables": peak.get("symaut.compose", 0),
                "kernel.certify.parse_success_ratio": (
                    work_a.get("kernel.certify", 0) / parses if parses else 0.0
                ),
                "kernel.verify_certificate.eval_fallbacks": children.get(
                    ("kernel.verify_certificate", "symaut.eval_generator_word"), 0
                ),
                "complexes.enumerate_whitehead_poset.elements": work_a.get(
                    "complexes.enumerate_whitehead_poset", 0
                ),
                "complexes.WhiteheadPoset.covers.count": work_a.get("complexes.WhiteheadPoset.covers", 0),
                "complexes.order_complex_homology.simplices": work_a.get(
                    "complexes.order_complex_homology", 0
                ),
                f"{search}.words_checked": work_a.get(search, 0),
                f"{search}.trivial_skipped": work_b.get(search, 0),
                f"{search}.step_evals": children.get((search, "symaut.eval_generator_word"), 0),
                "trace.spans": len(names),
            }
        )
        return {name: found[name] for name, _, _ in PER_LAYER if name in found}

    def write(self, path: Path) -> None:
        """One JSON header line, then the raw columns in header order."""
        columns = ("name", "parent", "start", "end", "work_a", "work_b")
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(handle)
