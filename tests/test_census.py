"""A reachability census of ``src/symlift``: every function that ``ast``
finds there is called by a command of ``CORPUS``, or is listed in
``UNREACHED`` with its reason.

The corpus runs through ``cli.main`` in a child interpreter under
``sys.setprofile``, which records the file and first line of every code
object that starts.  A child, because ``tests/conftest.py`` wraps the fast
paths in this process, and their references call library functions
(``normalize``, ``cyclic_reduce``, ``coset_intersection``) on inputs that
no command hands them.  A function's code starts at its first decorator's
line, or at its ``def`` line when it has none.

The test fails on an unreached function that is not listed, on a listed
function that the corpus reaches and on a listed name that no longer
exists, so the list can only shrink.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import symlift

SRC = Path(symlift.__file__).resolve().parent

RHO3 = "r[1] r[2] r[3]"
# a kernel element at rank 5 that does not parse as it stands, so certify
# searches the relator levels
RELATOR_LEVELS = " ".join(["a[2,1] a[1,2] a[2,1]^-1 a[2,3] a[1,3]"] * 2)
# conjugation by y1, y2, y1 in turn (a[2,1] a[3,1] conjugates by y1):
# outer-trivial, but no level of the relator search parses it
OUTER_TRIVIAL = "a[2,1] a[3,1] a[1,2] a[3,2] a[2,1] a[3,1]"
CERT = {"certificate": {"conjugators": ["a[1,2]", "e"], "rank": 3}}

# (argv, exit code); "{cert}" stands for the path of a file holding CERT
CORPUS = (
    # the README examples
    (("lift", "kernel", "--n", "3", "--route", "both", "--word", RHO3), 0),
    (("lift", "eval", "--n", "3", "--word", "a[1,2]"), 0),
    (("symaut", "relations", "--n", "4"), 0),
    (("symaut", "nf", "--n", "3", "--word", "r[2] a[1,2]"), 0),
    (("kernel", "certify", "--n", "3", "--word", "a[1,2] a[1,2]"), 0),
    (("kernel", "verify", "--cert", "{cert}", "--word", "a[1,2] a[1,2]"), 0),
    (("complex", "poset", "--n", "4", "--format", "dot"), 0),
    (("complex", "homology", "--n", "5"), 0),
    (("complex", "ball", "--ctx", "H:3:2", "--radius", "1"), 0),
    (("complex", "ball", "--ctx", "F:3", "--radius", "1", "--bound", "1"), 0),
    (("braid", "search", "--n", "3", "--k", "2", "--max-len", "6"), 0),
    (("selftest", "--level", "quick"), 0),
    (("complex", "poset", "--n", "5"), 0),
    (("braid", "search", "--n", "4", "--k", "3", "--max-len", "5"), 0),
    # every other subcommand once
    (("words", "normalize", "--ctx", "H:3:2", "--word", "z1 z1 z2"), 0),
    (("words", "inner", "--ctx", "F:3", "--images", "y2 y1 y2^-1;y2;y2 y3 y2^-1"), 0),
    (("words", "project", "--n", "3", "--k", "2", "--word", "y1^3 y2^-2 y3"), 0),
    (("words", "even-to-x", "--n", "3", "--word", "z1 z2 z3 z1"), 0),
    (("symaut", "eval", "--ctx", "H:3:2", "--word", "a[1,2] s[2,3] r[1]"), 0),
    (("symaut", "outer-equal", "--n", "3", "--left", "a[1,2] a[3,2]", "--right", "e"), 0),
    (("complex", "stabilizer", "--n", "6", "--tree", "1,2;2,3,6;3,5;4,6"), 0),
    (("complex", "quotient-check", "--n", "3", "--samples", "5"), 0),
    (("complex", "tree", "--n", "5", "--tree", "1,2;2,3;3,4,5"), 0),
    (("braid", "act", "--n", "3", "--word", "1 2 -1"), 0),
    (("braid", "eta", "--n", "3", "--k", "3", "--word", "1 2 -1"), 0),
    # the other output format and route
    (("complex", "ball", "--ctx", "H:3:2", "--radius", "1", "--format", "dot"), 0),
    (("complex", "tree", "--n", "4", "--format", "dot"), 0),
    (("lift", "kernel", "--n", "2", "--route", "lift", "--word", "a[1,2] a[2,1]"), 0),
    # certify: a parsed product, a word outside the kernel, a kernel
    # element that takes the relator levels and stays unproven, and one
    # whose outer-trivial pure part gets the rho-parity alone
    (("kernel", "certify", "--n", "1", "--word", "r[1]"), 0),
    (("kernel", "certify", "--n", "4", "--word", "a[1,2] a[2,3]"), 1),
    (("kernel", "certify", "--n", "5", "--word", RELATOR_LEVELS), 3),
    (("kernel", "certify", "--n", "3", "--word", OUTER_TRIVIAL + " " + RHO3), 0),
    # cores of several syllables, one of them a proper power
    (("words", "conjugacy", "--ctx", "F:3", "--u", "y1 y2 y1 y2", "--v", "y2 y1 y2 y1"), 0),
    (("words", "conjugacy", "--ctx", "F:3", "--u", "y1 y2 y3", "--v", "y3 y2 y1"), 1),
    # refusals
    (("symaut", "eval", "--n", "3", "--word", "a[1]"), 2),
    (("lift", "kernel", "--n", "3", "--route", "bogus", "--word", "e"), 2),
    (("words", "even-to-x", "--n", "3", "--word", "z1"), 2),
)

# qualified name: why no command reaches it
_TRACER = "perfbench/tracing.py wraps it by name, so it stays until the tracer retires"
UNREACHED = {
    "symaut.compose": _TRACER,
    "symaut.SymmetricAut.apply": _TRACER,
    "words.Word.pow": _TRACER,
    "lift.reduce_mod": _TRACER,
    "lift.Restriction.inner_witness": _TRACER,
    "complexes.all_folds": _TRACER,
    "complexes._dense_smith": (
        "the exact Smith fallback that finds torsion; Whitehead posets have none, "
        "the tests' RP^2 reaches it"
    ),
}

_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
src, corpus = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
from symlift import cli
reached, codes = set(), []
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        reached.add((code.co_filename, code.co_firstlineno))
sys.setprofile(profile)
for argv in corpus:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"reached": sorted(reached), "codes": codes}))
"""


def defined_functions() -> dict[str, tuple[str, int]]:
    """Every function ``ast`` finds in ``src/symlift``, nested ones included,
    by qualified name, keyed by ``(file, first line of its code)``."""
    found: dict[str, tuple[str, int]] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if name in found:
                    raise AssertionError(f"{name} is defined twice")
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[name] = (str(path), first)
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    cert = tmp_path_factory.mktemp("census") / "cert.json"
    cert.write_text(json.dumps(CERT))
    corpus = [[arg.replace("{cert}", str(cert)) for arg in argv] for argv, _ in CORPUS]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC.parent), json.dumps(corpus)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    reached = {(str(Path(file).resolve()), line) for file, line in result["reached"]}
    functions = defined_functions()
    return {
        "codes": result["codes"],
        "reached": {name for name, key in functions.items() if key in reached},
        "defined": set(functions),
    }


def test_every_corpus_command_exits_as_expected(census):
    assert census["codes"] == [code for _, code in CORPUS]


def test_every_unlisted_function_is_reached(census):
    assert sorted(census["defined"] - census["reached"] - set(UNREACHED)) == []


def test_no_listed_function_is_reached(census):
    assert sorted(census["reached"] & set(UNREACHED)) == []


def test_every_listed_name_exists(census):
    assert sorted(set(UNREACHED) - census["defined"]) == []
