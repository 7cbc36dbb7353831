"""Fuzzing ``cli.main`` over structured argument lists.

Every subcommand is drawn with small ranks, and its arguments mix valid
values with malformed tokens, numbers out of range and unknown flags.
Whatever the input, ``main`` must return one of the documented exit codes
and print one JSON object (DOT text for a successful ``--format dot``),
and no exception may escape it.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from symlift.cli import main

JUNK = ["x", "", "-", "-1", "0", "2.5", "1e3", "[", "--", "0x1"]
# valid values are listed more often than malformed ones, so most draws
# get past the parser and reach the library
number = st.one_of(
    st.integers(1, 4).map(str), st.integers(2, 4).map(str), st.sampled_from(JUNK)
)
not_a_number = st.sampled_from(["x", "", "2.5", "1e3", "0x1"])
VALID_LETTERS = [
    "a[1,2]", "a[2,1]^-1", "a[1,3]", "a[3,2]", "r[1]", "r[2]", "s[1,2]", "s[2,3]", "e"
]
BAD_LETTERS = [
    "a[1,1]", "a[0,2]", "a[9,1]", "r[1]^-1", "s[1]", "q[1]", "a[1,2]^2", "[", "a[1,"
]
letters = st.sampled_from(VALID_LETTERS * 4 + BAD_LETTERS)
syllables = st.sampled_from(
    ["y1", "y2^-1", "y3^2", "z1", "z2", "z3^3", "x1", "e"] * 3 + ["y0", "y1^", "w1", "1"]
)
contexts = st.sampled_from(
    ["F:2", "F:3", "H:2:2", "H:3:2", "H:3:3"] * 3
    + ["F:1", "F:0", "H:3:1", "Q:3", "F:x", "H:3", ""]
)
trees = st.sampled_from(
    ["1,2;2,3", "1,2,3", "1,3;3,2;2,4", "1,2;;2,3", "1,1", "a", "1,2;2,3;3,1"]
)
certificates = st.sampled_from(
    [
        '{"rank": 3, "conjugators": []}',
        '{"rank": 3, "conjugators": ["e", "a[1,2]"]}',
        '{"certificate": {"rank": 2, "conjugators": ["a[2,1]"]}}',
        '{"rank": 0, "conjugators": []}',
        '{"rank": 3, "conjugators": [["e"]]}',
        '{"rank": 3}',
        "[1, 2]",
        "not json",
        "",
    ]
)


def words(tokens):
    return st.lists(tokens, max_size=5).map(" ".join)


def command(*parts):
    """An argv built from fixed strings and strategies, in order."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


images = words(syllables).map(lambda w: w.replace(" ", ";"))
braid_words = words(st.sampled_from(["1", "-1", "2", "-2", "3", "0", "x"]))
radii = st.sampled_from(["-1", "0", "1", "2", "x"])
formats = st.sampled_from(["json", "dot", "svg"])

COMMANDS = st.one_of(
    command("words", "normalize", "--ctx", contexts, "--word", words(syllables)),
    command("words", "conjugacy", "--ctx", contexts, "--u", words(syllables),
            "--v", words(syllables)),
    command("words", "inner", "--ctx", contexts, "--images", images),
    command("words", "project", "--n", number, "--k", number, "--word", words(syllables)),
    command("words", "even-to-x", "--n", number, "--word", words(syllables)),
    command("symaut", "eval", "--n", number, "--word", words(letters)),
    command("symaut", "eval", "--ctx", contexts, "--word", words(letters)),
    command("symaut", "relations", "--n", number),
    command("symaut", "nf", "--n", number, "--word", words(letters)),
    command("symaut", "outer-equal", "--ctx", contexts, "--left", words(letters),
            "--right", words(letters)),
    command("lift", "eval", "--n", number, "--word", words(letters)),
    command("lift", "kernel", "--n", number, "--word", words(letters), "--route",
            st.sampled_from(["inner-in-H", "lift", "both", "sideways"])),
    command("kernel", "certify", "--n", number, "--word", words(letters)),
    command("kernel", "verify", "--cert", certificates, "--word", words(letters)),
    command("complex", "poset", "--n", number, "--format", formats),
    command("complex", "homology", "--n", number),
    command("complex", "ball", "--ctx", contexts, "--radius", radii, "--format", formats),
    command("complex", "ball", "--ctx", contexts, "--radius", st.sampled_from(["0", "1", "2"]),
            "--bound", st.sampled_from(["-1", "0", "1", "x"])),
    command("complex", "stabilizer", "--n", number),
    command("complex", "stabilizer", "--n", number, "--tree", trees),
    command("complex", "quotient-check", "--n", number, "--samples", number, "--seed", number),
    command("complex", "tree", "--n", number, "--tree", trees, "--format", formats),
    command("braid", "act", "--n", number, "--word", braid_words),
    command("braid", "eta", "--n", number, "--k", number, "--word", braid_words),
    command("braid", "search", "--n", number, "--k", number, "--max-len", radii),
    # a valid selftest call takes a second or more, so only malformed ones
    command("selftest", "--level", st.sampled_from(["slow", "", "QUICK"])),
    command("selftest", "--seed", not_a_number),
    command(st.sampled_from(["nope", "complex", "kernel", ""])),
)
ARGV = st.tuples(COMMANDS, st.sampled_from([[]] * 6 + [["--zzz"], ["extra"], ["--n"]])).map(
    lambda parts: parts[0] + parts[1]
)

DEEP_CERTIFICATE = '{"rank": 3, "conjugators": ' + "[" * 3000 + "]" * 3000 + "}"


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ARGV)
@example(["kernel", "verify", "--cert", DEEP_CERTIFICATE, "--word", "e"])
@example(["symaut", "nf", "--n", "0", "--word", "e"])
@example(["kernel", "certify", "--n", "0", "--word", "e"])
@example(["complex", "quotient-check", "--n", "2", "--samples", "200"])
@example(["complex", "ball", "--ctx", "F:5", "--radius", "1", "--bound", "5"])
def test_main_exits_with_a_documented_code_and_one_payload(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[:2] == ["kernel", "verify"]:
            cert = Path(tmp) / "cert.json"
            cert.write_text(argv[3])
            argv = argv[:3] + [str(cert)] + argv[4:]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    text = out.getvalue()
    assert code in (0, 1, 2, 3), argv
    if code == 0 and argv[-2:] == ["--format", "dot"]:
        assert text.startswith(("graph ", "digraph ")) and text.endswith("}\n"), argv
    else:
        assert text.count("\n") == 1 and isinstance(json.loads(text), dict), argv
    assert "Traceback" not in err.getvalue(), argv
