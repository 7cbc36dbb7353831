import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import symlift
from symlift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0]) if out.startswith("{") else out
    return code, payload


def test_lift_kernel_rho(capsys):
    code, payload = run(
        capsys, "lift", "kernel", "--n", "3", "--route", "both", "--word", "r[1] r[2] r[3]"
    )
    assert code == 0
    assert payload["schema"] == "symlift/1"
    assert payload["verdict"] == "in" and payload["agree"] is True


def test_lift_kernel_negative_exit(capsys):
    code, payload = run(capsys, "lift", "kernel", "--n", "3", "--word", "a[1,2]")
    assert code == 1 and payload["verdict"] == "out"


def test_lift_eval(capsys):
    code, payload = run(capsys, "lift", "eval", "--n", "3", "--word", "a[1,2]")
    assert code == 0
    assert payload["restriction"]["images"] == {"x1": "x2 x1^-1 x2", "x2": "x2"}


def test_r_letters_are_refused_above_torsion_two(capsys):
    # r[1] sends z1 to z1^-1 = z1^2, which is no conjugate of a generator
    message = "r[1] inverts a generator of order 3, which has no symmetric image"
    for argv in (("symaut", "eval", "--ctx", "H:3:3", "--word", "r[1]"),
                 ("symaut", "outer-equal", "--ctx", "H:3:3", "--left", "a[1,2] r[1]",
                  "--right", "e")):
        code, payload = run(capsys, *argv)
        assert code == 2 and payload == {"schema": "symlift/1", "error": {"message": message}}
    # at torsion 2 the same letter acts trivially
    code, payload = run(capsys, "symaut", "eval", "--ctx", "H:3:2", "--word", "r[1]")
    assert code == 0 and [img["conjugator"] for img in payload["images"]] == ["e", "e", "e"]


def test_symaut_relations(capsys):
    code, payload = run(capsys, "symaut", "relations", "--n", "4")
    assert code == 0 and payload["relations"]["all_pass"]


def test_symaut_eval_and_nf(capsys):
    code, payload = run(capsys, "symaut", "eval", "--n", "3", "--word", "a[1,2]")
    assert code == 0
    assert payload["images"][0] == {"conjugator": "y2", "target": 1, "sign": 1}
    code, payload = run(capsys, "symaut", "nf", "--n", "3", "--word", "r[2] a[1,2]")
    assert code == 0 and payload["pure"] == "a[1,2]^-1" and payload["rho"] == [0, 1, 0]


def test_words_commands(capsys):
    code, payload = run(capsys, "words", "normalize", "--ctx", "F:3", "--word", "y1 y1^-1 y2")
    assert code == 0 and payload["word"] == "y2"
    code, payload = run(
        capsys, "words", "conjugacy", "--ctx", "H:3:2", "--u", "z1 z2 z1", "--v", "z2"
    )
    assert code == 0 and payload["witness"] == "z1"
    code, payload = run(
        capsys, "words", "inner", "--ctx", "H:3:2", "--images", "z2 z1 z2;z2;z3"
    )
    assert code == 1 and payload["inner"] is False
    code, payload = run(capsys, "words", "project", "--n", "2", "--k", "3", "--word", "y1^4 y2^3")
    assert code == 0 and payload["word"] == "z1"
    code, payload = run(capsys, "words", "even-to-x", "--n", "3", "--word", "z1 z2")
    assert code == 0 and payload["word"] == "x1 x2^-1"


def test_even_to_x_has_no_table_sized_by_the_rank(capsys):
    # the shared x-syllables grow with the generators a word brings, not
    # with the rank it lives in
    start = time.perf_counter()
    code, payload = run(capsys, "words", "even-to-x", "--n", "1000000000", "--word", "z1 z2")
    assert code == 0 and payload["word"] == "x1 x2^-1"
    assert time.perf_counter() - start < 1


def test_kernel_certify_and_verify(capsys, tmp_path):
    code, payload = run(capsys, "kernel", "certify", "--n", "3", "--word", "a[1,2] a[1,2]")
    assert code == 0 and payload["status"] == "certified"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload["certificate"]))
    code, payload = run(
        capsys, "kernel", "verify", "--cert", str(cert_file), "--word", "a[1,2] a[1,2]"
    )
    assert code == 0 and payload["verified"] is True
    # mismatched target word
    code, payload = run(capsys, "kernel", "verify", "--cert", str(cert_file), "--word", "a[1,2]")
    assert code == 1 and payload["verified"] is False
    code, payload = run(capsys, "kernel", "certify", "--n", "3", "--word", "a[1,2]")
    assert code == 1 and payload == {"schema": "symlift/1", "status": "absent"}
    # longer than the recursion limit allows a recursive parse
    long_word = " ".join(["a[1,2]"] * 500)
    code, payload = run(capsys, "kernel", "certify", "--n", "3", "--word", long_word)
    assert code == 0 and payload["status"] == "certified"
    cert_file.write_text(json.dumps(payload["certificate"]))
    code, payload = run(capsys, "kernel", "verify", "--cert", str(cert_file), "--word", long_word)
    assert code == 0 and payload["verified"] is True


def test_kernel_certify_refuses_honestly_inside_the_kernel(capsys):
    # in the kernel (the two letters commute), but no certificate lies within
    # the bounded search; exit 1 would read as "outside the kernel"
    word = "a[3,1]^-1 a[4,2]^-1 a[3,1]^-1 a[4,2]^-1"
    code, payload = run(capsys, "lift", "kernel", "--n", "4", "--word", word)
    assert code == 0 and payload["verdict"] == "in"
    code, payload = run(capsys, "kernel", "certify", "--n", "4", "--word", word)
    assert code == 3 and payload["status"] == "unproven"
    assert payload["bound"] == {"search_depth": 2, "eval_gate_letters": 60}
    # the same element with the commuting letters regrouped certifies
    word = "a[3,1]^-1 a[3,1]^-1 a[4,2]^-1 a[4,2]^-1"
    code, payload = run(capsys, "kernel", "certify", "--n", "4", "--word", word)
    assert code == 0 and payload["status"] == "certified"
    # outside the kernel stays a negative verdict
    code, payload = run(capsys, "lift", "kernel", "--n", "4", "--word", "a[3,1] a[4,2]")
    assert code == 1 and payload["verdict"] == "out"
    code, payload = run(capsys, "kernel", "certify", "--n", "4", "--word", "a[3,1] a[4,2]")
    assert code == 1 and payload == {"schema": "symlift/1", "status": "absent"}


def test_kernel_certify_outside_the_kernel_searches_nothing(capsys, monkeypatch):
    # no certificate exists outside the kernel, so a word that level 0
    # cannot parse gets the verdict before any relator is built
    import symlift.kernel as kernel_mod

    def no_relators(rank):
        raise AssertionError("relator search started")

    monkeypatch.setattr(kernel_mod, "_inner_relators", no_relators)
    for n in ("80", "500"):
        start = time.perf_counter()
        code, payload = run(capsys, "kernel", "certify", "--n", n, "--word", "a[1,2] a[2,3]")
        assert code == 1 and payload == {"schema": "symlift/1", "status": "absent"}, n
        assert time.perf_counter() - start < 0.5, n


def test_kernel_certify_computes_one_verdict(capsys, monkeypatch):
    # level 0 cannot parse this word, so the search asks the verdict, and
    # the command reuses it to tell absent from unproven
    import symlift.cli as cli_mod
    import symlift.kernel as kernel_mod

    verdicts = []

    def counted(gw, *route):
        verdicts.append(gw.rank)
        return kernel_verdict(gw, *route)

    kernel_verdict = kernel_mod.kernel_verdict
    monkeypatch.setattr(kernel_mod, "kernel_verdict", counted)
    monkeypatch.setattr(cli_mod, "kernel_verdict", counted)
    for n in ("3", "1000"):
        verdicts.clear()
        code, payload = run(capsys, "kernel", "certify", "--n", n, "--word", "a[1,2] a[2,3]")
        assert code == 1 and payload == {"schema": "symlift/1", "status": "absent"}, n
        assert verdicts == [int(n)]
    # a mixed inversion vector fails before the search: one verdict, from
    # the command, and it reads unproven inside the kernel
    verdicts.clear()
    code, payload = run(capsys, "kernel", "certify", "--n", "3", "--word", "r[1]")
    assert code == 3 and payload["status"] == "unproven" and verdicts == [3]


def test_complex_commands(capsys):
    code, payload = run(capsys, "complex", "poset", "--n", "3")
    assert code == 0 and payload["poset"]["size"] == 4
    code, payload = run(capsys, "complex", "homology", "--n", "3")
    assert code == 0 and payload["homology"]["euler_characteristic"] == 1
    code, payload = run(capsys, "complex", "ball", "--ctx", "H:3:2", "--radius", "1")
    assert code == 0 and payload["ball"]["counts"] == [1, 3]
    code, out = run(capsys, "complex", "poset", "--n", "3", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, payload = run(capsys, "complex", "stabilizer", "--n", "3", "--tree", "1,3;3,2")
    assert code == 0 and payload["stabilizer"]["vertex_auts"] == ["a[1,3]"]
    code, payload = run(
        capsys, "complex", "quotient-check", "--n", "3", "--samples", "8", "--seed", "3"
    )
    assert code == 0 and payload["quotient_check"]["all_pass"]
    # part (a) reads no poset, so the check answers past the poset's rank limit
    code, payload = run(capsys, "complex", "quotient-check", "--n", "7")
    assert code == 0 and payload["quotient_check"]["all_pass"]
    assert "star_sizes" not in payload["quotient_check"]


def test_braid_commands(capsys):
    code, payload = run(capsys, "braid", "act", "--n", "3", "--word", "1")
    assert code == 0 and payload["images"][0]["conjugator"] == "y1"
    code, payload = run(
        capsys, "braid", "search", "--n", "3", "--k", "2", "--max-len", "3"
    )
    assert code == 0 and payload["search"]["flagged"] == []


def test_malformed_input_exits_2(capsys, tmp_path):
    code, payload = run(capsys, "lift", "kernel", "--n", "3", "--word", "a[1,1]")
    assert code == 2 and "error" in payload
    code, payload = run(capsys, "words", "normalize", "--ctx", "Q:9", "--word", "e")
    assert code == 2 and "error" in payload
    cert_file = tmp_path / "cert.json"
    for data in ({"conjugators": []}, [1, 2], 5, {"certificate": None},
                 {"rank": "3", "conjugators": []}, {"rank": 3, "conjugators": [3]}):
        cert_file.write_text(json.dumps(data))
        code, payload = run(
            capsys, "kernel", "verify", "--cert", str(cert_file), "--word", "a[1,2]"
        )
        assert code == 2 and "certificate" in payload["error"]["message"], data
    for argv in (("symaut", "eval", "--word", "a[1,2]"),
                 ("symaut", "outer-equal", "--left", "e", "--right", "e")):
        code, payload = run(capsys, *argv)
        assert code == 2 and payload["error"]["message"] == "give --n or --ctx"
        code, payload = run(capsys, *argv, "--n", "3", "--ctx", "F:4")
        assert code == 2 and payload["error"]["message"] == "give --n or --ctx, not both"
    code, payload = run(capsys, "braid", "search", "--n", "1", "--k", "2", "--max-len", "3")
    assert code == 2 and "2 strands" in payload["error"]["message"]
    code, payload = run(capsys, "braid", "search", "--n", "2", "--k", "2", "--max-len", "1415")
    message = payload["error"]["message"]
    assert code == 2 and "length 1415" in message and "limit of 2,000,000" in message
    for k, max_len, message in (("1", "3", "modulus"), ("2", "12", "366,210,936 words")):
        code, payload = run(capsys, "braid", "search", "--n", "4", "--k", k, "--max-len", max_len)
        assert code == 2 and message in payload["error"]["message"]
    for samples in ("0", "-1"):
        code, payload = run(
            capsys, "complex", "quotient-check", "--n", "3", "--samples", samples
        )
        assert code == 2 and "samples" in payload["error"]["message"]
    for command in ("poset", "homology"):
        code, payload = run(capsys, "complex", command, "--n", "7")
        assert code == 2 and "rank <= 6" in payload["error"]["message"]
    # the torsion context refuses a modulus below 2, whichever command builds it
    for argv in (("words", "project", "--word", "y1"), ("braid", "eta", "--word", "1")):
        code, payload = run(capsys, *argv, "--n", "3", "--k", "1")
        assert code == 2
        assert payload["error"]["message"] == "torsion modulus must be >= 2, got 1"
    # no tree has rank 1: the refusal names the rank, not a vertex of the star
    for command in ("tree", "stabilizer"):
        code, payload = run(capsys, "complex", command, "--n", "1")
        assert code == 2 and payload["error"]["message"] == "trees need rank >= 2, not 1"
    for tree in ("1,2;;2,3", "1,2,2;2,3"):  # an empty chunk, a repeated label
        code, payload = run(capsys, "complex", "tree", "--n", "3", "--tree", tree)
        assert code == 2 and "unlabelled vertex" in payload["error"]["message"]
    for argv in (("--ctx", "F:3", "--bound", "-1"), ("--ctx", "H:3:2", "--bound", "5")):
        code, payload = run(capsys, "complex", "ball", "--radius", "1", *argv)
        assert code == 2 and "bound" in payload["error"]["message"]
    code, payload = run(capsys, "complex", "stabilizer", "--n", "501")
    assert code == 2 and "rank <= 500" in payload["error"]["message"]
    # the counts hold (labels 1..4, sum(|E| - 1) = 3), but two units join
    # b1 and b2 twice and leave {3, 4} apart
    code, payload = run(capsys, "complex", "stabilizer", "--n", "4", "--tree", "1,2;1,2;3,4")
    assert code == 2 and payload["error"]["message"] == "tree is not connected"
    # at rank 2 every pure word is inner mod 2, so the check would be vacuous
    for samples in ("25", "200"):
        code, payload = run(
            capsys, "complex", "quotient-check", "--n", "2", "--samples", samples
        )
        assert code == 2 and "rank >= 3" in payload["error"]["message"]
    cert_file.write_text('{"rank": 3, "conjugators": ' + "[" * 3000 + "]" * 3000 + "}")
    code, payload = run(capsys, "kernel", "verify", "--cert", str(cert_file), "--word", "e")
    assert code == 2 and "nested too deeply" in payload["error"]["message"]
    for argv in (("symaut", "nf"), ("kernel", "certify"), ("lift", "kernel")):
        code, payload = run(capsys, *argv, "--n", "0", "--word", "e")
        assert code == 2 and "rank must be >= 1" in payload["error"]["message"], argv
    code, payload = run(capsys, "complex", "ball", "--ctx", "F:5", "--radius", "1", "--bound", "5")
    assert code == 2 and "184,600 moves, over the limit of 150,000" in payload["error"]["message"]


def test_deep_tree_needs_no_recursion(capsys):
    path = ";".join(f"{l},{l + 1}" for l in range(1, 300))
    code, payload = run(capsys, "complex", "tree", "--n", "300", "--tree", path)
    assert code == 0 and payload["tree"]["unlabelled_count"] == 299
    assert payload["tree"]["canonical"].count("(") == 299


def test_complex_outputs_are_pinned(capsys):
    # sha256 of stdout, fixed when trees were still stored as edges
    pinned = {
        ("poset", "--n", "6"):
            "eb8e911c793e9276a0f3498c8fa1757beeb893f26655bde3b0b68746c4179fa9",
        ("poset", "--n", "6", "--format", "dot"):
            "8c95e2d3b8f4108413a75044e07f858eda21e67370173c5c793ce50333f75b79",
        ("ball", "--ctx", "H:4:2", "--radius", "1"):
            "38c14784299695945b82210d332d48b6e4f26233fcbccec76c71f8f83213dd29",
        ("tree", "--n", "4", "--tree", "4,1,2;4,3"):
            "fcc0a8478adfaaa36b49c58def19e219b245aab26a6a2f618a9d49412f1d4c1c",
        # fixed before the homology cleared boundary columns
        ("homology", "--n", "5"):
            "fbac284f0df05855b948de15ae84523d0818b6b8fbf442b731d6956fc0f4653e",
    }
    for argv, digest in pinned.items():
        assert main(["complex", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_relations_output_is_pinned(capsys):
    # sha256 of stdout, fixed while each relation family was its own function
    assert main(["symaut", "relations", "--n", "5"]) == 0
    out = capsys.readouterr().out
    digest = "8c8de6d7abc87c882db36563dbd666021680487d1d7f2dfdeea0eae1974a1b22"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_error_exits_2(capsys):
    assert main(["lift", "kernel", "--n", "3"]) == 2  # missing --word
    capsys.readouterr()
    # argparse's own errors print the error object too
    for argv in (("lift", "kernel", "--n", "x", "--word", "e"), ("complex",), ()):
        code, payload = run(capsys, *argv)
        assert code == 2 and "error" in payload, argv


def test_complex_stabilizer_computes_the_generators_once(capsys, monkeypatch):
    import symlift.complexes as complexes_mod

    calls = []
    generators = complexes_mod.stabilizer_generators

    def counted(tree):
        calls.append(tree)
        return generators(tree)

    monkeypatch.setattr(complexes_mod, "stabilizer_generators", counted)
    code, payload = run(capsys, "complex", "stabilizer", "--n", "4", "--tree", "1,2;2,3,4")
    assert code == 0 and len(calls) == 1
    assert [g["generator"] for g in payload["soundness"]][:1] == ["vertex_aut a[1,2]"]


def test_complex_stabilizer_refuses_big_ranks_before_building_a_tree(capsys, monkeypatch):
    import symlift.complexes as complexes_mod

    def no_tree(*args):
        raise AssertionError("tree built")

    monkeypatch.setattr(complexes_mod, "trivial_tree", no_tree)
    monkeypatch.setattr(complexes_mod, "tree_from_units", no_tree)
    start = time.perf_counter()
    for argv in (("--n", "501"), ("--n", "1000000"), ("--n", "501", "--tree", "1,2")):
        code, payload = run(capsys, "complex", "stabilizer", *argv)
        assert code == 2
        assert payload["error"]["message"] == f"trees are limited to rank <= 500, not {argv[1]}"
    assert time.perf_counter() - start < 0.5


def test_rank_sized_commands_refuse_huge_ranks_before_any_work(capsys, monkeypatch, tmp_path):
    import symlift.braid as braid_mod
    import symlift.cli as cli_mod
    import symlift.complexes as complexes_mod
    import symlift.symaut as symaut_mod

    def no_work(*args):
        raise AssertionError("rank-sized work started")

    # the word parsers check the rank first: what they build after the
    # check, and everything the commands do after parsing, must not start
    for module, name in (
        (complexes_mod, "trivial_tree"),
        (complexes_mod, "tree_from_units"),
        (complexes_mod, "free_context"),
        (symaut_mod, "GeneratorWord"),
        (braid_mod, "BraidWord"),
        (cli_mod, "eval_generator_word"),
        (cli_mod, "torsion_context"),
        (cli_mod, "kernel_verdict"),
        (symaut_mod, "_relations"),
        (braid_mod, "_search_tree"),
    ):
        monkeypatch.setattr(module, name, no_work)
    refusals = {
        ("complex", "tree", "--n", "200000"): "trees are limited to rank <= 500, not 200000",
        ("complex", "tree", "--n", "501", "--tree", "1,2"):
            "trees are limited to rank <= 500, not 501",
        ("symaut", "eval", "--n", "200000", "--word", "e"):
            "automorphism images are limited to rank <= 1000, not 200000",
        ("symaut", "eval", "--ctx", "H:1001:2", "--word", "e"):
            "automorphism images are limited to rank <= 1000, not 1001",
        ("symaut", "outer-equal", "--n", "5000", "--left", "e", "--right", "e"):
            "automorphism images are limited to rank <= 1000, not 5000",
        ("symaut", "relations", "--n", "13"): "relation checks are limited to rank <= 12, not 13",
        ("lift", "eval", "--n", "200000", "--word", "e"):
            "automorphism images are limited to rank <= 1000, not 200000",
        ("lift", "kernel", "--n", "200000", "--word", "e"):
            "automorphism images are limited to rank <= 1000, not 200000",
        ("braid", "act", "--n", "1001", "--word", "1"):
            "automorphism images are limited to rank <= 1000, not 1001",
        ("braid", "eta", "--n", "200000", "--k", "2", "--word", "1"):
            "automorphism images are limited to rank <= 1000, not 200000",
        ("symaut", "nf", "--n", "1001", "--word", "a[1,2]"):
            "automorphism images are limited to rank <= 1000, not 1001",
        # a malformed word at an over-limit rank: the rank is read first
        ("symaut", "nf", "--n", "1001", "--word", "q[1]"):
            "automorphism images are limited to rank <= 1000, not 1001",
        ("braid", "act", "--n", "1001", "--word", "x"):
            "automorphism images are limited to rank <= 1000, not 1001",
        ("kernel", "certify", "--n", "1001", "--word", "e"):
            "automorphism images are limited to rank <= 1000, not 1001",
        ("complex", "quotient-check", "--n", "1001"):
            "automorphism images are limited to rank <= 1000, not 1001",
        # within the word budget, which 1,001 strands at length 1 are
        ("braid", "search", "--n", "1001", "--k", "2", "--max-len", "1"):
            "automorphism images are limited to rank <= 1000, not 1001",
    }
    # a conjugator is parsed when the certificate is read; with none, the
    # --word parse refuses
    for conjugators in (["a[1,2]"], []):
        cert_file = tmp_path / f"cert{len(conjugators)}.json"
        cert_file.write_text(json.dumps({"rank": 1001, "conjugators": conjugators}))
        refusals[("kernel", "verify", "--cert", str(cert_file), "--word", "e")] = (
            "automorphism images are limited to rank <= 1000, not 1001"
        )
    start = time.perf_counter()
    for argv, message in refusals.items():
        code, payload = run(capsys, *argv)
        assert code == 2 and payload["error"]["message"] == message, argv
    assert time.perf_counter() - start < 0.5


def test_repeated_calls_in_one_process_match_fresh_processes(capsys):
    # cli.main keeps no state between calls: a malformed call in between
    # must not change what later calls in the same process print or return
    calls = [
        ("lift", "kernel", "--n", "3", "--word", "a[2,1] a[3,1]"),
        ("lift", "kernel", "--n", "3", "--route", "sideways", "--word", "e"),
        ("symaut", "nf", "--n", "3", "--word", "r[2] a[1,2] s[1,3]"),
        ("lift", "kernel", "--n", "3", "--word", "a[2,1] a[3,1]"),
    ]
    in_process = []
    for argv in calls:
        code = main(list(argv))
        in_process.append((capsys.readouterr().out, code))
    assert [code for _, code in in_process] == [0, 2, 0, 0]
    env = {**os.environ, "PYTHONPATH": str(Path(symlift.__file__).parents[1])}
    for argv, expected in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "symlift.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (fresh.stdout, fresh.returncode) == expected, argv


def test_two_calls_in_one_process_share_no_parsed_state(capsys):
    # a refused lift kernel that sets --route and an over-limit --n leaves
    # nothing for the next call to read: the braid search (its own --n) and a
    # lift kernel on the default route print, in either order, what each
    # prints alone in a fresh process
    refused = ("lift", "kernel", "--n", "1001", "--route", "both", "--word", "e")
    search = ("braid", "search", "--n", "3", "--k", "2", "--max-len", "5")
    default_route = ("lift", "kernel", "--n", "3", "--word", "r[1] r[2] r[3]")
    env = {**os.environ, "PYTHONPATH": str(Path(symlift.__file__).parents[1])}
    alone = {}
    for argv in (refused, search, default_route):
        fresh = subprocess.run(
            [sys.executable, "-m", "symlift.cli", *argv], capture_output=True, text=True, env=env
        )
        alone[argv] = (fresh.stdout, fresh.returncode)
    assert [code for _, code in alone.values()] == [2, 0, 0]
    for order in ((refused, search, default_route), (search, default_route, refused)):
        for argv in order:
            code = main(list(argv))
            assert (capsys.readouterr().out, code) == alone[argv], (order, argv)


def test_a_closed_stdout_exits_2_without_a_traceback():
    # the reader takes 50 bytes of a 300 KB output and closes the pipe, so
    # the command's next write fails
    env = {**os.environ, "PYTHONPATH": str(Path(symlift.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "symlift.cli", "complex", "poset", "--n", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err == "error: stdout was closed before the output was written\n"


def test_selftest_default_seed_ignores_the_environment(capsys, monkeypatch):
    # the seed comes from --seed alone; no environment variable is read
    code, seeded = run(capsys, "selftest", "--seed", "1729")
    assert code == 0
    assert run(capsys, "selftest") == (code, seeded)
    monkeypatch.setenv("SYMLIFT_SEED", "abc")
    assert run(capsys, "selftest") == (code, seeded)
