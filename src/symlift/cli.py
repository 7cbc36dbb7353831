"""Command-line entry point.

Uniform conventions: JSON (with a top-level ``schema`` field) on stdout,
diagnostics on stderr.  Exit codes: 0 for success or a positive verdict, 1
for a negative verdict (out of kernel, certificate mismatch, failed checks,
nonempty flag list), 2 for usage errors, reported as a machine-readable
error object, and 3 for no answer within a stated bound (``kernel certify``
on a kernel element its bounded search cannot certify).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import braid as braid_mod
from . import complexes, kernel as kernel_mod, selftest as selftest_mod
from .lift import kernel_verdict, lift_restrict
from .symaut import (
    SymmetricAut,
    check_relations,
    eval_generator_word,
    outer_equal,
    parse_generator_word,
    semidirect_normal_form,
)
from .words import (
    GroupContext,
    WordError,
    check_rank,
    conjugacy_witness,
    even_to_x,
    format_word,
    free_context,
    inner_witness,
    parse_context,
    parse_word,
    project_mod_k,
    torsion_context,
)

SCHEMA = "symlift/1"


def _emit(payload: dict, code: int = 0) -> int:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, sort_keys=True))
    return code


def _emit_error(message: str) -> int:
    print(json.dumps({"schema": SCHEMA, "error": {"message": message}}, sort_keys=True))
    print(f"error: {message}", file=sys.stderr)
    return 2


# -- words ------------------------------------------------------------------


def cmd_words_normalize(args) -> int:
    ctx = parse_context(args.ctx)
    return _emit({"word": format_word(parse_word(args.word, ctx))})


def cmd_words_conjugacy(args) -> int:
    ctx = parse_context(args.ctx)
    witness = conjugacy_witness(parse_word(args.u, ctx), parse_word(args.v, ctx))
    if witness is None:
        return _emit({"conjugate": False}, 1)
    return _emit({"conjugate": True, "witness": format_word(witness)})


def cmd_words_inner(args) -> int:
    ctx = parse_context(args.ctx)
    images = [parse_word(part, ctx) for part in args.images.split(";")]
    witness = inner_witness(images, ctx)
    if witness is None:
        return _emit({"inner": False}, 1)
    return _emit({"inner": True, "witness": format_word(witness)})


def cmd_words_project(args) -> int:
    ctx = free_context(args.n)
    return _emit({"word": format_word(project_mod_k(parse_word(args.word, ctx), args.k))})


def cmd_words_even_to_x(args) -> int:
    ctx = torsion_context(args.n, 2)
    return _emit({"word": format_word(even_to_x(parse_word(args.word, ctx)))})


# -- symaut -----------------------------------------------------------------


def _aut_context(args) -> GroupContext:
    if args.n is not None and args.ctx is not None:
        raise WordError("give --n or --ctx, not both")
    if args.ctx:
        return parse_context(args.ctx)
    if args.n is None:
        raise WordError("give --n or --ctx")
    return free_context(args.n)


def _evaluate(text: str, ctx: GroupContext) -> SymmetricAut:
    return eval_generator_word(parse_generator_word(text, ctx.rank), ctx)


def cmd_symaut_eval(args) -> int:
    aut = _evaluate(args.word, _aut_context(args))
    return _emit({"images": aut.to_json()})


def cmd_symaut_relations(args) -> int:
    report = check_relations(args.n)
    return _emit({"relations": report.to_json()}, 0 if report.all_pass else 1)


def cmd_symaut_nf(args) -> int:
    nf = semidirect_normal_form(parse_generator_word(args.word, args.n))
    return _emit(
        {
            "pure": str(nf.pure),
            "rho": list(nf.rho),
            "perm": list(nf.perm),
            "recomposition": str(nf.recompose()),
        }
    )


def cmd_symaut_outer_equal(args) -> int:
    ctx = _aut_context(args)
    equal = outer_equal(_evaluate(args.left, ctx), _evaluate(args.right, ctx))
    return _emit({"outer_equal": equal}, 0 if equal else 1)


# -- lift -------------------------------------------------------------------


def cmd_lift_eval(args) -> int:
    h = eval_generator_word(parse_generator_word(args.word, args.n), torsion_context(args.n, 2))
    restriction = lift_restrict(h)
    return _emit({"restriction": restriction.to_json()})


def cmd_lift_kernel(args) -> int:
    verdict = kernel_verdict(parse_generator_word(args.word, args.n), args.route)
    return _emit(verdict.to_json(), 0 if verdict.verdict == "in" else 1)


# -- kernel -----------------------------------------------------------------


def cmd_kernel_certify(args) -> int:
    status, cert = kernel_mod.certify_status(parse_generator_word(args.word, args.n))
    if cert is not None:
        return _emit({"status": status, "certificate": cert.to_json()})
    if status == "absent":
        return _emit({"status": status}, 1)
    # in the kernel, but the bounded search found no certificate
    bound = {
        "search_depth": kernel_mod.SEARCH_DEPTH,
        "eval_gate_letters": kernel_mod.EVAL_GATE_LETTERS,
    }
    return _emit({"status": "unproven", "bound": bound}, 3)


def cmd_kernel_verify(args) -> int:
    with open(args.cert) as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise WordError("certificate JSON is nested too deeply") from None
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]
    cert = kernel_mod.Certificate.from_json(data)
    ok = kernel_mod.verify_certificate(cert, parse_generator_word(args.word, cert.rank))
    return _emit({"verified": ok}, 0 if ok else 1)


# -- complex ----------------------------------------------------------------


def cmd_complex_poset(args) -> int:
    poset = complexes.enumerate_whitehead_poset(args.n)
    if args.format == "dot":
        print(poset.to_dot())
        return 0
    return _emit({"poset": poset.to_json()})


def cmd_complex_homology(args) -> int:
    poset = complexes.enumerate_whitehead_poset(args.n)
    report = complexes.order_complex_homology(poset)
    # the whole poset is a cone on its minimum, so only its proper part can
    # have reduced homology
    proper = complexes.order_complex_homology(complexes.proper_part(poset))
    return _emit({"homology": report.to_json(), "proper_homology": proper.to_json()})


def cmd_complex_ball(args) -> int:
    ctx = parse_context(args.ctx)
    report = complexes.nuclear_ball(ctx, args.radius, args.bound)
    if args.format == "dot":
        print(report.to_dot())
        return 0
    return _emit({"ball": report.to_json()})


def _read_tree(args) -> complexes.LabelledBipartiteTree:
    """The tree ``--tree`` lists, or else the star on ``--n`` labels, after the rank check."""
    check_rank(args.n, complexes.MAX_TREE_RANK, "trees")
    if not args.tree:
        return complexes.trivial_tree(args.n)
    units = [[int(l) for l in chunk.split(",") if l.strip()] for chunk in args.tree.split(";")]
    return complexes.tree_from_units(args.n, units)


def cmd_complex_stabilizer(args) -> int:
    tree = _read_tree(args)
    gens = complexes.stabilizer_generators(tree)
    soundness = complexes.stabilizer_soundness(gens)
    ok = all(flag for _, flag in soundness)
    return _emit(
        {
            "stabilizer": gens.to_json(),
            "soundness": [{"generator": g, "ok": flag} for g, flag in soundness],
        },
        0 if ok else 1,
    )


def cmd_complex_quotient_check(args) -> int:
    report = complexes.quotient_star_check(args.n, random.Random(args.seed), args.samples)
    return _emit({"quotient_check": report.to_json()}, 0 if report.all_pass else 1)


def cmd_complex_tree(args) -> int:
    tree = _read_tree(args)
    if args.format == "dot":
        print(tree.to_dot())
        return 0
    return _emit(
        {
            "tree": {
                "canonical": tree.canonical(),
                "type": tree.type_encoding(),
                "unlabelled_count": tree.unlabelled_count,
                "edges": tree.edges,
            }
        }
    )


# -- braid ------------------------------------------------------------------


def cmd_braid_act(args) -> int:
    aut = braid_mod.artin_action(braid_mod.parse_braid(args.word, args.n))
    return _emit({"images": aut.to_json()})


def cmd_braid_eta(args) -> int:
    aut = braid_mod.eta_image(braid_mod.parse_braid(args.word, args.n), args.k)
    return _emit({"images": aut.to_json()})


def cmd_braid_search(args) -> int:
    report = braid_mod.bounded_kernel_search(args.n, args.k, args.max_len)
    return _emit({"search": report.to_json()}, 0 if not report.flagged else 1)


# -- selftest ---------------------------------------------------------------


def cmd_selftest(args) -> int:
    report = selftest_mod.run_selftest(args.level, seed=args.seed)
    if not report["all_passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
    return _emit(report, 0 if report["all_passed"] else 1)


# -- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``WordError``, so they print the error object."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise WordError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symlift",
        description="symmetric automorphisms, reduction mod k, kernel certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    words = sub.add_parser("words", help="word algebra").add_subparsers(
        dest="sub", required=True
    )
    p = words.add_parser("normalize")
    p.add_argument("--ctx", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_words_normalize)
    p = words.add_parser("conjugacy")
    p.add_argument("--ctx", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(fn=cmd_words_conjugacy)
    p = words.add_parser("inner")
    p.add_argument("--ctx", required=True)
    p.add_argument("--images", required=True, help="semicolon-separated words")
    p.set_defaults(fn=cmd_words_inner)
    p = words.add_parser("project")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_words_project)
    p = words.add_parser("even-to-x")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_words_even_to_x)

    symaut = sub.add_parser("symaut", help="symmetric automorphisms").add_subparsers(
        dest="sub", required=True
    )
    p = symaut.add_parser("eval")
    p.add_argument("--n", type=int)
    p.add_argument("--ctx")
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_symaut_eval)
    p = symaut.add_parser("relations")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_symaut_relations)
    p = symaut.add_parser("nf")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_symaut_nf)
    p = symaut.add_parser("outer-equal")
    p.add_argument("--n", type=int)
    p.add_argument("--ctx")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_symaut_outer_equal)

    lift = sub.add_parser("lift", help="reduction and restriction").add_subparsers(
        dest="sub", required=True
    )
    p = lift.add_parser("eval")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_lift_eval)
    p = lift.add_parser("kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--route", choices=["inner-in-H", "lift", "both"], default="both")
    p.set_defaults(fn=cmd_lift_kernel)

    kern = sub.add_parser("kernel", help="certificates").add_subparsers(
        dest="sub", required=True
    )
    p = kern.add_parser("certify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_kernel_certify)
    p = kern.add_parser("verify")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_kernel_verify)

    cplx = sub.add_parser("complex", help="tree complexes").add_subparsers(
        dest="sub", required=True
    )
    p = cplx.add_parser("poset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=cmd_complex_poset)
    p = cplx.add_parser("homology")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_complex_homology)
    p = cplx.add_parser("ball")
    p.add_argument("--ctx", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=cmd_complex_ball)
    p = cplx.add_parser("stabilizer")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tree", help="semicolon-separated label lists, one per unlabelled vertex")
    p.set_defaults(fn=cmd_complex_stabilizer)
    p = cplx.add_parser("quotient-check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=selftest_mod.DEFAULT_SEED)
    p.set_defaults(fn=cmd_complex_quotient_check)
    p = cplx.add_parser("tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tree", help="semicolon-separated label lists, one per unlabelled vertex")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=cmd_complex_tree)

    braid = sub.add_parser("braid", help="braid actions").add_subparsers(
        dest="sub", required=True
    )
    p = braid.add_parser("act")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True, help="integers, e.g. '1 2 -1'")
    p.set_defaults(fn=cmd_braid_act)
    p = braid.add_parser("eta")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_braid_eta)
    p = braid.add_parser("search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(fn=cmd_braid_search)

    p = sub.add_parser("selftest", help="deterministic check suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=selftest_mod.DEFAULT_SEED)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        # the reader closed stdout: what is left, the error object and the
        # interpreter's last flush go to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        return _emit_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
