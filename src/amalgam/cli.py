"""Command-line front end.

Word expressions go in, canonical forms, levels, images under the standard
homomorphisms, certificates, and conformance reports come out.  All flags sit
after the subcommand:

    amalgam reduce "h1(7/5)" --prime 5 --instance dense
    amalgam eq "[h0(2/5), h0(3/5)]" "h0(0)" --json
    amalgam witness escape "h0(1/5)" 3 > cert.json
    amalgam verify cert.json

Exit codes: 0 success, 1 a computed answer is negative (eq false, a check
suite found failures), 2 malformed input (expressions, literals, certificate
files, including certificate fields of the wrong JSON type), 3 violated
precondition or unusable parameters (among them a prime of 2**64 or more, a
negative witness argument, a derived depth above 8, and ``phi`` or ``psi`` of
a form nested about a thousand levels deep), 4 a certificate failed
verification.
"""

import argparse
import json
import os
import sys as _sys
import time

from amalgam.errors import AmalgamError, ExprSyntaxError, InvalidParams, LiteralError
from amalgam.homs import phi_eval, psi_eval, standard_hom
from amalgam.instances import make_instance
from amalgam.normalform import forms_equal
from amalgam.suites import check_axioms, check_instance, check_lemma21
from amalgam.witnesses import (
    certificate_from_json,
    certificate_to_json,
    derived_escape,
    escape_witness,
    verify,
)
from amalgam.wordexpr import eval_expr, form_expr_str, format_form, parse_expr

_EXIT_OK = 0
_EXIT_NEGATIVE = 1
_EXIT_PARSE = 2
_EXIT_PRECONDITION = 3
_EXIT_VERIFY = 4


def _common_flags():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=5,
                        help="prime for the value domain (default 5)")
    common.add_argument("--instance", default="dense",
                        choices=["dense", "heisenberg", "cyclic"],
                        help="factor system to compute in (default dense)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled subcommands (default 0)")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON envelope instead of text")
    return common


def build_parser():
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="amalgam",
        description="exact computation in iterated centrally amalgamated products",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common],
                       help="canonical form and level of a word expression")
    p.add_argument("expr")

    p = sub.add_parser("eq", parents=[common],
                       help="whether two word expressions are equal in the group")
    p.add_argument("expr_a")
    p.add_argument("expr_b")

    p = sub.add_parser("level", parents=[common],
                       help="least stage containing the element")
    p.add_argument("expr")

    p = sub.add_parser("phi", parents=[common],
                       help="image under the standard abelian homomorphism")
    p.add_argument("expr")

    p = sub.add_parser("psi", parents=[common],
                       help="image as a unipotent matrix (dense instance only)")
    p.add_argument("expr")

    w = sub.add_parser("witness", help="generate replayable certificates")
    wsub = w.add_subparsers(dest="witness_kind", required=True)
    p = wsub.add_parser("escape", parents=[common],
                        help="conjugate of EXPR with level above K")
    p.add_argument("expr")
    p.add_argument("k", type=int)
    p = wsub.add_parser("derived", parents=[common],
                        help="depth-D commutator-tree element with level above K")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)

    c = sub.add_parser("check", help="run a sampled conformance suite")
    csub = c.add_subparsers(dest="check_kind", required=True)
    for kind, text in (
        ("lemma21", "conjugation by a fresh-level element keeps its level"),
        ("axioms", "group laws on reduced forms"),
        ("instance", "factor-system contract"),
    ):
        p = csub.add_parser(kind, parents=[common], help=text)
        p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("verify", parents=[common],
                       help="replay and check a certificate file")
    p.add_argument("file")

    return ap


def _elapsed_ms(t0):
    if os.environ.get("AMALGAM_FIXED_ELAPSED"):
        return 0
    return int((time.perf_counter() - t0) * 1000)


def _emit(args, command, instance, prime, result, text, t0):
    if args.json:
        envelope = {
            "command": command,
            "instance": instance,
            "prime": prime,
            "result": result,
            "elapsed_ms": _elapsed_ms(t0),
        }
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        print(text)


def _dispatch(args, t0):
    cmd = args.command

    if cmd == "verify":
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                cert = certificate_from_json(fh.read())
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc}", file=_sys.stderr)
            return _EXIT_PARSE
        except InvalidParams as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return _EXIT_PARSE
        ok = verify(cert)
        _emit(args, cmd, cert.instance, cert.prime,
              {"valid": ok, "type": cert.type},
              "certificate valid" if ok else "certificate INVALID", t0)
        return _EXIT_OK if ok else _EXIT_VERIFY

    sys_obj = make_instance(args.instance, args.prime)

    if cmd == "reduce":
        form = eval_expr(sys_obj, parse_expr(args.expr, sys_obj))
        result = {
            "form": format_form(sys_obj, form),
            "level": form.level,
            "expr": form_expr_str(sys_obj, form),
        }
        _emit(args, cmd, sys_obj.kind, sys_obj.p, result,
              f"{result['form']}, level={result['level']}", t0)
        return _EXIT_OK

    if cmd == "eq":
        fa = eval_expr(sys_obj, parse_expr(args.expr_a, sys_obj))
        fb = eval_expr(sys_obj, parse_expr(args.expr_b, sys_obj))
        equal = forms_equal(sys_obj, fa, fb)
        _emit(args, cmd, sys_obj.kind, sys_obj.p, {"equal": equal},
              "equal" if equal else "not equal", t0)
        return _EXIT_OK if equal else _EXIT_NEGATIVE

    if cmd == "level":
        form = eval_expr(sys_obj, parse_expr(args.expr, sys_obj))
        n = form.level
        _emit(args, cmd, sys_obj.kind, sys_obj.p, {"level": n}, f"level={n}", t0)
        return _EXIT_OK

    if cmd == "phi":
        hom = standard_hom(sys_obj)
        form = eval_expr(sys_obj, parse_expr(args.expr, sys_obj))
        v = phi_eval(form, hom)
        s = hom.target.value_str(v)
        _emit(args, cmd, sys_obj.kind, sys_obj.p,
              {"value": s, "target": hom.target.name}, s, t0)
        return _EXIT_OK

    if cmd == "psi":
        hom = standard_hom(sys_obj)
        form = eval_expr(sys_obj, parse_expr(args.expr, sys_obj))
        m = psi_eval(form, hom)
        _emit(args, cmd, sys_obj.kind, sys_obj.p, {"matrix": str(m)}, str(m), t0)
        return _EXIT_OK

    if cmd == "witness":
        if args.witness_kind == "escape":
            h = eval_expr(sys_obj, parse_expr(args.expr, sys_obj))
            cert = escape_witness(sys_obj, h, args.k, seed=args.seed)
        else:
            cert = derived_escape(sys_obj, args.d, args.k, seed=args.seed)
        _emit(args, f"witness {args.witness_kind}", sys_obj.kind, sys_obj.p,
              cert.to_json_dict(), certificate_to_json(cert), t0)
        return _EXIT_OK

    if cmd == "check":
        runner = {
            "lemma21": check_lemma21,
            "axioms": check_axioms,
            "instance": check_instance,
        }[args.check_kind]
        report = runner(sys_obj, args.samples, args.seed)
        lines = [
            f"{report['name']}: {report['samples']} samples, "
            f"{report['failures']} failures -> "
            f"{'ok' if report['ok'] else 'FAIL'}"
        ]
        for name, count in report["checks"].items():
            lines.append(f"  {name}: {count}")
        _emit(args, f"check {args.check_kind}", sys_obj.kind, sys_obj.p,
              report, "\n".join(lines), t0)
        return _EXIT_OK if report["ok"] else _EXIT_NEGATIVE

    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv=None):
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args, t0)
    except (ExprSyntaxError, LiteralError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_PARSE
    except AmalgamError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_PRECONDITION
    except RecursionError:
        print("error: expression nests too deeply", file=_sys.stderr)
        return _EXIT_PRECONDITION


if __name__ == "__main__":
    _sys.exit(main())
