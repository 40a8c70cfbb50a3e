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
files, including a file that is not UTF-8 text and certificate fields of
the wrong JSON type, such as a ``seed`` that is neither an integer nor
null), 3 violated
precondition or unusable parameters (among them a prime of 2**64 or more, a
negative witness argument, a derived depth above 8, a factor level above
10,000, and a level or value too long for Python to read or print as a
decimal, and a ``check --samples`` count below 1 or above ``SAMPLES_BOUND``,
100,000), 4 a certificate failed verification (among them one whose cyclic
``L`` is above 10,000 or whose cyclic ``chain_shift`` or ``max_level`` is a
bool, one whose ``k`` is negative or ``d`` outside 0..8, as the generators
refuse, one whose level is not above ``k``, for an escape not ``m + 1``, or
above every atom in its tree, all refused before evaluation, and a result
not in canonical text), 5 an internal error: any other
exception, one ``internal error: <type>: <message>`` line, never a traceback.

``phi`` and ``psi`` parse their expression before they build the standard
homomorphism, so a malformed one is exit 2 on every instance.  ``psi`` then
refuses a target that cannot sit in matrix entries (exit 3, heisenberg and
cyclic) before it builds the homomorphism or evaluates the expression.

The argument parser is built on the first ``main`` call and reused by every
later call in the same process; each call still parses into a fresh
namespace, and help text is wrapped to ``COLUMNS`` as it is when printed.
An argv that starts with a leaf subcommand's names (``reduce``, ``witness
escape``, ``check axioms`` and the rest) is parsed once, on that
subcommand's own parser, to the namespace, errors and exit codes the full
parser gives it.  Any other argv (none, ``-h``, an unknown command,
``witness`` or ``check`` without a known kind) goes through the full
parser, the one source of top-level help and usage text.
"""

import argparse
import functools
import json
import os
import sys as _sys
import time

from amalgam.errors import AmalgamError, ExprSyntaxError, InvalidParams, LiteralError
from amalgam.homs import (
    check_embeds,
    phi_eval,
    psi_eval,
    standard_hom,
    standard_target,
)
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
_EXIT_INTERNAL = 5

# Above every acceptance sample size (10,000 at most); a larger count would
# only make one command run for hours.
SAMPLES_BOUND = 100_000


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


@functools.cache
def build_parser():
    """The ``amalgam`` argument parser, built once per process.

    Every call returns the same parser, so callers must not modify it (add
    arguments, change defaults); ``parse_args`` on it leaves it unchanged.
    Its ``leaves`` map each leaf subcommand's names, such as ``("witness",
    "escape")``, to that subcommand's parser and the namespace values the
    levels above it set.
    """
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="amalgam",
        description="exact computation in iterated centrally amalgamated products",
    )
    ap.leaves = {}

    def leaf(sub, *names, help):
        p = sub.add_parser(names[-1], parents=[common], help=help)
        # sub.dest is "command" for a top-level leaf, else the kind's dest
        ap.leaves[names] = p, dict(zip(("command", sub.dest), names))
        return p

    sub = ap.add_subparsers(dest="command", required=True)

    p = leaf(sub, "reduce", help="canonical form and level of a word expression")
    p.add_argument("expr")

    p = leaf(sub, "eq", help="whether two word expressions are equal in the group")
    p.add_argument("expr_a")
    p.add_argument("expr_b")

    p = leaf(sub, "level", help="least stage containing the element")
    p.add_argument("expr")

    p = leaf(sub, "phi", help="image under the standard abelian homomorphism")
    p.add_argument("expr")

    p = leaf(sub, "psi", help="image as a unipotent matrix (dense instance only)")
    p.add_argument("expr")

    w = sub.add_parser("witness", help="generate replayable certificates")
    wsub = w.add_subparsers(dest="witness_kind", required=True)
    p = leaf(wsub, "witness", "escape", help="conjugate of EXPR with level above K")
    p.add_argument("expr")
    p.add_argument("k", type=int)
    p = leaf(wsub, "witness", "derived",
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
        p = leaf(csub, "check", kind, help=text)
        p.add_argument("--samples", type=int, default=1000)

    p = leaf(sub, "verify", help="replay and check a certificate file")
    p.add_argument("file")

    return ap


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, a leaf's argv parsed on its leaf."""
    ap = build_parser()
    argv = _sys.argv[1:] if argv is None else list(argv)
    for names in (tuple(argv[:2]), tuple(argv[:1])):
        if names in ap.leaves:
            p, preset = ap.leaves[names]
            args, extras = p.parse_known_args(argv[len(names):])
            if extras:
                ap.error("unrecognized arguments: " + " ".join(extras))
            vars(args).update(preset)
            return args
    return ap.parse_args(argv)


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
        except (OSError, UnicodeDecodeError) as exc:
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
        result = {"form": format_form(sys_obj, form), "level": form.level}
        if args.json:
            result["expr"] = form_expr_str(sys_obj, form)
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
        expr = parse_expr(args.expr, sys_obj)
        hom = standard_hom(sys_obj)
        form = eval_expr(sys_obj, expr)
        v = phi_eval(form, hom)
        s = hom.target.value_str(v)
        _emit(args, cmd, sys_obj.kind, sys_obj.p,
              {"value": s, "target": hom.target.name}, s, t0)
        return _EXIT_OK

    if cmd == "psi":
        expr = parse_expr(args.expr, sys_obj)
        check_embeds(standard_target(sys_obj))
        hom = standard_hom(sys_obj)
        form = eval_expr(sys_obj, expr)
        m = psi_eval(form, hom)
        _emit(args, cmd, sys_obj.kind, sys_obj.p, {"matrix": str(m)}, str(m), t0)
        return _EXIT_OK

    if cmd == "witness":
        if args.witness_kind == "escape":
            h = eval_expr(sys_obj, parse_expr(args.expr, sys_obj))
            cert = escape_witness(sys_obj, h, args.k, seed=args.seed)
        else:
            cert = derived_escape(sys_obj, args.d, args.k, seed=args.seed)
        # the envelope holds the certificate's dict, the text is its file
        if args.json:
            result, text = cert.to_json_dict(), None
        else:
            result, text = None, certificate_to_json(cert)
        _emit(args, f"witness {args.witness_kind}", sys_obj.kind, sys_obj.p,
              result, text, t0)
        return _EXIT_OK

    if cmd == "check":
        if not 1 <= args.samples <= SAMPLES_BOUND:
            raise InvalidParams(
                f"--samples must be between 1 and {SAMPLES_BOUND}, "
                f"got {args.samples}"
            )
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
        args = _parse_args(argv)
        return _dispatch(args, t0)
    except (ExprSyntaxError, LiteralError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_PARSE
    except AmalgamError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_PRECONDITION
    except Exception as exc:
        # a fault in the package, not in the input: one line, no traceback
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=_sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    _sys.exit(main())
