"""Command-line behavior: golden outputs, exit codes, round trips."""

import argparse
import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from amalgam import cli, witnesses
from amalgam.cli import SAMPLES_BOUND, main
from amalgam.factors import LEVEL_BOUND
from amalgam.instances import _Powers

GOLDEN_TEXT = "Alt(1; R:2/5; tail 1), level=1"

GOLDEN_JSON = """\
{
  "command": "reduce",
  "elapsed_ms": 0,
  "instance": "dense",
  "prime": 5,
  "result": {
    "expr": "h1(2/5) h0(1)",
    "form": "Alt(1; R:2/5; tail 1)",
    "level": 1
  }
}
"""

GOLDEN_WITNESS_JSON = """\
{
  "command": "witness escape",
  "elapsed_ms": 0,
  "instance": "dense",
  "prime": 5,
  "result": {
    "inputs": {
      "g": "h4(1)",
      "h": "h0(1/5)"
    },
    "instance": "dense",
    "k": 3,
    "m": 3,
    "params": {},
    "prime": 5,
    "result": {
      "expr": "h4(1) h0(1/5) h4(124) h0(-125)",
      "level": 4
    },
    "seed": 0,
    "type": "escape"
  }
}
"""

GOLDEN_CHECK_INSTANCE_TEXT = """\
instance: 40 samples, 0 failures -> ok
  split_exact: 0
  split_rep_fixed: 0
  split_coset: 0
  chain_exact: 0
  chain_descent: 0
  base_central: 0
  escape_proper: 0
  bel_consistent: 0
"""

GOLDEN_CHECK_LEMMA21_JSON = """\
{
  "command": "check lemma21",
  "elapsed_ms": 0,
  "instance": "dense",
  "prime": 5,
  "result": {
    "checks": {
      "conjugation_level": 0
    },
    "failures": 0,
    "instance": {
      "instance": "dense",
      "params": {},
      "prime": 5
    },
    "name": "lemma21",
    "ok": true,
    "samples": 40,
    "seed": 3
  }
}
"""

GOLDEN_DERIVED_JSON = """\
{
  "command": "witness derived",
  "elapsed_ms": 0,
  "instance": "dense",
  "prime": 5,
  "result": {
    "d": 2,
    "inputs": {
      "tree": "[[h3(1), h2(1)], [h2(1), h1(1/5)]]"
    },
    "instance": "dense",
    "k": 1,
    "params": {},
    "prime": 5,
    "result": {
      "expr": "h3(1) h2(1) h3(24) (h1(1/5) h2(4) (h1(4/5) h0(4)) h2(1) h0(15)) \
h3(1) (h2(4) h0(20)) h3(24) (h1(1/5) h2(1) (h1(4/5) h0(4)) h2(4) h0(15)) \
h0(-125)",
      "level": 3
    },
    "seed": 0,
    "type": "derived"
  }
}
"""


@pytest.fixture(autouse=True)
def fixed_elapsed(monkeypatch):
    monkeypatch.setenv("AMALGAM_FIXED_ELAPSED", "1")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_golden_text(capsys):
    code, out, _ = run(capsys, "reduce", "h1(7/5)", "--prime", "5",
                       "--instance", "dense")
    assert code == 0
    assert out == GOLDEN_TEXT + "\n"


def test_reduce_golden_json_bytes(capsys):
    code, out, _ = run(capsys, "reduce", "h1(7/5)", "--prime", "5",
                       "--instance", "dense", "--json")
    assert code == 0
    assert out == GOLDEN_JSON


def test_json_elapsed_ms_is_measured_when_not_fixed(capsys, monkeypatch):
    monkeypatch.delenv("AMALGAM_FIXED_ELAPSED")
    code, out, _ = run(capsys, "reduce", "h1(7/5)", "--prime", "5",
                       "--instance", "dense", "--json")
    assert code == 0
    got, want = json.loads(out), json.loads(GOLDEN_JSON)
    elapsed = got.pop("elapsed_ms")
    assert type(elapsed) is int and elapsed >= 0
    want.pop("elapsed_ms")
    assert got == want


def test_witness_golden_json_bytes(capsys):
    code, out, _ = run(capsys, "witness", "escape", "h0(1/5)", "3", "--json")
    assert code == 0
    assert out == GOLDEN_WITNESS_JSON


def test_check_instance_golden_text(capsys):
    code, out, _ = run(capsys, "check", "instance", "--samples", "40",
                       "--seed", "3")
    assert code == 0
    assert out == GOLDEN_CHECK_INSTANCE_TEXT


def test_check_lemma21_golden_json_bytes(capsys):
    code, out, _ = run(capsys, "check", "lemma21", "--samples", "40",
                       "--seed", "3", "--json")
    assert code == 0
    assert out == GOLDEN_CHECK_LEMMA21_JSON


def test_witness_derived_golden_json_bytes(capsys):
    code, out, _ = run(capsys, "witness", "derived", "2", "1", "--json")
    assert code == 0
    assert out == GOLDEN_DERIVED_JSON


def test_golden_json_stable_across_runs(capsys):
    _, first, _ = run(capsys, "witness", "escape", "h0(1/5)", "3", "--json")
    _, second, _ = run(capsys, "witness", "escape", "h0(1/5)", "3", "--json")
    assert first == second


def test_eq_true_and_false_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "[h0(2/5), h0(3/5)]", "h0(0)")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "eq", "h0(1)", "h0(2)")
    assert code == 1 and out.strip() == "not equal"


def test_level_command(capsys):
    code, out, _ = run(capsys, "level", "[h1(1/5), h0(1/5)]")
    assert code == 0
    assert out.strip() == "level=1"


def test_phi_command(capsys):
    code, out, _ = run(capsys, "phi", "h2(3/25)")
    assert code == 0
    assert out.strip() == "3/25"


def test_phi_mixed_word(capsys):
    code, out, _ = run(capsys, "phi", "h0(1/5) h1(2/5)")
    assert code == 0
    assert out.strip() == "3/5"


@pytest.mark.parametrize("argv,text", [
    (("h1((1,2,7)) h0((3,0,0))", "--instance", "heisenberg", "--prime", "3"),
     "(4,2)"),
    (("h1(3) h2(7)", "--instance", "cyclic", "--prime", "2"), "2"),
])
def test_phi_prints_each_targets_values(capsys, argv, text):
    code, out, _ = run(capsys, "phi", *argv)
    assert code == 0
    assert out == text + "\n"


def test_psi_command(capsys):
    code, out, _ = run(capsys, "psi", "h0(3/5)")
    assert code == 0
    assert out.strip() == "[[1, 3/5], [0, 1]]"


def test_psi_off_dense_is_precondition_error(capsys):
    code, _, err = run(capsys, "psi", "h0((1,0,0))",
                       "--instance", "heisenberg", "--prime", "3")
    assert code == 3
    assert "error" in err


def spy(monkeypatch, *names):
    """Count the calls ``cli`` makes to the named functions it imported."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _f=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(cli, name, wrapper)
    return calls


@pytest.mark.parametrize("argv", [
    ("h0((1,0,0))", "--instance", "heisenberg", "--prime", "3"),
    ("h1(3) h2(7)", "--instance", "cyclic", "--prime", "2"),
])
def test_psi_off_dense_is_refused_before_evaluating(capsys, monkeypatch, argv):
    calls = spy(monkeypatch, "eval_expr", "standard_hom")
    code, out, err = run(capsys, "psi", *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: target ")
    assert calls == {"eval_expr": 0, "standard_hom": 0}


@pytest.mark.parametrize("command", ["phi", "psi"])
@pytest.mark.parametrize("flags", [
    (), ("--instance", "heisenberg", "--prime", "3"),
    ("--instance", "cyclic", "--prime", "2"),
])
def test_malformed_image_expression_builds_no_hom(capsys, monkeypatch,
                                                  command, flags):
    calls = spy(monkeypatch, "eval_expr", "standard_hom")
    code, out, err = run(capsys, command, "h1(", *flags)
    assert code == 2 and out == ""
    assert "position" in err
    assert calls == {"eval_expr": 0, "standard_hom": 0}


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "h1(")
    assert code == 2
    assert "position" in err


def test_literal_error_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "h0(1/3)")
    assert code == 2
    assert "error" in err


def test_bad_prime_is_precondition_error(capsys):
    code, _, err = run(capsys, "reduce", "h0(1)", "--prime", "4")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("witness", "escape", "h0(1/5)", "-1"),
    ("witness", "derived", "-1", "0"),
    ("witness", "derived", "3", "-2"),
])
def test_negative_witness_arguments_are_precondition_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def deep_flat(top):
    """A flat word whose form nests one L-letter per level, top down to 1."""
    return " ".join(f"h{n}(1)" for n in range(top, 1, -1)) + " h1(1/5) h0(1/5)"


def deep_flat_form(top):
    """format_form of deep_flat(top), built up from the bottom level."""
    text = "Alt(1; R:1/5; L:(Base(1/5)); tail 0)"
    for n in range(2, top + 1):
        text = f"Alt({n}; R:1; L:({text}); tail 0)"
    return text


DEEP_FLAT = deep_flat(500)
DEEP_PARENS = "(" * 1200 + "h0(1/5)" + ")" * 1200


@pytest.mark.parametrize("argv", [
    ("reduce", "h0(1)", "--prime", "1"),
    ("witness", "derived", "2", str(10**30)),
    ("witness", "derived", "12", "0"),
    ("reduce", "h0(1)", "--prime", str(2**64 + 13)),
    ("reduce", "h0(1)", "--prime", str(1000003 * 1000033)),
    # levels above the bound are refused before any work
    ("witness", "escape", "h0(1/5)", str(10**30)),
    ("level", "h10000000(1)"),
    # numbers past the int-string limit: values to print, a level to read
    ("reduce", "h7000(-1)"),
    ("reduce", "h300(-1)", "--prime", "18446744073709551557"),
    ("witness", "derived", "1", "6200"),
    ("level", "h" + "9" * 5000 + "(1)"),
    # sample counts outside 1..SAMPLES_BOUND
    ("check", "axioms", "--samples", "-5"),
    ("check", "axioms", "--samples", str(SAMPLES_BOUND + 1)),
    # value literals past the int-string limit, on each instance's reader
    ("reduce", "h0(" + "9" * 5000 + ")"),
    ("reduce", "h0(1/" + "9" * 5000 + ")"),
    ("reduce", "h0((" + "9" * 5000 + ",0,0))", "--instance", "heisenberg",
     "--prime", "3"),
    ("level", "h1((0," + "9" * 5000 + ",0))", "--instance", "heisenberg",
     "--prime", "3"),
    ("level", "h1((0,0," + "9" * 5000 + "))", "--instance", "heisenberg",
     "--prime", "3"),
    ("reduce", "h0(" + "9" * 5000 + ")", "--instance", "cyclic",
     "--prime", "2"),
])
def test_hostile_input_is_precondition_error(capsys, int_digit_limit, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_huge_prime_deep_tree_is_refused_with_few_powers(capsys, monkeypatch,
                                                         int_digit_limit):
    # every leaf and split at levels near 10,000 tests against a power of a
    # prime near 2**64, 80 KB each: each is computed once, not per call
    missing, computed = _Powers.__missing__, []

    def computing(self, e):
        computed.append(e)
        return missing(self, e)

    monkeypatch.setattr(_Powers, "__missing__", computing)
    code, out, err = run(capsys, "witness", "derived", "4", "9999",
                         "--prime", "18446744073709551557")
    assert code == 3 and out == ""
    assert err.startswith("error: number too long") and err.count("\n") == 1
    large = [e for e in computed if e > 100]
    assert large and len(large) == len(set(large)) <= 10


def test_deep_flat_word_level_is_answered(capsys):
    code, out, _ = run(capsys, "level", DEEP_FLAT)
    assert code == 0
    assert out == "level=500\n"


def test_deep_flat_word_reduce_is_answered(capsys):
    code, out, err = run(capsys, "reduce", DEEP_FLAT)
    assert code == 0 and err == ""
    assert out == deep_flat_form(500) + ", level=500\n"


def test_deep_parens_level_is_answered(capsys):
    code, out, err = run(capsys, "level", DEEP_PARENS)
    assert code == 0 and err == ""
    assert out == "level=0\n"


@pytest.mark.parametrize("command, image", [
    ("phi", "4997/5"),
    ("psi", "[[1, 4997/5], [0, 1]]"),
])
def test_deep_flat_word_image_is_answered(capsys, command, image):
    # phi_eval sums the 1000 nested left letters without recursing
    code, out, err = run(capsys, command, deep_flat(1000))
    assert code == 0 and err == ""
    assert out == image + "\n"


def test_level_bound_is_inclusive(capsys):
    code, out, err = run(capsys, "level", f"h{LEVEL_BOUND}(1)")
    assert code == 0 and err == ""
    assert out == f"level={LEVEL_BOUND}\n"
    code, out, err = run(capsys, "level", f"h{LEVEL_BOUND + 1}(1)")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_commutator_level_is_answered(capsys):
    # mul and inv walk the 1000 nested left letters without recursing
    code, out, err = run(capsys, "level", f"[{deep_flat(1000)}, h1(1)]")
    assert code == 0 and err == ""
    assert out == "level=1000\n"


def test_internal_error_is_one_line_exit_5(capsys, monkeypatch, tmp_path):
    # a fault raised inside the package, in a plain command and in verify
    code, text, _ = run(capsys, "witness", "escape", "h0(1/5)", "3")
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(text)

    def broken(sys, expr):
        raise RuntimeError("internal fault\non two lines")

    monkeypatch.setattr(cli, "eval_expr", broken)
    monkeypatch.setattr(witnesses, "eval_expr", broken)
    for argv in (("reduce", "h0(1)"), ("verify", str(cert))):
        code, out, err = run(capsys, *argv)
        assert code == 5 and out == ""
        assert err == "internal error: RuntimeError: internal fault on two lines\n"


def test_huge_prime_is_accepted(capsys):
    code, out, _ = run(capsys, "reduce", "h0(1)", "--prime", str(10**18 + 3))
    assert code == 0
    assert out == "Base(1), level=0\n"


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_no_state_carries_between_calls(capsys):
    # flags, defaults and a usage error on the shared parser do not leak
    code, out, _ = run(capsys, "reduce", "h0((1,0,0))", "--instance",
                       "heisenberg", "--prime", "3", "--seed", "7", "--json")
    assert code == 0 and json.loads(out)["instance"] == "heisenberg"
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "reduce", "h1(7/5)")
    assert code == 0 and err == ""
    assert out == GOLDEN_TEXT + "\n"


def test_help_follows_columns_at_call_time(capsys, monkeypatch):
    cli.build_parser()
    pages = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc_info:
            main(["reduce", "--help"])
        assert exc_info.value.code == 0
        pages[columns] = capsys.readouterr().out
    narrow, wide = pages["40"].splitlines(), pages["200"].splitlines()
    assert wide[0].startswith("usage: amalgam reduce") and wide[0].endswith("expr")
    assert len(narrow) > len(wide)


def test_witness_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "escape", "h0(25)", "1")
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 0
    assert out.strip() == "certificate valid"


def test_witness_derived_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "derived", "3", "4",
                       "--instance", "cyclic", "--prime", "2")
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 0


def test_verify_tampered_certificate(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "escape", "h0(1/5)", "2")
    data = json.loads(out)
    data["result"]["level"] = 9
    cert_file = tmp_path / "bad.json"
    cert_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 4
    assert out.strip() == "certificate INVALID"


@pytest.mark.parametrize("spelling", [
    "identity-atom", "parenthesized", "double-spaced", "cancelling-pair"])
def test_verify_non_canonical_claim_is_invalid(capsys, tmp_path, spelling):
    # the claim names the certified element, but not in its canonical text
    _, out, _ = run(capsys, "witness", "escape", "h0(1/5)", "0")
    data = json.loads(out)
    claim = data["result"]["expr"]
    assert claim == "h1(1/5) h0(1/5) h1(4/5) h0(-1)"
    data["result"]["expr"] = {
        "identity-atom": claim + " h0(0)",
        "parenthesized": "(" + claim + ")",
        "double-spaced": claim.replace(" ", "  "),
        "cancelling-pair": claim + " h1(1) h1(1)^-1",
    }[spelling]
    cert_file = tmp_path / "spelled.json"
    cert_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 4 and err == ""
    assert out == "certificate INVALID\n"


def test_verify_huge_tampered_stage_is_invalid(capsys, tmp_path):
    _, out, _ = run(capsys, "witness", "escape", "h0(25)", "1")
    data = json.loads(out)
    data["m"] = 10**7
    cert_file = tmp_path / "huge_m.json"
    cert_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 4
    assert out.strip() == "certificate INVALID"


@pytest.mark.parametrize("field", ["result", "tree"])
def test_verify_deeply_nested_expression_is_invalid(capsys, tmp_path, field):
    _, out, _ = run(capsys, "witness", "derived", "2", "1")
    data = json.loads(out)
    if field == "result":
        data["result"]["expr"] = DEEP_PARENS
    else:
        data["inputs"]["tree"] = DEEP_PARENS
    cert_file = tmp_path / "deep.json"
    cert_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 4 and err == ""
    assert out == "certificate INVALID\n"


@pytest.mark.parametrize("d,tree", [(3, None), (2, "[[h3(1), h2(1)], h2(1)]")])
def test_verify_tree_of_other_depth_is_invalid(capsys, tmp_path, d, tree):
    # claimed "d": 2 for a valid d = 3 tree, or for a tree of no depth
    _, out, _ = run(capsys, "witness", "derived", str(d), "1")
    data = json.loads(out)
    data["d"] = 2
    if tree is not None:
        data["inputs"]["tree"] = tree
    cert_file = tmp_path / "depth.json"
    cert_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 4 and err == ""
    assert out == "certificate INVALID\n"


def spy_verify(monkeypatch):
    """Count the instances ``verify`` builds and the trees it evaluates."""
    calls = dict.fromkeys(("make_instance", "eval_expr"), 0)
    for name in calls:
        def wrapper(*args, _f=getattr(witnesses, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(witnesses, name, wrapper)
    return calls


# (instance, prime, an element h to escape from)
CERT_INSTANCES = [("dense", "5", "h0(1)"), ("heisenberg", "3", "h0((1,0,0))"),
                  ("cyclic", "2", "h0(1)")]


@pytest.mark.parametrize("kind", ["escape", "derived"])
@pytest.mark.parametrize("instance,prime,h", CERT_INSTANCES)
def test_verify_claim_its_fields_rule_out_builds_nothing(
        capsys, monkeypatch, tmp_path, instance, prime, h, kind):
    # a level not above k, or an escape level other than m + 1
    _, out, _ = run(capsys, "witness", kind, h if kind == "escape" else "2",
                    "1",
                    "--instance", instance, "--prime", prime)
    good = json.loads(out)
    level = good["result"]["level"]
    changes = [("k", level), ("k", level + 3), ("level", good["k"])]
    if kind == "escape":
        changes += [("level", level + 1), ("m", good["m"] + 1)]
    calls = spy_verify(monkeypatch)
    for i, (field, value) in enumerate(changes):
        data = json.loads(out)
        if field == "level":
            data["result"]["level"] = value
        else:
            data[field] = value
        cert_file = tmp_path / f"ruled_out_{i}.json"
        cert_file.write_text(json.dumps(data))
        code, text, err = run(capsys, "verify", str(cert_file))
        assert (code, text, err) == (4, "certificate INVALID\n", "")
    assert calls == {"make_instance": 0, "eval_expr": 0}


@pytest.mark.parametrize("kind", ["escape", "derived"])
@pytest.mark.parametrize("instance,prime,h", CERT_INSTANCES)
def test_verify_claim_above_every_atom_is_not_evaluated(
        capsys, monkeypatch, tmp_path, instance, prime, h, kind):
    # a derived claim above its tree's atoms, or a conjugator without an
    # atom at m + 1
    _, out, _ = run(capsys, "witness", kind, h if kind == "escape" else "2",
                    "1", "--instance", instance, "--prime", prime)
    data = json.loads(out)
    if kind == "escape":
        data["inputs"]["g"] = f"h{data['m']}{h[2:]}"
    else:
        data["result"]["level"] += 1
    cert_file = tmp_path / "above_atoms.json"
    cert_file.write_text(json.dumps(data))
    calls = spy_verify(monkeypatch)
    code, text, err = run(capsys, "verify", str(cert_file))
    assert (code, text, err) == (4, "certificate INVALID\n", "")
    assert calls == {"make_instance": 1, "eval_expr": 0}


def test_verify_cyclic_modulus_above_bound_is_invalid(capsys, tmp_path):
    _, out, _ = run(capsys, "witness", "derived", "1", "0",
                    "--instance", "cyclic", "--prime", "2")
    data = json.loads(out)
    data["params"]["L"] = 10**10
    cert_file = tmp_path / "huge_L.json"
    cert_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 4 and err == ""
    assert out == "certificate INVALID\n"


@pytest.mark.parametrize("param", ["chain_shift", "max_level"])
def test_verify_cyclic_bool_param_is_invalid(capsys, tmp_path, param):
    # True would build as 1, which makes this certificate valid
    _, out, _ = run(capsys, "witness", "escape", "h0(1)", "0",
                    "--instance", "cyclic", "--prime", "2")
    data = json.loads(out)
    data["params"][param] = True
    cert_file = tmp_path / "bool_param.json"
    cert_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 4 and err == ""
    assert out == "certificate INVALID\n"


def test_verify_ill_typed_seed_is_malformed(capsys, tmp_path):
    _, out, _ = run(capsys, "witness", "escape", "h0(1/5)", "2")
    data = json.loads(out)
    data["seed"] = {"n": 1}
    cert_file = tmp_path / "seed.json"
    cert_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 2 and out == ""
    assert err == "error: malformed certificate: seed must be int, got dict\n"


def test_verify_overlong_number_is_malformed(capsys, tmp_path,
                                             int_digit_limit):
    cert_file = tmp_path / "long_k.json"
    cert_file.write_text('{"type": "escape", "k": ' + "9" * 5000 + "}")
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 2 and out == ""
    assert err.startswith("error: certificate is not valid JSON: ")
    assert err.count("\n") == 1


def test_verify_deeply_nested_json_is_malformed(capsys, tmp_path):
    cert_file = tmp_path / "nested.json"
    cert_file.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 2 and out == ""
    assert err == "error: malformed certificate: JSON nests too deeply\n"


def test_verify_malformed_file(capsys, tmp_path):
    cert_file = tmp_path / "junk.json"
    cert_file.write_text("{\"type\": \"escape\"}")
    code, _, err = run(capsys, "verify", str(cert_file))
    assert code == 2
    assert "malformed" in err


def test_verify_ill_typed_field_is_malformed(capsys, tmp_path):
    _, out, _ = run(capsys, "witness", "escape", "h0(1/5)", "2")
    data = json.loads(out)
    data["k"] = "3"
    cert_file = tmp_path / "typed.json"
    cert_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 2
    assert out == ""
    assert "k must be int" in err
    assert "Traceback" not in err


def test_verify_non_utf8_file_is_malformed(capsys, tmp_path):
    cert_file = tmp_path / "utf16.json"
    cert_file.write_bytes(b"\xff\xfe" + '{"type": "escape"}'.encode("utf-16-le"))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {cert_file}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "internal error" not in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nowhere.json"))
    assert code == 2


def test_verify_json_envelope_uses_certificate_instance(capsys, tmp_path):
    _, out, _ = run(capsys, "witness", "escape", "h0((1,1,0))", "2",
                    "--instance", "heisenberg", "--prime", "3")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_file), "--json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["instance"] == "heisenberg"
    assert envelope["prime"] == 3
    assert envelope["result"]["valid"] is True


def test_check_subcommands_pass(capsys):
    for kind in ("lemma21", "axioms", "instance"):
        code, out, _ = run(capsys, "check", kind, "--samples", "40",
                           "--seed", "3")
        assert code == 0, kind
        assert "-> ok" in out


def test_check_json_envelope(capsys):
    code, out, _ = run(capsys, "check", "axioms", "--samples", "25", "--json",
                       "--instance", "cyclic", "--prime", "2", "--seed", "1")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "check axioms"
    assert envelope["result"]["ok"] is True
    assert envelope["result"]["samples"] == 25
    assert envelope["result"]["seed"] == 1


def test_seed_threads_into_certificate(capsys):
    _, out, _ = run(capsys, "witness", "derived", "1", "1", "--seed", "17")
    # text mode prints the certificate JSON itself
    assert json.loads(out)["seed"] == 17


def test_module_entry_point_subprocess(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "amalgam.cli", "reduce", "h1(7/5)",
         "--prime", "5", "--instance", "dense"],
        capture_output=True, text=True,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == GOLDEN_TEXT


# -- parsing: a leaf argv on its leaf's parser, the rest on the full parser --

COMMAND_PATHS = [
    [], ["reduce"], ["eq"], ["level"], ["phi"], ["psi"], ["verify"],
    ["witness"], ["witness", "escape"], ["witness", "derived"],
    ["witness", "frob"], ["check"], ["check", "lemma21"], ["check", "axioms"],
    ["check", "instance"], ["check", "x"], ["frobnicate"], ["-h"],
]

ARG_TOKENS = [
    "--prime", "7", "4", "x", "--prime=7", "--prime=x", "--pri", "--pri=3",
    "--instance", "dense", "heisenberg", "cyclic", "bogus", "--inst=cyclic",
    "--seed", "--seed=-1", "--json", "--js", "--json=1", "--samples", "10",
    "--samples=0", "--sam", "-h", "--help", "--he", "-hx", "--help=1", "--",
    "-1", "-5", "0", "12", "h0(1)", "h1(2/5) h0(1)", "escape", "derived",
    "reduce", "axioms", "-x", "--bogus", "-", "", "x=y", "--=",
]

junk = st.text(alphabet="-=ax1 (", max_size=4)
argvs = st.builds(
    lambda path, rest: path + rest,
    st.sampled_from(COMMAND_PATHS),
    st.lists(st.sampled_from(ARG_TOKENS) | junk, max_size=6),
)


def parse_outcome(parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs)
@example(["reduce", "h0(1)", "junk"])
@example(["eq", "a", "b", "--json", "c", "--pri=3"])
@example(["witness", "escape", "h0(1)", "2", "3"])
@example(["witness", "derived", "2", "1"])
@example(["check", "instance", "--samples", "5", "--bogus"])
@example(["check", "axioms"])
def test_leaf_parse_matches_full_parser(argv):
    full = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert parse_outcome(cli._parse_args, argv) == full


@pytest.fixture
def parses(monkeypatch):
    """The ``prog`` of each parser ``parse_known_args`` runs on, in order."""
    progs = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        progs.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return progs


@pytest.mark.parametrize("argv, prog", [
    (["level", "h1(2)"], "amalgam level"),
    (["witness", "derived", "2", "1"], "amalgam witness derived"),
])
def test_leaf_command_parses_once(capsys, parses, argv, prog):
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert parses == [prog]


@pytest.mark.parametrize("argv, code, progs", [
    (["frobnicate"], 2, ["amalgam"]),
    (["witness"], 2, ["amalgam", "amalgam witness"]),
    (["--help"], 0, ["amalgam"]),
])
def test_other_argv_reaches_the_full_parser(capsys, parses, argv, code, progs):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == code
    assert parses == progs


@pytest.mark.parametrize("argv", [
    ["level", "h1(2)"], ["witness", "derived", "2", "1"], ["witness"],
    ["frobnicate"], ["reduce", "h0(1)", "junk"],
])
def test_sys_argv_takes_the_same_route(capsys, monkeypatch, parses, argv):
    def outcome(*call):
        try:
            code = main(*call)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err, parses[:]

    given_argv = outcome(argv)
    parses.clear()
    monkeypatch.setattr(sys, "argv", ["amalgam"] + argv)
    assert outcome() == given_argv


def test_import_builds_no_parser(cli_env):
    proc = subprocess.run(
        [sys.executable, "-c",
         "from amalgam import cli; print(cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("argv, golden", [
    (("witness", "escape", "h0(1/5)", "3"), GOLDEN_WITNESS_JSON),
    (("witness", "derived", "2", "1"), GOLDEN_DERIVED_JSON),
], ids=["escape", "derived"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_witness_builds_its_certificate_dict_once(capsys, monkeypatch, argv,
                                                   golden, as_json):
    built = []
    real = witnesses._Certificate.to_json_dict

    def counting(self):
        built.append(self.type)
        return real(self)

    monkeypatch.setattr(witnesses._Certificate, "to_json_dict", counting)
    calls = spy(monkeypatch, "certificate_to_json")
    code, out, err = run(capsys, *argv, *(("--json",) if as_json else ()))
    assert code == 0 and err == ""
    assert len(built) == 1
    assert calls == {"certificate_to_json": 0 if as_json else 1}
    # text output is the golden envelope's certificate, as its file holds it
    cert = json.loads(golden)["result"]
    text = json.dumps(cert, sort_keys=True, indent=2) + "\n"
    assert out == (golden if as_json else text)


def test_heisenberg_spaced_literals_golden_text(capsys):
    code, out, err = run(capsys, "reduce", "h1(( 1, -2 ,+3 )) h0((1_000,007,0))",
                         "--instance", "heisenberg", "--prime", "3")
    assert code == 0 and err == ""
    assert out == "Alt(1; R:(1,-2,0); L:(Base((1000,7,0))); tail (0,0,3)), level=1\n"
