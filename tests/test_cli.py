"""Command-line behavior: golden outputs, exit codes, round trips."""

import json
import subprocess
import sys

import pytest

from amalgam.cli import main

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


def test_psi_command(capsys):
    code, out, _ = run(capsys, "psi", "h0(3/5)")
    assert code == 0
    assert out.strip() == "[[1, 3/5], [0, 1]]"


def test_psi_off_dense_is_precondition_error(capsys):
    code, _, err = run(capsys, "psi", "h0((1,0,0))",
                       "--instance", "heisenberg", "--prime", "3")
    assert code == 3
    assert "error" in err


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


DEEP_FLAT = " ".join(f"h{n}(1)" for n in range(500, 1, -1)) + " h1(1/5) h0(1/5)"
DEEP_PARENS = "(" * 1200 + "h0(1/5)" + ")" * 1200


@pytest.mark.parametrize("argv", [
    ("reduce", DEEP_FLAT),
    ("level", DEEP_PARENS),
    ("witness", "derived", "12", "0"),
    ("reduce", "h0(1)", "--prime", str(2**64 + 13)),
    ("reduce", "h0(1)", "--prime", str(1000003 * 1000033)),
])
def test_hostile_input_is_precondition_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deep_flat_word_level_is_answered(capsys):
    code, out, _ = run(capsys, "level", DEEP_FLAT)
    assert code == 0
    assert out == "level=500\n"


def test_huge_prime_is_accepted(capsys):
    code, out, _ = run(capsys, "reduce", "h0(1)", "--prime", str(10**18 + 3))
    assert code == 0
    assert out == "Base(1), level=0\n"


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


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


def test_verify_huge_tampered_stage_is_invalid(capsys, tmp_path):
    _, out, _ = run(capsys, "witness", "escape", "h0(25)", "1")
    data = json.loads(out)
    data["m"] = 10**7
    cert_file = tmp_path / "huge_m.json"
    cert_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 4
    assert out.strip() == "certificate INVALID"


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
