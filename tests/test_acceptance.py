"""Full-scale acceptance run.

One test per criterion, each at its stated sample size and time budget, each
printing a single PASS/FAIL line (visible with ``pytest -s`` and in the -v
test listing).  These are the numbers the package promises; the unit test
files cover the same ground at commit-friendly sizes.
"""

import json
import subprocess
import sys
import time

import pytest

from amalgam.cli import main as cli_main
from amalgam.errors import InvalidParams
from amalgam.homs import in_kernel, standard_hom
from amalgam.instances import make_instance
from amalgam.normalform import inject
from amalgam.suites import (
    check_axioms,
    check_centrality,
    check_homs,
    check_instance,
    check_lemma21,
    check_oracle,
    check_oracle_exhaustive,
)
from amalgam.witnesses import (
    certificate_from_json,
    certificate_to_json,
    derived_escape,
    escape_witness,
    verify,
)

SEED = 20260818

CONFIGS = [
    ("dense", 2, None),
    ("dense", 3, None),
    ("dense", 5, None),
    ("heisenberg", 3, None),
    ("cyclic", 2, {"L": 3}),
]

INSTANCES = [
    ("dense", 5, None),
    ("heisenberg", 3, None),
    ("cyclic", 2, {"L": 3}),
]


def _line(n, ok, text):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")


def _make(spec):
    kind, p, params = spec
    return make_instance(kind, p, params)


def test_criterion_1_group_axioms():
    t0 = time.perf_counter()
    failures = 0
    for spec in CONFIGS:
        failures += check_axioms(_make(spec), 10_000, SEED)["failures"]
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 60.0
    _line(1, ok, f"group axioms, 5 configs x 10000 triples, "
                 f"{failures} failures, {dt:.1f}s (budget 60s)")
    assert failures == 0
    assert dt < 60.0


def test_criterion_2_oracle_agreement():
    failures = 0
    total = 0
    for spec in INSTANCES:
        r = check_oracle(_make(spec), 1_000, SEED)
        failures += r["failures"]
        total += r["samples"]
    cyc = make_instance("cyclic", 2, {"L": 3})
    alphabet = [(0, 1), (0, 4), (1, 1), (1, 2), (2, 1), (2, 4)]
    ex = check_oracle_exhaustive(cyc, alphabet, 4)
    ok = failures == 0 and ex["failures"] == 0 and ex["samples"] == 1555
    _line(2, ok, f"engine vs oracle, 3 x 1000 random words "
                 f"({failures} failures) + exhaustive {ex['samples']} words "
                 f"len<=4 ({ex['failures']} failures)")
    assert failures == 0
    assert ex["samples"] == 1555
    assert ex["failures"] == 0


def test_criterion_3_conjugation_level():
    t0 = time.perf_counter()
    failures = 0
    for spec in INSTANCES:
        failures += check_lemma21(_make(spec), 10_000, SEED)["failures"]
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 120.0
    _line(3, ok, f"conjugation keeps level, 3 instances x 10000 triples, "
                 f"{failures} failures, {dt:.1f}s (budget 120s)")
    assert failures == 0
    assert dt < 120.0


def test_criterion_4_escape_certificates():
    d5 = make_instance("dense", 5)
    h3 = make_instance("heisenberg", 3)
    targets = [
        (d5, inject(d5, 0, d5.parse_value("1/5"))),
        (d5, inject(d5, 0, d5.parse_value("25"))),
        (h3, inject(h3, 0, (1, 1, 0))),
    ]
    bad = 0
    count = 0
    for sysx, h in targets:
        for k in range(0, 11):
            cert = escape_witness(sysx, h, k)
            count += 1
            if not (cert.result_level > k and verify(cert)):
                bad += 1
    t0 = time.perf_counter()
    cert = derived_escape(d5, 5, 10)
    dt = time.perf_counter() - t0
    deep_ok = cert.result_level == 11 and verify(cert) and dt < 10.0
    ok = bad == 0 and deep_ok
    _line(4, ok, f"escape witnesses, {count} certificates k<=10 "
                 f"({bad} bad) + derived d=5 k=10 at level "
                 f"{cert.result_level} in {dt:.1f}s (budget 10s)")
    assert bad == 0
    assert cert.result_level == 11
    assert verify(cert)
    assert dt < 10.0


def test_criterion_5_homomorphisms():
    d5 = make_instance("dense", 5)
    r = check_homs(d5, 10_000, SEED)
    hom = standard_hom(d5)
    kernel_bad = 0
    for d in range(1, 4):
        cert = derived_escape(d5, d, 2)
        from amalgam.wordexpr import eval_expr, parse_expr
        g = eval_expr(d5, parse_expr(cert.result_expr, d5))
        if not in_kernel(g, hom):
            kernel_bad += 1
    ok = r["failures"] == 0 and kernel_bad == 0
    _line(5, ok, f"homomorphisms, 10000 product pairs + 1000/level "
                 f"inclusions + 10000 matrix pairs ({r['failures']} failures), "
                 f"derived results in kernel ({kernel_bad} outside)")
    assert r["failures"] == 0
    assert kernel_bad == 0


def test_criterion_6_centrality():
    failures = 0
    for spec in INSTANCES:
        failures += check_centrality(_make(spec), 10_000, SEED)["failures"]
    ok = failures == 0
    _line(6, ok, f"base chain centrality, 3 instances x 10000 triples, "
                 f"{failures} failures")
    assert failures == 0


def test_criterion_7_instance_conformance():
    failures = 0
    for spec in INSTANCES:
        failures += check_instance(_make(spec), 2_000, SEED)["failures"]
    rejected = False
    try:
        make_instance("cyclic", 2, {"L": 3, "chain_shift": 0})
    except InvalidParams:
        rejected = True
    ok = failures == 0 and rejected
    _line(7, ok, f"factor-system contract, 3 instances x 2000 samples "
                 f"({failures} failures); degenerate chain rejected at "
                 f"construction: {rejected}")
    assert failures == 0
    assert rejected


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


def _cli_bytes(env, *argv):
    proc = subprocess.run(
        [sys.executable, "-m", "amalgam.cli", *argv],
        capture_output=True, text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_cli_golden_and_round_trips(cli_env):
    got_reduce = _cli_bytes(cli_env, "reduce", "h1(7/5)", "--prime", "5",
                            "--instance", "dense", "--json")
    got_witness = _cli_bytes(cli_env, "witness", "escape", "h0(1/5)", "3",
                             "--json")
    golden_ok = got_reduce == GOLDEN_JSON and got_witness == GOLDEN_WITNESS_JSON

    import random

    from amalgam.normalform import is_identity
    from amalgam.suites import random_form

    d5 = make_instance("dense", 5)
    h3 = make_instance("heisenberg", 3)
    cyc = make_instance("cyclic", 2, {"L": 3})
    bad = 0
    count = 0
    for i in range(50):
        sysx = (d5, h3, cyc)[i % 3]
        h = random_form(sysx, random.Random(SEED + i), 6, 3)
        if is_identity(sysx, h):
            h = inject(sysx, 0, sysx.escape_elem(0))
        cert = escape_witness(sysx, h, i % 7, seed=i)
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        count += 1
        if not (verify(back) and certificate_to_json(back) == text):
            bad += 1
    for i in range(50):
        sysx = (d5, h3, cyc)[i % 3]
        cert = derived_escape(sysx, i % 4, i % 5, seed=i)
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        count += 1
        if not (verify(back) and certificate_to_json(back) == text):
            bad += 1

    ok = golden_ok and bad == 0
    _line(8, ok, f"CLI golden outputs byte-identical: {golden_ok}; "
                 f"{count} certificate round-trips ({bad} bad)")
    assert got_reduce == GOLDEN_JSON
    assert got_witness == GOLDEN_WITNESS_JSON
    assert bad == 0
