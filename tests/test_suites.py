"""The suites catch a planted fault: each sees a broken engine fail.

A fault is planted by patching an engine function where its caller looks
it up: a suite's own module, or the engine module that calls it.  The
oracle is never patched: it is the independent side that the faulty engine
is compared with.
"""

import pytest

from amalgam import cli, normalform, suites, witnesses
from amalgam.errors import InvalidParams
from amalgam.instances import make_instance
from amalgam.normalform import Alt, inject, mul, reduce_word

INSTANCES = {
    "dense": make_instance("dense", 5),
    "heis": make_instance("heisenberg", 3),
    "cyc": make_instance("cyclic", 2, {"L": 3}),
}
ALL = sorted(INSTANCES)


@pytest.mark.parametrize("name", ALL)
def test_axioms_report_a_product_with_an_extra_factor(name, monkeypatch):
    sys = INSTANCES[name]
    assert suites.check_axioms(sys, 20, 5)["ok"]
    extra = Alt(0, (), sys.escape_elem(0))
    assert extra != Alt(0, (), sys.factor_id())
    monkeypatch.setattr(suites, "mul",
                        lambda s, f, g: mul(s, mul(s, f, g), extra))
    checks = suites.check_axioms(sys, 20, 5)["checks"]
    assert checks["identity"] > 0
    assert checks["inverse"] > 0


@pytest.mark.parametrize("name", ALL)
def test_axioms_report_a_product_with_a_higher_level_factor(name, monkeypatch):
    sys = INSTANCES[name]
    # each product gains a level-7 letter t, above both operands' levels;
    # (ab t)c t and a(bc t)t differ unless t commutes with c
    extra = inject(sys, 7, sys.escape_elem(6))
    assert extra.level == 7
    monkeypatch.setattr(suites, "mul",
                        lambda s, f, g: mul(s, mul(s, f, g), extra))
    checks = suites.check_axioms(sys, 20, 5)["checks"]
    assert checks["assoc"] > 0
    assert checks["level_bound"] > 0


@pytest.mark.parametrize("name", ALL)
def test_oracle_reports_a_reducer_that_drops_the_last_syllable(
        name, monkeypatch):
    sys = INSTANCES[name]
    assert suites.check_oracle(sys, 20, 5)["ok"]
    monkeypatch.setattr(suites, "reduce_word",
                        lambda s, word: reduce_word(s, word[:-1]))
    assert suites.check_oracle(sys, 20, 5)["checks"]["oracle_match"] > 0


@pytest.mark.parametrize("name", ALL)
def test_oracle_reports_an_identity_test_that_always_holds(name, monkeypatch):
    sys = INSTANCES[name]
    monkeypatch.setattr(suites, "is_identity", lambda s, form: True)
    assert suites.check_oracle(sys, 20, 5)["checks"]["eq_quotient"] > 0


def test_exhaustive_oracle_reports_a_reducer_that_drops_the_last_syllable(
        monkeypatch):
    cyc = INSTANCES["cyc"]
    alphabet = [(0, 1), (1, 1), (2, 1)]
    assert suites.check_oracle_exhaustive(cyc, alphabet, 2)["ok"]
    monkeypatch.setattr(suites, "reduce_word",
                        lambda s, word: reduce_word(s, word[:-1]))
    report = suites.check_oracle_exhaustive(cyc, alphabet, 2)
    assert report["checks"]["oracle_match"] > 0


@pytest.mark.parametrize("name", ALL)
def test_homs_report_a_product_with_an_extra_factor(name, monkeypatch):
    sys = INSTANCES[name]
    assert suites.check_homs(sys, 20, 5)["ok"]
    # the escape value has a non-zero image under every standard hom
    extra = Alt(0, (), sys.escape_elem(0))
    monkeypatch.setattr(suites, "mul",
                        lambda s, f, g: mul(s, mul(s, f, g), extra))
    checks = suites.check_homs(sys, 20, 5)["checks"]
    assert checks["hom_mul"] > 0
    # only Z[1/p] values have a matrix lift
    assert (checks["psi_mul"] > 0) == (name == "dense")


@pytest.mark.parametrize("name", ALL)
def test_homs_report_an_injection_that_inverts(name, monkeypatch):
    sys = INSTANCES[name]
    monkeypatch.setattr(suites, "inject",
                        lambda s, n, x: inject(s, n, s.factor_inv(x)))
    assert suites.check_homs(sys, 20, 5)["checks"]["factor_incl"] > 0


@pytest.mark.parametrize("name", ALL)
def test_centrality_reports_a_commutator_with_a_sign_slip(name, monkeypatch):
    sys = INSTANCES[name]
    assert suites.check_centrality(sys, 20, 5)["ok"]
    # (ab)(a^-1 b) where (ab)(a^-1 b^-1) belongs
    monkeypatch.setattr(
        normalform, "commutator",
        lambda s, a, a_inv, b, b_inv: mul(s, mul(s, a, b), mul(s, a_inv, b)))
    assert suites.check_centrality(sys, 20, 5)["checks"]["central"] > 0


@pytest.mark.parametrize("name", ALL)
def test_lemma21_reports_a_product_that_loses_its_left_factor(
        name, monkeypatch):
    sys = INSTANCES[name]
    assert suites.check_lemma21(sys, 20, 5)["ok"]
    monkeypatch.setattr(witnesses, "mul", lambda s, f, g: g)
    checks = suites.check_lemma21(sys, 20, 5)["checks"]
    assert checks["conjugation_level"] > 0


def test_lemma21_needs_a_level_to_conjugate_into():
    cyc = make_instance("cyclic", 2, {"L": 3, "max_level": 0})
    with pytest.raises(InvalidParams, match="no level to conjugate into"):
        suites.check_lemma21(cyc, 5, 1)


def test_cli_check_exits_1_on_a_planted_fault(monkeypatch, capsys):
    args = ["check", "axioms", "--samples", "20", "--seed", "5",
            "--instance", "heisenberg", "--prime", "3"]
    assert cli.main(args) == 0
    extra = Alt(0, (), (1, 0, 0))
    monkeypatch.setattr(suites, "mul",
                        lambda s, f, g: mul(s, mul(s, f, g), extra))
    assert cli.main(args) == 1
    out = capsys.readouterr().out
    assert "-> FAIL" in out
