"""The suites catch a planted fault: each sees a broken engine fail.

A fault is planted by patching the engine function a suite calls through
its own module.  The oracle is never patched: it is the independent side
that the faulty engine is compared with.
"""

import pytest

from amalgam import suites
from amalgam.instances import make_instance
from amalgam.normalform import Alt, mul, reduce_word

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
def test_oracle_reports_a_reducer_that_drops_the_last_syllable(
        name, monkeypatch):
    sys = INSTANCES[name]
    assert suites.check_oracle(sys, 20, 5)["ok"]
    monkeypatch.setattr(suites, "reduce_word",
                        lambda s, word: reduce_word(s, word[:-1]))
    assert suites.check_oracle(sys, 20, 5)["checks"]["oracle_match"] > 0
