"""Certificates: generation, frozen examples, replay, and tamper detection."""

import json
import random
import time

import pytest

from amalgam import wordexpr
from amalgam.errors import (
    IdentityInput,
    InvalidParams,
    PreconditionViolated,
)
from amalgam.instances import make_instance
from amalgam.normalform import inject, is_identity, reduce_word
from amalgam.padic import PAdicRational
from amalgam.suites import check_lemma21, sample_lemma21_inputs
from amalgam.witnesses import (
    DerivedCertificate,
    EscapeCertificate,
    certificate_from_json,
    certificate_to_json,
    derived_escape,
    escape_witness,
    lemma21_check,
    verify,
)


@pytest.fixture(scope="module")
def dense():
    return make_instance("dense", 5)


@pytest.fixture(scope="module")
def heis():
    return make_instance("heisenberg", 3)


def P(num, k=0):
    return PAdicRational(num, k, 5)


def test_conjugation_keeps_level_base_case(dense):
    h = inject(dense, 0, P(1, 1))
    g = inject(dense, 1, P(1, 1))
    assert lemma21_check(dense, h, g, 0) == (1, 1)


def test_conjugation_keeps_level_one_up(dense):
    h = inject(dense, 1, P(1, 1))
    g = inject(dense, 2, P(1))
    assert lemma21_check(dense, h, g, 1) == (2, 2)


def test_h_inside_base_subgroup_rejected(dense):
    h = inject(dense, 0, P(5))
    g = inject(dense, 2, P(1))
    with pytest.raises(PreconditionViolated, match="B_1"):
        lemma21_check(dense, h, g, 1)


def test_h_level_too_high_rejected(dense):
    h = inject(dense, 2, P(1))
    g = inject(dense, 2, P(1))
    with pytest.raises(PreconditionViolated, match="level\\(h\\)"):
        lemma21_check(dense, h, g, 1)


def test_g_level_wrong_rejected(dense):
    h = inject(dense, 0, P(1, 1))
    g = inject(dense, 3, P(1))
    with pytest.raises(PreconditionViolated, match="level\\(g\\)"):
        lemma21_check(dense, h, g, 1)


def test_huge_stage_rejected_before_base_test(dense):
    # the level of g refuses m before the B_m test could build p**m
    h = inject(dense, 0, P(25))
    g = inject(dense, 1, P(1))
    t0 = time.perf_counter()
    with pytest.raises(PreconditionViolated, match="level\\(g\\)"):
        lemma21_check(dense, h, g, 10**7)
    assert time.perf_counter() - t0 < 0.5


def test_preconditioned_sampler_always_valid(dense, heis):
    for sysx in (dense, heis):
        rng = random.Random(5)
        for _ in range(100):
            h, g, m = sample_lemma21_inputs(sysx, rng)
            assert lemma21_check(sysx, h, g, m) == (m + 1, m + 1)


def test_lemma21_suite_clean(dense):
    rep = check_lemma21(dense, 300, 11)
    assert rep["samples"] == 300
    assert rep["failures"] == 0
    assert rep["ok"]
    assert rep["seed"] == 11
    assert rep["instance"]["instance"] == "dense"


def test_escape_from_deep_base_value(dense):
    # 1/5 already sits outside B_0, so only k pushes the level
    h = inject(dense, 0, P(1, 1))
    cert = escape_witness(dense, h, 3)
    assert cert.m == 3
    assert cert.g_expr == "h4(1)"
    assert cert.result_level == 4
    assert verify(cert)


def test_escape_bound_dominated_by_base_depth(dense):
    # 25 lies in B_2, so m must climb to 3 even though k is only 1
    h = inject(dense, 0, P(25))
    cert = escape_witness(dense, h, 1)
    assert cert.m == 3
    assert cert.result_level == 4
    assert verify(cert)


def test_escape_heisenberg(heis):
    h = inject(heis, 0, (1, 1, 0))
    cert = escape_witness(heis, h, 5)
    assert cert.result_level == cert.m + 1 > 5
    assert verify(cert)


def test_escape_identity_rejected(dense):
    with pytest.raises(IdentityInput):
        escape_witness(dense, reduce_word(dense, []), 2)


def test_escape_of_high_level_element(dense):
    h = reduce_word(dense, [(2, P(1, 1)), (1, P(1, 1))])
    cert = escape_witness(dense, h, 0)
    assert cert.m == h.level
    assert cert.result_level == h.level + 1
    assert verify(cert)


@pytest.mark.parametrize("k", [-1, -7])
def test_escape_negative_bound_rejected(dense, k):
    with pytest.raises(InvalidParams, match="k >= 0"):
        escape_witness(dense, inject(dense, 0, P(1, 1)), k)


@pytest.mark.parametrize("d,k", [(-1, 0), (-5, 3), (2, -1), (-1, -1)])
def test_derived_negative_arguments_rejected(dense, d, k):
    with pytest.raises(InvalidParams, match="d >= 0 and k >= 0"):
        derived_escape(dense, d, k)


def test_derived_depth_above_cap_rejected(dense):
    with pytest.raises(InvalidParams, match="d <= 8"):
        derived_escape(dense, 9, 0)


def test_derived_depth_zero_is_single_leaf(dense):
    cert = derived_escape(dense, 0, 2)
    assert cert.tree_expr == "h3(1)"
    assert cert.result_level == 3
    assert verify(cert)


def test_derived_tree_shape_and_level(dense):
    cert = derived_escape(dense, 3, 4)
    assert cert.result_level == 5
    assert cert.tree_expr.count("[") == 2**3 - 1
    assert verify(cert)


def test_derived_level_floor_wins_over_depth(dense):
    cert = derived_escape(dense, 2, 7)
    assert cert.result_level == 8
    assert verify(cert)


def test_derived_depth_wins_over_level_floor(dense):
    cert = derived_escape(dense, 4, 1)
    assert cert.result_level == 5
    assert verify(cert)


def test_derived_on_finite_cyclic():
    cyc = make_instance("cyclic", 2, {"L": 3})
    cert = derived_escape(cyc, 2, 2)
    assert cert.result_level == 3
    assert verify(cert)


def test_broken_system_exhausts_retries(dense):
    broken = make_instance("dense", 5)
    broken.escape_elem = lambda n: PAdicRational.zero(5)
    with pytest.raises(PreconditionViolated, match="escape_elem"):
        derived_escape(broken, 1, 1)


def test_json_round_trip_preserves_everything(dense):
    for cert in (escape_witness(dense, inject(dense, 0, P(1, 1)), 3, seed=9),
                 derived_escape(dense, 2, 3, seed=9)):
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert type(back) is type(cert)
        assert back.to_json_dict() == cert.to_json_dict()
        assert back.seed == 9
        assert verify(back)


def test_verify_replays_from_serialized_data_only(dense):
    cert = escape_witness(dense, inject(dense, 0, P(3, 1)), 2)
    data = json.loads(certificate_to_json(cert))
    fresh = certificate_from_json(json.dumps(data))
    assert verify(fresh)


def _tamper(cert, **changes):
    data = cert.to_json_dict()
    for dotted, value in changes.items():
        node = data
        parts = dotted.split(".")
        for key in parts[:-1]:
            node = node[key]
        node[parts[-1]] = value
    return certificate_from_json(json.dumps(data))


def test_tampered_result_level_fails(dense):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)
    assert not verify(_tamper(cert, **{"result.level": 7}))


def test_tampered_result_expr_fails(dense):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)
    bad = _tamper(cert, **{"result.expr": "h4(2)"})
    assert not verify(bad)


def test_tampered_bound_fails(dense):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)
    assert not verify(_tamper(cert, k=4))


def test_tampered_stage_fails(dense):
    cert = escape_witness(dense, inject(dense, 0, P(25)), 1)
    assert not verify(_tamper(cert, m=1))


def test_tampered_huge_stage_fails_fast(dense):
    # the level checks refuse m before the B_m test could build p**m
    cert = escape_witness(dense, inject(dense, 0, P(25)), 1)
    bad = _tamper(cert, m=10**7)
    t0 = time.perf_counter()
    assert not verify(bad)
    assert time.perf_counter() - t0 < 1.0


def test_tampered_conjugator_fails(dense):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)
    assert not verify(_tamper(cert, **{"inputs.g": "h3(1)"}))


def test_tampered_identity_h_fails(dense):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)
    assert not verify(_tamper(cert, **{"inputs.h": "h0(0)"}))


def test_tampered_tree_depth_fails(dense):
    cert = derived_escape(dense, 2, 3)
    assert not verify(_tamper(cert, d=3))


def test_lopsided_tree_fails(dense):
    cert = derived_escape(dense, 2, 3)
    bad = _tamper(cert, **{"inputs.tree": "[[h4(1), h3(1)], h2(1)]"})
    assert not verify(bad)


def test_commutator_hidden_in_leaf_fails(dense):
    cert = derived_escape(dense, 1, 3)
    # a product leaf smuggling a commutator is not a depth-1 tree
    bad = _tamper(cert, **{"inputs.tree": "[h4(1), h3(1) [h2(1), h1(1)]]"})
    assert not verify(bad)
    # nor is a bare commutator wrapped in parens to fake a deeper tree
    bad2 = _tamper(cert, **{"inputs.tree": "[h4(1), ([h3(1), h2(1)])]"})
    assert not verify(bad2)


def test_verify_does_not_expand_commutators(dense, monkeypatch):
    cert = derived_escape(dense, 6, 0)
    result_word = wordexpr.expr_to_word(
        dense, wordexpr.parse_expr(cert.result_expr, dense))
    counts = []
    reduce = wordexpr.reduce_word

    def counting(sys, word):
        counts.append(len(word))
        return reduce(sys, word)

    monkeypatch.setattr(wordexpr, "reduce_word", counting)
    assert verify(cert)
    # lowered, the tree alone is 4**6 syllables; evaluated on its structure
    # only the commutator-free result and the 2**6 one-atom leaves are
    assert counts == [len(result_word)] + [1] * 2**6
    assert sum(counts) < 4**6


def test_identity_valued_tree_fails(dense):
    cert = derived_escape(dense, 1, 0)
    data = cert.to_json_dict()
    data["inputs"]["tree"] = "[h0(1), h0(2)]"
    data["result"]["expr"] = "h0(0)"
    data["result"]["level"] = 0
    assert not verify(certificate_from_json(json.dumps(data)))


def test_tampered_instance_fails(dense):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)
    assert not verify(_tamper(cert, prime=3))


def test_malformed_certificate_rejected():
    with pytest.raises(InvalidParams):
        certificate_from_json("{\"type\": \"escape\"}")
    with pytest.raises(InvalidParams):
        certificate_from_json("{\"type\": \"sideways\"}")
    with pytest.raises(InvalidParams):
        certificate_from_json("not json at all")


@pytest.mark.parametrize("kind,field,value", [
    ("escape", "instance", 5),
    ("escape", "prime", "5"),
    ("escape", "prime", True),
    ("escape", "params", []),
    ("escape", "k", "3"),
    ("escape", "k", 3.0),
    ("escape", "m", None),
    ("escape", "result.level", False),
    ("escape", "result.expr", ["h4(1)"]),
    ("escape", "inputs.h", 1),
    ("escape", "inputs.g", {"h": 4}),
    ("derived", "d", "2"),
    ("derived", "inputs.tree", None),
])
def test_ill_typed_certificate_field_rejected(dense, kind, field, value):
    if kind == "escape":
        cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)
    else:
        cert = derived_escape(dense, 2, 3)
    with pytest.raises(InvalidParams, match="must be"):
        _tamper(cert, **{field: value})


@pytest.mark.parametrize("top", ["[]", "\"escape\"", "3", "null"])
def test_certificate_top_level_must_be_object(top):
    with pytest.raises(InvalidParams, match="top level must be dict"):
        certificate_from_json(top)


def test_verify_lets_internal_errors_propagate(dense, monkeypatch):
    import amalgam.witnesses as witnesses

    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3)

    def broken(sys, expr):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(witnesses, "eval_expr", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        verify(cert)


def test_certificate_schema_fields(dense):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 3, seed=4)
    d = cert.to_json_dict()
    assert set(d) == {"type", "instance", "prime", "params", "inputs",
                      "m", "k", "result", "seed"}
    assert d["type"] == "escape"
    assert set(d["inputs"]) == {"h", "g"}
    assert set(d["result"]) == {"expr", "level"}

    dd = derived_escape(dense, 1, 1).to_json_dict()
    assert set(dd) == {"type", "instance", "prime", "params", "inputs",
                       "d", "k", "result", "seed"}
    assert set(dd["inputs"]) == {"tree"}
