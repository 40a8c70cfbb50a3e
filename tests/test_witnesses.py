"""Certificates: generation, frozen examples, replay, and tamper detection."""

import hashlib
import json
import random
import time

import pytest

from amalgam import witnesses, wordexpr
from amalgam.errors import (
    AmalgamError,
    IdentityInput,
    InvalidParams,
    PreconditionViolated,
)
from amalgam.instances import make_instance
from amalgam.normalform import (
    Alt,
    identity,
    inject,
    inv,
    is_identity,
    mul,
    reduce_word,
)
from amalgam.oracle import naive_reduce
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


INSTANCES = [("dense", 5, None), ("heisenberg", 3, None),
             ("cyclic", 2, {"L": 3})]


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


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_huge_stage_makes_no_base_test_at_its_level(name, p, params):
    # _conjugate checks the levels before it asks whether h lies in B_m:
    # at m = 10**7 no B_n test at a level of m or more is made
    sysx = make_instance(name, p, params)
    huge = []
    in_base = sysx.in_base

    def recording(n, x):
        if n >= 10**7:
            huge.append(n)
            return False  # unanswered: p**n alone could take seconds
        return in_base(n, x)

    h = inject(sysx, 0, sysx.escape_elem(0))
    g = inject(sysx, 1, sysx.escape_elem(0))
    sysx.in_base = recording
    for check in (lemma21_check, witnesses._conjugate):
        with pytest.raises(PreconditionViolated, match="level\\(g\\)"):
            check(sysx, h, g, 10**7)
    assert huge == []


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


@pytest.mark.parametrize("d,k", [(1, 0), (3, 0), (2, 5)])
@pytest.mark.parametrize("which", ["deepest", "top"])
def test_every_leaf_level_is_checked(d, k, which):
    # escape_elem fails at one leaf level only: the deepest leaves' (top - d)
    # or the leftmost leaf's (top)
    top = max(k, d)
    bad = top - d if which == "deepest" else top
    broken = make_instance("dense", 5)
    escape_elem = broken.escape_elem
    broken.escape_elem = lambda n: (PAdicRational.zero(5) if n == bad
                                    else escape_elem(n))
    message = rf"escape_elem\({bad}\) failed to reach level {bad + 1}"
    with pytest.raises(PreconditionViolated, match=message):
        derived_escape(broken, d, k)


def test_root_level_is_checked_after_evaluation(dense, monkeypatch):
    monkeypatch.setattr(witnesses, "eval_expr", lambda sys, e: identity(sys))
    with pytest.raises(PreconditionViolated, match="dropped to level 0"):
        derived_escape(dense, 2, 0)


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
    counts = []
    reduce = wordexpr.reduce_word
    injected = []
    inject_atom = wordexpr.inject
    parsed = []
    parse = witnesses.parse_expr

    def counting(sys, word):
        counts.append(len(word))
        return reduce(sys, word)

    def injecting(sys, n, x):
        injected.append(n)
        return inject_atom(sys, n, x)

    def recording(src, sys):
        parsed.append(src)
        return parse(src, sys)

    monkeypatch.setattr(wordexpr, "reduce_word", counting)
    monkeypatch.setattr(wordexpr, "inject", injecting)
    monkeypatch.setattr(witnesses, "parse_expr", recording)
    assert verify(cert)
    # lowered, the tree alone is 4**6 syllables; evaluated on its structure
    # only its leaves are, each distinct one by one inject (the 2**6 leaves
    # hold 7 atoms, one per level 1..7), no word is reduced, and the claim
    # is compared as text
    assert counts == []
    assert sorted(injected) == list(range(1, 8))
    assert parsed == [cert.tree_expr]
    assert cert.result_expr not in parsed


CANONICAL_CLAIM = "h1(1/5) h0(1/5) h1(4/5) h0(-1)"
# spellings of the same element as CANONICAL_CLAIM, none of them canonical
OTHER_SPELLINGS = {
    "identity-atom": CANONICAL_CLAIM + " h0(0)",
    "parenthesized": "(" + CANONICAL_CLAIM + ")",
    "double-spaced": CANONICAL_CLAIM.replace(" ", "  "),
    "cancelling-pair": CANONICAL_CLAIM + " h1(1) h1(1)^-1",
}


@pytest.mark.parametrize("spelling", sorted(OTHER_SPELLINGS))
def test_verify_refuses_non_canonical_claim(dense, spelling):
    cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 0)
    assert cert.result_expr == CANONICAL_CLAIM
    assert verify(cert)
    claim = OTHER_SPELLINGS[spelling]
    # the claim denotes the certified element, in other text
    parsed = wordexpr.eval_expr(dense, wordexpr.parse_expr(claim, dense))
    assert parsed == wordexpr.eval_expr(
        dense, wordexpr.parse_expr(CANONICAL_CLAIM, dense))
    assert not verify(_tamper(cert, **{"result.expr": claim}))


def test_verify_checks_levels_before_rendering(dense, monkeypatch):
    cert = derived_escape(dense, 6, 0)
    level = cert.result_level

    def refuse(sys, form):
        raise RuntimeError("result rendered")

    monkeypatch.setattr(witnesses, "form_expr_str", refuse)
    for tampered in (level - 1, level + 1, 0):
        assert not verify(_tamper(cert, **{"result.level": tampered}))


def reference_tree(sys, j, L):
    """_build_tree's (expr, form) with [a, b] computed as (ab)(ba)^-1.

    The expr is a tree-shaped twin of _build_tree's DAG: a fresh node at
    each of its 2**(j+1) - 1 places, equal subtrees equal but distinct
    objects down to the values.
    """
    if j == 0:
        x = sys.escape_elem(L)
        return wordexpr.AtomE(L + 1, x), inject(sys, L + 1, x)
    left_expr, a = reference_tree(sys, j - 1, L)
    right_expr, b = reference_tree(sys, j - 1, L - 1)
    form = mul(sys, mul(sys, a, b), inv(sys, mul(sys, b, a)))
    return wordexpr.CommE(left_expr, right_expr), form


@pytest.mark.parametrize("name,p,params", [
    ("dense", 5, None), ("heisenberg", 3, None), ("cyclic", 2, {"L": 3})])
def test_derived_certificate_matches_inverting_reference(name, p, params):
    sys = make_instance(name, p, params)
    for d in range(1, 7):
        tree, form = reference_tree(sys, d, d)
        want = DerivedCertificate(
            **sys.descriptor(), tree_expr=wordexpr.expr_str(sys, tree), d=d,
            k=0, result_expr=wordexpr.form_expr_str(sys, form),
            result_level=form.level)
        assert certificate_to_json(derived_escape(sys, d, 0)) == \
            certificate_to_json(want)


# -- the derived tree as a DAG ------------------------------------------------


def node_objects(tree):
    """The distinct node objects of a commutator tree, by ``id``."""
    nodes, stack = {id(tree): tree}, [tree]
    while stack:
        node = stack.pop()
        if type(node) is wordexpr.CommE:
            for kid in (node.a, node.b):
                if id(kid) not in nodes:
                    nodes[id(kid)] = kid
                    stack.append(kid)
    return nodes


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_derived_tree_is_built_as_a_dag(name, p, params, count_calls):
    # work-count guard: one node per distinct subtree, (d+1)(d+2)/2 = 28 at
    # d = 6, for the 2**(d+1) - 1 = 127 places of the tree; its parsed text
    # is the same DAG, the 7 distinct atoms under 21 distinct commutators
    sys = make_instance(name, p, params)
    tree = witnesses._build_tree(sys, 6, 6)
    text = wordexpr.expr_str(sys, tree)
    parsed = wordexpr.parse_expr(text, sys)
    twin = reference_tree(sys, 6, 6)[0]
    assert len(node_objects(tree)) == 28
    nodes = node_objects(parsed).values()
    assert sum(type(n) is wordexpr.AtomE for n in nodes) == 7
    assert sum(type(n) is wordexpr.CommE for n in nodes) == 21
    assert len(nodes) == 28
    # both are evaluated with one product per distinct commutator
    want = wordexpr.eval_expr(sys, tree)
    for e in (tree, parsed):
        form, calls = count_calls(wordexpr._combine,
                                  lambda: wordexpr.eval_expr(sys, e))
        assert form == want and calls == 21
    assert len(node_objects(twin)) == 127
    assert wordexpr.expr_str(sys, parsed) == wordexpr.expr_str(sys, twin) \
        == text


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_tree_shaped_twin_gives_the_same_certificate(name, p, params):
    sys = make_instance(name, p, params)
    for d in range(7):
        top = max(d, 3)
        twin = reference_tree(sys, d, top)[0]
        form = wordexpr.eval_expr(sys, twin)
        dag = witnesses._build_tree(sys, d, top)
        assert form == wordexpr.eval_expr(sys, dag)
        want = DerivedCertificate(
            **sys.descriptor(), tree_expr=wordexpr.expr_str(sys, twin), d=d,
            k=3, result_expr=wordexpr.form_expr_str(sys, form),
            result_level=form.level)
        assert certificate_to_json(derived_escape(sys, d, 3)) == \
            certificate_to_json(want)


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_derived_escape_draws_each_leaf_value_once(name, p, params,
                                                   count_calls):
    # work-count guard: 7 leaf-level checks, 1 printable check, 7 atoms
    sys = make_instance(name, p, params)
    _, calls = count_calls(type(sys).escape_elem,
                           lambda: derived_escape(sys, 6, 3))
    assert calls == 7 + 1 + 7


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_derived_escape_injects_each_leaf_once(name, p, params, count_calls):
    # work-count guard: the leaf checks test B_L without building a form,
    # so only evaluation injects, once per atom of the 7-atom tree
    sys = make_instance(name, p, params)
    _, calls = count_calls(inject, lambda: derived_escape(sys, 6, 3))
    assert calls == 7


# Ceilings on the calls into the package (``count_package_calls``) that
# derived_escape(sys, 6, 3) and verify of its JSON round trip make: the
# counts measured on Python 3.10.13 and 3.11.7, which agree, dense 4,158 /
# 4,329, heisenberg 3,869 / 4,024 and cyclic 3,860 / 4,020, plus 2%,
# rounded up.  Python 3.12.1 and 3.13.0 inline list comprehensions and
# count 1 or 2 fewer on each.  A parser that shares no commutators makes
# verify evaluate 63 of them instead of 21 (6,532 calls on dense), which
# fails its ceiling.  A change that needs more calls raises its ceiling
# and says why.
CALL_CEILINGS = {
    "dense": (4242, 4416),
    "heisenberg": (3947, 4105),
    "cyclic": (3938, 4101),
}


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_derived_certificate_stays_under_its_call_ceilings(
        name, p, params, count_package_calls):
    sys = make_instance(name, p, params)
    # warm the printers' per-level texts, which the first call fills in
    derived_escape(sys, 6, 3)
    cert, generated = count_package_calls(lambda: derived_escape(sys, 6, 3))
    text = certificate_to_json(cert)
    ok, verified = count_package_calls(
        lambda: verify(certificate_from_json(text)))
    assert ok
    gen_ceiling, verify_ceiling = CALL_CEILINGS[name]
    assert generated <= gen_ceiling and verified <= verify_ceiling


# SHA-256 of the JSON texts of derived_escape(sys, d, k), concatenated for
# d = 0..8 and, at each d, k = 0 then 3: computed before evaluation and
# printing shared repeated subtrees, so that both stay byte-identical.
DERIVED_GOLDEN = {
    ("dense", 5, None):
        "27f0d0d62087d5d52b02065ad8e8ac6d7f2861370fe5e3881f46adf7a6898ce6",
    ("dense", 3, None):
        "b73d2f43fb48057d2527a0d170026830e209f3acaa89a3885c67fb6c4796ddef",
    ("heisenberg", 3, None):
        "dc7d178a5b039af7468cb95c763d9c9a57c45bcbcef06b8ca65992f72265bbde",
    ("cyclic", 2, (("L", 3),)):
        "17b8528e36bc4d82b840d11dfd964fd34d62edf92f1c87c556f2e6adb2948b4d",
}


@pytest.mark.parametrize("config", sorted(DERIVED_GOLDEN, key=str))
def test_derived_certificates_match_golden(config):
    name, p, params = config
    sys = make_instance(name, p, dict(params or ()))
    digest = hashlib.sha256()
    for d in range(9):
        for k in (0, 3):
            cert = derived_escape(sys, d, k)
            digest.update(certificate_to_json(cert).encode())
    assert digest.hexdigest() == DERIVED_GOLDEN[config]


def test_derived_escape_inverts_only_leaves(dense, monkeypatch):
    # generating and replaying a depth-6 tree inverts one-atom forms only:
    # every commutator is built from its operands' carried inverses
    inverted = []

    def recording(sys, form):
        inverted.append(form)
        return inv(sys, form)

    monkeypatch.setattr(witnesses, "inv", recording)
    monkeypatch.setattr(wordexpr, "inv", recording)
    cert = derived_escape(dense, 6, 0)
    generated = len(inverted)
    assert verify(cert)
    assert generated and len(inverted) > generated
    for form in inverted:
        assert form.level == 0 or (
            len(form.letters) == 1 and type(form.letters[0]) is not Alt)


def test_escape_inverts_only_the_conjugator(dense, monkeypatch):
    # generating and replaying an escape certificate inverts the one-atom g
    # once each; the multi-letter h is never inverted
    inverted = []

    def recording(sys, form):
        inverted.append(form)
        return inv(sys, form)

    monkeypatch.setattr(witnesses, "inv", recording)
    monkeypatch.setattr(wordexpr, "inv", recording)
    h = reduce_word(dense, [(2, P(1, 1)), (1, P(3, 1)), (0, P(2))])
    cert = escape_witness(dense, h, 1)
    assert verify(cert)
    g = inject(dense, cert.m + 1, dense.escape_elem(cert.m))
    assert inverted == [g, g]
    # lemma21_check, which shares the conjugation step, keeps its contract
    for sysx in (dense, make_instance("cyclic", 2, {"L": 3})):
        rng = random.Random(8)
        for _ in range(50):
            h, g, m = sample_lemma21_inputs(sysx, rng)
            assert lemma21_check(sysx, h, g, m) == (m + 1, m + 1)


def _refuse_parsing(monkeypatch):
    def refuse(*args):
        raise RuntimeError("expression parsed")

    monkeypatch.setattr(witnesses, "parse_expr", refuse)
    monkeypatch.setattr(witnesses, "eval_expr", refuse)


@pytest.mark.parametrize("kind,field,value", [
    ("escape", "k", -1),
    ("derived", "k", -1),
    ("derived", "d", -1),
    ("derived", "d", 9),
])
def test_verify_refuses_what_generators_refuse(dense, monkeypatch, kind,
                                               field, value):
    if kind == "escape":
        cert = escape_witness(dense, inject(dense, 0, P(1, 1)), 0)
    else:
        cert = derived_escape(dense, 2, 0)
    bad = _tamper(cert, **{field: value})
    _refuse_parsing(monkeypatch)
    assert not verify(bad)


def test_verify_refuses_depth_above_cap_unevaluated(dense, monkeypatch):
    # a well-formed depth-12 tree (37 KB) would take seconds to evaluate;
    # it is refused on its claimed depth alone
    tree = witnesses._build_tree(dense, 12, 12)
    assert tree.depth == 12
    cert = DerivedCertificate(
        **dense.descriptor(), tree_expr=wordexpr.expr_str(dense, tree), d=12,
        k=0, result_expr="h13(1)", result_level=13)
    cert = certificate_from_json(certificate_to_json(cert))
    _refuse_parsing(monkeypatch)
    assert not verify(cert)


@pytest.mark.parametrize("tree", [None, "[[h3(1), h2(1)], h2(1)]"])
def test_depth_other_than_the_trees_fails_unevaluated(dense, monkeypatch,
                                                      tree):
    # a valid d = 3 certificate claimed as d = 2, and a tree that is no
    # perfect commutator tree, are refused on the depth before evaluation
    cert = derived_escape(dense, 3 if tree is None else 2, 1)
    assert verify(cert)
    bad = _tamper(cert, d=2, **({} if tree is None else {"inputs.tree": tree}))
    monkeypatch.setattr(witnesses, "eval_expr", None)
    assert not verify(bad)


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
    ("escape", "seed", {"n": 1}),
    ("derived", "seed", "7"),
    ("escape", "seed", True),
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


def reference_verify(cert):
    """``verify`` replaying everything before it compares the claimed level.

    The body ``verify`` had before it refused claims its fields, or its
    tree's highest atom, rule out; the verdicts must not differ.
    """
    escape = type(cert) is EscapeCertificate
    try:
        witnesses._check_bounds(cert.k, None if escape else cert.d)
        sys = make_instance(cert.instance, cert.prime, cert.params)
        if escape:
            h = wordexpr.eval_expr(sys, wordexpr.parse_expr(cert.h_expr, sys))
            g = wordexpr.eval_expr(sys, wordexpr.parse_expr(cert.g_expr, sys))
            # the identity lies in every B_m, so it fails the hypotheses
            result = witnesses._conjugate(sys, h, g, cert.m)
            if result.level != cert.m + 1:
                return False
        else:
            tree = wordexpr.parse_expr(cert.tree_expr, sys)
            # a perfect commutator tree of depth d with commutator-free leaves
            if tree.depth != cert.d:
                return False
            result = wordexpr.eval_expr(sys, tree)
            if is_identity(sys, result):
                return False
        return (result.level == cert.result_level > cert.k
                and wordexpr.form_expr_str(sys, result) == cert.result_expr)
    except AmalgamError:
        return False


def sample_certificates(sysx):
    """derived_escape at d 1..5, k 0 and 3, and escape_witness of a few h."""
    certs = [derived_escape(sysx, d, k) for d in range(1, 6) for k in (0, 3)]
    rng = random.Random(21)
    for k in (0, 1, 3):
        for length in (1, 3):
            h = identity(sysx)
            while is_identity(sysx, h):
                h = reduce_word(sysx, [
                    (n, sysx.sample(n, rng))
                    for n in (rng.randint(0, 3) for _ in range(length))])
            certs.append(escape_witness(sysx, h, k))
    return certs


def _conjugator_at(cert, n):
    """The escape certificate's one-atom conjugator moved to level n."""
    return f"h{n}" + cert.g_expr[cert.g_expr.index("("):]


def perturbations(cert):
    """(label, field changes) of one certificate, the original first."""
    level, k = cert.result_level, cert.k
    own = "m" if type(cert) is EscapeCertificate else "d"
    value = getattr(cert, own)
    changes = [("original", {})]
    for delta in (-1, 1):
        changes += [
            (f"k{delta:+d}", {"k": k + delta}),
            (f"level{delta:+d}", {"result.level": level + delta}),
            (f"{own}{delta:+d}", {own: value + delta}),
        ]
    changes += [("k=level", {"k": level}), ("level=0", {"result.level": 0})]
    if own == "m":
        # a conjugator whose atoms stop at m, and one times such an atom
        lower = _conjugator_at(cert, value)
        changes += [("g-lower", {"inputs.g": lower}),
                    ("g-times-lower", {"inputs.g": f"{cert.g_expr} {lower}"})]
    return changes


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_verify_verdicts_match_full_replay(name, p, params):
    sysx = make_instance(name, p, params)
    verdicts = {}
    for cert in sample_certificates(sysx):
        for label, change in perturbations(cert):
            bad = _tamper(cert, **change)
            want = reference_verify(bad)
            assert verify(bad) is want, (cert.to_json_dict(), label)
            verdicts.setdefault((cert.type, label), set()).add(want)
    # every certificate holds, and no other claimed level does
    for kind in ("derived", "escape"):
        assert verdicts[kind, "original"] == {True}
        for label in ("level-1", "level+1", "k=level", "level=0"):
            assert verdicts[kind, label] == {False}
    assert len(verdicts) == 9 + 11


def oracle_word(sysx, cert):
    """The syllables a certificate's result reduces: its tree, or g h g^-1."""
    if type(cert) is EscapeCertificate:
        g = wordexpr.parse_expr(cert.g_expr, sysx)
        h = wordexpr.parse_expr(cert.h_expr, sysx)
        e = wordexpr.ProdE((g, h, wordexpr.InvE(g)))
    else:
        e = wordexpr.parse_expr(cert.tree_expr, sysx)
    return wordexpr.expr_to_word(sysx, e)


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_certificates_agree_with_the_oracle(name, p, params):
    # verify replays the engine's own eval_expr, so a fault in mul that it
    # repeats would pass it; the oracle shares no reduction code with the
    # engine (a d = 5 tree lowers to 1,024 syllables)
    sysx = make_instance(name, p, params)
    for cert in sample_certificates(sysx):
        form = naive_reduce(sysx, oracle_word(sysx, cert))
        assert wordexpr.form_expr_str(sysx, form) == cert.result_expr, \
            cert.to_json_dict()


def _refuse_replay(monkeypatch, *names):
    def refuse(*args):
        raise RuntimeError("replayed")

    for name in names:
        monkeypatch.setattr(witnesses, name, refuse)


def _cert_of(sysx, kind):
    if kind == "derived":
        return derived_escape(sysx, 3, 2)
    return escape_witness(sysx, inject(sysx, 0, sysx.escape_elem(0)), 2)


@pytest.mark.parametrize("kind", ["derived", "escape"])
@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_claim_the_fields_rule_out_builds_no_instance(monkeypatch, name, p,
                                                     params, kind):
    sysx = make_instance(name, p, params)
    cert = _cert_of(sysx, kind)
    level = cert.result_level
    assert reference_verify(cert) and verify(cert)
    bad = [{"k": level}, {"k": level + 1}, {"result.level": cert.k},
           {"result.level": 0}]
    if kind == "escape":
        bad += [{"result.level": level + 1}, {"m": cert.m + 1},
                {"m": cert.m - 1}, {"result.level": level - 1}]
    tampered = [_tamper(cert, **change) for change in bad]
    _refuse_replay(monkeypatch, "make_instance", "parse_expr", "eval_expr")
    for cert in tampered:
        assert verify(cert) is False


@pytest.mark.parametrize("kind", ["derived", "escape"])
@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_claim_above_every_atom_is_not_evaluated(monkeypatch, name, p,
                                                 params, kind):
    # a derived tree's highest atom sits at its claimed level; an escape
    # conjugator needs an atom at m + 1
    sysx = make_instance(name, p, params)
    cert = _cert_of(sysx, kind)
    if kind == "derived":
        tree = wordexpr.parse_expr(cert.tree_expr, sysx)
        assert wordexpr.reaches_level(tree, cert.result_level)
        bad = [_tamper(cert, **{"result.level": cert.result_level + d})
               for d in (1, 2)]
    else:
        lower = _conjugator_at(cert, cert.m)
        bad = [_tamper(cert, **{"inputs.g": lower}),
               _tamper(cert, **{"inputs.g": f"[{lower}, {lower}^-1] {lower}"})]
    _refuse_replay(monkeypatch, "eval_expr")
    for cert in bad:
        assert verify(cert) is False


def test_unprintable_escape_letters_are_refused_before_evaluation(
        monkeypatch, int_digit_limit):
    # the inverse leaf at level 10,000 is p**9999 - 1, past the limit; the
    # refusal comes before any product is formed
    big = make_instance("dense", 18446744073709551557)
    h = inject(big, 1, big.escape_elem(0))

    def evaluated(*args):
        raise AssertionError("evaluated a tree that cannot print")

    monkeypatch.setattr(witnesses, "eval_expr", evaluated)
    monkeypatch.setattr(witnesses, "_conjugate", evaluated)
    for d in (1, 8):
        with pytest.raises(PreconditionViolated, match="^number too long"):
            derived_escape(big, d, 9999)
    with pytest.raises(PreconditionViolated, match="^number too long"):
        escape_witness(big, h, 9999)


def test_a_lone_leaf_is_exempt_from_the_inverse_check(int_digit_limit):
    # 5**6200 - 1 has 4,334 digits, but a depth-0 tree has no inverse leaf
    dense = make_instance("dense", 5)
    cert = derived_escape(dense, 0, 6200)
    assert cert.tree_expr == cert.result_expr == "h6201(1)"
    with pytest.raises(PreconditionViolated, match="^number too long"):
        derived_escape(dense, 1, 6200)
