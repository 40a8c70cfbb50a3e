"""Factor-system contract conformance for the three shipped instances."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from amalgam.errors import (
    InvalidParams,
    LiteralError,
    PreconditionViolated,
    UnsupportedLevel,
    int_literal,
)
from amalgam.factors import check_instance
from amalgam.instances import make_instance, valuation
from amalgam.padic import PAdicRational


def R(num, k=0, p=5):
    return PAdicRational(num, k, p)


@pytest.fixture(scope="module")
def dense():
    return make_instance("dense", 5)


@pytest.fixture(scope="module")
def heis():
    return make_instance("heisenberg", 5)


@pytest.fixture(scope="module")
def cyc():
    return make_instance("cyclic", 2, {"L": 3})


ALL = ["dense", "heis", "cyc"]


def test_dense_split_example(dense):
    assert dense.split(1, R(7, 1), dense.factor_id()) == (R(2, 1), R(1))


def test_heisenberg_split_example(heis):
    assert heis.split(1, (1, 2, 7), heis.factor_id()) == ((1, 2, 0), (0, 0, 7))


def test_heisenberg_commutator_relation(heis):
    a, b = (1, 0, 0), (0, 1, 0)
    comm = heis.factor_mul(
        heis.factor_mul(a, b),
        heis.factor_mul(heis.factor_inv(a), heis.factor_inv(b)),
    )
    assert comm == (0, 0, 1)


def test_heisenberg_inverse_formula(heis):
    rng = random.Random(7)
    for _ in range(50):
        a = heis.sample(1, rng)
        inv = heis.factor_inv(a)
        assert inv == (-a[0], -a[1], -a[2] + a[0] * a[1])
        assert heis.factor_mul(a, inv) == (0, 0, 0)
        assert heis.factor_mul(inv, a) == (0, 0, 0)


def test_cyclic_base_subgroup(cyc):
    assert [x for x in range(8) if cyc.in_base(0, x)] == [0, 2, 4, 6]
    assert [x for x in range(8) if cyc.in_base(1, x)] == [0, 4]
    assert [x for x in range(8) if cyc.in_base(2, x)] == [0]
    # chain is trivial from level L-1 on
    assert [x for x in range(8) if cyc.in_base(5, x)] == [0]


def test_unshifted_cyclic_chain_rejected():
    with pytest.raises(InvalidParams):
        make_instance("cyclic", 2, {"L": 3, "chain_shift": 0})


def test_constructor_names_failing_checks():
    with pytest.raises(InvalidParams, match="escape_proper"):
        make_instance("cyclic", 2, {"L": 3, "chain_shift": 0})


def test_check_instance_catches_unshifted_chain():
    cyc = make_instance("cyclic", 2, {"L": 3})
    cyc.chain_shift = 0
    report = check_instance(cyc, 40, 3)
    assert report["checks"]["escape_proper"] > 0
    assert not report["ok"]


@pytest.mark.parametrize("p,L", [(2, 3), (3, 2), (2, 5)])
def test_cyclic_base_exponent(p, L):
    # in_base and split read chain_shift and L on every call, so a shift
    # changed after construction takes effect at once
    cyc = make_instance("cyclic", p, {"L": L})
    for shift in range(3):
        cyc.chain_shift = shift
        for n in range(L + 3):
            q = p ** min(n + shift, L)
            assert [cyc.in_base(n, x) for x in range(cyc.modulus)] == [
                x % q == 0 for x in range(cyc.modulus)]
            if n == 0:
                continue
            q = p ** min(n - 1 + shift, L)
            assert [cyc.split(n, h, 0) for h in range(cyc.modulus)] == [
                (h % q, (h - h % q) % cyc.modulus) for h in range(cyc.modulus)]
    built = make_instance("cyclic", p, {"L": L, "chain_shift": 2})
    assert [built.in_base(0, x) for x in range(built.modulus)] == [
        x % p ** min(2, L) == 0 for x in range(built.modulus)]


def test_check_instance_catches_split_tail_outside_base():
    # rep * tail is still h, but the tail is not in B_{n-1}
    dense = make_instance("dense", 5)
    dense.split = lambda n, h, t: (dense.factor_id(), dense.factor_mul(t, h))
    report = check_instance(dense, 40, 3)
    assert report["checks"]["split_exact"] > 0
    assert not report["ok"]


def test_bad_construction_params():
    with pytest.raises(InvalidParams):
        make_instance("cyclic", 2, {"L": 1})
    with pytest.raises(InvalidParams):
        make_instance("cyclic", 2, {"L": 3, "bogus": 1})
    with pytest.raises(InvalidParams):
        make_instance("dense", 4)
    with pytest.raises(InvalidParams):
        make_instance("nosuch", 5)
    with pytest.raises(InvalidParams):
        make_instance("dense", 5, {"L": 3})


def test_level_cap(cyc):
    capped = make_instance("cyclic", 2, {"L": 3, "max_level": 2})
    capped.check_level(2)
    with pytest.raises(UnsupportedLevel):
        capped.check_level(3)
    cyc.check_level(40)  # no cap by default


@pytest.mark.parametrize("name", ALL)
def test_split_exactness_and_determinism(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(101)
    e = sys.factor_id()
    for n in range(1, 6):
        for _ in range(40):
            h = sys.sample(n, rng)
            rep, b = sys.split(n, h, e)
            assert sys.in_base(n - 1, b)
            assert sys.factor_mul(rep, b) == h
            # representative is a function of the coset
            shift = sys.sample_base(n - 1, rng)
            rep2, _ = sys.split(n, sys.factor_mul(h, shift), e)
            assert rep == rep2
            # and is its own representative
            rep3, b3 = sys.split(n, rep, e)
            assert rep3 == rep
            assert b3 == e


@pytest.mark.parametrize("name", ALL)
def test_split_multiplies_its_residue_into_the_tail(name, request):
    # split(n, h, t) is the bare split with its residue b multiplied into t
    sys = request.getfixturevalue(name)
    rng = random.Random(104)
    e = sys.factor_id()
    for _ in range(300):
        n = rng.randint(1, 6)
        h = sys.sample(n, rng)
        rep, b = sys.split(n, h, e)
        tails = (e, sys.sample(n, rng), sys.sample_base(n - 1, rng),
                 b, sys.factor_inv(b))
        for t in tails:
            assert sys.split(n, h, t) == (rep, sys.factor_mul(t, b))


@pytest.mark.parametrize("name", ALL)
def test_split_chain_exactness(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(102)
    for m in range(0, 4):
        for n in range(m + 1, 6):
            for _ in range(20):
                b = sys.sample_base(m, rng)
                rep, b2 = sys.split(n + 1, b, sys.factor_id())
                assert sys.in_base(n, b2)
                assert sys.in_base(m, rep)
                assert sys.factor_mul(rep, b2) == b


def test_dense_split_rep_range(dense):
    rng = random.Random(103)
    for n in range(1, 5):
        for _ in range(40):
            x = dense.sample(n, rng)
            rep, _ = dense.split(n, x, dense.factor_id())
            assert rep.num >= 0
            # rep < p**(n-1) after clearing the denominator
            assert rep.num < 5 ** (n - 1 + rep.den_exp)


@pytest.mark.parametrize("kind,p,params", [
    ("dense", 5, None), ("dense", 18446744073709551557, None),
    ("heisenberg", 3, None), ("cyclic", 2, {"L": 60})])
def test_base_and_split_with_remembered_powers(kind, p, params):
    # every power comes from the instance's memo, small and large
    # exponents alike: chain membership and splits agree with p ** e, and
    # the memo stays right past its bound of 64 powers
    sys = make_instance(kind, p, params)
    modulus = getattr(sys, "modulus", None)

    def value(z):
        if kind == "dense":
            return PAdicRational(z, 0, p)
        return (0, 0, z) if kind == "heisenberg" else z % modulus

    for n in range(1, 40):
        e = min(n + 1, 60) if kind == "cyclic" else n
        assert sys.in_base(n, value(p ** e))
        assert not sys.in_base(n, value(p ** (e - 1)))
        h = value(3 * p ** (e - 1) + 2)
        rep, b = sys.split(n, h, sys.factor_id())
        assert sys.factor_mul(rep, b) == h and sys.in_base(n - 1, b)
        assert sys.split(n, rep, sys.factor_id()) == (rep, sys.factor_id())
    if kind == "dense":
        for k in range(12, 20):
            h = PAdicRational(7 * p ** 30 + 1, k, p)
            rep, b = sys.split(3, h, sys.factor_id())
            assert sys.factor_mul(rep, b) == h and sys.in_base(2, b)
    assert all(sys._powers[e] == p ** e for e in range(100))
    assert len(sys._powers) == 64


@pytest.mark.parametrize("p", [2, 5])
def test_dense_inline_arithmetic_matches_fractions(p):
    # the instance computes on num/den_exp itself; exact rationals are the
    # reference
    dense = make_instance("dense", p)
    rng = random.Random(p)

    def value():
        if rng.random() < 0.15:
            return PAdicRational(0, 0, p)
        return PAdicRational(rng.randint(-p**6, p**6) * p**rng.randint(0, 3),
                             rng.randint(0, 4), p)

    def exact(x):
        # a normalized pair is the one spelling of its rational
        assert x.p == p and x.den_exp >= 0
        assert x.den_exp == 0 or x.num % p
        return Fraction(x.num, p ** x.den_exp)

    def in_pn(q, m):
        return q.denominator == 1 and q.numerator % p ** m == 0

    for _ in range(3000):
        x, y, n = value(), value(), rng.randint(1, 6)
        q = exact(x)
        assert exact(dense.factor_mul(x, y)) == q + exact(y)
        assert exact(dense.factor_inv(x)) == -q
        for m in (n - 1, n):
            assert dense.in_base(m, x) == in_pn(q, m)
        rep, b = dense.split(n, x, dense.factor_id())
        r = exact(rep)
        assert r + exact(b) == q
        assert 0 <= r < p ** (n - 1)
        assert in_pn(exact(b), n - 1)
        # the residue added into a tail, built without a normalizing loop;
        # -b cancels it to zero
        for t in (y, dense.factor_inv(b)):
            rep_t, tail = dense.split(n, x, t)
            assert rep_t == rep and exact(tail) == exact(t) + exact(b)


def test_valuation_of_zero_raises(dense, heis, cyc):
    # dividing 0 by p would never end; the identity has no escape level
    assert valuation(250, 5) == 3 and valuation(-7, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 5)
    for sys in (dense, heis, cyc):
        with pytest.raises(ValueError):
            sys.base_escape_level(sys.factor_id())


@pytest.mark.parametrize("name", ALL)
def test_base_escape_level_consistency(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(104)
    for lvl in range(0, 5):
        for _ in range(40):
            x = sys.sample(lvl, rng)
            if x == sys.factor_id():
                continue
            m = sys.base_escape_level(x)
            assert not sys.in_base(m, x)
            if m > 0:
                assert sys.in_base(m - 1, x)


@pytest.mark.parametrize("name", ALL)
def test_centrality_of_base_values(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(105)
    for n in range(0, 5):
        for _ in range(40):
            b = sys.sample_base(n, rng)
            for lvl in (n, n + 1):
                x = sys.sample(lvl, rng)
                assert sys.factor_mul(x, b) == sys.factor_mul(b, x)


@pytest.mark.parametrize("name", ALL)
def test_value_text_round_trip(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(106)
    for lvl in range(0, 4):
        for _ in range(30):
            x = sys.sample(lvl, rng)
            assert sys.parse_value(sys.value_str(x)) == x


# 4,000 digits: printable under the default limit of 4,300
LONG = 10**3999 + 7


def test_value_text_is_str_of_each_component(int_digit_limit, dense, heis,
                                             cyc):
    for x, y, z in [(0, 0, 0), (-3, 5, -7), (LONG, -LONG, 0), (1, 2, -LONG)]:
        want = "(" + str(x) + "," + str(y) + "," + str(z) + ")"
        assert heis.value_str((x, y, z)) == want
    assert dense.value_str(R(0, 3)) == "0"
    for num in (7, -12, LONG, -LONG - 2):
        assert dense.value_str(R(num)) == str(num)
        for k in (1, 3):
            assert dense.value_str(R(num, k)) == str(num) + "/" + str(5**k)
    for x in (0, 1, 7):
        assert cyc.value_str(x) == str(x)
    # 5**5700 has 3,985 digits
    big = make_instance("cyclic", 5, {"L": 5700})
    assert big.value_str(big.modulus - 1) == str(big.modulus - 1)


@pytest.mark.parametrize("value", [(10**5000, 0, 0), (0, -10**5000, 0),
                                   (0, 0, 10**5000)])
def test_heisenberg_value_text_refuses_past_the_limit(int_digit_limit, heis,
                                                       value):
    with pytest.raises(PreconditionViolated, match="^number too long"):
        heis.value_str(value)


def test_dense_and_cyclic_value_text_refuse_past_the_limit(int_digit_limit,
                                                           dense):
    with pytest.raises(PreconditionViolated, match="^number too long"):
        dense.value_str(R(-10**5000 - 1))
    # the numerator is short; 5**7000 has 4,893 digits
    with pytest.raises(PreconditionViolated, match="^number too long"):
        dense.value_str(PAdicRational(1, 7000, 5))
    cyc = make_instance("cyclic", 5, {"L": 7000})
    with pytest.raises(PreconditionViolated, match="^number too long"):
        cyc.value_str(cyc.modulus - 1)


def test_parse_value_rejects(dense, heis, cyc):
    with pytest.raises(LiteralError):
        dense.parse_value("1/3")
    with pytest.raises(LiteralError):
        heis.parse_value("(1,2)")
    with pytest.raises(LiteralError):
        heis.parse_value("1")
    with pytest.raises(LiteralError):
        cyc.parse_value("x")


@pytest.mark.parametrize("text, value", [
    ("( 1, -2 ,+3 )", (1, -2, 3)),
    ("(1_000,0,0)", (1000, 0, 0)),
    ("(007,-00,+010)", (7, 0, 10)),
    (" \t(1,2,3)\n", (1, 2, 3)),
    ("(١٢,0,0)", (12, 0, 0)),
])
def test_heisenberg_literal_values(heis, text, value):
    assert heis.parse_value(text) == value


@pytest.mark.parametrize("text, message", [
    ("(1,2)", "expected 3 components in '(1,2)'"),
    ("(1,2,3,4)", "expected 3 components in '(1,2,3,4)'"),
    ("(1,x,3)", "non-integer component in '(1,x,3)'"),
    ("(1,,3)", "non-integer component in '(1,,3)'"),
    ("(1, ,3)", "non-integer component in '(1, ,3)'"),
    ("(1__0,0,0)", "non-integer component in '(1__0,0,0)'"),
    ("((1,2,3))", "non-integer component in '((1,2,3))'"),
    ("1", "expected (x,y,z) triple, got '1'"),
])
def test_heisenberg_literal_refusals(heis, text, message):
    with pytest.raises(LiteralError) as info:
        heis.parse_value(text)
    assert str(info.value) == message


def read_or_refusal(read):
    try:
        return read()
    except (LiteralError, PreconditionViolated) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text(alphabet="09+-_ x\t١", max_size=5)
                | st.just("9" * 5000), min_size=3, max_size=3))
def test_heisenberg_literal_matches_the_component_reader(int_digit_limit,
                                                         heis, parts):
    text = "(" + ",".join(parts) + ")"
    message = f"non-integer component in {text!r}"
    want = read_or_refusal(
        lambda: tuple(int_literal(q, lambda: message) for q in parts))
    assert read_or_refusal(lambda: heis.parse_value(text)) == want


def test_heisenberg_literal_first_bad_component_decides(int_digit_limit, heis):
    # components are read left to right: a malformed one before a long one
    # is malformed, a long one before a malformed one is too long
    long = "9" * 5000
    with pytest.raises(LiteralError, match="^non-integer component"):
        heis.parse_value(f"(x,{long},0)")
    for text in (f"(0,{long},x)", f"(0,0,{long})", f"({long},{long},{long})"):
        with pytest.raises(PreconditionViolated,
                           match="^number too long: more than 4300 "):
            heis.parse_value(text)


def test_descriptor(dense, cyc):
    assert dense.descriptor() == {"instance": "dense", "prime": 5, "params": {}}
    assert cyc.descriptor() == {
        "instance": "cyclic",
        "prime": 2,
        "params": {"L": 3, "chain_shift": 1},
    }
