"""Factor-system contract conformance for the three shipped instances."""

import random

import pytest

from amalgam import _kernels as K
from amalgam.errors import InvalidParams, LiteralError, UnsupportedLevel
from amalgam.factors import check_instance
from amalgam.instances import make_instance
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
    assert dense.split(1, R(7, 1)) == (R(2, 1), R(1))


def test_heisenberg_split_example(heis):
    assert heis.split(1, (1, 2, 7)) == ((1, 2, 0), (0, 0, 7))


def test_heisenberg_commutator_relation(heis):
    a, b = (1, 0, 0), (0, 1, 0)
    comm = heis.factor_mul(
        1,
        heis.factor_mul(1, a, b),
        heis.factor_mul(1, heis.factor_inv(1, a), heis.factor_inv(1, b)),
    )
    assert comm == (0, 0, 1)


def test_heisenberg_inverse_formula(heis):
    rng = random.Random(7)
    for _ in range(50):
        a = heis.sample(1, rng)
        inv = heis.factor_inv(1, a)
        assert inv == (-a[0], -a[1], -a[2] + a[0] * a[1])
        assert heis.factor_mul(1, a, inv) == (0, 0, 0)
        assert heis.factor_mul(1, inv, a) == (0, 0, 0)


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


def test_check_instance_catches_split_tail_outside_base():
    # rep * tail is still h, but the tail is not in B_{n-1}
    dense = make_instance("dense", 5)
    dense.split = lambda n, h: (dense.factor_id(n), h)
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
    for n in range(1, 6):
        for _ in range(40):
            h = sys.sample(n, rng)
            rep, b = sys.split(n, h)
            assert sys.in_base(n - 1, b)
            assert sys.factor_mul(n, rep, b) == h
            # representative is a function of the coset
            shift = sys.sample_base(n - 1, rng)
            rep2, _ = sys.split(n, sys.factor_mul(n, h, shift))
            assert rep == rep2
            # and is its own representative
            rep3, b3 = sys.split(n, rep)
            assert rep3 == rep
            assert b3 == sys.factor_id(n)


@pytest.mark.parametrize("name", ALL)
def test_split_chain_exactness(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(102)
    for m in range(0, 4):
        for n in range(m + 1, 6):
            for _ in range(20):
                b = sys.sample_base(m, rng)
                rep, b2 = sys.split(n + 1, b)
                assert sys.in_base(n, b2)
                assert sys.in_base(m, rep)
                assert sys.factor_mul(n, rep, b2) == b


def test_dense_split_rep_range(dense):
    rng = random.Random(103)
    for n in range(1, 5):
        for _ in range(40):
            rep, _ = dense.split(n, dense.sample(n, rng))
            assert rep.num >= 0
            # rep < p**(n-1) after clearing the denominator
            assert rep.num < 5 ** (n - 1 + rep.den_exp)


@pytest.mark.parametrize("p", [2, 5])
def test_dense_inline_arithmetic_matches_kernels(p):
    # the instance computes on num/den_exp itself; the integer-pair kernels
    # are the reference
    dense = make_instance("dense", p)
    rng = random.Random(p)

    def value():
        if rng.random() < 0.15:
            return PAdicRational(0, 0, p)
        return PAdicRational(rng.randint(-p**6, p**6) * p**rng.randint(0, 3),
                             rng.randint(0, 4), p)

    for _ in range(3000):
        x, y, n = value(), value(), rng.randint(1, 6)
        z = dense.factor_mul(n, x, y)
        assert z.p == p
        assert (z.num, z.den_exp) == K.add(x.num, x.den_exp, y.num, y.den_exp, p)
        xi = dense.factor_inv(n, x)
        assert (xi.num, xi.den_exp, xi.p) == (-x.num, x.den_exp, p)
        for m in (n - 1, n):
            assert dense.in_base(m, x) == K.in_subgroup(x.num, x.den_exp, p, m)
        rep, b = dense.split(n, x)
        assert (rep.num, rep.den_exp, b.num, b.den_exp) == \
            K.coset_split(x.num, x.den_exp, p, n - 1)
        assert rep.p == b.p == p


@pytest.mark.parametrize("name", ALL)
def test_base_escape_level_consistency(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(104)
    for lvl in range(0, 5):
        for _ in range(40):
            x = sys.sample(lvl, rng)
            if x == sys.factor_id(lvl):
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
                assert sys.factor_mul(lvl, x, b) == sys.factor_mul(lvl, b, x)


@pytest.mark.parametrize("name", ALL)
def test_value_text_round_trip(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(106)
    for lvl in range(0, 4):
        for _ in range(30):
            x = sys.sample(lvl, rng)
            assert sys.parse_value(sys.value_str(x)) == x


def test_parse_value_rejects(dense, heis, cyc):
    with pytest.raises(LiteralError):
        dense.parse_value("1/3")
    with pytest.raises(LiteralError):
        heis.parse_value("(1,2)")
    with pytest.raises(LiteralError):
        heis.parse_value("1")
    with pytest.raises(LiteralError):
        cyc.parse_value("x")


def test_descriptor(dense, cyc):
    assert dense.descriptor() == {"instance": "dense", "prime": 5, "params": {}}
    assert cyc.descriptor() == {
        "instance": "cyclic",
        "prime": 2,
        "params": {"L": 3, "chain_shift": 1},
    }
