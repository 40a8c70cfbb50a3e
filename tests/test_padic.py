"""Value-level arithmetic: normalization, valuation, coset splitting, matrices.

The valuation and p**n Z membership are the dense instance's
``base_escape_level`` and ``in_base``.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from amalgam import padic
from amalgam.errors import InvalidParams, LiteralError
from amalgam.instances import DenseInstance
from amalgam.padic import (
    Mat2,
    PAdicRational,
    check_prime,
    mat_mul,
    parse_padic,
    unipotent,
)

DENSE = {p: DenseInstance(p) for p in (2, 3, 5, 7, 11)}


def R(num, k=0, p=5):
    return PAdicRational(num, k, p)


def coset_split(x, n):
    """x as rep + b with b in p**n Z, through the dense instance's split."""
    dense = DENSE[x.p]
    return dense.split(n + 1, x, dense.factor_id())


def valuation(x):
    """p-adic valuation of a nonzero value, by trial division."""
    num, v = x.num, -x.den_exp
    while num % x.p == 0:
        num //= x.p
        v += 1
    return v


# --- fixed examples -------------------------------------------------------


def test_add_clears_denominators():
    assert R(2, 1) + R(3, 1) == R(1)


def test_add_identity():
    x = R(7, 2)
    assert x + R(0) == x


def test_add_mixed_denominators():
    assert R(7, 2) + R(3, 1) == R(22, 2)


def test_valuation_examples():
    # the least n with x outside p**n Z: valuation + 1, or 0 off Z
    dense = DENSE[5]
    assert dense.base_escape_level(R(25)) == 3
    assert dense.base_escape_level(R(-7)) == 1
    assert dense.base_escape_level(R(1, 1)) == 0
    assert all(dense.in_base(n, R(0)) for n in range(10))


def test_coset_rep_examples():
    assert coset_split(R(7, 1), 0) == (R(2, 1), R(1))
    assert coset_split(R(7, 1), 1) == (R(7, 1), R(0))
    assert coset_split(R(-1), 1) == (R(4), R(-5))


def test_unipotent_identity():
    assert unipotent(R(0)) == Mat2(R(1), R(0), R(0), R(1))


def test_unipotent_product():
    got = mat_mul(unipotent(R(1, 1)), unipotent(R(2, 1)))
    assert got == unipotent(R(3, 1))
    assert got.a == R(1) and got.c == R(0) and got.d == R(1)


def test_mat_mul_identity():
    A = Mat2(R(1), R(2, 1), R(3), R(4, 2))
    identity = Mat2(R(1), R(0), R(0), R(1))
    assert mat_mul(identity, A) == A
    assert mat_mul(A, identity) == A


def test_prime_validation():
    for p in (2, 3, 5, 7, 97):
        assert check_prime(p) == p
    for bad in (0, 1, 4, 6, 9, -5, 2.0, True):
        with pytest.raises(InvalidParams):
            check_prime(bad)


def test_prime_validation_large():
    for p in (10**18 + 3, 2**61 - 1, 2**64 - 59):
        t0 = time.perf_counter()
        assert check_prime(p) == p
        assert time.perf_counter() - t0 < 1.0
    # strong pseudoprimes to the first bases, and a product of two primes
    # with no factor up to 37
    for bad in (3215031751, 3825123056546413051, 1000003 * 1000033):
        with pytest.raises(InvalidParams, match="is not prime"):
            check_prime(bad)
    with pytest.raises(InvalidParams, match="divisible by 3"):
        check_prime(3 * 1000003)
    for bad in (2**64 + 13, 2**64):
        with pytest.raises(InvalidParams, match="below 2"):
            check_prime(bad)


def test_small_primes_need_no_modular_exponentiation(monkeypatch):
    def no_pow(*args):
        raise AssertionError("modular exponentiation on a small prime")

    monkeypatch.setattr(padic, "pow", no_pow, raising=False)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert check_prime(p) == p


def test_str_forms():
    assert str(R(7)) == "7"
    assert str(R(7, 2)) == "7/25"
    assert str(R(-3, 1)) == "-3/5"
    assert str(R(0)) == "0"


def test_parse_padic():
    assert parse_padic("7/25", 5) == R(7, 2)
    assert parse_padic(" -3 ", 5) == R(-3)
    assert parse_padic("5/25", 5) == R(1, 1)  # normalizes
    assert parse_padic("-1/5", 5) == R(-1, 1)


@pytest.mark.parametrize("bad", ["2/3", "x", "1/0", "1/-5", "1/6", "2/5/5", ""])
def test_parse_padic_rejects(bad):
    with pytest.raises(LiteralError):
        parse_padic(bad, 5)


def test_mixed_prime_rejected():
    with pytest.raises(InvalidParams):
        R(1, 0, 5) + R(1, 0, 7)


def test_negative_den_exp_rejected():
    with pytest.raises(InvalidParams):
        PAdicRational(1, -1, 5)


# --- randomized properties ------------------------------------------------

primes = st.sampled_from([2, 3, 5, 7, 11])
nums = st.integers(min_value=-(10**9), max_value=10**9)
exps = st.integers(min_value=0, max_value=8)


@st.composite
def values(draw, p=None):
    pp = p if p is not None else draw(primes)
    return PAdicRational(draw(nums), draw(exps), pp)


@st.composite
def value_triples(draw):
    p = draw(primes)
    return tuple(draw(values(p=p)) for _ in range(3))


@st.composite
def raw_operands(draw):
    # a prime and two unnormalized (num, den_exp) pairs; num carries up to
    # four factors of p, so the constructor has some to cancel
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 18446744073709551557]))
    pairs = [(draw(nums) * p ** draw(st.integers(0, 4)), draw(exps))
             for _ in range(2)]
    return p, pairs


def exact(x):
    """x as a Fraction, once x is checked to be normalized."""
    assert x.den_exp >= 0
    assert x.den_exp == 0 or x.num % x.p != 0
    return Fraction(x.num, x.p ** x.den_exp)


@given(raw_operands())
def test_arithmetic_matches_fractions(operands):
    p, ((an, ak), (bn, bk)) = operands
    x, y = PAdicRational(an, ak, p), PAdicRational(bn, bk, p)
    assert exact(x) == Fraction(an, p ** ak)
    assert exact(y) == Fraction(bn, p ** bk)
    assert exact(x + y) == exact(x) + exact(y)
    assert exact(x * y) == exact(x) * exact(y)
    assert x.p == y.p == (x + y).p == (x * y).p == p


@given(value_triples())
def test_abelian_group_axioms(t):
    x, y, z = t
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + DENSE[x.p].factor_inv(x) == PAdicRational.zero(x.p)
    assert x + PAdicRational.zero(x.p) == x


@given(values())
def test_normalized_invariant(x):
    assert x.den_exp >= 0
    if x.num == 0:
        assert x.den_exp == 0
    if x.den_exp > 0:
        assert x.num % x.p != 0


@given(values(), st.integers(min_value=0, max_value=6))
def test_coset_rep_properties(x, n):
    rep, b = coset_split(x, n)
    assert rep + b == x
    assert DENSE[x.p].in_base(n, b)
    # rep lies in [0, p**n)
    scaled = rep.num * 1 if rep.den_exp == 0 else rep.num
    assert rep.num >= 0
    assert scaled < x.p ** (n + rep.den_exp)
    # idempotent: the rep is its own rep
    rep2, b2 = coset_split(rep, n)
    assert rep2 == rep and not b2


@given(values(), values(), st.integers(min_value=0, max_value=6))
def test_coset_rep_is_coset_function(x, y, n):
    # shifting by an element of p**n Z never changes the rep
    shift = PAdicRational(y.num * x.p**n, 0, x.p) if y.p == x.p else None
    if shift is None:
        return
    rep1, _ = coset_split(x, n)
    rep2, _ = coset_split(x + shift, n)
    assert rep1 == rep2


@given(value_triples())
def test_valuation_ultrametric(t):
    # base_escape_level is monotone in the valuation, so it inherits the
    # ultrametric inequality
    x, y, _ = t
    dense = DENSE[x.p]
    s = dense.factor_mul(x, y)
    if not (x and y and s):
        return
    vx, vy = dense.base_escape_level(x), dense.base_escape_level(y)
    vs = dense.base_escape_level(s)
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@given(value_triples())
def test_unipotent_homomorphism(t):
    z, w, _ = t
    assert mat_mul(unipotent(z), unipotent(w)) == unipotent(z + w)
    if z != w:
        assert unipotent(z) != unipotent(w)


@given(values())
def test_str_parse_round_trip(x):
    assert parse_padic(str(x), x.p) == x


@given(values(), st.integers(min_value=0, max_value=6))
def test_in_pn_matches_valuation(x, n):
    dense = DENSE[x.p]
    in_pn = x.num == 0 or valuation(x) >= n
    assert dense.in_base(n, x) == in_pn
    if x:
        assert in_pn == (n < dense.base_escape_level(x))
