"""Universal-property homomorphisms and the unipotent matrix lift."""

import random

import pytest

from amalgam.errors import IncompatibleHom, PreconditionViolated
from amalgam.homs import (
    LevelwiseHom,
    _identity,
    Target,
    in_kernel,
    phi_eval,
    psi_eval,
    standard_hom,
)
from amalgam.instances import make_instance
from amalgam.normalform import inv, mul, reduce_word
from amalgam.padic import PAdicRational, mat_mul
from amalgam.wordexpr import eval_expr, parse_expr


@pytest.fixture(scope="module")
def dense():
    return make_instance("dense", 5)


@pytest.fixture(scope="module")
def heis():
    return make_instance("heisenberg", 3)


@pytest.fixture(scope="module")
def dense_hom(dense):
    return standard_hom(dense)


def P(num, k=0):
    return PAdicRational(num, k, 5)


def test_phi_on_single_letter(dense, dense_hom):
    g = eval_expr(dense, parse_expr("h2(3/25)", dense))
    assert phi_eval(g, dense_hom) == P(3, 2)


def test_phi_kills_commutators(dense, dense_hom):
    g = eval_expr(dense, parse_expr("[h1(1/5), h0(1/5)]", dense))
    assert phi_eval(g, dense_hom) == P(0)
    assert in_kernel(g, dense_hom)


def test_phi_on_mixed_word(dense, dense_hom):
    g = reduce_word(dense, [(0, P(1, 1)), (1, P(2, 1))])
    assert phi_eval(g, dense_hom) == P(3, 1)


def test_phi_is_multiplicative(dense, dense_hom):
    rng = random.Random(31)
    for _ in range(200):
        a = reduce_word(dense, [(rng.randint(0, 4), dense.sample(4, rng))
                                for _ in range(rng.randint(0, 6))])
        b = reduce_word(dense, [(rng.randint(0, 4), dense.sample(4, rng))
                                for _ in range(rng.randint(0, 6))])
        assert phi_eval(mul(dense, a, b), dense_hom) == \
            phi_eval(a, dense_hom) + phi_eval(b, dense_hom)


def test_phi_respects_inverse(dense, dense_hom):
    g = eval_expr(dense, parse_expr("h1(2/5) h0(3) h2(1/25)", dense))
    assert phi_eval(inv(dense, g), dense_hom) == \
        dense.factor_inv(phi_eval(g, dense_hom))


def test_phi_factor_inclusion_agreement(dense, dense_hom):
    rng = random.Random(32)
    from amalgam.normalform import inject
    for n in range(5):
        for _ in range(50):
            x = dense.sample(n, rng)
            assert phi_eval(inject(dense, n, x), dense_hom) == \
                dense_hom.phi(n, x)


def test_psi_is_unipotent_with_phi_corner(dense, dense_hom):
    g = eval_expr(dense, parse_expr("h1(2/5) h0(3)", dense))
    m = psi_eval(g, dense_hom)
    assert m.a == P(1) and m.c == P(0) and m.d == P(1)
    assert m.b == phi_eval(g, dense_hom)


def test_psi_is_multiplicative(dense, dense_hom):
    rng = random.Random(33)
    for _ in range(200):
        a = reduce_word(dense, [(rng.randint(0, 3), dense.sample(3, rng))
                                for _ in range(rng.randint(0, 5))])
        b = reduce_word(dense, [(rng.randint(0, 3), dense.sample(3, rng))
                                for _ in range(rng.randint(0, 5))])
        assert psi_eval(mul(dense, a, b), dense_hom) == \
            mat_mul(psi_eval(a, dense_hom), psi_eval(b, dense_hom))


def test_psi_rejected_off_the_dense_instance(heis):
    hom = standard_hom(heis)
    g = eval_expr(heis, parse_expr("h0((1,0,0))", heis))
    with pytest.raises(PreconditionViolated):
        psi_eval(g, hom)


def test_heisenberg_phi_drops_the_centre(heis):
    hom = standard_hom(heis)
    g = eval_expr(heis, parse_expr("h1((1,2,7))", heis))
    assert phi_eval(g, hom) == (1, 2)
    z = eval_expr(heis, parse_expr("h0((0,0,5))", heis))
    assert in_kernel(z, hom)


def test_heisenberg_phi_text(int_digit_limit, heis):
    value_str = standard_hom(heis).target.value_str
    long = 10**3999 + 7
    for x, y in [(0, 0), (-3, 5), (long, -long)]:
        assert value_str((x, y)) == "(" + str(x) + "," + str(y) + ")"
    for pair in [(10**5000, 0), (0, -10**5000)]:
        with pytest.raises(PreconditionViolated, match="^number too long"):
            value_str(pair)


def test_cyclic_standard_hom_is_residue_sum():
    cyc = make_instance("cyclic", 2, {"L": 3})
    hom = standard_hom(cyc)
    g = eval_expr(cyc, parse_expr("h1(3) h2(7)", cyc))
    assert phi_eval(g, hom) == (3 + 7) % 8


def counted(sys, *names):
    """Wrap the named factor-system methods to count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _f=getattr(sys, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        setattr(sys, name, wrapper)
    return calls


@pytest.mark.parametrize("kind,p,params", [
    ("dense", 5, None), ("cyclic", 2, {"L": 3}),
])
def test_identity_standard_hom_is_not_sampled(kind, p, params):
    # work-count guard: phi_n is the identity and the target adds with the
    # instance's own factor_mul, so every check would compare a value with
    # itself
    sys = make_instance(kind, p, params)
    calls = counted(sys, "sample", "sample_base", "factor_mul")
    hom = standard_hom(sys)
    assert calls == {"sample": 0, "sample_base": 0, "factor_mul": 0}
    assert hom.target.add == sys.factor_mul
    x = sys.escape_elem(1)
    assert all(hom.phi(n, x) is x for n in range(4))


def test_heisenberg_standard_hom_is_sampled():
    sys = make_instance("heisenberg", 3)
    calls = counted(sys, "sample", "sample_base")
    standard_hom(sys)
    # six levels of 25 homomorphism and 25 compatibility checks
    assert calls == {"sample": 300, "sample_base": 150}


def test_heisenberg_hom_rejects_a_broken_product():
    sys = make_instance("heisenberg", 3)
    mul = sys.factor_mul
    sys.factor_mul = lambda a, b: tuple(v + 1 for v in mul(a, b))
    with pytest.raises(IncompatibleHom):
        standard_hom(sys)


def test_identity_family_under_another_law_is_sampled(dense):
    # the identity into a target that does not add with factor_mul is an
    # ordinary family: here it is no homomorphism, and sampling says so
    target = Target(
        name="Z[1/p]",
        zero=PAdicRational.zero(5),
        add=lambda a, b: a + b + b,
        value_str=str,
    )
    with pytest.raises(IncompatibleHom):
        LevelwiseHom(dense, target, _identity)


def test_incompatible_per_level_maps_rejected(dense):
    target = Target(
        name="Z[1/p]",
        zero=PAdicRational.zero(5),
        add=lambda a, b: a + b,
        value_str=str,
    )

    def doubler_on_odd_levels(n, x):
        return x + x if n % 2 else x

    with pytest.raises(IncompatibleHom):
        LevelwiseHom(dense, target, doubler_on_odd_levels)


def test_non_homomorphic_map_rejected(dense):
    target = Target(
        name="Z[1/p]",
        zero=PAdicRational.zero(5),
        add=lambda a, b: a + b,
        value_str=str,
    )

    def squarer(n, x):
        return x * x

    with pytest.raises(IncompatibleHom):
        LevelwiseHom(dense, target, squarer)


def test_standard_hom_unknown_kind(dense):
    class Odd:
        kind = "odd"
        p = 5

    with pytest.raises(PreconditionViolated):
        standard_hom(Odd())
