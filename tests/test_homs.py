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
from amalgam.normalform import Alt, inject, inv, mul, reduce_word
from amalgam.padic import PAdicRational, mat_mul, padic_sum, unipotent
from amalgam.suites import random_form
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


# -- Target.total ------------------------------------------------------------

STANDARD = [("dense", 5, None), ("heisenberg", 3, None),
            ("cyclic", 2, {"L": 3})]


def fold(target, values):
    acc = target.zero
    for v in values:
        acc = target.add(acc, v)
    return acc


def images(g, hom):
    """hom's image of every value in g, as phi_eval maps them."""
    out, forms = [], [g]
    while forms:
        f = forms.pop()
        out.append(hom.phi(f.level, f.tail))
        for letter in f.letters:
            if type(letter) is Alt:
                forms.append(letter)
            else:
                out.append(hom.phi(f.level, letter))
    return out


def sample_forms(sys):
    """Random forms, level-0 forms and one form nested 60 levels deep."""
    rng = random.Random(34)
    forms = [random_form(sys, rng, rng.choice((1, 8, 40)), 6)
             for _ in range(60)]
    forms += [inject(sys, 0, sys.sample(0, rng)) for _ in range(10)]
    flat = " ".join(f"h{n}({sys.value_str(sys.escape_elem(n - 1))})"
                    for n in range(60, 0, -1))
    deep = eval_expr(sys, parse_expr(flat, sys))
    assert deep.level == 60 and type(deep.letters[-1]) is Alt
    return forms + [deep]


@pytest.mark.parametrize("kind,p,params", STANDARD)
def test_standard_total_is_the_fold(kind, p, params):
    sys = make_instance(kind, p, params)
    hom = standard_hom(sys)
    target = hom.target
    for g in sample_forms(sys):
        values = images(g, hom)
        assert target.total(values) == fold(target, values)
        assert target.total(values[:1]) == values[0]
    assert target.total([]) == target.zero


@pytest.mark.parametrize("kind,p,params", STANDARD)
def test_phi_psi_text_and_kernel_match_the_fold(kind, p, params):
    sys = make_instance(kind, p, params)
    hom = standard_hom(sys)
    target = hom.target
    forms = sample_forms(sys)
    # commutators lie in the kernel of every map into an abelian group
    forms += [mul(sys, a, b, inv(sys, a), inv(sys, b))
              for a, b in zip(forms[:20], forms[20:40])]
    for g in forms:
        want = fold(target, images(g, hom))
        assert target.value_str(phi_eval(g, hom)) == target.value_str(want)
        assert in_kernel(g, hom) is (want == target.zero)
        if target.embeds:
            assert str(psi_eval(g, hom)) == str(unipotent(want))
    assert all(in_kernel(g, hom) for g in forms[-20:])
    assert not all(in_kernel(g, hom) for g in forms[:20])


class CountingPrime(int):
    """A prime that records the exponent of each power taken of it."""

    def __new__(cls, p, powers):
        self = super().__new__(cls, p)
        self.powers = powers
        return self

    def __pow__(self, e):
        self.powers.append(e)
        return int(self) ** e


def test_padic_sum_over_exponents_in_the_thousands():
    rng = random.Random(36)
    exps = (0, 1, 3, 700, 2500, 4000)
    values = [PAdicRational(rng.randint(-10**6, 10**6), rng.choice(exps), 5)
              for _ in range(300)]
    total = fold(standard_hom(make_instance("dense", 5)).target, values)
    assert total.den_exp == 4000
    # with it, the sum is 3: normalizing descends all 4,000 powers of 5
    cancel = PAdicRational(-total.num, 4000, 5) + P(3)
    for vs, want in ((values, total), (values + [cancel], P(3))):
        powers = []
        got = padic_sum(vs, CountingPrime(5, powers))
        assert (got.num, got.den_exp) == (want.num, want.den_exp)
        # one power per distinct den_exp below the largest
        gaps = {4000 - v.den_exp for v in vs} - {0}
        assert sorted(powers) == sorted(gaps) and len(gaps) >= 5


def test_target_without_total_folds_add(dense):
    calls = []

    def add(a, b):
        calls.append((a, b))
        return a + b

    target = Target(name="Z[1/p]", zero=P(0), add=add, value_str=str)
    values = [P(1, 1), P(3, 2), P(-8, 1), P(2)]
    assert target.total(values) == P(0) + P(1, 1) + P(3, 2) + P(-8, 1) + P(2)
    assert len(calls) == len(values) and calls[0][0] == P(0)
    assert target.total([]) == P(0)
    hom = LevelwiseHom(dense, target, _identity)
    g = eval_expr(dense, parse_expr("h1(2/5) h0(3) h2(1/25) h1(1/5)", dense))
    calls.clear()
    assert phi_eval(g, hom) == phi_eval(g, standard_hom(dense))
    assert len(calls) == len(images(g, hom))
