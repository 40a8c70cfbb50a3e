"""Engine-level behavior: canonical forms, group laws, levels, centrality."""

import random
from sys import getrecursionlimit, setrecursionlimit

import pytest

from amalgam.errors import PreconditionViolated, UnsupportedLevel
from amalgam.instances import make_instance
from amalgam.normalform import (
    Alt,
    _assemble,
    _fold,
    centrality_check,
    forms_equal,
    identity,
    inject,
    inv,
    is_identity,
    layout,
    mul,
    reduce_word,
)
from amalgam.oracle import naive_reduce
from amalgam.padic import PAdicRational
from amalgam.witnesses import _build_tree
from amalgam.wordexpr import AtomE, CommE, InvE, ProdE, eval_expr, format_form


def R(num, k=0, p=5):
    return PAdicRational(num, k, p)


@pytest.fixture(scope="module")
def dense():
    return make_instance("dense", 5)


@pytest.fixture(scope="module")
def heis():
    return make_instance("heisenberg", 3)


@pytest.fixture(scope="module")
def cyc():
    return make_instance("cyclic", 2, {"L": 3})


ALL = ["dense", "heis", "cyc"]


def rand_word(sys, rng, max_len=16, max_level=6):
    return [
        (rng.randint(0, max_level), sys.sample(rng.randint(0, max_level), rng))
        for _ in range(rng.randint(0, max_len))
    ]


# --- fixed reduce examples (dense, p=5) ------------------------------------


def test_reduce_level0_sum(dense):
    got = reduce_word(dense, [(0, R(2, 1)), (0, R(3, 1))])
    assert got == Alt(0, (), R(1))
    assert got.level == 0


def test_reduce_single_level1_syllable(dense):
    got = reduce_word(dense, [(1, R(7, 1))])
    assert got == Alt(1, (R(2, 1),), R(1))
    assert got.level == 1


def test_reduce_base_identification(dense):
    got = reduce_word(dense, [(1, R(2)), (0, R(3))])
    assert got == Alt(0, (), R(5))
    assert got.level == 0


def test_reduce_irreducible_commutator(dense):
    w = [(1, R(1, 1)), (0, R(1, 1)), (1, R(-1, 1)), (0, R(-1, 1))]
    got = reduce_word(dense, w)
    assert got.level == 1
    assert len(got.letters) == 4
    # the negative letters are replaced by their [0,1) representatives, each
    # shedding a residue of -1 into the tail
    assert got.tail == R(-2)
    assert not is_identity(dense, got)
    from amalgam.oracle import naive_reduce

    assert naive_reduce(dense, w) == got


def test_empty_word_is_identity(dense):
    got = reduce_word(dense, [])
    assert got == identity(dense)
    assert is_identity(dense, got)


# --- mul / inv / eq ---------------------------------------------------------


def test_mul_identity(dense):
    rng = random.Random(1)
    for _ in range(30):
        g = reduce_word(dense, rand_word(dense, rng, 8, 4))
        assert mul(dense, g, identity(dense)) == g
        assert mul(dense, identity(dense), g) == g


def test_inv_antihomomorphism_example(dense):
    lhs = inv(dense, reduce_word(dense, [(1, R(1, 1)), (0, R(2))]))
    rhs = reduce_word(dense, [(0, R(-2)), (1, R(-1, 1))])
    assert lhs == rhs


@pytest.mark.parametrize("name", ALL)
def test_group_axioms_random(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(2)
    ident = identity(sys)
    for _ in range(60):
        a = reduce_word(sys, rand_word(sys, rng, 8, 4))
        b = reduce_word(sys, rand_word(sys, rng, 8, 4))
        c = reduce_word(sys, rand_word(sys, rng, 8, 4))
        assert mul(sys, mul(sys, a, b), c) == mul(sys, a, mul(sys, b, c))
        assert mul(sys, a, ident) == a
        assert is_identity(sys, mul(sys, a, inv(sys, a)))
        assert is_identity(sys, mul(sys, inv(sys, a), a))


@pytest.mark.parametrize("name", ALL)
def test_eq_three_ways(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(3)
    for _ in range(40):
        u = reduce_word(sys, rand_word(sys, rng, 8, 4))
        v = reduce_word(sys, rand_word(sys, rng, 8, 4))
        via_forms = forms_equal(sys, u, v)
        via_quotient = is_identity(sys, mul(sys, u, inv(sys, v)))
        assert via_forms == via_quotient
        assert forms_equal(sys, u, u)
        assert is_identity(sys, mul(sys, u, inv(sys, u)))


def copied(form):
    """An equal form that shares no nested form with ``form``."""
    return Alt(form.level, tuple(
        copied(letter) if type(letter) is Alt else letter
        for letter in form.letters), form.tail)


def distinct_nested(form):
    seen, stack = set(), [form]
    while stack:
        for letter in stack.pop().letters:
            if type(letter) is Alt and id(letter) not in seen:
                seen.add(id(letter))
                stack.append(letter)
    return len(seen)


@pytest.mark.parametrize("name", ALL)
def test_eq_tells_a_value_letter_from_a_form_letter(name, request):
    # a value letter against an Alt letter at the same position, even the
    # level-0 Alt of that very value, is unequal in both orders
    sys = request.getfixturevalue(name)
    rng = random.Random(19)
    swapped = 0
    for _ in range(40):
        f = reduce_word(sys, rand_word(sys, rng, 8, 4))
        for i, letter in enumerate(f.letters):
            other = (letter.tail if type(letter) is Alt
                     else Alt(0, (), letter))
            g = Alt(f.level, f.letters[:i] + (other,) + f.letters[i + 1:],
                    f.tail)
            assert f != g and g != f
            swapped += 1
    assert swapped > 40


@pytest.mark.parametrize("name", ALL)
def test_shared_and_copied_forms_are_equal_and_hash_equal(name, request):
    sys = request.getfixturevalue(name)
    f = eval_expr(sys, _build_tree(sys, 5, 5))
    g = reduce_word(sys, rand_word(sys, random.Random(20), 12, 4))
    for form in (f, mul(sys, f, f), mul(sys, mul(sys, g, f), g)):
        c = copied(form)
        assert distinct_nested(c) > distinct_nested(form)
        assert form == c and c == form
        assert hash(form) == hash(c)


def test_eq_of_shared_letters_compares_no_value(dense, count_calls):
    # work-count guard: a product with the identity keeps f's letters and
    # tail, and == takes a shared object as equal without comparing it
    rng = random.Random(22)
    word = []
    while len(word) < 200:
        word += rand_word(dense, rng, 16, 6)
    f = reduce_word(dense, word[:200])
    g = mul(dense, f, identity(dense))
    assert len(f.letters) > 20 and distinct_nested(f) > 20
    equal, calls = count_calls(PAdicRational.__eq__, lambda: f == g)
    assert equal and calls == 0


def deepest_path(form):
    """The longest chain of forms from ``form`` down, each an L-letter above
    level 0 of the one before, to one with no such letter."""
    longest = [form]
    for letter in form.letters:
        if type(letter) is Alt and letter.level > 0:
            below = [form] + deepest_path(letter)
            if len(below) > len(longest):
                longest = below
    return longest


def with_deepest_letter(form, letter):
    """``form`` with the last R-letter at the end of ``deepest_path``
    replaced by ``letter``, sharing every other letter and tail."""
    child, changed = None, letter
    for parent in reversed(deepest_path(form)):
        letters = list(parent.letters)
        i = max(i for i, x in enumerate(letters)
                if (x is child if child is not None else type(x) is not Alt))
        letters[i] = changed
        child, changed = parent, Alt(parent.level, tuple(letters), parent.tail)
    return changed


@pytest.mark.parametrize("name", ALL)
def test_eq_sees_a_deep_change_under_shared_letters(name, request):
    sys = request.getfixturevalue(name)
    f = eval_expr(sys, _build_tree(sys, 4, 4))
    path = deepest_path(f)
    assert len(path) >= 4
    old = [x for x in path[-1].letters if type(x) is not Alt][-1]
    new = sys.factor_mul(old, sys.escape_elem(0))
    assert new != old
    g = with_deepest_letter(f, new)
    # the forms share all but the letters on the path
    assert sum(a is b for a, b in zip(f.letters, g.letters)) == len(f.letters) - 1
    assert f != g and g != f
    assert with_deepest_letter(f, old) == f


@pytest.mark.parametrize("name", ALL)
def test_assemble_of_a_lone_left_letter_matches_mul(name, request):
    # a level-m L-letter's form times b in B_{n-1}: mul only multiplies the
    # tails, so _assemble builds that Alt itself and shares the letters
    sys = request.getfixturevalue(name)
    rng = random.Random(21)
    checked = 0
    for _ in range(200):
        f = reduce_word(sys, rand_word(sys, rng, 10, 4))
        n = f.level + rng.randint(1, 2)
        if f.level == 0 and sys.in_base(n - 1, f.tail):
            continue
        [sub], _ = _fold(sys, f.level, f.letters, f.tail, n, sys.factor_id())
        b = sys.sample_base(n - 1, rng)
        got = _assemble(sys, n, [sub], b)
        assert got == mul(sys, sub, Alt(0, (), b))
        assert got.letters is sub.letters
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", ALL)
def test_inv_is_involution(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(4)
    for _ in range(40):
        g = reduce_word(sys, rand_word(sys, rng, 10, 5))
        assert inv(sys, inv(sys, g)) == g


def test_inv_of_product(dense):
    rng = random.Random(5)
    for _ in range(30):
        a = reduce_word(dense, rand_word(dense, rng, 8, 4))
        b = reduce_word(dense, rand_word(dense, rng, 8, 4))
        assert inv(dense, mul(dense, a, b)) == mul(dense, inv(dense, b), inv(dense, a))


def recursive_repr(form, value_str=repr):
    """The text of repr(form), or of format_form with the instance's
    value_str, one call per nesting level.
    """
    if form.level == 0:
        return f"Base({value_str(form.tail)})"
    letters = "".join([
        f"R:{value_str(letter)}; " if type(letter) is not Alt
        else f"L:({recursive_repr(letter, value_str)}); "
        for letter in form.letters])
    return f"Alt({form.level}; {letters}tail {value_str(form.tail)})"


@pytest.mark.parametrize("name", ALL)
def test_repr_matches_recursive_reference(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(6)
    nested = 0
    for _ in range(60):
        g = reduce_word(sys, rand_word(sys, rng, 12, 6))
        assert repr(g) == recursive_repr(g)
        nested += repr(g).count("L:(Alt(")
    assert nested  # some of the forms nest an Alt in a left letter


def test_repr_of_deep_form_needs_no_stack(dense):
    word = [(n, R(1)) for n in range(5000, 1, -1)]
    form = reduce_word(dense, word + [(1, R(1, 1)), (0, R(1, 1))])
    text, human = repr(form), format_form(dense, form)
    assert text.startswith("Alt(5000; R:") and text.endswith(")")
    assert text.count("L:(Alt(") == 4999
    # only the reference recurses: two Python frames per level, and its
    # list comprehension, unlike a generator fed to join, uses no C stack
    limit = getrecursionlimit()
    setrecursionlimit(limit + 3 * 5000)
    try:
        want = recursive_repr(form), recursive_repr(form, dense.value_str)
    finally:
        setrecursionlimit(limit)
    assert (text, human) == want


@pytest.mark.parametrize("name", ALL)
def test_printers_of_shared_forms_match_recursive_reference(name, request):
    # derived results and products of a form with itself nest one form
    # object at many places
    sys = request.getfixturevalue(name)
    derived = [eval_expr(sys, _build_tree(sys, d, d)) for d in range(9)]
    forms = list(derived)
    for f, g in zip(derived[1:], derived):
        forms += [mul(sys, f, f), mul(sys, mul(sys, f, g), f)]
    rng = random.Random(18)
    for _ in range(20):
        f = reduce_word(sys, rand_word(sys, rng, 12, 4))
        g = reduce_word(sys, rand_word(sys, rng, 12, 4))
        forms += [mul(sys, f, f), mul(sys, mul(sys, f, g), f)]
    for form in forms:
        assert repr(form) == recursive_repr(form)
        assert format_form(sys, form) == recursive_repr(form, sys.value_str)


def test_layout_walks_each_shared_form_once(dense):
    # the d = 8 derived result nests 16,773 forms but holds 229 distinct
    # ones: printing each distinct form once takes 2,844 value_str calls,
    # and every nested form printed in full takes 45,415
    form = eval_expr(dense, _build_tree(dense, 8, 8))
    calls = []

    def counting(x):
        calls.append(x)
        return dense.value_str(x)

    assert layout(form, counting) == recursive_repr(form, dense.value_str)
    assert len(calls) <= 5000


# --- level ------------------------------------------------------------------


def test_level_examples(dense):
    assert reduce_word(dense, [(0, R(7, 3))]).level == 0
    assert reduce_word(dense, [(2, R(25))]).level == 0
    assert reduce_word(dense, [(3, R(1, 1))]).level == 3


@pytest.mark.parametrize("name", ALL)
def test_level_monotonicity(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(6)
    for _ in range(40):
        a = reduce_word(sys, rand_word(sys, rng, 8, 5))
        b = reduce_word(sys, rand_word(sys, rng, 8, 5))
        assert mul(sys, a, b).level <= max(a.level, b.level)
        assert inv(sys, a).level == a.level


@pytest.mark.parametrize("name", ALL)
def test_base_identification_across_levels(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(7)
    for n in range(1, 5):
        for _ in range(20):
            b = sys.sample_base(n - 1, rng)
            assert reduce_word(sys, [(n, b)]) == reduce_word(sys, [(n - 1, b)])
            assert reduce_word(sys, [(n, b)]).level == 0


# --- centrality ---------------------------------------------------------------


def test_centrality_identity_case(dense):
    assert centrality_check(dense, identity(dense), 0, R(7))


def test_centrality_paper_case(dense):
    g = reduce_word(dense, [(1, R(1, 1))])
    assert centrality_check(dense, g, 0, R(1))


@pytest.mark.parametrize("name", ALL)
def test_centrality_random(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(0, 4)
        w = rand_word(sys, rng, 6, n + 1)
        g = reduce_word(sys, w)
        z = sys.sample_base(n, rng)
        assert centrality_check(sys, g, n, z)


def test_centrality_preconditions(dense):
    g = reduce_word(dense, [(3, R(1, 1))])
    with pytest.raises(PreconditionViolated):
        centrality_check(dense, g, 1, R(5))  # level 3 > n+1 = 2
    with pytest.raises(PreconditionViolated):
        centrality_check(dense, identity(dense), 1, R(1, 1))  # 1/5 not in B_1


def test_beyond_level_cap_raises():
    capped = make_instance("cyclic", 2, {"L": 3, "max_level": 2})
    with pytest.raises(UnsupportedLevel):
        reduce_word(capped, [(3, 1)])
    assert reduce_word(capped, [(2, 1)]).level == 2


def test_heisenberg_factor_commutator_collapses(heis):
    w = [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (-1, 0, 0)), (1, (0, -1, 0))]
    assert reduce_word(heis, w) == Alt(0, (), (0, 0, 1))


def test_noncommutative_letters_do_not_collapse(heis):
    # same letters at different levels: the cross-level commutator survives
    w = [(1, (1, 0, 0)), (2, (0, 1, 0)), (1, (-1, 0, 0)), (2, (0, -1, 0))]
    got = reduce_word(heis, w)
    assert not is_identity(heis, got)
    assert got.level == 2


@pytest.mark.parametrize("name", ALL)
def test_every_form_is_an_alt(name, request):
    # one form type: a level-0 element, top-level or nested in a left
    # letter, is an Alt with no letters, and only level 0 has none
    sys = request.getfixturevalue(name)
    rng = random.Random(14)
    forms = [identity(sys)]
    for _ in range(40):
        word = rand_word(sys, rng, 10, 4)
        a = reduce_word(sys, word)
        b = reduce_word(sys, rand_word(sys, rng, 10, 4))
        n = rng.randint(0, 4)
        x, y = sys.sample(n, rng), sys.sample(0, rng)
        forms += [
            a, b, mul(sys, a, b), inv(sys, a), inject(sys, n, x),
            inject(sys, n, y), naive_reduce(sys, word),
            eval_expr(sys, AtomE(n, y)),
            eval_expr(sys, CommE(AtomE(n, x), InvE(AtomE(0, y)))),
        ]
        if word:
            forms.append(eval_expr(sys, ProdE(AtomE(*s) for s in word)))
    nested_level0 = 0
    while forms:
        form = forms.pop()
        assert type(form) is Alt
        assert (form.level == 0) == (form.letters == ())
        for letter in form.letters:
            if type(letter) is Alt:
                nested_level0 += letter.level == 0
                forms.append(letter)
    assert nested_level0
