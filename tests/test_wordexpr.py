"""Word-expression grammar: parsing, printing, evaluation, round trips."""

import random

import pytest

from amalgam.errors import ExprSyntaxError, LiteralError
from amalgam.instances import make_instance
from amalgam.normalform import forms_equal, inv, is_identity, mul, reduce_word
from amalgam.padic import PAdicRational
from amalgam.wordexpr import (
    AtomE,
    CommE,
    InvE,
    ProdE,
    eval_expr,
    expr_str,
    expr_to_word,
    form_expr_str,
    form_to_expr,
    format_form,
    parse_expr,
)


@pytest.fixture(scope="module")
def dense():
    return make_instance("dense", 5)


@pytest.fixture(scope="module")
def heis():
    return make_instance("heisenberg", 3)


def test_parse_single_atom(dense):
    e = parse_expr("h2(3/25)", dense)
    assert type(e) is AtomE
    assert e.level == 2
    assert e.value == PAdicRational(3, 2, 5)


def test_parse_product_with_inverse(dense):
    e = parse_expr("h0(1/5) h1(2)^-1", dense)
    assert type(e) is ProdE
    a, b = e.terms
    assert type(a) is AtomE
    assert type(b) is InvE and type(b.child) is AtomE


def test_parse_commutator_expands_to_four_syllables(dense):
    e = parse_expr("[h0(1), h1(1/5)]", dense)
    assert type(e) is CommE
    w = expr_to_word(dense, e)
    assert len(w) == 4
    assert [n for n, _ in w] == [0, 1, 0, 1]
    assert w[2][1] == PAdicRational(-1, 0, 5)


def test_parse_nested_commutator(dense):
    e = parse_expr("[[h2(1), h1(1)], h0(1/5)]", dense)
    assert type(e) is CommE
    assert type(e.a) is CommE


def test_parse_parenthesized_group_inverse(dense):
    e = parse_expr("(h0(1) h1(2))^-1", dense)
    assert type(e) is InvE
    got = eval_expr(dense, e)
    want = inv(dense, reduce_word(dense, [(0, PAdicRational(1, 0, 5)),
                                          (1, PAdicRational(2, 0, 5))]))
    assert forms_equal(dense, got, want)


def test_whitespace_is_insensitive(dense):
    a = eval_expr(dense, parse_expr("h0(1/5)h1(2)", dense))
    b = eval_expr(dense, parse_expr("  h0( 1/5 )   h1( 2 )  ", dense))
    assert forms_equal(dense, a, b)


def test_inverse_allows_space_after_caret(dense):
    e = parse_expr("h1(2)^ -1", dense)
    assert type(e) is InvE


def test_parse_heisenberg_tuple_literal(heis):
    e = parse_expr("h1((1,2,7))", heis)
    assert e.value == (1, 2, 7)


@pytest.mark.parametrize("bad", [
    "",
    "h(1)",
    "hx(1)",
    "h1",
    "h1(",
    "h1(1/5",
    "h1(1/5))",
    "[h0(1)]",
    "[h0(1), ]",
    "[h0(1) h1(2)]",
    "h0(1) ^-1 ^-1",
    "h0(1))",
    "()",
    "h1(2)^",
    "h1(2)^-2",
])
def test_syntax_errors_carry_position(dense, bad):
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_expr(bad, dense)
    assert "position" in str(exc_info.value)
    assert exc_info.value.pos >= 0


def test_literal_error_for_wrong_prime(dense):
    with pytest.raises(LiteralError):
        parse_expr("h0(1/3)", dense)


def test_literal_error_for_garbage_value(heis):
    with pytest.raises(LiteralError):
        parse_expr("h0(17)", heis)


def test_trailing_input_rejected(dense):
    with pytest.raises(ExprSyntaxError):
        parse_expr("h0(1) ]", dense)


def test_commutator_has_no_inverse_suffix(dense):
    with pytest.raises(ExprSyntaxError):
        parse_expr("[h0(1), h1(1)]^-1", dense)
    e = parse_expr("([h0(1), h1(1)])^-1", dense)
    assert type(e) is InvE


def test_expr_str_parse_round_trip(dense):
    rng = random.Random(2024)
    for _ in range(150):
        w = [(rng.randint(0, 4), dense.sample(rng.randint(0, 4), rng))
             for _ in range(rng.randint(1, 8))]
        e = ProdE(tuple(AtomE(n, v) for n, v in w)) if len(w) > 1 \
            else AtomE(w[0][0], w[0][1])
        text = expr_str(dense, e)
        back = parse_expr(text, dense)
        assert forms_equal(dense, eval_expr(dense, e), eval_expr(dense, back))


def test_structured_expr_round_trip(dense):
    src = "[h1(1/5), h0(2)] (h0(1) h2(3))^-1 h1(4/5)"
    e = parse_expr(src, dense)
    again = parse_expr(expr_str(dense, e), dense)
    assert forms_equal(dense, eval_expr(dense, e), eval_expr(dense, again))


@pytest.mark.parametrize("name,p", [("dense", 5), ("heisenberg", 3)])
def test_form_to_expr_round_trip(name, p):
    sysx = make_instance(name, p)
    rng = random.Random(77)
    for _ in range(100):
        w = [(rng.randint(0, 4), sysx.sample(rng.randint(0, 4), rng))
             for _ in range(rng.randint(0, 10))]
        form = reduce_word(sysx, w)
        text = form_expr_str(sysx, form)
        back = eval_expr(sysx, parse_expr(text, sysx))
        assert forms_equal(sysx, form, back)


def test_form_expr_str_of_identity_parses(dense):
    form = reduce_word(dense, [])
    assert is_identity(dense, form)
    text = form_expr_str(dense, form)
    back = eval_expr(dense, parse_expr(text, dense))
    assert is_identity(dense, back)


def test_format_form_base(dense):
    form = reduce_word(dense, [(0, PAdicRational(7, 0, 5))])
    assert format_form(dense, form) == "Base(7)"


def test_format_form_alt(dense):
    form = reduce_word(dense, [(1, PAdicRational(7, 1, 5))])
    assert format_form(dense, form) == "Alt(1; R:2/5; tail 1)"


def test_eval_matches_reduce_word(dense):
    rng = random.Random(99)
    for _ in range(100):
        w = [(rng.randint(0, 4), dense.sample(rng.randint(0, 4), rng))
             for _ in range(rng.randint(1, 8))]
        text = " ".join(f"h{n}({dense.value_str(v)})" for n, v in w)
        got = eval_expr(dense, parse_expr(text, dense))
        assert forms_equal(dense, got, reduce_word(dense, w))


def test_inverse_evaluates_to_group_inverse(dense):
    e = parse_expr("(h1(1/5) h0(2) h2(3))^-1", dense)
    w = [(1, PAdicRational(1, 1, 5)), (0, PAdicRational(2, 0, 5)),
         (2, PAdicRational(3, 0, 5))]
    prod = reduce_word(dense, w)
    assert is_identity(dense, mul(dense, prod, eval_expr(dense, e)))


def test_commutator_of_commuting_elements_is_identity(dense):
    e = parse_expr("[h0(2/5), h0(3/5)]", dense)
    assert is_identity(dense, eval_expr(dense, e))


def test_commutator_level(dense):
    e = parse_expr("[h1(1/5), h0(1/5)]", dense)
    assert eval_expr(dense, e).level == 1
