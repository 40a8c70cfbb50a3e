"""Word-expression grammar: parsing, printing, evaluation, round trips."""

import random

import pytest

from amalgam.errors import ExprSyntaxError, LiteralError
from amalgam.instances import make_instance
from amalgam.normalform import (
    forms_equal,
    identity,
    inv,
    is_identity,
    mul,
    reduce_word,
)
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


# -- differential tests against recursive references -------------------------


class RecursiveParser:
    """Recursive-descent reference for the grammar, one call per term."""

    def __init__(self, src, sys):
        self.src, self.sys, self.pos = src, sys, 0

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("unexpected trailing input")
        return e

    def expr(self):
        terms = [self.term()]
        self.skip_ws()
        while self.peek() in ("h", "[", "("):
            terms.append(self.term())
            self.skip_ws()
        return terms[0] if len(terms) == 1 else ProdE(terms)

    def term(self):
        self.skip_ws()
        c = self.peek()
        if c == "h":
            return self.maybe_inverted(self.atom())
        if c == "[":
            self.pos += 1
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return CommE(a, b)
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return self.maybe_inverted(e)
        self.error("expected 'h', '[' or '('")

    def maybe_inverted(self, e):
        self.skip_ws()
        if self.peek() != "^":
            return e
        self.pos += 1
        self.skip_ws()
        if not self.src.startswith("-1", self.pos):
            self.error("expected '-1' after '^'")
        self.pos += 2
        return InvE(e)

    def atom(self):
        self.pos += 1
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected a factor level after 'h'")
        n = int(self.src[start:self.pos])
        self.expect("(")
        lit_start, depth = self.pos, 1
        while self.pos < len(self.src):
            c = self.src[self.pos]
            depth += (c == "(") - (c == ")")
            if depth == 0:
                break
            self.pos += 1
        else:
            self.error("unterminated value literal")
        literal = self.src[lit_start:self.pos]
        self.pos += 1
        return AtomE(n, self.sys.parse_value(literal))


def parse_outcome(parse, text, sys):
    try:
        return "ok", repr(parse(text, sys))
    except (ExprSyntaxError, LiteralError) as exc:
        return type(exc).__name__, str(exc)


def recursive_parse(text, sys):
    return RecursiveParser(text, sys).parse()


def random_ast(sys, rng, depth):
    if depth == 0 or rng.random() < 0.3:
        n = rng.randint(0, 4)
        return AtomE(n, sys.sample(n, rng))
    kind = rng.randrange(3)
    if kind == 0:
        return InvE(random_ast(sys, rng, depth - 1))
    if kind == 1:
        return CommE(random_ast(sys, rng, depth - 1),
                     random_ast(sys, rng, depth - 1))
    return ProdE([random_ast(sys, rng, depth - 1)
                  for _ in range(rng.randint(2, 3))])


INSTANCES = [("dense", 5, None), ("heisenberg", 3, None),
             ("cyclic", 2, {"L": 3})]


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_parser_matches_recursive_reference(name, p, params):
    # texts of random trees, then the same texts with characters deleted,
    # duplicated or swapped for grammar characters: the one-pass parser
    # builds the same tree or raises the same error at the same position
    sysx = make_instance(name, p, params)
    rng = random.Random(11)
    noise = "h[](),^-1 0/5x"
    for _ in range(300):
        text = expr_str(sysx, random_ast(sysx, rng, rng.randint(0, 4)))
        variants = [text]
        for _ in range(3):
            i = rng.randrange(len(text) + 1)
            j = i + rng.randint(0, 2)
            variants.append(text[:i] + rng.choice(noise) + text[j:])
            variants.append(text[:i] + text[j:])
            variants.append(text[:i] + text[i:j] * 2 + text[j:])
        for v in variants:
            assert parse_outcome(parse_expr, v, sysx) == \
                parse_outcome(recursive_parse, v, sysx), v


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_structural_eval_matches_lowered_word(name, p, params):
    sysx = make_instance(name, p, params)
    rng = random.Random(12)
    for _ in range(150):
        e = random_ast(sysx, rng, rng.randint(0, 5))
        want = reduce_word(sysx, expr_to_word(sysx, e))
        assert eval_expr(sysx, e) == want
        text = expr_str(sysx, e)
        assert expr_str(sysx, parse_expr(text, sysx)) == text
        assert eval_expr(sysx, parse_expr(form_expr_str(sysx, want),
                                          sysx)) == want


def test_deep_expressions_need_no_stack(dense):
    # 5,000 nested inversions, products and commutators parse, lower,
    # evaluate and print
    depth = 5000
    inverted = "(" * depth + "h1(1/5)" + ")^-1" * depth
    e = parse_expr(inverted, dense)
    assert expr_to_word(dense, e) == [(1, PAdicRational(1, 1, 5))]
    assert eval_expr(dense, e) == reduce_word(dense, [(1, PAdicRational(1, 1, 5))])
    text = expr_str(dense, e)
    assert expr_str(dense, parse_expr(text, dense)) == text
    nested = "[" * depth + "h1(1/5)" + ", h0(5)]" * depth
    e = parse_expr(nested, dense)
    assert eval_expr(dense, e) == identity(dense)
    assert expr_str(dense, e) == nested
    products = "(" * depth + "h0(1) " + "h1(2)) " * depth
    e = parse_expr(products, dense)
    assert len(expr_to_word(dense, e)) == depth + 1
    text = expr_str(dense, e)
    assert expr_str(dense, parse_expr(text, dense)) == text


def test_deep_form_round_trip(dense):
    # a 5,000-level word reduces, prints as an expression and reduces back
    word = [(n, PAdicRational(1, 0, 5)) for n in range(5000, 1, -1)]
    form = reduce_word(dense, word + [(1, PAdicRational(1, 1, 5)),
                                      (0, PAdicRational(1, 1, 5))])
    text = form_expr_str(dense, form)
    assert eval_expr(dense, parse_expr(text, dense)) == form
    assert format_form(dense, form).count("Alt(") == 5000
