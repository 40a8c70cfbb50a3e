"""Word-expression grammar: parsing, printing, evaluation, round trips."""

import random

import pytest

from amalgam import wordexpr
from amalgam.errors import ExprSyntaxError, LiteralError
from amalgam.instances import DenseInstance, make_instance
from amalgam.normalform import (
    Alt,
    forms_equal,
    identity,
    inv,
    is_identity,
    mul,
    reduce_word,
)
from amalgam.padic import PAdicRational
from amalgam.witnesses import _build_tree
from amalgam.wordexpr import (
    AtomE,
    CommE,
    InvE,
    ProdE,
    eval_expr,
    expr_str,
    expr_to_word,
    form_expr_str,
    format_form,
    parse_expr,
    reaches_level,
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


def test_atom_reader_balances_deeper_parentheses():
    # no shipped literal nests parentheses two deep, so only an instance
    # that reads such literals gets a value from the piece-by-piece reader
    class Parenthesized(DenseInstance):
        def parse_value(self, text):
            return super().parse_value(text.strip().strip("()"))

    sysx = Parenthesized(5)
    src = "h1(((3))) ^ -1  h0(1)"
    atom, m = wordexpr._atom(src, 0, sysx)
    assert (atom.level, atom.value) == (1, PAdicRational(3, 0, 5))
    assert wordexpr._inverted(m, atom).child is atom
    assert m.end() == src.index("h0")
    e = parse_expr("h1(((3)))^-1", sysx)
    assert type(e) is InvE
    assert (e.child.level, e.child.value) == (1, atom.value)


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


@pytest.mark.parametrize("name,p", [("dense", 5), ("heisenberg", 3),
                                    ("cyclic", 2)])
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


def reference_depth(e):
    """Commutator depth of an AST, by recursion: 0 without commutators, d for
    a perfect depth-d commutator tree over commutator-free leaves, else None.
    """
    if type(e) is AtomE:
        return 0
    if type(e) is CommE:
        a, b = reference_depth(e.a), reference_depth(e.b)
        return a + 1 if a is not None and a == b else None
    kids = e.terms if type(e) is ProdE else (e.child,)
    return 0 if all(reference_depth(c) == 0 for c in kids) else None


def perfect_ast(sys, rng, depth):
    if depth == 0:
        return random_ast(sys, rng, 0) if rng.random() < 0.5 else \
            ProdE([random_ast(sys, rng, 0) for _ in range(2)])
    return CommE(perfect_ast(sys, rng, depth - 1),
                 perfect_ast(sys, rng, depth - 1))


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_depth_matches_recursive_reference(name, p, params):
    sysx = make_instance(name, p, params)
    rng = random.Random(14)
    trees = [random_ast(sysx, rng, rng.randint(0, 5)) for _ in range(300)]
    trees += [perfect_ast(sysx, rng, d) for d in range(5)]
    seen = set()
    for e in trees:
        want = reference_depth(e)
        seen.add(want)
        assert e.depth == want
        assert parse_expr(expr_str(sysx, e), sysx).depth == want
    assert seen >= {None, 0, 1, 2, 3, 4}


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


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_carried_inverses_are_inverses(name, p, params, monkeypatch):
    # every (form, inverse) pair that evaluation carries up a tree, into
    # and out of each node above a commutator, multiplies to the identity
    sysx = make_instance(name, p, params)
    combine, combine_inv = wordexpr._combine, wordexpr._combine_inv
    checked = []

    def check(sys, pairs):
        for form, inverse in pairs:
            if inverse is not None:
                assert is_identity(sys, mul(sys, form, inverse))
                checked.append(form)

    def forming(sys, node, pairs):
        check(sys, pairs)
        return combine(sys, node, pairs)

    def inverting(sys, node, pairs):
        inverse = combine_inv(sys, node, pairs)
        check(sys, pairs + [(combine(sys, node, pairs), inverse)])
        return inverse

    monkeypatch.setattr(wordexpr, "_combine", forming)
    monkeypatch.setattr(wordexpr, "_combine_inv", inverting)
    rng = random.Random(13)
    for _ in range(150):
        e = random_ast(sysx, rng, rng.randint(1, 5))
        assert eval_expr(sysx, e) == reduce_word(sysx, expr_to_word(sysx, e))
    assert len(checked) > 300


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
    # only the innermost commutator is a perfect tree
    assert e.depth is None
    inner = e
    while type(inner.a) is CommE:
        inner = inner.a
    assert inner.depth == 1
    assert eval_expr(dense, e) == identity(dense)
    assert expr_str(dense, e) == nested
    products = "(" * depth + "h0(1) " + "h1(2)) " * depth
    e = parse_expr(products, dense)
    assert len(expr_to_word(dense, e)) == depth + 1
    text = expr_str(dense, e)
    assert expr_str(dense, parse_expr(text, dense)) == text


def top_atom(sys, e):
    """The highest atom level in an AST, read from its lowered word."""
    return max(n for n, _ in expr_to_word(sys, e))


def test_reaches_level_on_deep_chains(dense):
    # 5,000 nested inversions or products walk on the stack, not Python's
    depth = 5000
    for text, top in [("(" * depth + "h7(1/5)" + ")^-1" * depth, 7),
                      ("(" * depth + "h3(1) " + "h1(2))^-1 " * depth, 3)]:
        e = parse_expr(text, dense)
        assert reaches_level(e, top) and not reaches_level(e, top + 1)


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_reaches_level_is_the_highest_atom_and_bounds_the_form(name, p,
                                                               params):
    sysx = make_instance(name, p, params)
    rng = random.Random(17)
    for _ in range(200):
        e = random_ast(sysx, rng, rng.randint(0, 5))
        top = top_atom(sysx, e)
        assert all(reaches_level(e, n) for n in range(top + 1))
        assert not reaches_level(e, top + 1)
        assert eval_expr(sysx, e).level <= top


@pytest.mark.parametrize("text,top", [
    ("[h1(1) (h4(1) [h2(1), h0(1)])^-1, h3(1)] h2(1)", 4),
    ("h0(1) [[h2(1), h5(1)^-1], h1(1)] (h3(1) h0(2))^-1", 5),
    ("([h0(1), h0(2)] h0(3))^-1", 0),
    ("h9(0) [h1(1), h2(1)]", 9),
    ("h2(25) [h1(1), h0(1)]", 2),
])
def test_reaches_level_of_mixed_trees(dense, text, top):
    # the highest atom counts wherever it sits, even one whose value lies
    # in a lower stage (h9(0) is the identity, h2(25) a level-0 form)
    e = parse_expr(text, dense)
    assert reaches_level(e, top) and not reaches_level(e, top + 1)
    assert eval_expr(dense, e).level <= top


def test_reaches_level_stops_at_a_derived_trees_leftmost_leaf(dense,
                                                              monkeypatch):
    # the leftmost leaf of T(d, L) is its highest atom: d nodes open above it
    tree = parse_expr(expr_str(dense, _build_tree(dense, 6, 6)), dense)
    opened = []
    children = wordexpr._children

    def counting(e):
        opened.append(e)
        return children(e)

    monkeypatch.setattr(wordexpr, "_children", counting)
    assert reaches_level(tree, 7)
    assert len(opened) == 6
    assert not reaches_level(tree, 8)
    assert len(opened) == 6 + 2**6 - 1


def test_deep_form_round_trip(dense):
    # a 5,000-level word reduces, prints as an expression and reduces back
    word = [(n, PAdicRational(1, 0, 5)) for n in range(5000, 1, -1)]
    form = reduce_word(dense, word + [(1, PAdicRational(1, 1, 5)),
                                      (0, PAdicRational(1, 1, 5))])
    text = form_expr_str(dense, form)
    assert eval_expr(dense, parse_expr(text, dense)) == form
    assert format_form(dense, form).count("Alt(") == 5000


# -- the one-pass form renderer against the AST composition ------------------


def form_to_expr(sys, form):
    """The AST of a form's canonical text: one term per letter, and a
    non-identity tail as a last level-0 atom; a nested form with one term is
    that term, else a product.  Explicit stack, as the 5,000-level form
    needs.
    """
    if form.level == 0:
        return AtomE(0, form.tail)
    pending = []
    n, letters, terms, tail = form.level, iter(form.letters), [], form.tail
    while True:
        for letter in letters:
            if type(letter) is not Alt:
                terms.append(AtomE(n, letter))
            elif letter.level == 0:
                terms.append(AtomE(0, letter.tail))
            else:
                pending.append((n, letters, terms, tail))
                n, letters = letter.level, iter(letter.letters)
                terms, tail = [], letter.tail
                break
        else:
            if tail != sys.factor_id():
                terms.append(AtomE(0, tail))
            e = terms[0] if len(terms) == 1 else ProdE(terms)
            if not pending:
                return e
            n, letters, terms, tail = pending.pop()
            terms.append(e)


def reference_form_expr_str(sys, form):
    return expr_str(sys, form_to_expr(sys, form))


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_form_expr_str_matches_reference(name, p, params):
    sysx = make_instance(name, p, params)
    rng = random.Random(15)
    forms = [identity(sysx)]
    for _ in range(300):
        w = [(rng.randint(0, 6), sysx.sample(rng.randint(0, 6), rng))
             for _ in range(rng.randint(0, 30))]
        forms.append(reduce_word(sysx, w))
    # derived_escape's results at d = 0..6, with nested left letters
    forms += [eval_expr(sysx, _build_tree(sysx, d, d)) for d in range(7)]
    assert max(f.level for f in forms) == 7
    for form in forms:
        assert form_expr_str(sysx, form) == reference_form_expr_str(sysx, form)


def test_deep_form_matches_reference(dense):
    # the 5,000-level form of test_deep_form_round_trip
    word = [(n, PAdicRational(1, 0, 5)) for n in range(5000, 1, -1)]
    form = reduce_word(dense, word + [(1, PAdicRational(1, 1, 5)),
                                      (0, PAdicRational(1, 1, 5))])
    assert form_expr_str(dense, form) == reference_form_expr_str(dense, form)


def shared_ast(sys, rng, depth, pool):
    """A random AST that reuses node objects from pool as operands.

    Every node it builds joins pool, so later operands can be the same
    object as an earlier one, at any depth; [x, x], x x and x^-1 next to x
    come up as well.
    """
    if pool and rng.random() < 0.4:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.25:
        n = rng.randint(0, 4)
        e = AtomE(n, sys.sample(n, rng))
    else:
        kind = rng.randrange(4)
        a = shared_ast(sys, rng, depth - 1, pool)
        if kind == 0:
            e = InvE(a)
        elif kind == 1:
            e = CommE(a, shared_ast(sys, rng, depth - 1, pool))
        elif kind == 2:
            e = CommE(a, a)
        else:
            e = ProdE([a] + [shared_ast(sys, rng, depth - 1, pool)
                             for _ in range(rng.randint(1, 2))] + [InvE(a)])
    pool.append(e)
    return e


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_repeated_subtrees_evaluate_as_lowered(name, p, params):
    # the same node object reused, and its text parsed back, where every
    # repeat is a separately built, structurally equal subtree
    sysx = make_instance(name, p, params)
    rng = random.Random(16)
    for _ in range(150):
        e = shared_ast(sysx, rng, rng.randint(1, 5), [])
        want = reduce_word(sysx, expr_to_word(sysx, e))
        rebuilt = parse_expr(expr_str(sysx, e), sysx)
        for tree in (e, rebuilt):
            assert eval_expr(sysx, tree) == want
            assert eval_expr(sysx, tree) == want


def test_equal_values_at_other_levels_are_other_atoms(dense):
    x, y = PAdicRational(1, 0, 5), PAdicRational(1, 1, 5)
    texts = ["[h1(1), h2(1)]", "[h2(1), h2(1)]", "[h1(1/5), h0(1/5)] h1(1/5)",
             "[[h1(1), h2(1)], [h2(1), h1(1)]]",
             "([h1(1) h2(1/5), h2(1/5) h1(1)])^-1 [h3(1), h1(1) h2(1/5)]"]
    for text in texts:
        e = parse_expr(text, dense)
        assert eval_expr(dense, e) == reduce_word(dense, expr_to_word(dense, e))
    a1, a2, b2 = AtomE(1, x), AtomE(2, x), AtomE(2, y)
    for e in (CommE(a1, a2), CommE(a2, a2), ProdE([CommE(a1, b2), InvE(a1)]),
              CommE(CommE(a1, a2), CommE(a2, a1)),
              CommE(InvE(CommE(a1, a2)), CommE(a1, a2))):
        assert eval_expr(dense, e) == reduce_word(dense, expr_to_word(dense, e))
    assert is_identity(dense, eval_expr(dense, CommE(a2, a2)))


def test_derived_tree_evaluates_each_distinct_subtree_once(dense, monkeypatch):
    # T(j, L) = [T(j-1, L), T(j-1, L-1)] at d = 6 has 127 nodes but only
    # 7 distinct leaves and 21 distinct commutators
    injected, combined, inverted = [], [], []
    inject_atom = wordexpr.inject
    combine, combine_inv = wordexpr._combine, wordexpr._combine_inv

    def injecting(sys, n, x):
        injected.append(n)
        return inject_atom(sys, n, x)

    def combining(sys, node, pairs):
        combined.append(node)
        return combine(sys, node, pairs)

    def inverting(sys, node, pairs):
        inverted.append(node)
        return combine_inv(sys, node, pairs)

    monkeypatch.setattr(wordexpr, "inject", injecting)
    monkeypatch.setattr(wordexpr, "_combine", combining)
    monkeypatch.setattr(wordexpr, "_combine_inv", inverting)
    tree = _build_tree(dense, 6, 6)
    want = eval_expr(dense, tree)
    for e in (tree, parse_expr(expr_str(dense, tree), dense)):
        del injected[:], combined[:], inverted[:]
        assert eval_expr(dense, e) == want
        assert sorted(injected) == list(range(1, 8))
        # every commutator but the root is wanted with its inverse
        assert len(combined) == 21 and len(inverted) == 20


def test_inverse_first_wanted_at_a_repeat_is_built_alone(dense, monkeypatch):
    # c and p first occur as product terms, whose inverses are not wanted,
    # then as commutator operands, which need them: each is combined once
    # and inverted once, and its later parents get the first form object
    combined, inverted = [], []
    combine, combine_inv = wordexpr._combine, wordexpr._combine_inv

    def combining(sys, node, pairs):
        combined.append((node, pairs))
        return combine(sys, node, pairs)

    def inverting(sys, node, pairs):
        inverted.append(node)
        return combine_inv(sys, node, pairs)

    monkeypatch.setattr(wordexpr, "_combine", combining)
    monkeypatch.setattr(wordexpr, "_combine_inv", inverting)
    a1 = AtomE(1, PAdicRational(1, 0, 5))
    a2 = AtomE(2, PAdicRational(1, 1, 5))
    c = CommE(a1, a2)
    p = ProdE([c, a2])
    for e, lazy in ((ProdE([c, CommE(c, a1)]), [c]),
                    (ProdE([p, CommE(p, a1), c]), [c, p])):
        del combined[:], inverted[:]
        assert eval_expr(dense, e) == reduce_word(dense, expr_to_word(dense, e))
        nodes = [node for node, _ in combined]
        assert len(nodes) == len(set(map(id, nodes)))
        assert [id(n) for n in inverted] == list(map(id, lazy))
        root_pairs, comm_pairs = combined[-1][1], combined[-2][1]
        assert root_pairs[0][0] is comm_pairs[0][0]


def shared_form(sys, rng, pool):
    """A hand-built form whose left letters are drawn from pool, shared.

    Letters alternate and at least one is an R-letter, as in a normal form;
    the values need not be canonical, since the printer reads only the
    structure.  The form joins pool for later forms to share.
    """
    n = rng.randint(1, 4)
    below = [f for f in pool if f.level < n]
    left = rng.random() < 0.5
    letters = []
    for _ in range(rng.randint(1, 4)):
        if left:
            letters.append(rng.choice(below))
        else:
            letters.append(sys.sample(n, rng))
        left = not left
    if len(letters) == 1 and type(letters[0]) is Alt:
        letters.append(sys.sample(n, rng))
    tail = sys.factor_id() if rng.random() < 0.5 else sys.sample(0, rng)
    form = Alt(n, tuple(letters), tail)
    pool.append(form)
    return form


@pytest.mark.parametrize("name,p,params", INSTANCES)
def test_form_expr_str_of_shared_subforms_matches_reference(name, p, params):
    sysx = make_instance(name, p, params)
    rng = random.Random(17)
    pool = [Alt(0, (), sysx.sample(0, rng))]
    forms = [shared_form(sysx, rng, pool) for _ in range(400)]
    # products and commutators of forms share their operands' letters
    words = [[(rng.randint(0, 4), sysx.sample(4, rng)) for _ in range(12)]
             for _ in range(20)]
    for w in words:
        f, g = reduce_word(sysx, w), reduce_word(sysx, w[::-1])
        a, b = (parse_expr(form_expr_str(sysx, x), sysx) for x in (f, g))
        forms += [mul(sysx, f, f), mul(sysx, mul(sysx, f, g), f),
                  eval_expr(sysx, CommE(a, b))]
    forms += [eval_expr(sysx, _build_tree(sysx, d, d)) for d in range(7)]
    shared = 0
    for form in forms:
        assert form_expr_str(sysx, form) == reference_form_expr_str(sysx, form)
        stack, seen = [form], set()
        while stack:
            f = stack.pop()
            for letter in f.letters:
                if type(letter) is Alt:
                    shared += id(letter) in seen
                    seen.add(id(letter))
                    stack.append(letter)
    assert shared > 1000


def test_form_expr_str_reuses_a_group_that_closed_its_parent(dense):
    # s closes x's group, whose end drops the space after s; s and x are
    # then printed again from the text of their first rendering
    one, fifth = PAdicRational(1, 0, 5), PAdicRational(1, 1, 5)
    s = Alt(1, (fifth,), fifth)
    x = Alt(2, (one, s), dense.factor_id())
    form = Alt(3, (x, one, s, one, x), fifth)
    s_text = "(h1(1/5) h0(1/5))"
    x_text = f"(h2(1) {s_text})"
    assert form_expr_str(dense, form) == \
        f"{x_text} h3(1) {s_text} h3(1) {x_text} h0(1/5)"
    assert form_expr_str(dense, form) == reference_form_expr_str(dense, form)
