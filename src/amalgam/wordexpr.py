"""Surface syntax for group words.

Grammar (whitespace-insensitive)::

    expr := term {term}
    term := atom ["^-1"] | "[" expr "," expr "]" | "(" expr ")" ["^-1"]
    atom := "h" NAT "(" literal ")"

The literal between an atom's parentheses is instance-specific and parsed by
the factor system; a commutator [a,b] denotes a b a^-1 b^-1.  The AST keeps
commutators as nodes (certificate verification needs the tree shape); lowering
to flat syllables happens in ``expr_to_word``.
"""

from amalgam.errors import ExprSyntaxError
from amalgam.normalform import Base, RLetter, reduce_word


class AtomE:
    __slots__ = ("level", "value")

    def __init__(self, level, value):
        self.level = level
        self.value = value

    def __repr__(self):
        return f"AtomE({self.level}, {self.value!r})"


class InvE:
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def __repr__(self):
        return f"InvE({self.child!r})"


class CommE:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"CommE({self.a!r}, {self.b!r})"


class ProdE:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    def __repr__(self):
        return f"ProdE({self.terms!r})"


_TERM_STARTS = frozenset("h[(")


class _Parser:
    def __init__(self, src, sys):
        self.src = src
        self.sys = sys
        self.pos = 0

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

    def expr(self):
        terms = [self.term()]
        while True:
            self.skip_ws()
            if self.peek() in _TERM_STARTS:
                terms.append(self.term())
            else:
                break
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
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            if not self.src.startswith("-1", self.pos):
                self.error("expected '-1' after '^'")
            self.pos += 2
            return InvE(e)
        return e

    def atom(self):
        self.pos += 1  # past 'h'
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a factor level after 'h'")
        n = int(self.src[start : self.pos])
        self.expect("(")
        lit_start = self.pos
        depth = 1
        while self.pos < len(self.src):
            c = self.src[self.pos]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    break
            self.pos += 1
        else:
            self.error("unterminated value literal")
        literal = self.src[lit_start : self.pos]
        self.pos += 1  # past ')'
        return AtomE(n, self.sys.parse_value(literal))


def parse_expr(src, sys):
    """Parse one word expression; raises ExprSyntaxError or LiteralError."""
    p = _Parser(src, sys)
    e = p.expr()
    p.skip_ws()
    if p.pos != len(src):
        p.error("unexpected trailing input")
    return e


def _inv_word(sys, w):
    return [(n, sys.factor_inv(n, x)) for n, x in reversed(w)]


def expr_to_word(sys, e):
    """Lower an AST to flat (level, value) syllables."""
    t = type(e)
    if t is AtomE:
        return [(e.level, e.value)]
    if t is ProdE:
        out = []
        for c in e.terms:
            out.extend(expr_to_word(sys, c))
        return out
    if t is InvE:
        return _inv_word(sys, expr_to_word(sys, e.child))
    wa = expr_to_word(sys, e.a)
    wb = expr_to_word(sys, e.b)
    return wa + wb + _inv_word(sys, wa) + _inv_word(sys, wb)


def eval_expr(sys, e):
    return reduce_word(sys, expr_to_word(sys, e))


def expr_str(sys, e):
    """Render an AST back to parseable text."""
    t = type(e)
    if t is AtomE:
        return f"h{e.level}({sys.value_str(e.value)})"
    if t is InvE:
        inner = expr_str(sys, e.child)
        if type(e.child) is AtomE:
            return inner + "^-1"
        return f"({inner})^-1"
    if t is CommE:
        return f"[{expr_str(sys, e.a)}, {expr_str(sys, e.b)}]"
    return " ".join(
        f"({expr_str(sys, c)})" if type(c) is ProdE else expr_str(sys, c)
        for c in e.terms
    )


def form_to_expr(sys, form):
    """A word expression denoting the element of a canonical form."""
    if type(form) is Base:
        return AtomE(0, form.value)
    n = form.level
    terms = []
    for letter in form.letters:
        if type(letter) is RLetter:
            terms.append(AtomE(n, letter.value))
        else:
            terms.append(form_to_expr(sys, letter.form))
    if form.tail != sys.factor_id(n):
        terms.append(AtomE(0, form.tail))
    return terms[0] if len(terms) == 1 else ProdE(terms)


def form_expr_str(sys, form):
    return expr_str(sys, form_to_expr(sys, form))


def format_form(sys, form):
    """Human-oriented rendering: Base(x) or Alt(n; letters...; tail t)."""
    if type(form) is Base:
        return f"Base({sys.value_str(form.value)})"
    bits = []
    for letter in form.letters:
        if type(letter) is RLetter:
            bits.append("R:" + sys.value_str(letter.value))
        else:
            bits.append("L:(" + format_form(sys, letter.form) + ")")
    bits.append("tail " + sys.value_str(form.tail))
    return f"Alt({form.level}; " + "; ".join(bits) + ")"
