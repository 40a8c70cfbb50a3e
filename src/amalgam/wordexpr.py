"""Surface syntax for group words.

Grammar (whitespace-insensitive)::

    expr := term {term}
    term := atom ["^-1"] | "[" expr "," expr "]" | "(" expr ")" ["^-1"]
    atom := "h" NAT "(" literal ")"

The literal between an atom's parentheses is instance-specific and parsed by
the factor system; a commutator [a,b] denotes a b a^-1 b^-1.  The AST keeps
commutators as nodes (certificate verification needs the tree shape).

No function here recurses once per nesting level, so the depth of an
expression or form is bounded by memory, not by Python's stack:

* ``parse_expr`` makes one left-to-right pass.  A compiled pattern reads a
  whole atom (with its inversion suffix and the whitespace after it) in one
  match, and each open ``(`` or ``[`` is a frame on an explicit stack.
* ``eval_expr`` evaluates on the tree's structure.  A subtree without
  commutators is lowered to flat syllables (``expr_to_word``) and reduced in
  one ``reduce_word`` pass; a commutator [a, b] evaluates a and b once and
  returns (ab)(ba)^-1, and inversions and products above a commutator
  combine their children's forms with ``inv`` and ``mul``.  A depth-d
  commutator tree therefore never expands into its 4**d syllables.
* ``expr_to_word``, ``commutator_depths`` and the printers (``expr_str``,
  ``form_to_expr``, ``format_form``) walk with explicit stacks, and the
  printers join one list of pieces once.
"""

import re

from amalgam.errors import ExprSyntaxError
from amalgam.normalform import Base, RLetter, inv, mul, reduce_word


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
_WS = re.compile(r"\s*")
# The optional "^-1" after an atom or a closing parenthesis, and the
# whitespace after it.
_SUFFIX = r"\s*(?:(?P<caret>\^)\s*(?P<minus>-1)?\s*)?"
_INVERSE = re.compile(_SUFFIX)
# An atom whose literal nests parentheses at most one deep, with its suffix.
_ATOM = re.compile(r"h(\d+)\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)" + _SUFFIX)
_DIGITS = re.compile(r"\d*")
_PAREN = re.compile(r"[()]")


def _inverted(m, e):
    """e, or its inverse if m (an _ATOM or _INVERSE match) saw "^-1"."""
    if m.group("caret") is None:
        return e
    if m.group("minus") is None:
        raise ExprSyntaxError("expected '-1' after '^'", m.end())
    return InvE(e)


def _atom(src, pos, sys):
    """(atom, suffix match after it) for the atom at src[pos] == 'h'.

    One ``_ATOM`` match reads the literals of every shipped instance.  Any
    other atom, a malformed one included, is read piece by piece, which
    balances deeper parentheses and finds the position of an error.
    """
    m = _ATOM.match(src, pos)
    if m is not None:
        return AtomE(int(m.group(1)), sys.parse_value(m.group(2))), m
    start = pos + 1
    digits = _DIGITS.match(src, start)
    if digits.end() == start:
        raise ExprSyntaxError("expected a factor level after 'h'", start)
    pos = _WS.match(src, digits.end()).end()
    if not src.startswith("(", pos):
        raise ExprSyntaxError("expected '('", pos)
    lit_start = pos = pos + 1
    depth = 1
    while depth:
        paren = _PAREN.search(src, pos)
        if paren is None:
            raise ExprSyntaxError("unterminated value literal", len(src))
        pos = paren.end()
        depth += 1 if paren.group() == "(" else -1
    atom = AtomE(int(digits.group()), sys.parse_value(src[lit_start:pos - 1]))
    return atom, _INVERSE.match(src, pos)


def parse_expr(src, sys):
    """Parse one word expression; raises ExprSyntaxError or LiteralError.

    One pass with an explicit stack of open groups, each
    ``[opener, enclosing terms, first commutator operand]``; ``terms``
    collects the product being read inside the innermost group.  Positions
    in error messages point past any whitespace, at the offending character.
    """
    groups = []
    terms = []
    end = len(src)
    pos = _WS.match(src).end()
    while True:
        # a term starts here
        c = src[pos:pos + 1]
        if c == "h":
            atom, m = _atom(src, pos, sys)
            terms.append(_inverted(m, atom))
            pos = m.end()
        elif c == "(" or c == "[":
            groups.append([c, terms, None])
            terms = []
            pos = _WS.match(src, pos + 1).end()
            continue
        else:
            raise ExprSyntaxError("expected 'h', '[' or '('", pos)
        # after a term: close every group that ends here
        while True:
            c = src[pos:pos + 1]
            if c in _TERM_STARTS:
                break
            e = terms[0] if len(terms) == 1 else ProdE(terms)
            if not groups:
                if pos != end:
                    raise ExprSyntaxError("unexpected trailing input", pos)
                return e
            group = groups[-1]
            if group[0] == "(":
                if c != ")":
                    raise ExprSyntaxError("expected ')'", pos)
                m = _INVERSE.match(src, pos + 1)
                e = _inverted(m, e)
                pos = m.end()
            elif group[2] is None:
                if c != ",":
                    raise ExprSyntaxError("expected ','", pos)
                group[2] = e
                terms = []
                pos = _WS.match(src, pos + 1).end()
                break
            else:
                if c != "]":
                    raise ExprSyntaxError("expected ']'", pos)
                e = CommE(group[2], e)
                pos = _WS.match(src, pos + 1).end()
            groups.pop()
            terms = group[1]
            terms.append(e)


def _children(e):
    t = type(e)
    if t is ProdE:
        return e.terms
    if t is CommE:
        return (e.a, e.b)
    if t is InvE:
        return (e.child,)
    return ()


def commutator_depths(e):
    """Commutator depth of the subtrees of an AST, without recursion.

    The depth is 0 for a subtree with no commutator, d for a perfect binary
    commutator tree of depth d whose leaves have no commutator, and None for
    any other subtree.  Returns ``{id(node): depth}`` for the nodes whose
    depth is not 0, so a commutator-free AST maps to ``{}``.
    """
    order = []
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is not AtomE:
            order.append(node)
            stack += _children(node)
    depth = {}
    if not any(type(node) is CommE for node in order):
        return depth
    get = depth.get
    for node in reversed(order):
        t = type(node)
        if t is CommE:
            da, db = get(id(node.a), 0), get(id(node.b), 0)
            depth[id(node)] = da + 1 if da is not None and da == db else None
        elif any(id(c) in depth for c in _children(node)):
            depth[id(node)] = None
    return depth


def expr_to_word(sys, e):
    """Lower an AST to flat (level, value) syllables, without recursion.

    A stack of ``(iterator over nodes, inverted)``: an inverted product is
    walked in reverse with each atom inverted, and [a, b] lowers to
    a b a^-1 b^-1, its inverse to b a b^-1 a^-1.
    """
    out = []
    stack = [(iter((e,)), False)]
    while stack:
        nodes, inverted = stack[-1]
        for node in nodes:
            t = type(node)
            if t is AtomE:
                n = node.level
                out.append((n, sys.factor_inv(n, node.value)) if inverted
                           else (n, node.value))
                continue
            if t is ProdE:
                terms = node.terms
                stack.append((reversed(terms) if inverted else iter(terms),
                              inverted))
            elif t is InvE:
                stack.append((iter((node.child,)), not inverted))
            else:
                a, b = (node.b, node.a) if inverted else (node.a, node.b)
                stack.append((iter((a, b, InvE(a), InvE(b))), False))
            break
        else:
            stack.pop()
    return out


def _combine(sys, node, forms):
    """Form of an inversion, commutator or product from its children's forms."""
    t = type(node)
    if t is InvE:
        return inv(sys, forms[0])
    if t is CommE:
        a, b = forms
        return mul(sys, mul(sys, a, b), inv(sys, mul(sys, b, a)))
    acc = forms[0]
    for f in forms[1:]:
        acc = mul(sys, acc, f)
    return acc


def eval_expr(sys, e):
    """Canonical form of an AST, evaluated on its structure.

    Each maximal commutator-free subtree is reduced in one ``reduce_word``
    pass; the nodes above them combine forms (see the module docstring).
    Subtrees are visited left to right on an explicit stack of
    ``(node, forms of its children so far)``.
    """
    depths = commutator_depths(e)
    pending = []
    node = e
    while True:
        if id(node) in depths:
            pending.append((node, []))
            node = _children(node)[0]
            continue
        form = reduce_word(sys, expr_to_word(sys, node))
        while pending:
            parent, forms = pending[-1]
            forms.append(form)
            kids = _children(parent)
            if len(forms) < len(kids):
                node = kids[len(forms)]
                break
            pending.pop()
            form = _combine(sys, parent, forms)
        else:
            return form


def expr_str(sys, e):
    """Render an AST back to parseable text.

    A stack of iterators over pieces still to render: strings are copied
    out, atoms are rendered in place, and any other node suspends the
    current iterator while its own pieces are rendered.
    """
    vs = sys.value_str
    out = []
    stack = [iter((e,))]
    while stack:
        for item in stack[-1]:
            t = type(item)
            if t is str:
                out.append(item)
            elif t is AtomE:
                out.append(f"h{item.level}({vs(item.value)})")
            elif t is InvE:
                if type(item.child) is AtomE:
                    out.append(f"h{item.child.level}({vs(item.child.value)})^-1")
                    continue
                stack.append(iter(("(", item.child, ")^-1")))
                break
            elif t is CommE:
                stack.append(iter(("[", item.a, ", ", item.b, "]")))
                break
            else:
                pieces = []
                for c in item.terms:
                    if type(c) is ProdE:
                        pieces += (" (", c, ")")
                    else:
                        pieces += (" ", c)
                pieces[0] = pieces[0][1:]
                stack.append(iter(pieces))
                break
        else:
            stack.pop()
    return "".join(out)


def form_to_expr(sys, form):
    """A word expression denoting the element of a canonical form.

    Nested left letters suspend their parent's letter iterator on an
    explicit stack of ``(level, letters left, terms so far, tail)``.
    """
    if type(form) is Base:
        return AtomE(0, form.value)
    pending = []
    n, letters, terms, tail = form.level, iter(form.letters), [], form.tail
    while True:
        for letter in letters:
            if type(letter) is RLetter:
                terms.append(AtomE(n, letter.value))
            elif type(letter.form) is Base:
                terms.append(AtomE(0, letter.form.value))
            else:
                pending.append((n, letters, terms, tail))
                sub = letter.form
                n, letters, terms, tail = sub.level, iter(sub.letters), [], sub.tail
                break
        else:
            if tail != sys.factor_id(n):
                terms.append(AtomE(0, tail))
            e = terms[0] if len(terms) == 1 else ProdE(terms)
            if not pending:
                return e
            n, letters, terms, tail = pending.pop()
            terms.append(e)


def form_expr_str(sys, form):
    return expr_str(sys, form_to_expr(sys, form))


def format_form(sys, form):
    """Human-oriented rendering: Base(x) or Alt(n; letters...; tail t).

    Nested left letters suspend their parent's letter iterator on an
    explicit stack, as in ``form_to_expr``.
    """
    vs = sys.value_str
    if type(form) is Base:
        return f"Base({vs(form.value)})"
    out = [f"Alt({form.level}; "]
    pending = []
    letters, tail = iter(form.letters), form.tail
    while True:
        for letter in letters:
            if type(letter) is RLetter:
                out.append(f"R:{vs(letter.value)}; ")
            elif type(letter.form) is Base:
                out.append(f"L:(Base({vs(letter.form.value)})); ")
            else:
                pending.append((letters, tail))
                sub = letter.form
                out.append(f"L:(Alt({sub.level}; ")
                letters, tail = iter(sub.letters), sub.tail
                break
        else:
            out.append(f"tail {vs(tail)})")
            if not pending:
                return "".join(out)
            out.append("); ")
            letters, tail = pending.pop()
