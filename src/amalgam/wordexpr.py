"""Surface syntax for group words.

Grammar (whitespace-insensitive)::

    expr := term {term}
    term := atom ["^-1"] | "[" expr "," expr "]" | "(" expr ")" ["^-1"]
    atom := "h" NAT "(" literal ")"

The literal between an atom's parentheses is instance-specific and parsed by
the factor system; a commutator [a,b] denotes a b a^-1 b^-1.  The AST keeps
commutators as nodes, and each node's constructor sets its ``depth`` from
its children's: 0 for a subtree without commutators, d for a perfect binary
commutator tree of depth d whose leaves have none, None for any other
subtree.  Certificate verification reads the tree shape from it, and
evaluation finds the commutator-free subtrees by it.

No function here recurses once per nesting level, so the depth of an
expression or form is bounded by memory, not by Python's stack:

* ``parse_expr`` makes one left-to-right pass.  A compiled pattern reads a
  whole atom (with its inversion suffix and the whitespace after it) in one
  match, and each open ``(`` or ``[`` is a frame on an explicit stack.
  Atoms spelled alike share one node, so the AST is a DAG as soon as an
  atom repeats, and the factor system parses each distinct literal once.
* ``eval_expr`` evaluates on the tree's structure.  A bare atom goes
  through ``normalform.inject``; any other subtree without commutators is
  lowered to flat syllables (``expr_to_word``) and reduced in one
  ``reduce_word`` pass.  Above them, each node carries its form together
  with its inverse, where a parent needs that: a commutator [a, b] is one
  four-operand product a b a^-1 b^-1, its inverse b a b^-1 a^-1; a product
  is one ``mul`` of its terms' forms, its inverse one of their inverses in
  reverse; an inversion swaps its child's pair.  Only a
  commutator-free subtree's form goes through ``inv`` (in a derived tree, a
  one-atom leaf), so no commutator-sized form is inverted, and a depth-d
  commutator tree never expands into its 4**d syllables.  Repeated
  subtrees, equal atoms included, are evaluated once per call: a derived
  tree T(j, L) = [T(j-1, L), T(j-1, L-1)] of depth d has 2**(d+1) - 1
  nodes but (d+1)(d+2)/2 distinct subtrees.
  ``witnesses.derived_escape`` generates with it and ``verify`` replays
  with it, so both evaluate a certificate's tree the same way.
* ``expr_to_word``, ``expr_str`` and ``reaches_level`` keep explicit stacks.
  ``form_expr_str`` and ``format_form`` are ``normalform.render`` in two
  ``Syntax``es.  Evaluation shares forms, so a result form is a DAG: at
  d = 8 its 16,773 nested forms are 229 objects, and ``render`` walks each
  once per call and copies its text where it recurs.  It formats each
  distinct value object once: the 797 values a dense d = 6 result prints
  are 81 objects.

The memos of ``parse_expr`` (atoms by their text), ``eval_expr`` and
``render`` live for one call.
"""

import re

from amalgam.errors import ExprSyntaxError, int_text
from amalgam.normalform import (
    Syntax, inject, inv, layout, mul, reduce_word, render)


class AtomE:
    __slots__ = ("level", "value")
    depth = 0

    def __init__(self, level, value):
        self.level = level
        self.value = value

    def __repr__(self):
        return f"AtomE({self.level}, {self.value!r})"


class InvE:
    __slots__ = ("child", "depth")

    def __init__(self, child):
        self.child = child
        self.depth = 0 if child.depth == 0 else None

    def __repr__(self):
        return f"InvE({self.child!r})"


class CommE:
    __slots__ = ("a", "b", "depth")

    def __init__(self, a, b):
        self.a = a
        self.b = b
        d = a.depth
        self.depth = d + 1 if d is not None and d == b.depth else None

    def __repr__(self):
        return f"CommE({self.a!r}, {self.b!r})"


class ProdE:
    __slots__ = ("terms", "depth")

    def __init__(self, terms):
        self.terms = tuple(terms)
        self.depth = 0 if all(t.depth == 0 for t in self.terms) else None

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

    ``parse_expr`` reads an atom that ``_ATOM`` matches itself; this reads
    any other, a malformed one included, piece by piece, which balances
    deeper parentheses and finds the position of an error.
    """
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
    atom = AtomE(int_text(digits.group()),
                 sys.parse_value(src[lit_start:pos - 1]))
    return atom, _INVERSE.match(src, pos)


def parse_expr(src, sys):
    """Parse one word expression; raises ExprSyntaxError or LiteralError.

    One pass with an explicit stack of open groups, each
    ``[opener, enclosing terms, first commutator operand]``; ``terms``
    collects the product being read inside the innermost group.  Positions
    in error messages point past any whitespace, at the offending character.

    An atom that ``_ATOM`` matches is read here, any other by ``_atom``.
    Matches with the same level digits and literal text share one
    ``AtomE``, kept in a dict for the call, so each such literal goes
    through ``parse_value`` once: a derived tree of depth d has 2**d
    leaves but d + 1 distinct ones.  A bad literal raises at its first
    occurrence, as each occurrence would.
    """
    groups = []
    terms = []
    atoms = {}
    end = len(src)
    pos = _WS.match(src).end()
    while True:
        # a term starts here
        c = src[pos:pos + 1]
        if c == "h":
            m = _ATOM.match(src, pos)
            if m is None:
                atom, m = _atom(src, pos, sys)
            else:
                key = m.group(1, 2)
                atom = atoms.get(key)
                if atom is None:
                    digits, literal = key
                    atom = atoms[key] = AtomE(int_text(digits),
                                              sys.parse_value(literal))
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
    return (e.child,)


def reaches_level(e, n):
    """Whether an atom in the AST has level n or more.

    No form evaluated from the AST reaches level n without one.  The walk
    stops at the first, read left to right: in a derived tree, its leftmost
    leaf.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is not AtomE:
            stack += reversed(_children(node))
        elif node.level >= n:
            return True
    return False


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
                out.append((n, sys.factor_inv(node.value)) if inverted
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


def _combine(sys, node, pairs):
    """Form of an inversion, commutator or product node.

    ``pairs`` holds its children's (form, inverse) pairs; ``_combine_inv``
    is the same node's inverse from the same pairs.
    """
    t = type(node)
    if t is InvE:
        return pairs[0][1]
    if t is CommE:
        (a, a_inv), (b, b_inv) = pairs
        return mul(sys, a, b, a_inv, b_inv)
    return mul(sys, *[f for f, _ in pairs])


def _combine_inv(sys, node, pairs):
    """Inverse of an inversion, commutator or product node."""
    t = type(node)
    if t is InvE:
        return pairs[0][0]
    if t is CommE:
        (a, a_inv), (b, b_inv) = pairs
        return mul(sys, b, a, b_inv, a_inv)
    return mul(sys, *[f_inv for _, f_inv in reversed(pairs)])


def _flat(sys, e):
    """Form of a commutator-free subtree: ``inject`` or one ``reduce_word``."""
    return (inject(sys, e.level, e.value) if type(e) is AtomE
            else reduce_word(sys, expr_to_word(sys, e)))


def eval_expr(sys, e):
    """Canonical form of an AST, evaluated on its structure.

    Each maximal commutator-free subtree (``depth`` 0) is one ``inject``
    call if it is a bare atom, else one ``reduce_word`` pass; the nodes
    above them combine (form, inverse) pairs (see the module docstring).
    Subtrees are visited left to right on an explicit stack of ``(node,
    whether its inverse is wanted, its children's keys so far)``.  The
    operands of a commutator or an inversion need their inverses, a
    product's terms need theirs when the product's is wanted, and the
    root's is never wanted.

    Each distinct subtree is evaluated once per call.  Its key, a small
    int, is interned from its shape: ``(level, value)`` for a bare atom,
    the node itself (by identity) for any other commutator-free subtree,
    and the type with the children's keys for a node above them.  So
    equal atoms, and structurally equal subtrees above them, share one
    pair however the tree was built.  A repeat is still walked, but costs
    lookups, not products; an inverse first wanted at a repeat is built
    then, alone, from the children's pairs, and the form already built
    stays the one object every parent shares.  The pairs live in a list
    that dies with the call, and a root without commutators is evaluated
    directly.
    """
    if e.depth == 0:
        return _flat(sys, e)
    keys, pairs = {}, []
    pending = []
    node, want = e, False
    while True:
        if node.depth != 0:
            pending.append((node, want, []))
            want = want or type(node) is not ProdE
            node = _children(node)[0]
            continue
        shape = (node.level, node.value) if type(node) is AtomE else node
        key = keys.setdefault(shape, len(pairs))
        if key == len(pairs):
            form = _flat(sys, node)
            pairs.append((form, inv(sys, form) if want else None))
        elif want and pairs[key][1] is None:
            form = pairs[key][0]
            pairs[key] = form, inv(sys, form)
        while pending:
            parent, want, kid_keys = pending[-1]
            kid_keys.append(key)
            kids = _children(parent)
            if len(kid_keys) < len(kids):
                node = kids[len(kid_keys)]
                want = want or type(parent) is not ProdE
                break
            pending.pop()
            shape = type(parent), tuple(kid_keys)
            key = keys.setdefault(shape, len(pairs))
            if key == len(pairs):
                kid_pairs = [pairs[k] for k in kid_keys]
                pairs.append((_combine(sys, parent, kid_pairs),
                              _combine_inv(sys, parent, kid_pairs) if want
                              else None))
            elif want and pairs[key][1] is None:
                pairs[key] = pairs[key][0], _combine_inv(
                    sys, parent, [pairs[k] for k in kid_keys])
        else:
            return pairs[key][0]


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


_CANONICAL = Syntax(base="h0({x})", inline="h0({x}) ", head="", opener="(",
                    rletter="h{n}({x}) ", after=" ", tail="h0({x})")


def form_expr_str(sys, form):
    """The canonical text of a form: its one spelling as a word expression.

    Letters, then a non-identity tail, are atoms joined by spaces; a nested
    form of one atom prints bare, any other as a parenthesized group.
    """
    return render(form, _CANONICAL, sys.value_str, sys.factor_id())


def format_form(sys, form):
    """Human-oriented text: Alt(n; letters...; tail t), or Base(x) at level 0."""
    return layout(form, sys.value_str)
