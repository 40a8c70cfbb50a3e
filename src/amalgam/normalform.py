"""Canonical normal forms and exact arithmetic for the iterated amalgam.

Every element is ``Alt(n, letters, tail)``, the normal form of the theorem
for amalgams (Serre, *Trees*, 1.2): a strictly alternating tuple of letters,
then one tail in B_{n-1}.  A letter is bare: an R-letter is a value, the
transversal representative of a nonidentity coset of the level-n factor
modulo B_{n-1}, and there is at least one when n >= 1; an L-letter is an
``Alt``, the form of a level < n element, itself reduced modulo B_{n-1}.  A
factor-system value is never an ``Alt``, so ``type(letter) is Alt`` tells
them apart.  Level 0 has no letters: ``Alt(0, (), x)`` is the value x, which
``layout`` prints as ``Base(x)``.  Every B_k with k <= n-1 is central in the
level-n stage, which is what lets a single right-placed tail absorb all split
residues.

Multiplication lifts both operands to the higher level and pushes the right
operand's letters one at a time onto the left operand's, merging at the
junction; a merge that lands in B_{n-1} drops into the tail, and the next push
meets the newly exposed letter, so cascades resolve letter by letter.  The
result is reassembled at a lower level when all level-n letters cancel.

Nothing here recurses once per nesting level.  When two L-letters meet,
``mul`` suspends the product as a frame on an explicit stack while it
multiplies their forms one level down; ``inv`` likewise suspends an
inversion while it inverts a nested L-letter's form, and ``==`` and
``render``, the one printer walk, go down nested letters with a stack.  A form
nested a thousand levels deep needs no more Python stack than a flat one.

Word reduction does not multiply syllable by syllable.  ``reduce_word`` makes
one pass and keeps the partial product as a chain of open frames, one
``[level, letters, tail]`` per nesting level, where each frame below the root
is its parent's top L-letter left open.  A lower-level syllable goes straight
into the deepest frame at its level instead of re-lifting and copying every
enclosing letter list.  A syllable is merged with the frame's top R-letter
before it is split, so it costs one ``split``; a frame closes into its parent
when a letter at the parent's level arrives, or at the end, and one that
keeps a letter at its level becomes one L-letter, an Alt built once.

The empty word is ``Alt(0, (), identity)`` and all representatives are fixed
by the factor system, so forms are structurally unique per element and ``==``
on forms is equality in the group; ``oracle`` checks that claim against an
independent rewriting strategy.
"""

from amalgam.errors import PreconditionViolated


class Alt:
    """Normal form: level n >= 0, letters (none at level 0), central tail."""

    __slots__ = ("level", "letters", "tail")

    def __init__(self, level, letters, tail):
        self.level = level
        self.letters = letters
        self.tail = tail

    def __eq__(self, other):
        """Structural equality, walking nested left letters with a stack."""
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if type(g) is not Alt:
                return False
            if (f.level != g.level or f.tail != g.tail
                    or len(f.letters) != len(g.letters)):
                return False
            for a, b in zip(f.letters, g.letters):
                if type(a) is Alt:
                    stack.append((a, b))
                elif type(b) is Alt or a != b:
                    return False
        return True

    def __hash__(self):
        # only this level's data, so that hashing does not recurse; equal
        # forms agree on all of it
        return hash((self.level, self.tail, tuple(
            letter.level if type(letter) is Alt else letter
            for letter in self.letters)))

    def __repr__(self):
        return layout(self, repr)


class Syntax(dict):
    """A printer's text templates; ``self[n]`` caches level n's texts."""

    def __init__(self, base, inline, head, opener, rletter, after, tail):
        self.base, inline, tail, (self.rletter, post) = (
            t.split("{x}") for t in (base, inline, tail, rletter))
        self.head, self.pieces = head, (inline, tail, opener, post, after)

    def __missing__(self, n):
        texts = self[n] = self.head.format(n=n), self.rletter.format(n=n)
        return texts


def render(form, syntax, value_str, one=None):
    """The text of a form in a ``Syntax``: the one walk behind every printer.

    In each template ``{x}`` is a value's text and ``{n}`` a level.  A
    level-0 form is its ``base``; any other is its ``head``, its letters,
    each ending in ``after``, and its ``tail``, or, if the tail is ``one``,
    not that but the last ``after`` dropped.  A nested left letter's form is
    its ``inline`` at level 0, its bare R-letter if that is alone with the
    tail ``one``, else a group: ``opener``, its text, ``)``, then ``after``
    as a piece of its own.  With ``one`` None every tail prints.

    ``mul`` and ``eval_expr`` share nested forms, so each group is walked
    once per call: it suspends its parent's letter iterator on a stack, and
    a dict keyed by ``id`` (``==`` walks a whole form) records the slice of
    pieces its first rendering spans, for a later occurrence to copy; the
    ``after`` that the end of an enclosing group drops is never in a slice.
    """
    n, letters, tail = form.level, iter(form.letters), form.tail
    if n == 0:
        return value_str(tail).join(syntax.base)
    (i0, i1), (t0, t1), opener, post, after = syntax.pieces
    head, pre = syntax[n]
    out, pending, seen = [head], [], {}
    while True:
        for letter in letters:
            if type(letter) is not Alt:
                out.append(f"{pre}{value_str(letter)}{post}")
                continue
            if letter.level == 0:
                out.append(f"{i0}{value_str(letter.tail)}{i1}")
            elif len(letter.letters) == 1 and letter.tail == one:
                out.append(f"{syntax[letter.level][1]}"
                           f"{value_str(letter.letters[0])}{post}")
            else:
                key = id(letter)
                text = seen.get(key)
                if text is None:
                    pending.append((pre, letters, tail, key, len(out)))
                    head, pre = syntax[letter.level]
                    out += (opener, head)
                    letters, tail = iter(letter.letters), letter.tail
                    break
                if type(text) is slice:
                    text = seen[key] = "".join(out[text])
                out += (text, after)
        else:
            if tail == one:
                out[-1] = out[-1][:-len(after)]
            else:
                out.append(f"{t0}{value_str(tail)}{t1}")
            if not pending:
                return "".join(out)
            pre, letters, tail, key, start = pending.pop()
            out.append(")")
            seen[key] = slice(start, len(out))
            out.append(after)


_LAYOUT = Syntax(base="Base({x})", inline="L:(Base({x})); ", head="Alt({n}; ",
                 opener="L:(", rletter="R:{x}; ", after="; ", tail="tail {x})")


def layout(form, value_str):
    """``Base(x)`` or ``Alt(n; R:x; L:(...); tail t)``, values by value_str."""
    return render(form, _LAYOUT, value_str)


def identity(sys):
    return Alt(0, (), sys.factor_id())


def is_identity(sys, form):
    return form.level == 0 and form.tail == sys.factor_id()


def inject(sys, n, x):
    """Canonical form of the one-syllable word placing x in the level-n factor."""
    sys.check_level(n)
    if n == 0 or sys.in_base(n - 1, x):
        # values in B_{n-1} are identified down the chain to level 0
        return Alt(0, (), x)
    rep, b = sys.split(n, x)
    return Alt(n, (rep,), b)


def _left_canonical(sys, form, n):
    """Reduce a level < n form, not in B_{n-1}, to a left letter plus residue."""
    rep_t, b2 = sys.split(n, form.tail)
    return Alt(form.level, form.letters, rep_t), b2


def _lift(sys, form, n):
    """View a level <= n form as (letter list, tail value) at level n."""
    if form.level == n:
        return list(form.letters), form.tail
    if form.level == 0 and sys.in_base(n - 1, form.tail):
        return [], form.tail
    letter, b = _left_canonical(sys, form, n)
    return [letter], b


def _push(sys, stack, n, letter, tail):
    """Append one canonical letter, merging two R-letters; returns the tail.

    Two L-letters meeting at the junction are ``mul``'s case: their forms
    are multiplied one level down.
    """
    if stack and type(letter) is not Alt and type(stack[-1]) is not Alt:
        prod = sys.factor_mul(stack.pop(), letter)
        if sys.in_base(n - 1, prod):
            return sys.factor_mul(tail, prod)
        rep, b = sys.split(n, prod)
        stack.append(rep)
        return sys.factor_mul(tail, b)
    stack.append(letter)
    return tail


def _assemble(sys, n, letters, tail):
    if not letters:
        return Alt(0, (), tail)
    if len(letters) == 1 and type(letters[0]) is Alt:
        # no level-n letter survived: the element is the letter's form, of
        # some level m < n, times the tail.  That tail lies in B_{n-1},
        # inside B_{m-1} and central there; the form's tail, a ``split``
        # representative of a B_{m-1} value, lies in B_{m-1} too; and a
        # level m >= 1 form has an R-letter, so ``mul`` would not recurse
        # but only multiply the two tails.  The letters tuple is shared.
        sub = letters[0]
        return Alt(sub.level, sub.letters, sys.factor_mul(sub.tail, tail))
    return Alt(n, tuple(letters), tail)


def mul(sys, f, g):
    """Product of two canonical forms.

    Both are lifted to the higher level n and g's letters are pushed onto
    f's one at a time.  When two L-letters meet, the product waits for the
    product of their forms: it is suspended as a frame
    ``[n, letters, tail, g's letters left]`` on an explicit stack, so
    nesting depth costs no Python stack.
    """
    frames = []
    prod = None
    while True:
        if f is not None:
            lf, lg = f.level, g.level
            if lf == 0 and lg == 0:
                prod = Alt(0, (), sys.factor_mul(f.tail, g.tail))
            else:
                n = lf if lf > lg else lg
                stack, ft = _lift(sys, f, n)
                gletters, gt = _lift(sys, g, n)
                frames.append([n, stack, sys.factor_mul(ft, gt),
                               iter(gletters)])
            f = None
        if not frames:
            return prod
        frame = frames[-1]
        n, stack, tail, gletters = frame
        if prod is not None:
            # the product of the two L-letters this frame was waiting on
            if prod.level == 0 and sys.in_base(n - 1, prod.tail):
                tail = sys.factor_mul(tail, prod.tail)
            else:
                newl, b = _left_canonical(sys, prod, n)
                stack.append(newl)
                tail = sys.factor_mul(tail, b)
            prod = None
        for letter in gletters:
            if type(letter) is Alt and stack and type(stack[-1]) is Alt:
                f, g = stack.pop(), letter
                frame[2] = tail
                break
            tail = _push(sys, stack, n, letter, tail)
        else:
            frames.pop()
            prod = _assemble(sys, n, stack, tail)


def inv(sys, form):
    """Inverse of a canonical form.

    Letters are inverted in reverse order and re-canonicalized, each
    residue moving into the central tail; an L-letter's inverted form goes
    through ``_left_canonical``.  A nested Alt is inverted first: the outer
    inversion is suspended as ``(level, letters left, letters out, tail)``
    on an explicit stack.
    """
    split, finv, fmul = sys.split, sys.factor_inv, sys.factor_mul
    suspended = []
    n, letters = form.level, reversed(form.letters)
    out, tail = [], finv(form.tail)
    while True:
        for letter in letters:
            if type(letter) is not Alt:
                rep, b = split(n, finv(letter))
                out.append(rep)
            else:
                suspended.append((n, letters, out, tail))
                n, letters = letter.level, reversed(letter.letters)
                out, tail = [], finv(letter.tail)
                break
            tail = fmul(tail, b)
        else:
            inverse = Alt(n, tuple(out), tail)
            if not suspended:
                return inverse
            n, letters, out, tail = suspended.pop()
            newl, b = _left_canonical(sys, inverse, n)
            out.append(newl)
            tail = fmul(tail, b)


def commutator(sys, a, a_inv, b, b_inv):
    """[a, b] = (ab)(a^-1 b^-1), from both operands and their inverses.

    Nothing is inverted here, and the inverse [b, a] is the same call with
    the operands swapped, so a caller that carries each operand's inverse
    never inverts a commutator-sized form: ``inv`` rebuilds every nested
    level of its argument, ``mul`` copies only the top-level letter list.
    """
    return mul(sys, mul(sys, a, b), mul(sys, a_inv, b_inv))


def forms_equal(sys, f, g):
    """True iff two canonical forms denote the same element."""
    return f == g


def _fold(sys, m, letters, tail, n):
    """A level-m frame as (letter list, tail) at level n > m, one Alt built."""
    if len(letters) > 1 or letters and type(letters[0]) is not Alt:
        rep_t, b = sys.split(n, tail)
        return [Alt(m, tuple(letters), rep_t)], b
    return _lift(sys, _assemble(sys, m, letters, tail), n)


def _close(sys, frames):
    """Fold the deepest open frame into its parent as the parent's top letter."""
    m, letters, tail = frames.pop()
    parent = frames[-1]
    lifted, b = _fold(sys, m, letters, tail, parent[0])
    parent[1] += lifted
    parent[2] = sys.factor_mul(parent[2], b)


def reduce_word(sys, word):
    """Canonical form of a word given as (level, value) syllables, in order.

    One pass.  The partial product is a chain of open frames, one
    ``[level, letters, tail]`` per nesting level with strictly falling
    levels: each frame below the root stands for its parent's top L-letter,
    left open so that lower-level syllables land in it directly.  Tails are
    central at their level, so the chain is worth
    ``letters_0 (letters_1 (...) tail_1) tail_0``.  For a syllable of level n:

    - while the deepest frame is below n and its parent is not above n,
      close it: make it the parent's canonical top letter, one Alt built
      for a frame that keeps a letter at its level, or drop it into the
      parent's tail;
    - if the deepest frame is still below n (the root, when n is a new
      maximum), lift it in place: its form becomes one left letter of a
      level-n frame;
    - while the deepest frame is above n, descend: reopen its top L-letter if
      it ends in one (an R-letter cancel can expose it), else open an empty
      level-n frame;
    - merge before split: a deepest frame ending in an R-letter r takes r x
      (B_{n-1} is central and ``split`` depends only on the coset); a product
      in B_{n-1} joins the tail, which may expose an L-letter, else the
      product, or x alone, is split once and becomes the top R-letter.

    A level-0 syllable, or a value in B_{n-1}, which counts as one, instead
    multiplies the tail of the first frame on the way down whose tail
    subgroup holds it (a level-0 frame holds any).  At the end of the word
    every frame is closed into its parent and the root is assembled.
    """
    check_level, in_base = sys.check_level, sys.in_base
    split, fmul = sys.split, sys.factor_mul
    frames = [[0, [], sys.factor_id()]]
    top = frames[0]
    for n, x in word:
        check_level(n)
        if n and in_base(n - 1, x):
            # values in B_{n-1} are identified down the chain to level 0
            n = 0
        while top[0] < n:
            if len(frames) > 1 and frames[-2][0] <= n:
                _close(sys, frames)
                top = frames[-1]
            else:
                top[1], top[2] = _fold(sys, *top, n)
                top[0] = n
        while top[0] > n:
            if n == 0 and in_base(top[0] - 1, x):
                break
            letters = top[1]
            if letters and type(letters[-1]) is Alt:
                form = letters.pop()
                if form.level < n:
                    top = [n, *_lift(sys, form, n)]
                else:
                    top = [form.level, list(form.letters), form.tail]
            else:
                top = [n, [], sys.factor_id()]
            frames.append(top)
        if n == 0:
            top[2] = fmul(top[2], x)
            continue
        letters = top[1]
        if letters and type(letters[-1]) is not Alt:
            x = fmul(letters.pop(), x)
            if in_base(n - 1, x):
                top[2] = fmul(top[2], x)
                continue
        rep, b = split(n, x)
        letters.append(rep)
        top[2] = fmul(top[2], b)
    while len(frames) > 1:
        _close(sys, frames)
    return _assemble(sys, *frames[0])


def centrality_check(sys, g, n, z):
    """True iff g commutes with z; the contract says it always does.

    Preconditions: level(g) <= n+1 and z in B_n.  Those are the hypotheses
    under which the base value z is central in the whole level-(n+1) stage.
    """
    if g.level > n + 1:
        raise PreconditionViolated(
            f"centrality_check needs level(g) <= n+1; got level {g.level}, n {n}"
        )
    if not sys.in_base(n, z):
        raise PreconditionViolated("centrality_check needs z in B_n")
    comm = commutator(sys, g, inv(sys, g), Alt(0, (), z),
                      Alt(0, (), sys.factor_inv(z)))
    return is_identity(sys, comm)
