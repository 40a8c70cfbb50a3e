"""Canonical normal forms and exact arithmetic for the iterated amalgam.

An element is either ``Base(h)``, a level-0 value, or ``Alt(n, letters, tail)``
with n >= 1: a strictly alternating tuple of letters containing at least one
``RLetter`` (a transversal representative of a nonidentity coset of the level-n
factor modulo B_{n-1}) and possibly ``LLetter``s (canonical forms of level < n
elements, themselves reduced modulo B_{n-1}), followed by one tail in B_{n-1}.
Every B_k with k <= n-1 is central in the level-n stage, which is what lets a
single right-placed tail absorb all split residues.

Multiplication lifts both operands to the higher level and pushes the right
operand's letters one at a time onto the left operand's, merging at the
junction; a merge that lands in B_{n-1} drops into the tail, and the next push
meets the newly exposed letter, so cascades resolve letter by letter.  The
result is reassembled at a lower level when all level-n letters cancel.

Nothing here recurses once per nesting level.  When two L-letters meet,
``mul`` suspends the product as a frame on an explicit stack while it
multiplies their forms one level down; ``inv`` likewise suspends an
inversion while it inverts a nested L-letter's form, and ``==`` walks nested
letters with a stack.  A form nested a thousand levels deep needs no more
Python stack than a flat one.

Word reduction does not multiply syllable by syllable.  ``reduce_word`` makes
one pass and keeps the partial product as a chain of open frames, one
``[level, letters, tail]`` per nesting level, where each frame below the root
is its parent's top LLetter left open.  A lower-level syllable goes straight
into the deepest frame at its level instead of re-lifting and copying every
enclosing letter list; a frame is assembled and canonicalized into its
parent only when a letter at the parent's level arrives, or at the end.  The
junction merge (``_push``), reassembly (``_assemble``) and left-letter
canonicalization (``_left_canonical``) are the ones ``mul`` uses.

The empty word is ``Base(identity)`` and all representatives are fixed by the
factor system, so forms are structurally unique per element and ``==`` on
forms is equality in the group; ``oracle`` checks that claim against an
independent rewriting strategy.
"""

from amalgam.errors import PreconditionViolated


class Base:
    """A level-0 element, stored as a bare factor value."""

    __slots__ = ("value",)
    level = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is Base and self.value == other.value

    def __hash__(self):
        return hash(("B", self.value))

    def __repr__(self):
        return f"Base({self.value!r})"


class RLetter:
    """Transversal representative of a nonidentity coset of H_n / B_{n-1}."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is RLetter and self.value == other.value

    def __hash__(self):
        return hash(("R", self.value))

    def __repr__(self):
        return f"R({self.value!r})"


class LLetter:
    """Canonical representative of a nonidentity coset of G_{n-1} / B_{n-1}."""

    __slots__ = ("form",)

    def __init__(self, form):
        self.form = form

    def __eq__(self, other):
        return type(other) is LLetter and self.form == other.form

    def __hash__(self):
        return hash(("L", self.form))

    def __repr__(self):
        return f"L({self.form!r})"


class Alt:
    """Alternating normal form at level n >= 1 with a central tail."""

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
            if type(f) is not type(g):
                return False
            if type(f) is Base:
                if f.value != g.value:
                    return False
                continue
            if (f.level != g.level or f.tail != g.tail
                    or len(f.letters) != len(g.letters)):
                return False
            for a, b in zip(f.letters, g.letters):
                ta = type(a)
                if ta is not type(b):
                    return False
                if ta is RLetter:
                    if a.value != b.value:
                        return False
                else:
                    stack.append((a.form, b.form))
        return True

    def __hash__(self):
        # only this level's data, so that hashing does not recurse; equal
        # forms agree on all of it
        return hash((self.level, self.tail, tuple(
            letter.value if type(letter) is RLetter else letter.form.level
            for letter in self.letters)))

    def __repr__(self):
        return f"Alt({self.level}; {list(self.letters)!r}; tail={self.tail!r})"


def identity(sys):
    return Base(sys.factor_id(0))


def is_identity(sys, form):
    return type(form) is Base and form.value == sys.factor_id(0)


def inject(sys, n, x):
    """Canonical form of the one-syllable word placing x in the level-n factor."""
    sys.check_level(n)
    if n == 0 or sys.in_base(n - 1, x):
        # values in B_{n-1} are identified down the chain to level 0
        return Base(x)
    rep, b = sys.split(n, x)
    return Alt(n, (RLetter(rep),), b)


def _left_canonical(sys, form, n):
    """Reduce a level < n form, not in B_{n-1}, to a left letter plus residue."""
    if type(form) is Base:
        rep, b = sys.split(n, form.value)
        return LLetter(Base(rep)), b
    rep_t, b2 = sys.split(n, form.tail)
    return LLetter(Alt(form.level, form.letters, rep_t)), b2


def _lift(sys, form, n):
    """View a level <= n form as (letter list, tail value) at level n."""
    if form.level == n:
        return list(form.letters), form.tail
    if type(form) is Base and sys.in_base(n - 1, form.value):
        return [], form.value
    letter, b = _left_canonical(sys, form, n)
    return [letter], b


def _push(sys, stack, n, letter, tail):
    """Append one canonical letter, merging two R-letters; returns the tail.

    Two L-letters meeting at the junction are ``mul``'s case: their forms
    are multiplied one level down.
    """
    if stack and type(letter) is RLetter and type(stack[-1]) is RLetter:
        prod = sys.factor_mul(n, stack.pop().value, letter.value)
        if sys.in_base(n - 1, prod):
            return sys.factor_mul(n, tail, prod)
        rep, b = sys.split(n, prod)
        stack.append(RLetter(rep))
        return sys.factor_mul(n, tail, b)
    stack.append(letter)
    return tail


def _assemble(sys, n, letters, tail):
    if not letters:
        return Base(tail)
    if len(letters) == 1 and type(letters[0]) is LLetter:
        # no level-n letter survived: the element lives below level n (the
        # tail, in B_{n-1}, joins the letter's tail: no letters are pushed)
        return mul(sys, letters[0].form, Base(tail))
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
                prod = Base(sys.factor_mul(0, f.value, g.value))
            else:
                n = lf if lf > lg else lg
                stack, ft = _lift(sys, f, n)
                gletters, gt = _lift(sys, g, n)
                frames.append([n, stack, sys.factor_mul(n, ft, gt),
                               iter(gletters)])
            f = None
        if not frames:
            return prod
        frame = frames[-1]
        n, stack, tail, gletters = frame
        if prod is not None:
            # the product of the two L-letters this frame was waiting on
            if type(prod) is Base and sys.in_base(n - 1, prod.value):
                tail = sys.factor_mul(n, tail, prod.value)
            else:
                newl, b = _left_canonical(sys, prod, n)
                stack.append(newl)
                tail = sys.factor_mul(n, tail, b)
            prod = None
        for letter in gletters:
            if (type(letter) is LLetter and stack
                    and type(stack[-1]) is LLetter):
                f, g = stack.pop().form, letter.form
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
    if type(form) is Base:
        return Base(sys.factor_inv(0, form.value))
    split, finv, fmul = sys.split, sys.factor_inv, sys.factor_mul
    suspended = []
    n, letters = form.level, reversed(form.letters)
    out, tail = [], finv(n, form.tail)
    while True:
        for letter in letters:
            if type(letter) is RLetter:
                rep, b = split(n, finv(n, letter.value))
                out.append(RLetter(rep))
            elif type(letter.form) is Base:
                newl, b = _left_canonical(
                    sys, Base(finv(0, letter.form.value)), n)
                out.append(newl)
            else:
                suspended.append((n, letters, out, tail))
                sub = letter.form
                n, letters = sub.level, reversed(sub.letters)
                out, tail = [], finv(n, sub.tail)
                break
            tail = fmul(n, tail, b)
        else:
            inverse = Alt(n, tuple(out), tail)
            if not suspended:
                return inverse
            n, letters, out, tail = suspended.pop()
            newl, b = _left_canonical(sys, inverse, n)
            out.append(newl)
            tail = fmul(n, tail, b)


def forms_equal(sys, f, g):
    """True iff two canonical forms denote the same element."""
    return f == g


def _close(sys, frames):
    """Fold the deepest open frame into its parent as the parent's top letter."""
    m, letters, tail = frames.pop()
    parent = frames[-1]
    p = parent[0]
    lifted, b = _lift(sys, _assemble(sys, m, letters, tail), p)
    parent[1] += lifted
    parent[2] = sys.factor_mul(p, parent[2], b)


def reduce_word(sys, word):
    """Canonical form of a word given as (level, value) syllables, in order.

    One pass.  The partial product is a chain of open frames, one
    ``[level, letters, tail]`` per nesting level with strictly falling
    levels: each frame below the root stands for its parent's top LLetter,
    left open so that lower-level syllables land in it directly.  Tails are
    central at their level, so the chain is worth
    ``letters_0 (letters_1 (...) tail_1) tail_0``.  For a syllable of level n:

    - while the deepest frame is below n and its parent is not above n,
      close it: assemble it and make it the parent's canonical top letter,
      or drop it into the parent's tail;
    - if the deepest frame is still below n (the root, when n is a new
      maximum), lift it in place: its form becomes one left letter of a
      level-n frame;
    - while the deepest frame is above n, descend: reopen its top LLetter if
      it ends in one (an R-letter cancel can expose it), else open an empty
      level-n frame;
    - push the R-letter onto the deepest frame, merging at the junction.

    A level-0 syllable, or a value in B_{n-1}, which counts as one, instead
    multiplies the tail of the first frame on the way down whose tail
    subgroup holds it (a level-0 frame holds any).  At the end of the word
    every frame is closed into its parent and the root is assembled.
    """
    frames = [[0, [], sys.factor_id(0)]]
    top = frames[0]
    for n, x in word:
        sys.check_level(n)
        if n and sys.in_base(n - 1, x):
            # values in B_{n-1} are identified down the chain to level 0
            n = 0
        while top[0] < n:
            if len(frames) > 1 and frames[-2][0] <= n:
                _close(sys, frames)
                top = frames[-1]
            else:
                top[1], top[2] = _lift(sys, _assemble(sys, *top), n)
                top[0] = n
        while top[0] > n:
            if n == 0 and sys.in_base(top[0] - 1, x):
                break
            letters = top[1]
            if letters and type(letters[-1]) is LLetter:
                form = letters.pop().form
                if form.level < n:
                    top = [n, *_lift(sys, form, n)]
                elif type(form) is Base:
                    top = [0, [], form.value]
                else:
                    top = [form.level, list(form.letters), form.tail]
            else:
                top = [n, [], sys.factor_id(n)]
            frames.append(top)
        if n == 0:
            top[2] = sys.factor_mul(top[0], top[2], x)
        else:
            rep, b = sys.split(n, x)
            tail = sys.factor_mul(n, top[2], b)
            top[2] = _push(sys, top[1], n, RLetter(rep), tail)
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
    zi = Base(sys.factor_inv(0, z))
    comm = mul(sys, mul(sys, g, Base(z)), mul(sys, inv(sys, g), zi))
    return is_identity(sys, comm)
