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
residues: each letter's ``split`` takes the tail and returns it with the
residue already multiplied in.

``reduce_word``, ``mul`` and ``inv`` build forms on one kind of frame,
``[level, letters, tail]``.  To work on a nested L-letter one level down, an
operation opens a child frame above its parent on an explicit stack, and
``_close`` folds the finished child back in: as the parent's top letter, one
Alt built, or into the parent's tail.  Nothing here recurses once per
nesting level (``==`` and ``render``, the one printer walk, use stacks too),
so a form nested a thousand levels deep needs no more Python stack than a
flat one.

``mul`` lifts both operands to the higher level n and meets the right
operand's letters with the left's top letter: two R-letters merge, a merge
in B_{n-1} drops into the tail and exposes the next pair, and two L-letters
open a child frame for the product of their forms.  Once a letter stays,
the rest alternate with it.  A result whose level-n letters all cancel is
reassembled at a lower level.  ``inv`` inverts letters in reverse order,
each nested L-letter above level 0 in a child frame.

``reduce_word`` makes one pass and keeps the partial product as a chain of
open frames, each below the root its parent's top L-letter left open, so a
lower-level syllable goes straight into the deepest frame at its level.  A
syllable is merged with the frame's top R-letter before it is split, so it
costs one ``split``, as does one that opens a frame; a frame closes into
its parent when a letter at the parent's level arrives, or at the end.

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
    rep, b = sys.split(n, x, sys.factor_id())
    return Alt(n, (rep,), b)


def _assemble(sys, n, letters, tail):
    if len(letters) == 1 and type(letters[0]) is Alt:
        # no level-n letter survived: the element is the letter's form, of
        # some level m < n, times the tail.  That tail lies in B_{n-1},
        # inside B_{m-1} and central there; the form's tail, a ``split``
        # representative of a B_{m-1} value, lies in B_{m-1} too; and a
        # level m >= 1 form has an R-letter, so ``mul`` would only multiply
        # the two tails.  The letters tuple is shared.
        sub = letters[0]
        return Alt(sub.level, sub.letters, sys.factor_mul(sub.tail, tail))
    return Alt(n if letters else 0, tuple(letters), tail)


def mul(sys, f, g):
    """Product of two canonical forms.

    Both are lifted to the higher level n; f's letters and the product of
    the tails open a frame ``[n, letters, tail]``, and g's letters meet its
    top letter at the junction.  Two R-letters merge, and a product in
    B_{n-1} drops into the tail and exposes the next pair.  Two L-letters
    open a child frame for the product of their forms, one level down, with
    the rest of g's letters suspended beside it on a stack; ``_close`` folds
    the finished child back into its parent.  Once a letter stays, the rest
    of g's letters alternate with it and are appended at once.
    """
    if f.level == 0 and g.level == 0:
        return Alt(0, (), sys.factor_mul(f.tail, g.tail))
    fmul = sys.factor_mul
    frames, rests = [], []
    while True:
        if f is not None:
            n = f.level if f.level > g.level else g.level
            letters, ft = ((list(f.letters), f.tail) if f.level == n
                           else _fold(sys, f.level, f.letters, f.tail, n))
            gletters, gt = ((g.letters, g.tail) if g.level == n
                            else _fold(sys, g.level, g.letters, g.tail, n))
            frame, gletters = [n, letters, fmul(ft, gt)], iter(gletters)
            frames.append(frame)
            rests.append(gletters)
        for letter in gletters:
            if letters and (type(letters[-1]) is Alt) is (type(letter) is Alt):
                if type(letter) is Alt:
                    f, g = letters.pop(), letter
                    break
                x = fmul(letters.pop(), letter)
                if sys.in_base(n - 1, x):
                    frame[2] = fmul(frame[2], x)
                    continue
                letter, frame[2] = sys.split(n, x, frame[2])
            # this consumes gletters, so the loop ends next
            letters.append(letter)
            letters += gletters
        else:
            rests.pop()
            if len(frames) == 1:
                return _assemble(sys, *frame)
            _close(sys, frames)
            f, frame, gletters = None, frames[-1], rests[-1]
            n, letters = frame[0], frame[1]


def inv(sys, form):
    """Inverse of a canonical form.

    Letters are inverted in reverse order and re-canonicalized, each
    residue moving into the central tail.  An L-letter above level 0 opens
    a child frame ``[level, letters, tail]`` for its inverse, with its
    parent's letters left suspended beside it on a stack; ``_close`` folds
    the finished child back into its parent as a left letter.  A level-0
    one is a value outside B_{n-1} and is split in place.
    """
    split, finv = sys.split, sys.factor_inv
    frames = [[form.level, [], finv(form.tail)]]
    rests = [reversed(form.letters)]
    while True:
        frame = frames[-1]
        n, letters, tail = frame
        for letter in rests[-1]:
            if type(letter) is not Alt:
                rep, tail = split(n, finv(letter), tail)
            elif letter.level == 0:
                # its value lies outside B_{n-1}, and so does the inverse
                rep, tail = split(n, finv(letter.tail), tail)
                rep = Alt(0, (), rep)
            else:
                frame[2] = tail
                frames.append([letter.level, [], finv(letter.tail)])
                rests.append(reversed(letter.letters))
                break
            letters.append(rep)
        else:
            rests.pop()
            if len(frames) == 1:
                return Alt(n, tuple(letters), tail)
            frame[2] = tail
            _close(sys, frames)


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
    """A level-m frame or form as (letter list, tail) at level n > m.

    It is one left letter, an Alt with its tail reduced to a ``split``
    representative, or no letter when it lies in B_{n-1}.
    """
    if len(letters) == 1 and type(letters[0]) is Alt:
        # no level-m letter survived: see ``_assemble``
        sub = letters[0]
        m, letters = sub.level, sub.letters
        tail = sys.factor_mul(sub.tail, tail)
    if not letters:
        if sys.in_base(n - 1, tail):
            return [], tail
        m = 0
    rep_t, b = sys.split(n, tail, sys.factor_id())
    return [Alt(m, tuple(letters), rep_t)], b


def _close(sys, frames):
    """Fold the deepest open frame into its parent as the parent's top letter."""
    m, letters, tail = frames.pop()
    parent = frames[-1]
    if len(letters) > 1 or letters and type(letters[0]) is not Alt:
        rep, parent[2] = sys.split(parent[0], tail, parent[2])
        parent[1].append(Alt(m, tuple(letters), rep))
    else:
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
      level-n frame, built as ``_close`` builds it, or none if it is the
      untouched root, the identity;
    - while the deepest frame is above n, descend: reopen its top L-letter if
      it ends in one (an R-letter cancel can expose it), else open a frame
      holding the split syllable, ``[n, [rep], b]`` or ``[0, [], x]``;
    - merge before split: a deepest frame ending in an R-letter r takes r x
      (B_{n-1} is central and ``split`` depends only on the coset); a product
      in B_{n-1} joins the tail, which may expose an L-letter, else the
      product, or x alone, is split once and becomes the top R-letter.

    A level-0 syllable, or a value in B_{n-1}, which counts as one, instead
    multiplies the tail of the first frame on the way down whose tail
    subgroup holds it (a level-0 frame holds any).  At the end of the word
    every frame is closed into its parent and the root is assembled.
    """
    in_base, split, fmul = sys.in_base, sys.split, sys.factor_mul
    one, max_level = sys.factor_id(), sys.max_level
    frames = [[0, [], one]]
    top = frames[0]
    for n, x in word:
        if not 0 <= n <= max_level:
            # check_level is the one place that raises
            sys.check_level(n)
        if n and in_base(n - 1, x):
            # values in B_{n-1} are identified down the chain to level 0
            n = 0
        while top[0] < n:
            if len(frames) > 1 and frames[-2][0] <= n:
                _close(sys, frames)
                top = frames[-1]
            else:
                m, letters, tail = top
                if len(letters) > 1 or letters and type(letters[0]) is not Alt:
                    rep, top[2] = split(n, tail, one)
                    top[1] = [Alt(m, tuple(letters), rep)]
                elif letters or tail is not one:
                    # an empty frame whose tail is still the identity, as
                    # the untouched root's is, lies in B_{n-1}: it stays
                    top[1], top[2] = _fold(sys, m, letters, tail, n)
                top[0] = n
        while top[0] > n:
            if n == 0 and in_base(top[0] - 1, x):
                top[2] = fmul(top[2], x)
                break
            letters = top[1]
            if letters and type(letters[-1]) is Alt:
                form = letters.pop()
                if form.level < n:
                    top = [n, *_fold(sys, form.level, form.letters, form.tail, n)]
                else:
                    top = [form.level, list(form.letters), form.tail]
                frames.append(top)
                continue
            if n:
                rep, b = split(n, x, one)
                top = [n, [rep], b]
            else:
                top = [0, [], x]
            frames.append(top)
            break
        else:
            # no break: the deepest frame is at level n
            if n == 0:
                top[2] = fmul(top[2], x)
                continue
            letters = top[1]
            if letters and type(letters[-1]) is not Alt:
                x = fmul(letters.pop(), x)
                if in_base(n - 1, x):
                    top[2] = fmul(top[2], x)
                    continue
            rep, top[2] = split(n, x, top[2])
            letters.append(rep)
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
