"""Canonical normal forms and exact arithmetic for the iterated amalgam.

Every element is ``Alt(n, letters, tail)``, the normal form of the theorem
for amalgams (Serre, *Trees*, 1.2): strictly alternating letters, then one
tail in B_{n-1}.  A letter is bare: an R-letter is a value, the transversal
representative of a nonidentity coset of the level-n factor modulo B_{n-1},
and there is at least one when n >= 1; an L-letter is an ``Alt``, the form of
a level < n element, itself reduced modulo B_{n-1}.  A factor-system value is
never an ``Alt``, so ``type(letter) is Alt`` tells them apart.  Level 0 has
no letters: ``Alt(0, (), x)`` is the value x, which ``layout`` prints as
``Base(x)``.  A returned form's letters are a tuple; a nested L-letter's may
be the list of the frame it closed.  No function mutates a form it was given.
Every B_k with k <= n-1 is central in the level-n stage, which is what lets a
single right-placed tail absorb all split residues: each letter's ``split``
takes the tail and returns it with the residue already multiplied in.

``reduce_word``, ``mul`` and ``inv`` build forms on one kind of frame,
``[level, letters, tail]``.  To work on a nested L-letter one level down, an
operation opens a child frame above its parent on an explicit stack, and
``_close`` folds the finished child back in: as the parent's top letter, one
Alt built, or into the parent's tail.  Every such fold passes the tail the
residue lands in to ``split``, which multiplies it in.  ``_close`` and
``_fold``, which build most of the engine's forms, build each in place with
``object.__new__`` and three slot stores, skipping ``Alt.__init__``; every
other form is built with ``Alt(...)``.  Nothing here recurses once per
nesting level (``==`` and ``render``, the one printer walk, use stacks too),
so a form nested a thousand levels deep needs no more Python stack than a
flat one.

``mul`` multiplies any number of forms on one root frame, assembled once at
the end, lifted in place for a higher operand.  At each junction two
R-letters merge, a merge in B_{n-1} drops into the tail and exposes the next
pair, and two L-letters open a child frame for their product; once a letter
stays, the rest alternate with it.  ``inv`` inverts letters in reverse
order, each nested L-letter above level 0 in a child frame.

``reduce_word`` makes one pass and keeps the partial product as a chain of
open frames, each below the root its parent's top L-letter left open, so a
lower-level syllable goes straight into the deepest frame at its level.  A
syllable is merged with the frame's top R-letter before it is split, so it
costs one ``split``, as does one that opens a frame; a frame closes into
its parent when a letter at the parent's level arrives, or at the end.  A
closed frame's list goes into its ``Alt`` and is reopened in place, as
every ``Alt`` on the chain is the call's own.  ``mul`` likewise reopens an
L-letter that its own ``_close`` built in place, and copies an operand's.

The empty word is ``Alt(0, (), identity)`` and all representatives are fixed
by the factor system, so forms are structurally unique per element and ``==``
on forms is equality in the group; ``oracle`` checks that claim against an
independent rewriting strategy.
"""

from amalgam.errors import PreconditionViolated


class Alt:
    """Normal form: level n >= 0, letters (none at level 0), central tail.

    Forms share letters, so no function mutates a form it was given.
    """

    __slots__ = ("level", "letters", "tail")

    def __init__(self, level, letters, tail):
        self.level = level
        self.letters = letters
        self.tail = tail

    def __eq__(self, other):
        """Structural equality, walking nested left letters with a stack.

        Identity is tested first, for the forms, each pair of letters and
        the tails: forms share letters and values, and one object is equal
        to itself, so a shared nested letter is never walked and a shared
        value is never compared.
        """
        if self is other:
            return True
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if type(g) is not Alt:
                return False
            if (f.level != g.level
                    or f.tail is not g.tail and f.tail != g.tail
                    or len(f.letters) != len(g.letters)):
                return False
            for a, b in zip(f.letters, g.letters):
                if a is b:
                    continue
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


_new = object.__new__


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
    pieces its first rendering spans, for a later occurrence to copy with
    its ``after``; the ``after`` that the end of an enclosing group drops is
    never in a slice.  The dict keeps a level-0 or bare letter's text under
    its ``id`` too, and every nested letter is looked up there before the
    level, one-letter and tail tests, so a repeat costs one lookup and no
    tail comparison.  Each distinct value is formatted once per call: the
    same dict keeps its text under its ``id``.  The form holds every group
    and value for the whole call, so no two of their ids collide; a key by
    value would run a dense value's ``__hash__`` and ``__eq__`` in Python
    at every occurrence.
    A tail is compared with ``one`` by identity first, as ``Alt.__eq__`` and
    ``is_identity`` do, and not by value when ``one`` is None.
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
                x = seen.get(key := id(letter))
                if x is None:
                    x = seen[key] = value_str(letter)
                out.append(f"{pre}{x}{post}")
                continue
            text = seen.get(key := id(letter))
            if text is None:
                if letter.level == 0:
                    x = seen.get(x_key := id(letter.tail))
                    if x is None:
                        x = seen[x_key] = value_str(letter.tail)
                    text = f"{i0}{x}{i1}"
                elif len(letter.letters) == 1 and (
                        letter.tail is one
                        or one is not None and letter.tail == one):
                    x = seen.get(x_key := id(letter.letters[0]))
                    if x is None:
                        x = seen[x_key] = value_str(letter.letters[0])
                    text = f"{syntax[letter.level][1]}{x}{post}"
                else:
                    pending.append((pre, letters, tail, key, len(out)))
                    head, pre = syntax[letter.level]
                    out += (opener, head)
                    letters, tail = iter(letter.letters), letter.tail
                    break
                seen[key] = text
            elif type(text) is slice:
                text = seen[key] = "".join(out[text]) + after
            out.append(text)
        else:
            if tail is one or one is not None and tail == one:
                out[-1] = out[-1][:-len(after)]
            else:
                x = seen.get(key := id(tail))
                if x is None:
                    x = seen[key] = value_str(tail)
                out.append(f"{t0}{x}{t1}")
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
    if form.level:
        return False
    one = sys.factor_id()
    return form.tail is one or form.tail == one


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
        # the two tails.  A returned form's own letters are a tuple.
        sub = letters[0]
        return Alt(sub.level, tuple(sub.letters),
                   sys.factor_mul(sub.tail, tail))
    return Alt(n if letters else 0, tuple(letters), tail)


def mul(sys, f, *gs):
    """Product of one or more canonical forms, in order.

    f opens the root frame at the higher level of f and the first operand;
    each later operand is folded up to the root's level, or lifts it in
    place, and meets its top letter, two L-letters opening a child frame
    that ``_close`` folds back.  A reopened L-letter that this call closed,
    or built in lifting the root, keeps its list; an operand's is copied.
    The root is assembled once, at the end.
    """
    if not gs:
        return _assemble(sys, f.level, f.letters, f.tail)
    fmul, in_base, split = sys.factor_mul, sys.in_base, sys.split
    # the Alts this call closed, by id, each holding its frame's list
    frames, rests, closed = [], [], {}
    for g in gs:
        if not frames:
            root, gletters = _open(sys, f, g)
            frames.append(root)
        elif g.level > root[0]:
            # lift the root in place, g's tail taking the residue; an Alt
            # that _fold built on the root's own list is one this call closed
            old = root[1]
            root[1], root[2] = _fold(sys, *root, g.level, g.tail)
            if root[1] and root[1][0].letters is old:
                closed[id(root[1][0])] = root[1][0]
            root[0] = g.level
            gletters = iter(g.letters)
        else:
            gletters = _enter(sys, root, g)
        frame, n, letters = root, root[0], root[1]
        while True:
            for letter in gletters:
                if letters and (type(letters[-1]) is Alt) is (type(letter) is Alt):
                    if type(letter) is Alt:
                        rests.append(gletters)
                        top = letters.pop()
                        frame, gletters = _open(
                            sys, top, letter, closed.pop(id(top), None) is top)
                        frames.append(frame)
                        break
                    x = fmul(letters.pop(), letter)
                    if in_base(n - 1, x):
                        frame[2] = fmul(frame[2], x)
                        continue
                    letter, frame[2] = split(n, x, frame[2])
                # this consumes gletters, so the loop ends next
                letters.append(letter)
                letters += gletters
            else:
                if not rests:
                    break
                form = _close(sys, frames)
                if form is not None:
                    closed[id(form)] = form
                frame, gletters = frames[-1], rests.pop()
            n, letters = frame[0], frame[1]
    return _assemble(sys, *root)


def _open(sys, f, g, own=False):
    """A new frame for f times g's tail, and an iterator over g's letters.

    The frame is at the higher level of f and g, and g's letters are at
    that level too.  f and g are not changed: f's letters are copied
    unless ``own`` says that this call built f and may take its list.
    """
    if f.level < g.level:
        return ([g.level, *_fold(sys, f.level, f.letters, f.tail, g.level,
                                 g.tail)], iter(g.letters))
    frame = [f.level, f.letters if own else list(f.letters), f.tail]
    return frame, _enter(sys, frame, g)


def _enter(sys, frame, g):
    """g's letters at the frame's level, at least g's; g's tail joins it."""
    if g.level == frame[0]:
        frame[2] = sys.factor_mul(frame[2], g.tail)
        return iter(g.letters)
    letters, frame[2] = _fold(sys, g.level, g.letters, g.tail, frame[0],
                              frame[2])
    return iter(letters)


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


def forms_equal(sys, f, g):
    """True iff two canonical forms denote the same element: ``f == g``.

    The package compares forms with ``==``; this name stays for callers
    outside it, such as perfbench's ``words`` deck and the tests.
    """
    return f == g


def _fold(sys, m, letters, tail, n, t):
    """A level-m frame or form as (letter list, tail) at level n > m.

    It becomes one left letter, an Alt with its tail reduced to a ``split``
    representative, or no letter when it lies in B_{n-1}.  t is the tail
    at level n that the residue, or the whole form in the second case,
    joins: the returned tail is t times it, ``split`` doing the product.
    """
    if len(letters) == 1 and type(letters[0]) is Alt:
        # no level-m letter survived: see ``_assemble``
        sub = letters[0]
        m, letters = sub.level, sub.letters
        tail = sys.factor_mul(sub.tail, tail)
    if not letters:
        if sys.in_base(n - 1, tail):
            return [], sys.factor_mul(t, tail)
        m, letters = 0, ()
    rep, t = sys.split(n, tail, t)
    form = _new(Alt)
    form.level = m
    form.letters = letters
    form.tail = rep
    return [form], t


def _close(sys, frames):
    """Fold the deepest open frame into its parent as the parent's top letter.

    Returns the Alt built on the frame's own letter list, or None when the
    frame folded to a lone letter's form or into the parent's tail.
    """
    m, letters, tail = frames.pop()
    parent = frames[-1]
    if len(letters) > 1 or letters and type(letters[0]) is not Alt:
        rep, parent[2] = sys.split(parent[0], tail, parent[2])
        form = _new(Alt)
        form.level = m
        form.letters = letters
        form.tail = rep
        parent[1].append(form)
        return form
    lifted, parent[2] = _fold(sys, m, letters, tail, parent[0], parent[2])
    parent[1] += lifted
    return None


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
                if top[1] or top[2] is not one:
                    # an empty frame whose tail is still the identity, as
                    # the untouched root's is, lies in B_{n-1}: it stays
                    top[1], top[2] = _fold(sys, *top, n, one)
                top[0] = n
        while top[0] > n:
            if n == 0 and in_base(top[0] - 1, x):
                top[2] = fmul(top[2], x)
                break
            letters = top[1]
            if letters and type(letters[-1]) is Alt:
                form = letters.pop()
                if form.level < n:
                    top = [n, *_fold(sys, form.level, form.letters,
                                     form.tail, n, one)]
                else:
                    # built in this call, from values, so its letter list
                    # is ours to extend; a level-0 form's is an empty tuple
                    top = [form.level, form.letters or [], form.tail]
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
    comm = mul(sys, g, Alt(0, (), z), inv(sys, g),
               Alt(0, (), sys.factor_inv(z)))
    return is_identity(sys, comm)
