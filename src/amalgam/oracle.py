"""Independent word normalizer used to cross-check the engine.

Strategy-distinct from ``normalform.mul``: instead of incremental products
with junction merging, this flattens the word and rewrites the syllable list
to a fixpoint with four local rules (drop identities, re-tag base members one
level down, merge adjacent same-level syllables, absorb base members rightward
into higher-level neighbors), then assembles the canonical form structurally
in one recursive pass over the irreducible list.  Only the factor-system
contract (split/in_base/group ops) and the form type ``Alt`` (level 0: no
letters, the value as tail) are shared with the engine; no reduction code is.

The termination measure is (length, sum of levels), lexicographic: every rule
strictly decreases it.
"""

from amalgam.normalform import Alt


def _rewrite(sys, sylls):
    """Apply the four rules leftmost-first until none fires."""
    changed = True
    while changed:
        changed = False
        for i, (n, x) in enumerate(sylls):
            if x == sys.factor_id():
                del sylls[i]
                changed = True
                break
            if n >= 1 and sys.in_base(n - 1, x):
                sylls[i] = (n - 1, x)
                changed = True
                break
            if i + 1 < len(sylls):
                m, y = sylls[i + 1]
                if m == n:
                    sylls[i] = (n, sys.factor_mul(x, y))
                    del sylls[i + 1]
                    changed = True
                    break
                if m > n and sys.in_base(m - 1, x):
                    # x is identified into the level-m factor and merges there
                    sylls[i + 1] = (m, sys.factor_mul(x, y))
                    del sylls[i]
                    changed = True
                    break
    return sylls


def _build(sys, sylls):
    """Assemble an irreducible syllable list into its canonical form."""
    if not sylls:
        return Alt(0, (), sys.factor_id())
    n = max(s[0] for s in sylls)
    if n == 0:
        # adjacent same-level merges leave exactly one level-0 syllable
        assert len(sylls) == 1
        return Alt(0, (), sylls[0][1])
    letters = []
    tail = sys.factor_id()
    seg = []

    def flush_segment():
        nonlocal tail
        if not seg:
            return
        sub = _build(sys, seg[:])
        seg.clear()
        if sub.level == 0 and sys.in_base(n - 1, sub.tail):
            # only a trailing base-member segment can reach this
            tail = sys.factor_mul(tail, sub.tail)
            return
        rep_t, b = sys.split(n, sub.tail, sys.factor_id())
        letters.append(Alt(sub.level, sub.letters, rep_t))
        tail = sys.factor_mul(tail, b)

    for m, x in sylls:
        if m == n:
            flush_segment()
            rep, b = sys.split(n, x, sys.factor_id())
            letters.append(rep)
            tail = sys.factor_mul(tail, b)
        else:
            seg.append((m, x))
    flush_segment()
    assert any(type(l) is not Alt for l in letters)
    return Alt(n, tuple(letters), tail)


def naive_reduce(sys, word):
    """Same contract as ``normalform.reduce_word``, independent strategy."""
    sylls = []
    for n, x in word:
        sys.check_level(n)
        sylls.append((n, x))
    return _build(sys, _rewrite(sys, sylls))
