"""Differential tests for the single-pass ``reduce_word``.

Two references: the per-syllable fold ``mul(acc, inject(...))`` written out
here, which is how words were reduced before the frame chain, and the
independent rewriting oracle ``naive_reduce`` (on words of at most 100
syllables, where it is fast enough).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.errors import InvalidParams, UnsupportedLevel
from amalgam.instances import make_instance
from amalgam.normalform import (
    Alt,
    forms_equal,
    identity,
    inject,
    inv,
    mul,
    reduce_word,
)
from amalgam.oracle import naive_reduce
from amalgam.witnesses import derived_escape
from amalgam.wordexpr import expr_to_word, form_expr_str, parse_expr


def fold_reduce(sys, word):
    acc = identity(sys)
    for n, x in word:
        acc = mul(sys, acc, inject(sys, n, x))
    return acc


INSTANCES = {
    "dense": make_instance("dense", 5),
    "heis": make_instance("heisenberg", 3),
    "cyc": make_instance("cyclic", 2, {"L": 3}),
}
ALL = sorted(INSTANCES)


def rand_word(sys, rng, length, max_level=6):
    return [
        (rng.randint(0, max_level), sys.sample(rng.randint(0, max_level), rng))
        for _ in range(length)
    ]


def inverse_word(sys, word):
    return [(n, sys.factor_inv(x)) for n, x in reversed(word)]


def assert_agrees(sys, word):
    got = reduce_word(sys, word)
    assert got == fold_reduce(sys, word)
    if len(word) <= 100:
        assert got == naive_reduce(sys, word)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("length,count", [(100, 12), (1000, 3)])
def test_random_words(name, length, count):
    sys = INSTANCES[name]
    rng = random.Random(length)
    for _ in range(count):
        assert_agrees(sys, rand_word(sys, rng, length))


@pytest.mark.parametrize("name", ALL)
def test_conjugate_and_commutator_words(name):
    sys = INSTANCES[name]
    rng = random.Random(21)
    for _ in range(15):
        u = rand_word(sys, rng, rng.randint(1, 25))
        v = rand_word(sys, rng, rng.randint(0, 25))
        ui, vi = inverse_word(sys, u), inverse_word(sys, v)
        assert_agrees(sys, u + v + ui)
        assert_agrees(sys, u + v + ui + vi)
        # u u^-1 is the identity however deep the cancellation runs
        assert reduce_word(sys, u + ui) == identity(sys)


@pytest.mark.parametrize("name", ALL)
def test_partial_inverse_reopens_left_letters(name):
    # a low-level word followed by part of its inverse cancels level-n
    # R-letters and exposes closed L-letters, which the next lower-level
    # syllables must reopen
    sys = INSTANCES[name]
    rng = random.Random(22)
    for _ in range(40):
        w = rand_word(sys, rng, rng.randint(2, 30), max_level=2)
        wi = inverse_word(sys, w)
        assert_agrees(sys, w + wi[: rng.randint(1, len(wi))])
        assert_agrees(sys, w + wi[: rng.randint(1, len(wi))] + w)


JUNCTION = {**INSTANCES,
            "cyc3": make_instance("cyclic", 3, {"L": 4, "chain_shift": 2})}


@pytest.mark.parametrize("name", sorted(JUNCTION))
def test_mul_settles_a_cancelling_junction(name):
    # v starts with the inverse of a random suffix of u, so the junction
    # cancels, pair by pair and inside nested forms, before a letter stays
    # and the rest of v's letters are appended at once
    sys = JUNCTION[name]
    rng = random.Random(23)
    cancelled = 0
    for _ in range(150):
        u = rand_word(sys, rng, rng.randint(1, 20), max_level=4)
        v = inverse_word(sys, u[rng.randint(0, len(u)):])
        v += rand_word(sys, rng, rng.randint(0, 10), max_level=4)
        a, b = reduce_word(sys, u), reduce_word(sys, v)
        ab = mul(sys, a, b)
        assert ab == reduce_word(sys, u + v)
        assert mul(sys, a, inv(sys, a)) == identity(sys)
        cancelled += len(ab.letters) < len(a.letters) + len(b.letters) - 1
    assert cancelled > 50


@pytest.mark.parametrize("name", sorted(JUNCTION))
def test_mul_at_mixed_levels(name):
    # g at f's level is read in place, g below it is folded up to f's level
    # first, and g above it folds f instead; neither operand changes
    sys = JUNCTION[name]
    rng = random.Random(24)
    seen = {"same": 0, "below": 0, "above": 0}
    for _ in range(300):
        u = rand_word(sys, rng, rng.randint(1, 15), rng.randint(0, 5))
        v = rand_word(sys, rng, rng.randint(1, 15), rng.randint(0, 5))
        if rng.random() < 0.5:
            v = inverse_word(sys, u[rng.randint(0, len(u)):]) + v
        f, g = reduce_word(sys, u), reduce_word(sys, v)
        before = form_expr_str(sys, f), form_expr_str(sys, g)
        assert mul(sys, f, g) == reduce_word(sys, u + v)
        assert (form_expr_str(sys, f), form_expr_str(sys, g)) == before
        if g.level < f.level:
            seen["below"] += 1
        elif g.level > f.level:
            seen["above"] += 1
        elif g.level > 0:
            seen["same"] += 1
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("name", ALL)
def test_derived_escape_words(name):
    sys = INSTANCES[name]
    for d in range(1, 7):
        cert = derived_escape(sys, d, 0)
        for text in (cert.tree_expr, cert.result_expr):
            word = expr_to_word(sys, parse_expr(text, sys))
            assert_agrees(sys, word)


def merge_heavy_word(sys, rng, blocks):
    """Same-level runs, each closed by a syllable that cancels it into B.

    A block is a run at level a, runs at falling levels below a with a
    level-0 and a base-valued syllable among them (deep frames are open
    then), and a second run at level a whose last syllable brings the run's
    product into B_{a-1}: its R-letter merges away and exposes the L-letter
    the lower runs closed into.  Half the blocks then reopen that L-letter.
    """
    fmul, finv = sys.factor_mul, sys.factor_inv
    word = []
    for _ in range(blocks):
        a = rng.randint(2, 6)
        word += [(a, sys.sample(a, rng)) for _ in range(rng.randint(1, 3))]
        for b in sorted(rng.sample(range(1, a), rng.randint(1, a - 1)),
                        reverse=True):
            word += [(b, sys.sample(b, rng)) for _ in range(rng.randint(1, 3))]
        m = rng.randint(1, a)
        word += [(0, sys.sample(0, rng)), (m, sys.sample_base(m - 1, rng))]
        run = [sys.sample(a, rng) for _ in range(rng.randint(1, 3))]
        prod = sys.factor_id()
        for x in run:
            prod = fmul(prod, x)
        word += [(a, x) for x in run]
        word.append((a, fmul(finv(prod), sys.sample_base(a - 1, rng))))
        if rng.random() < 0.5:
            b = rng.randint(1, a - 1)
            word.append((b, sys.sample(b, rng)))
    return word


@pytest.mark.parametrize("name", ALL)
def test_merge_heavy_words(name):
    sys = INSTANCES[name]
    rng = random.Random(23)
    for _ in range(12):
        assert_agrees(sys, merge_heavy_word(sys, rng, rng.randint(1, 6)))
    assert_agrees(sys, merge_heavy_word(sys, rng, 80))


def sawtooth_word(sys, rng, hi, lo, teeth):
    """Runs at level hi alternating with dips to level lo < hi.

    A dip has one syllable or up to three, and now and then one more that
    lies in B_{lo-1}, so counts as level 0, or, when lo is 0, in B_{hi-1}.
    Now and then a run ends in a syllable that brings its product into
    B_{hi-1}: its R-letter merges away and re-exposes the L-letter the dip
    before it closed into, and the next dip reopens it.
    """
    fmul, finv = sys.factor_mul, sys.factor_inv
    word = []
    for _ in range(teeth):
        run = [sys.sample(hi, rng) for _ in range(rng.randint(1, 2))]
        word += [(hi, x) for x in run]
        if rng.random() < 0.3:
            prod = sys.factor_id()
            for x in run:
                prod = fmul(prod, x)
            word.append((hi, fmul(finv(prod), sys.sample_base(hi - 1, rng))))
        dip = [(lo, sys.sample(lo, rng))
               for _ in range(rng.choice((1, 1, 2, 3)))]
        if rng.random() < 0.3:
            base = sys.sample_base(lo - 1 if lo else hi - 1, rng)
            dip.insert(rng.randint(0, len(dip)), (lo, base))
        word += dip
    return word


@pytest.mark.parametrize("name", ALL)
def test_sawtooth_words(name):
    # every dip opens a frame already holding its first syllable and closes
    # into one L-letter; inv of the result is the inverse word's form
    sys = INSTANCES[name]
    rng = random.Random(25)
    for hi, lo in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2), (6, 0), (6, 5)]:
        for teeth in (1, 2, 5, 12, 150):
            word = sawtooth_word(sys, rng, hi, lo, teeth)
            assert_agrees(sys, word)
            assert (inv(sys, reduce_word(sys, word))
                    == reduce_word(sys, inverse_word(sys, word)))


@pytest.mark.parametrize("name", ALL)
def test_merge_into_base_exposes_closed_lletter(name):
    # h2(x) h1(y) h2(u) h2(u^-1 z), z in B_1: the last syllable's product
    # with the top R-letter lies in B_1, so h1(y), closed into an L-letter
    # when h2(u) arrived, becomes the top letter again
    sys = INSTANCES[name]
    x, y, u = sys.escape_elem(1), sys.escape_elem(0), sys.escape_elem(1)
    z = sys.sample_base(1, random.Random(24))
    word = [(2, x), (1, y), (2, u),
            (2, sys.factor_mul(sys.factor_inv(u), z))]
    got = reduce_word(sys, word)
    assert got.level == 2 and len(got.letters) == 2
    assert type(got.letters[-1]) is Alt
    assert_agrees(sys, word)
    assert_agrees(sys, word + [(1, y), (0, y)])


def counted(sys, *names):
    """Wrap the named factor-system methods to log their calls' first args."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _f=getattr(sys, name), _log=calls[name]):
            _log.append(args[0])
            return _f(*args)
        setattr(sys, name, wrapper)
    return calls


@pytest.mark.parametrize("name,p,x,y", [
    ("dense", 5, "1/5", "1/5"),
    ("heisenberg", 3, "(1,0,0)", "(0,1,0)"),
    ("cyclic", 3, "1", "1"),
])
def test_merged_syllable_costs_one_split(name, p, x, y):
    # work-count guard: a syllable merged into the top R-letter is split
    # once, after the merge, not once alone and again after the merge
    sys = make_instance(name, p)
    x, y = sys.parse_value(x), sys.parse_value(y)
    xy = sys.factor_mul(x, y)
    assert not sys.in_base(0, x) and not sys.in_base(0, xy)
    calls = counted(sys, "split")["split"]
    got = reduce_word(sys, [(1, x), (1, y)])
    assert calls == [1, 1]
    assert got == inject(sys, 1, xy)
    # a product landing in B_0 is not split at all
    calls.clear()
    assert reduce_word(sys, [(1, x), (1, sys.factor_inv(x))]) == identity(sys)
    assert calls == [1]


DIP_COSTS = [
    # a dip is split once going in (a level-0 one not at all) and once when
    # it closes; opening it multiplies by no identity, and every split
    # multiplies its residue into its tail itself, so only the level-0
    # dip, folded into its parent as a bare residue, costs a factor_mul
    ([(2, 1), (1, 0), (2, 1)], [2, 1, 2, 2], 0),
    ([(2, 1), (0, 1), (2, 1)], [2, 2, 2], 1),
    # the second syllable lifts the root, with one split of its tail
    ([(1, 0), (2, 1)], [1, 2, 2], 0),
]


@pytest.mark.parametrize("name,p", [
    ("dense", 5), ("heisenberg", 3), ("cyclic", 3),
])
# a case is named by its index and word length, not by its expected counts,
# so its name stays put when a change to the engine moves a count
@pytest.mark.parametrize("dip,splits,fmuls", DIP_COSTS, ids=[
    f"dip{i}-splits{i}-{len(dip)}" for i, (dip, _, _) in enumerate(DIP_COSTS)
])
def test_dips_and_lifts_split_once(name, p, dip, splits, fmuls):
    # work-count guard: each syllable is escape_elem of the given level, so
    # the level-0 syllable escapes B_1 and opens a level-0 frame
    sys = make_instance(name, p)
    word = [(n, sys.escape_elem(k)) for n, k in dip]
    want = fold_reduce(sys, word)
    calls = counted(sys, "split", "factor_mul")
    assert reduce_word(sys, word) == want
    assert calls["split"] == splits
    assert len(calls["factor_mul"]) == fmuls


def test_lifting_the_untouched_root_tests_no_base():
    # work-count guard: the root is still the identity when the first
    # syllable lifts it, so only the syllable is tested against B_1
    sys = make_instance("dense", 5)
    x = sys.parse_value("1")
    want = inject(sys, 2, x)
    calls = counted(sys, "in_base")
    assert reduce_word(sys, [(2, x)]) == want
    assert calls["in_base"] == [1]


@pytest.mark.parametrize("name,p", [
    ("dense", 5), ("heisenberg", 3), ("cyclic", 3),
])
def test_inv_of_level0_letters_tests_no_base(name, p):
    # work-count guard: a level-0 L-letter's value lies outside B_{n-1},
    # so its inverse is split in place with no in_base test
    sys = make_instance(name, p)
    x = sys.escape_elem(1)
    word = [(3, x), (2, x), (0, x), (2, x), (0, x), (3, x), (0, x), (3, x)]
    form = reduce_word(sys, word)
    assert any(type(a) is Alt and a.level == 0 for a in form.letters)
    want = reduce_word(sys, inverse_word(sys, word))
    calls = counted(sys, "in_base")
    assert inv(sys, form) == want
    assert calls["in_base"] == []


def test_level_above_cap_raises_mid_word():
    capped = make_instance("cyclic", 2, {"L": 3, "max_level": 2})
    seen = []
    check = capped.check_level

    def recording(n):
        seen.append(n)
        check(n)

    capped.check_level = recording
    word = [(1, 1), (2, 3), (0, 1), (3, 1), (-1, 1)]
    # reduce_word calls check_level only on a level out of range, and it
    # raises there, at the first such syllable
    with pytest.raises(UnsupportedLevel):
        reduce_word(capped, word)
    assert seen == [3]
    with pytest.raises(UnsupportedLevel):
        fold_reduce(capped, word)
    seen.clear()
    with pytest.raises(InvalidParams):
        reduce_word(capped, [(2, 1), (-1, 1), (3, 1)])
    assert seen == [-1]
    assert_agrees(capped, word[:3])


def descending_word(sys, top):
    word = [(n, sys.escape_elem(n - 1)) for n in range(top, 0, -1)]
    return word + [(0, sys.escape_elem(0))]


def nesting(form):
    depth = 0
    while form.level:
        assert type(form.letters[-1]) is Alt
        form = form.letters[-1]
        depth += 1
    return depth


def test_deep_descending_word():
    # one level-n letter per level from 400 down to 0 nests 400 L-letters;
    # the fold reduces it, and the frame chain must too
    dense = INSTANCES["dense"]
    word = descending_word(dense, 400)
    got = reduce_word(dense, word)
    assert got.level == 400
    assert nesting(got) == 400
    assert forms_equal(dense, got, fold_reduce(dense, word))
    # the frame chain does not recurse per level, unlike the fold, which
    # runs out of stack well before 1000
    assert nesting(reduce_word(dense, descending_word(dense, 1000))) == 1000


def test_deep_form_equality_and_hash():
    # == and hash() do not recurse per nesting level either
    dense = INSTANCES["dense"]
    word = descending_word(dense, 1000)
    f, g = reduce_word(dense, word), reduce_word(dense, word)
    assert f is not g
    assert f == g
    assert hash(f) == hash(g)
    # a difference at the bottom of the nesting is seen
    assert f != reduce_word(dense, word + [(0, dense.escape_elem(0))])


def test_deep_mul_and_inv():
    # inv and mul keep explicit stacks: a 1000-level form, whose L-letters
    # meet at every level of f * f^-1, needs no Python stack per level
    dense = INSTANCES["dense"]
    word = descending_word(dense, 1000)
    f = reduce_word(dense, word)
    g = inv(dense, f)
    assert inv(dense, g) == f
    assert mul(dense, f, g) == identity(dense)
    assert mul(dense, g, f) == identity(dense)
    assert g == reduce_word(dense, inverse_word(dense, word))
    assert mul(dense, f, f) == reduce_word(dense, word + word)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(ALL),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2**32)),
                max_size=40))
def test_hypothesis_words(name, syllables):
    sys = INSTANCES[name]
    word = [(n, sys.sample(n, random.Random(seed))) for n, seed in syllables]
    assert_agrees(sys, word)
