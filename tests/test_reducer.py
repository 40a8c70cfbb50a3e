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
    LLetter,
    forms_equal,
    identity,
    inject,
    inv,
    mul,
    reduce_word,
)
from amalgam.oracle import naive_reduce
from amalgam.witnesses import derived_escape
from amalgam.wordexpr import expr_to_word, parse_expr


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
    return [(n, sys.factor_inv(n, x)) for n, x in reversed(word)]


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
    # R-letters and exposes closed LLetters, which the next lower-level
    # syllables must reopen
    sys = INSTANCES[name]
    rng = random.Random(22)
    for _ in range(40):
        w = rand_word(sys, rng, rng.randint(2, 30), max_level=2)
        wi = inverse_word(sys, w)
        assert_agrees(sys, w + wi[: rng.randint(1, len(wi))])
        assert_agrees(sys, w + wi[: rng.randint(1, len(wi))] + w)


@pytest.mark.parametrize("name", ALL)
def test_derived_escape_words(name):
    sys = INSTANCES[name]
    for d in range(1, 7):
        cert = derived_escape(sys, d, 0)
        for text in (cert.tree_expr, cert.result_expr):
            word = expr_to_word(sys, parse_expr(text, sys))
            assert_agrees(sys, word)


def test_level_above_cap_raises_mid_word():
    capped = make_instance("cyclic", 2, {"L": 3, "max_level": 2})
    seen = []
    check = capped.check_level

    def recording(n):
        seen.append(n)
        check(n)

    capped.check_level = recording
    word = [(1, 1), (2, 3), (0, 1), (3, 1), (-1, 1)]
    with pytest.raises(UnsupportedLevel):
        reduce_word(capped, word)
    assert seen == [1, 2, 0, 3]
    with pytest.raises(UnsupportedLevel):
        fold_reduce(capped, word)
    seen.clear()
    with pytest.raises(InvalidParams):
        reduce_word(capped, [(2, 1), (-1, 1), (3, 1)])
    assert seen == [2, -1]
    assert_agrees(capped, word[:3])


def descending_word(sys, top):
    word = [(n, sys.escape_elem(n - 1)) for n in range(top, 0, -1)]
    return word + [(0, sys.escape_elem(0))]


def nesting(form):
    depth = 0
    while form.level:
        assert type(form.letters[-1]) is LLetter
        form = form.letters[-1].form
        depth += 1
    return depth


def test_deep_descending_word():
    # one level-n letter per level from 400 down to 0 nests 400 LLetters;
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
