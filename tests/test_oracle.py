"""Engine vs. independent rewriting oracle, randomized and exhaustive."""

import itertools
import random

import pytest

from amalgam.instances import make_instance
from amalgam.normalform import (
    Alt,
    forms_equal,
    identity,
    inv,
    is_identity,
    mul,
    reduce_word,
)
from amalgam.oracle import naive_reduce
from amalgam.padic import PAdicRational


@pytest.fixture(scope="module")
def dense():
    return make_instance("dense", 5)


@pytest.fixture(scope="module")
def heis():
    return make_instance("heisenberg", 3)


@pytest.fixture(scope="module")
def cyc():
    return make_instance("cyclic", 2, {"L": 3})


ALL = ["dense", "heis", "cyc"]


def rand_word(sys, rng, max_len=16, max_level=6):
    return [
        (rng.randint(0, max_level), sys.sample(rng.randint(0, max_level), rng))
        for _ in range(rng.randint(0, max_len))
    ]


def test_empty_word(dense):
    assert naive_reduce(dense, []) == identity(dense)


def test_single_syllables_agree(dense):
    R = lambda n, k=0: PAdicRational(n, k, 5)
    for w in ([(0, R(7, 1))], [(1, R(7, 1))], [(3, R(25))], [(2, R(1, 2))]):
        assert naive_reduce(dense, w) == reduce_word(dense, w)


@pytest.mark.parametrize("name", ALL)
def test_random_words_agree(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(11)
    for _ in range(300):
        w = rand_word(sys, rng)
        assert naive_reduce(sys, w) == reduce_word(sys, w)


def test_targeted_cancellation_patterns(dense):
    R = lambda n, k=0: PAdicRational(n, k, 5)
    words = [
        # full cancellation at one level
        [(1, R(1, 1)), (1, R(-1, 1))],
        # base sandwich: the middle letter is central at level 2
        [(2, R(1, 1)), (0, R(5)), (2, R(-1, 1))],
        # cross-level absorb into the tail
        [(1, R(7, 1)), (0, R(3)), (1, R(2, 1))],
        # collapse down two levels
        [(2, R(1, 1)), (2, R(-1, 1)), (1, R(1, 1)), (1, R(-1, 1))],
        # nested: a level-1 element conjugated at level 2
        [(2, R(1, 1)), (1, R(1, 1)), (2, R(-1, 1)), (1, R(-1, 1))],
        # left letter assembly with leading low-level segment
        [(0, R(1, 1)), (2, R(1, 1)), (0, R(2, 1))],
        # trailing base member must land in the tail
        [(1, R(1, 1)), (0, R(5))],
    ]
    for w in words:
        assert naive_reduce(dense, w) == reduce_word(dense, w)


def test_exhaustive_small_words(cyc):
    # all words of length <= 3 over a fixed 6-letter alphabet
    alphabet = [(0, 1), (0, 4), (1, 1), (1, 2), (2, 1), (2, 4)]
    count = 0
    for length in range(0, 4):
        for w in itertools.product(alphabet, repeat=length):
            w = list(w)
            got = reduce_word(cyc, w)
            assert naive_reduce(cyc, w) == got
            count += 1
    assert count == 1 + 6 + 36 + 216


@pytest.mark.parametrize("name", ALL)
def test_eq_matches_quotient_on_word_pairs(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(12)
    for _ in range(100):
        wu, wv = rand_word(sys, rng, 8, 4), rand_word(sys, rng, 8, 4)
        u, v = reduce_word(sys, wu), reduce_word(sys, wv)
        # u * v^-1 reduced directly from the concatenated word
        winv = [(n, sys.factor_inv(x)) for n, x in reversed(wv)]
        equal = forms_equal(sys, u, v)
        assert equal == is_identity(sys, reduce_word(sys, wu + winv))
        assert equal == is_identity(sys, mul(sys, u, inv(sys, v)))


@pytest.mark.parametrize("name", ALL)
def test_oracle_agrees_on_products_of_reduced_forms(name, request):
    sys = request.getfixturevalue(name)
    rng = random.Random(13)
    for _ in range(60):
        wa, wb = rand_word(sys, rng, 8, 4), rand_word(sys, rng, 8, 4)
        a = reduce_word(sys, wa)
        b = reduce_word(sys, wb)
        assert mul(sys, a, b) == naive_reduce(sys, wa + wb)


def test_oracle_level_claims(dense):
    R = lambda n, k=0: PAdicRational(n, k, 5)
    assert naive_reduce(dense, [(3, R(1, 1))]).level == 3
    assert naive_reduce(dense, [(2, R(25))]).level == 0
    assert naive_reduce(dense, [(1, R(2)), (0, R(3))]) == Alt(0, (), R(5))
