"""Randomized conformance batteries over a factor system.

Every suite is deterministic given its seed and returns a plain dict shaped
for JSON output: name, instance descriptor, sample count, failure count per
sub-check, overall ok flag.  The CLI's ``check`` subcommands and the
full-scale acceptance run both call these.  ``check_instance`` lives beside
the contract in ``factors``, which constructors also run it from; it is
imported here so that every suite can be reached through this module.
"""

import random

from amalgam.errors import InvalidParams
from amalgam.factors import _report, check_instance, randint
from amalgam.homs import phi_eval, psi_eval, standard_hom
from amalgam.normalform import (
    centrality_check,
    forms_equal,
    identity,
    inject,
    inv,
    is_identity,
    mul,
    reduce_word,
)
from amalgam.oracle import naive_reduce
from amalgam.padic import mat_mul
from amalgam.witnesses import lemma21_check


def random_word(sys, rng, max_len, max_level):
    max_level = min(max_level, sys.max_level)
    out = []
    for _ in range(randint(rng, 0, max_len)):
        n = randint(rng, 0, max_level)
        out.append((n, sys.sample(n, rng)))
    return out


def random_form(sys, rng, max_len, max_level):
    return reduce_word(sys, random_word(sys, rng, max_len, max_level))


def check_axioms(sys, samples, seed):
    """Group laws on reduced forms: associativity, identity, inverses."""
    rng = random.Random(seed)
    checks = {"assoc": 0, "identity": 0, "inverse": 0, "level_bound": 0}
    e = identity(sys)
    for _ in range(samples):
        a = random_form(sys, rng, 8, 6)
        b = random_form(sys, rng, 8, 6)
        c = random_form(sys, rng, 8, 6)
        ab = mul(sys, a, b)
        if not forms_equal(sys, mul(sys, ab, c), mul(sys, a, mul(sys, b, c))):
            checks["assoc"] += 1
        if not (forms_equal(sys, mul(sys, a, e), a)
                and forms_equal(sys, mul(sys, e, a), a)):
            checks["identity"] += 1
        if not is_identity(sys, mul(sys, a, inv(sys, a))):
            checks["inverse"] += 1
        if ab.level > max(a.level, b.level):
            checks["level_bound"] += 1
    return _report("axioms", sys, samples, seed, checks)


def check_oracle(sys, samples, seed):
    """Engine against the word-rewriting oracle, plus eq vs quotient equality."""
    rng = random.Random(seed)
    checks = {"oracle_match": 0, "eq_quotient": 0}
    for _ in range(samples):
        w1 = random_word(sys, rng, 10, 4)
        w2 = random_word(sys, rng, 10, 4)
        f1 = reduce_word(sys, w1)
        f2 = reduce_word(sys, w2)
        if not (forms_equal(sys, f1, naive_reduce(sys, w1))
                and forms_equal(sys, f2, naive_reduce(sys, w2))):
            checks["oracle_match"] += 1
        quotient_triv = is_identity(sys, mul(sys, f1, inv(sys, f2)))
        if forms_equal(sys, f1, f2) != quotient_triv:
            checks["eq_quotient"] += 1
    return _report("oracle", sys, samples, seed, checks)


def exhaustive_words(alphabet, max_len):
    """All words over the alphabet of length 0..max_len, shortest first."""
    frontier = [[]]
    yield []
    for _ in range(max_len):
        frontier = [w + [s] for w in frontier for s in alphabet]
        yield from frontier


def check_oracle_exhaustive(sys, alphabet, max_len):
    count = 0
    checks = {"oracle_match": 0}
    for word in exhaustive_words(alphabet, max_len):
        count += 1
        if not forms_equal(sys, reduce_word(sys, word), naive_reduce(sys, word)):
            checks["oracle_match"] += 1
    return _report("oracle_exhaustive", sys, count, None, checks)


def sample_lemma21_inputs(sys, rng, max_m=5):
    """A random preconditioned triple (h, g, m) for ``lemma21_check``.

    h gets an escape factor tacked on if the raw sample lands in B_m, and g is
    a random lower-stage element times a fresh level-(m+1) letter, which has
    level exactly m+1 whatever the random part is.
    """
    m = randint(rng, 0, max_m)
    h = random_form(sys, rng, 6, m)
    if h.level == 0 and sys.in_base(m, h.tail):
        h = mul(sys, h, inject(sys, m, sys.escape_elem(m)))
    w = random_form(sys, rng, 4, m)
    g = mul(sys, w, inject(sys, m + 1, sys.escape_elem(m)))
    return h, g, m


def check_lemma21(sys, samples, seed):
    """Conjugation by a fresh level-(m+1) element lands at level m+1."""
    max_m = min(5, sys.max_level - 1)
    if max_m < 0:
        raise InvalidParams("instance has no level to conjugate into")
    rng = random.Random(seed)
    checks = {"conjugation_level": 0}
    for _ in range(samples):
        h, g, m = sample_lemma21_inputs(sys, rng, max_m)
        if lemma21_check(sys, h, g, m) != (m + 1, m + 1):
            checks["conjugation_level"] += 1
    return _report("lemma21", sys, samples, seed, checks)


def check_centrality(sys, samples, seed):
    """Sampled B_n <= Z(G_{n+1}): every base value commutes with every g."""
    max_n = min(5, max(0, sys.max_level - 1))
    rng = random.Random(seed)
    checks = {"central": 0}
    for _ in range(samples):
        n = randint(rng, 0, max_n)
        g = random_form(sys, rng, 8, n + 1)
        z = sys.sample_base(n, rng)
        if not centrality_check(sys, g, n, z):
            checks["central"] += 1
    return _report("centrality", sys, samples, seed, checks)


def check_homs(sys, samples, seed):
    """standard_hom respects products, factor inclusions, and the matrix lift."""
    hom = standard_hom(sys)
    t = hom.target
    max_level = min(6, sys.max_level)
    incl_samples = max(1, samples // 10)
    rng = random.Random(seed)
    checks = {"hom_mul": 0, "factor_incl": 0, "psi_mul": 0}
    for _ in range(samples):
        a = random_form(sys, rng, 8, max_level)
        b = random_form(sys, rng, 8, max_level)
        ab = mul(sys, a, b)
        lhs = phi_eval(ab, hom)
        rhs = t.add(phi_eval(a, hom), phi_eval(b, hom))
        if lhs != rhs:
            checks["hom_mul"] += 1
        if t.embeds:
            pa = psi_eval(a, hom)
            pb = psi_eval(b, hom)
            if psi_eval(ab, hom) != mat_mul(pa, pb):
                checks["psi_mul"] += 1
    for n in range(max_level + 1):
        for _ in range(incl_samples):
            x = sys.sample(n, rng)
            direct = hom.phi(n, x)
            through = phi_eval(inject(sys, n, x), hom)
            if direct != through:
                checks["factor_incl"] += 1
    return _report("homs", sys, samples, seed, checks)
