"""Seeded input generation and independent reference arithmetic.

Every value the benchmark feeds to amalgam is built here from the
benchmark's own ``random.Random`` through public constructors
(``PAdicRational``, Heisenberg triples, cyclic residues); the program's
``sample()`` is never used for inputs.  Each ``Kit`` also carries the factor
group law, inverses and the standard abelian image written independently of
amalgam, so answers can be checked without ``normalform``.
"""

from fractions import Fraction

MAX_LEVEL = 6

# (name, kind, prime, params) of the three instances the word, certificate
# and CLI workloads use.
INSTANCES = (
    ("dense", "dense", 5, {}),
    ("heisenberg", "heisenberg", 3, {}),
    ("cyclic", "cyclic", 2, {"L": 3}),
)

# The five acceptance configurations the suite workload cycles through.
SUITE_CONFIGS = (
    ("dense2", "dense", 2, {}),
    ("dense3", "dense", 3, {}),
    ("dense5", "dense", 5, {}),
    ("heisenberg3", "heisenberg", 3, {}),
    ("cyclic2", "cyclic", 2, {"L": 3}),
)


class DenseKit:
    """(Z[1/p], +): values are PAdicRational, the image is the value itself."""

    def __init__(self, p):
        from amalgam.padic import PAdicRational

        self.p = p
        self._make = PAdicRational

    def value(self, rng):
        return self._make(rng.randint(-625, 625), rng.randint(0, 3), self.p)

    def nonzero(self, rng):
        return self._make(rng.choice((-1, 1)) * rng.randint(1, 625),
                          rng.randint(0, 3), self.p)

    def _frac(self, x):
        return Fraction(x.num, self.p ** x.den_exp)

    def _from_frac(self, f):
        k, den = 0, f.denominator
        while den % self.p == 0:
            den //= self.p
            k += 1
        return self._make(f.numerator, k, self.p)

    def inv(self, x):
        return self._make(-x.num, x.den_exp, self.p)

    def mul(self, x, y):
        return self._from_frac(self._frac(x) + self._frac(y))

    def literal(self, x):
        return str(x.num) if x.den_exp == 0 else f"{x.num}/{self.p ** x.den_exp}"

    def image(self, x):
        return self._frac(x)

    zero_image = Fraction(0)

    def add_images(self, a, b):
        return a + b

    def image_of_result(self, v):
        return Fraction(v.num, self.p ** v.den_exp)


class HeisenbergKit:
    """Integer triples with (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y')."""

    def __init__(self, p):
        self.p = p

    def value(self, rng):
        return (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-625, 625))

    def nonzero(self, rng):
        x = self.value(rng)
        return x if x != (0, 0, 0) else (1, 0, 0)

    def inv(self, a):
        return (-a[0], -a[1], -a[2] + a[0] * a[1])

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def literal(self, a):
        return f"({a[0]},{a[1]},{a[2]})"

    def image(self, a):
        return (a[0], a[1])

    zero_image = (0, 0)

    def add_images(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def image_of_result(self, v):
        return tuple(v)


class CyclicKit:
    """Residues modulo p**L."""

    def __init__(self, p, L):
        self.p = p
        self.modulus = p ** L

    def value(self, rng):
        return rng.randrange(self.modulus)

    def nonzero(self, rng):
        return rng.randrange(1, self.modulus)

    def inv(self, x):
        return (-x) % self.modulus

    def mul(self, x, y):
        return (x + y) % self.modulus

    def literal(self, x):
        return str(x)

    def image(self, x):
        return x % self.modulus

    zero_image = 0

    def add_images(self, a, b):
        return (a + b) % self.modulus

    def image_of_result(self, v):
        return v


def make_kit(kind, p, params):
    if kind == "dense":
        return DenseKit(p)
    if kind == "heisenberg":
        return HeisenbergKit(p)
    return CyclicKit(p, params["L"])


# -- words ------------------------------------------------------------------


def random_word(kit, rng, length):
    return [(rng.randint(0, MAX_LEVEL), kit.value(rng)) for _ in range(length)]


def inverse_word(kit, word):
    return [(n, kit.inv(x)) for n, x in reversed(word)]


def cancelling_word(kit, rng, length, style):
    """A word of exactly ``length`` syllables shaped u v u^-1 or [u, v]."""
    if style == "conj":
        a = rng.randint(1, (length - 1) // 2)
        u = random_word(kit, rng, a)
        return u + random_word(kit, rng, length - 2 * a) + inverse_word(kit, u)
    half = length // 2
    a = rng.randint(1, half - 1)
    u = random_word(kit, rng, a)
    v = random_word(kit, rng, half - a)
    return u + v + inverse_word(kit, u) + inverse_word(kit, v)


def equal_variant(kit, rng, word):
    """A different word for the same element: an inserted x x^-1 or a split
    syllable x = y (y^-1 x)."""
    out = list(word)
    i = rng.randrange(len(out) + 1)
    if rng.random() < 0.5 or not out:
        x = kit.nonzero(rng)
        n = rng.randint(0, MAX_LEVEL)
        out[i:i] = [(n, x), (n, kit.inv(x))]
    else:
        i = min(i, len(out) - 1)
        n, x = out[i]
        y = kit.nonzero(rng)
        out[i:i + 1] = [(n, y), (n, kit.mul(kit.inv(y), x))]
    return out


def unequal_variant(kit, rng, word):
    """The word times one trailing non-identity syllable: never equal to it."""
    return list(word) + [(rng.randint(0, MAX_LEVEL), kit.nonzero(rng))]


def word_image(kit, word):
    """Letterwise sum of the syllables' standard images, without normalform."""
    acc = kit.zero_image
    for _, x in word:
        acc = kit.add_images(acc, kit.image(x))
    return acc


def word_text(kit, word):
    return " ".join(f"h{n}({kit.literal(x)})" for n, x in word)


def word_expr(kit, rng, length):
    """An expression string of ``length`` syllables, with some structure."""
    style = rng.choice(("flat", "comm", "conj"))
    if style == "flat" or length < 4:
        return word_text(kit, random_word(kit, rng, length))
    half = length // 2
    u = word_text(kit, random_word(kit, rng, half // 2 or 1))
    v = word_text(kit, random_word(kit, rng, max(1, half - (half // 2 or 1))))
    if style == "comm":
        return f"[{u}, {v}]"
    return f"({u}) {v} ({u})^-1"
