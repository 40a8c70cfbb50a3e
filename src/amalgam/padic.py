"""Exact arithmetic in the additive group Z[1/p] and its 2x2 unipotent image.

Every value is a normalized pair ``num / p**den_exp``; arithmetic is exact
with arbitrary-precision integers throughout, so long witness words cannot
overflow.  ``PAdicRational``'s constructor is the one normalization; its
``+`` and ``*`` build their results through it and serve ``psi``'s
matrices.  The dense instance does its own arithmetic on the pairs and
builds each result in place, as ``from_normalized`` does, without a call.
``check_prime`` validates the prime every instance is built on.
"""

from amalgam.errors import InvalidParams, LiteralError, int_literal, too_long


# Trial divisors, and the Miller-Rabin bases that decide primality for every
# integer below 2**64 (indeed below 3.3 * 10**24).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(p):
    """True iff an odd p > 37 with no prime factor up to 37 is prime."""
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    """p, if it is a prime below 2**64; raises InvalidParams otherwise.

    Divides by the primes up to 37, then runs Miller-Rabin with those primes
    as bases, which is exact in this range.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise InvalidParams(f"prime must be an integer >= 2, got {p!r}")
    if p >= 2**64:
        raise InvalidParams(f"prime must be below 2**64, got {p}")
    for d in _SMALL_PRIMES:
        if p % d == 0 and p != d:
            raise InvalidParams(f"{p} is not prime (divisible by {d})")
    if p > _SMALL_PRIMES[-1] and not _miller_rabin(p):
        raise InvalidParams(f"{p} is not prime")
    return p


class PAdicRational:
    """An element of Z[1/p]: ``num / p**den_exp`` with p not dividing num.

    The constructor cancels the factors of p that num and the denominator
    share (zero gets ``den_exp`` 0).  Instances are immutable value objects;
    all operations return new ones.
    """

    __slots__ = ("num", "den_exp", "p")

    def __init__(self, num, den_exp, p):
        if den_exp < 0:
            raise InvalidParams(f"den_exp must be a natural, got {den_exp}")
        if num == 0:
            den_exp = 0
        while den_exp and num % p == 0:
            num //= p
            den_exp -= 1
        self.num = num
        self.den_exp = den_exp
        self.p = p

    @classmethod
    def zero(cls, p):
        return from_normalized(0, 0, p)

    @classmethod
    def one(cls, p):
        return from_normalized(1, 0, p)

    def _check_same(self, other):
        if not isinstance(other, PAdicRational):
            return NotImplemented
        if self.p != other.p:
            raise InvalidParams(f"mixed primes {self.p} and {other.p}")
        return other

    def __add__(self, other):
        o = self._check_same(other)
        if o is NotImplemented:
            return NotImplemented
        a, ak, b, bk = self.num, self.den_exp, o.num, o.den_exp
        if ak < bk:
            a, ak, b, bk = b, bk, a, ak
        return PAdicRational(a + b * self.p ** (ak - bk), ak, self.p)

    def __mul__(self, other):
        o = self._check_same(other)
        if o is NotImplemented:
            return NotImplemented
        return PAdicRational(
            self.num * o.num, self.den_exp + o.den_exp, self.p)

    def __eq__(self, other):
        if not isinstance(other, PAdicRational):
            return NotImplemented
        return (
            self.num == other.num
            and self.den_exp == other.den_exp
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.num, self.den_exp, self.p))

    def __bool__(self):
        return self.num != 0

    def __str__(self):
        """``num`` or ``num/p**den_exp``; ``too_long()`` past the digit limit."""
        num, k = self.num, self.den_exp
        try:
            return f"{num}/{self.p ** k}" if k else f"{num}"
        except ValueError:
            raise too_long() from None

    def __repr__(self):
        return f"PAdicRational({self.num}, {self.den_exp}, p={self.p})"


def from_normalized(num, den_exp, p):
    """The PAdicRational num / p**den_exp of a pair that is already normalized.

    Skips ``__init__``'s normalization; ``zero``, ``one``, ``parse_padic``'s
    integers and the dense instance's ``sample_base`` build with it.
    """
    x = object.__new__(PAdicRational)
    x.num = num
    x.den_exp = den_exp
    x.p = p
    return x


def parse_padic(text, p):
    """Parse `m` or `m/d` with d a positive power of the configured prime."""
    s = text.strip()
    num_s, slash, den_s = s.partition("/")
    num = int_literal(num_s, lambda: f"bad integer numerator in {text!r}")
    if not slash:
        return from_normalized(num, 0, p)
    den = int_literal(den_s, lambda: f"bad integer denominator in {text!r}")
    if den < 1:
        raise LiteralError(f"denominator must be positive in {text!r}")
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if den != 1:
        raise LiteralError(
            f"denominator in {text!r} is not a power of the prime {p}"
        )
    return PAdicRational(num, k, p)


class Mat2:
    """A 2x2 matrix with exact p-power-denominator entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    __repr__ = __str__


def mat_mul(A, B):
    return Mat2(
        A.a * B.a + A.b * B.c,
        A.a * B.b + A.b * B.d,
        A.c * B.a + A.d * B.c,
        A.c * B.b + A.d * B.d,
    )


def unipotent(z):
    """The matrix with rows (1 z / 0 1); a homomorphic image of (Z[1/p], +)."""
    one = PAdicRational.one(z.p)
    zero = PAdicRational.zero(z.p)
    return Mat2(one, z, zero, one)
