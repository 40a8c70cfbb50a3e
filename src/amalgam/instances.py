"""Three concrete factor systems.

* ``dense``: every factor is the additive group Z[1/p], amalgamated over the
  descending chain B_n = p**n Z.  The main instance; equality and membership
  are decidable, and every hypothesis of the construction holds.
* ``heisenberg``: the discrete Heisenberg group at every level, amalgamated
  over central chains of z-axis subgroups.  Non-abelian factors; exercises the
  engine where letter order matters.
* ``cyclic``: Z/p**L at every level with B_n = <p**min(n+1, L)>.  Finite value
  set, so oracles can enumerate words exhaustively.  The chain is shifted by
  one so that B_0 is proper in H_0; requesting the unshifted chain is exactly
  the kind of degenerate instance construction must reject.
"""

from amalgam.errors import InvalidParams, LiteralError, int_literal, too_long
from amalgam.factors import LEVEL_BOUND, FactorSystem
from amalgam.padic import PAdicRational, check_prime, parse_padic


_new = object.__new__

# Samples draw with ``factors.randint``'s loop written in place, k bits at a
# time until the draw is below the range's width w, k = w.bit_length(): a
# draw in [-625, 625] takes 11-bit draws below 1251, one in [0, 3] 3-bit
# draws below 4, one in [-3, 3] 3-bit draws below 7.


def valuation(num, p):
    """The exponent of p in a nonzero integer num; ValueError on 0."""
    if num == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    return v


class _Powers(dict):
    """p ** e by e for one prime p, at most 64 of them remembered.

    Every ``in_base`` and ``split`` takes p ** e from its instance's memo,
    e a factor level or a denominator's exponent.  A hit is one dict
    lookup; a miss computes the power and keeps it, dropping the oldest
    once 64 are kept.  At a prime
    near 2**64 and an exponent near ``LEVEL_BOUND`` one power is an 80 KB
    integer that takes 17-25 ms to compute, and a derived tree tests
    against the same few such powers hundreds of times; the bound keeps an
    instance's memo under about 5 MB.
    """

    __slots__ = ("p",)

    def __init__(self, p):
        super().__init__()
        self.p = p

    def __missing__(self, e):
        if len(self) >= 64:
            del self[next(iter(self))]
        power = self[e] = self.p ** e
        return power


class DenseInstance(FactorSystem):
    """H_n = (Z[1/p], +) for every n, B_n = p**n Z.

    Values are ``PAdicRational``s.  The group law, inverse, ``in_base`` and
    ``split`` compute on their ``num``/``den_exp`` pairs inline, keeping
    each result normalized (p does not divide num unless den_exp is 0),
    and build each result value in place, with ``object.__new__`` and its
    three slots, as ``from_normalized`` would but without the call.
    ``sample`` and ``sample_base`` do too: they draw inline and normalize
    as ``factor_mul`` does.
    """

    kind = "dense"

    def __init__(self, p):
        self.p = check_prime(p)
        self._powers = _Powers(self.p)
        self._zero = PAdicRational.zero(self.p)
        self._one = PAdicRational.one(self.p)
        self._invp = PAdicRational(1, 1, self.p)
        self._check_contract()

    def factor_id(self):
        return self._zero

    def factor_mul(self, x, y):
        num, k, bn, bk = x.num, x.den_exp, y.num, y.den_exp
        if bn == 0:
            return x
        if num == 0:
            return y
        p = self.p
        if k == bk:
            num += bn
        elif k > bk:
            num += bn * p ** (k - bk)
        else:
            num, k = bn + num * p ** (bk - k), bk
        if num == 0:
            return self._zero
        while k and num % p == 0:
            num //= p
            k -= 1
        z = _new(PAdicRational)
        z.num, z.den_exp, z.p = num, k, p
        return z

    def factor_inv(self, x):
        if x.num == 0:
            return x
        z = _new(PAdicRational)
        z.num, z.den_exp, z.p = -x.num, x.den_exp, self.p
        return z

    def in_base(self, n, x):
        num = x.num
        if num == 0:
            return True
        return x.den_exp == 0 and (n == 0 or num % self._powers[n] == 0)

    def split(self, n, h, t):
        """(rep, t + h - rep): rep in [0, p**(n-1)), h - rep in p**(n-1) Z."""
        num, k = h.num, h.den_exp
        rep = num % self._powers[n - 1 + k]
        if rep == num:
            return h, t
        # the residue is the integer base; adding it needs no normalizing
        # loop: for den_exp > 0, p divides base * p**den_exp but not t.num
        base = (num - rep) // self._powers[k]
        p, tk = self.p, t.den_exp
        if tk:
            tail = _new(PAdicRational)
            tail.num, tail.den_exp, tail.p = (
                t.num + base * self._powers[tk], tk, p)
        else:
            base += t.num
            if base:
                tail = _new(PAdicRational)
                tail.num, tail.den_exp, tail.p = base, 0, p
            else:
                tail = self._zero
        if rep == 0:
            return self._zero, tail
        # (rep, k) is already normalized: for k > 0, p does not divide num,
        # and rep = num mod p**(n-1+k) with n >= 1, so p does not divide rep
        h = _new(PAdicRational)
        h.num, h.den_exp, h.p = rep, k, p
        return h, tail

    def escape_elem(self, n):
        return self._invp if n == 0 else self._one

    def base_escape_level(self, x):
        if x.den_exp > 0:
            return 0
        return valuation(x.num, self.p) + 1

    def sample(self, n, rng):
        getrandbits = rng.getrandbits
        num = getrandbits(11)
        while num >= 1251:
            num = getrandbits(11)
        k = getrandbits(3)
        while k >= 4:
            k = getrandbits(3)
        num -= 625
        p = self.p
        while k and num % p == 0:
            num //= p
            k -= 1
        z = _new(PAdicRational)
        z.num, z.den_exp, z.p = num, k, p
        return z

    def sample_base(self, n, rng):
        getrandbits = rng.getrandbits
        num = getrandbits(11)
        while num >= 1251:
            num = getrandbits(11)
        z = _new(PAdicRational)
        z.num, z.den_exp, z.p = (num - 625) * self._powers[n], 0, self.p
        return z

    def parse_value(self, text):
        return parse_padic(text, self.p)

    def value_str(self, x):
        return str(x)


class HeisenbergInstance(FactorSystem):
    """H_n = discrete Heisenberg group on integer triples, B_n = z-axis p**n Z.

    Group law (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y'); the centre is the
    z-axis, which contains every B_n.
    """

    kind = "heisenberg"

    def __init__(self, p):
        self.p = check_prime(p)
        self._powers = _Powers(self.p)
        self._id = (0, 0, 0)
        self._check_contract()

    def factor_id(self):
        return self._id

    def factor_mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def factor_inv(self, a):
        return (-a[0], -a[1], -a[2] + a[0] * a[1])

    def in_base(self, n, a):
        return a[0] == 0 and a[1] == 0 and a[2] % self._powers[n] == 0

    def split(self, n, h, t):
        # the residue (0, 0, h[2] - zr) is central: it adds to t's z alone
        zr = h[2] % self._powers[n - 1]
        return (h[0], h[1], zr), (t[0], t[1], t[2] + h[2] - zr)

    def escape_elem(self, n):
        return (1, 0, 0)

    def base_escape_level(self, a):
        if a[0] != 0 or a[1] != 0:
            return 0
        return valuation(a[2], self.p) + 1

    def sample(self, n, rng):
        getrandbits = rng.getrandbits
        x = getrandbits(3)
        while x >= 7:
            x = getrandbits(3)
        y = getrandbits(3)
        while y >= 7:
            y = getrandbits(3)
        z = getrandbits(11)
        while z >= 1251:
            z = getrandbits(11)
        return x - 3, y - 3, z - 625

    def sample_base(self, n, rng):
        getrandbits = rng.getrandbits
        z = getrandbits(11)
        while z >= 1251:
            z = getrandbits(11)
        return (0, 0, self._powers[n] * (z - 625))

    def parse_value(self, text):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise LiteralError(f"expected (x,y,z) triple, got {text!r}")
        parts = s[1:-1].split(",")
        if len(parts) != 3:
            raise LiteralError(f"expected 3 components in {text!r}")
        try:
            return int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            pass
        # int_literal raises the refused component's error: malformed or long
        return tuple(
            int_literal(q, lambda: f"non-integer component in {text!r}")
            for q in parts)

    def value_str(self, a):
        try:
            return f"({a[0]},{a[1]},{a[2]})"
        except ValueError:
            raise too_long() from None


class FiniteCyclicInstance(FactorSystem):
    """H_n = Z/p**L at every level, B_n = <p**min(n+shift, L)>.

    The default shift of 1 keeps B_0 proper in H_0.  shift=0 makes B_0 the
    whole group; the constructor's contract check rejects it.  The chain becomes
    trivial from level L-shift on, so the intersection is trivial and words
    can be enumerated exhaustively.
    """

    kind = "cyclic"

    def __init__(self, p, L, chain_shift=1, max_level=None):
        self.p = check_prime(p)
        self._powers = _Powers(self.p)
        if type(L) is not int or not 2 <= L <= LEVEL_BOUND:
            raise InvalidParams(
                f"cyclic instance needs integer 2 <= L <= {LEVEL_BOUND}, got {L!r}")
        if type(chain_shift) is not int or chain_shift < 0:
            raise InvalidParams(f"chain_shift must be a natural, got {chain_shift!r}")
        if max_level is not None and (type(max_level) is not int or max_level < 0):
            raise InvalidParams(f"max_level must be a natural or None, got {max_level!r}")
        self.L = L
        self.chain_shift = chain_shift
        if max_level is not None:
            self.max_level = min(max_level, LEVEL_BOUND)
        self.modulus = self.p**L
        self._check_contract()

    def factor_id(self):
        return 0

    def factor_mul(self, x, y):
        return (x + y) % self.modulus

    def factor_inv(self, x):
        return (-x) % self.modulus

    # B_n = <p**e>, e = min(n + shift, L), written out: calls doubled the
    # cost of in_base and split
    def in_base(self, n, x):
        e = n + self.chain_shift
        return x % self._powers[e if e < self.L else self.L] == 0

    def split(self, n, h, t):
        e = n - 1 + self.chain_shift
        rep = h % self._powers[e if e < self.L else self.L]
        return rep, (t + h - rep) % self.modulus

    def escape_elem(self, n):
        return 1

    def base_escape_level(self, x):
        return max(0, valuation(x, self.p) + 1 - self.chain_shift)

    def sample(self, n, rng):
        getrandbits, width = rng.getrandbits, self.modulus
        bits = width.bit_length()
        x = getrandbits(bits)
        while x >= width:
            x = getrandbits(bits)
        return x

    def sample_base(self, n, rng):
        q = self._powers[min(n + self.chain_shift, self.L)]
        getrandbits, width = rng.getrandbits, self.modulus // q
        bits = width.bit_length()
        x = getrandbits(bits)
        while x >= width:
            x = getrandbits(bits)
        return q * x

    def parse_value(self, text):
        residue = int_literal(
            text, lambda: f"expected an integer residue, got {text!r}")
        return residue % self.modulus

    def value_str(self, x):
        try:
            return f"{x}"
        except ValueError:
            raise too_long() from None

    def params(self):
        out = {"L": self.L, "chain_shift": self.chain_shift}
        if self.max_level < LEVEL_BOUND:
            out["max_level"] = self.max_level
        return out


_KINDS = {
    "dense": (DenseInstance, ()),
    "heisenberg": (HeisenbergInstance, ()),
    "cyclic": (FiniteCyclicInstance, ("L", "chain_shift", "max_level")),
}


def make_instance(kind, p, params=None):
    """Build a factor system by name; its constructor checks the contract."""
    if kind not in _KINDS:
        raise InvalidParams(
            f"unknown instance kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    cls, allowed = _KINDS[kind]
    params = dict(params or {})
    for key in params:
        if key not in allowed:
            raise InvalidParams(f"unknown parameter {key!r} for {kind} instance")
    if kind == "cyclic":
        params.setdefault("L", 3)
    return cls(p, **params)
