"""The factor-system contract behind the iterated amalgam.

A factor system supplies the groups H0, H1, ... together with the descending
chain B0 >= B1 >= ... of central subgroups the construction amalgamates over.
All H_n of one instance are one group, with one value representation and one
group law, which takes no level; levels pick out the chain B_n, the
transversals of H_n modulo B_{n-1}, escape values and samples.

The contract is what the normal-form engine, the oracle, the homomorphism
layer and the witness generators program against; concrete systems live in
``instances``.  ``check_instance`` is the one check of the contract: every
constructor runs it on a few samples, and ``amalgam check instance`` and the
acceptance run run it on many.

Every seeded draw is ``random.Random.randint``'s own rejection loop over
``getrandbits``: for a range of width w, draw ``k = w.bit_length()`` bits
until the draw is below w.  So a seed gives the integers ``rng.randint``
gives and leaves the generator in the same state.  ``randint`` is that loop
as a call, for draws made once per word or per sample; the per-sample
draws (each instance's ``sample`` and ``sample_base``, a random word's
levels, ``check_instance``'s levels) write it out in place, with the same
k and the same bound, so they cost no Python call.
"""

import random
from abc import ABC, abstractmethod

from amalgam.errors import InvalidParams, UnsupportedLevel

# The check every constructor runs; a fixed seed keeps construction
# deterministic.
_PROBE_SEED = 0xA3A1
_PROBE_SAMPLES = 4

# The largest factor level, and cyclic L, any instance accepts: both become
# exponents of p.  On a 2-vCPU Xeon VM, ``witness derived 2 9999`` at p just
# below 2**64 computes in about 1 s (10 s to print, int-string limit lifted).
LEVEL_BOUND = 10_000


def randint(rng, a, b):
    """A uniform integer in [a, b], the one ``rng.randint(a, b)`` returns.

    This is ``random.Random``'s own rejection loop over ``getrandbits``, so
    a seed gives the same samples as ``rng.randint``, without the argument
    handling of ``randrange``: on a shared 2-vCPU Xeon VM with Python 3.11,
    ``timeit`` puts a draw in [-625, 625] at 250-295 ns, against 500-760 ns
    for ``rng.randint``.  An empty range raises ``ValueError``, as
    ``rng.randint`` does; the loop would never exit on one.  The hot
    samplers write this loop out in place (see the module docstring); any
    change to it changes theirs too.
    """
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


class FactorSystem(ABC):
    """The group law all H_n share, base-chain membership, transversal data.

    The contract, all of it sampled by ``check_instance``:

    - values of one instance compare with ``==``;
    - the chain descends with trivial intersection: B_n holds the identity,
      B_{n+1} lies in B_n, and ``base_escape_level`` is the least n with a
      non-identity value outside B_n;
    - each B_n is central in H_n and in H_{n+1};
    - ``escape_elem(n)`` lies outside B_n, so B_n is proper in both H_n and
      H_{n+1};
    - ``split`` is an exact factorization into a representative and a tail
      in B_{n-1}, returned already multiplied into the tail it is given;
      the representative depends only on the coset and is its own
      representative.  The one map serves H_n modulo B_{n-1} and, on base
      values, each B_m modulo B_{n-1}.

    A value is never a ``normalform.Alt``: a form's R-letters are bare
    values and its L-letters are ``Alt``s.  No computation hashes a value;
    only ``Alt.__hash__`` does, so a form is hashable when its values are.
    The shipped values (ints, int tuples, ``PAdicRational``) are hashable,
    equal values hashing equally, and no ``Alt``.  Each constructor ends
    with ``_check_contract``, so an instance that breaks the sampled
    contract is refused with ``InvalidParams``.
    """

    kind = "abstract"
    max_level = LEVEL_BOUND  # inclusive cap on factor levels

    # -- the group law, shared by every H_n ------------------------------

    @abstractmethod
    def factor_id(self):
        """Identity element."""

    @abstractmethod
    def factor_mul(self, x, y):
        """Product x*y."""

    @abstractmethod
    def factor_inv(self, x):
        """Inverse of x."""

    # -- the amalgamated chain -------------------------------------------

    @abstractmethod
    def in_base(self, n, x):
        """True iff x lies in B_n (x presented in H_n or H_{n+1})."""

    @abstractmethod
    def split(self, n, h, t):
        """Factor h in H_n (n >= 1) as rep*b with b in B_{n-1}; (rep, t*b).

        rep is the canonical transversal representative of h*B_{n-1} and
        depends only on that coset.  For h in B_m with m < n-1, rep stays in
        B_m, so the same map picks the representatives of B_m modulo B_{n-1}
        that the tails of left letters need.  b is central, so t is any
        tail the residue lands in, and ``factor_id()`` gives b itself: the
        engine pushes each letter's residue into its tail in one call.
        """

    @abstractmethod
    def escape_elem(self, n):
        """A fixed value outside B_n, in H_n and in H_{n+1}."""

    @abstractmethod
    def base_escape_level(self, x):
        """Minimal n with x outside B_n; undefined for the identity (the
        shipped instances' ``instances.valuation`` raises ValueError)."""

    @abstractmethod
    def sample(self, n, rng):
        """A random element of H_n, deterministic in rng's state."""

    @abstractmethod
    def sample_base(self, n, rng):
        """A random element of B_n, deterministic in rng's state."""

    # -- values as text ----------------------------------------------------

    @abstractmethod
    def parse_value(self, text):
        """Parse one element literal; raises LiteralError on bad input."""

    @abstractmethod
    def value_str(self, x):
        """Canonical literal for x, re-parseable by parse_value; a number
        past Python's int-string limit raises ``errors.too_long()``."""

    # -- bookkeeping -------------------------------------------------------

    def check_level(self, n):
        if n < 0:
            raise InvalidParams(f"factor level must be a natural, got {n}")
        if n > self.max_level:
            # n itself may have too many digits to print
            raise UnsupportedLevel(
                f"factor level above this instance's cap {self.max_level}"
            )

    def params(self):
        """Instance parameters beyond the prime, as a plain dict."""
        return {}

    def descriptor(self):
        return {"instance": self.kind, "prime": self.p, "params": self.params()}

    def __repr__(self):
        return f"<{type(self).__name__} p={self.p}>"

    def _check_contract(self):
        """Raise InvalidParams naming every check the instance fails."""
        report = check_instance(self, _PROBE_SAMPLES, _PROBE_SEED)
        if not report["ok"]:
            failing = ", ".join(k for k, v in report["checks"].items() if v)
            raise InvalidParams(
                f"{self.kind} instance breaks the factor-system contract: "
                f"{failing}"
            )


def _report(name, sys, samples, seed, checks):
    failures = sum(checks.values())
    return {
        "name": name,
        "instance": sys.descriptor(),
        "samples": samples,
        "failures": failures,
        "checks": checks,
        "seed": seed,
        "ok": failures == 0,
    }


def check_instance(sys, samples, seed):
    """Sampled factor-system contract: splits, chain, centrality, escapes.

    Properness and the identity's membership are checked at every sampled
    level before sampling, without drawing from the rng.
    """
    max_level = max(1, min(6, sys.max_level))
    rng = random.Random(seed)
    # n is randint(rng, 1, max_level), m is randint(rng, 0, n - 1), each
    # randint's loop in place
    getrandbits = rng.getrandbits
    n_bits = max_level.bit_length()
    checks = {
        "split_exact": 0,
        "split_rep_fixed": 0,
        "split_coset": 0,
        "chain_exact": 0,
        "chain_descent": 0,
        "base_central": 0,
        "escape_proper": 0,
        "bel_consistent": 0,
    }
    e = sys.factor_id()
    for n in range(max_level + 1):
        if not sys.in_base(n, e):
            checks["chain_descent"] += 1
        if sys.in_base(n, sys.escape_elem(n)):
            checks["escape_proper"] += 1
    for _ in range(samples):
        n = getrandbits(n_bits)
        while n >= max_level:
            n = getrandbits(n_bits)
        n += 1
        h = sys.sample(n, rng)
        z = sys.sample_base(n - 1, rng)
        # h z is in h's coset, and outside B_{n-1} when h is: the residue
        # lands in that tail exactly as factor_mul puts it
        hz = sys.factor_mul(h, z)
        rep, b = sys.split(n, h, e)
        rep_t, tb = sys.split(n, h, hz)
        if not (sys.in_base(n - 1, b) and sys.factor_mul(rep, b) == h
                and rep_t == rep and tb == sys.factor_mul(hz, b)):
            checks["split_exact"] += 1
        rep2, b2 = sys.split(n, rep, e)
        if not (rep2 == rep and b2 == e):
            checks["split_rep_fixed"] += 1
        rep3, _ = sys.split(n, hz, e)
        if rep3 != rep:
            checks["split_coset"] += 1
        m_bits = n.bit_length()
        m = getrandbits(m_bits)
        while m >= n:
            m = getrandbits(m_bits)
        bm = sys.sample_base(m, rng)
        crep, cb = sys.split(n + 1, bm, e)
        if sys.factor_mul(crep, cb) != bm:
            checks["chain_exact"] += 1
        if not (sys.in_base(n, cb)
                and all(sys.in_base(k, bm) for k in range(m + 1))):
            checks["chain_descent"] += 1
        for lvl in (n - 1, n):
            x = sys.sample(lvl, rng)
            zb = sys.sample_base(n - 1, rng)
            if sys.factor_mul(x, zb) != sys.factor_mul(zb, x):
                checks["base_central"] += 1
        if h != e:
            bl = sys.base_escape_level(h)
            least = not sys.in_base(bl, h) and (bl == 0 or sys.in_base(bl - 1, h))
            if not least:
                checks["bel_consistent"] += 1
    return _report("instance", sys, samples, seed, checks)
