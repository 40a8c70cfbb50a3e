"""The factor-system contract behind the iterated amalgam.

A factor system supplies the groups H0, H1, ... together with the descending
chain B0 >= B1 >= ... of central subgroups the construction amalgamates over.
All H_n of one instance share a single value representation, so a value can be
"presented in" any factor; the level argument picks the group law when it
matters (it never does for the shipped instances, but the contract keeps it).

The contract is what the normal-form engine, the oracle, the homomorphism
layer and the witness generators program against; concrete systems live in
``instances``.
"""

from abc import ABC, abstractmethod

from amalgam.errors import InvalidParams, UnsupportedLevel


class FactorSystem(ABC):
    """Group structure, base-chain membership and transversal data.

    Required structural facts, validated by probes at construction and by the
    fuller conformance suite:

    - the chain descends with trivial intersection (``base_escape_level``
      terminates on every non-identity value);
    - each B_n is central in H_n and in H_{n+1};
    - B_n is proper in both H_n and H_{n+1} (``nonbase_elem``/``escape_elem``);
    - ``split`` is an exact factorization whose representative depends only
      on the coset; the one map serves H_n modulo B_{n-1} and, on base
      values, each B_m modulo B_{n-1}.
    """

    kind = "abstract"
    max_level = None  # inclusive cap on factor levels, or None for no cap

    # -- group structure of H_n ------------------------------------------

    @abstractmethod
    def factor_id(self, n):
        """Identity element of H_n."""

    @abstractmethod
    def factor_mul(self, n, x, y):
        """Product x*y in H_n."""

    @abstractmethod
    def factor_inv(self, n, x):
        """Inverse of x in H_n."""

    def factor_eq(self, n, x, y):
        return x == y

    # -- the amalgamated chain -------------------------------------------

    @abstractmethod
    def in_base(self, n, x):
        """True iff x lies in B_n (x presented in H_n or H_{n+1})."""

    @abstractmethod
    def split(self, n, h):
        """Factor h in H_n (n >= 1) as rep*b with b in B_{n-1}.

        rep is the canonical transversal representative of h*B_{n-1} and
        depends only on that coset.  For h in B_m with m < n-1, rep stays in
        B_m, so the same map picks the representatives of B_m modulo B_{n-1}
        that the tails of left letters need.
        """

    @abstractmethod
    def nonbase_elem(self, n):
        """A fixed element of H_n outside B_n."""

    @abstractmethod
    def escape_elem(self, n):
        """A fixed element of H_{n+1} outside B_n."""

    @abstractmethod
    def base_escape_level(self, x):
        """Minimal n with x outside B_n; undefined for the identity."""

    @abstractmethod
    def sample(self, n, rng):
        """A random element of H_n, deterministic in rng's state."""

    def sample_base(self, n, rng):
        """A random element of B_n; the split tail of a random H_{n+1} value."""
        _, b = self.split(n + 1, self.sample(n + 1, rng))
        return b

    # -- values as text ----------------------------------------------------

    @abstractmethod
    def parse_value(self, text):
        """Parse one element literal; raises LiteralError on bad input."""

    @abstractmethod
    def value_str(self, x):
        """Canonical literal for x, re-parseable by parse_value."""

    # -- bookkeeping -------------------------------------------------------

    def check_level(self, n):
        if n < 0:
            raise InvalidParams(f"factor level must be a natural, got {n}")
        if self.max_level is not None and n > self.max_level:
            raise UnsupportedLevel(
                f"level {n} exceeds this instance's cap {self.max_level}"
            )

    def params(self):
        """Instance parameters beyond the prime, as a plain dict."""
        return {}

    def descriptor(self):
        return {"instance": self.kind, "prime": self.p, "params": self.params()}

    def __repr__(self):
        return f"<{type(self).__name__} p={self.p}>"

    # -- construction-time probes -----------------------------------------

    def _validate_axioms(self, rng, probe_levels=4, samples=3):
        """Cheap deterministic checks of the contract; raises InvalidParams.

        This is the constructor-side gate; the full sampled conformance suite
        lives in ``suites.check_instance``.
        """
        for n in range(probe_levels):
            ident = self.factor_id(n)
            if not self.in_base(n, ident):
                raise InvalidParams(f"identity not in B_{n}")
            nb = self.nonbase_elem(n)
            if self.in_base(n, nb):
                raise InvalidParams(
                    f"B_{n} is not proper in H_{n}: nonbase_elem({n}) lies in it"
                )
            es = self.escape_elem(n)
            if self.in_base(n, es):
                raise InvalidParams(
                    f"B_{n} is not proper in H_{n + 1}: escape_elem({n}) lies in it"
                )
            for _ in range(samples):
                b = self.sample_base(n, rng)
                for m in range(n + 1):
                    if not self.in_base(m, b):
                        raise InvalidParams(
                            f"chain does not descend: B_{n} value escapes B_{m}"
                        )
                # centrality of B_n in H_n and in H_{n+1}
                for lvl in (n, n + 1):
                    x = self.sample(lvl, rng)
                    if not self.factor_eq(
                        lvl, self.factor_mul(lvl, x, b), self.factor_mul(lvl, b, x)
                    ):
                        raise InvalidParams(f"B_{n} is not central in H_{lvl}")
            for _ in range(samples):
                h = self.sample(n + 1, rng)
                rep, b = self.split(n + 1, h)
                if not self.in_base(n, b):
                    raise InvalidParams(f"split({n + 1}, .) tail escapes B_{n}")
                if not self.factor_eq(n + 1, self.factor_mul(n + 1, rep, b), h):
                    raise InvalidParams(f"split({n + 1}, .) is not a factorization")
                if not self.factor_eq(n + 1, h, ident) and not self.in_base(n, h):
                    lvl = self.base_escape_level(h)
                    if lvl > n:
                        raise InvalidParams(
                            f"base_escape_level inconsistent with in_base at {n}"
                        )
