"""The one integer draw, and ``check_instance`` seeing each contract clause fail.

Each fault fixture below breaks one clause of the factor-system contract.
The constructor's probe would refuse it, so ``Unprobed`` skips the probe and
the fixture is passed to ``check_instance`` directly.
"""

import random

import pytest

from amalgam.factors import check_instance, randint
from amalgam.instances import DenseInstance, HeisenbergInstance, valuation
from amalgam.padic import from_normalized

RANGES = [(0, 0), (0, 1), (0, 3), (0, 4), (0, 6), (-625, 625),
          (0, 2**64), (1, 2**70), (-2**70, -1), (-3, 3), (-7, -7)]


@pytest.mark.parametrize("a,b", RANGES)
def test_randint_is_random_randint(a, b):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert ([randint(ours, a, b) for _ in range(20)]
                == [theirs.randint(a, b) for _ in range(20)])
        # the streams are left in the same state
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("m", [1, 2, 8, 5**4, 2**64 + 1])
def test_randint_from_zero_is_randrange(m):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert ([randint(ours, 0, m - 1) for _ in range(20)]
                == [theirs.randrange(m) for _ in range(20)])


@pytest.mark.parametrize("a,b", [(1, 0), (5, -5), (0, -2**70)])
def test_randint_refuses_an_empty_range(a, b):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        randint(rng, a, b)
    assert rng.getstate() == state


class Unprobed:
    """Mixed in first, skips the constructor's contract probe."""

    def _check_contract(self):
        pass


class SwappedChain(Unprobed, DenseInstance):
    """B_1 = p**2 Z and B_2 = p Z, so B_2 does not lie in B_1.

    Membership, split, base samples and escape levels all follow the
    swapped chain, so only the descent fails.
    """

    @staticmethod
    def _exp(n):
        return {1: 2, 2: 1}.get(n, n)

    def in_base(self, n, x):
        return super().in_base(self._exp(n), x)

    def split(self, n, h, t):
        return super().split(self._exp(n - 1) + 1, h, t)

    def sample_base(self, n, rng):
        return super().sample_base(self._exp(n), rng)

    def base_escape_level(self, x):
        v = super().base_escape_level(x) - 1
        n = 0
        while self._exp(n) <= v:
            n += 1
        return n


class TopBaseWithoutIdentity(Unprobed, DenseInstance):
    """B_6 leaves out the identity, so it is no subgroup.

    The probe samples levels up to 6; only the chain checks test B_6.
    """

    def in_base(self, n, x):
        return super().in_base(n, x) and not (n == 6 and x.num == 0)


class MovedRep(Unprobed, DenseInstance):
    """A value that is its own representative is moved by p**(n-1) inside
    its coset.  The split stays exact, but a representative is no longer
    its own representative, and so no longer a function of the coset: the
    split_coset check may see that too.
    """

    def split(self, n, h, t):
        rep, tail = super().split(n, h, t)
        if rep != h:
            return rep, tail
        step = from_normalized(self.p ** (n - 1), 0, self.p)
        moved = self.factor_mul(h, step)
        return moved, self.factor_mul(t, self.factor_inv(step))


class SelfRep(Unprobed, DenseInstance):
    """Every value is its own representative, so a coset has many."""

    def split(self, n, h, t):
        return h, t


class CentralSplitDropsTail(Unprobed, HeisenbergInstance):
    """The split of a base value drops its tail.

    Samples are never central, so the splits of sampled H_n values stay
    exact and only the split of sampled base values shows the fault.
    """

    def split(self, n, h, t):
        rep, tail = super().split(n, h, t)
        if h[0] == h[1] == 0:
            return rep, t
        return rep, tail

    def sample(self, n, rng):
        x, y, z = super().sample(n, rng)
        return (x or 1, y, z)


class YAxisBase(Unprobed, HeisenbergInstance):
    """B_n = p**n times the y-axis: a descending chain that is not central."""

    def in_base(self, n, a):
        return a[0] == 0 and a[2] == 0 and a[1] % self._powers[n] == 0

    def split(self, n, h, t):
        x, y, z = h
        yb = y - y % self._powers[n - 1]
        return (x, y - yb, z - x * yb), self.factor_mul(t, (0, yb, 0))

    def sample_base(self, n, rng):
        return (0, self._powers[n] * randint(rng, -625, 625), 0)

    def base_escape_level(self, a):
        if a[0] != 0 or a[2] != 0:
            return 0
        return valuation(a[1], self.p) + 1


class SplitIgnoresTail(Unprobed, DenseInstance):
    """``split`` returns the bare residue whatever tail it is given.

    Every caller that passes the identity still gets an exact split, so
    only the check that splits into a sampled base tail sees the fault.
    """

    def split(self, n, h, t):
        return super().split(n, h, self.factor_id())


class LateEscapeLevel(Unprobed, DenseInstance):
    """``base_escape_level`` one above the least level a value escapes."""

    def base_escape_level(self, x):
        return super().base_escape_level(x) + 1


# (fixture, the check it breaks, other checks the fault may also trip)
FAULTS = [
    (SwappedChain, "chain_descent", set()),
    (TopBaseWithoutIdentity, "chain_descent", set()),
    (MovedRep, "split_rep_fixed", {"split_coset"}),
    (SelfRep, "split_coset", set()),
    (SplitIgnoresTail, "split_exact", set()),
    (CentralSplitDropsTail, "chain_exact", set()),
    (YAxisBase, "base_central", set()),
    (LateEscapeLevel, "bel_consistent", set()),
]


@pytest.mark.parametrize("cls,check,also", FAULTS,
                         ids=[cls.__name__ for cls, _, _ in FAULTS])
@pytest.mark.parametrize("seed", [0, 7])
def test_check_instance_reports_the_broken_clause(cls, check, also, seed):
    report = check_instance(cls(5), 100, seed)
    failing = {name for name, count in report["checks"].items() if count}
    assert check in failing
    assert failing - also == {check}
    assert not report["ok"]


def test_unfaulted_bases_pass_the_same_check():
    for cls in (DenseInstance, HeisenbergInstance):
        assert check_instance(cls(5), 100, 7)["ok"]
