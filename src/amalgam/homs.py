"""Homomorphisms out of the amalgam into an abelian target.

A family of per-level maps phi_n: H_n -> target that agree on each
amalgamated B_n extends uniquely to the whole group; evaluation walks the
canonical form letterwise, mapping each value and summing the images with
one call to the target's ``total``.  A target may supply that n-ary sum as
a capability; without one, ``total`` folds ``add`` from ``zero``.  The
standard targets sum in one pass.  Compatibility and the per-level
homomorphism property are sampled at construction, with ``add``, and
construction fails loudly rather than letting an ill-defined family
produce garbage images.  One family is not sampled: the identity into the
factor group under the instance's own ``factor_mul``, where every check
would compare a value with itself.
"""

import random

from amalgam.errors import IncompatibleHom, PreconditionViolated, too_long
from amalgam.normalform import Alt
from amalgam.padic import PAdicRational, padic_sum, unipotent

_CHECK_SEED = 0x5E7


class Target:
    """An abelian group, written additively, whose values compare with ``==``.

    ``total(values)`` is the sum of a list of values.  A target that can
    add many values at once faster than pairwise passes ``total``; one
    built without it gets the fold of ``add`` from ``zero``, which gives
    the same sum.
    """

    __slots__ = ("name", "zero", "add", "value_str", "embeds", "total")

    def __init__(self, name, zero, add, value_str, total=None):
        self.name = name
        self.zero = zero
        self.add = add
        self.value_str = value_str
        # PAdicRational values can sit in the upper-right entry of a
        # unipotent matrix
        self.embeds = isinstance(zero, PAdicRational)
        self.total = _fold(zero, add) if total is None else total


def _fold(zero, add):
    """The n-ary sum of a target that supplies only ``add``."""
    def total(values):
        acc = zero
        for v in values:
            acc = add(acc, v)
        return acc
    return total


def _identity(n, x):
    return x


def _drop_centre(n, x):
    return (x[0], x[1])


def _pair_total(values):
    x = y = 0
    for a, b in values:
        x += a
        y += b
    return (x, y)


def _pair_str(a):
    try:
        return f"({a[0]},{a[1]})"
    except ValueError:
        raise too_long() from None


class LevelwiseHom:
    """A compatible family phi_n: H_n -> target, checked by sampling.

    The family ``_identity`` into a target that adds with ``sys.factor_mul``
    is not sampled: each homomorphism check would compare factor_mul(x, y)
    with itself and each compatibility check b with b, so none could fail.
    """

    def __init__(self, sys, target, phi):
        self.target = target
        self.phi = phi
        if phi is _identity and target.add == sys.factor_mul:
            return
        rng = random.Random(_CHECK_SEED)
        for n in range(6):
            for _ in range(25):
                x = sys.sample(n, rng)
                y = sys.sample(n, rng)
                lhs = phi(n, sys.factor_mul(x, y))
                rhs = target.add(phi(n, x), phi(n, y))
                if lhs != rhs:
                    raise IncompatibleHom(
                        f"phi_{n} is not a homomorphism at sampled inputs"
                    )
                b = sys.sample_base(n, rng)
                if phi(n, b) != phi(n + 1, b):
                    raise IncompatibleHom(
                        f"phi_{n} and phi_{n + 1} disagree on a sampled B_{n} value"
                    )


def phi_eval(g, hom):
    """Image of g under hom's level maps, summed in any order (abelian target).

    Walks g's letters on an explicit stack, maps each value with
    ``hom.phi`` at its form's level and sums the images with one call to
    the target's ``total``.
    """
    phi = hom.phi
    images = []
    push = images.append
    forms = [g]
    while forms:
        f = forms.pop()
        n = f.level
        push(phi(n, f.tail))
        for letter in f.letters:
            if type(letter) is Alt:
                forms.append(letter)
            else:
                push(phi(n, letter))
    return hom.target.total(images)


def in_kernel(g, hom):
    return phi_eval(g, hom) == hom.target.zero


def check_embeds(target):
    """Refuse a target whose values cannot sit in matrix entries."""
    if not target.embeds:
        raise PreconditionViolated(
            f"target {target.name!r} values cannot sit in matrix entries"
        )


def psi_eval(g, hom):
    """Image of g as a 2x2 unipotent matrix: rows (1 phi(g) / 0 1)."""
    check_embeds(hom.target)
    return unipotent(phi_eval(g, hom))


def standard_target(sys):
    """The abelian group that ``standard_hom(sys)`` lands in."""
    kind = sys.kind
    if kind == "dense":
        p = sys.p
        return Target(
            name="Z[1/p]",
            zero=sys.factor_id(),
            add=sys.factor_mul,
            value_str=sys.value_str,
            total=lambda values: padic_sum(values, p),
        )
    if kind == "cyclic":
        modulus = sys.modulus
        return Target(
            name=f"Z/{modulus}",
            zero=sys.factor_id(),
            add=sys.factor_mul,
            value_str=sys.value_str,
            total=lambda values: sum(values) % modulus,
        )
    if kind == "heisenberg":
        return Target(
            name="Z^2",
            zero=(0, 0),
            add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            value_str=_pair_str,
            total=_pair_total,
        )
    raise PreconditionViolated(f"no standard hom for instance kind {kind!r}")


def standard_hom(sys):
    """The canonical levelwise family for each shipped instance.

    dense and cyclic: every phi_n is the identity on the factor group,
    Z[1/p] or Z/p**L, whose sums are the instance's own group law and whose
    values print as the instance's.  Such a family is a compatible family
    of homomorphisms by definition, so ``LevelwiseHom`` does not sample it.
    A form's images are summed in one pass: per ``den_exp`` by
    ``padic.padic_sum``, or as one integer sum mod p**L.
    heisenberg: drop the central z coordinate, landing in (Z^2, +), summed
    componentwise; that family is sampled.
    """
    target = standard_target(sys)
    phi = _drop_centre if sys.kind == "heisenberg" else _identity
    return LevelwiseHom(sys, target, phi)
