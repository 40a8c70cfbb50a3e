"""Homomorphisms out of the amalgam into an abelian target.

A family of per-level maps phi_n: H_n -> target that agree on each
amalgamated B_n extends uniquely to the whole group; evaluation walks the
canonical form letterwise.  Compatibility and the per-level homomorphism
property are sampled at construction, and construction fails loudly rather
than letting an ill-defined family produce garbage images.
"""

import random

from amalgam.errors import IncompatibleHom, PreconditionViolated
from amalgam.normalform import Base, RLetter
from amalgam.padic import unipotent

_CHECK_SEED = 0x5E7


class Target:
    """An abelian group, written additively, whose values compare with ``==``."""

    __slots__ = ("name", "zero", "add", "value_str", "embeds")

    def __init__(self, name, zero, add, value_str, embeds=False):
        self.name = name
        self.zero = zero
        self.add = add
        self.value_str = value_str
        # True when target values are PAdicRational, so they can sit in the
        # upper-right entry of a unipotent matrix
        self.embeds = embeds


class LevelwiseHom:
    """A compatible family phi_n: H_n -> target, checked by sampling."""

    def __init__(self, sys, target, phi, probe_levels=6, samples=25):
        self.sys = sys
        self.target = target
        self.phi = phi
        rng = random.Random(_CHECK_SEED)
        for n in range(probe_levels):
            for _ in range(samples):
                x = sys.sample(n, rng)
                y = sys.sample(n, rng)
                lhs = phi(n, sys.factor_mul(n, x, y))
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
    """Image of g under the extension of hom's level maps."""
    sys, target, phi = hom.sys, hom.target, hom.phi
    if type(g) is Base:
        return phi(0, g.value)
    n = g.level
    acc = phi(n, g.tail)
    for letter in g.letters:
        if type(letter) is RLetter:
            acc = target.add(acc, phi(n, letter.value))
        else:
            acc = target.add(acc, phi_eval(letter.form, hom))
    return acc


def in_kernel(g, hom):
    return phi_eval(g, hom) == hom.target.zero


def psi_eval(g, hom):
    """Image of g as a 2x2 unipotent matrix: rows (1 phi(g) / 0 1)."""
    if not hom.target.embeds:
        raise PreconditionViolated(
            f"target {hom.target.name!r} values cannot sit in matrix entries"
        )
    return unipotent(phi_eval(g, hom))


def standard_hom(sys):
    """The canonical levelwise family for each shipped instance.

    dense: every phi_n is the identity on Z[1/p], whose sums are the
    instance's own level-0 group law.  heisenberg: drop the central z
    coordinate, landing in (Z^2, +).  cyclic: identity on Z/p**L.
    """
    kind = sys.kind
    if kind == "dense":
        target = Target(
            name="Z[1/p]",
            zero=sys.factor_id(0),
            add=lambda a, b: sys.factor_mul(0, a, b),
            value_str=str,
            embeds=True,
        )
        return LevelwiseHom(sys, target, lambda n, x: x)
    if kind == "heisenberg":
        target = Target(
            name="Z^2",
            zero=(0, 0),
            add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            value_str=lambda a: f"({a[0]},{a[1]})",
        )
        return LevelwiseHom(sys, target, lambda n, x: (x[0], x[1]))
    if kind == "cyclic":
        modulus = sys.modulus
        target = Target(
            name=f"Z/{modulus}",
            zero=0,
            add=lambda a, b: (a + b) % modulus,
            value_str=str,
        )
        return LevelwiseHom(sys, target, lambda n, x: x)
    raise PreconditionViolated(f"no standard hom for instance kind {kind!r}")
