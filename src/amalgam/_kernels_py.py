"""Pure-Python arithmetic kernels for p-power-denominator rationals.

Values are passed as plain integer pairs ``(num, k)`` meaning ``num / p**k``,
normalized so that ``k == 0`` or ``p`` does not divide ``num`` (and ``num == 0``
forces ``k == 0``).  ``padic`` and the instances' valuations call them
through ``_kernels``.
"""


def norm(num, k, p):
    """Cancel common factors of p between numerator and denominator."""
    if num == 0:
        return 0, 0
    while k > 0 and num % p == 0:
        num //= p
        k -= 1
    return num, k


def add(an, ak, bn, bk, p):
    if ak == bk:
        return norm(an + bn, ak, p)
    if ak < bk:
        an, ak, bn, bk = bn, bk, an, ak
    return norm(an + bn * p ** (ak - bk), ak, p)


def mul(an, ak, bn, bk, p):
    return norm(an * bn, ak + bk, p)


def val(num, k, p):
    """p-adic valuation of a nonzero normalized pair."""
    if num == 0:
        raise ValueError("valuation of zero is undefined")
    v = -k
    while num % p == 0:
        num //= p
        v += 1
    return v


def coset_split(num, k, p, n):
    """Split x into (rep, x - rep) with rep in [0, p**n) and x - rep in p**n Z.

    Returns a flat 4-tuple (rep_num, rep_k, b_num, b_k), both pairs normalized.
    The rep depends only on the coset x + p**n Z, so it is a transversal map.
    """
    if num == 0:
        return 0, 0, 0, 0
    q = p ** (n + k)
    r = num % q
    rn, rk = norm(r, k, p)
    bn, bk = norm(num - r, k, p)
    return rn, rk, bn, bk


def in_subgroup(num, k, p, n):
    """True iff num / p**k lies in p**n Z (n >= 0)."""
    if num == 0:
        return True
    if k != 0:
        return False
    if n == 0:
        return True
    return num % p ** n == 0
