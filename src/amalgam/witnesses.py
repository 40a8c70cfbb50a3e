"""Constructive escape certificates and batched conjugation-level checks.

The central fact being exercised: for h of level at most m lying outside B_m
and g of level exactly m+1, both g h g^-1 and the commutator [g, h] again have
level exactly m+1, so conjugation by a fresh-level element cannot fall back
into the lower stage.  ``lemma21_check`` verifies one triple (the sampled
batch is ``suites.check_lemma21``), and the two certificate generators
iterate the fact into replayable evidence:

* ``escape_witness``: for any h != id and bound k, a conjugate of h whose
  level exceeds k, showing the normal closure of h sits inside no finite
  stage;
* ``derived_escape``: a depth-d perfect commutator tree evaluating above
  level k, showing d rounds of derived subgroup still contain non-identity
  elements of arbitrarily high level.

Certificates store their inputs as word-expression strings plus the instance
descriptor; ``verify`` recomputes the result from them alone, compares its
canonical text with the claim byte for byte, and runs the generators' own
checks (``_check_bounds``, ``_conjugate``), so replay refuses what they would.
Generation and replay evaluate a derived tree with the same ``eval_expr``:
``_build_tree`` builds only the expression, so a change to evaluation
reaches both.
"""

import json

from amalgam.errors import (
    AmalgamError,
    IdentityInput,
    InvalidParams,
    PreconditionViolated,
)
from amalgam.instances import make_instance
from amalgam.normalform import inject, inv, is_identity, mul
from amalgam.wordexpr import (
    AtomE,
    CommE,
    eval_expr,
    expr_str,
    form_expr_str,
    parse_expr,
    reaches_level,
)

# The tree has 2**d leaves but (d+1)(d+2)/2 distinct subtrees, each
# evaluated once; the result's text grows about 3.6x per level and the cost
# about 3x.  On a 2-vCPU Xeon VM, depth 8 on dense p=5 takes about 35 ms to
# generate and as long to verify (315 KB), depth 9 about 0.1 s each (1.1 MB).
_MAX_DEPTH = 8


def _conjugate(sys, h, g, m):
    """The form of g h g^-1, after checking lemma21's hypotheses.

    The levels are checked first: they bound m by the size of the forms, so
    the B_m test, which can cost time in m, never sees an arbitrary m.
    """
    if h.level > m:
        raise PreconditionViolated(
            f"hypothesis level(h) <= m fails: level {h.level} > {m}"
        )
    if g.level != m + 1:
        raise PreconditionViolated(
            f"hypothesis level(g) = m+1 fails: level {g.level} != {m + 1}"
        )
    # base values all sit at level 0, so positive level escapes every B_m
    if h.level == 0 and sys.in_base(m, h.tail):
        raise PreconditionViolated(
            f"hypothesis h not in B_{m} fails: {sys.value_str(h.tail)} lies in it"
        )
    return mul(sys, g, h, inv(sys, g))


def _check_bounds(k, d=None):
    """Raise unless k >= 0 and, for a tree (d not None), 0 <= d <= 8."""
    if d is None:
        if k < 0:
            raise InvalidParams(f"escape_witness needs a bound k >= 0, got {k}")
    elif d < 0 or k < 0:
        raise InvalidParams(f"derived_escape needs d >= 0 and k >= 0, got {d}, {k}")
    elif d > _MAX_DEPTH:
        raise InvalidParams(
            f"derived_escape supports depth d <= {_MAX_DEPTH}, got {d}"
        )


def lemma21_check(sys, h, g, m):
    """Levels of (g h g^-1, g h g^-1 h^-1); the contract is (m+1, m+1).

    Preconditions mirror the hypotheses that make the fact true: level(h) <= m
    with h outside B_m, and level(g) exactly m+1.
    """
    conj = _conjugate(sys, h, g, m)
    return conj.level, mul(sys, conj, inv(sys, h)).level


class _Certificate:
    """Fields and JSON layout shared by both certificate kinds.

    A kind names its JSON ``type``, the expressions it keeps under
    ``inputs`` (JSON key ``x`` is the attribute ``x_expr``) and its integer
    fields besides ``k``.  Every field is passed by keyword.
    """

    __slots__ = ("instance", "prime", "params", "k", "result_expr",
                 "result_level", "seed")
    type = None
    _inputs = ()
    _ints = ()

    def __init__(self, *, instance, prime, params, k, result_expr,
                 result_level, seed=None):
        self.instance = instance
        self.prime = prime
        self.params = params
        self.k = k
        self.result_expr = result_expr
        self.result_level = result_level
        self.seed = seed

    def to_json_dict(self):
        return {
            "type": self.type,
            "instance": self.instance,
            "prime": self.prime,
            "params": self.params,
            "inputs": {key: getattr(self, key + "_expr") for key in self._inputs},
            **{name: getattr(self, name) for name in self._ints},
            "k": self.k,
            "result": {"expr": self.result_expr, "level": self.result_level},
            "seed": self.seed,
        }

    @classmethod
    def _from_json_dict(cls, data):
        """The certificate in data; KeyError or TypeError if a field is missing."""
        seed = data.get("seed")
        return cls(
            instance=_typed(data["instance"], str, "instance"),
            prime=_typed(data["prime"], int, "prime"),
            params=_typed(data.get("params", {}), dict, "params"),
            k=_typed(data["k"], int, "k"),
            result_expr=_typed(data["result"]["expr"], str, "result.expr"),
            result_level=_typed(data["result"]["level"], int, "result.level"),
            seed=None if seed is None else _typed(seed, int, "seed"),
            **{
                key + "_expr": _typed(data["inputs"][key], str, f"inputs.{key}")
                for key in cls._inputs
            },
            **{name: _typed(data[name], int, name) for name in cls._ints},
        )


class EscapeCertificate(_Certificate):
    """Replayable record that a conjugate of h escapes the level-k stage."""

    __slots__ = ("h_expr", "g_expr", "m")
    type = "escape"
    _inputs = ("h", "g")
    _ints = ("m",)

    def __init__(self, *, h_expr, g_expr, m, **common):
        super().__init__(**common)
        self.h_expr = h_expr
        self.g_expr = g_expr
        self.m = m


class DerivedCertificate(_Certificate):
    """Replayable record of a deep commutator surviving above level k."""

    __slots__ = ("tree_expr", "d")
    type = "derived"
    _inputs = ("tree",)
    _ints = ("d",)

    def __init__(self, *, tree_expr, d, **common):
        super().__init__(**common)
        self.tree_expr = tree_expr
        self.d = d


def escape_witness(sys, h, k, seed=None):
    """Conjugate h above level k by one fresh escape letter.

    m is pushed high enough that h has level at most m and lies outside B_m;
    then g = h_{m+1}(escape_elem(m)) conjugates h out of the level-m stage.
    """
    _check_bounds(k)
    if is_identity(sys, h):
        raise IdentityInput("escape_witness needs a non-identity element")
    m = max(k, h.level)
    if h.level == 0:
        m = max(m, sys.base_escape_level(h.tail))
    g = inject(sys, m + 1, sys.escape_elem(m))
    result = _conjugate(sys, h, g, m)
    return EscapeCertificate(
        **sys.descriptor(),
        h_expr=form_expr_str(sys, h),
        g_expr=form_expr_str(sys, g),
        m=m,
        k=k,
        result_expr=form_expr_str(sys, result),
        result_level=result.level,
        seed=seed,
    )


def _build_tree(sys, j, L):
    """Perfect commutator tree of depth j topped at level L+1, as an AST.

    Leaves are fresh escape letters h_{L+1}(escape_elem(L)); each internal
    node is [deeper, shallower], kept at full level by the
    conjugation-level fact.
    """
    if j == 0:
        return AtomE(L + 1, sys.escape_elem(L))
    return CommE(_build_tree(sys, j - 1, L), _build_tree(sys, j - 1, L - 1))


def derived_escape(sys, d, k, seed=None):
    """A depth-d derived-series element of level above k.

    The tree is topped at level max(k, d) + 1, the least start the recursion
    needs, and evaluated by ``eval_expr``, as ``verify`` replays it.  Each
    leaf level is checked once before evaluation (``inject`` bounds the
    level before any B_L test), and the root's level after it: the
    certificate claims only that the root has level max(k, d) + 1 > k.
    Depths above 8 are refused, since the work grows exponentially with d.
    """
    _check_bounds(k, d)
    top = max(k, d)
    for L in range(top - d, top + 1):
        if inject(sys, L + 1, sys.escape_elem(L)).level != L + 1:
            raise PreconditionViolated(
                f"escape_elem({L}) failed to reach level {L + 1}"
            )
    tree = _build_tree(sys, d, top)
    form = eval_expr(sys, tree)
    if form.level != top + 1:
        raise PreconditionViolated(
            f"commutator dropped to level {form.level}, expected {top + 1}"
        )
    return DerivedCertificate(
        **sys.descriptor(),
        tree_expr=expr_str(sys, tree),
        d=d,
        k=k,
        result_expr=form_expr_str(sys, form),
        result_level=form.level,
        seed=seed,
    )


def _typed(value, kind, name):
    """value, if it has the JSON type the field needs (a bool is no int)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidParams(
            f"malformed certificate: {name} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def certificate_from_json_dict(data):
    """Rebuild a certificate object from its JSON dict form.

    A missing field or one of the wrong JSON type raises ``InvalidParams``.
    """
    _typed(data, dict, "top level")
    try:
        kind = data["type"]
        for cls in (EscapeCertificate, DerivedCertificate):
            if kind == cls.type:
                return cls._from_json_dict(data)
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"malformed certificate: {exc}") from None
    raise InvalidParams(f"unknown certificate type {kind!r}")


def certificate_to_json(cert):
    return json.dumps(cert.to_json_dict(), sort_keys=True, indent=2)


def certificate_from_json(text):
    """Load a certificate; text that is not one raises ``InvalidParams``."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or a number past Python's int-string limit
        raise InvalidParams(f"certificate is not valid JSON: {exc}") from None
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise InvalidParams("malformed certificate: JSON nests too deeply") from None
    return certificate_from_json_dict(data)


def verify(cert):
    """Recompute a certificate from its serialized inputs; True iff it holds.

    Checks run cheapest first; the first to fail returns False: the
    generators' bounds; the claims the fields decide alone (a level above
    k, and m + 1 for an escape); on the built instance, a tree's depth d
    and a claim no higher than its highest atom (g's for an escape), which
    bounds its form's level; then evaluation, ``_conjugate``'s hypotheses,
    the level and the canonical text.  A certificate the package rejects
    (a bound the generators refuse, bad instance, unparsable expression,
    violated precondition) is False; any other exception propagates.
    """
    escape = type(cert) is EscapeCertificate
    level = cert.result_level
    try:
        _check_bounds(cert.k, None if escape else cert.d)
        if level <= cert.k or escape and level != cert.m + 1:
            return False
        sys = make_instance(cert.instance, cert.prime, cert.params)
        if escape:
            g = parse_expr(cert.g_expr, sys)
            if not reaches_level(g, level):
                return False
            h = eval_expr(sys, parse_expr(cert.h_expr, sys))
            # the identity lies in every B_m, so it fails the hypotheses
            result = _conjugate(sys, h, eval_expr(sys, g), cert.m)
        else:
            tree = parse_expr(cert.tree_expr, sys)
            # a perfect commutator tree of depth d with commutator-free leaves
            if tree.depth != cert.d or not reaches_level(tree, level):
                return False
            result = eval_expr(sys, tree)
        return (result.level == level
                and form_expr_str(sys, result) == cert.result_expr)
    except AmalgamError:
        return False
