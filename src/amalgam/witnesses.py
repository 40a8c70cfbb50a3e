"""Constructive escape certificates and batched conjugation-level checks.

The central fact being exercised: for h of level at most m lying outside B_m
and g of level exactly m+1, both g h g^-1 and the commutator [g, h] again have
level exactly m+1, so conjugation by a fresh-level element cannot fall back
into the lower stage.  ``lemma21_check`` verifies one triple,
``lemma21_suite`` samples many, and the two certificate generators iterate
the fact into replayable evidence:

* ``escape_witness``: for any h != id and bound k, a conjugate of h whose
  level exceeds k, showing the normal closure of h sits inside no finite
  stage;
* ``derived_escape``: a depth-d perfect commutator tree evaluating above
  level k, showing d rounds of derived subgroup still contain non-identity
  elements of arbitrarily high level.

Certificates store their inputs as word-expression strings plus the instance
descriptor, nothing else; ``verify`` reconstructs the instance, reparses,
recomputes and rechecks every claimed invariant from that data alone.
"""

import json

from amalgam.errors import (
    IdentityInput,
    InvalidParams,
    PreconditionViolated,
    RetryExhausted,
)
from amalgam.instances import make_instance
from amalgam.normalform import eq, inject, inv, is_identity, level, mul
from amalgam.wordexpr import (
    AtomE,
    CommE,
    eval_expr,
    expr_str,
    form_expr_str,
    parse_expr,
)

_MAX_RETRIES = 3


def _not_in_base(sys, form, m):
    # base values all sit at level 0, so positive level escapes every B_m
    if form.level >= 1:
        return True
    return not sys.in_base(m, form.value)


def _conj_comm(sys, h, g, m):
    """Forms of (g h g^-1, g h g^-1 h^-1) after checking lemma21's hypotheses."""
    if level(h) > m:
        raise PreconditionViolated(
            f"hypothesis level(h) <= m fails: level {level(h)} > {m}"
        )
    if not _not_in_base(sys, h, m):
        raise PreconditionViolated(
            f"hypothesis h not in B_{m} fails: {sys.value_str(h.value)} lies in it"
        )
    if level(g) != m + 1:
        raise PreconditionViolated(
            f"hypothesis level(g) = m+1 fails: level {level(g)} != {m + 1}"
        )
    conj = mul(sys, mul(sys, g, h), inv(sys, g))
    return conj, mul(sys, conj, inv(sys, h))


def lemma21_check(sys, h, g, m):
    """Levels of (g h g^-1, g h g^-1 h^-1); the contract is (m+1, m+1).

    Preconditions mirror the hypotheses that make the fact true: level(h) <= m
    with h outside B_m, and level(g) exactly m+1.
    """
    conj, comm = _conj_comm(sys, h, g, m)
    return level(conj), level(comm)


class Lemma21Report:
    """Outcome of a sampled batch of conjugation-level checks."""

    __slots__ = ("samples", "failures", "seed", "instance")

    def __init__(self, samples, failures, seed, instance):
        self.samples = samples
        self.failures = failures
        self.seed = seed
        self.instance = instance

    def ok(self):
        return self.failures == 0

    def to_json_dict(self):
        return {
            "samples": self.samples,
            "failures": self.failures,
            "seed": self.seed,
            "instance": self.instance,
        }


def _random_form(sys, rng, max_len, max_level):
    from amalgam.normalform import reduce_word

    word = [
        (rng.randint(0, max_level), sys.sample(rng.randint(0, max_level), rng))
        for _ in range(rng.randint(0, max_len))
    ]
    return reduce_word(sys, word)


def sample_lemma21_inputs(sys, rng, max_m=5):
    """A random preconditioned triple (h, g, m).

    h gets a nonbase factor tacked on if the raw sample lands in B_m, and g is
    a random lower-stage element times a fresh level-(m+1) letter, which has
    level exactly m+1 whatever the random part is.
    """
    m = rng.randint(0, max_m)
    h = _random_form(sys, rng, 6, m)
    if not _not_in_base(sys, h, m):
        h = mul(sys, h, inject(sys, m, sys.nonbase_elem(m)))
    w = _random_form(sys, rng, 4, m)
    g = mul(sys, w, inject(sys, m + 1, sys.escape_elem(m)))
    return h, g, m


def lemma21_suite(sys, samples, seed, max_m=5):
    import random

    if sys.max_level is not None:
        max_m = min(max_m, sys.max_level - 1)
    if max_m < 0:
        raise InvalidParams("instance has no level to conjugate into")
    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        h, g, m = sample_lemma21_inputs(sys, rng, max_m)
        lc, lm = lemma21_check(sys, h, g, m)
        if lc != m + 1 or lm != m + 1:
            failures += 1
    return Lemma21Report(samples, failures, seed, sys.descriptor())


class EscapeCertificate:
    """Replayable record that a conjugate of h escapes the level-k stage."""

    __slots__ = ("instance", "prime", "params", "h_expr", "g_expr", "m", "k",
                 "result_expr", "result_level", "seed")

    def __init__(self, instance, prime, params, h_expr, g_expr, m, k,
                 result_expr, result_level, seed=None):
        self.instance = instance
        self.prime = prime
        self.params = params
        self.h_expr = h_expr
        self.g_expr = g_expr
        self.m = m
        self.k = k
        self.result_expr = result_expr
        self.result_level = result_level
        self.seed = seed

    def to_json_dict(self):
        return {
            "type": "escape",
            "instance": self.instance,
            "prime": self.prime,
            "params": self.params,
            "inputs": {"h": self.h_expr, "g": self.g_expr},
            "m": self.m,
            "k": self.k,
            "result": {"expr": self.result_expr, "level": self.result_level},
            "seed": self.seed,
        }


class DerivedCertificate:
    """Replayable record of a deep commutator surviving above level k."""

    __slots__ = ("instance", "prime", "params", "tree_expr", "d", "k",
                 "result_expr", "result_level", "seed")

    def __init__(self, instance, prime, params, tree_expr, d, k,
                 result_expr, result_level, seed=None):
        self.instance = instance
        self.prime = prime
        self.params = params
        self.tree_expr = tree_expr
        self.d = d
        self.k = k
        self.result_expr = result_expr
        self.result_level = result_level
        self.seed = seed

    def to_json_dict(self):
        return {
            "type": "derived",
            "instance": self.instance,
            "prime": self.prime,
            "params": self.params,
            "inputs": {"tree": self.tree_expr},
            "d": self.d,
            "k": self.k,
            "result": {"expr": self.result_expr, "level": self.result_level},
            "seed": self.seed,
        }


def escape_witness(sys, h, k, seed=None):
    """Conjugate h above level k by one fresh escape letter.

    m is pushed high enough that h has level at most m and lies outside B_m;
    then g = h_{m+1}(escape_elem(m)) conjugates h out of the level-m stage.
    """
    if k < 0:
        raise InvalidParams(f"escape_witness needs a bound k >= 0, got {k}")
    if is_identity(sys, h):
        raise IdentityInput("escape_witness needs a non-identity element")
    m = max(k, level(h))
    if level(h) == 0:
        m = max(m, sys.base_escape_level(h.value))
    g = inject(sys, m + 1, sys.escape_elem(m))
    result, _ = _conj_comm(sys, h, g, m)
    desc = sys.descriptor()
    return EscapeCertificate(
        instance=desc["instance"],
        prime=desc["prime"],
        params=desc["params"],
        h_expr=form_expr_str(sys, h),
        g_expr=form_expr_str(sys, g),
        m=m,
        k=k,
        result_expr=form_expr_str(sys, result),
        result_level=level(result),
        seed=seed,
    )


def _build_tree(sys, j, L):
    """Perfect commutator tree of depth j topped at level L+1.

    Returns (expr, form).  Leaves are fresh escape letters; each internal node
    is [deeper, shallower], kept at full level by the conjugation-level fact.
    """
    if j == 0:
        x = sys.escape_elem(L)
        form = inject(sys, L + 1, x)
        if level(form) != L + 1:
            raise PreconditionViolated(
                f"escape_elem({L}) failed to reach level {L + 1}"
            )
        return AtomE(L + 1, x), form
    left_expr, left_form = _build_tree(sys, j - 1, L)
    right_expr, right_form = _build_tree(sys, j - 1, L - 1)
    _, form = _conj_comm(sys, right_form, left_form, L)
    if level(form) != L + 1:
        raise PreconditionViolated(
            f"commutator dropped to level {level(form)}, expected {L + 1}"
        )
    return CommE(left_expr, right_expr), form


def derived_escape(sys, d, k, seed=None):
    """A depth-d derived-series element of level above k.

    The recursion needs a start level of at least max(k, d); retries with a
    higher start are kept for the contract's sake but a conforming instance
    never triggers them.
    """
    if d < 0 or k < 0:
        raise InvalidParams(f"derived_escape needs d >= 0 and k >= 0, got {d}, {k}")
    retries = 0
    while True:
        L = max(k, d) + retries
        try:
            tree_expr, form = _build_tree(sys, d, L)
            break
        except PreconditionViolated:
            retries += 1
            if retries > _MAX_RETRIES:
                raise RetryExhausted(
                    f"derived_escape failed after {retries - 1} retries; "
                    "the factor system violates its contract"
                ) from None
    assert level(form) == L + 1 > k
    desc = sys.descriptor()
    return DerivedCertificate(
        instance=desc["instance"],
        prime=desc["prime"],
        params=desc["params"],
        tree_expr=expr_str(sys, tree_expr),
        d=d,
        k=k,
        result_expr=form_expr_str(sys, form),
        result_level=level(form),
        seed=seed,
    )


def certificate_from_json_dict(data):
    """Rebuild a certificate object from its JSON dict form."""
    try:
        kind = data["type"]
        common = dict(
            instance=data["instance"],
            prime=data["prime"],
            params=data.get("params", {}),
            k=data["k"],
            result_expr=data["result"]["expr"],
            result_level=data["result"]["level"],
            seed=data.get("seed"),
        )
        if kind == "escape":
            return EscapeCertificate(
                h_expr=data["inputs"]["h"],
                g_expr=data["inputs"]["g"],
                m=data["m"],
                **common,
            )
        if kind == "derived":
            return DerivedCertificate(
                tree_expr=data["inputs"]["tree"],
                d=data["d"],
                **common,
            )
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"malformed certificate: {exc}") from None
    raise InvalidParams(f"unknown certificate type {kind!r}")


def certificate_to_json(cert):
    return json.dumps(cert.to_json_dict(), sort_keys=True, indent=2)


def certificate_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"certificate is not valid JSON: {exc}") from None
    return certificate_from_json_dict(data)


def _tree_depth(e):
    """Depth of a perfect commutator tree; None if the shape is wrong."""
    if type(e) is CommE:
        dl = _tree_depth(e.a)
        dr = _tree_depth(e.b)
        if dl is None or dr is None or dl != dr:
            return None
        return dl + 1
    # a leaf must be commutator-free
    if _contains_comm(e):
        return None
    return 0


def _contains_comm(e):
    t = type(e)
    if t is CommE:
        return True
    if t is AtomE:
        return False
    if hasattr(e, "child"):
        return _contains_comm(e.child)
    return any(_contains_comm(c) for c in e.terms)


def verify(cert):
    """Recompute a certificate from its serialized inputs; True iff it holds."""
    try:
        sys = make_instance(cert.instance, cert.prime, cert.params)
        claimed = eval_expr(sys, parse_expr(cert.result_expr, sys))
        if level(claimed) != cert.result_level:
            return False
        if type(cert) is EscapeCertificate:
            h = eval_expr(sys, parse_expr(cert.h_expr, sys))
            g = eval_expr(sys, parse_expr(cert.g_expr, sys))
            if is_identity(sys, h):
                return False
            if level(h) > cert.m or not _not_in_base(sys, h, cert.m):
                return False
            if level(g) != cert.m + 1:
                return False
            result = mul(sys, mul(sys, g, h), inv(sys, g))
            if not eq(sys, result, claimed):
                return False
            return level(result) == cert.m + 1 > cert.k
        if type(cert) is DerivedCertificate:
            tree = parse_expr(cert.tree_expr, sys)
            if _tree_depth(tree) != cert.d:
                return False
            result = eval_expr(sys, tree)
            if is_identity(sys, result):
                return False
            if not eq(sys, result, claimed):
                return False
            return level(result) > cert.k
        return False
    except Exception:
        return False
