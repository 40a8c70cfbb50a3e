"""Every seeded draw in the package is ``random.Random.randint``'s loop.

``factors.randint`` is that loop as a call: k = width.bit_length() bits
from ``getrandbits`` until the draw is below the width.  The per-sample
draws write it out in place, with no call; ``tests/test_factors.py`` pins
their integers and the generator's state to ``randint``'s.  Here a scan of
the sources checks the two other ways a draw could drift:

- ``random.Random.randint`` and ``randrange`` give the same integers for a
  seed but cost about twice as much per call, so a sampler that calls them
  directly takes the slow path;
- every ``getrandbits`` call outside ``randint`` is one of an in-place
  loop's pair: ``r = getrandbits(k)``, then at once
  ``while r >= w: r = getrandbits(k)`` with the same k.
"""

import ast
import pathlib

import amalgam

SOURCES = sorted(pathlib.Path(amalgam.__file__).parent.glob("*.py"))
SLOW = {"randint", "randrange"}


def slow_draws(source):
    """Line numbers of the ``.randint(`` and ``.randrange(`` calls."""
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SLOW]


def is_bits_draw(node):
    """True iff node is a call of ``getrandbits`` or ``x.getrandbits``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return name == "getrandbits"


def stray_bit_draws(source):
    """Line numbers of ``getrandbits`` calls that are not an in-place loop's.

    A loop is ``r = getrandbits(k)`` followed by ``while r >= w:`` whose
    body is only ``r = getrandbits(k)``, the same statement again;
    ``randint``'s own loop is one.
    """
    tree = ast.parse(source)
    looped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        for first, loop in zip(body, body[1:]):
            if not (isinstance(first, ast.Assign) and is_bits_draw(first.value)
                    and isinstance(loop, ast.While) and len(loop.body) == 1):
                continue
            again, test = loop.body[0], loop.test
            if (isinstance(test, ast.Compare)
                    and isinstance(test.ops[0], ast.GtE)
                    and isinstance(test.left, ast.Name)
                    and ast.dump(first.targets[0]) == ast.dump(
                        ast.Name(test.left.id, ast.Store()))
                    and ast.dump(again) == ast.dump(first)):
                looped.update((first.value, again.value))
    return [node.lineno for node in ast.walk(tree)
            if is_bits_draw(node) and node not in looped]


def test_no_draw_bypasses_factors_randint():
    assert len(SOURCES) > 10
    found = {path.name: slow_draws(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_scan_sees_a_method_draw():
    source = ("def f(rng):\n"
              "    n = randint(rng, 0, 3)\n"
              "    return rng.randint(0, n) + random.Random(n).randrange(4)\n")
    assert slow_draws(source) == [3, 3]


def test_every_bit_draw_is_a_rejection_loop():
    found = {path.name: stray_bit_draws(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the loops the samplers, random words and check_instance write out
    draws = sum(path.read_text().count("getrandbits(") for path in SOURCES)
    assert draws >= 20


def test_the_loop_scan_sees_a_changed_retry():
    source = ("def f(rng, w):\n"
              "    getrandbits = rng.getrandbits\n"
              "    r = getrandbits(3)\n"
              "    while r >= w:\n"
              "        r = getrandbits(3)\n"
              "    s = rng.getrandbits(4)\n"
              "    while s >= w:\n"
              "        s = rng.getrandbits(5)\n"
              "    return r + s + rng.getrandbits(2)\n")
    assert stray_bit_draws(source) == [6, 8, 9]
