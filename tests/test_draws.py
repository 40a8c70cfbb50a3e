"""Every seeded draw in the package goes through ``factors.randint``.

``random.Random.randint`` and ``randrange`` give the same integers for a
seed but cost about twice as much per call, so a sampler that calls them
directly takes the slow path.
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


def test_no_draw_bypasses_factors_randint():
    assert len(SOURCES) > 10
    found = {path.name: slow_draws(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_scan_sees_a_method_draw():
    source = ("def f(rng):\n"
              "    n = randint(rng, 0, 3)\n"
              "    return rng.randint(0, n) + random.Random(n).randrange(4)\n")
    assert slow_draws(source) == [3, 3]
