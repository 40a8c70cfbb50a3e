"""Time one cold set-up: imports, instance and ``standard_hom`` construction.

Run in a fresh interpreter by ``run.py``:

    python3 perfbench/setup_probe.py '[["dense", "dense", 5, {}], ...]'

and prints the seconds from the first line of this script until every listed
instance and its standard homomorphism exist.  Interpreter start-up itself is
not included.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import amalgam.cli  # noqa: E402,F401
import amalgam.oracle  # noqa: E402,F401
from amalgam.homs import standard_hom  # noqa: E402
from amalgam.instances import make_instance  # noqa: E402

for _name, kind, p, params in json.loads(sys.argv[1]):
    standard_hom(make_instance(kind, p, params))

print(repr(time.perf_counter() - t0))
