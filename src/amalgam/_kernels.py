"""The arithmetic backend's name, which perfbench's metadata reads.

No package module imports this one: Z[1/p] arithmetic lives in ``padic``
and ``instances.DenseInstance``.
"""

BACKEND = "py"
