"""The six Z[1/p] kernels of ``_kernels_py``, under this module's name.

``padic`` (``PAdicRational``'s constructor and operators) and the
instances' ``base_escape_level`` valuations call them.  The dense instance's
group law, inverse, ``in_base`` and ``split`` do not: they compute on the
pairs inline.  ``perfbench`` wraps the functions here and reads
``BACKEND``; the alias can go once the benchmark points those rows at
``padic``.
"""

from amalgam._kernels_py import add, coset_split, in_subgroup, mul, norm, val

BACKEND = "py"
