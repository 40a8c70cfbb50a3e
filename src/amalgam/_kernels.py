"""The six Z[1/p] kernels of ``_kernels_py``, under this module's name.

``perfbench`` wraps the functions here and reads ``BACKEND``; the alias can go
once the benchmark points those rows at ``padic``.
"""

from amalgam._kernels_py import add, coset_split, in_subgroup, mul, norm, val

BACKEND = "py"
