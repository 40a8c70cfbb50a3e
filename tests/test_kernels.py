"""The kernel module and the name it is reached through."""

import pytest

from amalgam import _kernels as K
from amalgam import _kernels_py as PY


def test_val_of_zero_raises_in_both():
    with pytest.raises(ValueError):
        PY.val(0, 0, 5)


def test_selector_exposes_active_backend():
    assert K.BACKEND in ("py", "cy")
    assert K.add is not None
