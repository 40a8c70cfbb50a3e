"""The backend stub the benchmark's metadata reads."""

from amalgam import _kernels as K


def test_selector_exposes_active_backend():
    assert K.BACKEND in ("py", "cy")
