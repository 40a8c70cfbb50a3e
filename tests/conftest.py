"""Shared fixtures."""

import os

import pytest

import amalgam


@pytest.fixture
def cli_env():
    """Environment for a ``python -m amalgam.cli`` child process.

    Only PATH and AMALGAM_FIXED_ELAPSED=1 are kept from a scrubbed slate, so
    no variable of the caller's environment reaches the child.  PYTHONPATH
    names the directory holding the ``amalgam`` package this process
    imported, so the child runs the same code whether the suite runs from
    ``src`` or against an installed copy.
    """
    package_dir = os.path.dirname(os.path.abspath(amalgam.__file__))
    return {
        "PATH": "/usr/bin:/bin",
        "AMALGAM_FIXED_ELAPSED": "1",
        "PYTHONPATH": os.path.dirname(package_dir),
    }
