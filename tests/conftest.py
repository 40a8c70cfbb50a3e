"""Shared fixtures."""

import os
import sys

import pytest

import amalgam


@pytest.fixture
def cli_env():
    """Environment for a ``python -m amalgam.cli`` child process.

    Only PATH and AMALGAM_FIXED_ELAPSED=1 are kept from a scrubbed slate, so
    no variable of the caller's environment reaches the child.  PYTHONPATH
    names the directory holding the ``amalgam`` package this process
    imported, so the child runs the same code whether the suite runs from
    ``src`` or against an installed copy.  PYTHONDONTWRITEBYTECODE=1 is
    passed on when this interpreter writes no bytecode, so that a suite run
    without bytecode caches gets none written by its children either.
    """
    package_dir = os.path.dirname(os.path.abspath(amalgam.__file__))
    env = {
        "PATH": "/usr/bin:/bin",
        "AMALGAM_FIXED_ELAPSED": "1",
        "PYTHONPATH": os.path.dirname(package_dir),
    }
    if sys.flags.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@pytest.fixture
def int_digit_limit():
    """Python's default int-string limit, whatever the interpreter's setting."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
