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


@pytest.fixture
def count_calls():
    """``count(func, thunk)``: thunk's value and the calls it makes to func.

    Calls are counted with ``sys.setprofile`` by the function's code
    object, so a call through any name or bound method counts; the profile
    is removed when thunk returns or raises.
    """
    def count(func, thunk):
        code, calls = func.__code__, [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls[0] += 1

        sys.setprofile(profile)
        try:
            value = thunk()
        finally:
            sys.setprofile(None)
        return value, calls[0]

    return count


@pytest.fixture
def count_package_calls():
    """``count(thunk)``: thunk's value and the calls it makes into amalgam.

    Every Python function whose code lies under the ``amalgam`` package
    counts, through ``sys.setprofile`` as ``count_calls`` does; calls into
    the standard library and C functions do not.  Interpreters from 3.12
    on inline list comprehensions, so they count fewer calls than 3.10 and
    3.11 for the same work.
    """
    # as the code filenames spell it: both come from the import's path
    package_dir = os.path.dirname(amalgam.__file__) + os.sep

    def count(thunk):
        calls = [0]

        def profile(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename.startswith(package_dir)):
                calls[0] += 1

        sys.setprofile(profile)
        try:
            value = thunk()
        finally:
            sys.setprofile(None)
        return value, calls[0]

    return count
