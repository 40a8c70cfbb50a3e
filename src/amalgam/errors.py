"""Exception hierarchy shared by all amalgam modules, and ``int_text``."""

import sys


class AmalgamError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(AmalgamError):
    """Instance construction rejected (bad prime, bad chain, bad sizes)."""


class UnsupportedLevel(AmalgamError):
    """A word references a factor level above the instance's cap."""


class PreconditionViolated(AmalgamError):
    """An operation was called outside its stated hypotheses."""


class IdentityInput(AmalgamError):
    """An operation that needs a non-identity element got the identity."""


class IncompatibleHom(AmalgamError):
    """Levelwise maps disagree on an amalgamated central subgroup."""


class ExprSyntaxError(AmalgamError):
    """Word-expression text failed to parse.

    Carries the 0-based position of the offending character.
    """

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class LiteralError(AmalgamError):
    """A value literal inside an atom is malformed for the instance."""


def int_text(convert, x):
    """convert(x): ``int`` of decimal digits or ``str`` of an int, where
    Python's int-string limit (a ValueError) becomes PreconditionViolated."""
    try:
        return convert(x)
    except ValueError:
        raise PreconditionViolated(
            f"number too long: more than {sys.get_int_max_str_digits()} "
            "decimal digits"
        ) from None
