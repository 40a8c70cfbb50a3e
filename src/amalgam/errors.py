"""Exception hierarchy shared by all amalgam modules, and the int readers."""

import re
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


def too_long():
    """PreconditionViolated for the ValueError of Python's int-string limit,
    raised by ``int_text`` and each value printer from its one conversion."""
    limit = sys.get_int_max_str_digits()
    return PreconditionViolated(f"number too long: more than {limit} decimal digits")


def int_text(text):
    """``int`` of decimal digits, raising ``too_long()`` past Python's
    int-string limit; printers catch the limit in their own ``try``, at no
    extra call per value."""
    try:
        return int(text)
    except ValueError:
        raise too_long() from None


_DECIMAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def int_literal(text, message):
    """``int`` of a value literal's stripped text: decimal digits past
    Python's int-string limit raise as in ``int_text``, any other text
    ``int`` refuses LiteralError(message()), the message built only then."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        if not _DECIMAL.fullmatch(text):
            raise LiteralError(message()) from None
    # well-formed decimal text is refused only for its length
    return int_text(text)
