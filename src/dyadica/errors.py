"""Exception taxonomy: one class per role.

``ConfigError`` is malformed scenario input, ``BadParams`` a malformed
library argument, and ``CheckFailed`` an instance that breaks a stated
property or hypothesis, named by its ``check``. Every error carries a
replayable ``witness`` dict (point ids, cube keys, offending values) so the
failure can be reproduced outside the library.
"""

from __future__ import annotations


class DyadicaError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str = "", **witness):
        self.witness = witness
        if witness:
            items = ", ".join(f"{k}={v!r}" for k, v in witness.items())
            message = f"{message} [{items}]" if message else items
        super().__init__(message)


class ConfigError(DyadicaError):
    """Malformed scenario/space/kernel input; messages are path-qualified."""


class BadParams(DyadicaError):
    """A malformed library argument: an exponent, index, table or kind."""


class CheckFailed(DyadicaError):
    """The instance breaks the stated property or hypothesis ``check``."""

    def __init__(self, check: str, message: str = "", **witness):
        self.check = check
        super().__init__(message, **witness)
