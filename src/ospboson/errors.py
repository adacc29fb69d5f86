"""Shared error taxonomy.

Four failure classes are distinguished so callers can tell them apart
without string matching.  The CLI does not map them to exit codes: a suite
that raises any exception is reported as crashed (exit 3), and usage errors
(exit 2) are the CLI's own UsageError.
"""


class StructuralError(ValueError):
    """Ill-formed input: mismatched series orders, wrong slot counts, bad factor kinds."""


class DomainError(ValueError):
    """Parameter outside the documented domain (|q| >= 1, eta <= 0, ...)."""


class UnsupportedError(ValueError):
    """Well-formed input the implementation deliberately does not handle."""


class PoleError(ArithmeticError):
    """Evaluation point hit (or came too close to) a pole or theta zero.

    The offending factor is kept so reports can identify it.
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor
