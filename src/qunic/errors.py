"""Exception hierarchy shared across the toolchain.

Every user-facing failure is a subclass of :class:`QunityError` so the CLI can
distinguish "your program is wrong" (exit code 1) from "your program is too
big" (exit code 2) and from genuine internal bugs (ordinary tracebacks).
"""

from __future__ import annotations


class QunityError(Exception):
    """Base class for all errors raised on account of the input program."""


class LocatedError(QunityError):
    """An error at a position in the source text, which its message starts
    with as ``line:column:``."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class LexError(LocatedError):
    """Raised when the source text cannot be tokenized."""


class ParseError(LocatedError):
    """Raised when the token stream does not match the grammar."""


class PreprocessError(QunityError):
    """Raised while elaborating surface syntax into the core language."""


class RealError(QunityError):
    """Raised when a real-valued expression cannot be evaluated."""


class TypeCheckError(QunityError):
    """Raised when a core-language term fails to typecheck.

    ``rule`` names the typing judgment whose side conditions failed, so error
    messages can point at the relevant restriction (orthogonality, erasure,
    variable usage, ...).
    """

    def __init__(self, message: str, rule: str | None = None) -> None:
        super().__init__(message if rule is None else f"[{rule}] {message}")
        self.rule = rule


class CapacityError(QunityError):
    """Raised when a dimension, qubit count, or unrolling budget is exceeded."""


class SemanticsError(QunityError):
    """Raised when the reference semantics meets what it does not define:
    a ``try``, an expression in a pattern that is no pattern, the adjoint of
    a program that erases a variable, or a state that is not one basis value
    where one is read, as a ``ctrl``'s scrutinee or by
    :func:`qunic.semantics.value`."""
