"""Qunity language toolchain: a parser, an elaborator to the core language,
and two evaluators of the core: a classical one and the reference semantics."""

__version__ = "0.1.0"
