"""Qunity language toolchain: a parser, an elaborator to the core language,
and one evaluator of the core, the reference semantics."""

__version__ = "0.1.0"
