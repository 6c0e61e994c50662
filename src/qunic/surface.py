"""Definitions and files, and their printer.

A file is a sequence of definitions (type aliases, variant types, and
expression, program and real definitions, each with its generic parameters)
and an optional main expression.  The types, expressions, programs and reals
inside them are nodes of the one syntax tree in :mod:`qunic.core` and
:mod:`qunic.reals`, and print with its printer.

``file_to_str`` and friends render canonical single-line syntax; the parser
accepts everything they produce, which is what the round-trip tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import Expr, Prog, Type, core_expr_to_str, core_prog_to_str, core_type_to_str
from .reals import Real, real_to_str

# --------------------------------------------------------------------------
# Definitions and files


@dataclass(frozen=True)
class TypeParam:
    name: str  # without the leading apostrophe


@dataclass(frozen=True)
class ExprParam:
    name: str  # without the leading &
    ty: Type


@dataclass(frozen=True)
class ProgParam:
    name: str  # without the leading @
    dom: Type
    cod: Type


@dataclass(frozen=True)
class RealParam:
    name: str  # without the leading #


Param = Union[TypeParam, ExprParam, ProgParam, RealParam]


@dataclass(frozen=True)
class VariantAlt:
    """One alternative of a variant type.

    ``payload`` is None for a nullary ``&Name`` alternative (its payload is
    Unit) and the declared type for an ``@Name of T`` alternative.
    """

    name: str
    payload: Type | None


@dataclass(frozen=True)
class TypeAliasDef:
    name: str
    params: tuple[Param, ...]
    body: Type


@dataclass(frozen=True)
class VariantDef:
    name: str
    params: tuple[Param, ...]
    alts: tuple[VariantAlt, ...]


@dataclass(frozen=True)
class ExprDef:
    name: str
    params: tuple[Param, ...]
    ty: Type
    body: Expr


@dataclass(frozen=True)
class ProgDef:
    name: str
    params: tuple[Param, ...]
    dom: Type
    cod: Type
    body: Prog


@dataclass(frozen=True)
class RealDef:
    name: str
    params: tuple[Param, ...]
    body: Real


Def = Union[TypeAliasDef, VariantDef, ExprDef, ProgDef, RealDef]


@dataclass(frozen=True)
class QFile:
    defs: tuple[Def, ...]
    main: Expr | None


# --------------------------------------------------------------------------
# Pretty-printer


def param_to_str(p: Param) -> str:
    if isinstance(p, TypeParam):
        return f"'{p.name}"
    if isinstance(p, ExprParam):
        return f"&{p.name} : {core_type_to_str(p.ty)}"
    if isinstance(p, ProgParam):
        return f"@{p.name} : {core_type_to_str(p.dom)} -> {core_type_to_str(p.cod)}"
    if isinstance(p, RealParam):
        return f"#{p.name}"
    raise TypeError(f"not a parameter: {p!r}")


def _sig_to_str(params: tuple[Param, ...]) -> str:
    if not params:
        return ""
    return "{" + ", ".join(param_to_str(p) for p in params) + "}"


def def_to_str(d: Def) -> str:
    if isinstance(d, TypeAliasDef):
        return f"type {d.name}{_sig_to_str(d.params)} := {core_type_to_str(d.body)} end"
    if isinstance(d, VariantDef):
        alts = []
        for alt in d.alts:
            if alt.payload is None:
                alts.append(f"&{alt.name}")
            else:
                alts.append(f"@{alt.name} of {core_type_to_str(alt.payload)}")
        return f"type {d.name}{_sig_to_str(d.params)} := {' | '.join(alts)} end"
    if isinstance(d, ExprDef):
        return (
            f"def &{d.name}{_sig_to_str(d.params)} : {core_type_to_str(d.ty)} := "
            f"{core_expr_to_str(d.body)} end"
        )
    if isinstance(d, ProgDef):
        return (
            f"def @{d.name}{_sig_to_str(d.params)} : {core_type_to_str(d.dom)} -> "
            f"{core_type_to_str(d.cod)} := {core_prog_to_str(d.body)} end"
        )
    if isinstance(d, RealDef):
        return f"def #{d.name}{_sig_to_str(d.params)} := {real_to_str(d.body)} end"
    raise TypeError(f"not a definition: {d!r}")


def file_to_str(qf: QFile) -> str:
    chunks = [def_to_str(d) for d in qf.defs]
    if qf.main is not None:
        chunks.append(core_expr_to_str(qf.main))
    return "\n\n".join(chunks) + "\n"
