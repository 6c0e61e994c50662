"""The syntax tree of Qunity, with the core language as its sugar-free subset.

Every construct has one node class here.  The parser builds these nodes and
the preprocessor elaborates them; the *core* is what elaboration leaves: the
terms with no sugar node in them.  Core types are built from Void, Unit,
sums, and products; core expressions keep only the quantum constructs (unit,
variables, pairs, ``ctrl``, ``match``, ``try``, application) and core
programs only the primitives (``u3``, the two sum injections, abstraction,
``rphase``, ``pmatch``).  The sugar nodes are type variables, names with
generic arguments (of types, expressions, programs, and variant
constructors), compile-time conditionals (``if .. then .. else .. endif``),
``let`` bindings and ``gphase``; :data:`CoreType`, :data:`CoreExpr` and
:data:`CoreProg` exclude them, :data:`Type`, :data:`Expr` and :data:`Prog`
do not.  The sum injections never come from parsed input.

Patterns are not a separate syntactic class: the expressions to the left of
``->`` in ``ctrl``/``match``/``pmatch`` arms and under ``lambda`` are ordinary
expressions, restricted later by the typechecker.

``ctrl`` and ``match`` nodes may still carry an ``else`` body: expanding it
into concrete arms needs the scrutinee's type, so the typechecker does that
expansion while building the typing derivation.

This module also fixes the canonical enumeration of a type's basis values —
sums list all ``left`` values before all ``right`` values, products are
ordered lexicographically with the left component major — which everything
downstream (interpreter matrices, circuit encodings, output distributions)
relies on.

One printer renders every node as single-line syntax (``--dump-core`` and
error messages use it): products always in parentheses, ``lambda`` and an
``if`` program always in parentheses, and an application's argument in
parentheses of its own, so a pair argument prints as ``f((a, b))``.  The
parser reads back everything it prints from parsed input.

Elaboration memoizes instantiations, so a core term is a DAG whose tree can
be millions of times larger.  Every node class derives from
:class:`qunic.reals._Node` and is a slotted frozen dataclass: its hash is
computed on first use and kept, and ``==`` is true on identity, else false on
two kept hashes that differ, else decided by walking pairs of nodes, each
``(id(a), id(b))`` pair once.  Both cost work in proportion to the DAG, not
the tree, and neither recurses.  ``repr`` prints the dataclass form down to a
fixed depth and ``...`` below it.  Nodes are not interned: equal terms built
apart stay distinct objects and compare equal by that walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

from .errors import CapacityError
from .reals import BoolExpr, Real, _Node, bool_to_str, real_to_str

DIM_LIMIT = 2**62

# --------------------------------------------------------------------------
# Types


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TyVoid(_Node):
    pass


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TySum(_Node):
    left: "Type"
    right: "Type"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TyUnit(_Node):
    pass


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TyProd(_Node):
    left: "Type"
    right: "Type"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TVar(_Node):
    """A type variable ``'a`` bound by a definition's parameter list."""

    name: str


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TName(_Node):
    """A named type ``T{args}`` — an alias or a variant declaration."""

    name: str
    args: tuple["GenArg", ...] = ()


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TIf(_Node):
    cond: BoolExpr
    then: "Type"
    els: "Type"


CoreType = Union[TyVoid, TyUnit, TySum, TyProd]
Type = Union[CoreType, TVar, TName, TIf]


@lru_cache(maxsize=None)
def dim(t: CoreType) -> int:
    """Dimension of the Hilbert space for ``t``."""
    if isinstance(t, TyVoid):
        return 0
    if isinstance(t, TyUnit):
        return 1
    if isinstance(t, TySum):
        d = dim(t.left) + dim(t.right)
    elif isinstance(t, TyProd):
        d = dim(t.left) * dim(t.right)
    else:
        raise TypeError(f"not a core type: {t!r}")
    if d > DIM_LIMIT:
        raise CapacityError(f"type dimension exceeds {DIM_LIMIT}")
    return d


@lru_cache(maxsize=None)
def qubit_size(t: CoreType) -> int:
    """Number of qubits in the binary encoding of ``t``.

    Void and Unit need none; a sum spends one qubit on the tag and pads the
    shorter branch; a product concatenates.
    """
    if isinstance(t, (TyVoid, TyUnit)):
        return 0
    if isinstance(t, TySum):
        return 1 + max(qubit_size(t.left), qubit_size(t.right))
    if isinstance(t, TyProd):
        return qubit_size(t.left) + qubit_size(t.right)
    raise TypeError(f"not a core type: {t!r}")


# --------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class VUnit:
    pass


@dataclass(frozen=True)
class VLeft:
    value: "Value"


@dataclass(frozen=True)
class VRight:
    value: "Value"


@dataclass(frozen=True)
class VPair:
    left: "Value"
    right: "Value"


Value = Union[VUnit, VLeft, VRight, VPair]


def iter_values(t: CoreType) -> Iterator[Value]:
    if isinstance(t, TyVoid):
        return
    elif isinstance(t, TyUnit):
        yield VUnit()
    elif isinstance(t, TySum):
        for v in iter_values(t.left):
            yield VLeft(v)
        for v in iter_values(t.right):
            yield VRight(v)
    elif isinstance(t, TyProd):
        for l in iter_values(t.left):
            for r in iter_values(t.right):
                yield VPair(l, r)
    else:
        raise TypeError(f"not a core type: {t!r}")


@lru_cache(maxsize=None)
def enumerate_values(t: CoreType) -> tuple[Value, ...]:
    """All basis values of ``t`` in canonical order (index = basis index)."""
    return tuple(iter_values(t))


def value_index(t: CoreType, v: Value) -> int:
    """Position of ``v`` in ``enumerate_values(t)``, computed structurally."""
    if isinstance(t, TyUnit) and isinstance(v, VUnit):
        return 0
    if isinstance(t, TySum):
        if isinstance(v, VLeft):
            return value_index(t.left, v.value)
        if isinstance(v, VRight):
            return dim(t.left) + value_index(t.right, v.value)
    if isinstance(t, TyProd) and isinstance(v, VPair):
        return value_index(t.left, v.left) * dim(t.right) + value_index(t.right, v.right)
    raise ValueError(f"value {v!r} does not inhabit type {core_type_to_str(t)}")


def value_to_str(v: Value) -> str:
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VLeft):
        return f"left {value_to_str(v.value)}"
    if isinstance(v, VRight):
        return f"right {value_to_str(v.value)}"
    if isinstance(v, VPair):
        return f"({value_to_str(v.left)}, {value_to_str(v.right)})"
    raise TypeError(f"not a value: {v!r}")


# --------------------------------------------------------------------------
# Expressions and programs


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExUnit(_Node):
    pass


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExVar(_Node):
    name: str


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExPair(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class CoreArm(_Node):
    pattern: "Expr"
    body: "Expr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExCtrl(_Node):
    scrutinee: "Expr"
    arms: tuple[CoreArm, ...]
    else_body: "Expr | None" = None


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExMatch(_Node):
    scrutinee: "Expr"
    arms: tuple[CoreArm, ...]
    else_body: "Expr | None" = None


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExTry(_Node):
    attempt: "Expr"
    fallback: "Expr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExApp(_Node):
    fn: "Prog"
    arg: "Expr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ELet(_Node):
    pattern: "Expr"
    value: "Expr"
    body: "Expr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class EName(_Node):
    """Reference to an ``&name`` definition or nullary variant constructor."""

    name: str
    args: tuple["GenArg", ...] = ()


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class EIf(_Node):
    cond: BoolExpr
    then: "Expr"
    els: "Expr"


CoreExpr = Union[ExUnit, ExVar, ExPair, ExCtrl, ExMatch, ExTry, ExApp]
Expr = Union[CoreExpr, ELet, EName, EIf]


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PrU3(_Node):
    theta: Real
    phi: Real
    lam: Real


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PrLeft(_Node):
    left_ty: CoreType
    right_ty: CoreType


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PrRight(_Node):
    left_ty: CoreType
    right_ty: CoreType


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PrAbs(_Node):
    pattern: Expr
    body: Expr


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PrRphase(_Node):
    """``rphase{e, r, r'}``: phase ``e^(i r)`` on the image of the pattern
    ``e``, phase ``e^(i r')`` on its orthogonal complement."""

    pattern: Expr
    on_phase: Real
    off_phase: Real


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PrPmatch(_Node):
    arms: tuple[CoreArm, ...]


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PGphase(_Node):
    phase: Real


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PName(_Node):
    """Reference to an ``@name`` definition or payload variant constructor."""

    name: str
    args: tuple["GenArg", ...] = ()


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PIf(_Node):
    cond: BoolExpr
    then: "Prog"
    els: "Prog"


CoreProg = Union[PrU3, PrLeft, PrRight, PrAbs, PrRphase, PrPmatch]
Prog = Union[CoreProg, PGphase, PName, PIf]

GenArg = Union[Type, Expr, Prog, Real]

_TYPE_NODES = (TyVoid, TyUnit, TySum, TyProd, TVar, TName, TIf)
_EXPR_NODES = (ExUnit, ExVar, ExPair, ExCtrl, ExMatch, ExTry, ExApp, ELet, EName, EIf)
_PROG_NODES = (PrU3, PrLeft, PrRight, PrAbs, PrRphase, PrPmatch, PGphase, PName, PIf)

# --------------------------------------------------------------------------
# Syntactic predicates


def free_qvars(e: CoreExpr) -> frozenset[str]:
    if isinstance(e, ExUnit):
        return frozenset()
    if isinstance(e, ExVar):
        return frozenset((e.name,))
    if isinstance(e, ExPair):
        return free_qvars(e.left) | free_qvars(e.right)
    if isinstance(e, (ExCtrl, ExMatch)):
        out = free_qvars(e.scrutinee)
        for arm in e.arms:
            out |= free_qvars(arm.body) - free_qvars(arm.pattern)
        if e.else_body is not None:
            out |= free_qvars(e.else_body)
        return out
    if isinstance(e, ExTry):
        return free_qvars(e.attempt) | free_qvars(e.fallback)
    if isinstance(e, ExApp):
        return free_qvars(e.arg)  # programs are closed
    raise TypeError(f"not a core expression: {e!r}")


def is_classical(e: CoreExpr) -> bool:
    """True when ``e`` contains no ``u3`` and no ``rphase``, anywhere."""
    if isinstance(e, (ExUnit, ExVar)):
        return True
    if isinstance(e, ExPair):
        return is_classical(e.left) and is_classical(e.right)
    if isinstance(e, (ExCtrl, ExMatch)):
        return (
            is_classical(e.scrutinee)
            and all(is_classical(a.pattern) and is_classical(a.body) for a in e.arms)
            and (e.else_body is None or is_classical(e.else_body))
        )
    if isinstance(e, ExTry):
        return is_classical(e.attempt) and is_classical(e.fallback)
    if isinstance(e, ExApp):
        return _prog_classical(e.fn) and is_classical(e.arg)
    raise TypeError(f"not a core expression: {e!r}")


def _prog_classical(f: CoreProg) -> bool:
    if isinstance(f, (PrU3, PrRphase)):
        return False
    if isinstance(f, (PrLeft, PrRight)):
        return True
    if isinstance(f, PrAbs):
        return is_classical(f.pattern) and is_classical(f.body)
    if isinstance(f, PrPmatch):
        return all(is_classical(a.pattern) and is_classical(a.body) for a in f.arms)
    raise TypeError(f"not a core program: {f!r}")


# --------------------------------------------------------------------------
# Printers (used by --dump-core and error messages)


def generic_arg_to_str(arg: GenArg) -> str:
    if isinstance(arg, _TYPE_NODES):
        return core_type_to_str(arg)
    if isinstance(arg, _EXPR_NODES):
        return core_expr_to_str(arg)
    if isinstance(arg, _PROG_NODES):
        return core_prog_to_str(arg)
    return real_to_str(arg)


def generic_args_to_str(args: tuple[GenArg, ...]) -> str:
    if not args:
        return ""
    return "{" + ", ".join(generic_arg_to_str(a) for a in args) + "}"


def core_type_to_str(t: Type) -> str:
    if isinstance(t, TyVoid):
        return "Void"
    if isinstance(t, TyUnit):
        return "Unit"
    if isinstance(t, TySum):
        return f"({core_type_to_str(t.left)} + {core_type_to_str(t.right)})"
    if isinstance(t, TyProd):
        return f"({core_type_to_str(t.left)} * {core_type_to_str(t.right)})"
    if isinstance(t, TVar):
        return f"'{t.name}"
    if isinstance(t, TName):
        return f"{t.name}{generic_args_to_str(t.args)}"
    if isinstance(t, TIf):
        then, els = core_type_to_str(t.then), core_type_to_str(t.els)
        return f"if {bool_to_str(t.cond)} then {then} else {els} endif"
    raise TypeError(f"not a core type: {t!r}")


def _core_arms_to_str(arms: tuple[CoreArm, ...], else_body: Expr | None) -> str:
    parts = [f"{core_expr_to_str(a.pattern)} -> {core_expr_to_str(a.body)}" for a in arms]
    if else_body is not None:
        parts.append(f"else -> {core_expr_to_str(else_body)}")
    return "[" + "; ".join(parts) + "]"


def core_expr_to_str(e: Expr) -> str:
    if isinstance(e, ExUnit):
        return "()"
    if isinstance(e, ExVar):
        return e.name
    if isinstance(e, ExPair):
        return f"({core_expr_to_str(e.left)}, {core_expr_to_str(e.right)})"
    if isinstance(e, ExCtrl):
        return f"ctrl {core_expr_to_str(e.scrutinee)} {_core_arms_to_str(e.arms, e.else_body)}"
    if isinstance(e, ExMatch):
        return f"match {core_expr_to_str(e.scrutinee)} {_core_arms_to_str(e.arms, e.else_body)}"
    if isinstance(e, ExTry):
        return f"try {core_expr_to_str(e.attempt)} catch {core_expr_to_str(e.fallback)}"
    if isinstance(e, ExApp):
        return f"{core_prog_to_str(e.fn)}({core_expr_to_str(e.arg)})"
    if isinstance(e, ELet):
        pattern, value = core_expr_to_str(e.pattern), core_expr_to_str(e.value)
        return f"let {pattern} = {value} in {core_expr_to_str(e.body)}"
    if isinstance(e, EName):
        return f"&{e.name}{generic_args_to_str(e.args)}"
    if isinstance(e, EIf):
        then, els = core_expr_to_str(e.then), core_expr_to_str(e.els)
        return f"if {bool_to_str(e.cond)} then {then} else {els} endif"
    raise TypeError(f"not a core expression: {e!r}")


def core_prog_to_str(f: Prog) -> str:
    if isinstance(f, PrU3):
        return f"u3{{{real_to_str(f.theta)}, {real_to_str(f.phi)}, {real_to_str(f.lam)}}}"
    if isinstance(f, PrLeft):
        return f"left{{{core_type_to_str(f.left_ty)}, {core_type_to_str(f.right_ty)}}}"
    if isinstance(f, PrRight):
        return f"right{{{core_type_to_str(f.left_ty)}, {core_type_to_str(f.right_ty)}}}"
    if isinstance(f, PrAbs):
        return f"(lambda {core_expr_to_str(f.pattern)} -> {core_expr_to_str(f.body)})"
    if isinstance(f, PrRphase):
        return (
            f"rphase{{{core_expr_to_str(f.pattern)}, "
            f"{real_to_str(f.on_phase)}, {real_to_str(f.off_phase)}}}"
        )
    if isinstance(f, PrPmatch):
        return f"pmatch {_core_arms_to_str(f.arms, None)}"
    if isinstance(f, PGphase):
        return f"gphase{{{real_to_str(f.phase)}}}"
    if isinstance(f, PName):
        return f"@{f.name}{generic_args_to_str(f.args)}"
    if isinstance(f, PIf):
        then, els = core_prog_to_str(f.then), core_prog_to_str(f.els)
        return f"(if {bool_to_str(f.cond)} then {then} else {els} endif)"
    raise TypeError(f"not a core program: {f!r}")
