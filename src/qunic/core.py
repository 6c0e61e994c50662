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

One printer renders every node as single-line syntax (``--dump-core`` and
error messages use it): products always in parentheses, ``lambda`` and an
``if`` program always in parentheses, and an application's argument in
parentheses of its own, so a pair argument prints as ``f((a, b))``.  The
parser reads back everything it prints from parsed input.  Within one call,
the text of a node with more than one parent is built once and reused at each
later occurrence: a walk without recursion first finds those nodes, and a
dict that lives for the call keeps only their texts, so printing costs the
DAG plus the output rather than the tree.  A term nested too deeply for the
interpreter's stack raises :class:`~qunic.errors.CapacityError`.

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
from typing import Union

from .errors import CapacityError
from .reals import CLOSED_REAL_NODES, REAL_NODES, BoolExpr, Real, _Node, bool_to_str, real_to_str

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


# --------------------------------------------------------------------------
# Printer (used by --dump-core and error messages)


def core_type_to_str(t: Type) -> str:
    return _to_str(t)


def core_expr_to_str(e: Expr) -> str:
    return _to_str(e)


def core_prog_to_str(f: Prog) -> str:
    return _to_str(f)


def generic_arg_to_str(arg: GenArg) -> str:
    return _to_str(arg)


def generic_args_to_str(args: tuple[GenArg, ...]) -> str:
    """``{a, b}`` for the arguments ``(a, b)``, and nothing for none."""
    return _to_str(args)


def _to_str(root: GenArg | tuple[GenArg, ...]) -> str:
    """The text of ``root``, built once for each node reached along two edges or more."""
    try:
        return _show(root, _shared(root), {})
    except RecursionError:
        raise CapacityError("term nested too deeply to print") from None


def _shared(root: GenArg | tuple[GenArg, ...]) -> set[int]:
    """The ids of the nodes below ``root`` that the printer reaches along more
    than one edge: a node that two parents hold, or one parent holds twice.

    The walk has no recursion and enters each node once.  A tuple field (the
    arms, the generic arguments) is entered once per parent that holds it, so
    its items count an edge for each; the walk does not enter a real.
    """
    seen: set[int] = set()
    shared: set[int] = set()
    stack: list = [(root,)]
    while stack:
        x = stack.pop()
        for c in x if type(x) is tuple else [getattr(x, name) for name in x.__slots__]:
            if type(c) is tuple:
                stack.append(c)
            elif isinstance(c, _Node):
                key = id(c)
                if key in seen:
                    shared.add(key)
                else:
                    seen.add(key)
                    if not isinstance(c, CLOSED_REAL_NODES):
                        stack.append(c)
    return shared


def _show(x: GenArg | tuple[GenArg, ...], shared: set[int], memo: dict[int, str]) -> str:
    """The text of ``x``; ``memo`` keeps the text of each node of ``shared``.

    Checking the memo, dispatching and storing sit in this one body, so each
    level of the term costs one frame.  The sugar cases follow the core ones.
    """
    key = id(x)
    if key in memo:
        return memo[key]
    t = type(x)
    if t is ExVar:
        s = x.name
    elif t is ExPair:
        s = f"({_show(x.left, shared, memo)}, {_show(x.right, shared, memo)})"
    elif t is ExApp:
        s = f"{_show(x.fn, shared, memo)}({_show(x.arg, shared, memo)})"
    elif t is PrAbs:
        s = f"(lambda {_show(x.pattern, shared, memo)} -> {_show(x.body, shared, memo)})"
    elif t is ExUnit:
        s = "()"
    elif t is PrLeft or t is PrRight:
        left, right = _show(x.left_ty, shared, memo), _show(x.right_ty, shared, memo)
        s = f"{'left' if t is PrLeft else 'right'}{{{left}, {right}}}"
    elif t is PrRphase:
        pattern = _show(x.pattern, shared, memo)
        on, off = _show(x.on_phase, shared, memo), _show(x.off_phase, shared, memo)
        s = f"rphase{{{pattern}, {on}, {off}}}"
    elif t is CoreArm:
        s = f"{_show(x.pattern, shared, memo)} -> {_show(x.body, shared, memo)}"
    elif t is ExCtrl or t is ExMatch or t is PrPmatch:
        if t is PrPmatch:
            head = "pmatch"
        else:
            head = f"{'ctrl' if t is ExCtrl else 'match'} {_show(x.scrutinee, shared, memo)}"
        parts = []
        for arm in x.arms:
            parts.append(_show(arm, shared, memo))
        if t is not PrPmatch and x.else_body is not None:
            parts.append(f"else -> {_show(x.else_body, shared, memo)}")
        s = f"{head} [{'; '.join(parts)}]"
    elif t is ExTry:
        s = f"try {_show(x.attempt, shared, memo)} catch {_show(x.fallback, shared, memo)}"
    elif t is TyUnit:
        s = "Unit"
    elif t is TyVoid:
        s = "Void"
    elif t is TySum or t is TyProd:
        op = "+" if t is TySum else "*"
        s = f"({_show(x.left, shared, memo)} {op} {_show(x.right, shared, memo)})"
    elif t is PrU3:
        theta, phi = _show(x.theta, shared, memo), _show(x.phi, shared, memo)
        s = f"u3{{{theta}, {phi}, {_show(x.lam, shared, memo)}}}"
    elif t in REAL_NODES:
        s = real_to_str(x)
    elif t is TVar:
        s = f"'{x.name}"
    elif t is TName:
        s = f"{x.name}{_show(x.args, shared, memo)}"
    elif t is EName:
        s = f"&{x.name}{_show(x.args, shared, memo)}"
    elif t is PName:
        s = f"@{x.name}{_show(x.args, shared, memo)}"
    elif t is tuple:  # generic arguments
        parts = []
        for arg in x:
            parts.append(_show(arg, shared, memo))
        s = f"{{{', '.join(parts)}}}" if parts else ""
    elif t is ELet:
        pattern, value = _show(x.pattern, shared, memo), _show(x.value, shared, memo)
        s = f"let {pattern} = {value} in {_show(x.body, shared, memo)}"
    elif t is PGphase:
        s = f"gphase{{{_show(x.phase, shared, memo)}}}"
    elif t is TIf or t is EIf or t is PIf:
        then, els = _show(x.then, shared, memo), _show(x.els, shared, memo)
        s = f"if {bool_to_str(x.cond)} then {then} else {els} endif"
        if t is PIf:
            s = f"({s})"
    else:
        raise TypeError(f"not a node of the syntax tree: {x!r}")
    if key in shared:
        memo[key] = s
    return s

