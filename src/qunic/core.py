"""The syntax tree of Qunity, with the core language as its sugar-free subset.

This module is the whole tree: every construct has one node class here, from
the reals and conditions through types, expressions and programs to
definitions and files, and all of them derive from one base, :class:`_Node`.
The parser builds these nodes and the preprocessor elaborates them; the
*core* is what elaboration leaves: the terms with no sugar node in them.
Core types are built from Void, Unit, sums, and products; core expressions
keep only the quantum constructs (unit, variables, pairs, ``ctrl``,
``match``, ``try``, application) and core programs only the primitives
(``u3``, the two sum injections, abstraction, ``rphase``, ``pmatch``), whose
angles are closed reals.  The sugar nodes are type variables, names with
generic arguments (of types, expressions, programs, reals, and variant
constructors), compile-time conditionals (``if .. then .. else .. endif``),
``let`` bindings and ``gphase``; :data:`CoreType`, :data:`CoreExpr` and
:data:`CoreProg` exclude them, :data:`Type`, :data:`Expr`, :data:`Prog` and
:data:`Real` do not.  The sum injections never come from parsed input.
:mod:`qunic.reals` evaluates the reals and conditions.

Patterns are not a separate syntactic class: the expressions to the left of
``->`` in ``ctrl``/``match``/``pmatch`` arms and under ``lambda`` are ordinary
expressions, restricted later by the typechecker.

``ctrl`` and ``match`` nodes may still carry an ``else`` body: expanding it
into concrete arms needs the scrutinee's type, so the typechecker does that
expansion while building the typing derivation.

One printer, :func:`to_str`, renders every node, whole files included, as
single-line syntax that the parser reads back for every term it parsed:
products, ``lambda`` and ``if`` programs always in parentheses, an
application's argument in parentheses of its own (``f((a, b))``), and
arithmetic and conditions with minimal parentheses.  Within one call, the
text of a node with more than one parent is built once and reused at each
later occurrence: a walk without recursion first finds those nodes, and a
dict that lives for the call keeps only their texts, so printing costs the
DAG plus the output rather than the tree.  Hence a node's text must not
depend on where the node appears: the parent decides whether a child's text
goes in parentheses.  A term nested too deeply for the interpreter's stack
raises :class:`~qunic.errors.CapacityError`.

Elaboration memoizes instantiations, so a core term is a DAG whose tree can
be millions of times larger.  Every node class is a slotted frozen dataclass
over :class:`_Node`: its hash is computed on first use and kept, and ``==``
is true on identity, else false on two kept hashes that differ, else decided
by walking pairs of nodes, each ``(id(a), id(b))`` pair once.  Both cost work
in proportion to the DAG, not the tree, and neither recurses.  ``repr``
prints the dataclass form down to a fixed depth and ``...`` below it.  Nodes
are not interned: equal terms built apart stay distinct objects and compare
equal by that walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import CapacityError, RealError


class _Node:
    """Base of every node of the syntax tree.

    Subclasses are ``@dataclass(frozen=True, eq=False, slots=True, repr=False)``,
    so their fields are their slots and the dataclass writes none of
    ``__eq__``, ``__hash__`` and ``__repr__``; the three below apply.
    Elaboration shares subterms, so a term is a DAG whose tree can be millions
    of times larger; ``hash`` and ``==`` cost work in proportion to the DAG,
    and ``repr`` prints the dataclass form only ``_REPR_DEPTH`` nodes deep.

    * ``hash`` is computed on first use and kept in the ``_hash`` slot, which
      is not a dataclass field.  Computing it visits only the nodes below
      whose hash is not kept yet, in an explicit post-order with no recursion.
    * ``==`` is true on identity and false on two kept hashes that differ;
      otherwise it walks pairs of nodes with an explicit stack, visiting each
      ``(id(a), id(b))`` pair once.

    Nodes are not interned: equal nodes built apart stay distinct objects.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _hash_dag(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        try:
            if self._hash != other._hash:
                return False
        except AttributeError:  # a hash not computed yet
            pass
        return _eq_dag(self, other)

    def __repr__(self) -> str:
        return _repr(self, _REPR_DEPTH)


_REPR_DEPTH = 6


def _repr(x: object, depth: int) -> str:
    """The dataclass form of ``x``, with ``...`` for the nodes more than ``depth`` below."""
    if type(x) is tuple:  # a field holding a tuple of arms
        items = ", ".join(_repr(c, depth) for c in x)
        return f"({items},)" if len(x) == 1 else f"({items})"
    if not isinstance(x, _Node):
        try:
            return repr(x)
        except ValueError:  # an int over the interpreter's limit on integer-string conversion
            return f"<an integer of {_digit_count(x)} digits>"
    if depth == 0:
        return "..."
    fields = ", ".join(f"{name}={_repr(getattr(x, name), depth - 1)}" for name in x.__slots__)
    return f"{type(x).__qualname__}({fields})"


def _digit_count(n: int) -> int:
    """The number of decimal digits of ``n``, without converting it to a string."""
    n = abs(n)
    k = int((n.bit_length() - 1) * math.log10(2)) + 1  # the digits of 2^(bits - 1)
    return k + (n >= 10**k)


def _hash_dag(root: _Node) -> int:
    """Keep the hash of ``root`` and of every node below it that has none yet.

    A stack entry ``(node, None)`` asks to visit ``node``; ``(node, values)``
    sits below the entries of its children without a kept hash, and keeps
    the hash of ``node`` once they have theirs.
    """
    stack: list[tuple[_Node, list | None]] = [(root, None)]
    while stack:
        node, values = stack.pop()
        if values is None:
            values = [getattr(node, name) for name in node.__slots__]
            stack.append((node, values))
            waiting = len(stack)
            for v in values:
                if isinstance(v, _Node):
                    if not hasattr(v, "_hash"):
                        stack.append((v, None))
                elif type(v) is tuple:
                    stack += [
                        (c, None) for c in v if isinstance(c, _Node) and not hasattr(c, "_hash")
                    ]
            if len(stack) > waiting:
                continue
            stack.pop()
        object.__setattr__(node, "_hash", hash((type(node), *values)))
    return root._hash


def _eq_dag(a: _Node, b: _Node) -> bool:
    """Walk pairs of nodes of one type, each ``(id(x), id(y))`` pair once."""
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        pair = (id(x), id(y))
        if pair in seen:
            continue
        seen.add(pair)
        for name in x.__slots__:
            u, v = getattr(x, name), getattr(y, name)
            if type(u) is tuple and type(v) is tuple:  # a field holding a tuple of arms
                if len(u) != len(v):
                    return False
                pairs = zip(u, v)
            else:
                pairs = ((u, v),)
            for c, d in pairs:
                if c is d:
                    continue
                if type(c) is not type(d):
                    return False
                if isinstance(c, _Node):
                    stack.append((c, d))
                elif c != d:
                    return False
    return True


# --------------------------------------------------------------------------
# Reals and conditions


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RConst(_Node):
    value: int


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RPi(_Node):
    pass


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class REuler(_Node):
    pass


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RUnary(_Node):
    op: str  # one of UNARY_OPS
    arg: "Real"


UNARY_OPS = (
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "exp", "ln", "log2", "sqrt", "ceil", "floor",
)


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RBinary(_Node):
    op: str
    left: "Real"
    right: "Real"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RName(_Node):
    """Reference to a ``#name`` definition, with generic arguments."""

    name: str
    args: tuple["GenArg", ...] = ()


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RIf(_Node):
    cond: "BoolExpr"
    then: "Real"
    els: "Real"


Real = Union[RConst, RPi, REuler, RUnary, RBinary, RName, RIf]

# How tightly each arithmetic operator binds: ``+ -`` group to the left, then
# ``* / %`` to the left, then ``^`` to the right.  The parser reads by it too.
BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2, "^": 3}


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class BNot(_Node):
    arg: "BoolExpr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class BAnd(_Node):
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class BOr(_Node):
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class BCmp(_Node):
    op: str  # one of = != <= < >= >
    left: Real
    right: Real


BoolExpr = Union[BNot, BAnd, BOr, BCmp]

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

# --------------------------------------------------------------------------
# Definitions and files


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TypeParam(_Node):
    name: str  # without the leading apostrophe


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExprParam(_Node):
    name: str  # without the leading &
    ty: Type


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ProgParam(_Node):
    name: str  # without the leading @
    dom: Type
    cod: Type


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RealParam(_Node):
    name: str  # without the leading #


Param = Union[TypeParam, ExprParam, ProgParam, RealParam]


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class VariantAlt(_Node):
    """One alternative of a variant type.

    ``payload`` is None for a nullary ``&Name`` alternative (its payload is
    Unit) and the declared type for an ``@Name of T`` alternative.
    """

    name: str
    payload: Type | None


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class TypeAliasDef(_Node):
    name: str
    params: tuple[Param, ...]
    body: Type


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class VariantDef(_Node):
    name: str
    params: tuple[Param, ...]
    alts: tuple[VariantAlt, ...]


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ExprDef(_Node):
    name: str
    params: tuple[Param, ...]
    ty: Type
    body: Expr


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class ProgDef(_Node):
    name: str
    params: tuple[Param, ...]
    dom: Type
    cod: Type
    body: Prog


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RealDef(_Node):
    name: str
    params: tuple[Param, ...]
    body: Real


Def = Union[TypeAliasDef, VariantDef, ExprDef, ProgDef, RealDef]


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class QFile(_Node):
    """A sequence of definitions and an optional main expression."""

    defs: tuple[Def, ...]
    main: Expr | None


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
# Printer (used by --dump-core, error messages and whole files)


def to_str(root: _Node) -> str:
    """The text of ``root``, built once for each node reached along two edges or more.

    A constant too long for ``str`` raises :class:`~qunic.errors.RealError`.
    """
    try:
        return _show(root, _shared(root), {})
    except RecursionError:
        raise CapacityError("term nested too deeply to print") from None


core_expr_to_str = to_str  # the name the benchmark calls


def _shared(root: _Node) -> set[int]:
    """The ids of the nodes below ``root`` that the printer reaches along more
    than one edge: a node that two parents hold, or one parent holds twice.

    The walk has no recursion and enters each node once.  A tuple field (the
    arms, the generic arguments, the parameters) is entered once per parent
    that holds it, so its items count an edge for each.
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
                    stack.append(c)
    return shared


_ATOM = 4  # binds tighter than every operator


def _binds(x: _Node) -> int:
    """How tightly ``x`` holds together as an operand: its operator's
    precedence, 0 for a negative constant so that one is never left bare, and
    ``_ATOM`` for the rest.  The parent compares it with what the operand's
    position needs and wraps the operand's text when it falls short."""
    t = type(x)
    if t is RBinary:
        return BIN_PREC[x.op]
    if t is RConst:
        return _ATOM if x.value >= 0 else 0
    if t is BOr:
        return 1
    return 2 if t is BAnd else _ATOM


def _show(x: _Node | tuple[GenArg, ...], shared: set[int], memo: dict[int, str]) -> str:
    """The text of ``x``; ``memo`` keeps the text of each node of ``shared``.

    Checking the memo, dispatching and storing sit in this one body, so each
    level of the term costs one frame.  A parent wraps a child's text in
    parentheses where :func:`_binds` says it must.  The core cases come
    first, then reals and conditions, sugar, and definitions and files.
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
    elif t is RConst:
        try:
            s = str(x.value)
        except ValueError:  # over the interpreter's limit on integer-string conversion
            raise RealError(
                f"a constant of {_digit_count(x.value)} digits is too long to print"
            ) from None
    elif t is RBinary or t is BAnd or t is BOr:  # '^' groups to the right, the others left
        op = x.op if t is RBinary else "&&" if t is BAnd else "||"
        left, right = _show(x.left, shared, memo), _show(x.right, shared, memo)
        prec = _binds(x)
        if _binds(x.left) < prec + (op == "^"):
            left = f"({left})"
        if _binds(x.right) < prec + (op != "^"):
            right = f"({right})"
        s = f"{left} {op} {right}"
    elif t is RPi:
        s = "pi"
    elif t is RUnary:
        s = f"{x.op}({_show(x.arg, shared, memo)})"
    elif t is REuler:
        s = "euler"
    elif t is BCmp:
        s = f"{_show(x.left, shared, memo)} {x.op} {_show(x.right, shared, memo)}"
    elif t is BNot:
        arg = _show(x.arg, shared, memo)
        s = f"!{arg}" if _binds(x.arg) == _ATOM else f"!({arg})"
    elif t is TVar or t is TypeParam:
        s = f"'{x.name}"
    elif t is TName:
        s = f"{x.name}{_show(x.args, shared, memo)}"
    elif t is EName:
        s = f"&{x.name}{_show(x.args, shared, memo)}"
    elif t is PName:
        s = f"@{x.name}{_show(x.args, shared, memo)}"
    elif t is RName:
        s = f"#{x.name}{_show(x.args, shared, memo)}"
    elif t is tuple:  # generic arguments, or a definition's parameters
        parts = []
        for arg in x:
            parts.append(_show(arg, shared, memo))
        s = f"{{{', '.join(parts)}}}" if parts else ""
    elif t is ELet:
        pattern, value = _show(x.pattern, shared, memo), _show(x.value, shared, memo)
        s = f"let {pattern} = {value} in {_show(x.body, shared, memo)}"
    elif t is PGphase:
        s = f"gphase{{{_show(x.phase, shared, memo)}}}"
    elif t is TIf or t is EIf or t is PIf or t is RIf:
        cond, then = _show(x.cond, shared, memo), _show(x.then, shared, memo)
        s = f"if {cond} then {then} else {_show(x.els, shared, memo)} endif"
        if t is PIf:
            s = f"({s})"
    elif t is ExprParam:
        s = f"&{x.name} : {_show(x.ty, shared, memo)}"
    elif t is ProgParam:
        s = f"@{x.name} : {_show(x.dom, shared, memo)} -> {_show(x.cod, shared, memo)}"
    elif t is RealParam:
        s = f"#{x.name}"
    elif t is VariantAlt:
        s = f"&{x.name}" if x.payload is None else f"@{x.name} of {_show(x.payload, shared, memo)}"
    elif t is TypeAliasDef or t is VariantDef:
        if t is VariantDef:
            body = " | ".join([_show(alt, shared, memo) for alt in x.alts])
        else:
            body = _show(x.body, shared, memo)
        s = f"type {x.name}{_show(x.params, shared, memo)} := {body} end"
    elif t is ExprDef:
        head = f"def &{x.name}{_show(x.params, shared, memo)} : {_show(x.ty, shared, memo)}"
        s = f"{head} := {_show(x.body, shared, memo)} end"
    elif t is ProgDef:
        dom, cod = _show(x.dom, shared, memo), _show(x.cod, shared, memo)
        head = f"def @{x.name}{_show(x.params, shared, memo)} : {dom} -> {cod}"
        s = f"{head} := {_show(x.body, shared, memo)} end"
    elif t is RealDef:
        s = f"def #{x.name}{_show(x.params, shared, memo)} := {_show(x.body, shared, memo)} end"
    elif t is QFile:
        chunks = [_show(d, shared, memo) for d in x.defs]
        if x.main is not None:
            chunks.append(_show(x.main, shared, memo))
        s = "\n\n".join(chunks) + "\n"
    else:
        raise TypeError(f"not a node of the syntax tree: {x!r}")
    if key in shared:
        memo[key] = s
    return s
