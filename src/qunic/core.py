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
angles are closed reals.  An exact angle ``a + b*pi`` is one leaf,
:class:`RExact`, which the passes read as a value and the printer writes as
the tree that spells it; an inexact one (a float such as ``sin(1)``) keeps
its tree, whose exact parts are leaves.  The parser never builds a leaf.
The sugar nodes are type variables, names with generic arguments (of types,
expressions, programs, reals, and variant constructors) and compile-time
conditionals (``if .. then .. else .. endif``), the three that need
compile-time values; :data:`CoreType`, :data:`CoreExpr` and :data:`CoreProg`
exclude them, :data:`Type`, :data:`Expr`, :data:`Prog` and :data:`Real` do
not.  ``let`` and ``gphase`` have no class: the parser reads them as their
core forms.  The sum injections never come from parsed input.
:mod:`qunic.reals` evaluates the reals and conditions.

Types, expressions, programs and reals are the four *sorts*, ``"t"``,
``"e"``, ``"f"`` and ``"r"``.  A name and a conditional have the same fields
in every sort, so each is one class, :class:`Name` and :class:`If`, that
carries its sort in a field.  So do a generic parameter and a definition,
:class:`Param` and :class:`Def`, whose declared signature is one field,
``sig``; but a ``sort`` there is the sort of what they declare, and they have
none themselves.  Every other class has one sort or none.  :func:`sort_of` is
the one reader of a node's sort, and this module the one place that maps a
class to its sort.

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
arithmetic and conditions with minimal parentheses.  It is a writer: it
appends pieces of text to one list and joins that list once, at the end.  It
finds the shared nodes as it writes: it remembers where the pieces of each
node's text start and end in the list, in a dict that lives for the call.
The second time a node is reached, that slice is joined once, the string
kept in its place in the dict and appended, and every later occurrence
appends the kept string.  So printing visits each distinct node once,
copies each shared text once per reference to it and joins the output once;
a printer that returned each node's text with its children's inside would
copy every character once per ancestor.  Hence a node's text must not
depend on where the node appears: the parent decides whether a child's text
goes in parentheses, and writes them.  A term nested too deeply for the
interpreter's stack raises :class:`~qunic.errors.CapacityError`, and so does
a text longer than ``TEXT_CHARS``, before it builds a much longer string:
the tree of a DAG can be far larger than memory.

Elaboration memoizes instantiations, so a core term is a DAG whose tree can
be millions of times larger.  Every node class is a slotted dataclass made by
:func:`_node`, with one generated ``__init__``, and is frozen by
:class:`_Node`, which refuses every assignment and deletion; nothing copies
or pickles a node.  A node keeps no hash: ``hash`` is a :func:`fold` over
the DAG on every call, and ``==`` is true on identity, else decided by
walking pairs of nodes, each ``(id(a), id(b))`` pair once.  Both cost work in
proportion to the DAG, not the tree, and neither recurses.  No compile
hashes or compares a node: the elaborator interns, so within a compile
identity is equality, and only the tests and the benchmark's checks call
them.  ``repr`` prints the dataclass
form down to a fixed depth and ``...`` below it.

Nodes are built two ways, to the same object graph.  The parser,
:func:`adjoint` and tests call a class's ``__init__``.  The elaborator
interns every node it builds, once per compile: each site calls the class's
interning step, ``cls._intern(elaborator._nodes, a, b, c)``
(:func:`_intern_step`, made by :func:`_node` beside the ``__init__``), which
looks the fields up in the compile's table and, on a miss, makes the node
with ``object.__new__`` and its slots' descriptors.  So
the core of one compile has one object per distinct node and ``==`` within
it is true on identity.  The parser does not intern, and separate compiles
share nothing: equal terms built apart stay distinct objects and compare
equal by the walk.

A pass that computes a node's value from its :func:`children`' values is a
:func:`fold`, the one post-order loop: no recursion, each distinct node once.
:func:`node_counts` (distinct nodes and tree nodes), :func:`free_qvars`,
``hash`` and the evaluator of reals (:func:`qunic.reals.evaluate_real`) are
folds.

:func:`adjoint` is the one rule for ``f^dagger``, which every pass runs
where a pattern applies ``f``; it is built once per program node and kept
on it.  Its pattern holds a ``ctrl`` where ``f``'s body does: what such a
``ctrl``'s arms bind is :func:`ctrl_arms`, and what an arm's pattern binds
that its body does not use, :func:`erased`.  These structural rules are
every pass's; each pass searches for values by its own.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from fractions import Fraction
from typing import Union, get_args

from .errors import CapacityError, RealError


class _Node:
    """Base of every node of the syntax tree.

    Subclasses are made by :func:`_node`: slotted dataclasses whose fields are
    their slots, with one generated ``__init__``, an interning step
    ``_intern`` (:func:`_intern_step`), and none of the dataclass's
    ``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__`` and
    ``__delattr__``; the five below apply.  Nodes are frozen here, once for
    every class: assigning or deleting any attribute raises
    :class:`dataclasses.FrozenInstanceError`.  Only a node's builder writes
    its fields, ``__init__`` through ``object.__setattr__`` and ``_intern``
    through the slots' descriptors, and a pass writes only the kept
    ``_derived`` slot below, through ``object.__setattr__``.  Nothing copies
    or pickles a node, so no class has ``__getstate__``/``__setstate__``.
    Elaboration shares subterms, so a term is a DAG whose tree can be millions
    of times larger; ``hash`` and ``==`` cost work in proportion to the DAG,
    and ``repr`` prints the dataclass form only ``_REPR_DEPTH`` nodes deep.

    * ``hash`` is a :func:`fold` that hashes each node's class, its fields
      that hold no node, and its children's hashes, on every call: no node
      keeps its hash.
    * ``==`` is true on identity; otherwise it walks pairs of nodes with an
      explicit stack, visiting each ``(id(a), id(b))`` pair once.
    * The ``_derived`` slot, no dataclass field and outside ``hash`` and
      ``==``, keeps what a pass derives from the node alone, on the pass's
      first need: a program's :func:`adjoint`, on a ``ctrl`` met in a
      pattern its :func:`ctrl_arms` (:func:`erased` is not kept: a pass
      memoizes it if it needs to, as S does per arm), on an integer
      expression the state of its kernel (see
      :meth:`qunic.preprocess.Elaborator.elab`), or, on a name with generic
      arguments, the state of its call-site cache, which derives from the
      node and the process's prelude table (see
      :meth:`qunic.preprocess.Elaborator._named`).

    This class does not intern: equal nodes built apart are distinct objects,
    equal by the walk.  The elaborator interns what it builds, so within one
    compile equal nodes are one object.
    """

    __slots__ = ("_derived",)

    def __hash__(self) -> int:
        return fold(self, _hash_of)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _eq_dag(self, other)

    def __repr__(self) -> str:
        return _repr(self, _REPR_DEPTH)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls: type) -> type:
    """``cls`` as a slotted dataclass with one generated ``__init__`` and,
    for a class of at most three fields, one interning step, ``_intern``.

    ``dataclass`` writes no method here; the ``__init__`` takes the fields
    in order, with their defaults, and sets each through
    ``object.__setattr__``, as :class:`_Node` forbids assignment.
    """
    cls = dataclass(init=False, eq=False, repr=False, slots=True)(cls)
    names = cls.__slots__
    body = "".join(f"\n _set(self, {n!r}, {n})" for n in names) or "\n pass"
    scope: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):{body}", {"_set": object.__setattr__}, scope)
    init = scope["__init__"]
    init.__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    if len(names) <= 3:
        cls._intern = _intern_step(cls)
    return cls


def _intern_step(cls: type) -> Callable:
    """The interning step of ``cls``: ``step(nodes, a, b, c)`` is the one node
    of ``cls`` with the fields ``a``, ``b``, ``c`` (as many as it has) in the
    table ``nodes``, built on a miss.

    The key is the class and the id of each field: a node of the table, the
    table's canonical tuple of a node's arms, or None, so no node is hashed.
    A field declared ``str``, ``int`` or ``Rational`` (a variable's name, an
    operator, a constant, an exact real's parts) is keyed as it is, by
    value.  A miss makes the node with
    ``object.__new__`` and sets its fields through their slots' descriptors,
    with no ``__init__`` frame and no ``__setattr__``.  One closure per
    number of fields, not generated text: compiling text for every class at
    import cost about 1.9 ms.
    """
    new = object.__new__
    sets = [cls.__dict__[name].__set__ for name in cls.__slots__]
    ra, rb, rc = [f.type in _RAW for f in fields(cls)] + [False] * (3 - len(sets))
    if not sets:

        def step(nodes, a, b, c):
            node = nodes.get(cls)
            if node is None:
                node = nodes[cls] = new(cls)
            return node

    elif len(sets) == 1:
        (set_a,) = sets

        def step(nodes, a, b, c):
            key = (cls, a if ra else id(a))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = new(cls)
                set_a(node, a)
            return node

    elif len(sets) == 2:
        set_a, set_b = sets

        def step(nodes, a, b, c):
            key = (cls, a if ra else id(a), b if rb else id(b))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = new(cls)
                set_a(node, a)
                set_b(node, b)
            return node

    else:
        set_a, set_b, set_c = sets

        def step(nodes, a, b, c):
            key = (cls, a if ra else id(a), b if rb else id(b), c if rc else id(c))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = new(cls)
                set_a(node, a)
                set_b(node, b)
                set_c(node, c)
            return node

    step.__qualname__ = f"{cls.__qualname__}._intern"
    return step


# The declared types of the fields that a key holds by value (see _intern_step).
_RAW = ("str", "int", "Rational")

_REPR_DEPTH = 6


def _repr(x: object, depth: int) -> str:
    """The dataclass form of ``x``, with ``...`` for the nodes more than ``depth`` below."""
    if type(x) is tuple:  # a field holding a tuple of arms
        items = ", ".join(_repr(c, depth) for c in x)
        return f"({items},)" if len(x) == 1 else f"({items})"
    if not isinstance(x, _Node):
        try:
            return repr(x)
        except ValueError:  # a number over the interpreter's limit on integer-string conversion
            if type(x) is Fraction:
                return f"Fraction({_repr(x.numerator, depth)}, {_repr(x.denominator, depth)})"
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


def _hash_of(x: _Node, hashes: list[int]) -> int:
    """The hash of ``x``'s class, its fields that hold no node, and its
    children's ``hashes``, in order: equal nodes agree on all three."""
    fields = [getattr(x, name) for name in x.__slots__]
    plain = [v for v in fields if type(v) is not tuple and not isinstance(v, _Node)]
    return hash((type(x), *plain, *hashes))


def _eq_dag(a: _Node, b: _Node) -> bool:
    """Walk pairs of nodes of one type, each ``(id(x), id(y))`` pair once: not
    a :func:`fold`, which walks one term, not two side by side."""
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
# Names and conditionals, of every sort (see sort_of)


@_node
class Name(_Node):
    """A reference ``T{args}``, ``&name{args}``, ``@name{args}`` or
    ``#name{args}``: to a definition, a generic parameter or a variant
    constructor of sort ``sort``."""

    sort: str  # "t", "e", "f" or "r"
    name: str
    args: tuple["GenArg", ...] = ()


@_node
class If(_Node):
    """``if cond then then else els endif``, both branches of sort ``sort``."""

    sort: str  # "t", "e", "f" or "r"
    cond: "BoolExpr"
    then: "GenArg"
    els: "GenArg"


# The sigil before a name of each sort; a type's name has none.  A type
# parameter's has one, as the type variable it binds.
SIGILS = {"t": "", "e": "&", "f": "@", "r": "#"}
PARAM_SIGILS = {**SIGILS, "t": "'"}


# --------------------------------------------------------------------------
# Reals and conditions


@_node
class RConst(_Node):
    """An integer constant."""

    value: int


Rational = Union[int, Fraction]  # an exact part: an int when integral


@_node
class RExact(_Node):
    """The exact real ``a + b*pi``, the core's one node of an exact value;
    ``a`` and ``b`` are ints when integral, else Fractions.  It prints as
    the tree that spells it (``p``, ``p / q``, ``pi``, ``q * pi``, or the
    ``+`` of a rational and a multiple of pi), which the parser reads back."""

    a: Rational
    b: Rational


@_node
class RPi(_Node):
    """``pi``."""


@_node
class REuler(_Node):
    """``euler``, the base of the natural logarithm."""


@_node
class RUnary(_Node):
    """``op(arg)``, a function of :data:`UNARY_OPS` applied to a real."""

    op: str  # one of UNARY_OPS
    arg: "Real"


UNARY_OPS = (
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "exp", "ln", "log2", "sqrt", "ceil", "floor",
)


@_node
class RBinary(_Node):
    """``left op right``, an arithmetic operator of :data:`BIN_PREC`."""

    op: str
    left: "Real"
    right: "Real"


Real = Union[RExact, RConst, RPi, REuler, RUnary, RBinary, Name, If]

# How tightly each arithmetic operator binds: ``+ -`` group to the left, then
# ``* / %`` to the left, then ``^`` to the right.  The parser reads by it too.
BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2, "^": 3}


@_node
class BNot(_Node):
    """``!arg``."""

    arg: "BoolExpr"


@_node
class BAnd(_Node):
    """``left && right``."""

    left: "BoolExpr"
    right: "BoolExpr"


@_node
class BOr(_Node):
    """``left || right``."""

    left: "BoolExpr"
    right: "BoolExpr"


@_node
class BCmp(_Node):
    """``left op right``, a comparison of two reals."""

    op: str  # one of = != <= < >= >
    left: Real
    right: Real


BoolExpr = Union[BNot, BAnd, BOr, BCmp]
# ``isinstance`` checks a tuple about four times faster than the ``Union`` alias.
BOOLS = get_args(BoolExpr)

# --------------------------------------------------------------------------
# Types


@_node
class TyVoid(_Node):
    """``Void``, the empty type."""


@_node
class TySum(_Node):
    """``left + right``, the sum type."""

    left: "Type"
    right: "Type"


@_node
class TyUnit(_Node):
    """``Unit``."""


@_node
class TyProd(_Node):
    """``left * right``, the product type."""

    left: "Type"
    right: "Type"


@_node
class TVar(_Node):
    """A type variable ``'a`` bound by a definition's parameter list."""

    name: str


CoreType = Union[TyVoid, TyUnit, TySum, TyProd]
Type = Union[CoreType, TVar, Name, If]


# --------------------------------------------------------------------------
# Expressions and programs


@_node
class ExUnit(_Node):
    """``()``."""


@_node
class ExVar(_Node):
    """A variable."""

    name: str


@_node
class ExPair(_Node):
    """``(left, right)``."""

    left: "Expr"
    right: "Expr"


@_node
class CoreArm(_Node):
    """``pattern -> body``, an arm of ``ctrl``, ``match`` or ``pmatch``."""

    pattern: "Expr"
    body: "Expr"


@_node
class ExCtrl(_Node):
    """``ctrl scrutinee [arms; else -> else_body]``."""

    scrutinee: "Expr"
    arms: tuple[CoreArm, ...]
    else_body: "Expr | None" = None


@_node
class ExMatch(_Node):
    """``match scrutinee [arms; else -> else_body]``."""

    scrutinee: "Expr"
    arms: tuple[CoreArm, ...]
    else_body: "Expr | None" = None


@_node
class ExTry(_Node):
    """``try attempt catch fallback``."""

    attempt: "Expr"
    fallback: "Expr"


@_node
class ExApp(_Node):
    """``fn(arg)``, a program applied to an expression."""

    fn: "Prog"
    arg: "Expr"


CoreExpr = Union[ExUnit, ExVar, ExPair, ExCtrl, ExMatch, ExTry, ExApp]
Expr = Union[CoreExpr, Name, If]


@_node
class PrU3(_Node):
    """``u3{theta, phi, lam}``, a one-qubit gate on ``Bit``."""

    theta: Real
    phi: Real
    lam: Real


@_node
class PrLeft(_Node):
    """``left{left_ty, right_ty}``, the left injection into a sum."""

    left_ty: CoreType
    right_ty: CoreType


@_node
class PrRight(_Node):
    """``right{left_ty, right_ty}``, the right injection into a sum."""

    left_ty: CoreType
    right_ty: CoreType


@_node
class PrAbs(_Node):
    """``lambda pattern -> body``."""

    pattern: Expr
    body: Expr


@_node
class PrRphase(_Node):
    """``rphase{e, r, r'}``: phase ``e^(i r)`` on the image of the pattern
    ``e``, phase ``e^(i r')`` on its orthogonal complement."""

    pattern: Expr
    on_phase: Real
    off_phase: Real


@_node
class PrPmatch(_Node):
    """``pmatch [arms]``."""

    arms: tuple[CoreArm, ...]


CoreProg = Union[PrU3, PrLeft, PrRight, PrAbs, PrRphase, PrPmatch]
Prog = Union[CoreProg, Name, If]

GenArg = Union[Type, Expr, Prog, Real]

# The sort of each node class of one sort.
_SORTS = {
    cls: sort
    for sort, union in (("t", Type), ("e", Expr), ("f", Prog), ("r", Real))
    for cls in get_args(union)
    if cls is not Name and cls is not If
}


def sort_of(x: _Node) -> str | None:
    """The sort of ``x``: ``"t"``, ``"e"``, ``"f"`` or ``"r"`` for a type, an
    expression, a program or a real, and None for a node of no sort (a
    condition, an arm, a parameter, a definition or a file: the ``sort`` of a
    :class:`Param` or a :class:`Def` is that of what it declares)."""
    t = type(x)
    return x.sort if t is Name or t is If else _SORTS.get(t)


# --------------------------------------------------------------------------
# Definitions and files


@_node
class Param(_Node):
    """A generic parameter of a definition: ``'a``, ``&x : T``, ``@f : A -> B``
    or ``#n``, of sort ``sort``, with its signature ``sig``, ``(T,)`` or
    ``(A, B)`` for an expression or a program and ``()`` otherwise."""

    sort: str  # "t", "e", "f" or "r"
    name: str  # without the sigil
    sig: tuple[Type, ...] = ()


@_node
class Def(_Node):
    """A type alias ``type T{params} := body end``, or a definition ``def
    &x{params} : T := body end``, ``def @f{params} : A -> B := body end`` or
    ``def #r{params} := body end``, of sort ``sort``; ``sig`` is as a
    :class:`Param`'s."""

    sort: str  # "t", "e", "f" or "r"
    name: str
    params: tuple[Param, ...]
    sig: tuple[Type, ...]
    body: GenArg


@_node
class VariantAlt(_Node):
    """One alternative of a variant type.

    ``payload`` is None for a nullary ``&Name`` alternative (its payload is
    Unit) and the declared type for an ``@Name of T`` alternative.
    """

    name: str
    payload: Type | None


@_node
class VariantDef(_Node):
    """``type name{params} := alts end``, a variant type."""

    name: str
    params: tuple[Param, ...]
    alts: tuple[VariantAlt, ...]


@_node
class QFile(_Node):
    """A sequence of definitions and an optional main expression."""

    defs: tuple[Def | VariantDef, ...]
    main: Expr | None


# --------------------------------------------------------------------------
# Folds over the DAG, and the adjoint


def children(x: _Node) -> list[_Node]:
    """The nodes in ``x``'s fields, in field order; a tuple field (arms,
    generic arguments, parameters, a signature) gives its nodes in order."""
    parts = []
    for name in x.__slots__:
        v = getattr(x, name)
        if type(v) is tuple:
            parts += [c for c in v if isinstance(c, _Node)]
        elif isinstance(v, _Node):
            parts.append(v)
    return parts


def fold(root: _Node, f: Callable[[_Node, list], object], parts=children):
    """The value of ``root``, where a node ``x`` has the value ``f(x, values)``
    and ``values`` are those of the nodes ``parts(x)``, in order.

    The walk is a post-order, left to right, on an explicit stack with no
    recursion.  It reads each distinct node's parts once and finishes it once,
    keeping its value by ``id`` for the call, so it costs the DAG, not the tree.
    """
    done: dict[int, object] = {}
    stack: list = [(root, None)]  # (node, None) to read its parts, (node, parts) to finish it
    while stack:
        x, xs = stack.pop()
        if xs is None:
            if id(x) in done:  # reached along a second edge before its first finished
                continue
            xs = parts(x)
            waiting = [(c, None) for c in reversed(xs) if id(c) not in done]
            if waiting:
                stack.append((x, xs))
                stack += waiting
                continue
        done[id(x)] = f(x, [done[id(c)] for c in xs])
    return done[id(root)]


def free_qvars(e: CoreExpr) -> frozenset[str]:
    """The variables free in ``e``, by :func:`fold`: programs are closed, so
    a program is a leaf with none, and an arm's are its body's less its
    pattern's.  Any other node, sugar included, raises :class:`TypeError`."""
    return fold(e, _free, _qvar_parts)


def _qvar_parts(x: _Node) -> list[_Node]:
    if type(x) in _QVAR_NODES:
        return children(x)
    if sort_of(x) == "f":
        return []
    raise TypeError(f"not a core expression: {x!r}")


_QVAR_NODES = frozenset((*get_args(CoreExpr), CoreArm))


def _free(x: _Node, frees: list[frozenset[str]]) -> frozenset[str]:
    if type(x) is ExVar:
        return frozenset((x.name,))
    if type(x) is CoreArm:
        return frees[1] - frees[0]
    return frozenset().union(*frees)


def node_counts(root: _Node) -> tuple[int, int]:
    """The number of distinct nodes of ``root`` by identity, and the number of
    nodes of the tree it stands for: a :func:`fold` that sums the tree over
    the DAG and finishes each distinct node once."""
    finished: list[_Node] = []
    tree = fold(root, lambda x, sizes: finished.append(x) or 1 + sum(sizes))
    return len(finished), tree


def adjoint(f: CoreProg) -> CoreProg | None:
    """``f^dagger``, built one level deep, or None where an arm's pattern
    binds a variable that its body does not use.

    ``lambda`` and ``pmatch`` swap each arm's pattern and body, ``u3{t, p,
    l}`` becomes ``u3{t, pi - l, pi - p}`` (exactly U^dagger; X maps to itself),
    ``rphase{e, r, r'}`` becomes ``rphase{e, -r, -r'}``, and an injection
    ``lambda inj(x) -> x``.  An exact angle, an :class:`RExact` leaf, is
    negated as a value, to a leaf, so ``adjoint(adjoint(f)) == f``; an
    inexact one becomes the tree ``pi - r`` or ``0 - r``.  A program inside an
    arm is left as it is: a pass meets it in a pattern, where it builds its
    adjoint, or runs it.

    Built once per program node and kept in its ``_derived`` slot, so every
    pass and every run that meets ``f`` in a pattern shares one ``f^dagger``.
    """
    if type(f) not in CORE_PROGS:
        raise TypeError(f"not a core program: {f!r}")
    try:
        return f._derived
    except AttributeError:
        dagger = _adjoint(f)
        object.__setattr__(f, "_derived", dagger)
        return dagger


def _adjoint(f: CoreProg) -> CoreProg | None:
    t = type(f)
    if t is PrAbs or t is PrPmatch:
        arms = (f,) if t is PrAbs else f.arms
        if any(erased(arm) for arm in arms):
            return None
        if t is PrAbs:
            return PrAbs(f.body, f.pattern)
        return PrPmatch(tuple(CoreArm(arm.body, arm.pattern) for arm in arms))
    if t is PrU3:
        return PrU3(f.theta, _minus(1, f.lam), _minus(1, f.phi))
    if t is PrRphase:
        return PrRphase(f.pattern, _minus(0, f.on_phase), _minus(0, f.off_phase))
    x = ExVar("x")  # an injection
    return PrAbs(ExApp(f, x), x)


def _minus(b: int, r: Real) -> Real:
    """``b*pi - r``: a leaf where ``r`` is one, else a tree over the leaf of ``b*pi``."""
    if type(r) is RExact:
        return RExact(-r.a, b - r.b)
    return RBinary("-", RExact(0, b), r)


CORE_PROGS = frozenset(get_args(CoreProg))


def ctrl_arms(p: ExCtrl) -> list[tuple[CoreExpr, frozenset[str]]] | str:
    """The arms of the ``ctrl`` ``p`` read as a pattern, as ``(body, its
    pattern's own variables)``, the ``else`` arm last with none: an arm binds
    ``p``'s free variables by its body and reads the scrutinee without its
    own variables.  Where a body leaves one of them unbound, a value would
    not tell it, and this is the text of that refusal, on which each pass
    raises its own error.  Kept in ``p``'s ``_derived`` slot, so every pass
    and run that meets ``p`` in a pattern shares one list.
    """
    try:
        return p._derived
    except AttributeError:
        arms = _ctrl_arms(p)
        object.__setattr__(p, "_derived", arms)
        return arms


def _ctrl_arms(p: ExCtrl) -> list[tuple[CoreExpr, frozenset[str]]] | str:
    frees = free_qvars(p)
    arms = [(arm.body, free_qvars(arm.pattern)) for arm in p.arms]
    if p.else_body is not None:
        arms.append((p.else_body, frozenset()))
    for body, own in arms:
        missing = frees - (free_qvars(body) - own)
        if missing:
            return f"a ctrl in a pattern whose arm does not give {', '.join(sorted(missing))}"
    return arms


def erased(arm: CoreArm | PrAbs) -> tuple[str, ...]:
    """The variables that ``arm``'s pattern binds and its body does not use,
    sorted by name as strings, so ``v%10`` comes before ``v%2``: what the arm
    erases, in the order a pass puts it in the garbage."""
    return tuple(sorted(free_qvars(arm.pattern) - free_qvars(arm.body)))


# --------------------------------------------------------------------------
# Printer (used by --dump-core, error messages and whole files)


# The longest text the printer writes, 64 Mi characters: far above the dumps
# in use (@qft{128}'s is 2,191,795), far below a tree-sized text of a wide
# DAG (@add_const{20, 12345}'s would be 159,383,905, and @add_const{100, ·}'s
# more than memory holds).
TEXT_CHARS = 1 << 26


def to_str(root: _Node) -> str:
    """The text of ``root``, written as pieces into one list and joined once.

    Each distinct node is visited once: the text of a node reached along two
    edges or more is joined once and its string reused at every later
    occurrence, so a character is copied about once per reference to a shared
    node that holds it, not once per ancestor.  A constant too long for
    ``str`` raises :class:`~qunic.errors.RealError`, and a text longer than
    ``TEXT_CHARS`` :class:`~qunic.errors.CapacityError`: the whole text, or a
    shared node's, is refused before a join longer than the bound plus the
    distinct nodes' own text.
    """
    out: list[str] = []
    texts: dict[int | None, tuple[int, int] | str | int] = {}
    try:
        _show(root, texts, out)
    except RecursionError:
        raise CapacityError("term nested too deeply to print") from None
    return _joined(out, texts)


def _joined(pieces: list[str], texts: dict[int | None, tuple[int, int] | str | int]) -> str:
    """``pieces`` joined, if the text has at most ``TEXT_CHARS`` characters;
    ``texts`` keeps the length of the longest text joined so far under None.

    A piece is either a kept text, at most that long, or a distinct node's
    own, which is written once.  So while the count of pieces times that
    length is within the bound, no join can be much longer than it, and the
    text is checked once joined; past it, the pieces are counted first.
    """
    longest = texts.get(None, 0)
    if len(pieces) * longest > TEXT_CHARS:
        n = sum(map(len, pieces))
        if n > TEXT_CHARS:
            raise _too_long(n)
    s = "".join(pieces)
    if len(s) > TEXT_CHARS:
        raise _too_long(len(s))
    texts[None] = max(longest, len(s))
    return s


def _too_long(n: int) -> CapacityError:
    return CapacityError(f"a text of {n} characters is over the limit of {TEXT_CHARS}")


core_expr_to_str = to_str  # the name the benchmark calls


_ATOM = 4  # binds tighter than every operator


def _binds(x: _Node) -> int:
    """How tightly ``x`` holds together as an operand: its operator's
    precedence (an exact leaf's, that of the tree it prints), 0 for a
    negative constant so that one is never left bare, and ``_ATOM`` for the
    rest.  The parent compares it with what the operand's position needs and
    wraps the operand's text when it falls short."""
    t = type(x)
    if t is RBinary:
        return BIN_PREC[x.op]
    if t is RExact:
        a, b = x.a, x.b
        if b:
            return 1 if a else _ATOM if b == 1 else 2  # a + ..., pi, q * pi
        return 2 if type(a) is not int else _ATOM if a >= 0 else 0  # p / q, p
    if t is RConst:
        return _ATOM if x.value >= 0 else 0
    if t is BOr:
        return 1
    return 2 if t is BAnd else _ATOM


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # over the interpreter's limit on integer-string conversion
        raise RealError(f"a constant of {_digit_count(n)} digits is too long to print") from None


def _rational_text(q: Rational, operand: bool) -> str:
    """``q`` as ``p`` or ``p / q``, a negative constant in parentheses where it
    is an operand: the whole of ``q`` if ``operand``, or ``p / q``'s ``p``."""
    p = _int_text(q.numerator)
    if q < 0 and (operand or type(q) is not int):
        p = f"({p})"
    return p if type(q) is int else f"{p} / {_int_text(q.denominator)}"


def _show(
    x: _Node | tuple[GenArg, ...],
    texts: dict[int | None, tuple[int, int] | str | int],
    out: list[str],
) -> None:
    """Append the text of ``x`` to ``out``; ``texts`` holds, under the id of
    each node written so far, where its pieces start and end in ``out``, or
    its text once the node has been reached twice (and what :func:`_joined`
    keeps under None).

    The second time a node is reached it joins its slice of ``out`` once, if
    it is at most ``TEXT_CHARS`` long, keeps the string in ``texts`` and
    appends it; later visits append the kept string.  Checking, dispatching
    and storing sit in this one body, so each level of the term costs one
    frame.  A parent writes the parentheses around a child's text, before and
    after it, where :func:`_binds` says it must.  The core cases come first,
    then reals and conditions, sugar, and definitions and files.
    """
    key = id(x)
    s = texts.get(key)
    if s is not None:
        if type(s) is tuple:
            s = texts[key] = _joined(out[s[0] : s[1]], texts)
        out.append(s)
        return
    start = len(out)
    w = out.append
    t = type(x)
    if t is ExVar:
        w(x.name)
    elif t is ExPair:
        w("(")
        _show(x.left, texts, out)
        w(", ")
        _show(x.right, texts, out)
        w(")")
    elif t is ExApp:
        _show(x.fn, texts, out)
        w("(")
        _show(x.arg, texts, out)
        w(")")
    elif t is PrAbs:
        w("(lambda ")
        _show(x.pattern, texts, out)
        w(" -> ")
        _show(x.body, texts, out)
        w(")")
    elif t is ExUnit:
        w("()")
    elif t is PrLeft or t is PrRight:
        w("left{" if t is PrLeft else "right{")
        _show(x.left_ty, texts, out)
        w(", ")
        _show(x.right_ty, texts, out)
        w("}")
    elif t is PrRphase:
        w("rphase{")
        _show(x.pattern, texts, out)
        w(", ")
        _show(x.on_phase, texts, out)
        w(", ")
        _show(x.off_phase, texts, out)
        w("}")
    elif t is CoreArm:
        _show(x.pattern, texts, out)
        w(" -> ")
        _show(x.body, texts, out)
    elif t is ExCtrl or t is ExMatch or t is PrPmatch:
        if t is PrPmatch:
            w("pmatch [")
        else:
            w("ctrl " if t is ExCtrl else "match ")
            _show(x.scrutinee, texts, out)
            w(" [")
        for i, arm in enumerate(x.arms):
            if i:
                w("; ")
            _show(arm, texts, out)
        if t is not PrPmatch and x.else_body is not None:
            w("; else -> " if x.arms else "else -> ")
            _show(x.else_body, texts, out)
        w("]")
    elif t is ExTry:
        w("try ")
        _show(x.attempt, texts, out)
        w(" catch ")
        _show(x.fallback, texts, out)
    elif t is TyUnit:
        w("Unit")
    elif t is TyVoid:
        w("Void")
    elif t is TySum or t is TyProd:
        w("(")
        _show(x.left, texts, out)
        w(" + " if t is TySum else " * ")
        _show(x.right, texts, out)
        w(")")
    elif t is PrU3:
        w("u3{")
        _show(x.theta, texts, out)
        w(", ")
        _show(x.phi, texts, out)
        w(", ")
        _show(x.lam, texts, out)
        w("}")
    elif t is RConst:
        w(_int_text(x.value))
    elif t is RExact:  # a, a + b * pi or b * pi, each part a constant or p / q
        a, b = x.a, x.b
        if a or not b:
            w(_rational_text(a, b != 0))
            if b:
                w(" + ")
        if b == 1:
            w("pi")
        elif b:
            w(_rational_text(b, True) + " * pi")
    elif t is RBinary or t is BAnd or t is BOr:  # '^' groups to the right, the others left
        op = x.op if t is RBinary else "&&" if t is BAnd else "||"
        prec = _binds(x)
        wrap_left = _binds(x.left) < prec + (op == "^")
        wrap_right = _binds(x.right) < prec + (op != "^")
        if wrap_left:
            w("(")
        _show(x.left, texts, out)
        w((") " if wrap_left else " ") + op + (" (" if wrap_right else " "))
        _show(x.right, texts, out)
        if wrap_right:
            w(")")
    elif t is RPi:
        w("pi")
    elif t is RUnary:
        w(x.op + "(")
        _show(x.arg, texts, out)
        w(")")
    elif t is REuler:
        w("euler")
    elif t is BCmp:
        _show(x.left, texts, out)
        w(f" {x.op} ")
        _show(x.right, texts, out)
    elif t is BNot:
        wrap_left = _binds(x.arg) < _ATOM
        w("!(" if wrap_left else "!")
        _show(x.arg, texts, out)
        if wrap_left:
            w(")")
    elif t is TVar:
        w("'" + x.name)
    elif t is Name:
        w(SIGILS[x.sort] + x.name)
        if x.args:
            _show(x.args, texts, out)
    elif t is tuple:  # generic arguments, or a definition's parameters
        if x:
            w("{")
            for i, arg in enumerate(x):
                if i:
                    w(", ")
                _show(arg, texts, out)
            w("}")
    elif t is If:
        w("(if " if x.sort == "f" else "if ")
        _show(x.cond, texts, out)
        w(" then ")
        _show(x.then, texts, out)
        w(" else ")
        _show(x.els, texts, out)
        w(" endif)" if x.sort == "f" else " endif")
    elif t is Param or t is Def:
        if t is Param:
            w(PARAM_SIGILS[x.sort] + x.name)
        else:
            w(("type " if x.sort == "t" else "def ") + SIGILS[x.sort] + x.name)
            _show(x.params, texts, out)
        for i, ty in enumerate(x.sig):
            w(" -> " if i else " : ")
            _show(ty, texts, out)
        if t is Def:
            w(" := ")
            _show(x.body, texts, out)
            w(" end")
    elif t is VariantAlt:
        if x.payload is None:
            w("&" + x.name)
        else:
            w(f"@{x.name} of ")
            _show(x.payload, texts, out)
    elif t is VariantDef:
        w("type " + x.name)
        _show(x.params, texts, out)
        w(" := ")
        for i, alt in enumerate(x.alts):
            if i:
                w(" | ")
            _show(alt, texts, out)
        w(" end")
    elif t is QFile:
        for i, d in enumerate(x.defs):
            if i:
                w("\n\n")
            _show(d, texts, out)
        if x.main is not None:
            if x.defs:
                w("\n\n")
            _show(x.main, texts, out)
        w("\n")
    else:
        raise TypeError(f"not a node of the syntax tree: {x!r}")
    texts[key] = start, len(out)
