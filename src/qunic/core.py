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

The printer, :func:`qunic.printer.to_str`, is a module of its own, as no
compile prints: it is loaded on first use, by :mod:`qunic.surface`, the
command's dumps, a node's first ``repr``, or a read of ``core.to_str`` or
``core.core_expr_to_str`` (the benchmark's name), which are that function.

Elaboration memoizes instantiations, so a core term is a DAG whose tree can
be millions of times larger.  Every node class is a plain slotted class made
by :func:`_node`, its fields its annotations, with an ``__init__`` copied
from one template per number of fields, and is frozen by :class:`_Node`,
which refuses every assignment and deletion; nothing copies or pickles a
node.  Importing this module imports no :mod:`dataclasses`, which every
start of the compiler would pay for and no compile uses: a class's dataclass
form, for the readers that walk nodes through ``dataclasses.fields``, is
made on first ask (:class:`_DataclassView`).  A node keeps no hash: ``hash``
is a :func:`fold` over the DAG on every call, and ``==`` is true on
identity, else decided by walking pairs of nodes, each ``(id(a), id(b))``
pair once.  Both cost work in proportion to the DAG, not the tree, and
neither recurses.  No compile hashes or compares a node: the elaborator
interns, so within a compile identity is equality, and only the tests and
the benchmark's checks call them.  ``repr`` prints the dataclass form,
``Class(field=...)``, down to a fixed depth and ``...`` below it.

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

No compile leaves cyclic garbage.  The core is acyclic: a node refers to
its fields and, in its ``_derived`` slot, to what the elaborator derives
from it, a kernel, which holds only its constants and keys, or a call-site
cache; and every table of a compile holds nodes, values and other tables.
The one cycle is kept for the process: the call-site cache of a recursive
prelude definition holds the definition whose body holds the call site.  So
elaboration and printing run with CPython's cyclic collector paused
(:class:`paused_collector`), and reference counting frees what a compile
drops.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from fractions import Fraction


class _DataclassView:
    """The ``__dataclass_fields__`` of a node class, made on first ask.

    The compiler reads a node's fields as its ``__slots__``.  The dataclass
    form is for the readers that walk nodes through :mod:`dataclasses`
    (``is_dataclass`` and ``fields``), as the benchmark's checks and the
    tests do, and none of them is on the compile path.  So a class's first
    ask imports :mod:`dataclasses`, applies ``dataclass(init=False,
    eq=False, repr=False)`` to an unslotted twin with the class's
    annotations and defaults, and stores the twin's fields on the class,
    where later asks find them before this descriptor.  :class:`_Node`
    itself is no dataclass.  This view can go once every such reader walks
    :func:`children` instead.
    """

    def __get__(self, node: _Node | None, cls: type) -> dict:
        if cls is _Node:
            raise AttributeError("_Node is no dataclass")
        from dataclasses import dataclass

        slots, defaults = cls.__slots__, cls.__init__.__defaults__ or ()
        ns = dict(zip(slots[len(slots) - len(defaults):], defaults))
        ns.update(
            __module__=cls.__module__,
            __qualname__=cls.__qualname__,
            __doc__=cls.__doc__,
            __annotations__=cls.__dict__.get("__annotations__", {}),
        )
        view = dataclass(init=False, eq=False, repr=False)(type(cls.__name__, (), ns)).__dataclass_fields__
        cls.__dataclass_fields__ = view
        return view


class paused_collector:
    """``with paused_collector():`` runs its block with the cyclic garbage
    collector off, then turns it on again if it was on: on every exit, a
    raise included.  A caller that turned it off keeps it off.

    Elaboration and printing run in it, as no compile leaves cyclic garbage
    (see the module's docstring).  The switch is the process's, so while one
    compile runs, code on other threads runs with the collector paused too.
    """

    __slots__ = ("_was",)

    def __enter__(self) -> None:
        self._was = gc.isenabled()
        if self._was:
            gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self._was:
            gc.enable()


class _Node:
    """Base of every node of the syntax tree.

    Subclasses are made by :func:`_node`: slotted classes whose fields are
    their slots, with one ``__init__`` from a template and an interning step
    ``_intern`` (:func:`_intern_step`); the five methods below apply.  They
    are plain classes, with no metaclass and no :mod:`dataclasses` import
    behind them; their dataclass form is made on first ask
    (:class:`_DataclassView`).  Nodes are frozen here, once for every
    class: assigning or deleting any attribute raises
    :class:`dataclasses.FrozenInstanceError`, imported only to be raised.
    Only a node's builder writes its fields, ``__init__`` through
    ``object.__setattr__`` and ``_intern`` through the slots' descriptors,
    and a pass writes only the kept ``_derived`` slot below, through
    ``object.__setattr__``.  Nothing copies or pickles a node, so no class
    has ``__getstate__``/``__setstate__``.
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
    __dataclass_fields__ = _DataclassView()

    def __hash__(self) -> int:
        return fold(self, _hash_of)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _eq_dag(self, other)

    def __repr__(self) -> str:
        from .printer import _repr

        return _repr(self, _REPR_DEPTH)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls: type) -> type:
    """``cls`` remade with its annotated fields as its slots, one ``__init__``
    and, for a class of at most three fields, one interning step,
    ``_intern``.

    One ``type`` call builds the slotted class from ``cls``'s namespace: the
    fields are the annotations in order, and their class-body values are
    the ``__init__``'s defaults; a field without a default after one with a
    default is a :class:`TypeError`.  The ``__init__`` takes the fields in
    order, by position or by name, and sets each through
    ``object.__setattr__``, as :class:`_Node` forbids assignment.  It is the
    template of its number of fields, ``_INITS[k]``, with ``code.replace``
    renaming its parameters and the field names it sets: compiling a text
    per class cost about 70 µs each at every import.  Nothing here imports
    :mod:`dataclasses`, which would cost every start of the compiler its
    import and a second build of each class for its slots;
    :class:`_DataclassView` makes the dataclass form when a reader asks for
    it.
    """
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", ()))
    has_default = [n in ns for n in names]
    if has_default != sorted(has_default):
        late = names[has_default.index(False, has_default.index(True))]
        raise TypeError(f"{cls.__qualname__}: field {late!r} has no default but follows one that has")
    defaults = tuple(ns.pop(n) for n in names if n in ns)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns.update(__slots__=names, __match_args__=names, __qualname__=cls.__qualname__)
    cls = type(cls.__name__, cls.__bases__, ns)
    code = _INITS[len(names)].__code__
    code = code.replace(
        co_name="__init__",
        co_varnames=("self", *names),
        co_consts=tuple(names[_FIELDS.index(c)] if c in _FIELDS else c for c in code.co_consts),
    )
    init = type(_node)(code, globals(), "__init__", defaults or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    if len(names) <= 3:
        cls._intern = _intern_step(cls)
    return cls


# The templates of the __init__ of a class of 0 to 5 fields, where f0, f1, ...
# stand for its fields in order: _node renames them in each copy's code.
_set = object.__setattr__
_FIELDS = ("f0", "f1", "f2", "f3", "f4")


def _init0(self):
    pass


def _init1(self, f0):
    _set(self, "f0", f0)


def _init2(self, f0, f1):
    _set(self, "f0", f0)
    _set(self, "f1", f1)


def _init3(self, f0, f1, f2):
    _set(self, "f0", f0)
    _set(self, "f1", f1)
    _set(self, "f2", f2)


def _init4(self, f0, f1, f2, f3):
    _set(self, "f0", f0)
    _set(self, "f1", f1)
    _set(self, "f2", f2)
    _set(self, "f3", f3)


def _init5(self, f0, f1, f2, f3, f4):
    _set(self, "f0", f0)
    _set(self, "f1", f1)
    _set(self, "f2", f2)
    _set(self, "f3", f3)
    _set(self, "f4", f4)


_INITS = (_init0, _init1, _init2, _init3, _init4, _init5)


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
    ra, rb, rc = [cls.__annotations__[n] in _RAW for n in cls.__slots__] + [False] * (3 - len(sets))
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


Rational = int | Fraction  # an exact part: an int when integral


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


Real = RExact | RConst | RPi | REuler | RUnary | RBinary | Name | If

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


BoolExpr = BNot | BAnd | BOr | BCmp

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


CoreType = TyVoid | TyUnit | TySum | TyProd
Type = CoreType | TVar | Name | If


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


CoreExpr = ExUnit | ExVar | ExPair | ExCtrl | ExMatch | ExTry | ExApp
Expr = CoreExpr | Name | If


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


CoreProg = PrU3 | PrLeft | PrRight | PrAbs | PrRphase | PrPmatch
Prog = CoreProg | Name | If

GenArg = Type | Expr | Prog | Real

# The sort of each node class of one sort.
_SORTS = {
    cls: sort
    for sort, union in (("t", Type), ("e", Expr), ("f", Prog), ("r", Real))
    for cls in union.__args__
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
    if isinstance(x, _QVAR_NODES):
        return children(x)
    if sort_of(x) == "f":
        return []
    raise TypeError(f"not a core expression: {x!r}")


_QVAR_NODES = CoreExpr | CoreArm


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
    if not isinstance(f, CoreProg):
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


def __getattr__(name: str) -> Callable[[_Node], str]:
    """``core.to_str`` and ``core.core_expr_to_str`` (the name the benchmark
    calls): :func:`qunic.printer.to_str`, imported at the first read of
    either and then kept here, where later reads find it directly."""
    if name == "to_str" or name == "core_expr_to_str":
        from .printer import to_str

        globals()[name] = to_str
        return to_str
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
