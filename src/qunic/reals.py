"""Symbolic real-number expressions.

Angles and classical parameters in Qunity are written as closed real
expressions over ``pi``, ``euler``, integer literals, arithmetic, and a fixed
set of analytic functions.  This module defines the expression tree, its
printer, and one evaluator.

The evaluator computes a single kind of value.  It is either an exact pair
``(a, b)`` standing for ``a + b*pi`` with rational ``a`` and ``b``, or a
finite float.  Exactness ends at the first operation the pair cannot express:
a transcendental function, a ``pi^2`` term, a non-integer power, a ``%`` or
``sqrt`` involving ``pi``, an irrational ``sqrt``, or ``euler``.  From there
on the value is a float.  :func:`evaluate_real`, :func:`as_rational` and
:func:`as_pi_multiple` are views of that value; the last one is how the
compiler knows that a gate angle is exactly a rational multiple of pi.  An
undefined value (division by zero, ``ln`` of a negative number...) and a
value too large for a float raise :class:`~qunic.errors.RealError` from all
three.

Two node kinds — :class:`RName` and :class:`RIf` — exist only in surface
syntax.  The preprocessor substitutes definitions and resolves conditionals,
so evaluation rejects them: seeing one after preprocessing is a bug in the
caller, reported as a :class:`~qunic.errors.RealError`.

Exact parts of a value are ints while they are integral; ``/`` and a
negative ``^`` go through :class:`~fractions.Fraction` and drop back to an
int when the denominator is 1.  The three views still return Fractions.

The closed nodes (:class:`RConst`, :class:`RPi`, :class:`REuler`,
:class:`RUnary`, :class:`RBinary`) share one base with the core nodes,
:class:`_Node`: a slotted frozen dataclass whose hash is computed on first
use and kept, and whose ``==`` tries identity, then the kept hashes, then
walks pairs of nodes, visiting each pair once.  There is no intern table.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import RealError

UNARY_OPS = (
    "sin",
    "cos",
    "tan",
    "arcsin",
    "arccos",
    "arctan",
    "exp",
    "ln",
    "log2",
    "sqrt",
    "ceil",
    "floor",
)

class _Node:
    """Base of the closed real nodes here and of every node in :mod:`core`.

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
    op: str
    arg: "Real"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class RBinary(_Node):
    op: str
    left: "Real"
    right: "Real"


@dataclass(frozen=True)
class RName:
    """Reference to a ``#name`` definition, with generic arguments.

    The arguments are syntax-tree nodes (types, expressions, programs, or
    reals); they are typed loosely here to keep this module independent of
    :mod:`qunic.core`.
    """

    name: str
    args: tuple[object, ...] = ()


@dataclass(frozen=True)
class RIf:
    cond: "BoolExpr"
    then: "Real"
    els: "Real"


Real = Union[RConst, RPi, REuler, RUnary, RBinary, RName, RIf]


@dataclass(frozen=True)
class BNot:
    arg: "BoolExpr"


@dataclass(frozen=True)
class BAnd:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class BOr:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class BCmp:
    op: str  # one of = != <= < >= >
    left: Real
    right: Real


BoolExpr = Union[BNot, BAnd, BOr, BCmp]

Number = Union[Fraction, float]

# An exact pair ``(a, b)`` stands for ``a + b*pi``; a float is always finite.
# Exact parts are ints while they are integral, and Fractions otherwise.
Rational = Union[int, Fraction]
Value = Union[tuple[Rational, Rational], float]

_FLOAT_OPS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arcsin": math.asin,
    "arccos": math.acos,
    "arctan": math.atan,
    "exp": math.exp,
    "ln": math.log,
    "log2": math.log2,
    "sqrt": math.sqrt,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,  # floored on floats too: the result has the sign of the divisor
    "^": math.pow,  # unlike **, raises instead of returning a complex number
}


def _value(r: Real) -> Value:
    """The value of ``r``: every exact rule and every domain check lives here.

    ``ceil``/``floor`` are exact on any argument; every other operation with
    no exact rule below is computed on floats.
    """
    if isinstance(r, RConst):
        return r.value, 0
    if isinstance(r, RPi):
        return 0, 1
    if isinstance(r, REuler):
        return math.e
    if isinstance(r, RUnary):
        x = _value(r.arg)
        q = x[0] if isinstance(x, tuple) and x[1] == 0 else None
        if r.op in ("ceil", "floor"):
            rounded = math.ceil if r.op == "ceil" else math.floor
            return rounded(_to_float(x) if q is None else q), 0
        if r.op == "sqrt" and q is not None and q >= 0:
            ns, ds = math.isqrt(q.numerator), math.isqrt(q.denominator)
            if ns * ns == q.numerator and ds * ds == q.denominator:
                return _exact(Fraction(ns, ds)), 0
        args = (x,)
    elif isinstance(r, RBinary):
        x, y = _value(r.left), _value(r.right)
        if r.op in ("/", "%") and y in ((0, 0), 0.0):  # an exact or a float zero
            what = "division" if r.op == "/" else "modulus"
            raise RealError(f"{what} by zero in real expression")
        if isinstance(x, tuple) and isinstance(y, tuple):
            (a, b), (c, d) = x, y
            if r.op == "+":
                return a + c, b + d
            if r.op == "-":
                return a - c, b - d
            if r.op == "*" and (b == 0 or d == 0):  # no pi^2 term
                return a * c, a * d + b * c
            if r.op == "/" and d == 0:
                return _exact(Fraction(a, c)), _exact(Fraction(b, c))
            if r.op == "/" and a == 0 and c == 0:  # a ratio of pi-multiples is rational
                return _exact(Fraction(b, d)), 0
            if r.op == "%" and b == 0 and d == 0:
                return a % c, 0
            if r.op == "^" and b == 0 and d == 0 and c.denominator == 1:
                if c >= 0:
                    return a**c.numerator, 0
                if a == 0:
                    raise RealError("zero raised to a negative power")
                return _exact(Fraction(a) ** c.numerator), 0
        args = (x, y)
    elif isinstance(r, RName):
        raise RealError(f"unresolved real name #{r.name} (not substituted)")
    elif isinstance(r, RIf):
        raise RealError("unresolved conditional in real expression")
    else:
        raise RealError(f"not a real expression: {r!r}")
    fn = _FLOAT_OPS.get(r.op)
    if fn is None:
        raise RealError(f"unknown real operation {r.op!r}")
    fs = [_to_float(v) for v in args]
    try:
        v = fn(*fs)
        if math.isfinite(v):
            return v
        problem = "overflows"
    except ValueError:
        problem = "is undefined"
    except OverflowError:
        problem = "overflows"
    shown = f"{r.op}({fs[0]})" if len(fs) == 1 else f"{fs[0]} {r.op} {fs[1]}"
    raise RealError(f"{shown} {problem}")


def _exact(q: Fraction) -> Rational:
    """``q`` as an int when it is integral, so exact arithmetic stays on ints."""
    return q.numerator if q.denominator == 1 else q


def _to_float(v: Value) -> float:
    """The one place where an exact value becomes a float."""
    if isinstance(v, float):
        return v
    a, b = v
    try:
        f = float(a) + float(b) * math.pi
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise RealError("an exact value is too large for a float")
    return f


def evaluate_real(r: Real) -> Number:
    """Evaluate a closed real expression.

    Returns a :class:`~fractions.Fraction` when the ``a + b*pi`` value is
    exact with ``b = 0`` (so ``pi - pi`` and ``(2*pi) / (4*pi)`` are exact),
    and a float otherwise: for an exact multiple of pi such as ``pi / 2``, and
    for any value whose exactness ended at an operation with no exact rule
    (a transcendental function, a ``pi^2`` term, a non-integer power,
    ``euler``).  An undefined value, or one too large for a float, raises
    :class:`~qunic.errors.RealError`.
    """
    v = _value(r)
    if isinstance(v, tuple) and v[1] == 0:
        return Fraction(v[0])
    return _to_float(v)


def evaluate_bool(b: BoolExpr) -> bool:
    """Evaluate a closed boolean expression over real comparisons."""
    if isinstance(b, BNot):
        return not evaluate_bool(b.arg)
    if isinstance(b, BAnd):
        return evaluate_bool(b.left) and evaluate_bool(b.right)
    if isinstance(b, BOr):
        return evaluate_bool(b.left) or evaluate_bool(b.right)
    if isinstance(b, BCmp):
        x, y = evaluate_real(b.left), evaluate_real(b.right)
        # Fraction/float comparisons in Python are exact, no rounding step.
        if b.op == "=":
            return x == y
        if b.op == "!=":
            return x != y
        if b.op == "<=":
            return x <= y
        if b.op == "<":
            return x < y
        if b.op == ">=":
            return x >= y
        if b.op == ">":
            return x > y
        raise RealError(f"unknown comparison {b.op!r}")
    raise RealError(f"not a boolean expression: {b!r}")


def as_pi_multiple(r: Real) -> Fraction | None:
    """Return ``q`` when ``r`` is *exactly* ``q * pi`` with nonzero q.

    The value is tracked as ``a + b*pi`` with rational a and b, so a float
    that merely lands near a multiple of pi is never taken for the exact thing.
    """
    v = _value(r)
    if isinstance(v, tuple) and v[0] == 0 and v[1] != 0:
        return Fraction(v[1])
    return None


def as_rational(r: Real) -> Fraction | None:
    """Return the exact rational value of ``r``, or None if it has none."""
    v = _value(r)
    if isinstance(v, tuple) and v[1] == 0:
        return Fraction(v[0])
    return None


def _digit_count(n: int) -> int:
    """The number of decimal digits of ``n``, without converting it to a string."""
    n = abs(n)
    k = int((n.bit_length() - 1) * math.log10(2)) + 1  # the digits of 2^(bits - 1)
    return k + (n >= 10**k)


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4
BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "%": _PREC_MUL, "^": _PREC_POW}


def real_to_str(r: Real, _prec: int = 0) -> str:
    """Render a real expression in surface syntax, with minimal parentheses.

    ``+ - * / %`` print left-associatively and ``^`` right-associatively,
    matching how the parser rebuilds them.  A constant longer than the
    interpreter's limit on integer-to-string conversion raises
    :class:`~qunic.errors.RealError`; the limit is not raised.
    """
    if isinstance(r, RConst):
        try:
            s = str(r.value)
        except ValueError:  # over the interpreter's limit on integer-string conversion
            raise RealError(
                f"a constant of {_digit_count(r.value)} digits is too long to print"
            ) from None
        return s if r.value >= 0 or _prec == 0 else f"({s})"
    if isinstance(r, RPi):
        return "pi"
    if isinstance(r, REuler):
        return "euler"
    if isinstance(r, RUnary):
        return f"{r.op}({real_to_str(r.arg)})"
    if isinstance(r, RBinary):
        prec = BIN_PREC[r.op]
        if r.op == "^":
            left = real_to_str(r.left, prec + 1)
            right = real_to_str(r.right, prec)
        else:
            left = real_to_str(r.left, prec)
            right = real_to_str(r.right, prec + 1)
        s = f"{left} {r.op} {right}"
        return f"({s})" if prec < _prec else s
    if isinstance(r, RName):
        from .core import generic_args_to_str  # late import, printer lives there

        return f"#{r.name}{generic_args_to_str(r.args)}"
    if isinstance(r, RIf):
        return f"if {bool_to_str(r.cond)} then {real_to_str(r.then)} else {real_to_str(r.els)} endif"
    raise RealError(f"not a real expression: {r!r}")


def bool_to_str(b: BoolExpr, _prec: int = 0) -> str:
    # precedence: ! binds tightest, then &&, then ||
    if isinstance(b, BNot):
        return f"!{bool_to_str(b.arg, 3)}"
    if isinstance(b, BAnd):
        s = f"{bool_to_str(b.left, 2)} && {bool_to_str(b.right, 3)}"
        return f"({s})" if _prec > 2 else s
    if isinstance(b, BOr):
        s = f"{bool_to_str(b.left, 1)} || {bool_to_str(b.right, 2)}"
        return f"({s})" if _prec > 1 else s
    if isinstance(b, BCmp):
        return f"{real_to_str(b.left)} {b.op} {real_to_str(b.right)}"
    raise RealError(f"not a boolean expression: {b!r}")
