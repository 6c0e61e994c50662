"""The evaluator of real-number expressions and conditions.

Angles and classical parameters in Qunity are written as closed real
expressions over ``pi``, ``euler``, integer literals, arithmetic, and a fixed
set of analytic functions.  Their nodes, like every other node of the syntax
tree, and their printer live in :mod:`qunic.core`; this module only
evaluates them.

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

:func:`step` is the evaluator: it computes the value of one operation from
the values of its operands, and every exact rule and domain check is there.
:func:`_value` is its fold over a tree.  The preprocessor calls :func:`step`
itself, once per node as it elaborates, so it never evaluates a subtree
twice, and decides a condition with :func:`compare`, which
:func:`evaluate_bool` uses too.

Two node kinds — :class:`~qunic.core.RName` and :class:`~qunic.core.RIf` —
exist only in surface syntax.  The preprocessor substitutes definitions and
resolves conditionals, so evaluation rejects them: seeing one after
preprocessing is a bug in the caller, reported as a
:class:`~qunic.errors.RealError`.

Exact parts of a value are ints while they are integral; ``/`` and a
negative ``^`` go through :class:`~fractions.Fraction` and drop back to an
int when the denominator is 1.  The three views still return Fractions.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

from .core import (
    BAnd, BCmp, BNot, BoolExpr, BOr, Real, RBinary, RConst, REuler, RIf, RName, RPi, RUnary,
)
from .errors import RealError

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
_COMPARISONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
}


def step(op: str, x: Value, y: Value | None = None) -> Value:
    """The value of ``op`` on the values ``x`` and, for a binary operator,
    ``y``: every exact rule and every domain check lives here.

    ``ceil``/``floor`` are exact on any argument; every other operation with
    no exact rule below is computed on floats.
    """
    if y is None:
        q = x[0] if isinstance(x, tuple) and x[1] == 0 else None
        if op in ("ceil", "floor"):
            rounded = math.ceil if op == "ceil" else math.floor
            return rounded(_to_float(x) if q is None else q), 0
        if op == "sqrt" and q is not None and q >= 0:
            ns, ds = math.isqrt(q.numerator), math.isqrt(q.denominator)
            if ns * ns == q.numerator and ds * ds == q.denominator:
                return _exact(Fraction(ns, ds)), 0
        args = (x,)
    else:
        if op in ("/", "%") and y in ((0, 0), 0.0):  # an exact or a float zero
            what = "division" if op == "/" else "modulus"
            raise RealError(f"{what} by zero in real expression")
        if isinstance(x, tuple) and isinstance(y, tuple):
            (a, b), (c, d) = x, y
            if op == "+":
                return a + c, b + d
            if op == "-":
                return a - c, b - d
            if op == "*" and (b == 0 or d == 0):  # no pi^2 term
                return a * c, a * d + b * c
            if op == "/" and d == 0:
                return _exact(Fraction(a, c)), _exact(Fraction(b, c))
            if op == "/" and a == 0 and c == 0:  # a ratio of pi-multiples is rational
                return _exact(Fraction(b, d)), 0
            if op == "%" and b == 0 and d == 0:
                return a % c, 0
            if op == "^" and b == 0 and d == 0 and c.denominator == 1:
                if c >= 0:
                    return a**c.numerator, 0
                if a == 0:
                    raise RealError("zero raised to a negative power")
                return _exact(Fraction(a) ** c.numerator), 0
        args = (x, y)
    fn = _FLOAT_OPS.get(op)
    if fn is None:
        raise RealError(f"unknown real operation {op!r}")
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
    shown = f"{op}({fs[0]})" if len(fs) == 1 else f"{fs[0]} {op} {fs[1]}"
    raise RealError(f"{shown} {problem}")


def _value(r: Real) -> Value:
    """The value of ``r``: :func:`step` folded over the tree, leaves up."""
    if isinstance(r, RBinary):
        return step(r.op, _value(r.left), _value(r.right))
    if isinstance(r, RUnary):
        return step(r.op, _value(r.arg))
    if isinstance(r, RConst):
        return r.value, 0
    if isinstance(r, RPi):
        return 0, 1
    if isinstance(r, REuler):
        return math.e
    if isinstance(r, RName):
        raise RealError(f"unresolved real name #{r.name} (not substituted)")
    if isinstance(r, RIf):
        raise RealError("unresolved conditional in real expression")
    raise RealError(f"not a real expression: {r!r}")


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
    n = _number(_value(r))
    return n if isinstance(n, float) else Fraction(n)


def _number(v: Value) -> Rational | float:
    """``v`` as a number: exact when it is rational, its float otherwise."""
    return v[0] if isinstance(v, tuple) and v[1] == 0 else _to_float(v)


def compare(op: str, x: Value, y: Value) -> bool:
    """Whether ``x op y`` holds, for ``op`` one of ``= != <= < >= >``.

    A rational value compares as itself and any other value as its float;
    comparisons between ints, Fractions and floats are exact in Python, with
    no rounding step.
    """
    x, y = _number(x), _number(y)
    fn = _COMPARISONS.get(op)
    if fn is None:
        raise RealError(f"unknown comparison {op!r}")
    return fn(x, y)


def evaluate_bool(b: BoolExpr) -> bool:
    """Evaluate a closed boolean expression over real comparisons."""
    if isinstance(b, BNot):
        return not evaluate_bool(b.arg)
    if isinstance(b, BAnd):
        return evaluate_bool(b.left) and evaluate_bool(b.right)
    if isinstance(b, BOr):
        return evaluate_bool(b.left) or evaluate_bool(b.right)
    if isinstance(b, BCmp):
        return compare(b.op, _value(b.left), _value(b.right))
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
