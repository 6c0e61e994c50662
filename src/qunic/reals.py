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
:func:`as_pi_multiple` are views of that value.  An exact gate angle of the
core needs none of them: it is a :class:`~qunic.core.RExact` leaf, which
holds its value.  An undefined value (division by zero, ``ln`` of a negative
number...) and a value too large for a float raise
:class:`~qunic.errors.RealError` from all three.

:func:`step` is the evaluator: it computes the value of one operation from
the values of its operands, and every exact rule and domain check is there.
:func:`_value` folds it over a term with :func:`qunic.core.fold`, without
recursion, so a flat chain of any length evaluates; an exact leaf is its own
value.  The preprocessor calls :func:`step` itself, once per node as it
elaborates, so it never evaluates a subtree twice, and decides a condition
with :func:`compare`, which :func:`evaluate_bool` uses too.

The integer rule, ``_INT_OPS``, lives in kernels only: :func:`kernel` turns
a small integer expression over ``#`` parameters into one generated
straight-line function that applies the rule and gives no value wherever
the rule leaves the case.  The elaborator runs an expression's kernel
instead of walking it, and walks it with :func:`step` when the kernel gives
no value.  Property tests in ``tests/test_reals.py`` pin the rule to
:func:`step` on ints, and each kernel to the walk: the same value and types,
or no value.

A real may also be a :class:`~qunic.core.Name` or an
:class:`~qunic.core.If` of sort ``"r"``, which exist only in surface syntax.
The preprocessor substitutes definitions and resolves conditionals, so
evaluation rejects them: seeing one after preprocessing is a bug in the
caller, reported as a :class:`~qunic.errors.RealError`.

Exact parts of a value are ints while they are integral: every exact rule
drops a :class:`~fractions.Fraction` result whose denominator is 1 back to an
int.  The three views still return Fractions.  An exact part may have at most
``EXACT_BITS`` bits: a ``^`` that would go over raises
:class:`~qunic.errors.CapacityError` before it is computed, and a ``*``,
``/`` or ``^`` that went over raises it after.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Mapping
from fractions import Fraction
from typing import Union

from .core import (
    BAnd, BCmp, BNot, BoolExpr, BOr, Name, Rational, Real, RBinary, RConst, REuler, RExact, RPi,
    RUnary, fold, sort_of,
)
from .errors import CapacityError, RealError

Number = Union[Fraction, float]

# An exact pair ``(a, b)`` stands for ``a + b*pi``; a float is always finite.
# Exact parts are ints while they are integral, and Fractions otherwise
# (core.Rational), as in the core's exact leaf, core.RExact.
Value = Union[tuple[Rational, Rational], float]

# The most bits an exact part may have (the larger of a fraction's numerator
# and denominator): well above the longest literal the parser takes (4,300
# digits, 14,284 bits) and a printable constant like 7 ^ 6000 (16,844 bits).
EXACT_BITS = 1 << 16

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


def _mul(a: int, c: int) -> int | None:
    v = a * c
    return v if v.bit_length() <= EXACT_BITS else None


def _mod(a: int, c: int) -> int | None:
    return a % c if c else None


def _div(a: int, c: int) -> int | None:
    if c and a % c == 0:
        v = a // c
        return v if v.bit_length() <= EXACT_BITS else None
    return None


def _pow(a: int, c: int) -> int | None:
    if c < 0 or (a.bit_length() - 1) * c > EXACT_BITS:
        return None
    v = a**c
    return v if v.bit_length() <= EXACT_BITS else None


# The integer rule: each operator on two ints, or None for a case that it
# leaves to the general rules: a zero divisor, a / that does not divide, a
# negative exponent, and a result over EXACT_BITS, which they refuse.  Only
# kernels apply it; where it gives a value, step gives the same on those ints
# (a property test pins it).
_INT_OPS = {"+": operator.add, "-": operator.sub, "*": _mul, "%": _mod, "/": _div, "^": _pow}


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
        if type(x) is tuple and type(y) is tuple:
            (a, b), (c, d) = x, y
            if op == "+":
                return _exact(a + c), _exact(b + d)
            if op == "-":
                return _exact(a - c), _exact(b - d)
            if op == "*" and (b == 0 or d == 0):  # no pi^2 term
                return _capped(a * c), _capped(a * d + b * c)
            if op == "/" and d == 0:
                return _capped(Fraction(a, c)), _capped(Fraction(b, c))
            if op == "/" and a == 0 and c == 0:  # a ratio of pi-multiples is rational
                return _capped(Fraction(b, d)), 0
            if op == "%" and b == 0 and d == 0:
                return _exact(a % c), 0
            if op == "^" and b == 0 and d == 0 and c.denominator == 1:
                n = c.numerator
                bits = (max(a.numerator.bit_length(), a.denominator.bit_length()) - 1) * abs(n)
                if bits > EXACT_BITS:  # a^n has at least this many: refuse it before computing it
                    raise _too_large(bits)
                if n >= 0:
                    return _capped(a**n), 0  # (1/2)^0 is Fraction(1, 1)
                if a == 0:
                    raise RealError("zero raised to a negative power")
                return _capped(Fraction(a) ** n), 0
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
    except (ValueError, ZeroDivisionError):  # a nonzero exact divisor can round to 0.0
        problem = "is undefined"
    except OverflowError:
        problem = "overflows"
    shown = f"{op}({fs[0]})" if len(fs) == 1 else f"{fs[0]} {op} {fs[1]}"
    raise RealError(f"{shown} {problem}")


# -- kernels: the integer rule, compiled -------------------------------------

# The most nodes of an expression that gets a kernel: 31 operators, as a tree
# of binary operators has an odd number of nodes.  A kernel runs in one frame
# however deep its tree, so this bounds what building one costs: its text and
# its compile grow with its nodes.  The largest expression in the prelude,
# @add_const's second argument, has 17.
KERNEL_NODES = 63

# A kernel takes the generic parameters in scope, under ("r", name) as the
# elaborator keeps them, and gives the value of its expression or None.
Kernel = Callable[[Mapping[tuple[str, str], object]], Union[Value, bool, None]]


def kernel(x: RBinary | BCmp) -> tuple[Kernel, int] | None:
    """The kernel of ``x`` and the number of parameter reads it stands for,
    or None when ``x`` has none.

    ``x`` has one when its leaves are int constants and argless ``#`` names,
    its operators are those of the integer rule, with at most one comparison,
    at the root, and it has at most ``KERNEL_NODES`` nodes.  The kernel is one
    generated function, one statement per operator, leaves up, applying
    ``_INT_OPS`` (``_COMPARISONS`` at the root) to ints, each name read once;
    it returns None where the rule leaves the case, and a constant operation
    is folded as it is built.  It gives the value that elaborating ``x``
    gives, ``(v, 0)`` or a bool, when every name is a parameter whose value is
    a pi-free int and the rule covers every operation; otherwise None, and
    elaboration walks ``x``, which gives every other value and every error.
    """
    if type(x) is BCmp:
        if x.op not in _COMPARISONS:
            return None
        nodes, stack = [x], [x.left, x.right]
    else:
        nodes, stack = [], [x]
    reads = 0
    while stack:  # the nodes in pre-order, right first: reversed, in post-order
        y = stack.pop()
        t = type(y)
        if t is RBinary and y.op in _INT_OPS:
            stack += (y.left, y.right)
        elif t is Name and y.sort == "r" and not y.args:
            reads += 1
        elif t is not RConst or type(y.value) is not int:
            return None
        nodes.append(y)
        if len(nodes) > KERNEL_NODES:
            return None
    # The text holds generated identifiers only: each constant, parameter key
    # and operator is a global, as a constant may be too long for str and a
    # name need not be an identifier.
    scope: dict[str, object] = {}
    lines = ["def run(g):"]
    # Each node's operand: a constant's value, else the local that holds its
    # value, or at a root comparison, the call that computes it.
    built: dict[int, object] = {}
    local: dict[str, str] = {}  # the local that holds each name's int
    for y in reversed(nodes):
        t = type(y)
        if t is RConst:
            built[id(y)] = y.value
        elif t is Name:
            v = local.get(y.name)
            if v is None:  # read once, and no value unless it is a pi-free int
                v = local[y.name] = f"n{len(local)}"
                lines.append(
                    f" v = g.get({_global(scope, ('r', y.name))})\n if type(v) is not tuple"
                    f" or type(v[0]) is not int or v[1] != 0: return None\n {v} = v[0]"
                )
            built[id(y)] = v
        else:
            f = _INT_OPS[y.op] if t is RBinary else _COMPARISONS[y.op]
            a, c = built[id(y.left)], built[id(y.right)]
            if type(a) is not str and type(c) is not str:
                v = built[id(y)] = f(a, c)
                if v is None:  # a constant operation that has no value
                    return None
                continue
            a, c = (v if type(v) is str else _global(scope, v) for v in (a, c))
            v = f"{_global(scope, f)}({a}, {c})"
            if t is RBinary:
                temp = f"t{len(lines)}"
                lines.append(f" {temp} = {v}\n if {temp} is None: return None")
                v = temp
            built[id(y)] = v
    v = built[id(x)]
    if type(x) is RBinary:
        v = f"{v}, 0" if type(v) is str else (v, 0)
    lines.append(f" return {v if type(v) is str else _global(scope, v)}")
    exec("\n".join(lines), scope)
    return scope["run"], reads


def _global(scope: dict[str, object], value: object) -> str:
    """A new identifier, under which ``scope`` holds ``value``."""
    name = f"c{len(scope)}"
    scope[name] = value
    return name


def _value(r: Real) -> Value:
    """The value of ``r``: :func:`step` folded over the DAG, leaves up, with
    :func:`~qunic.core.fold`, so a flat chain of any length needs no recursion
    and a shared operand is evaluated once."""
    return fold(r, _node_value, _operands)


def _operands(r: Real) -> tuple[Real, ...]:
    return (r.left, r.right) if type(r) is RBinary else (r.arg,) if type(r) is RUnary else ()


def _node_value(r: Real, operands: list[Value]) -> Value:
    t = type(r)
    if t is RBinary or t is RUnary:
        return step(r.op, *operands)
    if t is RExact:
        return r.a, r.b
    if t is RConst:
        return r.value, 0
    if t is RPi:
        return 0, 1
    if t is REuler:
        return math.e
    if sort_of(r) == "r":  # a name or an ``if``, which elaboration removes
        if t is Name:
            raise RealError(f"unresolved real name #{r.name} (not substituted)")
        raise RealError("unresolved conditional in real expression")
    raise RealError(f"not a real expression: {r!r}")


def _exact(q: Fraction) -> Rational:
    """``q`` as an int when it is integral, so exact arithmetic stays on ints."""
    return q.numerator if q.denominator == 1 else q


def _capped(q: Rational) -> Rational:
    """``_exact(q)``, if it has at most ``EXACT_BITS`` bits (the more of its
    numerator's and denominator's); a CapacityError otherwise."""
    q = _exact(q)
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if bits > EXACT_BITS:
        raise _too_large(bits)
    return q


def _too_large(bits: int) -> CapacityError:
    # A count too long to convert to a string (2 ^ 2 ^ 65535 needs 2^65535
    # bits) is shown as the power of 2 at or below it.
    shown = bits if bits < 2**64 else f"2^{bits.bit_length() - 1}"
    return CapacityError(
        f"an exact real of at least {shown} bits is over the limit of {EXACT_BITS}"
    )


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

    A rational value compares as itself, read straight from two pi-free
    values, and any other value as its float; comparisons between ints,
    Fractions and floats are exact in Python, with no rounding step.
    """
    if type(x) is tuple and type(y) is tuple and x[1] == 0 and y[1] == 0:
        x, y = x[0], y[0]
    else:
        x, y = _number(x), _number(y)
    fn = _COMPARISONS.get(op)
    if fn is None:
        raise RealError(f"unknown comparison {op!r}")
    return fn(x, y)


def evaluate_bool(b: BoolExpr) -> bool:
    """Evaluate a closed boolean expression over real comparisons.

    Recursive, not a :func:`~qunic.core.fold`: ``&&`` and ``||`` short-circuit,
    so an operand that the left one decides is not evaluated, nor its errors raised."""
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
