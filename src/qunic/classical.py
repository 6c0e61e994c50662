"""The classical evaluator: a closed core program run on one basis value.

A program is *classical* when it maps basis states to basis states: every
``u3`` in it is exactly ``u3{pi, 0, pi}``, the X gate, and it has no
``rphase`` (so no ``gphase``) and no ``try``.  Such a program is a function
on basis values, and :func:`run` computes it without building an operator,
so it reaches sizes no dense matrix does: ``@rev_adder{16}`` acts on 2^32
basis states.

A basis value is a nested tuple: ``()`` of ``Unit``, a pair ``(a, b)`` of a
product, and ``(LEFT, v)`` or ``(RIGHT, v)`` of a sum.  No types are needed:
a program is run on a value of its input type, which the patterns read as
they meet it, and an injection carries its own type.

:func:`run` is one structural recursion with one case per core node class,
and turns a :class:`RecursionError` into a
:class:`~qunic.errors.CapacityError`, as :func:`qunic.semantics.run` does.
A program maps a value to a value, or to None where no pattern of its
``lambda`` or ``pmatch`` matches (the program maps that state to nothing);
an expression maps an environment, a dict from variable names to values, to
a value or None.  ``ctrl`` and ``match`` take the first arm whose pattern
matches the scrutinee, else the ``else`` body, else None.  A pattern binds
its variables by :func:`_match`; it is built from variables, pairs, ``()``,
applications and ``ctrl``.  An injection's application reads its tag; any
other ``f(e)`` matches ``e`` against the value of ``f^dagger``, by
:func:`qunic.core.adjoint`, which builds it once per program and keeps it
on the program's node.  So ``@adjoint``'s ``pmatch [@f(x) -> x]`` runs,
as does a variant constructor with a payload, a ``lambda`` over injections.
A ``ctrl`` matches by :func:`qunic.core.ctrl_bindings`: through the first
arm whose body matches the value and whose pattern the scrutinee, evaluated
in those bindings, takes.  So the adjoint of a program built on ``ctrl``
(``@mod_mult``, ``@rev_adder``) runs.

What is not classical is refused with :class:`~qunic.errors.ClassicalError`
where the evaluation meets it, never answered: an ``rphase``, any other
``u3``, a ``try``, a pattern that applies a program with no adjoint, one
whose arm erases a variable, a ``match`` in a pattern, which erases its
scrutinee, and a value of another shape than a pair pattern, an injection
pattern or a ``u3`` reads, as nothing types the core before it runs.  An
arm that a basis value does not take is not evaluated, so it is not checked
either: on a basis value, it contributes nothing.
"""

from __future__ import annotations

from .core import (
    ExApp,
    ExCtrl,
    ExMatch,
    ExPair,
    ExUnit,
    ExVar,
    PrAbs,
    PrLeft,
    PrPmatch,
    PrRight,
    PrU3,
    RExact,
    adjoint,
    ctrl_bindings,
    to_str,
)
from .errors import CapacityError, ClassicalError

LEFT, RIGHT = "left", "right"
ZERO, ONE = (LEFT, ()), (RIGHT, ())  # &0 and &1
TAGS = {PrLeft: LEFT, PrRight: RIGHT}  # the tag of each injection


def is_x(x: PrU3) -> bool:
    """Whether the ``u3`` node ``x`` is exactly ``u3{pi, 0, pi}``, the X gate:
    read from its angles' exact leaves, as the core holds every exact angle."""
    return _exact(x.theta) == _exact(x.lam) == (0, 1) and _exact(x.phi) == (0, 0)


def _exact(r) -> tuple | None:
    """The value ``(a, b)`` of ``r``, an exact leaf, or None for any other node."""
    return (r.a, r.b) if type(r) is RExact else None


def run(x, arg):
    """The value of the program ``x`` at the value ``arg``, or of the
    expression ``x`` in the environment ``arg``; None for no value."""
    try:
        return _run(x, arg)
    except RecursionError:
        raise CapacityError("program nested too deeply to run") from None


def _run(x, arg):
    t = type(x)
    if t is ExVar:
        return arg[x.name]
    if t is ExApp:
        v = _run(x.arg, arg)
        return None if v is None else _run(x.fn, v)
    if t is ExPair:
        left, right = _run(x.left, arg), _run(x.right, arg)
        return None if left is None or right is None else (left, right)
    if t is PrAbs:
        binds = {}
        return _run(x.body, binds) if _match(x.pattern, arg, binds) else None
    if t is PrLeft or t is PrRight:
        return TAGS[t], arg
    if t is ExCtrl or t is ExMatch or t is PrPmatch:
        v = arg if t is PrPmatch else _run(x.scrutinee, arg)
        if v is None:
            return None
        for arm in x.arms:
            binds = {}
            if _match(arm.pattern, v, binds):
                return _run(arm.body, binds if t is PrPmatch else {**arg, **binds})
        return None if t is PrPmatch or x.else_body is None else _run(x.else_body, arg)
    if t is ExUnit:
        return ()
    if t is PrU3:
        if not is_x(x):
            raise ClassicalError(f"{to_str(x)} is not u3{{pi, 0, pi}}, so it is not classical")
        if arg == ZERO:
            return ONE
        if arg == ONE:
            return ZERO
        raise ClassicalError("u3 on a value that is not a bit")
    raise ClassicalError(f"{type(x).__name__} is not classical")


def _match(p, v, binds: dict) -> bool:
    """Whether the value ``v`` matches the pattern ``p``, binding its variables
    in ``binds``; a variable bound twice must match equal values."""
    t = type(p)
    if t is ExVar:
        return binds.setdefault(p.name, v) == v
    if t is ExPair:
        if not v or type(v[0]) is str:
            raise ClassicalError("a pair pattern on a value that is not a pair")
        return _match(p.left, v[0], binds) and _match(p.right, v[1], binds)
    if t is ExApp:
        tag = TAGS.get(type(p.fn))
        if tag is not None:
            if v and v[0] == tag:
                return _match(p.arg, v[1], binds)
            if not v or type(v[0]) is not str:
                raise ClassicalError("an injection pattern on a value that is not tagged")
            return False
        dagger = adjoint(p.fn)
        if dagger is None:
            raise ClassicalError("no adjoint: a pattern variable is erased")
        w = _run(dagger, v)
        return w is not None and _match(p.arg, w, binds)
    if t is ExUnit:
        return v == ()
    if t is ExCtrl:
        for got, _ in ctrl_bindings(p, v, _bindings, _run, ClassicalError):
            return all(binds.setdefault(name, w) == w for name, w in got.items())
        return False
    if t is ExMatch:
        raise ClassicalError("a match is not a pattern: a match erases its scrutinee")
    raise ClassicalError(f"{type(p).__name__} is not a pattern")


def _bindings(p, v) -> list[tuple[dict, int]]:
    """:func:`_match` as a list of ``(bindings, amplitude)``, the form that
    :func:`qunic.core.ctrl_bindings` reads."""
    binds: dict = {}
    return [(binds, 1)] if _match(p, v, binds) else []

