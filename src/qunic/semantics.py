"""The reference semantics: a closed core program run on sparse states, with no types.

This follows the semantics of Qunity (Voichick, Li, Rand, Hicks, "Qunity: A
Unified Language for Quantum and Classical Computing", POPL 2023), on basis
values instead of typed vectors, so that it reaches the prelude's workloads:
a state holds only the basis values that have an amplitude.  It is the one
evaluator of the core.

A basis value is a nested tuple: ``()`` of ``Unit``, a pair ``(a, b)`` of a
product, and ``(LEFT, v)`` or ``(RIGHT, v)`` of a sum (``TAGS``), so ``&0``
is ``ZERO``, ``(LEFT, ())``, and ``&1`` is ``ONE``, ``(RIGHT, ())``.  No
types are needed: a program runs on a value of its input type, which the
patterns read as they meet it, and an injection carries its own type.
:func:`is_x` tells the X gate by its exact angles, so a program of X gates,
injections and patterns maps a basis value to one basis value exactly.

A *state* is a dict from ``(value, garbage)`` to a complex amplitude, where
the garbage is a tuple of erased basis values: the state is a purification,
and the probability of an output ``w`` is the sum of ``|a(w, g)|^2`` over the
garbage ``g`` (:func:`probabilities`).  By linearity, it is enough to run a
program on one basis value and an expression in one basis environment, a
dict from variable names to values.  :func:`value` is for a caller that
wants one basis value: it reads the state's one entry, at amplitude 1, and
drops its garbage; it gives None for the empty state and refuses any other.

:func:`run` is one structural recursion with one case per core node class,
memoized on ``(id(program), basis value)`` for one run
(:class:`Semantics`).  Its rules:

* ``u3`` is its matrix, and exactly ``u3{pi, 0, pi}`` is X with no rounding;
  an injection tags its value; a pair is the product of its two states; an
  application runs the program on each value of its argument's state.
* A pattern ``p`` is matched against ``v`` by computing ``[[p]]^dagger v``
  (:meth:`Semantics.match`): variables, pairs, ``()`` and injections bind or
  fail, and an application ``f(e)`` matches ``e`` against the state of
  ``f^dagger`` at ``v``, where ``f^dagger`` is :func:`qunic.core.adjoint`'s
  program, built once per ``f`` and kept on it.  So ``@adjoint``'s
  ``pmatch [@f(x) -> x]`` needs no type.  A program whose arm erases a variable is refused when its
  adjoint is built, before any arm is tried; so is an adjoint that leaves
  garbage.  A ``ctrl`` matches by its :func:`qunic.core.ctrl_arms`, or is
  refused before any arm: for each arm, each binding of its body at ``v``
  under which the scrutinee, a basis value, takes that arm.  A ``match`` in
  a pattern is refused: it erases its scrutinee.
* ``lambda``, ``pmatch``, ``ctrl`` and ``match`` take, for each arm, the
  body at what the pattern binds, weighted by the match's amplitude, and stop
  at the first arm that takes all of ``v``; so on basis patterns the first
  arm that matches is taken.  A ``ctrl``'s scrutinee is classical: it is
  read by :meth:`Semantics.value`, so one that is not one basis value, as
  ``@had(x)``, is refused.  ``else`` is taken where no pattern takes any
  of ``v``, which on basis patterns is ``I - sum_j [[p_j]][[p_j]]^dagger``;
  after a superposed pattern that takes part of ``v``, the ``else`` body
  would need the rest expanded into patterns by its type, so it is refused.
* ``rphase{e, r, r'}`` maps ``v`` to
  ``e^(i r') v + (e^(i r) - e^(i r')) [[e]][[e]]^dagger v``; the pattern
  ``e`` may be a superposition, as in ``@reflect{&equal_superpos}``.
* Erasure: a ``lambda`` or ``pmatch`` variable that is bound but not free in
  its body goes to the garbage in :func:`qunic.core.erased`'s order, by name
  as strings, so ``v%10`` comes before ``v%2``.  A ``match`` puts its
  scrutinee's value in the garbage, and so keeps a superposed scrutinee.  A
  ``ctrl`` drops its scrutinee's garbage: the scrutinee is uncomputed, as
  its context is classical.  (The typing rules of Qunity are to confirm both
  readings.)
* ``try`` is refused.

What the semantics does not define is refused with
:class:`~qunic.errors.SemanticsError`, never answered: among it a value of
another shape than a pair pattern, an injection pattern or a ``u3`` reads,
as nothing types the core before it runs.  A program nested too deeply for
the interpreter's stack raises :class:`~qunic.errors.CapacityError`, in
:func:`run` and :func:`value`.  Amplitudes below ``EPS`` in magnitude are
dropped, so cancelled branches leave the state.
"""

from __future__ import annotations

import cmath
import math

from .core import (
    CORE_PROGS,
    ExApp,
    ExCtrl,
    ExMatch,
    ExPair,
    ExTry,
    ExUnit,
    ExVar,
    PrAbs,
    PrLeft,
    PrPmatch,
    PrRight,
    PrU3,
    RExact,
    adjoint,
    ctrl_arms,
    erased,
)
from .errors import CapacityError, SemanticsError
from .reals import evaluate_real

EPS = 1e-12
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


def run(x, arg) -> dict:
    """The state of the program ``x`` at the value ``arg``, or of the
    expression ``x`` in the environment ``arg``, by a :class:`Semantics` of
    its own."""
    return Semantics().run(x, arg)


def value(x, arg):
    """The basis value of the program ``x`` at the value ``arg``, or of the
    expression ``x`` in the environment ``arg``, by a :class:`Semantics` of
    its own: the one entry of its state, at amplitude 1.  None for the empty
    state; any other state raises :class:`~qunic.errors.SemanticsError`."""
    return Semantics().value(x, arg)


def probabilities(state: dict) -> dict:
    """The probability of each value of ``state``, its garbage traced out."""
    out: dict = {}
    for (v, _), a in state.items():
        out[v] = out.get(v, 0.0) + abs(a) ** 2
    return out


def _phase(r) -> complex:
    """``e^(i r)``, exact where ``r`` is an exact leaf ``b*pi`` with ``2b`` whole."""
    if type(r) is RExact and r.a == 0 and (2 * r.b).denominator == 1:
        return (1, 1j, -1, -1j)[int(2 * r.b) % 4]
    return cmath.exp(1j * float(evaluate_real(r)))


def _u3(x, v) -> dict:
    """The column of ``x``'s matrix at ``v``, ``&0`` or ``&1``."""
    if v != ZERO and v != ONE:
        raise SemanticsError("u3 on a value that is not a bit")
    if is_x(x):
        return {ONE if v == ZERO else ZERO: 1}  # X, exactly
    theta = float(evaluate_real(x.theta))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if v == ZERO:
        return _pruned({ZERO: c, ONE: _phase(x.phi) * s})
    lam = _phase(x.lam)
    return _pruned({ZERO: -lam * s, ONE: _phase(x.phi) * lam * c})


def _agree(a: dict, b: dict) -> bool:
    """Whether a variable that both bindings bind has one value in both."""
    return all(a.get(name, w) == w for name, w in b.items())


def _add(out: dict, key, a) -> None:
    out[key] = out.get(key, 0) + a


def _pruned(out: dict) -> dict:
    return {k: a for k, a in out.items() if abs(a) > EPS}


class Semantics:
    """The memos of one run: one call of :func:`run` or :func:`value`, or
    the calls of one object's :meth:`run` and :meth:`value`, which share them
    (on several inputs of a program).

    ``memo`` keeps the state of each program at each input, so a ``u3``'s
    column and an ``rphase``'s phases are computed once per input, and
    ``erased`` the variables that each arm of a program erases.  A memo is
    keyed by a node's ``id`` and keeps the node beside its entry, so no id is
    reused while the object lives: one object may run the programs of several
    compiles, each core freed after its runs.
    """

    def __init__(self) -> None:
        self.memo: dict = {}  # (id(program), value) -> (program, its state)
        # id(arm) -> (arm, the names its pattern binds that its body does not use)
        self.erased: dict = {}

    def run(self, x, arg) -> dict:
        """The state of ``x`` at ``arg``, as :func:`run` gives it."""
        try:
            return self._run(x, arg)
        except RecursionError:
            raise CapacityError("program nested too deeply to run") from None

    def _run(self, x, arg) -> dict:
        t = type(x)
        if t in CORE_PROGS:
            key = (id(x), arg)
            entry = self.memo.get(key)
            if entry is None:
                entry = self.memo[key] = x, self._program(x, t, arg)
            return entry[1]
        if t is ExVar:
            return {(arg[x.name], ()): 1}
        if t is ExApp:
            out: dict = {}
            for (v, g), a in self._run(x.arg, arg).items():
                for (w, h), b in self._run(x.fn, v).items():
                    _add(out, (w, g + h), a * b)
            return _pruned(out)
        if t is ExPair:
            right = self._run(x.right, arg)
            out = {}
            for (v, g), a in self._run(x.left, arg).items():
                for (w, h), b in right.items():
                    _add(out, ((v, w), g + h), a * b)
            return out
        if t is ExUnit:
            return {((), ()): 1}
        if t is ExCtrl:
            v = self.value(x.scrutinee, arg)
            return {} if v is None else self._arms(x.arms, v, arg, x.else_body)
        if t is ExMatch:
            out = {}
            for (v, g), a in self._run(x.scrutinee, arg).items():
                for (w, h), b in self._arms(x.arms, v, arg, x.else_body).items():
                    _add(out, (w, (*g, v) + h), a * b)
            return _pruned(out)
        if t is ExTry:
            raise SemanticsError("try is not defined on sparse states yet")
        raise SemanticsError(f"{t.__name__} is not a core expression or program")

    def _program(self, x, t, v) -> dict:
        if t is PrAbs or t is PrPmatch:
            arms = (x,) if t is PrAbs else x.arms
            return self._arms(arms, v, None, None)
        if t is PrLeft or t is PrRight:
            return {((TAGS[t], v), ()): 1}
        out = _u3(x, v) if t is PrU3 else self._rphase(x, v)
        return {(w, ()): a for w, a in out.items()}

    def _arms(self, arms, v, env, else_body) -> dict:
        """``sum_j [[body_j]][[pattern_j]]^dagger v`` over ``arms``, or the
        ``else`` body where no pattern takes any of ``v``.

        ``env`` is None for the arms of a program, which erase what their
        body does not use, else the scope of a ``ctrl`` or ``match``.  The
        arms stop at the first one that takes all of ``v``.
        """
        out: dict = {}
        weight = 0.0
        for arm in arms:
            erased = self._erased(arm) if env is None else ()
            for binds, a in self.match(arm.pattern, v):
                kept = tuple(binds[name] for name in erased)
                scope = binds if env is None else {**env, **binds}
                for (w, h), b in self._run(arm.body, scope).items():
                    _add(out, (w, kept + h), a * b)
                weight += abs(a) ** 2
            if weight > 1 - EPS:
                return _pruned(out)
        if else_body is not None:
            if weight > EPS:
                raise SemanticsError("an else arm after a pattern that takes part of a value")
            out = self._run(else_body, env)
        return _pruned(out)

    def _erased(self, arm) -> tuple[str, ...]:
        entry = self.erased.get(id(arm))
        if entry is None:
            entry = self.erased[id(arm)] = arm, erased(arm)
        return entry[1]

    def _rphase(self, x, v) -> dict:
        """``rphase``'s image of ``v``."""
        on, off = _phase(x.on_phase), _phase(x.off_phase)
        out = {v: off}
        if on != off:
            for binds, a in self.match(x.pattern, v):
                for (w, _), b in self._run(x.pattern, binds).items():
                    _add(out, w, (on - off) * a * b)
        return _pruned(out)

    def match(self, p, v) -> list[tuple[dict, complex]]:
        """``[[p]]^dagger v``: each binding of ``p``'s variables with its amplitude."""
        t = type(p)
        if t is ExVar:
            return [({p.name: v}, 1)]
        if t is ExPair:
            if not v or type(v[0]) is str:
                raise SemanticsError("a pair pattern on a value that is not a pair")
            out = []
            for left, a in self.match(p.left, v[0]):
                for right, b in self.match(p.right, v[1]):
                    if _agree(left, right):
                        out.append(({**left, **right}, a * b))
            return out
        if t is ExApp:
            tag = TAGS.get(type(p.fn))
            if tag is not None:
                if v and v[0] == tag:
                    return self.match(p.arg, v[1])
                if not v or type(v[0]) is not str:
                    raise SemanticsError("an injection pattern on a value that is not tagged")
                return []
            dagger = adjoint(p.fn)
            if dagger is None:
                raise SemanticsError("no adjoint: a pattern variable is erased")
            out = []
            for (w, g), a in self._run(dagger, v).items():
                if g:
                    raise SemanticsError("no adjoint: a pattern erases a value")
                out += [(binds, a * b) for binds, b in self.match(p.arg, w)]
            return out
        if t is ExUnit:
            return [({}, 1)] if v == () else []
        if t is ExCtrl:
            return self._ctrl(p, v)
        if t is ExMatch:
            raise SemanticsError("a match is not a pattern: a match erases its scrutinee")
        raise SemanticsError(f"{t.__name__} is not a pattern")

    def _ctrl(self, p, v) -> list[tuple[dict, complex]]:
        """The ``ctrl`` ``p`` read as a pattern at ``v``: each arm of
        :func:`qunic.core.ctrl_arms` gives each binding B of ``v`` against its
        body under which the scrutinee, read in B less the arm's own
        variables, takes that arm with the values B gives them."""
        arms = ctrl_arms(p)
        if type(arms) is str:
            raise SemanticsError(arms)
        out = []
        for j, (body, own) in enumerate(arms):
            for binds, a in self.match(body, v):
                outer = {name: w for name, w in binds.items() if name not in own}
                u = self.value(p.scrutinee, outer)
                if u is None or any(self.match(arm.pattern, u) for arm in p.arms[:j]):
                    continue  # no value, or one that an earlier arm takes
                # the else arm takes what no pattern matches, binding nothing
                got = self.match(p.arms[j].pattern, u) if j < len(p.arms) else [({}, 1)]
                out += [(outer, a * b) for inner, b in got if _agree(binds, inner)]
        return out

    def value(self, e, env):
        """The basis value of ``e`` in ``env``, as :func:`value` gives it; its
        garbage is dropped, as ``ctrl`` drops its scrutinee's."""
        state = self.run(e, env)
        if not state:
            return None
        ((w, _), a), *rest = state.items()
        if rest or abs(a - 1) > EPS:
            what = f"the state of {type(e).__name__}"
            if rest:
                raise SemanticsError(f"{what} has {len(state)} entries, not one basis value")
            raise SemanticsError(f"{what} is one basis value at amplitude {a:.6g}, not 1")
        return w
