"""Elaboration of the syntax tree into its core subset, which has no sugar node.

Elaboration is one structural recursion, :meth:`Elaborator.elab`, with one
case per node class: a type, an expression or a program elaborates to its
core node, a real to its value and a condition to a bool.  The ``if`` of
every sort is one case, and so is a name of every sort.  It resolves all that
is "compile time" in Qunity:

* named definitions (``&x``, ``@f``, ``#r``, ``T{...}``) are instantiated at
  their concrete generic arguments and inlined, memoized per ``(name, args)``
  so recursive definitions unroll linearly, with a global budget guarding
  against unbounded recursion.  All of them live in one table keyed by
  ``(sort, name)`` and are instantiated by one routine,
  :meth:`Elaborator._named`;
* a real elaborates to its value, computed by one evaluator step
  (:func:`~qunic.reals.step`) per node from its children's values, so no
  subtree is evaluated twice.  A rational or an exact nonzero multiple of pi
  is a plain ``(a, b)`` pair for ``a + b*pi``, which generic arguments and
  memo keys hold; any other value keeps its tree.  A node is built only
  where the core needs one, an angle of ``u3``, ``rphase`` or ``gphase``,
  and each exact value becomes one node per compile, its canonical tree
  ``p``, ``p / q``, ``pi`` or ``q * pi``, so equal angles are one object;
* ``if .. then .. else .. endif`` conditionals are decided by comparing the
  values of their (closed, by the time substitution has happened) reals;
* ``let p = v in b`` becomes ``(lambda p -> b)(v)``;
* ``gphase{r}`` becomes ``rphase{x, r, r}`` on a fresh variable pattern;
* variant constructors become chains of sum injections (a single-alternative
  variant's constructor is the identity), built once per instantiation of
  their variant and shared by every use;
* a pattern is elaborated in *binding mode*: each variable it has not bound
  yet is bound by it, in the same pass that builds the core pattern, so an
  ``if`` in a pattern is decided once.  Every binder inside an inlined
  definition body gets a fresh name, so expression arguments with free
  variables can never be captured, and each ``_`` gets a fresh name per
  occurrence so it behaves as a throwaway;
* outside a pattern, a variable that no enclosing binder binds is an error
  ("unbound variable"), so a definition body never picks up a variable of
  the code that uses it;
* programs are closed: a ``lambda``, the arms of a ``pmatch`` and the
  pattern and body of a ``let`` (which become a ``lambda``) are elaborated
  from a scope with no variables, so a variable of the code around them is
  unbound inside them; a ``let`` passes what its body needs through its
  value and pattern.  An ``rphase`` needs no such scope: it has no body, and
  a pattern sees no variable it has not bound itself.

``ctrl``/``match`` ``else`` arms survive into the core untouched: expanding
them needs the scrutinee's type, which is the typechecker's business.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import ChainMap
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, Union

from .core import (
    EXPRS,
    PROGS,
    REALS,
    TYPES,
    BAnd,
    BCmp,
    BNot,
    BOr,
    CoreArm,
    CoreExpr,
    CoreType,
    Def,
    EIf,
    ELet,
    EName,
    ExApp,
    ExCtrl,
    ExMatch,
    ExPair,
    Expr,
    ExprDef,
    ExprParam,
    ExTry,
    ExUnit,
    ExVar,
    GenArg,
    Param,
    PGphase,
    PIf,
    PName,
    PrAbs,
    PrLeft,
    ProgDef,
    ProgParam,
    PrPmatch,
    PrRight,
    PrRphase,
    PrU3,
    QFile,
    RBinary,
    RConst,
    Real,
    RealDef,
    RealParam,
    REuler,
    RIf,
    RName,
    RPi,
    RUnary,
    TIf,
    TName,
    TVar,
    TypeAliasDef,
    TypeParam,
    TyProd,
    TySum,
    TyUnit,
    TyVoid,
    VariantDef,
)
from .errors import CapacityError, PreprocessError
from .parser import parse_file
from .reals import Rational, Value, compare, step

# Not called here: the benchmark's tracer hooks these three names on this
# module, so they stay importable from it.
from .reals import as_pi_multiple, as_rational, evaluate_bool  # noqa: F401

UNROLL_BUDGET = 10_000

# The sorts of names: "t" types, "e" expressions, "f" programs, "r" reals, and
# "c" constructors, whose definition is their variant.
_DEF_SORTS = {TypeAliasDef: "t", VariantDef: "t", ExprDef: "e", ProgDef: "f", RealDef: "r"}
_OWNERS = {"t": "type ", "e": "&", "f": "@", "r": "#", "c": "constructor "}
# Parameter class -> (sort, sigil, what an argument must be, the node classes
# of its syntactic class).
_PARAMS = {
    TypeParam: ("t", "'", "a type", TYPES),
    ExprParam: ("e", "&", "an expression", EXPRS),
    ProgParam: ("f", "@", "a program", PROGS),
    RealParam: ("r", "#", "a real", REALS),
}
# Name class -> (its sort, what an unknown name of that class is called).
_NAMES = {
    RName: ("r", "real definition #"),
    EName: ("e", "expression definition &"),
    PName: ("f", "program definition @"),
    TName: ("t", "type "),
}


def default_prelude_text() -> str:
    return resources.files("qunic").joinpath("prelude.qunity").read_text(encoding="utf-8")


@functools.cache
def load_prelude_defs() -> tuple[Def, ...]:
    """The prelude's definitions, parsed on the first call and shared after it.

    The prelude is parsed once per process, never at import.  Sharing is safe
    because definitions, like every node, are frozen ``core._Node`` dataclasses
    with tuple fields, and each :class:`Elaborator` copies the definitions
    into a table of its own.
    """
    qf = parse_file(default_prelude_text())
    if qf.main is not None:
        raise PreprocessError("a prelude file must not contain a main expression")
    return qf.defs


@dataclass(frozen=True)
class _Env:
    """Scope for one elaboration region.

    ``generics`` maps ``(sort, name)`` of generic parameters to their
    already-elaborated values; it is replaced wholesale when entering a
    definition body.  ``qrename`` maps each variable in scope to its core
    name; ``fresh`` is set inside definition bodies so that every binder gets
    a new name.

    ``binds`` is set while a pattern is elaborated (binding mode) and collects
    the names that pattern binds.  In binding mode ``qrename`` holds only what
    the pattern, and binders nested inside it, have bound so far: a variable
    not in it is bound by the pattern, and every ``_`` is bound afresh.
    Outside binding mode a variable not in ``qrename`` is unbound, an error.
    """

    generics: dict[tuple[str, str], object] = field(default_factory=dict)
    qrename: Mapping[str, str] = field(default_factory=dict)
    fresh: bool = False
    binds: dict[str, str] | None = None


class _Inexact:
    """An elaborated real with no canonical tree: a float, or an exact
    ``a + b*pi`` with ``a`` and ``b`` both nonzero.

    It keeps its tree, whose exact subtrees are canonical, with its value, and
    compares and hashes by the tree alone, so two such reals are one memo key
    exactly when their trees are equal.
    """

    __slots__ = ("node", "value")

    def __init__(self, node: Real, value: Value) -> None:
        self.node = node
        self.value = value

    def __eq__(self, other: object) -> bool:
        return type(other) is _Inexact and self.node == other.node

    def __hash__(self) -> int:
        return hash(self.node)


RealValue = Union[tuple[Rational, Rational], _Inexact]


def _plain(v: RealValue) -> Value:
    """The value of an elaborated real, as :func:`~qunic.reals.step` takes it."""
    return v.value if type(v) is _Inexact else v


class Elaborator:
    def __init__(self, defs: tuple[Def, ...]) -> None:
        self.defs: dict[tuple[str, str], Def] = {}  # (sort, name) -> definition
        self.ctors: dict[str, int] = {}  # constructor -> its alternative's index
        self._memo: dict[object, object] = {}
        # The node of each exact real value that the core holds, so that equal
        # angles of one compile are one object.
        self._reals: dict[tuple[Rational, Rational], Real] = {}
        # Instantiations under way, innermost last, mapped to their names.  An
        # entry stays when its instantiation raises, so after an error the
        # table reads as the chain of instantiations that led to it.
        self._in_progress: dict[object, str] = {}
        self._used = 0
        self._counter = itertools.count()
        for d in defs:
            self._register(d)

    # -- definition table ----------------------------------------------------

    def _register(self, d: Def) -> None:
        sort = _DEF_SORTS.get(type(d))
        if sort is None:
            raise PreprocessError(f"unknown definition form: {d!r}")
        what = _OWNERS[sort] + d.name
        if (sort, d.name) in self.defs or (sort in "ef" and d.name in self.ctors):
            kind = f"type definition {d.name}" if sort == "t" else f"definition {what}"
            raise PreprocessError(f"duplicate {kind}")
        seen = set()
        for p in d.params:
            if type(p) not in _PARAMS:
                raise PreprocessError(f"unknown parameter form: {p!r}")
            psort, sigil = _PARAMS[type(p)][:2]
            if (psort, p.name) in seen:
                raise PreprocessError(f"duplicate parameter {sigil}{p.name} in {what}")
            seen.add((psort, p.name))
        self.defs[sort, d.name] = d
        if isinstance(d, VariantDef):
            for i, alt in enumerate(d.alts):
                sort = "e" if alt.payload is None else "f"
                if alt.name in self.ctors or (sort, alt.name) in self.defs:
                    raise PreprocessError(
                        f"constructor {_OWNERS[sort]}{alt.name} clashes with an existing name"
                    )
                self.ctors[alt.name] = i
                self.defs["c", alt.name] = d

    def _fresh(self, base: str) -> str:
        return f"{base}%{next(self._counter)}"

    def _tick(self, what: str) -> None:
        self._used += 1
        if self._used > UNROLL_BUDGET:
            raise CapacityError(
                f"definition unrolling exceeded {UNROLL_BUDGET} instantiations "
                f"(last at {what}); is a recursive definition missing its base case?"
            )

    # -- names and generic arguments -------------------------------------------

    def _named(self, sort: str, name: str, args: tuple[GenArg, ...], env: _Env):
        """The value of the name ``name`` of ``sort`` at ``args``, or None if
        there is neither a generic parameter nor a definition of that name.

        A definition is instantiated once per elaborated argument tuple, in a
        scope of its own, and memoized under ``(sort, name, args)``; a
        variant, reached from a type name or a constructor, under ``("v",
        variant, args)`` as its sum type and its constructors' core values.
        The body is elaborated from this frame, with no helper between, because
        every frame per instantiation level lowers the largest program that
        compiles.
        """
        got = env.generics.get((sort, name)) if sort in "efr" else None
        if got is not None:
            if args:
                raise PreprocessError(f"parameter {_OWNERS[sort]}{name} takes no arguments")
            return got
        d = self.defs.get((sort, name))
        if d is None:
            return None
        what = _OWNERS[sort] + name
        bound, key = self._elab_args(what, d.params, args, env)
        variant = isinstance(d, VariantDef)
        if variant:
            memo_key, what = ("v", d.name, key), f"type {d.name}"
        else:
            memo_key = (sort, name, key)
        if memo_key in self._memo:
            return self._memo[memo_key]
        if memo_key in self._in_progress:
            raise PreprocessError(f"{what} recursively instantiates itself at the same arguments")
        self._in_progress[memo_key] = what
        self._tick(what)
        inner = _Env(bound, fresh=sort in "ef")
        if variant:
            payloads = tuple(
                TyUnit() if alt.payload is None else self.elab(alt.payload, inner)
                for alt in d.alts
            )
            result = self._variant(d, payloads)
        else:
            result = self.elab(d.body, inner)
        del self._in_progress[memo_key]
        self._memo[memo_key] = result
        return result

    def _variant(self, d: VariantDef, payloads: tuple[CoreType, ...]) -> tuple[CoreType, tuple]:
        """The sum type of ``d`` at these payload types and each constructor's core value.

        Alternatives nest to the right, ``A + (B + C)``: constructor ``i`` is
        ``i`` ``right`` injections, then a ``left`` unless it is the last,
        applied to ``()`` when nullary.  With a payload it is its one
        injection, or its injections under one ``lambda`` (the identity when
        there is one alternative).
        """
        tails = [payloads[-1]]  # tails[i]: the sum of the alternatives from i on
        for p in reversed(payloads[:-1]):
            tails.insert(0, TySum(p, tails[0]))
        rights = [PrRight(p, tail) for p, tail in zip(payloads, tails[1:])]
        unit, values = ExUnit(), []
        for i, alt in enumerate(d.alts):
            chain = rights[:i]
            if i < len(rights):
                chain.append(PrLeft(payloads[i], tails[i + 1]))
            if alt.payload is not None and len(chain) == 1:
                values.append(chain[0])
                continue
            x = unit if alt.payload is None else ExVar(self._fresh("x"))
            e = x
            for f in reversed(chain):
                e = ExApp(f, e)
            values.append(e if x is unit else PrAbs(x, e))
        return tails[0], tuple(values)

    def _elab_args(
        self, owner: str, params: tuple[Param, ...], args: tuple[GenArg, ...], env: _Env
    ) -> tuple[dict[tuple[str, str], object], tuple[object, ...]]:
        if len(params) != len(args):
            raise PreprocessError(
                f"{owner} expects {len(params)} generic argument(s), got {len(args)}"
            )
        bound: dict[tuple[str, str], object] = {}
        for p, a in zip(params, args):
            sort, sigil, kind, nodes = _PARAMS[type(p)]
            if not isinstance(a, nodes):
                raise PreprocessError(f"{owner}: argument for {sigil}{p.name} must be {kind}")
            bound[sort, p.name] = self.elab(a, env)
        # _register rejects repeated parameters, so there is one value per argument
        return bound, tuple(bound.values())

    # -- the one recursion ---------------------------------------------------------

    def elab(self, x, env: _Env):
        """The core node of a type, expression or program ``x``, the
        :data:`RealValue` of a real, or the bool of a condition.

        One case per node class, most frequent first.  A core leaf is returned
        as it is; an inexact real keeps the tree of ``x`` over its children's
        nodes.  Callers call this directly, so each level of the term costs
        one frame.
        """
        # Every call sets up a slot for each local, and this recursion is as
        # deep as the term, so the cases share ``left``, ``right`` and ``v``.
        t = type(x)
        if t is RConst:
            return x.value, 0
        if t is RBinary:
            left, right = self.elab(x.left, env), self.elab(x.right, env)
            v = step(x.op, _plain(left), _plain(right))
            if type(v) is tuple and (v[1] == 0 or v[0] == 0):
                return v
            return _Inexact(RBinary(x.op, self._real_node(left), self._real_node(right)), v)
        if t is RName or t is EName or t is PName or t is TName:
            left, right = _NAMES[t]  # the sort, and what an unknown name is called
            v = self._named(left, x.name, x.args, env)
            if v is not None:
                return v[0] if t is TName and type(v) is tuple else v  # a variant: its sum type
            if left in "ef" and x.name in self.ctors:
                v = self.ctors[x.name]
                if (self.defs["c", x.name].alts[v].payload is None) == (left == "f"):
                    raise PreprocessError(
                        f"&{x.name} is a nullary constructor, not a program"
                        if left == "f"
                        else f"@{x.name} carries a payload and must be applied"
                    )
                return self._named("c", x.name, x.args, env)[1][v]
            raise PreprocessError(f"unknown {right}{x.name}")
        if t is ExVar:
            v = env.qrename.get(x.name)
            if env.binds is not None and (v is None or x.name == "_"):
                v = self._fresh(x.name) if env.fresh or x.name == "_" else x.name
                env.binds[x.name] = v
            elif v is None:
                raise PreprocessError(f"unbound variable {x.name}")
            return ExVar(v)
        if t is ExPair:
            return ExPair(self.elab(x.left, env), self.elab(x.right, env))
        if t is BCmp:
            return compare(x.op, _plain(self.elab(x.left, env)), _plain(self.elab(x.right, env)))
        if t is ExApp:
            return ExApp(self.elab(x.fn, env), self.elab(x.arg, env))
        if t is EIf or t is PIf or t is RIf or t is TIf:
            return self.elab(x.then if self.elab(x.cond, env) else x.els, env)
        if t is PrPmatch:
            return PrPmatch(self._elab_arms(x.arms, _Env(env.generics, {}, env.fresh)))
        if t is PrAbs:
            left, right = self._pattern(x.pattern, _Env(env.generics, {}, env.fresh))
            return PrAbs(left, self.elab(x.body, right))
        if t is ELet:
            v = self.elab(x.value, env)
            left, right = self._pattern(x.pattern, _Env(env.generics, {}, env.fresh))
            return ExApp(PrAbs(left, self.elab(x.body, right)), v)
        if t is ExCtrl or t is ExMatch:
            left, right = self.elab(x.scrutinee, env), self._elab_arms(x.arms, env)
            v = None if x.else_body is None else self.elab(x.else_body, env)
            return t(left, right, v)
        if t is TVar:
            v = env.generics.get(("t", x.name))
            if v is None:
                raise PreprocessError(f"unbound type variable '{x.name}")
            return v
        if t is RPi:
            return 0, 1
        if t is PrRphase:
            left = self._pattern(x.pattern, env)[0]
            right, v = self.elab(x.on_phase, env), self.elab(x.off_phase, env)
            return PrRphase(left, self._real_node(right), self._real_node(v))
        if t is TyProd:
            return TyProd(self.elab(x.left, env), self.elab(x.right, env))
        if t is PGphase:
            v = self._real_node(self.elab(x.phase, env))
            return PrRphase(ExVar(self._fresh("_")), v, v)
        if t is ExUnit or t is TyUnit or t is TyVoid:
            return x
        if t is PrU3:
            left, right, v = self.elab(x.theta, env), self.elab(x.phi, env), self.elab(x.lam, env)
            return PrU3(self._real_node(left), self._real_node(right), self._real_node(v))
        if t is RUnary:
            left = self.elab(x.arg, env)
            v = step(x.op, _plain(left))
            if type(v) is tuple and (v[1] == 0 or v[0] == 0):
                return v
            return _Inexact(RUnary(x.op, self._real_node(left)), v)
        if t is ExTry:
            return ExTry(self.elab(x.attempt, env), self.elab(x.fallback, env))
        if t is BNot:
            return not self.elab(x.arg, env)
        if t is BAnd:
            return self.elab(x.left, env) and self.elab(x.right, env)
        if t is BOr:
            return self.elab(x.left, env) or self.elab(x.right, env)
        if t is REuler:
            return _Inexact(x, math.e)
        raise PreprocessError(f"cannot elaborate {x!r}")

    def _real_node(self, v: RealValue) -> Real:
        """The node of the value ``v``: an inexact value's own tree, or the
        canonical tree of an exact one, built once per compile."""
        if type(v) is _Inexact:
            return v.node
        node = self._reals.get(v)
        if node is None:
            a, b = v
            if b == 0:
                node = _frac_tree(a)
            else:
                node = RPi() if b == 1 else RBinary("*", _frac_tree(b), RPi())
            self._reals[v] = node
        return node

    def _pattern(self, p: Expr, env: _Env) -> tuple[CoreExpr, _Env]:
        """Elaborate ``p`` in binding mode; return it and the scope it opens.

        A pattern nested in another one (an arm inside a pattern) opens its
        scope over the enclosing pattern's, which is still binding.
        """
        binds: dict[str, str] = {}
        pattern = self.elab(p, _Env(env.generics, binds, env.fresh, binds))
        if env.binds is None:
            return pattern, _Env(env.generics, {**env.qrename, **binds}, env.fresh)
        return pattern, _Env(env.generics, ChainMap(binds, env.qrename), env.fresh, env.binds)

    def _elab_arms(self, arms: tuple[CoreArm, ...], env: _Env) -> tuple[CoreArm, ...]:
        out = []
        for arm in arms:  # a loop, not a generator, so an arm costs no frame of its own
            pattern, inner = self._pattern(arm.pattern, env)
            out.append(CoreArm(pattern, self.elab(arm.body, inner)))
        return tuple(out)


def _frac_tree(q: Rational) -> Real:
    if q.denominator == 1:
        return RConst(q.numerator)
    return RBinary("/", RConst(q.numerator), RConst(q.denominator))


def elaborate_file(qf: QFile, prelude: tuple[Def, ...] = ()) -> CoreExpr:
    """Elaborate a parsed file's main expression against its definitions."""
    if qf.main is None:
        raise PreprocessError("program has no main expression")
    el = Elaborator(tuple(prelude) + qf.defs)
    try:
        return el.elab(qf.main, _Env())
    except RecursionError:
        where = next(reversed(el._in_progress.values()), "the main expression")
        raise CapacityError(
            f"elaboration nested too deeply (innermost at {where}, after {el._used} "
            "instantiations): the program is too large, or a recursive definition "
            "is missing its base case"
        ) from None


def core_of_source(source: str, use_prelude: bool = True) -> CoreExpr:
    """Parse and elaborate source text in one step (the common entry point).

    The prelude is parsed once per process, by the first call that uses it;
    with ``use_prelude=False`` it is never read.
    """
    prelude = load_prelude_defs() if use_prelude else ()
    return elaborate_file(parse_file(source), prelude)
