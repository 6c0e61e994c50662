"""Elaboration of the syntax tree into its core subset, which has no sugar node.

This stage resolves everything that is "compile time" in Qunity:

* named definitions (``&x``, ``@f``, ``#r``, ``T{...}``) are instantiated at
  their concrete generic arguments and inlined, memoized per ``(name, args)``
  so recursive definitions unroll linearly, with a global budget guarding
  against unbounded recursion.  All of them live in one table keyed by
  ``(sort, name)`` and are instantiated by one routine,
  :meth:`Elaborator._named`;
* ``if .. then .. else .. endif`` conditionals are decided by evaluating
  their (closed, by the time substitution has happened) real comparisons;
* ``let p = v in b`` becomes ``(lambda p -> b)(v)``;
* ``gphase{r}`` becomes ``rphase{x, r, r}`` on a fresh variable pattern;
* variant constructors become chains of sum injections (a single-alternative
  variant's constructor is the identity);
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
from collections import ChainMap
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

from . import reals, surface
from .core import (
    _EXPR_NODES,
    _PROG_NODES,
    _TYPE_NODES,
    CoreArm,
    CoreExpr,
    CoreProg,
    CoreType,
    EIf,
    ELet,
    EName,
    ExApp,
    ExCtrl,
    ExMatch,
    ExPair,
    Expr,
    ExTry,
    ExUnit,
    ExVar,
    GenArg,
    PGphase,
    PIf,
    PName,
    PrAbs,
    PrLeft,
    PrPmatch,
    Prog,
    PrRight,
    PrRphase,
    PrU3,
    TIf,
    TName,
    TVar,
    TyProd,
    Type,
    TySum,
    TyUnit,
    TyVoid,
)
from .errors import CapacityError, PreprocessError
from .parser import parse_file
from .reals import (
    BoolExpr,
    RBinary,
    RConst,
    RIf,
    RName,
    RPi,
    Real,
    as_pi_multiple,
    as_rational,
    evaluate_bool,
)
from .surface import (
    ExprDef,
    ExprParam,
    Param,
    ProgDef,
    ProgParam,
    QFile,
    RealDef,
    RealParam,
    TypeAliasDef,
    TypeParam,
    VariantDef,
)

UNROLL_BUDGET = 10_000

_REAL_NODES = (reals.RConst, reals.RPi, reals.REuler, reals.RUnary, RBinary, RName, RIf)

# The sorts of names: "t" types, "e" expressions, "f" programs, "r" reals, and
# "c" constructors, whose definition is their variant.
_DEF_SORTS = {TypeAliasDef: "t", VariantDef: "t", ExprDef: "e", ProgDef: "f", RealDef: "r"}
_OWNERS = {"t": "type ", "e": "&", "f": "@", "r": "#", "c": "constructor "}
# Parameter class -> (sort, sigil, what an argument must be, its node classes).
_PARAMS = {
    TypeParam: ("t", "'", "a type", _TYPE_NODES),
    ExprParam: ("e", "&", "an expression", _EXPR_NODES),
    ProgParam: ("f", "@", "a program", _PROG_NODES),
    RealParam: ("r", "#", "a real", _REAL_NODES),
}


def default_prelude_text() -> str:
    return resources.files("qunic").joinpath("prelude.qunity").read_text(encoding="utf-8")


@functools.cache
def load_prelude_defs() -> tuple[surface.Def, ...]:
    """The prelude's definitions, parsed on the first call and shared after it.

    The prelude is parsed once per process, never at import.  Sharing is safe
    because surface nodes are frozen dataclasses with tuple fields, and each
    :class:`Elaborator` copies the definitions into a table of its own.
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


class Elaborator:
    def __init__(self, defs: tuple[surface.Def, ...]) -> None:
        self.defs: dict[tuple[str, str], surface.Def] = {}  # (sort, name) -> definition
        self.ctors: dict[str, int] = {}  # constructor -> its alternative's index
        self._memo: dict[object, object] = {}
        # Instantiations under way, innermost last, mapped to their names.  An
        # entry stays when its instantiation raises, so after an error the
        # table reads as the chain of instantiations that led to it.
        self._in_progress: dict[object, str] = {}
        self._used = 0
        self._counter = itertools.count()
        for d in defs:
            self._register(d)

    # -- definition table ----------------------------------------------------

    def _register(self, d: surface.Def) -> None:
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
        variant's payload types, reached from a type name or a constructor,
        under ``("v", variant, args)``.  The body is elaborated from this
        frame, with no helper between, because every frame per instantiation
        level lowers the largest program that compiles.
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
            result = tuple(
                TyUnit() if alt.payload is None else self.elab_type(alt.payload, inner)
                for alt in d.alts
            )
        else:
            result = _ELAB[sort](self, d.body, inner)
        del self._in_progress[memo_key]
        self._memo[memo_key] = result
        return result

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
            bound[sort, p.name] = _ELAB[sort](self, a, env)
        # _register rejects repeated parameters, so there is one value per argument
        return bound, tuple(bound.values())

    # -- types ----------------------------------------------------------------

    def elab_type(self, t: Type, env: _Env) -> CoreType:
        if isinstance(t, TyVoid):
            return TyVoid()
        if isinstance(t, TyUnit):
            return TyUnit()
        if isinstance(t, TVar):
            got = env.generics.get(("t", t.name))
            if got is None:
                raise PreprocessError(f"unbound type variable '{t.name}")
            return got  # type: ignore[return-value]
        if isinstance(t, TyProd):
            return TyProd(self.elab_type(t.left, env), self.elab_type(t.right, env))
        if isinstance(t, TIf):
            return self.elab_type(t.then if self._bool(t.cond, env) else t.els, env)
        if isinstance(t, TName):
            got = self._named("t", t.name, t.args, env)
            if got is None:
                raise PreprocessError(f"unknown type {t.name}")
            return _sum_fold(got) if isinstance(got, tuple) else got
        raise PreprocessError(f"not a type: {t!r}")

    # -- reals and booleans ------------------------------------------------------

    def elab_real(self, r: Real, env: _Env) -> Real:
        if isinstance(r, (reals.RConst, reals.RPi, reals.REuler)):
            return r
        if isinstance(r, reals.RUnary):
            return _canonical(reals.RUnary(r.op, self.elab_real(r.arg, env)))
        if isinstance(r, RBinary):
            return _canonical(
                RBinary(r.op, self.elab_real(r.left, env), self.elab_real(r.right, env))
            )
        if isinstance(r, RIf):
            return self.elab_real(r.then if self._bool(r.cond, env) else r.els, env)
        if isinstance(r, RName):
            got = self._named("r", r.name, r.args, env)
            if got is None:
                raise PreprocessError(f"unknown real definition #{r.name}")
            return got
        raise PreprocessError(f"not a real expression: {r!r}")

    def _bool(self, b: BoolExpr, env: _Env) -> bool:
        if isinstance(b, reals.BNot):
            return not self._bool(b.arg, env)
        if isinstance(b, reals.BAnd):
            return self._bool(b.left, env) and self._bool(b.right, env)
        if isinstance(b, reals.BOr):
            return self._bool(b.left, env) or self._bool(b.right, env)
        if isinstance(b, reals.BCmp):
            resolved = reals.BCmp(b.op, self.elab_real(b.left, env), self.elab_real(b.right, env))
            return evaluate_bool(resolved)
        raise PreprocessError(f"not a boolean expression: {b!r}")

    # -- expressions ----------------------------------------------------------------

    def elab_expr(self, e: Expr, env: _Env) -> CoreExpr:
        if isinstance(e, ExUnit):
            return ExUnit()
        if isinstance(e, ExVar):
            name = env.qrename.get(e.name)
            if env.binds is not None and (name is None or e.name == "_"):
                name = self._fresh(e.name) if env.fresh or e.name == "_" else e.name
                env.binds[e.name] = name
            elif name is None:
                raise PreprocessError(f"unbound variable {e.name}")
            return ExVar(name)
        if isinstance(e, ExPair):
            return ExPair(self.elab_expr(e.left, env), self.elab_expr(e.right, env))
        if isinstance(e, (ExCtrl, ExMatch)):
            scrutinee = self.elab_expr(e.scrutinee, env)
            arms = tuple(self._elab_arm(a, env) for a in e.arms)
            els = None if e.else_body is None else self.elab_expr(e.else_body, env)
            return type(e)(scrutinee, arms, els)
        if isinstance(e, ExTry):
            return ExTry(self.elab_expr(e.attempt, env), self.elab_expr(e.fallback, env))
        if isinstance(e, ExApp):
            return ExApp(self.elab_prog(e.fn, env), self.elab_expr(e.arg, env))
        if isinstance(e, ELet):
            value = self.elab_expr(e.value, env)
            pattern, inner = self._pattern(e.pattern, _Env(env.generics, {}, env.fresh))
            return ExApp(PrAbs(pattern, self.elab_expr(e.body, inner)), value)
        if isinstance(e, EIf):
            return self.elab_expr(e.then if self._bool(e.cond, env) else e.els, env)
        if isinstance(e, EName):
            got = self._named("e", e.name, e.args, env)
            if got is not None:
                return got
            if e.name in self.ctors:
                return _apply_chain(self._ctor_chain(e.name, e.args, env, False), ExUnit())
            raise PreprocessError(f"unknown expression definition &{e.name}")
        raise PreprocessError(f"not an expression: {e!r}")

    def _pattern(self, p: Expr, env: _Env) -> tuple[CoreExpr, _Env]:
        """Elaborate ``p`` in binding mode; return it and the scope it opens.

        A pattern nested in another one (an arm inside a pattern) opens its
        scope over the enclosing pattern's, which is still binding.
        """
        binds: dict[str, str] = {}
        pattern = self.elab_expr(p, _Env(env.generics, binds, env.fresh, binds))
        if env.binds is None:
            return pattern, _Env(env.generics, {**env.qrename, **binds}, env.fresh)
        return pattern, _Env(env.generics, ChainMap(binds, env.qrename), env.fresh, env.binds)

    def _elab_arm(self, arm: CoreArm, env: _Env) -> CoreArm:
        pattern, inner = self._pattern(arm.pattern, env)
        return CoreArm(pattern, self.elab_expr(arm.body, inner))

    # -- programs ----------------------------------------------------------------

    def elab_prog(self, f: Prog, env: _Env) -> CoreProg:
        if isinstance(f, PrU3):
            return PrU3(
                self.elab_real(f.theta, env),
                self.elab_real(f.phi, env),
                self.elab_real(f.lam, env),
            )
        if isinstance(f, PrAbs):
            pattern, inner = self._pattern(f.pattern, _Env(env.generics, {}, env.fresh))
            return PrAbs(pattern, self.elab_expr(f.body, inner))
        if isinstance(f, PGphase):
            phase = self.elab_real(f.phase, env)
            return PrRphase(ExVar(self._fresh("_")), phase, phase)
        if isinstance(f, PrRphase):
            pattern, _ = self._pattern(f.pattern, env)
            return PrRphase(
                pattern, self.elab_real(f.on_phase, env), self.elab_real(f.off_phase, env)
            )
        if isinstance(f, PrPmatch):
            closed = _Env(env.generics, {}, env.fresh)
            return PrPmatch(tuple(self._elab_arm(a, closed) for a in f.arms))
        if isinstance(f, PIf):
            return self.elab_prog(f.then if self._bool(f.cond, env) else f.els, env)
        if isinstance(f, PName):
            got = self._named("f", f.name, f.args, env)
            if got is not None:
                return got
            if f.name in self.ctors:
                chain = self._ctor_chain(f.name, f.args, env, True)
                if len(chain) == 1:
                    return chain[0]
                v = ExVar(self._fresh("x"))
                return PrAbs(v, _apply_chain(chain, v))
            raise PreprocessError(f"unknown program definition @{f.name}")
        raise PreprocessError(f"not a program: {f!r}")

    def _ctor_chain(
        self, name: str, args: tuple[GenArg, ...], env: _Env, applied: bool
    ) -> list[CoreProg]:
        idx = self.ctors[name]
        has_payload = self.defs["c", name].alts[idx].payload is not None
        if has_payload and not applied:
            raise PreprocessError(f"@{name} carries a payload and must be applied")
        if applied and not has_payload:
            raise PreprocessError(f"&{name} is a nullary constructor, not a program")
        payloads = self._named("c", name, args, env)
        chain: list[CoreProg] = []
        for j in range(idx):
            chain.append(PrRight(payloads[j], _sum_fold(payloads[j + 1 :])))
        if idx < len(payloads) - 1:
            chain.append(PrLeft(payloads[idx], _sum_fold(payloads[idx + 1 :])))
        return chain


_ELAB = {
    "t": Elaborator.elab_type,
    "e": Elaborator.elab_expr,
    "f": Elaborator.elab_prog,
    "r": Elaborator.elab_real,
}


def _sum_fold(payloads: tuple[CoreType, ...]) -> CoreType:
    acc = payloads[-1]
    for p in reversed(payloads[:-1]):
        acc = TySum(p, acc)
    return acc


def _apply_chain(chain: list[CoreProg], e: CoreExpr) -> CoreExpr:
    for f in reversed(chain):
        e = ExApp(f, e)
    return e


def _canonical(r: Real) -> Real:
    """Collapse a closed real tree to a canonical form when it is exactly
    rational or exactly a rational multiple of pi; leave it alone otherwise."""
    q = as_rational(r)
    if q is not None:
        return _frac_tree(q)
    p = as_pi_multiple(r)
    if p is not None:
        if p == 1:
            return RPi()
        return RBinary("*", _frac_tree(p), RPi())
    return r


def _frac_tree(q) -> Real:
    if q.denominator == 1:
        return RConst(q.numerator)
    return RBinary("/", RConst(q.numerator), RConst(q.denominator))


def elaborate_file(qf: QFile, prelude: tuple[surface.Def, ...] = ()) -> CoreExpr:
    """Elaborate a parsed file's main expression against its definitions."""
    if qf.main is None:
        raise PreprocessError("program has no main expression")
    el = Elaborator(tuple(prelude) + qf.defs)
    try:
        return el.elab_expr(qf.main, _Env())
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
