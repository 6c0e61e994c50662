"""Elaboration of surface syntax into the core language.

This stage resolves everything that is "compile time" in Qunity:

* named definitions (``&x``, ``@f``, ``#r``, ``T{...}``) are instantiated at
  their concrete generic arguments and inlined, memoized per ``(name, args)``
  so recursive definitions unroll linearly, with a global budget guarding
  against unbounded recursion;
* ``if .. then .. else .. endif`` conditionals are decided by evaluating
  their (closed, by the time substitution has happened) real comparisons;
* ``let p = v in b`` becomes ``(lambda p -> b)(v)``;
* ``gphase{r}`` becomes ``rphase{x, r, r}`` on a fresh variable pattern;
* variant constructors become chains of sum injections (a single-alternative
  variant's constructor is the identity);
* every binder inside an inlined definition body is renamed to a fresh name,
  so expression arguments with free variables can never be captured, and each
  ``_`` gets a fresh name per occurrence so it behaves as a throwaway.

``ctrl``/``match`` ``else`` arms survive into the core untouched: expanding
them needs the scrutinee's type, which is the typechecker's business.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

from . import reals, surface
from .core import (
    CoreArm,
    CoreExpr,
    CoreProg,
    CoreType,
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
    PrRphase,
    PrU3,
    TyProd,
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
    Arm,
    ECtrl,
    EIf,
    ELet,
    EMatch,
    EName,
    EPair,
    ETry,
    EUnit,
    EVar,
    EApp,
    Expr,
    ExprDef,
    ExprParam,
    GenArg,
    PGphase,
    PIf,
    PLambda,
    PName,
    PPmatch,
    PRphase,
    PU3,
    Param,
    Prog,
    ProgDef,
    ProgParam,
    QFile,
    RealDef,
    RealParam,
    TIf,
    TName,
    TProd,
    TUnit,
    TVar,
    TVoid,
    Type,
    TypeAliasDef,
    TypeParam,
    VariantDef,
)

UNROLL_BUDGET = 10_000

_TYPE_NODES = surface._TYPE_NODES
_EXPR_NODES = surface._EXPR_NODES
_PROG_NODES = surface._PROG_NODES
_REAL_NODES = (reals.RConst, reals.RPi, reals.REuler, reals.RUnary, reals.RBinary, RName, RIf)


def default_prelude_text() -> str:
    return resources.files("qunic").joinpath("prelude.qunity").read_text(encoding="utf-8")


@functools.cache
def load_prelude_defs() -> tuple[surface.Def, ...]:
    """The prelude's definitions, parsed on the first call and shared after it.

    The prelude is parsed once per process, never at import.  Sharing is safe
    because surface nodes are frozen dataclasses with tuple fields, and each
    :class:`Elaborator` copies the definitions into tables of its own.
    """
    qf = parse_file(default_prelude_text())
    if qf.main is not None:
        raise PreprocessError("a prelude file must not contain a main expression")
    return qf.defs


@dataclass(frozen=True)
class _Env:
    """Scope for one elaboration region.

    ``generics`` maps sigil-tagged names to already-elaborated values; it is
    replaced wholesale when entering a definition body.  ``qrename`` tracks
    variable renaming for the current region; ``fresh`` is set inside
    definition bodies so that every binder gets a new name.
    """

    generics: dict[tuple[str, str], object] = field(default_factory=dict)
    qrename: dict[str, str] = field(default_factory=dict)
    fresh: bool = False


class Elaborator:
    def __init__(self, defs: tuple[surface.Def, ...]) -> None:
        self.type_defs: dict[str, TypeAliasDef | VariantDef] = {}
        self.expr_defs: dict[str, ExprDef] = {}
        self.prog_defs: dict[str, ProgDef] = {}
        self.real_defs: dict[str, RealDef] = {}
        self.ctors: dict[str, tuple[str, int]] = {}  # constructor -> (variant, alt index)
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
        if isinstance(d, (TypeAliasDef, VariantDef)):
            if d.name in self.type_defs:
                raise PreprocessError(f"duplicate type definition {d.name}")
            self.type_defs[d.name] = d
            if isinstance(d, VariantDef):
                for i, alt in enumerate(d.alts):
                    table = self.expr_defs if alt.payload is None else self.prog_defs
                    sig = "&" if alt.payload is None else "@"
                    if alt.name in self.ctors or alt.name in table:
                        raise PreprocessError(
                            f"constructor {sig}{alt.name} clashes with an existing name"
                        )
                    self.ctors[alt.name] = (d.name, i)
        elif isinstance(d, ExprDef):
            if d.name in self.expr_defs or d.name in self.ctors:
                raise PreprocessError(f"duplicate definition &{d.name}")
            self.expr_defs[d.name] = d
        elif isinstance(d, ProgDef):
            if d.name in self.prog_defs or d.name in self.ctors:
                raise PreprocessError(f"duplicate definition @{d.name}")
            self.prog_defs[d.name] = d
        elif isinstance(d, RealDef):
            if d.name in self.real_defs:
                raise PreprocessError(f"duplicate definition #{d.name}")
            self.real_defs[d.name] = d
        else:
            raise PreprocessError(f"unknown definition form: {d!r}")

    def _fresh(self, base: str) -> str:
        return f"{base}%{next(self._counter)}"

    def _tick(self, what: str) -> None:
        self._used += 1
        if self._used > UNROLL_BUDGET:
            raise CapacityError(
                f"definition unrolling exceeded {UNROLL_BUDGET} instantiations "
                f"(last at {what}); is a recursive definition missing its base case?"
            )

    # -- generic arguments ---------------------------------------------------

    def _elab_args(
        self, owner: str, params: tuple[Param, ...], args: tuple[GenArg, ...], env: _Env
    ) -> tuple[dict[tuple[str, str], object], tuple[object, ...]]:
        if len(params) != len(args):
            raise PreprocessError(
                f"{owner} expects {len(params)} generic argument(s), got {len(args)}"
            )
        bound: dict[tuple[str, str], object] = {}
        key: list[object] = []
        for p, a in zip(params, args):
            if isinstance(p, TypeParam):
                if not isinstance(a, _TYPE_NODES):
                    raise PreprocessError(f"{owner}: argument for '{p.name} must be a type")
                v: object = self.elab_type(a, env)
                bound[("t", p.name)] = v
            elif isinstance(p, ExprParam):
                if not isinstance(a, _EXPR_NODES):
                    raise PreprocessError(f"{owner}: argument for &{p.name} must be an expression")
                v = self.elab_expr(a, env)
                bound[("e", p.name)] = v
            elif isinstance(p, ProgParam):
                if not isinstance(a, _PROG_NODES):
                    raise PreprocessError(f"{owner}: argument for @{p.name} must be a program")
                v = self.elab_prog(a, env)
                bound[("f", p.name)] = v
            elif isinstance(p, RealParam):
                if not isinstance(a, _REAL_NODES):
                    raise PreprocessError(f"{owner}: argument for #{p.name} must be a real")
                v = self.elab_real(a, env)
                bound[("r", p.name)] = v
            else:
                raise PreprocessError(f"unknown parameter form: {p!r}")
            key.append(v)
        return bound, tuple(key)

    def _instantiate(self, memo_key: object, what: str, build):
        if memo_key in self._memo:
            return self._memo[memo_key]
        if memo_key in self._in_progress:
            raise PreprocessError(
                f"{what} recursively instantiates itself at the same arguments"
            )
        self._in_progress[memo_key] = what
        self._tick(what)
        result = build()
        del self._in_progress[memo_key]
        self._memo[memo_key] = result
        return result

    # -- types ----------------------------------------------------------------

    def elab_type(self, t: Type, env: _Env) -> CoreType:
        if isinstance(t, TVoid):
            return TyVoid()
        if isinstance(t, TUnit):
            return TyUnit()
        if isinstance(t, TVar):
            got = env.generics.get(("t", t.name))
            if got is None:
                raise PreprocessError(f"unbound type variable '{t.name}")
            return got  # type: ignore[return-value]
        if isinstance(t, TProd):
            return TyProd(self.elab_type(t.left, env), self.elab_type(t.right, env))
        if isinstance(t, TIf):
            return self.elab_type(t.then if self._bool(t.cond, env) else t.els, env)
        if isinstance(t, TName):
            d = self.type_defs.get(t.name)
            if d is None:
                raise PreprocessError(f"unknown type {t.name}")
            bound, key = self._elab_args(f"type {t.name}", d.params, t.args, env)
            inner = _Env(generics=bound)
            if isinstance(d, TypeAliasDef):
                return self._instantiate(
                    ("t", t.name, key), f"type {t.name}", lambda: self.elab_type(d.body, inner)
                )
            return self._sum_fold(self._variant_payloads(d, key, inner))
        raise PreprocessError(f"not a type: {t!r}")

    def _variant_payloads(self, d: VariantDef, key: tuple, env: _Env) -> tuple[CoreType, ...]:
        def build() -> tuple[CoreType, ...]:
            out = []
            for alt in d.alts:
                out.append(TyUnit() if alt.payload is None else self.elab_type(alt.payload, env))
            return tuple(out)

        return self._instantiate(("v", d.name, key), f"type {d.name}", build)

    @staticmethod
    def _sum_fold(payloads: tuple[CoreType, ...]) -> CoreType:
        acc = payloads[-1]
        for p in reversed(payloads[:-1]):
            acc = TySum(p, acc)
        return acc

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
            got = env.generics.get(("r", r.name))
            if got is not None:
                if r.args:
                    raise PreprocessError(f"parameter #{r.name} takes no arguments")
                return got  # type: ignore[return-value]
            d = self.real_defs.get(r.name)
            if d is None:
                raise PreprocessError(f"unknown real definition #{r.name}")
            bound, key = self._elab_args(f"#{r.name}", d.params, r.args, env)
            inner = _Env(generics=bound)
            return self._instantiate(
                ("r", r.name, key), f"#{r.name}", lambda: self.elab_real(d.body, inner)
            )
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
        if isinstance(e, EUnit):
            return ExUnit()
        if isinstance(e, EVar):
            return ExVar(env.qrename.get(e.name, e.name))
        if isinstance(e, EPair):
            return ExPair(self.elab_expr(e.left, env), self.elab_expr(e.right, env))
        if isinstance(e, (ECtrl, EMatch)):
            scrutinee = self.elab_expr(e.scrutinee, env)
            arms = tuple(self._elab_arm(a, env) for a in e.arms)
            els = None if e.else_body is None else self.elab_expr(e.else_body, env)
            node = ExCtrl if isinstance(e, ECtrl) else ExMatch
            return node(scrutinee, arms, els)
        if isinstance(e, ETry):
            return ExTry(self.elab_expr(e.attempt, env), self.elab_expr(e.fallback, env))
        if isinstance(e, EApp):
            return ExApp(self.elab_prog(e.fn, env), self.elab_expr(e.arg, env))
        if isinstance(e, ELet):
            value = self.elab_expr(e.value, env)
            inner = self._bind_pattern(e.pattern, env)
            pattern = self.elab_expr(e.pattern, inner)
            body = self.elab_expr(e.body, inner)
            return ExApp(PrAbs(pattern, body), value)
        if isinstance(e, EIf):
            return self.elab_expr(e.then if self._bool(e.cond, env) else e.els, env)
        if isinstance(e, EName):
            got = env.generics.get(("e", e.name))
            if got is not None:
                if e.args:
                    raise PreprocessError(f"parameter &{e.name} takes no arguments")
                return got  # type: ignore[return-value]
            d = self.expr_defs.get(e.name)
            if d is not None:
                bound, key = self._elab_args(f"&{e.name}", d.params, e.args, env)
                inner = _Env(generics=bound, fresh=True)
                return self._instantiate(
                    ("e", e.name, key), f"&{e.name}", lambda: self.elab_expr(d.body, inner)
                )
            if e.name in self.ctors:
                chain = self._ctor_chain(e.name, e.args, env, want_payload=None)
                return _apply_chain(chain, ExUnit())
            raise PreprocessError(f"unknown expression definition &{e.name}")
        raise PreprocessError(f"not an expression: {e!r}")

    def _elab_arm(self, arm: Arm, env: _Env) -> CoreArm:
        inner = self._bind_pattern(arm.pattern, env)
        return CoreArm(self.elab_expr(arm.pattern, inner), self.elab_expr(arm.body, inner))

    def _bind_pattern(self, pattern: Expr, env: _Env) -> _Env:
        rename = dict(env.qrename)
        for name in _pattern_vars(pattern, lambda cond: self._bool(cond, env)):
            if name == "_" or env.fresh:
                rename[name] = self._fresh(name)
            else:
                rename[name] = name
        return _Env(generics=env.generics, qrename=rename, fresh=env.fresh)

    # -- programs ----------------------------------------------------------------

    def elab_prog(self, f: Prog, env: _Env) -> CoreProg:
        if isinstance(f, PU3):
            return PrU3(
                self.elab_real(f.theta, env),
                self.elab_real(f.phi, env),
                self.elab_real(f.lam, env),
            )
        if isinstance(f, PLambda):
            inner = self._bind_pattern(f.pattern, env)
            return PrAbs(self.elab_expr(f.pattern, inner), self.elab_expr(f.body, inner))
        if isinstance(f, PGphase):
            phase = self.elab_real(f.phase, env)
            return PrRphase(ExVar(self._fresh("_")), phase, phase)
        if isinstance(f, PRphase):
            inner = self._bind_pattern(f.pattern, env)
            return PrRphase(
                self.elab_expr(f.pattern, inner),
                self.elab_real(f.on_phase, env),
                self.elab_real(f.off_phase, env),
            )
        if isinstance(f, PPmatch):
            return PrPmatch(tuple(self._elab_arm(a, env) for a in f.arms))
        if isinstance(f, PIf):
            return self.elab_prog(f.then if self._bool(f.cond, env) else f.els, env)
        if isinstance(f, PName):
            got = env.generics.get(("f", f.name))
            if got is not None:
                if f.args:
                    raise PreprocessError(f"parameter @{f.name} takes no arguments")
                return got  # type: ignore[return-value]
            d = self.prog_defs.get(f.name)
            if d is not None:
                bound, key = self._elab_args(f"@{f.name}", d.params, f.args, env)
                inner = _Env(generics=bound, fresh=True)
                return self._instantiate(
                    ("f", f.name, key), f"@{f.name}", lambda: self.elab_prog(d.body, inner)
                )
            if f.name in self.ctors:
                chain = self._ctor_chain(f.name, f.args, env, want_payload=True)
                if len(chain) == 1:
                    return chain[0]
                v = ExVar(self._fresh("x"))
                return PrAbs(v, _apply_chain(chain, v))
            raise PreprocessError(f"unknown program definition @{f.name}")
        raise PreprocessError(f"not a program: {f!r}")

    def _ctor_chain(
        self, name: str, args: tuple[GenArg, ...], env: _Env, want_payload: bool | None
    ) -> list[CoreProg]:
        variant_name, idx = self.ctors[name]
        d = self.type_defs[variant_name]
        assert isinstance(d, VariantDef)
        has_payload = d.alts[idx].payload is not None
        if want_payload is True and not has_payload:
            raise PreprocessError(f"&{name} is a nullary constructor, not a program")
        if want_payload is None and has_payload:
            raise PreprocessError(f"@{name} carries a payload and must be applied")
        bound, key = self._elab_args(f"constructor {name}", d.params, args, env)
        payloads = self._variant_payloads(d, key, _Env(generics=bound))
        chain: list[CoreProg] = []
        for j in range(idx):
            chain.append(PrRight(payloads[j], self._sum_fold(payloads[j + 1 :])))
        if idx < len(payloads) - 1:
            chain.append(PrLeft(payloads[idx], self._sum_fold(payloads[idx + 1 :])))
        return chain


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


def _pattern_vars(pattern: Expr, holds: Callable[[BoolExpr], bool]):
    """Iterate the variable names a pattern binds (free variables, surface side).

    Generic arguments of names are scanned too: an expression argument with a
    free variable makes that variable part of the pattern once the name is
    inlined.  Programs are closed, so they contribute nothing.  Of an ``if``,
    only the branch that ``holds`` chooses for its condition binds, as only
    that branch is elaborated.
    """
    if isinstance(pattern, EVar):
        yield pattern.name
    elif isinstance(pattern, EPair):
        yield from _pattern_vars(pattern.left, holds)
        yield from _pattern_vars(pattern.right, holds)
    elif isinstance(pattern, EApp):
        yield from _pattern_vars(pattern.arg, holds)
    elif isinstance(pattern, EName):
        for a in pattern.args:
            if isinstance(a, _EXPR_NODES):
                yield from _pattern_vars(a, holds)
    elif isinstance(pattern, ETry):
        yield from _pattern_vars(pattern.attempt, holds)
        yield from _pattern_vars(pattern.fallback, holds)
    elif isinstance(pattern, (ECtrl, EMatch)):
        yield from _pattern_vars(pattern.scrutinee, holds)
        for arm in pattern.arms:
            bound = set(_pattern_vars(arm.pattern, holds))
            for v in _pattern_vars(arm.body, holds):
                if v not in bound:
                    yield v
        if pattern.else_body is not None:
            yield from _pattern_vars(pattern.else_body, holds)
    elif isinstance(pattern, ELet):
        yield from _pattern_vars(pattern.value, holds)
        bound = set(_pattern_vars(pattern.pattern, holds))
        for v in _pattern_vars(pattern.body, holds):
            if v not in bound:
                yield v
    elif isinstance(pattern, EIf):
        yield from _pattern_vars(pattern.then if holds(pattern.cond) else pattern.els, holds)
    # EUnit and names without expression arguments bind nothing


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
