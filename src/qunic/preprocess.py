"""Elaboration of the syntax tree into its core subset, which has no sugar node.

Elaboration is one structural recursion, :meth:`Elaborator.elab`, with one
case per node class: a type, an expression or a program elaborates to its
core node, a real to its value and a condition to a bool.  A name of every
sort is one class, :class:`~qunic.core.Name`, and one case, which looks the
name up under the sort in its field; an ``if`` of every sort is one class,
:class:`~qunic.core.If`, and one loop.  A definition and a generic
parameter of every sort are one class each, :class:`~qunic.core.Def` and
:class:`~qunic.core.Param`, read by their ``sort`` field, and a generic
argument must have its parameter's sort, by :func:`~qunic.core.sort_of`.  A
variant is a :class:`~qunic.core.VariantDef`.  It resolves all that is
"compile time" in Qunity:

* named definitions (``&x``, ``@f``, ``#r``, ``T{...}``) are instantiated at
  their concrete generic arguments and inlined, memoized per ``(name, args)``
  so recursive definitions unroll linearly, with a global budget guarding
  against unbounded recursion.  All of them live in one table keyed by
  ``(sort, name)`` and are instantiated by one routine,
  :meth:`Elaborator._named`.  A variant constructor is used as an expression
  or a program, so its name may be that of no other constructor and of no
  expression or program definition, whichever comes first.  A generic
  parameter in scope comes before both, except for a type name, which is
  never a type parameter.  An argless name that is no parameter in scope
  (``&0``, ``Bit``, ``#r``) means the same wherever it appears, so it is
  resolved once per compile and its value kept for later uses;
* the prelude's table is built once per process from its text, split at
  each line that begins with ``def`` or ``type``: a ``type`` definition is
  parsed at once, as a variant registers its constructors, and a ``def`` is
  kept as its text until a compile first looks its name up.  That lookup
  parses, in one loop and into the shared table, the definition and every
  unparsed prelude definition it names, transitively.  A compile first
  reaches a prelude name near the top of its stack, so parsing the whole
  closure there puts no parser frame on the deep end of an elaboration, and
  the largest program that elaborates within a recursion limit stays the
  same as with a prelude parsed up front;
* a real elaborates to its value, computed by one evaluator step
  (:func:`~qunic.reals.step`) per node from its children's values, so no
  subtree is evaluated twice.  A left-nested operator chain, such as a flat
  ``1 - 1 - ... - 1``, is elaborated in a loop down its left spine, so it
  takes one frame however long it is; ``gphase{r}``'s one ``r`` is
  elaborated once.  An exact value is a plain ``(a, b)`` pair for ``a +
  b*pi``, which generic arguments and memo keys hold; a float keeps its
  tree.  A node is built only where the core needs one, an angle of ``u3``
  or ``rphase`` or an exact operand of a float's tree, and each exact value
  becomes one leaf per compile, :class:`~qunic.core.RExact`, so equal
  angles are one object however they were written;
* an integer expression, an operator or a comparison over int constants and
  ``#`` parameters (:func:`~qunic.reals.kernel` says which), is evaluated by
  its kernel, one generated function that computes it in one frame, from its
  second evaluation on: the first marks the node, the second builds the kernel,
  and the node keeps it in its ``_derived`` slot, outside ``hash`` and
  equality.  So a user expression evaluated once never pays for a
  build, and a prelude expression's kernel is built once per process (two
  compiles on two threads may both build it; either kernel serves).  When
  the kernel answers, its count of parameter reads is added to the region
  counter below, which keeps exactly what the walk would; when it gives no
  value, the expression is walked, which gives every other value and every
  error;
* a call site with generic arguments that resolves to a prelude definition
  (``@add_const{#n - 1, ...}`` in a prelude body) is resolved once per
  process by the same rule: the first evaluation marks the node, and the
  second, once the walk has checked the arity and each argument's sort,
  keeps in the slot the definition and a reader per argument (see
  :meth:`Elaborator._named`).  Later evaluations take a constant, a ``#``
  parameter or a type variable in scope, or a kernel's answer with no
  frame, counting what the walk counts.  Only a prelude definition is
  cached: it is one object for the process, which each compile's table is
  checked to hold, while a user's is one per parse and the same parsed call
  site may meet another compile's.  Argless names, variants, constructors,
  user definitions and every error take the walk;
* ``if .. then .. else .. endif`` conditionals are decided by comparing the
  values of their (closed, by the time substitution has happened) reals, in
  the frame of the ``if``, which also runs a comparison's kernel;
* variant constructors become chains of sum injections (a single-alternative
  variant's constructor is the identity), built once per instantiation of
  their variant and shared by every use;
* a pattern is elaborated in *binding mode*: each variable it has not bound
  yet is bound by it, in the same pass that builds the core pattern, so an
  ``if`` in a pattern is decided once.  A binder inside an inlined
  definition body, and each ``_``, is named ``v%k`` from the number ``k``
  of binders numbered before it in its closed program, the innermost
  ``lambda``, ``pmatch`` or ``rphase``, whatever its source name, as de
  Bruijn's nameless dummies are: so alpha-equal subterms get equal names and
  are one node, and a ``_`` is a throwaway of its own.  A binder of the main
  expression keeps its source name, which has no ``%``, so a message about
  it names the user's own variable.  A numbered binder is numbered past
  every variable in scope, so it never captures a free variable of an
  expression argument.  A memoized expression reused in another program
  keeps the names it got in the first one.  That captures nothing either:
  its free variables are those of its arguments, which are the same objects,
  and its binders were numbered past them; at most it shadows a variable of
  the new program that it never mentions, which may have the same name;
* outside a pattern, a variable that no enclosing binder binds is an error
  ("unbound variable"), so a definition body never picks up a variable of
  the code that uses it;
* programs are closed: a ``lambda``, the arms of a ``pmatch`` and the
  pattern of an ``rphase`` are elaborated from a scope with no variables,
  with their binders numbered from 0, so a variable of the code around them
  is unbound inside them.  The parser reads ``let p = v in b`` as
  ``(lambda p -> b)(v)``, which passes what its body needs through its value
  and pattern, and ``gphase{r}`` as ``rphase{_, r, r}``, whose ``_`` is
  ``v%0``;
* a region entered from a fixed scope, a pattern outside any other (it binds
  from an empty table) or a closed program (no variables, binders from 0),
  is elaborated once per compile if it reads no generic parameter, a type
  variable or a name in ``generics``: its core, with a pattern's variables
  and the binder count after it, is kept under the region's id, the binder
  count at entry and ``fresh``, and returned when the region is entered
  again.  Nothing else differs between two entries: a name's definition, an
  argless name's value and a memoized instantiation are the same all
  compile long.  A counter of the parameters read tells whether the
  region's elaboration read one; it counts those that instantiated
  definitions read too, which keeps less, never more.  Nothing is kept for
  a region that raises;
* every node is built by its class's interning step,
  ``cls._intern(nodes, a, b, c)`` (:func:`qunic.core._intern_step`), called
  where the node is built, with no frame between, on the compile's table
  ``Elaborator._nodes``.  The step keeps one node per class and fields:
  under the class, the ids of the children (which are canonical already)
  and the scalar fields.  So a compile's core has exactly one object per
  distinct node, equal subterms are one object, and elaboration never
  hashes or compares two nodes.  Separate compiles share nothing, and
  compare by the structural ``==`` of :class:`~qunic.core._Node`.

``ctrl``/``match`` ``else`` arms survive into the core untouched: expanding
them needs the scrutinee's type, which is the typechecker's business.
"""

from __future__ import annotations

import math
import re
from collections import ChainMap
from importlib import resources
from typing import Mapping, NamedTuple, Union

from .core import (
    PARAM_SIGILS,
    SIGILS,
    BAnd,
    BCmp,
    BNot,
    BOr,
    CoreArm,
    CoreExpr,
    CoreType,
    Def,
    ExApp,
    ExCtrl,
    ExMatch,
    ExPair,
    Expr,
    ExTry,
    ExUnit,
    ExVar,
    GenArg,
    If,
    Name,
    PrAbs,
    PrLeft,
    PrPmatch,
    PrRight,
    PrRphase,
    PrU3,
    QFile,
    RBinary,
    RConst,
    Real,
    REuler,
    RExact,
    RPi,
    RUnary,
    TVar,
    TyProd,
    TySum,
    TyUnit,
    TyVoid,
    VariantDef,
    children,
    free_qvars,
    sort_of,
)
from .errors import CapacityError, PreprocessError
from .lexer import tokenize
from .parser import parse_file
from .reals import Rational, Value, compare, kernel, step

# Not called here: the benchmark's tracer hooks these three names on this
# module, so they stay importable from it.
from .reals import as_pi_multiple, as_rational, evaluate_bool  # noqa: F401

UNROLL_BUDGET = 10_000

# The owner of a name of each sort in a message: "t" types, "e" expressions,
# "f" programs, "r" reals, and "c" constructors, whose definition is their
# variant.
_OWNERS = {**SIGILS, "t": "type ", "c": "constructor "}
# What an argument of each sort is called.
_KINDS = {"t": "a type", "e": "an expression", "f": "a program", "r": "a real"}
# What an unknown name of each sort is called.
_UNKNOWN = {
    "t": "type ",
    "e": "expression definition &",
    "f": "program definition @",
    "r": "real definition #",
}


def default_prelude_text() -> str:
    return resources.files("qunic").joinpath("prelude.qunity").read_text(encoding="utf-8")


# A line of the prelude that begins a definition; for a ``def``, its name's
# sigil and the name.
_CHUNK = re.compile(r"^(?:type\b|def\b(?:\s+([&@#])\s*([\w']+))?)", re.M)
_SIGIL_SORTS = {"&": "e", "@": "f", "#": "r"}


class _Unparsed:
    """A prelude ``def`` not parsed yet: its sort and name, read from its
    head, its text, and the line of the prelude on which that text begins."""

    __slots__ = ("sort", "name", "text", "line")

    def __init__(self, sort: str, name: str, text: str, line: int) -> None:
        self.sort, self.name, self.text, self.line = sort, name, text, line


# The prelude's table, its constructors and the keys of its definitions in
# file order, built by _prelude_table once per process.
_prelude: tuple[dict, dict, tuple[tuple[str, str], ...]] | None = None


def _prelude_table() -> tuple[dict, dict]:
    """``Elaborator.defs`` and ``Elaborator.ctors`` with the prelude's
    definitions alone, built on the first call and shared after it: callers
    copy them.

    The prelude is split at each line that begins with ``def`` or ``type``,
    and what comes before the first definition must hold no token.  A
    ``type`` chunk is parsed at once, as a variant registers its
    constructors; a ``def`` chunk is registered as an :class:`_Unparsed`
    entry, which :meth:`Elaborator._named` parses when a compile first looks
    it up.
    """
    global _prelude
    if _prelude is None:
        text = default_prelude_text()
        heads = list(_CHUNK.finditer(text))
        head = text[: heads[0].start()] if heads else text
        if len(tokenize(head)) > 1:
            raise PreprocessError("the prelude holds text before its first definition")
        elaborator, keys, line = Elaborator(()), [], 1 + head.count("\n")
        ends = [m.start() for m in heads[1:]] + [len(text)]
        for m, end in zip(heads, ends):
            chunk = text[m.start() : end]
            if m[1] is None:
                d = _parse_chunk(chunk, line)
            else:
                d = _Unparsed(_SIGIL_SORTS[m[1]], m[2], chunk, line)
            elaborator._register(d)
            keys.append(("t" if type(d) is VariantDef else d.sort, d.name))
            line += chunk.count("\n")
        _prelude = elaborator.defs, elaborator.ctors, tuple(keys)
    return _prelude[0], _prelude[1]


def _parse_chunk(text: str, line: int) -> Def | VariantDef:
    """The one definition of the prelude chunk ``text``, which begins on
    ``line``: it is parsed after the newlines before it, so its tokens keep
    their ``line:col`` in the prelude."""
    qf = parse_file("\n" * (line - 1) + text)
    if qf.main is not None:
        raise PreprocessError("a prelude file must not contain a main expression")
    if len(qf.defs) != 1:
        raise PreprocessError(f"prelude line {line}: {len(qf.defs)} definitions, not one")
    return qf.defs[0]


def _parse_entry(table: dict, key: tuple[str, str]) -> Def:
    """Parse the :class:`_Unparsed` entry of ``table`` under ``key``, and
    store its definition there in its place."""
    u = table[key]
    d = table[key] = _parse_chunk(u.text, u.line)
    _check_params(d, _OWNERS[u.sort] + u.name)
    return d


def load_prelude_defs() -> tuple[Def | VariantDef, ...]:
    """The prelude's definitions in file order, each parsed through the
    prelude's table, so each is parsed once per process and shared.

    Sharing is safe because definitions, like every node, are frozen
    ``core._Node`` dataclasses with tuple fields.
    """
    table, _ = _prelude_table()
    keys = _prelude[2]
    for key in keys:
        if type(table[key]) is _Unparsed:
            _parse_entry(table, key)
    return tuple(table[key] for key in keys)


def prelude_defs_parsed() -> int:
    """How many of the prelude's definitions this process has parsed so far."""
    if _prelude is None:
        return 0
    table, _, keys = _prelude
    return sum(type(table[key]) is not _Unparsed for key in keys)


def _check_params(d: Def | VariantDef, what: str) -> None:
    seen = set()
    for p in d.params:
        if (p.sort, p.name) in seen:
            raise PreprocessError(f"duplicate parameter {PARAM_SIGILS[p.sort]}{p.name} in {what}")
        seen.add((p.sort, p.name))


class _Env(NamedTuple):
    """Scope for one elaboration region.  Elaboration builds one for every
    pattern and program, about a thousand per ``&order_finding`` compile, so
    it is a named tuple, built with ``tuple.__new__`` (``_new``): the named
    tuple's own ``__new__`` is a Python frame, and cost 0.29 against 0.17 µs
    a scope (CPython 3.11).

    ``generics`` maps ``(sort, name)`` of generic parameters to their
    already-elaborated values; it is replaced wholesale when entering a
    definition body.  ``qrename`` maps each variable in scope to its core
    variable; ``fresh`` is set inside definition bodies so that every binder
    gets the name ``v%k``, numbered in its program, whatever its source name.

    ``binds`` is set while a pattern is elaborated (binding mode) and collects
    the names that pattern binds.  In binding mode ``qrename`` holds only what
    the pattern, and binders nested inside it, have bound so far: a variable
    not in it is bound by the pattern, and every ``_`` is bound afresh.
    Outside binding mode a variable not in ``qrename`` is unbound, an error.

    ``closed`` is set inside a program, which is closed.  The expression
    arguments of the definition whose body holds the program were elaborated
    outside it, so one with a variable of its caller in it must not be used
    there: the program's binders are numbered from 0 again, and one of them
    could capture that variable.
    """

    generics: dict[tuple[str, str], object]
    qrename: Mapping[str, ExVar]
    fresh: bool = False
    binds: dict[str, ExVar] | None = None
    closed: bool = False


_new = tuple.__new__  # _new(_Env, (generics, qrename, fresh, binds, closed))


class _Inexact:
    """An elaborated real whose value is a float.

    It keeps its tree, whose exact subtrees are :class:`~qunic.core.RExact`
    leaves, with its value.  The tree is the one node of its kind in the
    compile, so a memo key holds its id, and two such reals are one key
    exactly when their trees are equal.
    """

    __slots__ = ("node", "value")

    def __init__(self, node: Real, value: Value) -> None:
        self.node = node
        self.value = value


RealValue = Union[tuple[Rational, Rational], _Inexact]


def _reader(a: GenArg, p: tuple[str, str]) -> tuple:
    """How a call site's cache reads its generic argument ``a``, bound to the
    parameter under ``p``: ``(kind, r, a, p)``, where kind 0 is a constant
    of value ``r``, 1 a ``#`` name or a type variable, the parameter under
    ``r`` in scope, 2 an integer expression, by its kernel ``r``, and 3 any
    other; 1 and 2 fall back on :meth:`Elaborator.elab`, and 3 is it."""
    t = type(a)
    if t is RConst:
        return 0, (a.value, 0), a, p
    if t is TVar or (t is Name and a.sort == "r" and not a.args):
        return 1, ("t" if t is TVar else "r", a.name), a, p
    if t is RBinary and type(a._derived) is tuple:
        return 2, a._derived, a, p
    return 3, None, a, p


class Elaborator:
    def __init__(self, defs: tuple[Def | VariantDef, ...], use_prelude: bool = False) -> None:
        """An elaborator of ``defs``, registered on top of a copy of the
        prelude's table if ``use_prelude``, so they clash with its names."""
        table, ctors = _prelude_table() if use_prelude else ({}, {})
        # The prelude's shared table, where a definition parsed here is kept
        self._prelude = table
        # (sort, name) -> definition, and constructor -> its alternative's index
        self.defs: dict[tuple[str, str], Def | VariantDef | _Unparsed] = dict(table)
        self.ctors: dict[str, int] = dict(ctors)
        self._memo: dict[object, object] = {}
        # (sort, name) -> the value of an argless name that is no generic
        # parameter, resolved on its first use in the compile (see elab)
        self._argless: dict[tuple[str, str], object] = {}
        # The one node of each distinct node this compile builds, under its
        # class, its children's ids and its other fields (see elab).
        self._nodes: dict[tuple, object] = {}
        # Instantiations under way, innermost last, mapped to their names.  An
        # entry stays when its instantiation raises, so after an error the
        # table reads as the chain of instantiations that led to it.
        self._in_progress: dict[object, str] = {}
        # The core of each region whose elaboration read no generic parameter,
        # under (id of the region, binder count at entry, env.fresh), with the
        # region itself, so that its id stays its own (see _pattern).
        self._kept: dict[tuple, tuple] = {}
        self._reads = 0  # generic parameters read so far
        self.reused = 0  # kept regions returned
        self.kernel_hits = 0  # evaluations that a kernel answered
        self.instantiations = 0
        self._binders = 0  # binders numbered so far in the innermost program
        for d in defs:
            self._register(d)

    def elaborate(self, main: Expr | None) -> CoreExpr:
        """The core of a file's main expression ``main``, against this
        elaborator's definitions; a term nested too deeply for the
        interpreter's stack raises :class:`~qunic.errors.CapacityError`."""
        if main is None:
            raise PreprocessError("program has no main expression")
        # A call that raised can leave both set
        self._in_progress, self._binders = {}, 0
        try:
            return self.elab(main, _Env({}, {}))
        except RecursionError:
            where = next(reversed(self._in_progress.values()), "the main expression")
            raise CapacityError(
                f"elaboration nested too deeply (innermost at {where}, after "
                f"{self.instantiations} instantiations): the program is too large, "
                "or a recursive definition is missing its base case"
            ) from None

    # -- definition table ----------------------------------------------------

    def _register(self, d: Def | VariantDef | _Unparsed) -> None:
        """Add ``d`` to the table; an unparsed prelude entry's parameters are
        checked when it is parsed."""
        sort = "t" if type(d) is VariantDef else d.sort
        what = _OWNERS[sort] + d.name
        if (sort, d.name) in self.defs or (sort in "ef" and d.name in self.ctors):
            kind = f"type definition {d.name}" if sort == "t" else f"definition {what}"
            raise PreprocessError(f"duplicate {kind}")
        if type(d) is not _Unparsed:
            _check_params(d, what)
        self.defs[sort, d.name] = d
        if isinstance(d, VariantDef):
            for i, alt in enumerate(d.alts):
                sort = "e" if alt.payload is None else "f"
                # a constructor's name is looked up under both "e" and "f" (see
                # elab), so it clashes with a definition of either sort
                if alt.name in self.ctors or any((s, alt.name) in self.defs for s in "ef"):
                    raise PreprocessError(
                        f"constructor {_OWNERS[sort]}{alt.name} clashes with an existing name"
                    )
                self.ctors[alt.name] = i
                self.defs["c", alt.name] = d

    def _fresh(self) -> str:
        n = self._binders
        self._binders = n + 1
        return f"v%{n}"

    def _tick(self, what: str) -> None:
        self.instantiations += 1
        if self.instantiations > UNROLL_BUDGET:
            raise CapacityError(
                f"definition unrolling exceeded {UNROLL_BUDGET} instantiations "
                f"(last at {what}); is a recursive definition missing its base case?"
            )

    # -- names and generic arguments -------------------------------------------

    def _named(self, x: Name, env: _Env, site):
        """The value of the name ``x``, which names no generic parameter in
        scope and, if argless, was not resolved before in this compile: a
        definition, else a constructor.  ``site`` is the state of ``x``'s
        slot as :meth:`elab` read it: None at a first evaluation, False at
        the second, then the cache that the second built, or None.

        A definition is instantiated once per elaborated argument tuple, in a
        scope of its own, and memoized under ``(sort, name, key)``, where
        ``key`` holds the id of each argument that is a node and the value of
        each real; a variant, reached from a type name or a constructor, under
        ``("v", variant, key)`` as its sum type and its constructors' core
        values.

        From its second evaluation on, a call site with generic arguments
        whose definition is the prelude's keeps in its slot the key it looked
        up, the definition, its ``what`` and a :func:`_reader` per argument,
        whose arity and sort the walk checked then; it serves every compile
        whose table holds that definition under that key.  Everything else,
        and every error, takes the walk.

        The body is elaborated from this frame, with no helper between, because
        every frame per instantiation level lowers the largest program that
        compiles.
        """
        name, args = x.name, x.args
        variant = False
        if site and self.defs.get(site[0]) is site[1]:
            _, d, what, readers = site
            sort, g, bound, key, reads, hits = x.sort, env.generics, {}, [], 0, 0
            for kind, r, a, p in readers:
                if kind == 0:  # a constant
                    v = r
                elif kind == 1:  # a parameter, if one is in scope
                    v = g.get(r)
                    if v is None:
                        v = self.elab(a, env)
                    else:
                        reads += 1
                else:  # a kernel, if it answers
                    v = r[0](g) if kind == 2 else None
                    if v is None:
                        v = self.elab(a, env)
                    else:
                        reads += r[1]
                        hits += 1
                bound[p] = v
                key.append(v if type(v) is tuple else id(v.node if type(v) is _Inexact else v))
            self._reads += reads
            self.kernel_hits += hits
            memo_key = sort, name, tuple(key)
        else:
            sort = x.sort
            d = self.defs.get((sort, name))
            if d is None:
                ctor = self.ctors.get(name) if sort in "ef" else None
                if ctor is None:
                    raise PreprocessError(f"unknown {_UNKNOWN[sort]}{name}")
                if (self.defs["c", name].alts[ctor].payload is None) == (sort == "f"):
                    raise PreprocessError(
                        f"&{name} is a nullary constructor, not a program"
                        if sort == "f"
                        else f"@{name} carries a payload and must be applied"
                    )
                sort, d = "c", self.defs["c", name]
            elif type(d) is _Unparsed:
                d = self._parse_prelude((sort, name))
            what = _OWNERS[sort] + name
            if len(d.params) != len(args):
                raise PreprocessError(
                    f"{what} expects {len(d.params)} generic argument(s), got {len(args)}"
                )
            bound, key = {}, []
            for p, a in zip(d.params, args):
                if sort_of(a) != p.sort:
                    where = f"{what}: argument for {PARAM_SIGILS[p.sort]}{p.name}"
                    raise PreprocessError(f"{where} must be {_KINDS[p.sort]}")
                v = bound[p.sort, p.name] = self.elab(a, env)
                key.append(v if type(v) is tuple else id(v.node if type(v) is _Inexact else v))
            if type(d) is VariantDef:
                variant = True
                memo_key, what = ("v", d.name, tuple(key)), f"type {d.name}"
            else:
                memo_key = sort, name, tuple(key)
            if site is False:  # the second evaluation: build the cache, or None
                if args and not variant and self._prelude.get((sort, name)) is d:
                    # bound holds the parameters' keys in their order
                    site = (sort, name), d, what, tuple(map(_reader, args, bound))
                object.__setattr__(x, "_derived", site or None)
        if memo_key in self._memo:
            v = self._memo[memo_key]
        else:
            if memo_key in self._in_progress:
                raise PreprocessError(
                    f"{what} recursively instantiates itself at the same arguments"
                )
            self._in_progress[memo_key] = what
            self._tick(what)
            inner = _new(_Env, (bound, {}, sort in "ef", None, False))
            if variant:
                payloads = tuple(
                    TyUnit._intern(self._nodes, None, None, None)
                    if alt.payload is None
                    else self.elab(alt.payload, inner)
                    for alt in d.alts
                )
                v = self._variant(d, payloads)
            else:
                v = self.elab(d.body, inner)
            del self._in_progress[memo_key]
            self._memo[memo_key] = v
        if variant:  # a type name's sum type, or a constructor's core value
            v = v[0] if sort == "t" else v[1][self.ctors[name]]
        if not args:
            self._argless[x.sort, name] = v
        return v

    def _parse_prelude(self, key: tuple[str, str]) -> Def:
        """The prelude definition under ``key``, parsed with every unparsed
        prelude definition that it names, transitively, in this one loop.

        Each is kept in the prelude's shared table, for later compiles, and
        in this elaborator's.  A compile first looks a prelude name up near
        the top of its stack, so parsing the whole closure there leaves no
        parser frame for the deep end of the elaboration, where the
        definitions it names are looked up.
        """
        table, todo = self._prelude, [key]
        while todo:
            k = todo.pop()
            d = table[k]
            if type(d) is _Unparsed:
                d = _parse_entry(table, k)
                nodes = [d.body]
                while nodes:
                    x = nodes.pop()
                    if type(x) is Name and type(table.get((x.sort, x.name))) is _Unparsed:
                        todo.append((x.sort, x.name))
                    nodes += children(x)
            self.defs[k] = d
        return self.defs[key]

    def _variant(self, d: VariantDef, payloads: tuple[CoreType, ...]) -> tuple[CoreType, tuple]:
        """The sum type of ``d`` at these payload types and each constructor's core value.

        Alternatives nest to the right, ``A + (B + C)``: constructor ``i`` is
        ``i`` ``right`` injections, then a ``left`` unless it is the last,
        applied to ``()`` when nullary.  With a payload it is its one
        injection, or its injections under one ``lambda`` (the identity when
        there is one alternative).
        """
        nodes = self._nodes
        tails = [payloads[-1]]  # tails[i]: the sum of the alternatives from i on
        for p in reversed(payloads[:-1]):
            tails.insert(0, TySum._intern(nodes, p, tails[0], None))
        rights = [PrRight._intern(nodes, p, tail, None) for p, tail in zip(payloads, tails[1:])]
        unit, values = ExUnit._intern(nodes, None, None, None), []
        for i, alt in enumerate(d.alts):
            chain = rights[:i]
            if i < len(rights):
                chain.append(PrLeft._intern(nodes, payloads[i], tails[i + 1], None))
            if alt.payload is not None and len(chain) == 1:
                values.append(chain[0])
                continue
            # the one binder of a closed program, so numbered 0
            x = unit if alt.payload is None else ExVar._intern(nodes, "v%0", None, None)
            e = x
            for f in reversed(chain):
                e = ExApp._intern(nodes, f, e, None)
            values.append(e if x is unit else PrAbs._intern(nodes, x, e, None))
        return tails[0], tuple(values)

    # -- the one recursion ---------------------------------------------------------

    def elab(self, x, env: _Env):
        """The core node of a type, expression or program ``x``, the
        :data:`RealValue` of a real, or the bool of a condition.

        One case per node class, most frequent first, as counted on the
        benchmark's workloads.  Each node is built in the frame of its case,
        by its class's interning step on the compile's table, so it is the
        compile's one node of its kind; an inexact real keeps the tree of
        ``x`` over its children's nodes.  Callers call this directly, so each
        level of the term costs one frame at most, and two kinds of node
        none: an ``if`` is replaced by the branch its condition picks, in the
        loop at the top, which runs the condition's kernel there too; and
        outside a pattern, a variable that is a pair's operand or an
        application's argument is looked up in the frame of the pair or the
        application.  Each shortcut falls back on this recursion where it has
        no answer, so every value and every error is the walk's.
        """
        # Every call sets up a slot for each local, and this recursion is as
        # deep as the term, so the cases share ``left``, ``right``, ``v`` and
        # ``n``.
        t = type(x)
        while t is If:
            # A comparison whose kernel is built runs it here, and counts what
            # the walk would; any other condition, or a kernel that gives no
            # value, is elaborated, which builds the kernel or walks it.
            v = x.cond
            n = getattr(v, "_derived", None) if type(v) is BCmp else None
            left = n[0](env.generics) if type(n) is tuple else None
            if left is None:
                left = self.elab(v, env)
            else:
                self._reads += n[1]
                self.kernel_hits += 1
            x = x.then if left else x.els
            t = type(x)
        if t is ExApp:
            # Outside a pattern, an argument that is a variable is looked up
            # here; any other, and one not in scope, is elaborated.
            left, right = self.elab(x.fn, env), x.arg
            v = env.qrename.get(right.name) if type(right) is ExVar and env.binds is None else None
            return ExApp._intern(self._nodes, left, self.elab(right, env) if v is None else v, None)
        if t is ExPair:
            # Each operand as an application's argument, the left one first.
            left, right, v = x.left, x.right, env.qrename if env.binds is None else {}
            left = v.get(left.name) if type(left) is ExVar else None
            right = v.get(right.name) if type(right) is ExVar else None
            left = self.elab(x.left, env) if left is None else left
            right = self.elab(x.right, env) if right is None else right
            return ExPair._intern(self._nodes, left, right, None)
        if t is Name:
            # A generic parameter in scope (never for a type name), else the
            # value of an argless name as this compile first resolved it;
            # anything else is instantiated by _named.
            left, right = x.sort, (x.sort, x.name)
            v = env.generics.get(right) if left != "t" else None
            if v is not None:
                self._reads += 1
                if x.args:
                    raise PreprocessError(f"parameter {_OWNERS[left]}{x.name} takes no arguments")
                if left == "e" and env.closed:
                    n = free_qvars(v)
                    if n:
                        raise PreprocessError(
                            f"&{x.name} is used inside a program but has the free "
                            f"variable(s) {', '.join(sorted(n))} of its caller"
                        )
                return v
            if not x.args:
                v = self._argless.get(right)
                if v is not None:
                    return v
        if t is Name or t is RBinary or t is BCmp:
            # A name or an integer expression met before: the slot holds
            # False after a first evaluation, then what the second one
            # builds, the call site's cache (see _named) or the expression's
            # kernel, or None.  A kernel runs here, if it answers.
            try:
                v = x._derived
            except AttributeError:
                object.__setattr__(x, "_derived", False)
                v = None
            if t is Name:
                return self._named(x, env, v)
            if v is False:
                v = kernel(x)
                object.__setattr__(x, "_derived", v)
            if v is not None:
                left = v[0](env.generics)
                if left is not None:
                    self._reads += v[1]
                    self.kernel_hits += 1
                    return left
        # A program numbers its binders from 0, and the program around it
        # goes on from where it was after.  One that read no generic
        # parameter is kept, and returned when it is entered again.  An
        # ``rphase`` is a closed program like a lambda with no body; its
        # angles are reals, which read no variable and bind none.
        if t is PrAbs or t is PrRphase or t is PrPmatch:
            n, self._binders = self._binders, 0
            key = id(x), 0, env.fresh
            v = self._kept.get(key)
            if v is None:
                reads = self._reads
                inner = _new(_Env, (env.generics, {}, env.fresh, None, True))
                if t is PrAbs:
                    left, inner = self._pattern(x.pattern, inner)
                    v = PrAbs._intern(self._nodes, left, self.elab(x.body, inner), None)
                elif t is PrPmatch:
                    v = PrPmatch._intern(self._nodes, self._elab_arms(x.arms, inner), None, None)
                else:
                    left = self._pattern(x.pattern, inner)[0]
                    # ``gphase{r}`` is ``rphase{_, r, r}`` with one ``r``, elaborated once
                    right = self.elab(x.on_phase, env)
                    v = right if x.off_phase is x.on_phase else self.elab(x.off_phase, env)
                    right, v = self._real_node(right), self._real_node(v)
                    v = PrRphase._intern(self._nodes, left, right, v)
                if reads == self._reads:
                    self._kept[key] = v, x
            else:
                v = v[0]
                self.reused += 1
            self._binders = n
            return v
        if t is ExVar:
            v = env.qrename.get(x.name)
            if env.binds is not None and (v is None or x.name == "_"):
                v = self._fresh() if env.fresh or x.name == "_" else x.name
                v = env.binds[x.name] = ExVar._intern(self._nodes, v, None, None)
            elif v is None:
                raise PreprocessError(f"unbound variable {x.name}")
            return v
        if t is RConst:
            return x.value, 0
        if t is RBinary:
            # A left-nested chain in a loop, so a flat ``1 - 1 - ... - 1``
            # takes no frame per operator: down its left spine, keeping the
            # way back in ``n`` as nested pairs (no list, which would cost
            # every lone operator more), then its leftmost operand, then each
            # right operand and its step, in order.
            n = None
            while type(x.left) is RBinary:
                n, x = (x, n), x.left
            left = self.elab(x.left, env)
            while True:
                right = self.elab(x.right, env)
                v = step(
                    x.op,
                    left.value if type(left) is _Inexact else left,
                    right.value if type(right) is _Inexact else right,
                )
                if type(v) is tuple:
                    left = v
                else:
                    left, right = self._real_node(left), self._real_node(right)
                    left = _Inexact(RBinary._intern(self._nodes, x.op, left, right), v)
                if n is None:
                    return left
                x, n = n
        if t is ExCtrl or t is ExMatch:
            left, right = self.elab(x.scrutinee, env), self._elab_arms(x.arms, env)
            v = None if x.else_body is None else self.elab(x.else_body, env)
            return t._intern(self._nodes, left, right, v)
        if t is RPi:
            return 0, 1
        if t is TVar:
            v = env.generics.get(("t", x.name))
            if v is None:
                raise PreprocessError(f"unbound type variable '{x.name}")
            self._reads += 1
            return v
        if t is ExUnit or t is TyUnit or t is TyVoid:
            return t._intern(self._nodes, None, None, None)
        if t is PrU3:
            left, right, v = self.elab(x.theta, env), self.elab(x.phi, env), self.elab(x.lam, env)
            left, right, v = self._real_node(left), self._real_node(right), self._real_node(v)
            return PrU3._intern(self._nodes, left, right, v)
        if t is BCmp:
            left, right = self.elab(x.left, env), self.elab(x.right, env)
            return compare(
                x.op,
                left.value if type(left) is _Inexact else left,
                right.value if type(right) is _Inexact else right,
            )
        if t is TyProd:
            left, right = self.elab(x.left, env), self.elab(x.right, env)
            return TyProd._intern(self._nodes, left, right, None)
        if t is RUnary:
            left = self.elab(x.arg, env)
            v = step(x.op, left.value if type(left) is _Inexact else left)
            if type(v) is tuple:
                return v
            return _Inexact(RUnary._intern(self._nodes, x.op, self._real_node(left), None), v)
        if t is ExTry:
            left, right = self.elab(x.attempt, env), self.elab(x.fallback, env)
            return ExTry._intern(self._nodes, left, right, None)
        if t is BNot:
            return not self.elab(x.arg, env)
        if t is BAnd:
            return self.elab(x.left, env) and self.elab(x.right, env)
        if t is BOr:
            return self.elab(x.left, env) or self.elab(x.right, env)
        if t is REuler:
            return _Inexact(REuler._intern(self._nodes, None, None, None), math.e)
        raise PreprocessError(f"cannot elaborate {x!r}")

    def _real_node(self, v: RealValue) -> Real:
        """The node of the value ``v``: an inexact value's own tree, or the
        leaf of an exact one."""
        if type(v) is _Inexact:
            return v.node
        return RExact._intern(self._nodes, v[0], v[1], None)

    def _pattern(self, p: Expr, env: _Env) -> tuple[CoreExpr, _Env]:
        """Elaborate ``p`` in binding mode; return it and the scope it opens.

        A pattern nested in another one (an arm inside a pattern) opens its
        scope over the enclosing pattern's, which is still binding.  Any
        other binds from an empty table, so if it read no generic parameter,
        its core, the variables it binds and the binder count after it are
        kept under its id, the binder count before it and ``env.fresh``.
        A kept entry holds ``p`` itself, as an id is unique only while its
        object lives.
        """
        binds: dict[str, ExVar] = {}
        g, fresh, closed = env.generics, env.fresh, env.closed
        if env.binds is not None:
            pattern = self.elab(p, _new(_Env, (g, binds, fresh, binds, closed)))
            return pattern, _new(_Env, (g, ChainMap(binds, env.qrename), fresh, env.binds, closed))
        key = id(p), self._binders, fresh
        kept = self._kept.get(key)
        if kept is None:
            reads = self._reads
            pattern = self.elab(p, _new(_Env, (g, binds, fresh, binds, closed)))
            if reads == self._reads:
                self._kept[key] = pattern, binds, self._binders, p
        else:
            pattern, binds, self._binders, _ = kept
            self.reused += 1
        # Over a scope with no variables, ``binds``, kept or not, is the new
        # scope as it is, with no copy.  That is safe because no scope dict is
        # written after its pattern is bound: only a pattern being bound
        # writes, into its own ``binds``.
        q = env.qrename
        return pattern, _new(_Env, (g, {**q, **binds} if q else binds, fresh, None, closed))

    def _elab_arms(self, arms: tuple[CoreArm, ...], env: _Env) -> tuple[CoreArm, ...]:
        out = []
        for arm in arms:  # a loop, not a generator, so an arm costs no frame of its own
            pattern, inner = self._pattern(arm.pattern, env)
            out.append(CoreArm._intern(self._nodes, pattern, self.elab(arm.body, inner), None))
        arms = tuple(out)
        return self._nodes.setdefault((tuple, *map(id, arms)), arms)


def elaborate_file(qf: QFile, use_prelude: bool = False) -> CoreExpr:
    """Elaborate a parsed file's main expression against its definitions,
    and the prelude's if ``use_prelude``."""
    return Elaborator(qf.defs, use_prelude).elaborate(qf.main)


def core_of_source(source: str, use_prelude: bool = True) -> CoreExpr:
    """Parse and elaborate source text in one step (the common entry point).

    The prelude's table is built once per process, by the first call that
    uses it, and each prelude definition is parsed once per process, by the
    first compile that reaches it; with ``use_prelude=False`` the prelude is
    never read.
    """
    return elaborate_file(parse_file(source), use_prelude)
