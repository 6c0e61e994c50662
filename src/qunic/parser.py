"""Recursive-descent parser for Qunity source text.

It builds the one syntax tree of :mod:`qunic.core`, from reals to whole
files; the nodes of the core language are built directly, the sugar nodes
beside them.

The grammar is predictive, with no exception: one token of lookahead picks
every alternative, and each token is read once.  Where that token does not
tell the class of what follows, one routine reads the whole construct and
returns whichever class it found, and the caller continues from that node:

* ``_group`` reads ``(`` ... ``)`` around any generic argument, unit, or a
  pair.  At expression position a program in it is applied to the argument
  after it (``(lambda x -> x)(e)``), and a real or a type is an error; the
  argument of an application must be an expression.  In a generic argument a
  real or a type continues as one (``&f{(#a - 1) / 2}``), an expression
  continues through ``|>``, and a program followed by ``(`` is applied.
* an ``if`` in a generic argument reads both branches as generic arguments,
  which must be of one class; an ``if`` program is not applied.
* a ``(`` in a condition reads a condition or a real; a real is then
  continued and compared (``((1) + 2) < 3``).

The printer, :func:`qunic.core.to_str`, writes an applied program as the
program followed by its argument in parentheses, so an unparenthesized
program followed by ``(`` in a generic argument is applied too
(``&e{@f(x) |> @g}``).  It puts every ``lambda`` and every ``if`` program in
parentheses, so an applied one reads back through ``_group``, and every
product in parentheses, which the left-associative ``*`` reads back unchanged.

Operator shapes not fully pinned down by the grammar are resolved as follows:
``*`` on types is left-associative (a product ``A * B * C`` means
``(A * B) * C``), arithmetic ``+ - * / %`` are left-associative with ``^``
right-associative and tighter (the table ``core.BIN_PREC``, which the printer
reads too), ``!`` binds tighter than ``&&`` which binds tighter than ``||``,
and a minus sign is only part of a numeric literal (there is no general
unary minus).  ``x |> f`` applies ``f`` to ``x`` and chains
left-associatively; a ``lambda`` on the right of ``|>`` takes everything to
its right as its body, which reassociates pipelines but never changes their
meaning.  Nesting too deep for the interpreter's stack is a
:class:`~qunic.errors.CapacityError`.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .core import (
    BIN_PREC,
    BOOLS,
    EXPRS,
    PROGS,
    REALS,
    TYPES,
    UNARY_OPS,
    BAnd,
    BCmp,
    BNot,
    BoolExpr,
    BOr,
    CoreArm,
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
    Prog,
    ProgDef,
    ProgParam,
    PrPmatch,
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
    Type,
    TypeAliasDef,
    TypeParam,
    TyProd,
    TyUnit,
    TyVoid,
    VariantAlt,
    VariantDef,
)
from .errors import CapacityError, ParseError
from .lexer import Token, TokKind, tokenize

_T = TypeVar("_T")

_CMP_OPS = ("=", "!=", "<=", "<", ">=", ">")
_PROG_START_KWS = ("u3", "lambda", "gphase", "rphase", "pmatch")
_REAL_START_KWS = ("pi", "euler") + UNARY_OPS


def _integer(t: Token) -> int:
    """The value of a NUMBER token; a literal too long for ``int`` is a ParseError."""
    try:
        return int(t.text)
    except ValueError:  # over the interpreter's limit on integer-string conversion
        message = f"numeric literal of {len(t.text)} digits is too long"
        raise ParseError(message, t.line, t.column) from None


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def _fail(self, message: str) -> "ParseError":
        t = self.cur
        got = f"'{t.text}'" if t.kind is not TokKind.EOF else "end of input"
        return ParseError(f"{message}, got {got}", t.line, t.column)

    def take(self) -> Token:
        t = self.cur
        if t.kind is not TokKind.EOF:
            self.pos += 1
        return t

    def at_punct(self, text: str) -> bool:
        return self.cur.kind is TokKind.PUNCT and self.cur.text == text

    def at_kw(self, text: str) -> bool:
        return self.cur.kind is TokKind.KW and self.cur.text == text

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self._fail(f"expected '{text}'")
        return self.take()

    def expect_kw(self, text: str) -> Token:
        if not self.at_kw(text):
            raise self._fail(f"expected '{text}'")
        return self.take()

    def expect_kind(self, kind: TokKind, what: str) -> Token:
        if self.cur.kind is not kind:
            raise self._fail(f"expected {what}")
        return self.take()

    def _if(self, branch: Callable[[], _T], node: Callable[[BoolExpr, _T, _T], _T]) -> _T:
        """``if cond then a else b endif``, with both branches read by ``branch``."""
        self.expect_kw("if")
        cond = self.parse_bool()
        self.expect_kw("then")
        then = branch()
        self.expect_kw("else")
        built = node(cond, then, branch())
        self.expect_kw("endif")
        return built

    # -- reals and booleans -------------------------------------------------

    def parse_real(self, left: Real | None = None, min_prec: int = 1) -> Real:
        """A real whose operators bind at least ``min_prec`` tight (see ``BIN_PREC``).

        ``left``, when given, is its first operand, already read.
        """
        if left is None:
            left = self._real_atom()
        while self.cur.kind is TokKind.PUNCT and BIN_PREC.get(self.cur.text, 0) >= min_prec:
            op = self.take().text
            prec = BIN_PREC[op]  # '^' is right-associative, the others left
            left = RBinary(op, left, self.parse_real(None, prec if op == "^" else prec + 1))
        return left

    def _real_atom(self) -> Real:
        t = self.cur
        if t.kind is TokKind.NUMBER:
            self.take()
            return RConst(_integer(t))
        if self.at_punct("-"):
            self.take()
            num = self.expect_kind(TokKind.NUMBER, "a number after '-'")
            return RConst(-_integer(num))
        if self.at_kw("pi"):
            self.take()
            return RPi()
        if self.at_kw("euler"):
            self.take()
            return REuler()
        if t.kind is TokKind.KW and t.text in UNARY_OPS:
            self.take()
            self.expect_punct("(")
            arg = self.parse_real()
            self.expect_punct(")")
            return RUnary(t.text, arg)
        if t.kind is TokKind.RNAME:
            self.take()
            return RName(t.text, self.maybe_generic_args())
        if self.at_punct("("):
            self.take()
            r = self.parse_real()
            self.expect_punct(")")
            return r
        if self.at_kw("if"):
            return self._if(self.parse_real, RIf)
        raise self._fail("expected a real expression")

    def parse_bool(self, left: BoolExpr | None = None) -> BoolExpr:
        """A condition; ``left``, when given, is its first operand, already read."""
        left = self._bool_and(left)
        while self.at_punct("||"):
            self.take()
            left = BOr(left, self._bool_and())
        return left

    def _bool_and(self, left: BoolExpr | None = None) -> BoolExpr:
        if left is None:
            left = self._bool_not()
        while self.at_punct("&&"):
            self.take()
            left = BAnd(left, self._bool_not())
        return left

    def _bool_not(self) -> BoolExpr:
        if self.at_punct("!"):
            self.take()
            return BNot(self._bool_not())
        atom = self._comparison()
        if not isinstance(atom, BOOLS):
            raise self._fail("expected a comparison operator")
        return atom

    def _comparison(self) -> BoolExpr | Real:
        """A parenthesized condition, a comparison, or a real with no comparison after it."""
        left = None
        if self.at_punct("("):
            self.take()
            left = self._bool_not() if self.at_punct("!") else self._comparison()
            if isinstance(left, BOOLS):
                left = self.parse_bool(left)
            self.expect_punct(")")
            if isinstance(left, BOOLS):
                return left
        left = self.parse_real(left)
        if self.cur.kind is TokKind.PUNCT and self.cur.text in _CMP_OPS:
            op = self.take().text
            return BCmp(op, left, self.parse_real())
        return left

    # -- types ---------------------------------------------------------------

    def parse_type(self, left: Type | None = None) -> Type:
        """A type; ``left``, when given, is its first operand, already read."""
        if left is None:
            left = self._type_atom()
        while self.at_punct("*"):
            self.take()
            left = TyProd(left, self._type_atom())
        return left

    def _type_atom(self) -> Type:
        t = self.cur
        if self.at_kw("Void"):
            self.take()
            return TyVoid()
        if self.at_kw("Unit"):
            self.take()
            return TyUnit()
        if t.kind is TokKind.TYVAR:
            self.take()
            return TVar(t.text)
        if t.kind is TokKind.TNAME:
            self.take()
            return TName(t.text, self.maybe_generic_args())
        if self.at_punct("("):
            self.take()
            inner = self.parse_type()
            self.expect_punct(")")
            return inner
        if self.at_kw("if"):
            return self._if(self.parse_type, TIf)
        raise self._fail("expected a type")

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._pipeline(self._expr_app())

    def _pipeline(self, e: Expr) -> Expr:
        """Apply the programs of a trailing ``|> f |> g`` chain to ``e``."""
        while self.at_punct("|>"):
            self.take()
            e = ExApp(self.parse_prog(), e)
        return e

    def _expr_app(self) -> Expr:
        t = self.cur
        if self.at_punct("("):
            x = self._group()
            if isinstance(x, PROGS):  # a parenthesized program being applied: (lambda x -> ...)(e)
                return ExApp(x, self._app_argument())
            return self._expression(x, t)
        if t.kind is TokKind.QVAR:
            self.take()
            return ExVar(t.text)
        if t.kind is TokKind.ENAME:
            self.take()
            return EName(t.text, self.maybe_generic_args())
        if self.at_kw("ctrl") or self.at_kw("match"):
            node = ExCtrl if self.take().text == "ctrl" else ExMatch
            scrutinee = self.parse_expr()
            return node(scrutinee, *self._parse_arms(allow_else=True))
        if self.at_kw("try"):
            self.take()
            attempt = self.parse_expr()
            self.expect_kw("catch")
            return ExTry(attempt, self.parse_expr())
        if self.at_kw("let"):
            self.take()
            pattern = self.parse_expr()
            self.expect_punct("=")
            value = self.parse_expr()
            self.expect_kw("in")
            return ELet(pattern, value, self.parse_expr())
        if self.at_kw("if"):
            return self._if(self.parse_expr, EIf)
        if t.kind is TokKind.FNAME or (t.kind is TokKind.KW and t.text in _PROG_START_KWS):
            f = self.parse_prog()
            return ExApp(f, self._app_argument())
        raise self._fail("expected an expression")

    def _app_argument(self) -> Expr:
        """The argument of an application.

        The parentheses of ``f(a, b)`` double as the pair's, so this accepts
        unit, a single expression, or a comma pair inside one set of parens.
        """
        t = self.cur
        return self._expression(self._group(), t)

    def _expression(self, x: GenArg, opening: Token) -> Expr:
        """``x``, read by ``_group`` from the ``opening`` parenthesis, if it is an expression."""
        if not isinstance(x, EXPRS):
            raise ParseError("expected an expression in parentheses", opening.line, opening.column)
        return x

    def _group(self) -> GenArg:
        """``(`` ... ``)`` around a generic argument of any class, or unit, or a pair."""
        self.expect_punct("(")
        if self.at_punct(")"):
            self.take()
            return ExUnit()
        x = self.parse_generic_arg()
        if self.at_punct(",") and isinstance(x, EXPRS):
            self.take()
            x = ExPair(x, self.parse_expr())
        self.expect_punct(")")
        return x

    def _parse_arms(self, allow_else: bool) -> tuple[tuple[CoreArm, ...], Expr | None]:
        self.expect_punct("[")
        arms: list[CoreArm] = []
        else_body: Expr | None = None
        while not self.at_punct("]"):
            if self.at_kw("else"):
                if not allow_else:
                    raise self._fail("'else' arm is not allowed here")
                self.take()
                self.expect_punct("->")
                else_body = self.parse_expr()
                if self.at_punct(";"):
                    self.take()
                break
            pattern = self.parse_expr()
            self.expect_punct("->")
            body = self.parse_expr()
            arms.append(CoreArm(pattern, body))
            if self.at_punct(";"):
                self.take()
            else:
                break
        self.expect_punct("]")
        return tuple(arms), else_body

    # -- programs -----------------------------------------------------------

    def parse_prog(self) -> Prog:
        t = self.cur
        if self.at_kw("u3"):
            self.take()
            self.expect_punct("{")
            theta = self.parse_real()
            self.expect_punct(",")
            phi = self.parse_real()
            self.expect_punct(",")
            lam = self.parse_real()
            self.expect_punct("}")
            return PrU3(theta, phi, lam)
        if self.at_kw("lambda"):
            self.take()
            pattern = self.parse_expr()
            self.expect_punct("->")
            return PrAbs(pattern, self.parse_expr())
        if self.at_kw("gphase"):
            self.take()
            self.expect_punct("{")
            phase = self.parse_real()
            self.expect_punct("}")
            return PGphase(phase)
        if self.at_kw("rphase"):
            self.take()
            self.expect_punct("{")
            pattern = self.parse_expr()
            self.expect_punct(",")
            on_phase = self.parse_real()
            self.expect_punct(",")
            off_phase = self.parse_real()
            self.expect_punct("}")
            return PrRphase(pattern, on_phase, off_phase)
        if self.at_kw("pmatch"):
            self.take()
            arms, _ = self._parse_arms(allow_else=False)
            return PrPmatch(arms)
        if t.kind is TokKind.FNAME:
            self.take()
            return PName(t.text, self.maybe_generic_args())
        if self.at_kw("if"):
            return self._if(self.parse_prog, PIf)
        if self.at_punct("("):
            self.take()
            inner = self.parse_prog()
            self.expect_punct(")")
            return inner
        raise self._fail("expected a program")

    # -- generic arguments ------------------------------------------------------

    def maybe_generic_args(self) -> tuple[GenArg, ...]:
        return self._braced(self.parse_generic_arg)

    def _braced(self, item: Callable[[], _T]) -> tuple[_T, ...]:
        """``{a, b, ...}``, each read by ``item``; nothing if no ``{`` comes next."""
        if not self.at_punct("{"):
            return ()
        self.take()
        items = [item()]
        while self.at_punct(","):
            self.take()
            items.append(item())
        self.expect_punct("}")
        return tuple(items)

    def parse_generic_arg(self) -> GenArg:
        """A type, expression, program or real, whose class its first token tells.

        A ``(`` or an ``if`` does not tell it: the group or the conditional
        is read whole, and what follows continues the class it turned out to be.
        """
        t = self.cur
        if t.kind in (TokKind.TYVAR, TokKind.TNAME) or self.at_kw("Void") or self.at_kw("Unit"):
            x: GenArg = self._type_atom()
        elif t.kind in (TokKind.QVAR, TokKind.ENAME) or (
            t.kind is TokKind.KW and t.text in ("ctrl", "match", "try", "let")
        ):
            x = self._expr_app()
        elif (
            t.kind in (TokKind.NUMBER, TokKind.RNAME)
            or self.at_punct("-")
            or (t.kind is TokKind.KW and t.text in _REAL_START_KWS)
        ):
            x = self._real_atom()
        elif t.kind is TokKind.FNAME or (t.kind is TokKind.KW and t.text in _PROG_START_KWS):
            x = self.parse_prog()
        elif self.at_punct("("):
            x = self._group()
        elif self.at_kw("if"):
            x = self._if(self.parse_generic_arg, self._if_argument)
            if isinstance(x, PROGS):
                return x  # not applied to a '(' after it
        else:
            raise self._fail("expected a type, expression, program, or real argument")
        if isinstance(x, REALS):
            return self.parse_real(x)
        if isinstance(x, TYPES):
            return self.parse_type(x)
        if isinstance(x, PROGS) and self.at_punct("("):
            x = ExApp(x, self._app_argument())
        return self._pipeline(x) if isinstance(x, EXPRS) else x

    def _if_argument(self, cond: BoolExpr, then: GenArg, els: GenArg) -> GenArg:
        """The ``if`` over two generic arguments, which must be of one class."""
        for cls, node in ((EXPRS, EIf), (PROGS, PIf), (REALS, RIf), (TYPES, TIf)):
            if isinstance(then, cls) and isinstance(els, cls):
                return node(cond, then, els)  # type: ignore[arg-type]
        t = self.cur
        raise ParseError("the branches of an 'if' argument differ in class", t.line, t.column)

    # -- definitions and files -----------------------------------------------------

    def _parse_param(self) -> Param:
        t = self.cur
        if t.kind is TokKind.TYVAR:
            self.take()
            return TypeParam(t.text)
        if t.kind is TokKind.ENAME:
            self.take()
            self.expect_punct(":")
            return ExprParam(t.text, self.parse_type())
        if t.kind is TokKind.FNAME:
            self.take()
            self.expect_punct(":")
            dom = self.parse_type()
            self.expect_punct("->")
            return ProgParam(t.text, dom, self.parse_type())
        if t.kind is TokKind.RNAME:
            self.take()
            return RealParam(t.text)
        raise self._fail("expected a parameter")

    def parse_def(self) -> Def:
        if self.at_kw("type"):
            self.take()
            name = self.expect_kind(TokKind.TNAME, "a type name").text
            params = self._braced(self._parse_param)
            self.expect_punct(":=")
            if self.at_punct("|") or self.cur.kind in (TokKind.ENAME, TokKind.FNAME):
                alts = self._parse_variant_alts()
                self.expect_kw("end")
                return VariantDef(name, params, alts)
            body = self.parse_type()
            self.expect_kw("end")
            return TypeAliasDef(name, params, body)
        self.expect_kw("def")
        t = self.cur
        if t.kind is TokKind.ENAME:
            self.take()
            params = self._braced(self._parse_param)
            self.expect_punct(":")
            ty = self.parse_type()
            self.expect_punct(":=")
            body = self.parse_expr()
            self.expect_kw("end")
            return ExprDef(t.text, params, ty, body)
        if t.kind is TokKind.FNAME:
            self.take()
            params = self._braced(self._parse_param)
            self.expect_punct(":")
            dom = self.parse_type()
            self.expect_punct("->")
            cod = self.parse_type()
            self.expect_punct(":=")
            body = self.parse_prog()
            self.expect_kw("end")
            return ProgDef(t.text, params, dom, cod, body)
        if t.kind is TokKind.RNAME:
            self.take()
            params = self._braced(self._parse_param)
            self.expect_punct(":=")
            body = self.parse_real()
            self.expect_kw("end")
            return RealDef(t.text, params, body)
        raise self._fail("expected '&', '@', or '#' after 'def'")

    def _parse_variant_alts(self) -> tuple[VariantAlt, ...]:
        if self.at_punct("|"):
            self.take()  # a leading bar before the first alternative is optional
        alts = [self._parse_variant_alt()]
        while self.at_punct("|"):
            self.take()
            alts.append(self._parse_variant_alt())
        return tuple(alts)

    def _parse_variant_alt(self) -> VariantAlt:
        t = self.cur
        if t.kind is TokKind.ENAME:
            self.take()
            return VariantAlt(t.text, None)
        if t.kind is TokKind.FNAME:
            self.take()
            self.expect_kw("of")
            return VariantAlt(t.text, self.parse_type())
        raise self._fail("expected a variant alternative")

    def parse_file(self) -> QFile:
        defs: list[Def] = []
        while self.at_kw("type") or self.at_kw("def"):
            defs.append(self.parse_def())
        main: Expr | None = None
        if self.cur.kind is not TokKind.EOF:
            main = self.parse_expr()
        return QFile(tuple(defs), main)

    def expect_eof(self) -> None:
        if self.cur.kind is not TokKind.EOF:
            raise self._fail("unexpected trailing input")


def _parse(source: str, parse: Callable[[_Parser], _T]) -> _T:
    """Read all of ``source`` with ``parse``; nesting too deep is a CapacityError."""
    p = _Parser(tokenize(source))
    try:
        x = parse(p)
    except RecursionError:
        t = p.cur
        raise CapacityError(f"{t.line}:{t.column}: input nested too deeply to parse") from None
    p.expect_eof()
    return x


def parse_file(source: str) -> QFile:
    return _parse(source, _Parser.parse_file)


def parse_expr_string(source: str) -> Expr:
    return _parse(source, _Parser.parse_expr)


def parse_prog_string(source: str) -> Prog:
    return _parse(source, _Parser.parse_prog)


def parse_type_string(source: str) -> Type:
    return _parse(source, _Parser.parse_type)


def parse_real_string(source: str) -> Real:
    return _parse(source, _Parser.parse_real)
