"""Recursive-descent parser for Qunity surface syntax.

Most of the grammar is predictive (one token of lookahead), with three
documented exceptions that use bounded backtracking:

* a ``(`` at expression position may open a unit/pair/parenthesized
  expression or a parenthesized program being applied;
* a ``(`` in a boolean condition may parenthesize a sub-condition or the
  real expression on the left of a comparison;
* a ``(`` or ``if`` in a generic-argument list is tried as expression, real,
  type, then program.

In a generic-argument list a program followed by ``(`` is read as an
application expression (``&e{@f(x) |> @g}``), since that is how the printer
writes an applied program there.

Operator shapes not fully pinned down by the grammar are resolved as follows:
``*`` on types is left-associative (a product ``A * B * C`` means
``(A * B) * C``), arithmetic ``+ - * / %`` are left-associative with ``^``
right-associative and tighter, ``!`` binds tighter than ``&&`` which binds
tighter than ``||``, and a minus sign is only part of a numeric literal (there
is no general unary minus).  ``x |> f`` applies ``f`` to ``x`` and chains
left-associatively; a ``lambda`` on the right of ``|>`` takes everything to
its right as its body, which reassociates pipelines but never changes their
meaning.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from . import reals, surface
from .errors import ParseError
from .lexer import Token, TokKind, tokenize
from .reals import (
    BAnd,
    BCmp,
    BNot,
    BOr,
    BoolExpr,
    RBinary,
    RConst,
    REuler,
    RIf,
    RName,
    RPi,
    RUnary,
    Real,
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
    VariantAlt,
    VariantDef,
)

_T = TypeVar("_T")

_CMP_OPS = ("=", "!=", "<=", "<", ">=", ">")
_PROG_START_KWS = ("u3", "lambda", "gphase", "rphase", "pmatch")
_REAL_START_KWS = ("pi", "euler") + reals.UNARY_OPS


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

    def _attempt(
        self, fn: Callable[[], _T], failures: list[tuple[int, ParseError]] | None = None
    ) -> _T | None:
        """Run ``fn``, rolling the token cursor back if it raises ParseError.

        When ``failures`` is given, the error is appended to it together with
        the cursor position that ``fn`` had reached when it raised.
        """
        snapshot = self.pos
        try:
            return fn()
        except ParseError as e:
            if failures is not None:
                failures.append((self.pos, e))
            self.pos = snapshot
            return None

    def _if(self, branch: Callable[[], _T], node: Callable[[BoolExpr, _T, _T], _T]) -> _T:
        """``if cond then a else b endif``, with both branches read by ``branch``."""
        self.expect_kw("if")
        cond = self.parse_bool()
        self.expect_kw("then")
        then = branch()
        self.expect_kw("else")
        els = branch()
        self.expect_kw("endif")
        return node(cond, then, els)

    # -- reals and booleans -------------------------------------------------

    def parse_real(self) -> Real:
        left = self._real_mul()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.take().text
            left = RBinary(op, left, self._real_mul())
        return left

    def _real_mul(self) -> Real:
        left = self._real_pow()
        while self.at_punct("*") or self.at_punct("/") or self.at_punct("%"):
            op = self.take().text
            left = RBinary(op, left, self._real_pow())
        return left

    def _real_pow(self) -> Real:
        base = self._real_atom()
        if self.at_punct("^"):
            self.take()
            return RBinary("^", base, self._real_pow())
        return base

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
        if t.kind is TokKind.KW and t.text in reals.UNARY_OPS:
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

    def parse_bool(self) -> BoolExpr:
        left = self._bool_and()
        while self.at_punct("||"):
            self.take()
            left = BOr(left, self._bool_and())
        return left

    def _bool_and(self) -> BoolExpr:
        left = self._bool_not()
        while self.at_punct("&&"):
            self.take()
            left = BAnd(left, self._bool_not())
        return left

    def _bool_not(self) -> BoolExpr:
        if self.at_punct("!"):
            self.take()
            return BNot(self._bool_not())
        return self._bool_atom()

    def _bool_atom(self) -> BoolExpr:
        if self.at_punct("("):

            def paren_bool() -> BoolExpr:
                self.expect_punct("(")
                inner = self.parse_bool()
                self.expect_punct(")")
                return inner

            got = self._attempt(paren_bool)
            if got is not None:
                return got
        left = self.parse_real()
        if self.cur.kind is TokKind.PUNCT and self.cur.text in _CMP_OPS:
            op = self.take().text
            return BCmp(op, left, self.parse_real())
        raise self._fail("expected a comparison operator")

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self._type_atom()
        while self.at_punct("*"):
            self.take()
            left = TProd(left, self._type_atom())
        return left

    def _type_atom(self) -> Type:
        t = self.cur
        if self.at_kw("Void"):
            self.take()
            return TVoid()
        if self.at_kw("Unit"):
            self.take()
            return TUnit()
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
            e = EApp(self.parse_prog(), e)
        return e

    def _expr_app(self) -> Expr:
        t = self.cur
        if self.at_punct("("):

            def plain_group() -> Expr:
                self.expect_punct("(")
                if self.at_punct(")"):
                    self.take()
                    return EUnit()
                first = self.parse_expr()
                if self.at_punct(","):
                    self.take()
                    second = self.parse_expr()
                    self.expect_punct(")")
                    return EPair(first, second)
                self.expect_punct(")")
                return first

            got = self._attempt(plain_group)
            if got is not None:
                return got
            # A parenthesized program being applied: (lambda x -> ...)(e)
            self.expect_punct("(")
            f = self.parse_prog()
            self.expect_punct(")")
            return EApp(f, self._app_argument())
        if t.kind is TokKind.QVAR:
            self.take()
            return EVar(t.text)
        if t.kind is TokKind.ENAME:
            self.take()
            return EName(t.text, self.maybe_generic_args())
        if self.at_kw("ctrl"):
            self.take()
            scrutinee = self.parse_expr()
            arms, els = self._parse_arms(allow_else=True)
            return ECtrl(scrutinee, arms, els)
        if self.at_kw("match"):
            self.take()
            scrutinee = self.parse_expr()
            arms, els = self._parse_arms(allow_else=True)
            return EMatch(scrutinee, arms, els)
        if self.at_kw("try"):
            self.take()
            attempt = self.parse_expr()
            self.expect_kw("catch")
            return ETry(attempt, self.parse_expr())
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
            return EApp(f, self._app_argument())
        raise self._fail("expected an expression")

    def _app_argument(self) -> Expr:
        """The argument of an application.

        The parentheses of ``f(a, b)`` double as the pair's, so this accepts
        unit, a single expression, or a comma pair inside one set of parens.
        """
        self.expect_punct("(")
        if self.at_punct(")"):
            self.take()
            return EUnit()
        first = self.parse_expr()
        if self.at_punct(","):
            self.take()
            second = self.parse_expr()
            self.expect_punct(")")
            return EPair(first, second)
        self.expect_punct(")")
        return first

    def _parse_arms(self, allow_else: bool) -> tuple[tuple[Arm, ...], Expr | None]:
        self.expect_punct("[")
        arms: list[Arm] = []
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
            arms.append(Arm(pattern, body))
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
            return PU3(theta, phi, lam)
        if self.at_kw("lambda"):
            self.take()
            pattern = self.parse_expr()
            self.expect_punct("->")
            return PLambda(pattern, self.parse_expr())
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
            return PRphase(pattern, on_phase, off_phase)
        if self.at_kw("pmatch"):
            self.take()
            arms, _ = self._parse_arms(allow_else=False)
            return PPmatch(arms)
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
        if not self.at_punct("{"):
            return ()
        self.take()
        args = [self.parse_generic_arg()]
        while self.at_punct(","):
            self.take()
            args.append(self.parse_generic_arg())
        self.expect_punct("}")
        return tuple(args)

    def parse_generic_arg(self) -> GenArg:
        t = self.cur
        if t.kind in (TokKind.TYVAR, TokKind.TNAME) or self.at_kw("Void") or self.at_kw("Unit"):
            return self.parse_type()
        if t.kind in (TokKind.QVAR, TokKind.ENAME) or (
            t.kind is TokKind.KW and t.text in ("ctrl", "match", "try", "let")
        ):
            return self.parse_expr()
        if t.kind is TokKind.FNAME or (t.kind is TokKind.KW and t.text in _PROG_START_KWS):
            f = self.parse_prog()
            if not self.at_punct("("):
                return f
            return self._pipeline(EApp(f, self._app_argument()))
        if (
            t.kind in (TokKind.NUMBER, TokKind.RNAME)
            or self.at_punct("-")
            or (t.kind is TokKind.KW and t.text in _REAL_START_KWS)
        ):
            return self.parse_real()
        if self.at_punct("(") or self.at_kw("if"):
            failures: list[tuple[int, ParseError]] = []
            for attempt in (self.parse_expr, self.parse_real, self.parse_type, self.parse_prog):
                got = self._attempt(attempt, failures)  # type: ignore[arg-type]
                if got is not None:
                    return got  # type: ignore[return-value]
            # The trial that read furthest explains the failure best, unless
            # none read a token past the opening one.
            reached, error = max(failures, key=lambda f: f[0])
            if reached > self.pos + 1:
                raise error
        raise self._fail("expected a type, expression, program, or real argument")

    # -- definitions and files -----------------------------------------------------

    def _maybe_sig(self) -> tuple[Param, ...]:
        if not self.at_punct("{"):
            return ()
        self.take()
        params = [self._parse_param()]
        while self.at_punct(","):
            self.take()
            params.append(self._parse_param())
        self.expect_punct("}")
        return tuple(params)

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

    def parse_def(self) -> surface.Def:
        if self.at_kw("type"):
            self.take()
            name = self.expect_kind(TokKind.TNAME, "a type name").text
            params = self._maybe_sig()
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
            params = self._maybe_sig()
            self.expect_punct(":")
            ty = self.parse_type()
            self.expect_punct(":=")
            body = self.parse_expr()
            self.expect_kw("end")
            return ExprDef(t.text, params, ty, body)
        if t.kind is TokKind.FNAME:
            self.take()
            params = self._maybe_sig()
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
            params = self._maybe_sig()
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
        defs: list[surface.Def] = []
        while self.at_kw("type") or self.at_kw("def"):
            defs.append(self.parse_def())
        main: Expr | None = None
        if self.cur.kind is not TokKind.EOF:
            main = self.parse_expr()
        self.expect_eof()
        return QFile(tuple(defs), main)

    def expect_eof(self) -> None:
        if self.cur.kind is not TokKind.EOF:
            raise self._fail("unexpected trailing input")


def parse_file(source: str) -> QFile:
    return _Parser(tokenize(source)).parse_file()


def parse_expr_string(source: str) -> Expr:
    p = _Parser(tokenize(source))
    e = p.parse_expr()
    p.expect_eof()
    return e


def parse_prog_string(source: str) -> Prog:
    p = _Parser(tokenize(source))
    f = p.parse_prog()
    p.expect_eof()
    return f


def parse_type_string(source: str) -> Type:
    p = _Parser(tokenize(source))
    t = p.parse_type()
    p.expect_eof()
    return t


def parse_real_string(source: str) -> Real:
    p = _Parser(tokenize(source))
    r = p.parse_real()
    p.expect_eof()
    return r
