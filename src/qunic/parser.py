"""Recursive-descent parser for Qunity source text.

It builds the one syntax tree of :mod:`qunic.core`, from reals to whole
files; the nodes of the core language are built directly, the sugar nodes
beside them.  ``let`` and ``gphase`` are abbreviations, read as their core
forms: ``let p = v in b`` as ``(lambda p -> b)(v)`` and ``gphase{r}`` as
``rphase{_, r, r}``.  The printer writes those forms back.

The grammar is predictive, with no exception: one token of lookahead picks
every alternative, and each token is read once.  Types, expressions,
programs and reals share one atom reader, ``_Parser._atom(what, sorts)``.
``sorts`` is the string of the sorts (:func:`qunic.core.sort_of`) an atom
may have at its position: ``"r"``, ``"t"``, ``"f"`` for a real, a type, a
program, ``"ef"`` for an expression (a program there is applied to the
argument after it), and ``"tefr"`` for a generic argument.  One table,
``_STARTS``, maps each token kind (:mod:`qunic.lexer`: a keyword's or
punctuation's text, a name's sort, or a ``TokKind`` string) to the sort of
the atom it starts; where that is not one of ``sorts``, ``_atom`` fails at
once, at that token, with the message ``what`` of the reader that called it.
A name token becomes a :class:`~qunic.core.Name` of its sort.  Each reader
calls ``_atom`` and continues by sort: ``parse_real`` with arithmetic,
``parse_type`` with ``*``, ``parse_expr`` with ``|>``, ``parse_prog`` with
nothing, and ``parse_generic_arg`` with whichever of these the atom's sort
takes (``_REST``, keyed by sort).  ``_atom`` reads the two first tokens that
do not tell the sort whole, each with the same ``sorts``:

* ``_group`` reads ``(`` ... ``)``.  At a real, type or program position it
  holds an atom of that sort and what continues it.  Where an expression
  may stand it holds unit, a pair, or a generic argument of any sort, which
  must then be of ``sorts``; a program in it is applied to the argument
  after it (``(lambda x -> x)(e)``), and the argument of an application
  must be an expression.  In a generic argument a real or a type continues
  as one (``&f{(#a - 1) / 2}``).
* ``_if`` reads each branch as an atom of ``sorts`` and what continues it;
  in a generic argument they must be of one sort, which becomes the sort of
  the :class:`~qunic.core.If`.  An ``if`` program is not applied to a ``(``
  after it.

A parameter or a definition of every sort is one class,
:class:`~qunic.core.Param` or :class:`~qunic.core.Def`: its sort is the kind
of its name token (``_PARAMS`` gives a type variable's), and ``_signature``
reads its signature by that sort, ``: T`` for an expression and ``: A -> B``
for a program.  A variant type is a :class:`~qunic.core.VariantDef`.

A ``(`` in a condition reads a condition or a real; a real is then continued
and compared (``((1) + 2) < 3``).  A level of ``(`` or ``if`` nesting costs
two frames, ``_atom`` and ``_group`` or ``_if``, as the first operand of
what holds it, and three after an operator: a level of
``(Bit * (Bit * ...))`` costs ``_atom``, ``_group`` and ``parse_type``.

The printer, :func:`qunic.core.to_str`, writes an applied program as the
program followed by its argument in parentheses, so an unparenthesized
program followed by ``(`` in a generic argument is applied too
(``&e{@f(x) |> @g}``).  It puts every ``lambda`` and every ``if`` program in
parentheses, so an applied one reads back through ``_group``, and every
product in parentheses, which the left-associative ``*`` reads back unchanged.

Operator shapes not fully pinned down by the grammar are resolved as follows:
``*`` on types is left-associative (``A * B * C`` means ``(A * B) * C``),
arithmetic ``+ - * / %`` are left-associative with ``^`` right-associative
and tighter (the table ``core.BIN_PREC``, which the printer reads too;
``parse_real`` groups them on an explicit stack, with no frame per operator),
``!`` binds tighter than ``&&`` which binds tighter than ``||``, and a minus
sign is only part of a numeric literal (there is no general unary minus).
``x |> f`` applies ``f`` to ``x`` and chains left-associatively; a ``lambda``
on the right of ``|>`` takes everything to its right as its body, which
reassociates pipelines but never changes their meaning.  Nesting too deep
for the interpreter's stack is a :class:`~qunic.errors.CapacityError`.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .core import (
    BIN_PREC,
    BOOLS,
    UNARY_OPS,
    BAnd,
    BCmp,
    BNot,
    BoolExpr,
    BOr,
    CoreArm,
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
    Param,
    PrAbs,
    Prog,
    PrPmatch,
    PrRphase,
    PrU3,
    QFile,
    RBinary,
    RConst,
    Real,
    REuler,
    RPi,
    RUnary,
    SIGILS,
    TVar,
    Type,
    TyProd,
    TyUnit,
    TyVoid,
    VariantAlt,
    VariantDef,
    sort_of,
)
from .errors import CapacityError, ParseError
from .lexer import Token, TokKind, tokenize

_T = TypeVar("_T")

_CMP_OPS = ("=", "!=", "<=", "<", ">=", ">")

# The sorts an atom may have at each position (see the module docstring).
_REAL, _TYPE, _PROG, _EXPR, _ARG = "r", "t", "f", "ef", "tefr"
_EXPECTED_ARG = "expected a type, expression, program, or real argument"

# The sort of the atom that each token kind starts; a name's kind is its
# sort.  "(" and "if" may start an atom of any sort, and "" is in every ``sorts``.
_STARTS = {
    "e": "e", TokKind.QVAR: "e", "ctrl": "e", "match": "e", "try": "e", "let": "e",
    "f": "f", "u3": "f", "lambda": "f", "gphase": "f", "rphase": "f", "pmatch": "f",
    "t": "t", TokKind.TYVAR: "t", "Void": "t", "Unit": "t",
    "r": "r", TokKind.NUMBER: "r", "-": "r", "pi": "r", "euler": "r",
    **dict.fromkeys(UNARY_OPS, "r"),
    "(": "", "if": "",
}


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
        # The token at ``pos``: an attribute, not a property, as the parser
        # reads it about four times per token.
        self.cur = tokens[0]

    # -- token plumbing ----------------------------------------------------

    def _fail(self, message: str) -> "ParseError":
        t = self.cur
        got = "end of input" if t.kind == TokKind.EOF else f"'{t.text}'"
        return ParseError(f"{message}, got {got}", t.line, t.column)

    def take(self) -> Token:
        t = self.cur
        if t.kind != TokKind.EOF:
            self.pos += 1
            self.cur = self.toks[self.pos]
        return t

    def at(self, kind: str) -> bool:
        return self.cur.kind == kind

    def expect(self, kind: str, what: str | None = None) -> Token:
        """Take a token of ``kind``; ``what`` names it in the error, which
        otherwise quotes ``kind``, the text of a keyword or punctuation."""
        if self.cur.kind != kind:
            raise self._fail(f"expected {what}" if what else f"expected '{kind}'")
        return self.take()

    # -- atoms -----------------------------------------------------------------

    def _atom(self, what: str, sorts: str) -> GenArg:
        """An atom of one of ``sorts``, told by its first token.

        A first token that starts no atom of ``sorts`` fails at once with
        ``what``.  Where an expression may stand, a program is applied to a
        ``(`` after it, and at expression position it must be; an ``if``
        program is never applied.
        """
        t = self.cur
        k = t.kind
        sort = _STARTS.get(k, "?")
        if sort not in sorts:
            raise self._fail(what)
        if k == TokKind.QVAR:
            self.take()
            return ExVar(t.text)
        if k in SIGILS:
            self.take()
            x = Name(k, t.text, self.maybe_generic_args())
        elif k == TokKind.NUMBER:
            self.take()
            return RConst(_integer(t))
        elif k == "(":
            x = self._group(what, sorts)
            sort = sort_of(x)
        elif k == "if":
            return self._if(what, sorts)
        elif k == TokKind.TYVAR:
            self.take()
            return TVar(t.text)
        else:
            self.take()
            if k == "lambda":
                pattern = self.parse_expr()
                self.expect("->")
                x = PrAbs(pattern, self.parse_expr())
            elif k == "ctrl" or k == "match":
                node = ExCtrl if k == "ctrl" else ExMatch
                return node(self.parse_expr(), *self._parse_arms(allow_else=True))
            elif k == "u3":
                x = PrU3(*self._fields(self.parse_real, self.parse_real, self.parse_real))
            elif k == "-":
                return RConst(-_integer(self.expect(TokKind.NUMBER, "a number after '-'")))
            elif k == "Unit" or k == "Void":
                return TyUnit() if k == "Unit" else TyVoid()
            elif k == "pi" or k == "euler":
                return RPi() if k == "pi" else REuler()
            elif k == "try":
                attempt = self.parse_expr()
                self.expect("catch")
                return ExTry(attempt, self.parse_expr())
            elif k == "let":
                pattern = self.parse_expr()
                self.expect("=")
                value = self.parse_expr()
                self.expect("in")
                return ExApp(PrAbs(pattern, self.parse_expr()), value)
            elif k == "gphase":
                phase = self._fields(self.parse_real)[0]
                x = PrRphase(ExVar("_"), phase, phase)
            elif k == "rphase":
                x = PrRphase(*self._fields(self.parse_expr, self.parse_real, self.parse_real))
            elif k == "pmatch":
                x = PrPmatch(self._parse_arms(allow_else=False)[0])
            else:  # a unary function
                self.expect("(")
                arg = self.parse_real()
                self.expect(")")
                return RUnary(k, arg)
        if sort == "f" and "e" in sorts:  # a program where an expression may stand
            if self.at("("):
                return ExApp(x, self._group("expected an expression", "e"))
            if sorts == _EXPR:
                raise self._fail("expected '('")
        return x

    def _group(self, what: str, sorts: str) -> GenArg:
        """``(`` ... ``)`` around an atom of ``sorts`` and what continues it.

        Where an expression may stand, the parentheses hold unit, a pair, or
        an argument of any sort, which must then be of ``sorts``.
        """
        opening = self.take()
        if "e" not in sorts:
            x = self._atom(what, sorts)
        elif self.at(")"):
            self.take()
            return ExUnit()
        else:
            x = self._atom(_EXPECTED_ARG, _ARG)
        sort = sort_of(x)
        x = _REST[sort](self, x)
        if self.at(",") and sort == "e":
            self.take()
            x = ExPair(x, self.parse_expr())
        self.expect(")")
        if sort not in sorts:
            raise ParseError(f"{what} in parentheses", opening.line, opening.column)
        return x

    def _if(self, what: str, sorts: str) -> GenArg:
        """``if cond then a else b endif``, each branch an atom of ``sorts``
        and what continues it; the branches must be of one sort."""
        self.take()
        cond = self.parse_bool()
        self.expect("then")
        then = self._atom(what, sorts)
        sort = sort_of(then)
        then = _REST[sort](self, then)
        self.expect("else")
        els = self._atom(what, sorts)
        els = _REST[sort_of(els)](self, els)
        if sort_of(els) != sort:
            t = self.cur
            raise ParseError("the branches of an 'if' argument differ in class", t.line, t.column)
        self.expect("endif")
        return If(sort, cond, then, els)

    # -- reals and booleans -------------------------------------------------

    def parse_real(self, left: Real | None = None) -> Real:
        """A real; ``left``, when given, is its first operand, already read.

        The binary operators (``BIN_PREC``) are grouped on an explicit stack,
        so a chain of them costs no frame.
        """
        if left is None:
            left = self._atom("expected a real expression", _REAL)
        operands, ops = [left], []
        while self.cur.kind in BIN_PREC:
            op = self.take().text
            while ops and BIN_PREC[ops[-1]] >= BIN_PREC[op] + (op == "^"):  # '^' groups right
                right = operands.pop()
                operands[-1] = RBinary(ops.pop(), operands[-1], right)
            ops.append(op)
            operands.append(self._atom("expected a real expression", _REAL))
        while ops:
            right = operands.pop()
            operands[-1] = RBinary(ops.pop(), operands[-1], right)
        return operands[0]

    def parse_bool(self, left: BoolExpr | None = None) -> BoolExpr:
        """A condition; ``left``, when given, is its first operand, already read."""
        left = self._bool_and(left)
        while self.at("||"):
            self.take()
            left = BOr(left, self._bool_and())
        return left

    def _bool_and(self, left: BoolExpr | None = None) -> BoolExpr:
        if left is None:
            left = self._bool_not()
        while self.at("&&"):
            self.take()
            left = BAnd(left, self._bool_not())
        return left

    def _bool_not(self) -> BoolExpr:
        if self.at("!"):
            self.take()
            return BNot(self._bool_not())
        atom = self._comparison()
        if not isinstance(atom, BOOLS):
            raise self._fail("expected a comparison operator")
        return atom

    def _comparison(self) -> BoolExpr | Real:
        """A parenthesized condition, a comparison, or a real with no comparison after it."""
        left = None
        if self.at("("):
            self.take()
            left = self._bool_not() if self.at("!") else self._comparison()
            if isinstance(left, BOOLS):
                left = self.parse_bool(left)
            self.expect(")")
            if isinstance(left, BOOLS):
                return left
        left = self.parse_real(left)
        if self.cur.kind in _CMP_OPS:
            op = self.take().text
            return BCmp(op, left, self.parse_real())
        return left

    # -- types, expressions and programs -------------------------------------

    def parse_type(self, left: Type | None = None) -> Type:
        """A type; ``left``, when given, is its first operand, already read."""
        if left is None:
            left = self._atom("expected a type", _TYPE)
        while self.at("*"):
            self.take()
            left = TyProd(left, self._atom("expected a type", _TYPE))
        return left

    def parse_expr(self) -> Expr:
        return self._pipeline(self._atom("expected an expression", _EXPR))

    def _pipeline(self, e: Expr) -> Expr:
        """Apply the programs of a trailing ``|> f |> g`` chain to ``e``."""
        while self.at("|>"):
            self.take()
            e = ExApp(self._atom("expected a program", _PROG), e)
        return e

    def parse_prog(self) -> Prog:
        return self._atom("expected a program", _PROG)

    def _parse_arms(self, allow_else: bool) -> tuple[tuple[CoreArm, ...], Expr | None]:
        self.expect("[")
        arms: list[CoreArm] = []
        else_body: Expr | None = None
        while not self.at("]"):
            if self.at("else"):
                if not allow_else:
                    raise self._fail("'else' arm is not allowed here")
                self.take()
                self.expect("->")
                else_body = self.parse_expr()
                if self.at(";"):
                    self.take()
                break
            pattern = self.parse_expr()
            self.expect("->")
            body = self.parse_expr()
            arms.append(CoreArm(pattern, body))
            if self.at(";"):
                self.take()
            else:
                break
        self.expect("]")
        return tuple(arms), else_body

    # -- generic arguments ------------------------------------------------------

    def maybe_generic_args(self) -> tuple[GenArg, ...]:
        return self._braced(self.parse_generic_arg)

    def _braced(self, item: Callable[[], _T]) -> tuple[_T, ...]:
        """``{a, b, ...}``, each read by ``item``; nothing if no ``{`` comes next."""
        if not self.at("{"):
            return ()
        self.take()
        items = [item()]
        while self.at(","):
            self.take()
            items.append(item())
        self.expect("}")
        return tuple(items)

    def _fields(self, *items: Callable[[], GenArg]) -> list[GenArg]:
        """``{a, b, ...}``, with one item read by each of ``items`` in turn."""
        self.expect("{")
        values = [items[0]()]
        for item in items[1:]:
            self.expect(",")
            values.append(item())
        self.expect("}")
        return values

    def parse_generic_arg(self) -> GenArg:
        """A type, expression, program or real: an atom and what continues it."""
        x = self._atom(_EXPECTED_ARG, _ARG)
        return _REST[sort_of(x)](self, x)

    # -- definitions and files -----------------------------------------------------

    def _signature(self, sort: str) -> tuple[Type, ...]:
        """What follows the name of a parameter or definition of ``sort``:
        ``: T`` for an expression, ``: A -> B`` for a program, and nothing
        for a type or a real."""
        if sort != "e" and sort != "f":
            return ()
        self.expect(":")
        ty = self.parse_type()
        if sort == "e":
            return (ty,)
        self.expect("->")
        return ty, self.parse_type()

    def _parse_param(self) -> Param:
        t = self.cur
        sort = _PARAMS.get(t.kind)
        if sort is None:
            raise self._fail("expected a parameter")
        self.take()
        return Param(sort, t.text, self._signature(sort))

    def parse_def(self) -> Def | VariantDef:
        if self.at("type"):
            self.take()
            name = self.expect("t", "a type name").text
            params = self._braced(self._parse_param)
            self.expect(":=")
            if self.cur.kind in ("|", "e", "f"):
                alts = self._parse_variant_alts()
                self.expect("end")
                return VariantDef(name, params, alts)
            body = self.parse_type()
            self.expect("end")
            return Def("t", name, params, (), body)
        self.expect("def")
        t = self.cur
        sort = t.kind
        if sort not in _DEFS:
            raise self._fail("expected '&', '@', or '#' after 'def'")
        self.take()
        params = self._braced(self._parse_param)
        sig = self._signature(sort)
        self.expect(":=")
        body = _DEFS[sort](self)
        self.expect("end")
        return Def(sort, t.text, params, sig, body)

    def _parse_variant_alts(self) -> tuple[VariantAlt, ...]:
        if self.at("|"):
            self.take()  # a leading bar before the first alternative is optional
        alts = [self._parse_variant_alt()]
        while self.at("|"):
            self.take()
            alts.append(self._parse_variant_alt())
        return tuple(alts)

    def _parse_variant_alt(self) -> VariantAlt:
        t = self.cur
        if t.kind == "e":
            self.take()
            return VariantAlt(t.text, None)
        if t.kind == "f":
            self.take()
            self.expect("of")
            return VariantAlt(t.text, self.parse_type())
        raise self._fail("expected a variant alternative")

    def parse_file(self) -> QFile:
        defs: list[Def | VariantDef] = []
        while self.cur.kind in ("type", "def"):
            defs.append(self.parse_def())
        main: Expr | None = None
        if self.cur.kind != TokKind.EOF:
            main = self.parse_expr()
        return QFile(tuple(defs), main)

    def expect_eof(self) -> None:
        if self.cur.kind != TokKind.EOF:
            raise self._fail("unexpected trailing input")


# What continues an atom, by its sort: the operators after a real or a
# type, a ``|>`` chain after an expression, and nothing after a program.
# Readers look it up in place, so that a level of nesting costs no frame more.
_REST: dict[str, Callable[[_Parser, GenArg], GenArg]] = {
    "r": _Parser.parse_real, "t": _Parser.parse_type,
    "e": _Parser._pipeline, "f": lambda p, x: x,
}
# The sort of each token kind that starts a parameter, and the body reader
# of a definition of each sort that a ``def`` declares.
_PARAMS = {TokKind.TYVAR: "t", "e": "e", "f": "f", "r": "r"}
_DEFS = {"e": _Parser.parse_expr, "f": _Parser.parse_prog, "r": _Parser.parse_real}


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
