"""Recursive-descent parser for Qunity source text.

It builds the one syntax tree of :mod:`qunic.core`, from reals to whole
files; the nodes of the core language are built directly, the sugar nodes
beside them.

The grammar is predictive, with no exception: one token of lookahead picks
every alternative, and each token is read once.  Types, expressions,
programs and reals share one atom reader, ``_Parser._atom(what, sorts)``.
``sorts`` is the string of the sorts (:func:`qunic.core.sort_of`) an atom
may have at its position: ``"r"``, ``"t"``, ``"f"`` for a real, a type, a
program, ``"ef"`` for an expression (a program there is applied to the
argument after it), and ``"tefr"`` for a generic argument.  One table,
``_STARTS``, maps each first token to the sort of the atom it starts; where
that is not one of ``sorts``, ``_atom`` fails at once, at that token, with
the message ``what`` of the reader that called it.  A name token becomes a
:class:`~qunic.core.Name` of that sort.  Each reader calls ``_atom`` and
continues by sort: ``parse_real`` with arithmetic, ``parse_type`` with
``*``, ``parse_expr`` with ``|>``, ``parse_prog`` with nothing, and
``parse_generic_arg`` with whichever of these the atom's sort takes
(``_REST``, keyed by sort).  ``_atom`` reads the two first tokens that do
not tell the sort whole, each with the same ``sorts``:

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
:class:`~qunic.core.Param` or :class:`~qunic.core.Def`: ``_STARTS`` gives the
sort of its name token, and ``_signature`` reads its signature by that sort,
``: T`` for an expression and ``: A -> B`` for a program.  A variant type is
a :class:`~qunic.core.VariantDef`.

A ``(`` in a condition reads a condition or a real; a real is then continued
and compared (``((1) + 2) < 3``).  A level of ``(`` or ``if`` nesting costs
two frames, ``_atom`` and ``_group`` or ``_if``.

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
    ELet,
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
    PGphase,
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

# The sort of the atom that each first token starts; keywords and
# punctuation are keyed by their text, the other tokens by their kind.  "("
# and "if" may start an atom of any sort, and "" is in every ``sorts``.
_STARTS: dict[TokKind | str, str] = {
    TokKind.QVAR: "e", TokKind.ENAME: "e", "ctrl": "e", "match": "e", "try": "e", "let": "e",
    TokKind.FNAME: "f", "u3": "f", "lambda": "f", "gphase": "f", "rphase": "f", "pmatch": "f",
    TokKind.TNAME: "t", TokKind.TYVAR: "t", "Void": "t", "Unit": "t",
    TokKind.RNAME: "r", TokKind.NUMBER: "r", "-": "r", "pi": "r", "euler": "r",
    **dict.fromkeys(UNARY_OPS, "r"),
    "(": "", "if": "",
}
# The tokens of names, each of the sort that ``_STARTS`` gives it.
_NAMES = frozenset((TokKind.TNAME, TokKind.ENAME, TokKind.FNAME, TokKind.RNAME))
# The members of TokKind that the parser's methods read: reading one from its
# class runs Python code, about 120 ns on CPython 3.11, and the parser reads
# one or two per token.
_ENAME, _EOF, _FNAME, _KW, _NUMBER, _PUNCT = (
    TokKind.ENAME, TokKind.EOF, TokKind.FNAME, TokKind.KW, TokKind.NUMBER, TokKind.PUNCT,
)
_QVAR, _TNAME, _TYVAR = TokKind.QVAR, TokKind.TNAME, TokKind.TYVAR


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
        got = f"'{t.text}'" if t.kind is not _EOF else "end of input"
        return ParseError(f"{message}, got {got}", t.line, t.column)

    def take(self) -> Token:
        t = self.cur
        if t.kind is not _EOF:
            self.pos += 1
            self.cur = self.toks[self.pos]
        return t

    def at_punct(self, text: str) -> bool:
        return self.cur.kind is _PUNCT and self.cur.text == text

    def at_kw(self, text: str) -> bool:
        return self.cur.kind is _KW and self.cur.text == text

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

    # -- atoms -----------------------------------------------------------------

    def _atom(self, what: str, sorts: str) -> GenArg:
        """An atom of one of ``sorts``, told by its first token.

        A first token that starts no atom of ``sorts`` fails at once with
        ``what``.  Where an expression may stand, a program is applied to a
        ``(`` after it, and at expression position it must be; an ``if``
        program is never applied.
        """
        t = self.cur
        k = t.text if t.kind is _KW or t.kind is _PUNCT else t.kind
        sort = _STARTS.get(k, "?")
        if sort not in sorts:
            raise self._fail(what)
        if k is _QVAR:
            self.take()
            return ExVar(t.text)
        if k in _NAMES:
            self.take()
            x = Name(sort, t.text, self.maybe_generic_args())
        elif k is _NUMBER:
            self.take()
            return RConst(_integer(t))
        elif k == "(":
            x = self._group(what, sorts)
            sort = sort_of(x)
        elif k == "if":
            return self._if(what, sorts)
        elif k is _TYVAR:
            self.take()
            return TVar(t.text)
        else:
            self.take()
            if k == "lambda":
                pattern = self.parse_expr()
                self.expect_punct("->")
                x = PrAbs(pattern, self.parse_expr())
            elif k == "ctrl" or k == "match":
                node = ExCtrl if k == "ctrl" else ExMatch
                return node(self.parse_expr(), *self._parse_arms(allow_else=True))
            elif k == "u3":
                x = PrU3(*self._fields(self.parse_real, self.parse_real, self.parse_real))
            elif k == "-":
                return RConst(-_integer(self.expect_kind(_NUMBER, "a number after '-'")))
            elif k == "Unit" or k == "Void":
                return TyUnit() if k == "Unit" else TyVoid()
            elif k == "pi" or k == "euler":
                return RPi() if k == "pi" else REuler()
            elif k == "try":
                attempt = self.parse_expr()
                self.expect_kw("catch")
                return ExTry(attempt, self.parse_expr())
            elif k == "let":
                pattern = self.parse_expr()
                self.expect_punct("=")
                value = self.parse_expr()
                self.expect_kw("in")
                return ELet(pattern, value, self.parse_expr())
            elif k == "gphase":
                x = PGphase(*self._fields(self.parse_real))
            elif k == "rphase":
                x = PrRphase(*self._fields(self.parse_expr, self.parse_real, self.parse_real))
            elif k == "pmatch":
                x = PrPmatch(self._parse_arms(allow_else=False)[0])
            else:  # a unary function
                self.expect_punct("(")
                arg = self.parse_real()
                self.expect_punct(")")
                return RUnary(k, arg)
        if sort == "f" and "e" in sorts:  # a program where an expression may stand
            if self.at_punct("("):
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
        elif self.at_punct(")"):
            self.take()
            return ExUnit()
        else:
            x = self._atom(_EXPECTED_ARG, _ARG)
        sort = sort_of(x)
        x = _REST[sort](self, x)
        if self.at_punct(",") and sort == "e":
            self.take()
            x = ExPair(x, self.parse_expr())
        self.expect_punct(")")
        if sort not in sorts:
            raise ParseError(f"{what} in parentheses", opening.line, opening.column)
        return x

    def _if(self, what: str, sorts: str) -> GenArg:
        """``if cond then a else b endif``, each branch an atom of ``sorts``
        and what continues it; the branches must be of one sort."""
        self.take()
        cond = self.parse_bool()
        self.expect_kw("then")
        then = self._atom(what, sorts)
        sort = sort_of(then)
        then = _REST[sort](self, then)
        self.expect_kw("else")
        els = self._atom(what, sorts)
        els = _REST[sort_of(els)](self, els)
        if sort_of(els) != sort:
            t = self.cur
            raise ParseError("the branches of an 'if' argument differ in class", t.line, t.column)
        self.expect_kw("endif")
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
        while self.cur.kind is _PUNCT and self.cur.text in BIN_PREC:
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
        if self.cur.kind is _PUNCT and self.cur.text in _CMP_OPS:
            op = self.take().text
            return BCmp(op, left, self.parse_real())
        return left

    # -- types, expressions and programs -------------------------------------

    def parse_type(self, left: Type | None = None) -> Type:
        """A type; ``left``, when given, is its first operand, already read."""
        if left is None:
            left = self._atom("expected a type", _TYPE)
        while self.at_punct("*"):
            self.take()
            left = TyProd(left, self._atom("expected a type", _TYPE))
        return left

    def parse_expr(self) -> Expr:
        return self._pipeline(self._atom("expected an expression", _EXPR))

    def _pipeline(self, e: Expr) -> Expr:
        """Apply the programs of a trailing ``|> f |> g`` chain to ``e``."""
        while self.at_punct("|>"):
            self.take()
            e = ExApp(self._atom("expected a program", _PROG), e)
        return e

    def parse_prog(self) -> Prog:
        return self._atom("expected a program", _PROG)

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

    def _fields(self, *items: Callable[[], GenArg]) -> list[GenArg]:
        """``{a, b, ...}``, with one item read by each of ``items`` in turn."""
        self.expect_punct("{")
        values = [items[0]()]
        for item in items[1:]:
            self.expect_punct(",")
            values.append(item())
        self.expect_punct("}")
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
        self.expect_punct(":")
        ty = self.parse_type()
        if sort == "e":
            return (ty,)
        self.expect_punct("->")
        return ty, self.parse_type()

    def _parse_param(self) -> Param:
        t = self.cur
        if t.kind not in _PARAMS:
            raise self._fail("expected a parameter")
        self.take()
        sort = _STARTS[t.kind]
        return Param(sort, t.text, self._signature(sort))

    def parse_def(self) -> Def | VariantDef:
        if self.at_kw("type"):
            self.take()
            name = self.expect_kind(_TNAME, "a type name").text
            params = self._braced(self._parse_param)
            self.expect_punct(":=")
            if self.at_punct("|") or self.cur.kind in (_ENAME, _FNAME):
                alts = self._parse_variant_alts()
                self.expect_kw("end")
                return VariantDef(name, params, alts)
            body = self.parse_type()
            self.expect_kw("end")
            return Def("t", name, params, (), body)
        self.expect_kw("def")
        t = self.cur
        if t.kind not in _DEFS:
            raise self._fail("expected '&', '@', or '#' after 'def'")
        self.take()
        sort = _STARTS[t.kind]
        params = self._braced(self._parse_param)
        sig = self._signature(sort)
        self.expect_punct(":=")
        body = _DEFS[t.kind](self)
        self.expect_kw("end")
        return Def(sort, t.text, params, sig, body)

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
        if t.kind is _ENAME:
            self.take()
            return VariantAlt(t.text, None)
        if t.kind is _FNAME:
            self.take()
            self.expect_kw("of")
            return VariantAlt(t.text, self.parse_type())
        raise self._fail("expected a variant alternative")

    def parse_file(self) -> QFile:
        defs: list[Def | VariantDef] = []
        while self.at_kw("type") or self.at_kw("def"):
            defs.append(self.parse_def())
        main: Expr | None = None
        if self.cur.kind is not _EOF:
            main = self.parse_expr()
        return QFile(tuple(defs), main)

    def expect_eof(self) -> None:
        if self.cur.kind is not _EOF:
            raise self._fail("unexpected trailing input")


# What continues an atom, by its sort: the operators after a real or a
# type, a ``|>`` chain after an expression, and nothing after a program.
# Readers look it up in place, so that a level of nesting costs no frame more.
_REST: dict[str, Callable[[_Parser, GenArg], GenArg]] = {
    "r": _Parser.parse_real, "t": _Parser.parse_type,
    "e": _Parser._pipeline, "f": lambda p, x: x,
}
# The tokens that start a parameter, and the body reader of each token that
# names a definition; ``_STARTS`` gives the sort of either.
_PARAMS = frozenset((TokKind.TYVAR, TokKind.ENAME, TokKind.FNAME, TokKind.RNAME))
_DEFS = {
    TokKind.ENAME: _Parser.parse_expr,
    TokKind.FNAME: _Parser.parse_prog,
    TokKind.RNAME: _Parser.parse_real,
}


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
