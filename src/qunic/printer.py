"""The printer of the syntax tree, and the ``repr`` of its nodes.

One printer, :func:`to_str`, renders every node of :mod:`qunic.core`, whole
files included, as single-line syntax that the parser reads back for every
term it parsed: products, ``lambda`` and ``if`` programs always in
parentheses, an application's argument in parentheses of its own (``f((a,
b))``), and arithmetic and conditions with minimal parentheses.  It is a
writer: it appends pieces of text to one list and joins that list once, at
the end.  It finds the shared nodes as it writes: it remembers where the
pieces of each node's text start and end in the list, in a dict that lives
for the call.  The second time a node is reached, that slice is joined once,
the string kept in its place in the dict and appended, and every later
occurrence appends the kept string.  So printing visits each distinct node
once, copies each shared text once per reference to it and joins the output
once; a printer that returned each node's text with its children's inside
would copy every character once per ancestor.  Hence a node's text must not
depend on where the node appears: the parent decides whether a child's text
goes in parentheses, and writes them.  A term nested too deeply for the
interpreter's stack raises :class:`~qunic.errors.CapacityError`, and so does
a text longer than ``TEXT_CHARS``, before it builds a much longer string:
the tree of a DAG can be far larger than memory.

:func:`to_str` runs with CPython's cyclic garbage collector paused
(:class:`~qunic.core.paused_collector`), and turns it on again as it returns
or raises, if it was on.  Printing allocates a piece of text and a dict
entry per node, which all live until it returns, and makes no reference
cycle, so the collector's scans there would free nothing: reference counting
frees the list and the dict.

No compile prints, so importing the compiler does not load this module.  The
dumps of the ``qunic`` command, :mod:`qunic.surface` and a node's first
``repr`` load it; ``core.to_str`` and ``core.core_expr_to_str`` are this
module's :func:`to_str`, loaded on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    BIN_PREC,
    PARAM_SIGILS,
    SIGILS,
    BAnd,
    BCmp,
    BNot,
    BOr,
    CoreArm,
    Def,
    ExApp,
    ExCtrl,
    ExMatch,
    ExPair,
    ExTry,
    ExUnit,
    ExVar,
    GenArg,
    If,
    Name,
    Param,
    PrAbs,
    PrLeft,
    PrPmatch,
    PrRight,
    PrRphase,
    PrU3,
    QFile,
    Rational,
    RBinary,
    RConst,
    REuler,
    RExact,
    RPi,
    RUnary,
    TVar,
    TyProd,
    TySum,
    TyUnit,
    TyVoid,
    VariantAlt,
    VariantDef,
    _Node,
    paused_collector,
)
from .errors import CapacityError, RealError

# The longest text the printer writes, 64 Mi characters: far above the dumps
# in use (@qft{128}'s is 2,191,795), far below a tree-sized text of a wide
# DAG (@add_const{20, 12345}'s would be 159,383,905, and @add_const{100, ·}'s
# more than memory holds).
TEXT_CHARS = 1 << 26


def to_str(root: _Node) -> str:
    """The text of ``root``, written as pieces into one list and joined once.

    Each distinct node is visited once: the text of a node reached along two
    edges or more is joined once and its string reused at every later
    occurrence, so a character is copied about once per reference to a shared
    node that holds it, not once per ancestor.  A constant too long for
    ``str`` raises :class:`~qunic.errors.RealError`, and a text longer than
    ``TEXT_CHARS`` :class:`~qunic.errors.CapacityError`: the whole text, or a
    shared node's, is refused before a join longer than the bound plus the
    distinct nodes' own text.
    """
    out: list[str] = []
    texts: dict[int | None, tuple[int, int] | str | int] = {}
    with paused_collector():
        try:
            _show(root, texts, out)
        except RecursionError:
            raise CapacityError("term nested too deeply to print") from None
        return _joined(out, texts)


def _joined(pieces: list[str], texts: dict[int | None, tuple[int, int] | str | int]) -> str:
    """``pieces`` joined, if the text has at most ``TEXT_CHARS`` characters;
    ``texts`` keeps the length of the longest text joined so far under None.

    A piece is either a kept text, at most that long, or a distinct node's
    own, which is written once.  So while the count of pieces times that
    length is within the bound, no join can be much longer than it, and the
    text is checked once joined; past it, the pieces are counted first.
    """
    longest = texts.get(None, 0)
    if len(pieces) * longest > TEXT_CHARS:
        n = sum(map(len, pieces))
        if n > TEXT_CHARS:
            raise _too_long(n)
    s = "".join(pieces)
    if len(s) > TEXT_CHARS:
        raise _too_long(len(s))
    texts[None] = max(longest, len(s))
    return s


def _too_long(n: int) -> CapacityError:
    return CapacityError(f"a text of {n} characters is over the limit of {TEXT_CHARS}")


def _repr(x: object, depth: int) -> str:
    """The dataclass form of ``x``, with ``...`` for the nodes more than ``depth`` below."""
    if type(x) is tuple:  # a field holding a tuple of arms
        items = ", ".join(_repr(c, depth) for c in x)
        return f"({items},)" if len(x) == 1 else f"({items})"
    if not isinstance(x, _Node):
        try:
            return repr(x)
        except ValueError:  # a number over the interpreter's limit on integer-string conversion
            if type(x) is Fraction:
                return f"Fraction({_repr(x.numerator, depth)}, {_repr(x.denominator, depth)})"
            return f"<an integer of {_digit_count(x)} digits>"
    if depth == 0:
        return "..."
    fields = ", ".join(f"{name}={_repr(getattr(x, name), depth - 1)}" for name in x.__slots__)
    return f"{type(x).__qualname__}({fields})"


def _digit_count(n: int) -> int:
    """The number of decimal digits of ``n``, without converting it to a string."""
    n = abs(n)
    k = int((n.bit_length() - 1) * math.log10(2)) + 1  # the digits of 2^(bits - 1)
    return k + (n >= 10**k)


_ATOM = 4  # binds tighter than every operator


def _binds(x: _Node) -> int:
    """How tightly ``x`` holds together as an operand: its operator's
    precedence (an exact leaf's, that of the tree it prints), 0 for a
    negative constant so that one is never left bare, and ``_ATOM`` for the
    rest.  The parent compares it with what the operand's position needs and
    wraps the operand's text when it falls short."""
    t = type(x)
    if t is RBinary:
        return BIN_PREC[x.op]
    if t is RExact:
        a, b = x.a, x.b
        if b:
            return 1 if a else _ATOM if b == 1 else 2  # a + ..., pi, q * pi
        return 2 if type(a) is not int else _ATOM if a >= 0 else 0  # p / q, p
    if t is RConst:
        return _ATOM if x.value >= 0 else 0
    if t is BOr:
        return 1
    return 2 if t is BAnd else _ATOM


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # over the interpreter's limit on integer-string conversion
        raise RealError(f"a constant of {_digit_count(n)} digits is too long to print") from None


def _rational_text(q: Rational, operand: bool) -> str:
    """``q`` as ``p`` or ``p / q``, a negative constant in parentheses where it
    is an operand: the whole of ``q`` if ``operand``, or ``p / q``'s ``p``."""
    p = _int_text(q.numerator)
    if q < 0 and (operand or type(q) is not int):
        p = f"({p})"
    return p if type(q) is int else f"{p} / {_int_text(q.denominator)}"


def _show(
    x: _Node | tuple[GenArg, ...],
    texts: dict[int | None, tuple[int, int] | str | int],
    out: list[str],
) -> None:
    """Append the text of ``x`` to ``out``; ``texts`` holds, under the id of
    each node written so far, where its pieces start and end in ``out``, or
    its text once the node has been reached twice (and what :func:`_joined`
    keeps under None).

    The second time a node is reached it joins its slice of ``out`` once, if
    it is at most ``TEXT_CHARS`` long, keeps the string in ``texts`` and
    appends it; later visits append the kept string.  Checking, dispatching
    and storing sit in this one body, so each level of the term costs one
    frame.  A parent writes the parentheses around a child's text, before and
    after it, where :func:`_binds` says it must.  The core cases come first,
    then reals and conditions, sugar, and definitions and files.
    """
    key = id(x)
    s = texts.get(key)
    if s is not None:
        if type(s) is tuple:
            s = texts[key] = _joined(out[s[0] : s[1]], texts)
        out.append(s)
        return
    start = len(out)
    w = out.append
    t = type(x)
    if t is ExVar:
        w(x.name)
    elif t is ExPair:
        w("(")
        _show(x.left, texts, out)
        w(", ")
        _show(x.right, texts, out)
        w(")")
    elif t is ExApp:
        _show(x.fn, texts, out)
        w("(")
        _show(x.arg, texts, out)
        w(")")
    elif t is PrAbs:
        w("(lambda ")
        _show(x.pattern, texts, out)
        w(" -> ")
        _show(x.body, texts, out)
        w(")")
    elif t is ExUnit:
        w("()")
    elif t is PrLeft or t is PrRight:
        w("left{" if t is PrLeft else "right{")
        _show(x.left_ty, texts, out)
        w(", ")
        _show(x.right_ty, texts, out)
        w("}")
    elif t is PrRphase:
        w("rphase{")
        _show(x.pattern, texts, out)
        w(", ")
        _show(x.on_phase, texts, out)
        w(", ")
        _show(x.off_phase, texts, out)
        w("}")
    elif t is CoreArm:
        _show(x.pattern, texts, out)
        w(" -> ")
        _show(x.body, texts, out)
    elif t is ExCtrl or t is ExMatch or t is PrPmatch:
        if t is PrPmatch:
            w("pmatch [")
        else:
            w("ctrl " if t is ExCtrl else "match ")
            _show(x.scrutinee, texts, out)
            w(" [")
        for i, arm in enumerate(x.arms):
            if i:
                w("; ")
            _show(arm, texts, out)
        if t is not PrPmatch and x.else_body is not None:
            w("; else -> " if x.arms else "else -> ")
            _show(x.else_body, texts, out)
        w("]")
    elif t is ExTry:
        w("try ")
        _show(x.attempt, texts, out)
        w(" catch ")
        _show(x.fallback, texts, out)
    elif t is TyUnit:
        w("Unit")
    elif t is TyVoid:
        w("Void")
    elif t is TySum or t is TyProd:
        w("(")
        _show(x.left, texts, out)
        w(" + " if t is TySum else " * ")
        _show(x.right, texts, out)
        w(")")
    elif t is PrU3:
        w("u3{")
        _show(x.theta, texts, out)
        w(", ")
        _show(x.phi, texts, out)
        w(", ")
        _show(x.lam, texts, out)
        w("}")
    elif t is RConst:
        w(_int_text(x.value))
    elif t is RExact:  # a, a + b * pi or b * pi, each part a constant or p / q
        a, b = x.a, x.b
        if a or not b:
            w(_rational_text(a, b != 0))
            if b:
                w(" + ")
        if b == 1:
            w("pi")
        elif b:
            w(_rational_text(b, True) + " * pi")
    elif t is RBinary or t is BAnd or t is BOr:  # '^' groups to the right, the others left
        op = x.op if t is RBinary else "&&" if t is BAnd else "||"
        prec = _binds(x)
        wrap_left = _binds(x.left) < prec + (op == "^")
        wrap_right = _binds(x.right) < prec + (op != "^")
        if wrap_left:
            w("(")
        _show(x.left, texts, out)
        w((") " if wrap_left else " ") + op + (" (" if wrap_right else " "))
        _show(x.right, texts, out)
        if wrap_right:
            w(")")
    elif t is RPi:
        w("pi")
    elif t is RUnary:
        w(x.op + "(")
        _show(x.arg, texts, out)
        w(")")
    elif t is REuler:
        w("euler")
    elif t is BCmp:
        _show(x.left, texts, out)
        w(f" {x.op} ")
        _show(x.right, texts, out)
    elif t is BNot:
        wrap_left = _binds(x.arg) < _ATOM
        w("!(" if wrap_left else "!")
        _show(x.arg, texts, out)
        if wrap_left:
            w(")")
    elif t is TVar:
        w("'" + x.name)
    elif t is Name:
        w(SIGILS[x.sort] + x.name)
        if x.args:
            _show(x.args, texts, out)
    elif t is tuple:  # generic arguments, or a definition's parameters
        if x:
            w("{")
            for i, arg in enumerate(x):
                if i:
                    w(", ")
                _show(arg, texts, out)
            w("}")
    elif t is If:
        w("(if " if x.sort == "f" else "if ")
        _show(x.cond, texts, out)
        w(" then ")
        _show(x.then, texts, out)
        w(" else ")
        _show(x.els, texts, out)
        w(" endif)" if x.sort == "f" else " endif")
    elif t is Param or t is Def:
        if t is Param:
            w(PARAM_SIGILS[x.sort] + x.name)
        else:
            w(("type " if x.sort == "t" else "def ") + SIGILS[x.sort] + x.name)
            _show(x.params, texts, out)
        for i, ty in enumerate(x.sig):
            w(" -> " if i else " : ")
            _show(ty, texts, out)
        if t is Def:
            w(" := ")
            _show(x.body, texts, out)
            w(" end")
    elif t is VariantAlt:
        if x.payload is None:
            w("&" + x.name)
        else:
            w(f"@{x.name} of ")
            _show(x.payload, texts, out)
    elif t is VariantDef:
        w("type " + x.name)
        _show(x.params, texts, out)
        w(" := ")
        for i, alt in enumerate(x.alts):
            if i:
                w(" | ")
            _show(alt, texts, out)
        w(" end")
    elif t is QFile:
        for i, d in enumerate(x.defs):
            if i:
                w("\n\n")
            _show(d, texts, out)
        if x.main is not None:
            if x.defs:
                w("\n\n")
            _show(x.main, texts, out)
        w("\n")
    else:
        raise TypeError(f"not a node of the syntax tree: {x!r}")
    texts[key] = start, len(out)
