r"""Tokenizer for Qunity source text.

The token grammar, tried in this order at each position (``_TOKEN``):

* whitespace ``[ \t\r\n]+`` separates tokens and is skipped;
* ``/* ... */`` is a comment, skipped; comments do not nest, and one with no
  closing ``*/`` is an error at its ``/*``;
* a number is ``\d+``, decimal digits of any script (``٣`` is 3); a digit
  that is not decimal, such as ``²``, is an unexpected character;
* punctuation is the longest of ``:= |> || && -> != <= >=`` and the single
  characters ``{ } ( ) [ ] , ; : | = < > ! + - * / ^ %``, so ``&&`` is
  always the boolean operator, never an ``&`` sigil;
* a sigil ``&``, ``@`` or ``#`` followed by a name ``[\w']+`` is an
  expression, program or real name (the token's text is the name alone);
  whitespace may separate the sigil from its name, and the token sits at the
  sigil's position;
* ``'`` followed by a name ``[\w']+`` is a type variable; the ``'`` must
  touch its name;
* any other ``[\w']+`` is a word, which must start with a letter
  (``str.isalpha``) or ``_``.  A word is a keyword if it is in ``KEYWORDS``,
  a type name if it starts with an upper-case letter, and a quantum variable
  otherwise.

``[\w']`` is exactly the characters for which ``str.isalnum()`` holds, plus
``_`` and ``'``.  Apostrophes may appear *inside* identifiers (``l'``),
which works out because a type variable only ever starts where an identifier
cannot continue.  Lines are counted at ``\n``; columns count characters from
1, so a ``\r`` or ``\t`` is one column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from .core import UNARY_OPS
from .errors import LexError


class TokKind(Enum):
    NUMBER = auto()
    QVAR = auto()
    TNAME = auto()
    ENAME = auto()  # &name, text stored without the sigil
    FNAME = auto()  # @name
    RNAME = auto()  # #name
    TYVAR = auto()  # 'name
    KW = auto()
    PUNCT = auto()
    EOF = auto()


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    line: int
    column: int


KEYWORDS = frozenset(
    [
        "type", "def", "end", "if", "then", "else", "endif", "ctrl", "match", "try", "catch",
        "let", "in", "lambda", "of", "u3", "gphase", "rphase", "pmatch", "pi", "euler",
        *UNARY_OPS, "Void", "Unit",
    ]
)

# The token grammar of the module docstring.  The first alternative that
# matches wins, so order matters: '/*' before '/', '&&' before a sigil, and
# multi-character punctuation before its one-character prefix.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<comment>/\*)
    | (?P<number>\d+)
    | (?P<punct>:=|\|>|\|\||&&|->|!=|<=|>=|[{}()\[\],;:|=<>!+\-*/^%])
    | [&@\#][ \t\r\n]*(?P<sigil>[\w']*)
    | '(?P<tyvar>[\w']*)
    | (?P<word>[\w']+)
    """,
    re.VERBOSE,
)

_SIGIL_KINDS = {"&": TokKind.ENAME, "@": TokKind.FNAME, "#": TokKind.RNAME}


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    pos, line, line_start = 0, 1, 0  # line_start: offset of the current line's first character
    while pos < len(source):
        col = pos - line_start + 1
        m = _TOKEN.match(source, pos)
        if m is None:
            raise LexError(f"unexpected character {source[pos]!r}", line, col)
        group, text, end = m.lastgroup, m[m.lastgroup], m.end()
        if group == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"unexpected character {text[0]!r}", line, col)
            if text in KEYWORDS:
                kind = TokKind.KW
            else:
                kind = TokKind.TNAME if text[0].isupper() else TokKind.QVAR
            toks.append(Token(kind, text, line, col))
        elif group == "punct":
            toks.append(Token(TokKind.PUNCT, text, line, col))
        elif group == "number":
            toks.append(Token(TokKind.NUMBER, text, line, col))
        elif group == "sigil":
            if not text:
                raise LexError(f"dangling {source[pos]!r} sigil", line, col)
            toks.append(Token(_SIGIL_KINDS[source[pos]], text, line, col))
        elif group == "tyvar":
            if not text:
                raise LexError("dangling type-variable quote", line, col)
            toks.append(Token(TokKind.TYVAR, text, line, col))
        elif group == "comment":
            close = source.find("*/", end)
            if close < 0:
                raise LexError("unterminated comment", line, col)
            end = close + 2
        last_newline = source.rfind("\n", pos, end)
        if last_newline >= 0:
            line += source.count("\n", pos, end)
            line_start = last_newline + 1
        pos = end
    toks.append(Token(TokKind.EOF, "", line, pos - line_start + 1))
    return toks
