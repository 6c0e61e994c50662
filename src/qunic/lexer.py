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

A token is a named tuple ``(kind, text, line, column)``.  Its kind is what
the parser dispatches on: a keyword's or punctuation's text, a name's sort
(``"t" "e" "f" "r"``, as :func:`qunic.core.sort_of`), or another string of
:class:`TokKind`, which is never a keyword's or punctuation's text.

``[\w']`` is exactly the characters for which ``str.isalnum()`` holds, plus
``_`` and ``'``.  Apostrophes may appear *inside* identifiers (``l'``),
which works out because a type variable only ever starts where an identifier
cannot continue.  Lines are counted at ``\n``; columns count characters from
1, so a ``\r`` or ``\t`` is one column.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .core import UNARY_OPS
from .errors import LexError


class TokKind:
    """The kinds of the tokens that are not a keyword, punctuation or a name.
    A name's kind is its sort, ``"t" "e" "f" "r"``, and the text of an
    ``&``, ``@`` or ``#`` name has no sigil."""

    NUMBER = "a number"
    QVAR = "a variable"
    TYVAR = "a type variable"  # 'name, text stored without the quote
    EOF = "end of input"


Token = namedtuple("Token", "kind text line column")


KEYWORDS = frozenset(
    [
        "type", "def", "end", "if", "then", "else", "endif", "ctrl", "match", "try", "catch",
        "let", "in", "lambda", "of", "u3", "gphase", "rphase", "pmatch", "pi", "euler",
        *UNARY_OPS, "Void", "Unit",
    ]
)

# The token grammar of the module docstring.  The first alternative that
# matches wins, so order matters: '/*' before '/', '&&' before a sigil, and
# multi-character punctuation before its one-character prefix.  ``_KINDS``
# gives the kind of the token that each group makes, where that is not its
# text: a name's group is named after its sort.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<comment>/\*)
    | (?P<NUMBER>\d+)
    | (?P<punct>:=|\|>|\|\||&&|->|!=|<=|>=|[{}()\[\],;:|=<>!+\-*/^%])
    | &[ \t\r\n]*(?P<e>[\w']*)
    | @[ \t\r\n]*(?P<f>[\w']*)
    | \#[ \t\r\n]*(?P<r>[\w']*)
    | '(?P<TYVAR>[\w']*)
    | (?P<word>[\w']+)
    """,
    re.VERBOSE,
)

_KINDS = {"NUMBER": TokKind.NUMBER, "TYVAR": TokKind.TYVAR, "e": "e", "f": "f", "r": "r"}
# The groups whose match may span a newline: whitespace, a comment (to its
# ``*/``), and a sigil with the whitespace after it.
_NEWLINES = frozenset(("space", "comment", "e", "f", "r"))


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    append, match = toks.append, _TOKEN.match
    QVAR, kinds = TokKind.QVAR, _KINDS.get
    # ``Token(...)`` runs the named tuple's ``__new__``, a Python function
    # that makes the tuple this makes in C: half the cost of a token.
    new = tuple.__new__
    pos, line, line_start = 0, 1, 0  # line_start: offset of the current line's first character
    while pos < len(source):
        m = match(source, pos)
        if m is None:
            raise LexError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        group, end = m.lastgroup, m.end()
        if group == "word":
            text = m[group]
            if text in KEYWORDS:
                kind = text
            elif not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"unexpected character {text[0]!r}", line, pos - line_start + 1)
            else:
                kind = "t" if text[0].isupper() else QVAR
            append(new(Token, (kind, text, line, pos - line_start + 1)))
        elif group == "comment":
            close = source.find("*/", end)
            if close < 0:
                raise LexError("unterminated comment", line, pos - line_start + 1)
            end = close + 2
        elif group != "space":
            text = m[group]
            if not text:
                what = "type-variable quote" if group == "TYVAR" else f"{source[pos]!r} sigil"
                raise LexError(f"dangling {what}", line, pos - line_start + 1)
            append(new(Token, (kinds(group, text), text, line, pos - line_start + 1)))
        if group in _NEWLINES:
            last_newline = source.rfind("\n", pos, end)
            if last_newline >= 0:
                line += source.count("\n", pos, end)
                line_start = last_newline + 1
        pos = end
    toks.append(Token(TokKind.EOF, "", line, pos - line_start + 1))
    return toks
