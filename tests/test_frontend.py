"""Lexer, parser, and pretty-printer behavior on surface syntax."""

import pytest
from hypothesis import example, given, settings, strategies as st
from terms import real_trees

from qunic.core import (
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
    If,
    Name,
    Param,
    PrAbs,
    PrPmatch,
    PrRphase,
    PrU3,
    QFile,
    RBinary,
    RConst,
    RPi,
    TVar,
    TyProd,
    TyUnit,
    TyVoid,
    VariantAlt,
    VariantDef,
    sort_of,
    to_str,
)
from qunic.errors import CapacityError, LexError, ParseError
from qunic.lexer import KEYWORDS, TokKind, tokenize
from qunic.parser import (
    _Parser,
    parse_expr_string,
    parse_file,
    parse_prog_string,
    parse_real_string,
    parse_type_string,
)
from qunic.preprocess import core_of_source, default_prelude_text


_Q, _TV, _NUM, _EOF = TokKind.QVAR, TokKind.TYVAR, TokKind.NUMBER, TokKind.EOF
# Comments across lines, and a sigil with its name on the next line.
_LINES = "a /* one\ntwo\n  three */ b\n/*\n*/c &\nx @\n\n  f #\tn /**/'t"

# A source and its tokens, as (kind, text, line, column), end of input last.
TOKENS = [
    ("&plus @had #n 'a x Bit 42", [
        ("e", "plus", 1, 1), ("f", "had", 1, 7), ("r", "n", 1, 12), (_TV, "a", 1, 15),
        (_Q, "x", 1, 18), ("t", "Bit", 1, 20), (_NUM, "42", 1, 24), (_EOF, "", 1, 26),
    ]),
    ("y0' 'a", [(_Q, "y0'", 1, 1), (_TV, "a", 1, 5), (_EOF, "", 1, 7)]),
    ("ctrl ctrlx", [("ctrl", "ctrl", 1, 1), (_Q, "ctrlx", 1, 6), (_EOF, "", 1, 11)]),
    # the longest punctuation wins, and && is never a sigil
    ("|> || | := : -> !=", [
        ("|>", "|>", 1, 1), ("||", "||", 1, 4), ("|", "|", 1, 7), (":=", ":=", 1, 9),
        (":", ":", 1, 12), ("->", "->", 1, 14), ("!=", "!=", 1, 17), (_EOF, "", 1, 19),
    ]),
    ("x&&y", [(_Q, "x", 1, 1), ("&&", "&&", 1, 2), (_Q, "y", 1, 4), (_EOF, "", 1, 5)]),
    ("#n < 1 && #k < 2", [
        ("r", "n", 1, 1), ("<", "<", 1, 4), (_NUM, "1", 1, 6), ("&&", "&&", 1, 8),
        ("r", "k", 1, 11), ("<", "<", 1, 14), (_NUM, "2", 1, 16), (_EOF, "", 1, 17),
    ]),
    ("&&&x", [("&&", "&&", 1, 1), ("e", "x", 1, 3), (_EOF, "", 1, 5)]),
    # a comment is skipped, and a sigil's token sits at the sigil
    ("x /* anything |> &here */ y", [(_Q, "x", 1, 1), (_Q, "y", 1, 27), (_EOF, "", 1, 28)]),
    ("&\n  A\nx", [("e", "A", 1, 1), (_Q, "x", 3, 1), (_EOF, "", 3, 2)]),
    ("&\r\n  A\r\nx", [("e", "A", 1, 1), (_Q, "x", 3, 1), (_EOF, "", 3, 2)]),
    ("&\nx y", [("e", "x", 1, 1), (_Q, "y", 2, 3), (_EOF, "", 2, 4)]),
    (_LINES, [
        (_Q, "a", 1, 1), (_Q, "b", 3, 12), (_Q, "c", 5, 3), ("e", "x", 5, 5),
        ("f", "f", 6, 3), ("r", "n", 8, 5), (_TV, "t", 8, 13), (_EOF, "", 8, 15),
    ]),
]

# A source and the whole message of its LexError.
LEX_ERRORS = [
    ("x /* oops", "1:3: unterminated comment"),
    (_LINES + " /* never\nclosed", "8:16: unterminated comment"),
    ("& ", "1:1: dangling '&' sigil"),
    ("&", "1:1: dangling '&' sigil"),
    ("@\n", "1:1: dangling '@' sigil"),
    ("#\t", "1:1: dangling '#' sigil"),
    ("'", "1:1: dangling type-variable quote"),
    # '²' passes str.isdigit() but not int()
    ("²", "1:1: unexpected character '²'"),
    ("1 + ²", "1:5: unexpected character '²'"),
    # an upper-case character that is no letter starts no type name
    ("Ⅻ", "1:1: unexpected character 'Ⅻ'"),
]


@pytest.mark.parametrize("source, tokens", TOKENS)
def test_a_source_lexes_to_its_tokens(source, tokens):
    assert [tuple(t) for t in tokenize(source)] == tokens


@pytest.mark.parametrize("source, message", LEX_ERRORS)
def test_a_lex_error_has_its_message(source, message):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert str(exc.value) == message
    assert message.startswith(f"{exc.value.line}:{exc.value.column}: ")


_SPACES = st.sampled_from([" ", "\t", "\n", "\r\n"])
_COMMENTS = (
    st.text(alphabet="ab *\n\r\t/&", max_size=8)
    .filter(lambda body: "*/" not in body)
    .map(lambda body: f"/*{body}*/")
)
_WORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,4}", fullmatch=True)
_NAMES = st.from_regex(r"[A-Za-z0-9_'][A-Za-z0-9_']{0,3}", fullmatch=True)
_PUNCT_TEXTS = ":= |> || && -> != <= >= { } ( ) [ ] , ; : | = < > ! + - * / ^ %".split()


@st.composite
def _lexemes(draw):
    """A token's source text, and its kind and text as the lexer must report them."""
    which = draw(st.sampled_from(["word", "number", "punct", "sigil", "tyvar"]))
    if which == "word":
        word = draw(_WORDS)
        if word in KEYWORDS:
            kind = word
        else:
            kind = "t" if word[0].isupper() else TokKind.QVAR
        return word, kind, word
    if which == "number":
        digits = draw(st.from_regex(r"[0-9]{1,4}", fullmatch=True))
        return digits, TokKind.NUMBER, digits
    if which == "punct":
        p = draw(st.sampled_from(_PUNCT_TEXTS))
        return p, p, p
    name = draw(_NAMES)
    if which == "tyvar":
        return "'" + name, TokKind.TYVAR, name
    sigil = draw(st.sampled_from("&@#"))
    kind = {"&": "e", "@": "f", "#": "r"}[sigil]
    gap = "".join(draw(st.lists(_SPACES, max_size=2)))
    return sigil + gap + name, kind, name


def _line_column(source: str, offset: int) -> tuple[int, int]:
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.lists(st.one_of(_SPACES, _COMMENTS), min_size=1, max_size=3), _lexemes())),
    st.lists(st.one_of(_SPACES, _COMMENTS), max_size=2),
)
def test_token_positions_point_at_their_text(pieces, trailer):
    source, expected = "", []
    for separators, (lexeme, kind, text) in pieces:
        source += "".join(separators)
        expected.append((kind, text, *_line_column(source, len(source))))
        source += lexeme
    source += "".join(trailer)
    expected.append((TokKind.EOF, "", *_line_column(source, len(source))))
    assert [(t.kind, t.text, t.line, t.column) for t in tokenize(source)] == expected


def test_no_kind_is_a_text_and_a_names_kind_is_its_sort():
    # A kind that is not a keyword's or punctuation's text must differ from
    # every such text, or the parser would take the one for the other; a
    # name's kind is its sort.
    kinds = {v for k, v in vars(TokKind).items() if not k.startswith("_")} | set("tefr")
    assert len(kinds) == 8
    assert not kinds & KEYWORDS and not kinds & set(_PUNCT_TEXTS)
    for source in ("&x", "@f", "#n", "Bit", "&f{1}", "@g{Bit, #n}", "List{2, Bit}"):
        token = tokenize(source)[0]
        name = _Parser(tokenize(source)).parse_generic_arg()
        assert type(name) is Name and (token.kind, token.text) == (sort_of(name), name.name)


def _n(sort, name, *args):
    return Name(sort, name, args)


_BIT, _X, _Y, _AB = _n("t", "Bit"), ExVar("x"), ExVar("y"), ExPair(ExVar("a"), ExVar("b"))
_E0, _E1, _F, _G = _n("e", "0"), _n("e", "1"), _n("f", "f"), _n("f", "g")
_E11, _C, _ONE_LT_TWO = ExPair(_E1, _E1), ExVar("c"), BCmp("<", RConst(1), RConst(2))
_A, _N, _N_1 = TVar("a"), _n("r", "n"), RBinary("-", _n("r", "n"), RConst(1))
_VARIANT = QFile((VariantDef("T", (), (VariantAlt("A", None), VariantAlt("B", TyUnit()))),), _X)

# A parser, a source, and the tree it parses to.  Each tree is built from the
# node classes, so that neither the parser nor the printer makes it.
PARSES = [
    # a pipe is an application, and a lambda's body extends through pipes
    (parse_expr_string, "x |> @f |> @g", ExApp(_G, ExApp(_F, _X))),
    (parse_prog_string, "lambda x -> x |> @f |> @g", PrAbs(_X, ExApp(_G, ExApp(_F, _X)))),
    # an application's parentheses double as a pair's
    (parse_expr_string, "@f(a, b)", ExApp(_F, _AB)),
    (parse_expr_string, "@f((a, b))", ExApp(_F, _AB)),
    (parse_expr_string, "@f(())", ExApp(_F, ExUnit())),
    (parse_expr_string, "(lambda x -> x)(&0)", ExApp(PrAbs(_X, _X), _E0)),
    (
        parse_expr_string,
        "let (x, y) = p in (y, x)",
        ExApp(PrAbs(ExPair(_X, _Y), ExPair(_Y, _X)), ExVar("p")),
    ),
    (
        parse_expr_string,
        "ctrl (a, b) [(&1, &1) -> ((a, b), @not(c)); else -> ((a, b), c);]",
        ExCtrl(_AB, (CoreArm(_E11, ExPair(_AB, ExApp(_n("f", "not"), _C))),), ExPair(_AB, _C)),
    ),
    (
        parse_expr_string,
        "match x [(&1, &1) -> &1; else -> &0;]",
        ExMatch(_X, (CoreArm(_E11, _E1),), _E0),
    ),
    (parse_expr_string, "try @f(x) catch &0", ExTry(ExApp(_F, _X), _E0)),
    # a product and a tuple associate to the left
    (parse_type_string, "Bit * Bit * Bit", TyProd(TyProd(_BIT, _BIT), _BIT)),
    (parse_expr_string, "((a, b), c)", ExPair(_AB, _C)),
    (
        parse_prog_string,
        "rphase{(&1, &1), 2 * pi / 2 ^ #k, 0}",
        PrRphase(
            _E11,
            RBinary("/", RBinary("*", RConst(2), RPi()), RBinary("^", RConst(2), _n("r", "k"))),
            RConst(0),
        ),
    ),
    # a negative literal is a constant's, and a digit of any script is a
    # number ('٣', ARABIC-INDIC DIGIT THREE)
    (parse_real_string, "1 - -2", RBinary("-", RConst(1), RConst(-2))),
    (parse_real_string, "٣", RConst(3)),
    (
        parse_type_string,
        "if #n <= 0 then Unit else 'a * Array{#n - 1, 'a} endif",
        If("t", BCmp("<=", _N, RConst(0)), TyUnit(), TyProd(_A, _n("t", "Array", _N_1, _A))),
    ),
    (
        parse_expr_string,
        "if #a % 2 = 1 then &1 else &0 endif",
        If("e", BCmp("=", RBinary("%", _n("r", "a"), RConst(2)), RConst(1)), _E1, _E0),
    ),
    (
        parse_prog_string,
        "if #n = 0 then @id{Unit} else @f endif",
        If("f", BCmp("=", _N, RConst(0)), _n("f", "id", TyUnit()), _F),
    ),
    # a parenthesis in a condition
    (
        parse_type_string,
        "if ((1) + 2) < 3 then Unit else Void endif",
        If("t", BCmp("<", RBinary("+", RConst(1), RConst(2)), RConst(3)), TyUnit(), TyVoid()),
    ),
    (
        parse_type_string,
        "if ((1 < 2)) && !(2 < 1) then Unit else Void endif",
        If("t", BAnd(_ONE_LT_TWO, BNot(BCmp("<", RConst(2), RConst(1)))), TyUnit(), TyVoid()),
    ),
    # generic arguments of mixed classes, each continuing its class
    (
        parse_expr_string,
        "&repeated{5, Bit, &plus}",
        _n("e", "repeated", RConst(5), _BIT, _n("e", "plus")),
    ),
    (parse_expr_string, "&0{@f(())}", _n("e", "0", ExApp(_F, ExUnit()))),
    (parse_expr_string, "&0{@f(x) |> @g}", _n("e", "0", ExApp(_G, ExApp(_F, _X)))),
    (
        parse_expr_string,
        "&f{(#a - 1) / 2}",
        _n("e", "f", RBinary("/", RBinary("-", _n("r", "a"), RConst(1)), RConst(2))),
    ),
    (parse_expr_string, "&f{(Bit) * Bit}", _n("e", "f", TyProd(_BIT, _BIT))),
    (parse_expr_string, "&f{((1))}", _n("e", "f", RConst(1))),
    (parse_expr_string, "&f{()}", _n("e", "f", ExUnit())),
    (parse_expr_string, "&f{(@g)}", _n("e", "f", _G)),
    (parse_expr_string, "&f{(@g)(x) |> @h}", _n("e", "f", ExApp(_n("f", "h"), ExApp(_G, _X)))),
    (parse_expr_string, "&f{(lambda x -> x)(y)}", _n("e", "f", ExApp(PrAbs(_X, _X), _Y))),
    (
        parse_expr_string,
        "&f{if 1 < 2 then Bit else Unit endif * Bit}",
        _n("e", "f", TyProd(If("t", _ONE_LT_TWO, _BIT, TyUnit()), _BIT)),
    ),
    (
        parse_expr_string,
        "&f{if 1 < 2 then 1 else 2 endif + 3}",
        _n("e", "f", RBinary("+", If("r", _ONE_LT_TWO, RConst(1), RConst(2)), RConst(3))),
    ),
    # a variant's leading bar is optional
    (parse_file, "type T := | &    A | @B of Unit end x", _VARIANT),
    (parse_file, "type T := &A | @B of Unit end x", _VARIANT),
    (
        parse_file,
        "type Pair2{'a} := 'a * 'a end def &zz : Pair2{Bit} := (&0, &0) end\n"
        "def @w{#n, @f : Bit -> Bit} : Bit -> Bit := @f end def #half{#x} := #x / 2 end",
        QFile(
            (
                Def("t", "Pair2", (Param("t", "a"),), (), TyProd(_A, _A)),
                Def("e", "zz", (), (_n("t", "Pair2", _BIT),), ExPair(_E0, _E0)),
                Def("f", "w", (Param("r", "n"), Param("f", "f", (_BIT, _BIT))), (_BIT, _BIT), _F),
                Def("r", "half", (Param("r", "x"),), (), RBinary("/", _n("r", "x"), RConst(2))),
            ),
            None,
        ),
    ),
    (
        parse_file,
        "def &one : Bit := &1 end &one",
        QFile((Def("e", "one", (), (_BIT,), _E1),), _n("e", "one")),
    ),
]

_TOO_LONG = "numeric literal of 5000 digits is too long"  # past int()'s limit on digits

# A parser, a source, and the whole message of its ParseError.  An atom of the
# wrong class is refused where it starts; an expected keyword or punctuation is
# quoted, another kind is named.
PARSE_ERRORS = [
    (parse_type_string, "rphase{x, 0, 0}", "1:1: expected a type, got 'rphase'"),
    (parse_type_string, "Bit * sin(1)", "1:7: expected a type, got 'sin'"),
    (parse_type_string, "(x)", "1:2: expected a type, got 'x'"),
    (parse_type_string, "if 1 < 2 then Bit else 1 endif", "1:24: expected a type, got '1'"),
    (parse_real_string, "T{Bit}", "1:1: expected a real expression, got 'T'"),
    (parse_real_string, "1 + @f", "1:5: expected a real expression, got 'f'"),
    (parse_prog_string, "ctrl x [&0 -> x]", "1:1: expected a program, got 'ctrl'"),
    (parse_prog_string, "#n", "1:1: expected a program, got 'n'"),
    (parse_expr_string, "Unit", "1:1: expected an expression, got 'Unit'"),
    (parse_expr_string, "#n{Bit}", "1:1: expected an expression, got 'n'"),
    (parse_expr_string, "x |> &y", "1:6: expected a program, got 'y'"),
    (parse_expr_string, "ctrl x [&0 -> ]", "1:15: expected an expression, got ']'"),
    (parse_expr_string, "let x = &0 x", "1:12: expected 'in', got 'x'"),
    (parse_prog_string, "lambda x", "1:9: expected '->', got end of input"),
    (parse_real_string, "- x", "1:3: expected a number after '-', got 'x'"),
    (parse_real_string, "-pi", "1:2: expected a number after '-', got 'pi'"),
    (parse_file, "type &T := Bit end", "1:6: expected a type name, got 'T'"),
    # a real at expression position, and one with no comparison in a condition
    (parse_expr_string, "(1 + 2)", "1:1: expected an expression in parentheses"),
    (
        parse_expr_string,
        "if (1 + 2) then x else y endif",
        "1:12: expected a comparison operator, got 'then'",
    ),
    # an 'if' program is not applied, and an 'if' argument has one class
    (parse_expr_string, "&z{if 1 < 2 then @f else @g endif(x)}", "1:34: expected '}', got '('"),
    (parse_expr_string, "&z{(if 1 < 2 then @f else @g endif(x))}", "1:35: expected ')', got '('"),
    (
        parse_expr_string,
        "&f{if 1 < 2 then Bit else 1 endif}",
        "1:29: the branches of an 'if' argument differ in class",
    ),
    (
        parse_expr_string,
        "&f{]}",
        "1:4: expected a type, expression, program, or real argument, got ']'",
    ),
    # A parenthesised generic argument is read once, so its error is the one
    # at the token where reading it failed.
    (parse_file, "&0{(}", "1:5: expected a type, expression, program, or real argument, got '}'"),
    pytest.param(parse_file, "&0{(" + "9" * 5000 + ")}", "1:5: " + _TOO_LONG, id="argument"),
    pytest.param(parse_real_string, "1" * 5000, "1:1: " + _TOO_LONG, id="literal"),
    pytest.param(parse_real_string, "1 - -" + "1" * 5000, "1:6: " + _TOO_LONG, id="negative"),
    pytest.param(parse_file, "&0 |> u3{" + "9" * 5000 + ", 0, 0}", "1:10: " + _TOO_LONG, id="u3"),
]


@pytest.mark.parametrize("parse, source, tree", PARSES)
def test_a_source_parses_to_its_tree(parse, source, tree):
    assert parse(source) == tree


@pytest.mark.parametrize("parse, source, message", PARSE_ERRORS)
def test_a_parse_error_has_its_message(parse, source, message):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert str(exc.value) == message
    assert message.startswith(f"{exc.value.line}:{exc.value.column}: ")


class TestParser:
    def test_each_prelude_token_is_taken_once(self, spy):
        text, taken = default_prelude_text(), spy(_Parser, "take")
        parse_file(text)
        assert len(taken) == len(tokenize(text)) - 1  # every token but EOF

    @pytest.mark.parametrize(
        "argument, node, sort",
        [
            ("T{Bit, 3}", Name, "t"),
            ("&x{@f, Unit}", Name, "e"),
            ("@f{#r, &x}", Name, "f"),
            ("#r{1, 2}", Name, "r"),
            ("if 1 < 2 then T{Bit} else Unit * Bit endif", If, "t"),
            ("if 1 < 2 then &x else (x, ()) endif", If, "e"),
            ("if 1 < 2 then @f{3} else lambda x -> x endif", If, "f"),
            ("if 1 < 2 then #r else 2 * pi endif", If, "r"),
        ],
    )
    def test_a_name_or_if_argument_has_its_sort_and_round_trips(self, argument, node, sort):
        e = parse_expr_string("&z{" + argument + "}")
        (arg,) = e.args
        assert (type(arg), arg.sort, sort_of(arg)) == (node, sort, sort)
        if node is If:
            assert sort_of(arg.then) == sort_of(arg.els) == sort
        assert parse_expr_string(to_str(e)) == e

    @pytest.mark.parametrize(
        "parse, source",
        [
            (parse_file, "(" * 5000 + "x" + ")" * 5000),
            (core_of_source, "&0 |> u3{" + "(" * 5000 + "1" + ")" * 5000 + ", 0, 0}"),
        ],
        ids=["parse_file", "core_of_source"],
    )
    def test_deep_nesting_is_a_capacity_error(self, parse, source):
        with pytest.raises(CapacityError, match=r"^1:\d+: input nested too deeply"):
            parse(source)


def _nested(head, middle, tail):
    return lambda n: head * n + middle + tail * n


# Each shape parses at this depth when the parser has the default recursion
# limit of 1000 frames to itself, as it has when a script calls it; the floors
# sit a little below what it reaches, so that a change that costs one more
# frame per level of any shape fails here.
@pytest.mark.parametrize(
    "parse, build, depth",
    [
        (parse_real_string, _nested("sin(", "1", ")"), 480),
        (parse_real_string, _nested("(", "1", ")"), 480),
        (parse_expr_string, _nested("(", "x", ")"), 480),
        (parse_type_string, _nested("(", "Bit", ")"), 480),
        (parse_expr_string, lambda n: "&0 |> u3{" + "(" * n + "1" + ")" * n + ", 0, 0}", 480),
        (parse_expr_string, _nested("@f(", "x", ")"), 320),
        (parse_type_string, _nested("if 1 < 2 then ", "Bit", " else Unit endif"), 320),
        (parse_type_string, _nested("T{", "Bit", "}"), 240),
        (parse_prog_string, _nested("lambda x -> (", "lambda x -> x", ")(x)"), 190),
        (parse_real_string, _nested("2 ^ ", "2", ""), 980),
    ],
    ids=[
        "sin", "real_parens", "expr_parens", "type_parens", "u3_parens", "application",
        "type_if", "type_args", "applied_lambda", "power_tower",
    ],
)
def test_each_nesting_shape_parses_at_its_floor(recursion_limit, stack_depth, parse, build, depth):
    text = build(depth)
    with recursion_limit(1000 + stack_depth()):  # not counting pytest's own frames
        assert parse(text)


class TestPrettyPrinter:
    def test_prelude_round_trips(self):
        qf = parse_file(default_prelude_text())
        assert parse_file(to_str(qf)) == qf

    def test_product_needs_parens_on_right(self):
        t = TyProd(Name("t", "Bit"), TyProd(Name("t", "Bit"), Name("t", "Bit")))
        assert to_str(t) == "(Bit * (Bit * Bit))"
        assert parse_type_string(to_str(t)) == t

    def test_applied_lambda_is_parenthesized(self):
        e = ExApp(PrAbs(ExVar("x"), ExVar("x")), Name("e", "0"))
        assert to_str(e) == "(lambda x -> x)(&0)"

    @pytest.mark.parametrize(
        "source, printed",
        [
            ("(if 1 < 2 then @f else @g endif)(x)", "(if 1 < 2 then @f else @g endif)(x)"),
            (
                "def @f : Bit -> Bit := lambda x -> x end",
                "def @f : Bit -> Bit := (lambda x -> x) end",
            ),
            ("&z{lambda x -> x}", "&z{(lambda x -> x)}"),
            ("&z{if 1 < 2 then @f else @g endif}", "&z{(if 1 < 2 then @f else @g endif)}"),
            ("x |> lambda y -> y |> @f", "(lambda y -> @f(y))(x)"),
            (
                "type T := Bit * Bit * (Bit * Bit) end",
                "type T := ((Bit * Bit) * (Bit * Bit)) end",
            ),
            ("&z{Unit * (Unit * Unit), Unit}", "&z{(Unit * (Unit * Unit)), Unit}"),
            ("@f(a, b)", "@f((a, b))"),
        ],
    )
    def test_printed_text_parses_back(self, source, printed):
        qf = parse_file(source)
        assert to_str(qf) == printed + "\n"
        assert parse_file(printed) == qf


# ---------------------------------------------------------------------------
# Random-AST round trips

_qvars = st.sampled_from(["x", "y", "z", "acc", "x'", "out0"])
_enames = st.sampled_from(["0", "1", "plus", "answer"])
_fnames = st.sampled_from(["f", "g", "had", "Just"])
_tnames = st.sampled_from(["Bit", "Num", "T0"])
_tyvars = st.sampled_from(["a", "b"])
_rnames = st.sampled_from(["n", "k"])


_real_leaves = st.one_of(
    st.integers(-20, 20).map(RConst), st.just(RPi()), _rnames.map(lambda n: Name("r", n, ()))
)


def _reals(depth: int):
    return real_trees(_real_leaves, depth, ("sqrt", "cos"))


def _bools(depth: int):
    cmp = st.builds(BCmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _reals(1), _reals(1))
    if depth == 0:
        return cmp
    sub = _bools(depth - 1)
    return st.one_of(cmp, st.builds(BNot, sub), st.builds(BAnd, sub, sub), st.builds(BOr, sub, sub))


def _types(depth: int):
    base = st.one_of(
        st.just(TyVoid()),
        st.just(TyUnit()),
        _tyvars.map(TVar),
        _tnames.map(lambda n: Name("t", n, ())),
    )
    if depth == 0:
        return base
    sub = _types(depth - 1)
    return st.one_of(
        base,
        st.builds(TyProd, sub, sub),
        st.builds(If, st.just("t"), _bools(1), sub, sub),
        st.builds(Name, st.just("t"), _tnames, st.tuples(sub)),
    )


def _genargs(depth: int):
    return st.one_of(_types(depth), _exprs(depth), _progs(depth), _reals(depth))


def _exprs(depth: int):
    base = st.one_of(
        st.just(ExUnit()),
        _qvars.map(ExVar),
        _enames.map(lambda n: Name("e", n, ())),
    )
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    arms = st.lists(st.builds(CoreArm, sub, sub), min_size=1, max_size=2).map(tuple)
    maybe_else = st.one_of(st.none(), sub)
    return st.one_of(
        base,
        st.builds(ExPair, sub, sub),
        st.builds(ExCtrl, sub, arms, maybe_else),
        st.builds(ExMatch, sub, arms, maybe_else),
        st.builds(ExTry, sub, sub),
        st.builds(ExApp, _progs(depth - 1), sub),
        st.builds(If, st.just("e"), _bools(1), sub, sub),
        st.builds(Name, st.just("e"), _enames, st.tuples(_genargs(depth - 1))),
    )


def _progs(depth: int):
    base = st.one_of(
        _fnames.map(lambda n: Name("f", n, ())),
        st.builds(PrU3, _reals(1), _reals(1), _reals(1)),
    )
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    arms = st.lists(st.builds(CoreArm, sub, sub), min_size=1, max_size=2).map(tuple)
    return st.one_of(
        base,
        st.builds(PrAbs, sub, sub),
        st.builds(PrRphase, sub, _reals(1), _reals(1)),
        st.builds(PrPmatch, arms),
        st.builds(If, st.just("f"), _bools(1), _progs(depth - 1), _progs(depth - 1)),
        st.builds(Name, st.just("f"), _fnames, st.tuples(_genargs(depth - 1))),
    )


# Counterexamples the properties once found; Hypothesis's own database of
# failures is not kept under version control.
_BAND = BAnd(BCmp(">", RPi(), RPi()), BCmp("=", RConst(0), RPi()))


# Parts of a ``let`` and a ``gphase``: a pattern, a value, a body and a phase.
_SUGARED = st.tuples(_exprs(2), _exprs(2), _exprs(2), _reals(1))
_UNIT_PARTS = (ExUnit(), ExUnit(), ExUnit(), RPi())


@settings(max_examples=300, deadline=None)
@given(_exprs(3), _SUGARED)
@example(If("e", _BAND, ExUnit(), ExUnit()), _UNIT_PARTS)
@example(Name("e", "0", (ExApp(Name("f", "f", ()), ExUnit()),)), _UNIT_PARTS)
@example(
    Name("e", "z", (If("r", _BAND, Name("r", "n"), RConst(2)), Name("r", "k", (RPi(),)))),
    _UNIT_PARTS,
)
def test_expr_print_parse_round_trip(e, sugared):
    assert parse_expr_string(to_str(e)) == e
    # ``let`` and ``gphase`` are read as their core forms.
    p, v, b, r = sugared
    let = f"let {to_str(p)} = {to_str(v)} in {to_str(b)}"
    assert parse_expr_string(let) == ExApp(PrAbs(p, b), v)
    assert parse_prog_string(f"gphase{{{to_str(r)}}}") == PrRphase(ExVar("_"), r, r)


@settings(max_examples=200, deadline=None)
@given(_progs(3))
@example(If("f", _BAND, Name("f", "f"), Name("f", "f")))
@example(Name("f", "f", (ExApp(Name("f", "f", ()), ExUnit()),)))
def test_prog_print_parse_round_trip(f):
    assert parse_prog_string(to_str(f)) == f


@settings(max_examples=200, deadline=None)
@given(_types(3))
@example(If("t", _BAND, TyVoid(), TyVoid()))
def test_type_print_parse_round_trip(t):
    assert parse_type_string(to_str(t)) == t


@settings(max_examples=200, deadline=None)
@given(_genargs(2), st.integers(1, 3))
@example(If("r", _BAND, Name("r", "n", (Name("t", "Bit"),)), RConst(2)), 1)
@example(RBinary("-", RConst(1), If("r", _BAND, RPi(), Name("r", "k"))), 2)
def test_parenthesized_generic_argument_parses_unchanged(arg, depth):
    text = to_str(arg)
    wrapped = "(" * depth + text + ")" * depth
    assert parse_expr_string("&z{" + wrapped + "}") == parse_expr_string("&z{" + text + "}")


def _params(depth: int):
    return st.one_of(
        st.builds(Param, st.just("t"), _tyvars),
        st.builds(Param, st.just("e"), _enames, st.tuples(_types(depth))),
        st.builds(Param, st.just("f"), _fnames, st.tuples(_types(depth), _types(depth))),
        st.builds(Param, st.just("r"), _rnames),
    )


def _defs(depth: int):
    params = st.lists(_params(depth), max_size=3).map(tuple)
    alts = st.one_of(
        st.builds(VariantAlt, _enames, st.none()),
        st.builds(VariantAlt, _fnames, _types(depth)),
    )
    return st.one_of(
        st.builds(Def, st.just("t"), _tnames, params, st.just(()), _types(depth)),
        st.builds(Def, st.just("e"), _enames, params, st.tuples(_types(depth)), _exprs(depth)),
        st.builds(
            Def, st.just("f"), _fnames, params, st.tuples(_types(depth), _types(depth)),
            _progs(depth),
        ),
        st.builds(Def, st.just("r"), _rnames, params, st.just(()), _reals(depth)),
        st.builds(VariantDef, _tnames, params, st.lists(alts, min_size=1, max_size=3).map(tuple)),
    )


# One parameter of each sort: the examples below give it to a definition of each sort.
_EVERY_PARAM = (
    Param("t", "a"),
    Param("e", "x", (Name("t", "Bit"),)),
    Param("f", "f", (TVar("a"), TyProd(TVar("a"), TyUnit()))),
    Param("r", "n"),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_defs(2), max_size=3).map(tuple), st.none() | _exprs(2))
@example((Def("t", "T0", _EVERY_PARAM, (), TVar("a")),), None)
@example((Def("e", "e", _EVERY_PARAM, (TVar("a"),), Name("e", "x")),), ExUnit())
@example((Def("f", "g", _EVERY_PARAM, (TVar("a"), TVar("a")), Name("f", "f")),), None)
@example((Def("r", "k", _EVERY_PARAM, (), Name("r", "n")),), None)
@example(
    (VariantDef("T0", _EVERY_PARAM, (VariantAlt("q", None), VariantAlt("g", TVar("a")))),), None
)
def test_definitions_print_parse_round_trip(defs, main):
    qf = QFile(defs, main)
    assert parse_file(to_str(qf)) == qf
