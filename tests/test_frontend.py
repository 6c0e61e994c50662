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


class TestLexer:
    def test_sigils_and_kinds(self):
        toks = tokenize("&plus @had #n 'a x Bit 42")
        kinds = [t.kind for t in toks[:-1]]
        assert kinds == [
            "e",
            "f",
            "r",
            TokKind.TYVAR,
            TokKind.QVAR,
            "t",
            TokKind.NUMBER,
        ]
        assert toks[0].text == "plus"
        assert toks[-1].kind is TokKind.EOF

    def test_primes_inside_identifiers(self):
        toks = tokenize("y0' 'a")
        assert (toks[0].kind, toks[0].text) == (TokKind.QVAR, "y0'")
        assert (toks[1].kind, toks[1].text) == (TokKind.TYVAR, "a")

    def test_longest_match_punctuation(self):
        toks = tokenize("|> || | := : -> !=")
        assert [t.text for t in toks[:-1]] == ["|>", "||", "|", ":=", ":", "->", "!="]

    def test_comments_skipped(self):
        toks = tokenize("x /* anything |> &here */ y")
        assert [t.text for t in toks[:-1]] == ["x", "y"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("x /* oops")

    def test_dangling_sigil(self):
        for src in ("& ", "&", "@\n", "#\t"):
            with pytest.raises(LexError):
                tokenize(src)

    def test_and_operator_and_spaced_sigil(self):
        for src in ("x&&y", "#n < 1 && #k < 2"):
            ands = [t for t in tokenize(src) if t.text == "&&"]
            assert [t.kind for t in ands] == ["&&"]
        assert [(t.kind, t.text) for t in tokenize("&&&x")[:-1]] == [
            ("&&", "&&"),
            ("e", "x"),
        ]
        for nl in ("\n", "\r\n"):
            toks = tokenize(f"&{nl}  A{nl}x")
            first = toks[0]
            assert (first.kind, first.text, first.line, first.column) == ("e", "A", 1, 1)
            assert (toks[1].text, toks[1].line, toks[1].column) == ("x", 3, 1)

    def test_positions_across_multi_line_comments_and_a_sigil_before_a_newline(self):
        source = "a /* one\ntwo\n  three */ b\n/*\n*/c &\nx @\n\n  f #\tn /**/'t"
        assert [tuple(t) for t in tokenize(source)] == [
            (TokKind.QVAR, "a", 1, 1),
            (TokKind.QVAR, "b", 3, 12),
            (TokKind.QVAR, "c", 5, 3),
            ("e", "x", 5, 5),
            ("f", "f", 6, 3),
            ("r", "n", 8, 5),
            (TokKind.TYVAR, "t", 8, 13),
            (TokKind.EOF, "", 8, 15),
        ]
        assert tuple(tokenize("&\nx y")[1]) == (TokKind.QVAR, "y", 2, 3)
        with pytest.raises(LexError) as error:
            tokenize(source + " /* never\nclosed")
        assert (error.value.line, error.value.column) == (8, 16)

    def test_non_decimal_digits_are_not_numbers(self):
        # '²' passes str.isdigit() but not int(); a decimal digit of any
        # script ('٣', ARABIC-INDIC DIGIT THREE) is a number.
        with pytest.raises(LexError, match="unexpected character '²'"):
            parse_real_string("²")
        with pytest.raises(LexError) as err:
            tokenize("1 + ²")
        assert (err.value.line, err.value.column) == (1, 5)
        assert parse_real_string("٣") == RConst(3)
        # an upper-case character that is no letter starts no type name
        with pytest.raises(LexError, match="unexpected character 'Ⅻ'"):
            tokenize("Ⅻ")

    def test_keywords_not_identifiers(self):
        toks = tokenize("ctrl ctrlx")
        assert (toks[0].kind, toks[0].text) == ("ctrl", "ctrl")
        assert (toks[1].kind, toks[1].text) == (TokKind.QVAR, "ctrlx")


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


class TestParser:
    def test_pipe_desugars_to_application(self):
        e = parse_expr_string("x |> @f |> @g")
        assert e == ExApp(Name("f", "g"), ExApp(Name("f", "f"), ExVar("x")))

    def test_application_parens_double_as_pair(self):
        assert parse_expr_string("@f(a, b)") == parse_expr_string("@f((a, b))")

    def test_unit_argument(self):
        assert parse_expr_string("@f(())") == ExApp(Name("f", "f"), ExUnit())

    def test_ctrl_with_else_and_trailing_semicolon(self):
        e = parse_expr_string("ctrl (a, b) [(&1, &1) -> ((a, b), @not(c)); else -> ((a, b), c);]")
        assert isinstance(e, ExCtrl)
        assert len(e.arms) == 1
        assert e.else_body is not None

    def test_match_arms(self):
        e = parse_expr_string("match x [(&1, &1) -> &1; else -> &0;]")
        assert isinstance(e, ExMatch)
        assert e.arms[0].pattern == ExPair(Name("e", "1"), Name("e", "1"))

    def test_lambda_body_extends_through_pipes(self):
        f = parse_prog_string("lambda x -> x |> @f |> @g")
        assert isinstance(f, PrAbs)
        assert f.body == ExApp(Name("f", "g"), ExApp(Name("f", "f"), ExVar("x")))

    def test_parenthesized_lambda_application(self):
        e = parse_expr_string("(lambda x -> x)(&0)")
        assert isinstance(e, ExApp) and isinstance(e.fn, PrAbs)

    def test_let_binding(self):
        e = parse_expr_string("let (x, y) = p in (y, x)")
        assert e == parse_expr_string("(lambda (x, y) -> (y, x))(p)")

    def test_try_catch(self):
        e = parse_expr_string("try @f(x) catch &0")
        assert isinstance(e, ExTry)

    def test_type_product_left_associative(self):
        t = parse_type_string("Bit * Bit * Bit")
        assert t == TyProd(TyProd(Name("t", "Bit"), Name("t", "Bit")), Name("t", "Bit"))

    def test_tuple_pattern_matches_left_associated_product(self):
        # ((a, b), c) is the pattern shape for Bit * Bit * Bit
        e = parse_expr_string("((a, b), c)")
        assert e == ExPair(ExPair(ExVar("a"), ExVar("b")), ExVar("c"))

    def test_type_conditional(self):
        t = parse_type_string("if #n <= 0 then Unit else 'a * Array{#n - 1, 'a} endif")
        assert (type(t), t.sort) == (If, "t")
        assert isinstance(t.els, TyProd)

    def test_rphase_shape(self):
        f = parse_prog_string("rphase{(&1, &1), 2 * pi / 2 ^ #k, 0}")
        assert isinstance(f, PrRphase)
        assert f.pattern == ExPair(Name("e", "1"), Name("e", "1"))
        assert f.off_phase == RConst(0)

    def test_expression_if(self):
        e = parse_expr_string("if #a % 2 = 1 then &1 else &0 endif")
        assert (type(e), e.sort) == (If, "e")

    def test_generic_args_mixed_classes(self):
        e = parse_expr_string("&repeated{5, Bit, &plus}")
        assert (type(e), e.sort) == (Name, "e")
        assert e.args == (RConst(5), Name("t", "Bit"), Name("e", "plus"))

    def test_generic_arg_applied_program(self):
        e = parse_expr_string("&0{@f(())}")
        assert e == Name("e", "0", (ExApp(Name("f", "f"), ExUnit()),))
        e = parse_expr_string("&0{@f(x) |> @g}")
        assert e == Name("e", "0", (ExApp(Name("f", "g"), ExApp(Name("f", "f"), ExVar("x"))),))

    def test_generic_arg_parenthesized_real(self):
        e = parse_expr_string("&f{(#a - 1) / 2}")
        (arg,) = e.args
        assert arg == RBinary("/", RBinary("-", Name("r", "a"), RConst(1)), RConst(2))

    def test_negative_literal_only_on_constants(self):
        assert parse_real_string("1 - -2") == RBinary("-", RConst(1), RConst(-2))
        with pytest.raises(ParseError):
            parse_real_string("-pi")

    @pytest.mark.parametrize(
        "source, parse, column",
        [
            ("1" * 5000, parse_real_string, 1),
            ("1 - -" + "1" * 5000, parse_real_string, 6),
            ("&0 |> u3{" + "9" * 5000 + ", 0, 0}", parse_file, 10),
        ],
        ids=["literal", "negative_literal", "u3_argument"],
    )
    def test_overlong_literal_is_a_parse_error(self, source, parse, column):
        # Longer than the interpreter's limit on integer-string conversion.
        with pytest.raises(ParseError, match="5000 digits is too long") as exc:
            parse(source)
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_generic_argument_error_is_at_the_token_that_fails(self):
        # A parenthesised generic argument is read once, so its error is the
        # one at the token where reading it failed.
        with pytest.raises(ParseError, match="5000 digits is too long") as exc:
            parse_file("&0{(" + "9" * 5000 + ")}")
        assert (exc.value.line, exc.value.column) == (1, 5)
        # No argument starts with "}".
        with pytest.raises(ParseError, match="expected a type, expression") as exc:
            parse_file("&0{(}")
        assert (exc.value.line, exc.value.column) == (1, 5)

    def test_each_prelude_token_is_taken_once(self, spy):
        text, taken = default_prelude_text(), spy(_Parser, "take")
        parse_file(text)
        assert len(taken) == len(tokenize(text)) - 1  # every token but EOF

    _BIT = Name("t", "Bit")
    _ONE_LT_TWO = BCmp("<", RConst(1), RConst(2))

    @pytest.mark.parametrize(
        "argument, tree",
        [
            ("(#a - 1) / 2", RBinary("/", RBinary("-", Name("r", "a"), RConst(1)), RConst(2))),
            ("(Bit) * Bit", TyProd(_BIT, _BIT)),
            ("((1))", RConst(1)),
            ("()", ExUnit()),
            ("(@g)", Name("f", "g")),
            ("(@g)(x) |> @h", ExApp(Name("f", "h"), ExApp(Name("f", "g"), ExVar("x")))),
            ("(lambda x -> x)(y)", ExApp(PrAbs(ExVar("x"), ExVar("x")), ExVar("y"))),
            (
                "if 1 < 2 then Bit else Unit endif * Bit",
                TyProd(If("t", _ONE_LT_TWO, _BIT, TyUnit()), _BIT),
            ),
            (
                "if 1 < 2 then 1 else 2 endif + 3",
                RBinary("+", If("r", _ONE_LT_TWO, RConst(1), RConst(2)), RConst(3)),
            ),
        ],
    )
    def test_generic_argument_continues_its_class(self, argument, tree):
        assert parse_expr_string("&f{" + argument + "}") == Name("e", "f", (tree,))

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
        "condition, tree",
        [
            ("((1) + 2) < 3", BCmp("<", RBinary("+", RConst(1), RConst(2)), RConst(3))),
            ("((1 < 2)) && !(2 < 1)", BAnd(_ONE_LT_TWO, BNot(BCmp("<", RConst(2), RConst(1))))),
        ],
    )
    def test_parenthesis_in_a_condition(self, condition, tree):
        t = parse_type_string(f"if {condition} then Unit else Void endif")
        assert t == If("t", tree, TyUnit(), TyVoid())

    @pytest.mark.parametrize(
        "source",
        [
            "&z{if 1 < 2 then @f else @g endif(x)}",  # an 'if' program is not applied
            "&z{(if 1 < 2 then @f else @g endif(x))}",
            "&f{if 1 < 2 then Bit else 1 endif}",  # branches of two classes
            "(1 + 2)",  # a real at expression position
            "if (1 + 2) then x else y endif",  # a real with no comparison
        ],
    )
    def test_ambiguous_prefix_rejected(self, source):
        with pytest.raises(ParseError):
            parse_expr_string(source)

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

    @pytest.mark.parametrize(
        "parse, source, message",
        [
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
            (parse_expr_string, "(1 + 2)", "1:1: expected an expression in parentheses"),
            (
                parse_expr_string,
                "&f{]}",
                "1:4: expected a type, expression, program, or real argument, got ']'",
            ),
            (
                parse_expr_string,
                "&f{if 1 < 2 then Bit else 1 endif}",
                "1:29: the branches of an 'if' argument differ in class",
            ),
        ],
    )
    def test_an_atom_of_the_wrong_class_is_rejected_where_it_starts(self, parse, source, message):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == message

    def test_unexpected_token_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr_string("ctrl x [&0 -> ]")
        assert exc.value.line == 1
        # An expected keyword or punctuation is quoted, another kind is named.
        for parse, source, message in [
            (parse_expr_string, "let x = &0 x", "1:12: expected 'in', got 'x'"),
            (parse_prog_string, "lambda x", "1:9: expected '->', got end of input"),
            (parse_real_string, "- x", "1:3: expected a number after '-', got 'x'"),
            (parse_file, "type &T := Bit end", "1:6: expected a type name, got 'T'"),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(source)
            assert str(exc.value) == message

    def test_variant_def_leading_bar_optional(self):
        with_bar = parse_file("type T := | &    A | @B of Unit end x")
        without = parse_file("type T := &A | @B of Unit end x")
        assert with_bar.defs == without.defs

    def test_def_forms(self):
        qf = parse_file(
            """
            type Pair2{'a} := 'a * 'a end
            def &zz : Pair2{Bit} := (&0, &0) end
            def @w{#n, @f : Bit -> Bit} : Bit -> Bit := @f end
            def #half{#x} := #x / 2 end
            """
        )
        kinds = [(type(d), d.sort, len(d.sig)) for d in qf.defs]
        assert kinds == [(Def, "t", 0), (Def, "e", 1), (Def, "f", 2), (Def, "r", 0)]
        assert qf.main is None

    def test_file_requires_defs_then_main(self):
        qf = parse_file("def &one : Bit := &1 end &one")
        assert qf.main == Name("e", "one")

    def test_prog_if(self):
        f = parse_prog_string("if #n = 0 then @id{Unit} else @f endif")
        assert (type(f), f.sort) == (If, "f")


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
