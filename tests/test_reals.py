"""Exactness and printing of symbolic real expressions."""

import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qunic.core import BAnd, BCmp, If, Name, RBinary, RConst, REuler, RPi, RUnary, to_str
from qunic.errors import CapacityError, QunityError, RealError
from qunic.parser import parse_real_string
from qunic.preprocess import Elaborator, _Env, _Inexact, core_of_source
from qunic.reals import (
    EXACT_BITS, KERNEL_NODES, as_pi_multiple, as_rational, compare, evaluate_bool,
    evaluate_real, kernel, step,
)


def ev(src: str):
    return evaluate_real(parse_real_string(src))


class TestExactEvaluation:
    def test_rational_arithmetic_stays_exact(self):
        assert ev("1 / 3 + 1 / 6") == Fraction(1, 2)
        assert isinstance(ev("1 / 3 + 1 / 6"), Fraction)

    def test_tenths_add_exactly(self):
        # would fail under floating point: 0.1 + 0.2 != 0.3
        assert ev("1 / 10 + 1 / 5") == Fraction(3, 10)

    @pytest.mark.parametrize(
        "src,expected",
        [
            ("7 % 3", 1),
            ("-7 % 3", 2),  # floored modulus: sign follows the divisor
            ("7 % -3", -2),
            ("(7 / 2) % 2", Fraction(3, 2)),
        ],
    )
    def test_floored_modulus(self, src, expected):
        assert ev(src) == expected

    def test_integer_power_exact(self):
        assert ev("2 ^ 30") == 2**30
        assert ev("2 ^ -2") == Fraction(1, 4)

    def test_fractional_power_is_float(self):
        v = ev("2 ^ (1 / 2)")
        assert isinstance(v, float)
        assert v == pytest.approx(2**0.5)

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 2**9

    def test_subtraction_left_associative(self):
        assert ev("1 - 2 - 3") == -4

    def test_sqrt_perfect_square_exact(self):
        assert ev("sqrt(49 / 4)") == Fraction(7, 2)
        assert isinstance(ev("sqrt(49 / 4)"), Fraction)

    def test_sqrt_general_is_float(self):
        assert ev("sqrt(2)") == pytest.approx(2**0.5)

    def test_ceil_floor(self):
        assert ev("ceil(7 / 2)") == 4
        assert ev("floor(7 / 2)") == 3
        assert ev("floor(0 - 1 / 2)") == -1

    def test_division_by_zero(self):
        with pytest.raises(RealError):
            ev("1 / (2 - 2)")

    def test_zero_to_negative_power(self):
        with pytest.raises(RealError):
            ev("0 ^ -1")

    def test_ln_domain_error(self):
        with pytest.raises(RealError):
            ev("ln(0 - 1)")

    def test_operands_are_evaluated_left_to_right(self):
        # Both operands are undefined: the error is the left one's.
        with pytest.raises(RealError, match="division by zero"):
            ev("1 / (2 - 2) + ln(0 - 1)")
        with pytest.raises(RealError, match="undefined"):
            ev("ln(0 - 1) + 1 / (2 - 2)")

    def test_transcendentals(self):
        assert ev("sin(pi / 2)") == pytest.approx(1.0)
        assert ev("ln(euler)") == pytest.approx(1.0)
        assert ev("log2(8)") == pytest.approx(3.0)
        assert ev("arctan(1)") == pytest.approx(0.7853981633974483)

    def test_cancelling_pi_parts_are_exact(self):
        assert ev("pi - pi") == 0
        assert isinstance(ev("pi - pi"), Fraction)
        assert ev("(2 * pi) / (4 * pi)") == Fraction(1, 2)
        assert isinstance(ev("(2 * pi) / (4 * pi)"), Fraction)

    @pytest.mark.parametrize(
        "src",
        [
            "sin(7 ^ 400)",
            "sqrt(2 * 7 ^ 400)",
            "7 ^ 400 + euler",
            "pi * 7 ^ 400",
            "(7 ^ 400) ^ (1 / 2)",
            "exp(700) * exp(700)",  # a float that overflows to inf
        ],
    )
    def test_too_large_for_a_float(self, src):
        with pytest.raises(RealError):
            ev(src)

    def test_unresolved_name_rejected(self):
        with pytest.raises(RealError):
            evaluate_real(Name("r", "n"))

    def test_unresolved_conditional_rejected(self):
        with pytest.raises(RealError):
            evaluate_real(If("r", BCmp("=", RConst(0), RConst(0)), RConst(1), RConst(2)))


class TestPiMultiples:
    @pytest.mark.parametrize(
        "src,q",
        [
            ("pi", Fraction(1)),
            ("pi / 2", Fraction(1, 2)),
            ("2 * pi / 2 ^ 3", Fraction(1, 4)),
            ("3 * pi / 4 - pi / 4", Fraction(1, 2)),
            ("0 - pi", Fraction(-1)),
            ("pi * 7 ^ 400", Fraction(7**400)),  # never converted to a float
            ("pi % (2 * pi)", None),  # modulus with pi is out of the linear domain
            ("pi + 1", None),
            ("pi * pi", None),
            ("sin(pi)", None),  # numerically ~0 but not structurally a multiple
            ("2", None),
        ],
    )
    def test_detection(self, src, q):
        assert as_pi_multiple(parse_real_string(src)) == q

    def test_ratio_of_pi_multiples_is_rational(self):
        assert as_rational(parse_real_string("(2 * pi) / (4 * pi)")) == Fraction(1, 2)

    def test_rational_of_pi_expression_is_none(self):
        assert as_rational(parse_real_string("pi / 2")) is None

    def test_ceil_of_a_float_is_rational(self):
        assert as_rational(parse_real_string("ceil(sqrt(2))")) == 2

    @pytest.mark.parametrize("src", ["1 / (2 - 2)", "ln(0 - 1)", "sqrt(0 - 1)", "0 ^ -1"])
    def test_undefined_value_is_an_error_not_none(self, src):
        with pytest.raises(RealError):
            as_rational(parse_real_string(src))


class TestBooleans:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("1 / 3 = 2 / 6", True),
            ("1 / 10 + 1 / 5 = 3 / 10", True),
            ("2 < 3 && 3 < 2", False),
            ("2 < 3 || 3 < 2", True),
            ("1 = 1 || 1 = 2 && 1 = 2", True),
            ("!(1 = 2)", True),
            ("!(1 = 1) || 2 >= 2", True),
            ("5 % 3 != 2", False),
        ],
    )
    def test_evaluation(self, src, expected):
        from qunic.parser import _Parser
        from qunic.lexer import tokenize

        p = _Parser(tokenize(src))
        b = p.parse_bool()
        p.expect_eof()
        assert evaluate_bool(b) is expected


# ---------------------------------------------------------------------------
# Printing round-trips


_rnames = st.sampled_from(["n", "k", "a'", "p_0"])


def _real_trees(depth: int):
    if depth == 0:
        return st.one_of(
            st.integers(-50, 50).map(RConst),
            st.just(RPi()),
            st.just(REuler()),
            _rnames.map(lambda n: Name("r", n, ())),
        )
    sub = _real_trees(depth - 1)
    return st.one_of(
        sub,
        st.builds(RUnary, st.sampled_from(["sin", "sqrt", "floor", "ln"]), sub),
        st.builds(RBinary, st.sampled_from(["+", "-", "*", "/", "^", "%"]), sub, sub),
    )


_BOTH = BAnd(BCmp("<", RConst(1), RConst(2)), BCmp(">=", RPi(), Name("r", "k")))


@given(_real_trees(4))
@example(If("r", _BOTH, Name("r", "n", (Name("t", "Bit"), RConst(2))), RConst(-1)))
@example(RBinary("^", Name("r", "a'"), If("r", _BOTH, RPi(), RBinary("-", RConst(1), RPi()))))
def test_real_print_parse_round_trip(r):
    assert parse_real_string(to_str(r)) == r


# ---------------------------------------------------------------------------
# Exact arithmetic on ints agrees with Fractions


def _integer_trees(depth: int):
    if depth == 0:
        return st.integers(-6, 6).map(RConst)
    sub = _integer_trees(depth - 1)
    return st.one_of(
        sub,
        st.builds(RBinary, st.sampled_from(["+", "-", "*", "/", "%"]), sub, sub),
        st.builds(RBinary, st.just("^"), sub, st.integers(-3, 3).map(RConst)),
    )


def _reference(r) -> Fraction:
    """Plain Fraction arithmetic; raises ZeroDivisionError where the value is undefined."""
    if isinstance(r, RConst):
        return Fraction(r.value)
    x, y = _reference(r.left), _reference(r.right)
    if r.op == "+":
        return x + y
    if r.op == "-":
        return x - y
    if r.op == "*":
        return x * y
    if r.op == "/":
        return x / y
    if r.op == "%":
        return x % y
    return x ** int(y)


@given(_integer_trees(3))
def test_exact_values_match_a_fraction_reference(r):
    try:
        expected = _reference(r)
    except ZeroDivisionError:
        with pytest.raises(RealError):
            evaluate_real(r)
        return
    got = evaluate_real(r)
    assert type(got) is Fraction
    assert got == expected


@pytest.mark.parametrize(
    "src, view",
    [
        ("3", as_rational),
        ("6 / 3", as_rational),
        ("2 * pi", as_pi_multiple),
        ("(4 / 2) * pi", as_pi_multiple),
    ],
)
def test_views_return_fractions_on_integral_values(src, view):
    q = view(parse_real_string(src))
    assert type(q) is Fraction
    assert q.denominator == 1


@pytest.mark.parametrize(
    "op, x, y, expected",
    [
        ("+", (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)), (1, 1)),
        ("-", (Fraction(3, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(1, 2)), (1, 1)),
        ("*", (Fraction(1, 2), 0), (4, 0), (2, 0)),
        ("%", (Fraction(3, 2), 0), (Fraction(1, 2), 0), (0, 0)),
        ("^", (Fraction(1, 2), 0), (0, 0), (1, 0)),
    ],
    ids=["add", "sub", "mul", "mod", "pow"],
)
def test_integral_exact_parts_come_back_as_ints(op, x, y, expected):
    got = step(op, x, y)
    assert got == expected
    assert [type(part) for part in got] == [int, int]


# Integers of zero, one and several machine words, of both signs.
_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40), st.integers(-(2**200), 2**200))


# Constants for kernels: 0, negatives, and the edges of EXACT_BITS, as a value
# and as an exponent.
_EDGES = [0, 1, -1, 2, -3, 7, EXACT_BITS, EXACT_BITS + 1, 2**EXACT_BITS - 1, -(2**EXACT_BITS)]


def _edge(i: int) -> int:
    return _EDGES[i]


# drawn by index, as Hypothesis shows its strategies' values, and the edges
# are too long to show
_kernel_ints = st.one_of(st.integers(0, len(_EDGES) - 1).map(_edge), st.integers(-(2**70), 2**70))


# Parameter names, one of them no Python identifier.
_kernel_names = st.sampled_from(["a", "b", "c", "n'"])


def _kernel_trees(depth: int):
    leaf = st.one_of(_kernel_ints.map(RConst), _kernel_names.map(lambda n: Name("r", n)))
    if depth == 0:
        return leaf
    sub = _kernel_trees(depth - 1)
    return st.one_of(leaf, st.builds(RBinary, st.sampled_from("+-*%/^"), sub, sub))


def _kernel_roots():
    tree = st.builds(RBinary, st.sampled_from("+-*%/^"), _kernel_trees(2), _kernel_trees(2))
    comparison = st.builds(BCmp, st.sampled_from(["=", "!=", "<=", "<", ">=", ">"]), tree, tree)
    return st.one_of(tree, comparison)


_E = _Inexact(REuler(), 2.718281828459045)

# What a parameter may be bound to, as the elaborator keeps it: a pi-free int,
# a Fraction, a multiple of pi, an exact value with both parts nonzero, an
# inexact value (a float, which keeps its tree), or nothing.
_bindings = st.one_of(
    _kernel_ints.map(lambda n: (n, 0)),
    # k + r/d with 0 < r < d, never integral
    st.builds(
        lambda k, d, r: (k + Fraction(1 + r % (d - 1), d), 0),
        _kernel_ints, st.integers(2, 2**70), st.integers(0, 2**70),
    ),
    st.sampled_from([(0, 1), (0, -2), (0, Fraction(1, 3))]),
    st.just(_E),
    st.just((1, 1)),
    st.none(),
)


@settings(deadline=None)  # a power at the edge of EXACT_BITS takes milliseconds
@given(_kernel_roots(), st.dictionaries(_kernel_names, _bindings))
@example(RBinary("-", Name("r", "a"), RConst(1)), {"a": (5, 0)})
@example(BCmp("=", RBinary("%", Name("r", "a"), RConst(2)), RConst(1)), {"a": (7, 0)})
@example(RBinary("^", RConst(2), Name("r", "a")), {"a": (EXACT_BITS, 0)})  # over after
@example(RBinary("^", RConst(3), Name("r", "a")), {"a": (EXACT_BITS + 1, 0)})  # over before
@example(RBinary("^", RConst(2), RConst(_edge(8))), {})  # a bound too long to print
@example(RBinary("/", Name("r", "a"), RConst(0)), {"a": (6, 0)})
@example(RBinary("%", Name("r", "a"), RBinary("^", RConst(2), RConst(-1075))), {"a": _E})
@example(RBinary("/", Name("r", "a"), RConst(4)), {"a": (6, 0)})  # does not divide
@example(RBinary("^", Name("r", "a"), RConst(-1)), {"a": (2, 0)})
@example(RBinary("*", Name("r", "a"), Name("r", "b")), {"a": (0, 1), "b": (2, 0)})
@example(RBinary("-", Name("r", "n'"), RConst(_edge(8))), {"n'": (1, 0)})
def test_a_kernel_gives_the_walks_value_or_none(x, bound):
    generics = {("r", name): v for name, v in bound.items() if v is not None}
    elaborator = Elaborator(())
    try:
        walked = elaborator.elab(x, _Env(generics, {}))  # a node's first evaluation walks it
    except QunityError:
        walked = None
    built = kernel(x)
    if built is None:
        return
    run, reads = built
    got = run(generics)
    if got is None:
        return
    assert walked is not None
    assert got == walked
    parts = (lambda v: [type(p) for p in v]) if type(got) is tuple else type
    assert parts(got) == parts(walked)
    assert reads == elaborator._reads


@pytest.mark.parametrize(
    "src, bound, value, reads",
    [
        ("#n - 1", {"n": 12}, (11, 0), 1),
        ("#n <= 0", {"n": 12}, False, 1),
        ("#a % 2 = 1", {"a": 12345}, True, 1),
        ("((#a - #a % 2) / 2 + #a % 2) % 2 ^ (#n - 1)", {"a": 12345, "n": 16}, (6173, 0), 4),
        ("#a * #a % 2 ^ #n", {"a": 7, "n": 4}, (1, 0), 3),
        ("2 ^ 10 - 1", {}, (1023, 0), 0),
        # negative powers, which the rule leaves, that step folds to an int
        ("1 ^ -3 + #n", {"n": 5}, (6, 0), 1),
        ("(-1) ^ -1 - #n", {"n": 5}, (-6, 0), 1),
    ],
)
def test_a_kernel_answers_on_ints(src, bound, value, reads):
    if type(value) is bool:
        x = parse_real_string(f"if {src} then 1 else 0 endif").cond
    else:
        x = parse_real_string(src)
    run, n = kernel(x)
    assert run({("r", name): (v, 0) for name, v in bound.items()}) == value
    assert n == reads


@pytest.mark.parametrize(
    "src",
    [
        "#n - 1 + pi",  # a leaf that is no int
        "#n{1} - 1",  # a name with arguments
        "sqrt(#n) - 1",  # an operator outside the integer rule
        "2 ^ -1 + #n",  # a constant operation with no value
        "1 % 0 + #n",  # a constant operation that step refuses
        "0 ^ -1 + #n",  # the same, for a power
        " + ".join(["#n"] * (KERNEL_NODES // 2 + 2)),  # 65 nodes, over the cap
    ],
)
def test_what_gets_no_kernel(src):
    assert kernel(parse_real_string(src)) is None


def test_a_modulus_by_zero_has_a_kernel_that_gives_no_value():
    # The kernel leaves the case, and the walk raises.
    x = parse_real_string("#n % 0")
    run, reads = kernel(x)
    generics = {("r", "n"): (5, 0)}
    assert run(generics) is None and reads == 1
    with pytest.raises(RealError, match="modulus by zero"):
        Elaborator(()).elab(x, _Env(generics, {}))


# An operator's kernel over two parameters, or a parameter and a constant.
_RULE_SHAPES = {
    "names": lambda op, a, c: RBinary(op, Name("r", "a"), Name("r", "c")),
    "constant-left": lambda op, a, c: RBinary(op, RConst(a), Name("r", "c")),
    "constant-right": lambda op, a, c: RBinary(op, Name("r", "a"), RConst(c)),
}


@pytest.mark.parametrize("shape", _RULE_SHAPES)
@pytest.mark.parametrize("op", ["+", "-", "*", "/", "%", "^"])
@settings(deadline=None)  # a power at the edge of EXACT_BITS takes milliseconds
@given(_kernel_ints, _kernel_ints)
@example(1, 0)  # division or modulus by zero
@example(0, -1)  # zero to a negative power
@example(2, EXACT_BITS)  # a power over after it is computed
@example(3, EXACT_BITS + 1)  # a power over before it is computed
@example(2**EXACT_BITS - 1, 2)  # a product over
@example(7, 3)  # a / that does not divide
@example(2, -3)  # a negative power that is no int
@example(1, -3)  # a negative power that is an int
@example(2, 70_000)  # over EXACT_BITS before it is computed
@example(2**40, 2**40)
def test_a_kernel_applies_the_integer_rule(shape, op, a, c):
    # The rule written into a kernel's text gives what step gives on the two
    # ints where that is an int, or None.  It leaves every negative exponent
    # to step, even one that gives an int (1 ^ -3).
    run, _ = kernel(_RULE_SHAPES[shape](op, a, c))
    try:
        v = step(op, (a, 0), (c, 0))
    except QunityError:
        v = None
    if v is not None and (type(v[0]) is not int or op == "^" and c < 0):
        v = None
    assert run({("r", "a"): (a, 0), ("r", "c"): (c, 0)}) == v


def test_expressions_of_one_shape_share_one_code_object():
    def run(src):
        x = parse_real_string(src)
        return kernel(x.cond if type(x) is If else x)[0]

    n_less_1, m_less_7 = run("#n - 1"), run("#m - 7")
    odd = run("if #n % 2 = 1 then 1 else 0 endif")
    three_mod_7 = run("if #m % 7 = 3 then 1 else 0 endif")
    assert n_less_1.__code__ is m_less_7.__code__
    assert odd.__code__ is three_mod_7.__code__
    assert n_less_1.__code__ is not odd.__code__
    generics = {("r", "n"): (12, 0), ("r", "m"): (17, 0)}
    assert (n_less_1(generics), m_less_7(generics)) == ((11, 0), (10, 0))
    assert (odd(generics), three_mod_7(generics)) == (False, True)


def test_a_kernel_runs_in_one_frame(recursion_limit, stack_depth):
    # A left-nested chain of 31 operators, the most a kernel takes, runs at a
    # recursion limit a few frames above this test's depth.
    x = parse_real_string("#n" + " - 1" * (KERNEL_NODES // 2))
    run, _ = kernel(x)
    generics = {("r", "n"): (100, 0)}
    with recursion_limit(stack_depth() + 10):
        got = run(generics)
    assert got == (100 - KERNEL_NODES // 2, 0)


@pytest.mark.parametrize(
    "op, holds",
    [
        ("=", operator.eq),
        ("!=", operator.ne),
        ("<=", operator.le),
        ("<", operator.lt),
        (">=", operator.ge),
        (">", operator.gt),
    ],
)
@given(_ints, _ints)
@example(0, 0)
@example(2**200, 2**200 + 1)
def test_comparing_two_integers_equals_comparing_their_fractions(op, holds, a, c):
    got = compare(op, (a, 0), (c, 0))
    assert got == compare(op, (Fraction(a), 0), (Fraction(c), 0)) == holds(a, c)


def test_constant_too_long_to_print_is_a_real_error():
    # Longer than the interpreter's limit on integer-string conversion.
    with pytest.raises(RealError, match="5071 digits"):
        to_str(RConst(7**6000))


_SQUARE = "def #sq{#n, #x} := if #n = 0 then #x else #sq{#n - 1, #x * #x} endif end\n"


@pytest.mark.parametrize(
    "source",
    ["&0 |> u3{3 ^ 2 ^ 24 % 2, 0, 0}", _SQUARE + "&0 |> u3{#sq{24, 3} % 2, 0, 0}"],
    ids=["power", "repeated_square"],
)
def test_an_exact_value_too_large_is_a_capacity_error(source):
    # 3^(2^24) has about 26.6 million bits; the bound stops it long before.
    with pytest.raises(CapacityError, match=r"exact real of at least \d+ bits"):
        core_of_source(source)


@pytest.mark.parametrize("op", ["/", "%"])
def test_a_float_over_an_exact_divisor_that_rounds_to_0_is_undefined(op):
    # 2 ^ -1075 is exact and nonzero, and 0.0 as a float.
    with pytest.raises(RealError, match=rf"2.718281828459045 \{op} 0.0 is undefined"):
        core_of_source(f"&0 |> u3{{euler {op} 2 ^ -1075, 0, 0}}")


def test_a_bound_too_long_to_print_is_shown_as_a_power_of_2():
    with pytest.raises(CapacityError, match=r"at least 2\^65535 bits"):
        core_of_source("&0 |> u3{2 ^ 2 ^ 65535, 0, 0}")


def test_a_flat_chain_evaluates_at_the_default_recursion_limit():
    # 5,000 terms, which the parser reads without recursion; each view folds
    # the chain without recursion too.
    r = parse_real_string(" - ".join(["1"] * 5000))
    assert sys.getrecursionlimit() < 5000
    assert evaluate_real(r) == as_rational(r) == -4998
    assert as_pi_multiple(r) is None
