"""Exactness and printing of symbolic real expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qunic.core import BCmp, RBinary, RConst, REuler, RIf, RName, RPi, RUnary, to_str
from qunic.errors import RealError
from qunic.parser import parse_real_string
from qunic.reals import as_pi_multiple, as_rational, evaluate_bool, evaluate_real


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
            evaluate_real(RName("n"))

    def test_unresolved_conditional_rejected(self):
        with pytest.raises(RealError):
            evaluate_real(RIf(BCmp("=", RConst(0), RConst(0)), RConst(1), RConst(2)))


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
            _rnames.map(lambda n: RName(n, ())),
        )
    sub = _real_trees(depth - 1)
    return st.one_of(
        sub,
        st.builds(RUnary, st.sampled_from(["sin", "sqrt", "floor", "ln"]), sub),
        st.builds(RBinary, st.sampled_from(["+", "-", "*", "/", "^", "%"]), sub, sub),
    )


@given(_real_trees(4))
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


def test_constant_too_long_to_print_is_a_real_error():
    # Longer than the interpreter's limit on integer-string conversion.
    with pytest.raises(RealError, match="5071 digits"):
        to_str(RConst(7**6000))
