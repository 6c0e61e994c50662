"""Classical programs under S: prelude arithmetic computes what its comments
say, at sizes no dense operator reaches, checked against Python's integers
through :func:`qunic.semantics.value`, which reads the one basis value of a
state and refuses any other state."""

import random

import pytest
from arithmetic import N, SAMPLES, num, program, to_int

from qunic import cli, core
from qunic.core import PrAbs, PrPmatch
from qunic.errors import CapacityError, SemanticsError
from qunic.preprocess import core_of_source
from qunic.semantics import LEFT, ONE, RIGHT, ZERO, Semantics, is_x, value


pytestmark = pytest.mark.usefixtures("default_recursion_limit")


@pytest.mark.parametrize("a", [0, 1, 5, 12345, 2**N - 1, 2**N + 3, -3])
def test_add_const_adds_mod_2_to_the_n(a):
    f, rng, s = program(f"@add_const{{{N}, {a}}}", N), random.Random(a), Semantics()
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(s.value(f, num(N, x))) == (x + a) % 2**N


@pytest.mark.parametrize("a", [0, 1, 12345, 2**N - 1, -3])
def test_the_adjoint_of_add_const_subtracts_mod_2_to_the_n(a):
    f = program(f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @add_const{{{N}, {a}}}}}", N)
    rng, s = random.Random(a), Semantics()
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(s.value(f, num(N, x))) == (x - a) % 2**N


def _adders(n: int):
    """``@inc{n}`` and ``@add_const{n, a}`` for every a in [-2^n, 2^(n+1)),
    each with the constant it adds."""
    yield f"@inc{{{n}}}", 1
    for a in range(-(2**n), 2 ** (n + 1)):
        yield f"@add_const{{{n}, {a}}}", a


@pytest.mark.parametrize("n", range(7))
def test_inc_and_add_const_add_mod_2_to_the_n_on_every_input(n):
    for name, a in _adders(n):
        f, s = program(name, n), Semantics()  # a memo is keyed by its nodes' ids
        for x in range(2**n):
            assert to_int(s.value(f, num(n, x))) == (x + a) % 2**n, (name, x)


@pytest.mark.parametrize("n", range(5))
def test_the_adjoints_of_inc_and_add_const_subtract_on_every_input(n):
    for name, a in _adders(n):
        f, s = program(f"@adjoint{{Num{{{n}}}, Num{{{n}}}, {name}}}", n), Semantics()
        for x in range(2**n):
            assert to_int(s.value(f, num(n, x))) == (x - a) % 2**n, (name, x)


def test_each_programs_adjoint_is_built_once_for_every_pass(monkeypatch):
    # A pattern @add_const{..}(x) runs that program's adjoint: core.adjoint
    # builds it once and keeps it on the program's node, and every run of
    # the semantics, each with memos of its own, shares it.
    built, build = [], core._adjoint
    monkeypatch.setattr(core, "_adjoint", lambda f: built.append(f) or build(f))
    f = program(f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @add_const{{{N}, 12345}}}}", N)
    rng = random.Random(2)
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(value(f, num(N, x))) == (x - 12345) % 2**N
    assert len(built) == len({id(g) for g in built}) > 0


def test_ctrl_arms_are_worked_out_once_per_node_for_every_pass(monkeypatch):
    # The adjoint of @mod_mult reads the ctrl of its body as a pattern:
    # core.ctrl_arms works its arms out once and keeps them on the ctrl's
    # node, and two runs of the semantics, each with memos of its own, share
    # them.
    built, build = [], core._ctrl_arms
    monkeypatch.setattr(core, "_ctrl_arms", lambda p: built.append(p) or build(p))
    f = program(f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @mod_mult{{{N}, 5}}}}", N)
    rng, inverse = random.Random(5), pow(5, -1, 2**N)
    for s in (Semantics(), Semantics()):
        for _ in range(SAMPLES):
            x = rng.randrange(2**N)
            assert to_int(s.value(f, num(N, x))) == x * inverse % 2**N
    assert len(built) == len({id(p) for p in built}) > 0
    assert all(core.ctrl_arms(p) is p._derived for p in built)


@pytest.mark.parametrize("a", [1, 3, 7, 12345, 2**N - 1, -5])
def test_mod_mult_multiplies_by_an_odd_constant_mod_2_to_the_n(a):
    f, rng, s = program(f"@mod_mult{{{N}, {a}}}", N), random.Random(a), Semantics()
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(s.value(f, num(N, x))) == x * a % 2**N


@pytest.mark.parametrize("a", [1, 3, 5, 12345, 2**N - 1, -5])
def test_the_adjoint_of_mod_mult_multiplies_by_the_inverse_constant(a):
    # Its adjoint's pattern is the ctrl of @mod_mult's body
    f = program(f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @mod_mult{{{N}, {a}}}}}", N)
    rng, inverse, s = random.Random(a), pow(a, -1, 2**N), Semantics()
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(s.value(f, num(N, x))) == x * inverse % 2**N
    main = "&num_to_state{3, 1} |> @adjoint{Num{3}, Num{3}, @mod_mult{3, 5}}"
    assert to_int(value(core_of_source(main), {})) == 5  # 5 * 5 = 1 mod 8


def test_rev_adder_adds_its_first_register_into_its_second():
    f, rng, s = program(f"@rev_adder{{{N}}}", N, N), random.Random(1), Semantics()
    for _ in range(SAMPLES):
        a, b = rng.randrange(2**N), rng.randrange(2**N)
        out = s.value(f, (num(N, a), num(N, b)))
        assert (to_int(out[0]), to_int(out[1])) == (a, (a + b) % 2**N)


def test_mod_exp_multiplies_by_a_power_of_its_constant():
    m = 8
    f, rng, s = program(f"@mod_exp{{{m}, {N}, 7}}", m, N), random.Random(2), Semantics()
    for _ in range(SAMPLES):
        x, y = rng.randrange(2**m), rng.randrange(2**N)
        out = s.value(f, (num(m, x), num(N, y)))
        assert (to_int(out[0]), to_int(out[1])) == (x, y * pow(7, x, 2**N) % 2**N)


def test_a_main_expression_runs_in_an_empty_environment():
    main = f"&num_to_state{{{N}, 3}} |> @add_const{{{N}, 4}}"
    assert to_int(value(core_of_source(main), {})) == 7


def test_a_lambda_whose_pattern_does_not_match_gives_none():
    f = core_of_source("(&0, &1) |> lambda (x, &0) -> x").fn
    assert value(f, (ZERO, ONE)) is None
    assert value(f, (ONE, ZERO)) == ONE
    # a () pattern takes only (): on &0 it gives no value, and refuses nothing
    f = core_of_source("&0 |> lambda () -> &1").fn
    assert value(f, ZERO) is None


def test_nothing_passes_through_an_application_and_a_pair():
    f = core_of_source("(&0, &1) |> lambda p -> (@not((lambda (x, &0) -> x)(p)), &0)").fn
    assert value(f, (ZERO, ONE)) is None
    assert value(f, (ZERO, ZERO)) == (ONE, ZERO)


def test_a_variable_twice_in_a_pattern_matches_equal_values():
    f = core_of_source("(&0, &0) |> lambda (x, x) -> x").fn
    assert value(f, (ONE, ONE)) == ONE
    assert value(f, (ONE, ZERO)) is None


def test_match_takes_the_first_arm_that_matches_else_the_else_body():
    f = core_of_source("&0 |> lambda x -> match x [y -> &1; &0 -> &0]").fn
    assert value(f, ZERO) == ONE
    f = program("@and", 1, 1)  # match [(&1, &1) -> &1; else -> &0]
    table = {(a, b): value(f, (a, b)) for a in (ZERO, ONE) for b in (ZERO, ONE)}
    assert table == {(ZERO, ZERO): ZERO, (ZERO, ONE): ZERO, (ONE, ZERO): ZERO, (ONE, ONE): ONE}


def test_ctrl_keeps_the_variables_of_its_scope_and_its_arms_shadow_them():
    f = core_of_source("(&1, &0) |> lambda (c, x) -> ctrl c [&0 -> (c, x); x -> (x, @not(c))]").fn
    assert value(f, (ONE, ZERO)) == (ONE, ZERO)
    assert value(f, (ZERO, ONE)) == (ZERO, ONE)


def test_a_pattern_matches_any_program_through_its_adjoint():
    f = core_of_source("&0 |> lambda b -> match b [(lambda x -> @not(x))(y) -> y]").fn
    assert (value(f, ZERO), value(f, ONE)) == (ONE, ZERO)


@pytest.mark.parametrize(
    "gate, x",
    [
        ("u3{2 * pi / 2, 0 * pi, 3 * pi - 2 * pi}", True),
        ("@not", True),
        ("@had", False),
        ("u3{pi + 0 * sin(1), 0, pi}", False),  # a float near pi
        ("u3{3 * pi, 0, pi}", False),  # -X
        ("u3{pi, pi, pi}", False),  # X up to a phase
    ],
)
def test_x_is_recognized_by_its_exact_angles(gate, x):
    assert is_x(core_of_source(f"&0 |> {gate}").fn) is x


@pytest.mark.parametrize(
    "source, what",
    [
        ("&0 |> @had", "ExApp has 2 entries, not one basis value"),
        ("&0 |> gphase{pi}", "ExApp is one basis value at amplitude -1, not 1"),
        ("&order_finding{3, 7}", r"ExApp has \d+ entries, not one basis value"),
    ],
)
def test_a_state_that_is_not_one_basis_value_is_refused(source, what):
    with pytest.raises(SemanticsError, match=what):
        value(core_of_source(source), {})


# A variant of three alternatives: @C's constructor is a lambda over two
# right injections, which a pattern reads through its adjoint.
VARIANT = "type T := &A | &B | @C of Bit end\n"
A, B = (LEFT, ()), (RIGHT, (LEFT, ()))
C = {b: (RIGHT, (RIGHT, b)) for b in (ZERO, ONE)}
NOT = {ZERO: ONE, ONE: ZERO}


@pytest.mark.parametrize(
    "main, want",
    [
        (
            "&A |> lambda t -> match t [@C(x) -> x; else -> &0]",
            {A: ZERO, B: ZERO, C[ZERO]: ZERO, C[ONE]: ONE},
        ),
        (
            "(&A, &0) |> lambda (t, y) -> "
            "ctrl t [@C(x) -> (t, @not(y)); &A -> (t, y); &B -> (t, y)]",
            {
                (t, y): (t, NOT[y] if t in C.values() else y)
                for t in (A, B, *C.values())
                for y in NOT
            },
        ),
        (
            "&A |> pmatch [@C(x) -> @C(@not(x)); &A -> &B; &B -> &A]",
            {A: B, B: A, C[ZERO]: C[ONE], C[ONE]: C[ZERO]},
        ),
    ],
    ids=["match", "ctrl", "pmatch"],
)
def test_a_constructor_with_a_payload_matches_in_every_arm_form(main, want):
    f = core_of_source(VARIANT + main).fn
    assert isinstance(f, (PrAbs, PrPmatch))
    s = Semantics()
    assert {v: s.value(f, v) for v in want} == want


def test_a_program_too_deep_for_the_stack_is_a_capacity_error():
    # It compiles on the CLI's deep stack and is read at the default limit.
    c = cli._on_deep_stack(core_of_source, "&num_to_state{400, 5} |> @add_const{400, 3}")
    with pytest.raises(CapacityError, match="nested too deeply"):
        value(c, {})
