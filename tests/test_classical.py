"""The classical evaluator: prelude arithmetic computes what its comments say,
at sizes no dense operator reaches, and what is not classical is refused."""

import random

import pytest
from arithmetic import N, SAMPLES, num, program, to_int

from qunic import cli, core, semantics
from qunic.classical import LEFT, RIGHT, run
from qunic.core import PrAbs, PrPmatch
from qunic.errors import CapacityError, ClassicalError
from qunic.preprocess import core_of_source


@pytest.fixture(autouse=True)
def default_recursion_limit(recursion_limit):
    """Every test here runs at the interpreter's default recursion limit."""
    with recursion_limit(1000):
        yield


@pytest.mark.parametrize("a", [0, 1, 5, 12345, 2**N - 1, 2**N + 3, -3])
def test_add_const_adds_mod_2_to_the_n(a):
    f, rng = program(f"@add_const{{{N}, {a}}}", N), random.Random(a)
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(run(f, num(N, x))) == (x + a) % 2**N


@pytest.mark.parametrize("a", [0, 1, 12345, 2**N - 1, -3])
def test_the_adjoint_of_add_const_subtracts_mod_2_to_the_n(a):
    f = program(f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @add_const{{{N}, {a}}}}}", N)
    rng = random.Random(a)
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(run(f, num(N, x))) == (x - a) % 2**N


def test_each_programs_adjoint_is_built_once_for_every_pass(monkeypatch):
    # A pattern @add_const{..}(x) runs that program's adjoint: core.adjoint
    # builds it once, keeps it on the program's node, and the classical
    # evaluator and every run of the semantics share it.
    built, build = [], core._adjoint
    monkeypatch.setattr(core, "_adjoint", lambda f: built.append(f) or build(f))
    f = program(f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @add_const{{{N}, 12345}}}}", N)
    rng = random.Random(2)
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(run(f, num(N, x))) == (x - 12345) % 2**N
        semantics.run(f, num(N, x))
    assert len(built) == len({id(g) for g in built}) > 0


@pytest.mark.parametrize("a", [1, 3, 7, 12345, 2**N - 1, -5])
def test_mod_mult_multiplies_by_an_odd_constant_mod_2_to_the_n(a):
    f, rng = program(f"@mod_mult{{{N}, {a}}}", N), random.Random(a)
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(run(f, num(N, x))) == x * a % 2**N


@pytest.mark.parametrize("a", [1, 3, 5, 12345, 2**N - 1, -5])
def test_the_adjoint_of_mod_mult_multiplies_by_the_inverse_constant(a):
    # Its adjoint's pattern is the ctrl of @mod_mult's body
    f = program(f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @mod_mult{{{N}, {a}}}}}", N)
    rng, inverse = random.Random(a), pow(a, -1, 2**N)
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert to_int(run(f, num(N, x))) == x * inverse % 2**N
    main = "&num_to_state{3, 1} |> @adjoint{Num{3}, Num{3}, @mod_mult{3, 5}}"
    assert to_int(run(core_of_source(main), {})) == 5  # 5 * 5 = 1 mod 8


def test_rev_adder_adds_its_first_register_into_its_second():
    f, rng = program(f"@rev_adder{{{N}}}", N, N), random.Random(1)
    for _ in range(SAMPLES):
        a, b = rng.randrange(2**N), rng.randrange(2**N)
        out = run(f, (num(N, a), num(N, b)))
        assert (to_int(out[0]), to_int(out[1])) == (a, (a + b) % 2**N)


def test_mod_exp_multiplies_by_a_power_of_its_constant():
    m = 8
    f, rng = program(f"@mod_exp{{{m}, {N}, 7}}", m, N), random.Random(2)
    for _ in range(SAMPLES):
        x, y = rng.randrange(2**m), rng.randrange(2**N)
        out = run(f, (num(m, x), num(N, y)))
        assert (to_int(out[0]), to_int(out[1])) == (x, y * pow(7, x, 2**N) % 2**N)


def test_a_main_expression_runs_in_an_empty_environment():
    assert to_int(run(core_of_source(f"&num_to_state{{{N}, 3}} |> @add_const{{{N}, 4}}"), {})) == 7


def test_a_lambda_whose_pattern_does_not_match_gives_none():
    f = core_of_source("(&0, &1) |> lambda (x, &0) -> x").fn
    assert run(f, ((LEFT, ()), (RIGHT, ()))) is None
    assert run(f, ((RIGHT, ()), (LEFT, ()))) == (RIGHT, ())
    # a () pattern takes only (): on &0 it gives no value, and refuses nothing
    f = core_of_source("&0 |> lambda () -> &1").fn
    assert run(f, (LEFT, ())) is None and semantics.run(f, (LEFT, ())) == {}


def test_nothing_passes_through_an_application_and_a_pair():
    f = core_of_source("(&0, &1) |> lambda p -> (@not((lambda (x, &0) -> x)(p)), &0)").fn
    assert run(f, ((LEFT, ()), (RIGHT, ()))) is None
    assert run(f, ((LEFT, ()), (LEFT, ()))) == ((RIGHT, ()), (LEFT, ()))


def test_a_variable_twice_in_a_pattern_matches_equal_values():
    f = core_of_source("(&0, &0) |> lambda (x, x) -> x").fn
    assert run(f, ((RIGHT, ()), (RIGHT, ()))) == (RIGHT, ())
    assert run(f, ((RIGHT, ()), (LEFT, ()))) is None


def test_match_takes_the_first_arm_that_matches_else_the_else_body():
    f = core_of_source("&0 |> lambda x -> match x [y -> &1; &0 -> &0]").fn
    assert run(f, (LEFT, ())) == (RIGHT, ())
    f = program("@and", 1, 1)  # match [(&1, &1) -> &1; else -> &0]
    table = {(a, b): run(f, ((a, ()), (b, ()))) for a in (LEFT, RIGHT) for b in (LEFT, RIGHT)}
    assert table == {
        (LEFT, LEFT): (LEFT, ()),
        (LEFT, RIGHT): (LEFT, ()),
        (RIGHT, LEFT): (LEFT, ()),
        (RIGHT, RIGHT): (RIGHT, ()),
    }


def test_ctrl_keeps_the_variables_of_its_scope_and_its_arms_shadow_them():
    f = core_of_source("(&1, &0) |> lambda (c, x) -> ctrl c [&0 -> (c, x); x -> (x, @not(c))]").fn
    assert run(f, ((RIGHT, ()), (LEFT, ()))) == ((RIGHT, ()), (LEFT, ()))
    assert run(f, ((LEFT, ()), (RIGHT, ()))) == ((LEFT, ()), (RIGHT, ()))


def test_a_pattern_matches_any_program_through_its_adjoint():
    f = core_of_source("&0 |> lambda b -> match b [(lambda x -> @not(x))(y) -> y]").fn
    for v, out in (((LEFT, ()), (RIGHT, ())), ((RIGHT, ()), (LEFT, ()))):
        assert run(f, v) == out
        assert semantics.probabilities(semantics.run(f, v)) == {out: 1}


def test_x_is_recognized_by_its_exact_angles():
    assert run(core_of_source("&0 |> u3{2 * pi / 2, 0 * pi, 3 * pi - 2 * pi}"), {}) == (RIGHT, ())


@pytest.mark.parametrize(
    "source, what",
    [
        ("&0 |> @had", "not u3{pi, 0, pi}"),
        ("&0 |> u3{pi + 0 * sin(1), 0, pi}", "not u3{pi, 0, pi}"),  # a float near pi
        ("&0 |> u3{3 * pi, 0, pi}", "not u3{pi, 0, pi}"),  # -X
        ("&0 |> u3{pi, pi, pi}", "not u3{pi, 0, pi}"),  # X up to a phase
        ("&0 |> gphase{pi}", "PrRphase is not classical"),
        ("&0 |> @reflect{Bit, &1}", "PrRphase is not classical"),
        ("&0 |> lambda x -> try @not(x) catch x", "ExTry is not classical"),
        ("(&0, &0) |> @adjoint{Bit, Bit * Bit, @fst{Bit, Bit}}", "no adjoint"),
        # its adjoint's pattern is a match, which erases what it matches
        (
            "&0 |> @adjoint{Bit, Bit, lambda x -> match x [&0 -> &1; &1 -> &0]}",
            "a match erases its scrutinee",
        ),
        # its adjoint's pattern is a ctrl whose second arm does not give x
        (
            "(&0, &0) |> @adjoint{Bit * Bit, Bit * Bit, "
            "lambda (c, x) -> ctrl c [&0 -> (c, x); &1 -> (c, &0)]}",
            "arm does not give x",
        ),
        ("&order_finding{3, 7}", "not u3{pi, 0, pi}"),
        # values of another shape than their pattern or gate reads: nothing
        # types the core before it runs
        ("() |> @not", "u3 on a value that is not a bit"),
        ("(&0, &1) |> @had", "not u3{pi, 0, pi}"),
        ("&0 |> lambda (x, y) -> x", "a pair pattern on a value that is not a pair"),
        ("() |> lambda &0 -> &1", "an injection pattern on a value that is not tagged"),
    ],
)
def test_what_is_not_classical_is_refused(source, what):
    with pytest.raises(ClassicalError, match=what):
        run(core_of_source(source), {})


# A variant of three alternatives: @C's constructor is a lambda over two
# right injections, which a pattern reads through its adjoint.
VARIANT = "type T := &A | &B | @C of Bit end\n"
BITS = [(LEFT, ()), (RIGHT, ())]
TS = [(LEFT, ()), (RIGHT, (LEFT, ()))] + [(RIGHT, (RIGHT, b)) for b in BITS]


@pytest.mark.parametrize(
    "main, inputs",
    [
        ("&A |> lambda t -> match t [@C(x) -> x; else -> &0]", TS),
        (
            "(&A, &0) |> lambda (t, y) -> ctrl t [@C(x) -> (t, @not(y)); &A -> (t, y); &B -> (t, y)]",
            [(t, b) for t in TS for b in BITS],
        ),
        ("&A |> pmatch [@C(x) -> @C(@not(x)); &A -> &B; &B -> &A]", TS),
    ],
    ids=["match", "ctrl", "pmatch"],
)
def test_a_constructor_with_a_payload_matches_as_in_the_semantics(main, inputs):
    f = core_of_source(VARIANT + main).fn
    assert isinstance(f, (PrAbs, PrPmatch))
    for v in inputs:
        out = run(f, v)
        assert out is not None
        assert semantics.probabilities(semantics.run(f, v)) == pytest.approx({out: 1})


def test_a_program_too_deep_for_the_stack_is_a_capacity_error():
    # It compiles on the CLI's deep stack and runs at the default limit.
    c = cli._on_deep_stack(core_of_source, "&num_to_state{400, 5} |> @add_const{400, 3}")
    with pytest.raises(CapacityError, match="nested too deeply"):
        run(c, {})
