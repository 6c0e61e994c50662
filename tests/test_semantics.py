"""The reference semantics on sparse states: the prelude's identities hold,
its algorithms give the distributions they should, its arithmetic gives one
basis value with no garbage, at sizes no dense operator reaches, its patterns,
``match`` and ``ctrl`` take the arms they should, and what it does not define
is refused."""

import cmath
import math
import random
from fractions import Fraction

import arithmetic
import pytest
from arithmetic import N, SAMPLES, num, program, registers, registers_at
from hypothesis import HealthCheck, given, settings, strategies as st

from qunic import cli, core
from qunic.core import (
    PrAbs, PrLeft, PrPmatch, PrRight, PrU3, RBinary, RConst, RExact, RPi, TyUnit, adjoint,
    ctrl_arms, erased, to_str,
)
from qunic.errors import CapacityError, SemanticsError
from qunic.preprocess import core_of_source
from qunic.semantics import LEFT, ONE, RIGHT, ZERO, Semantics, is_x, probabilities, run, value


pytestmark = pytest.mark.usefixtures("default_recursion_limit")


def big_endian(v) -> int:
    """The number a ``Num{n}`` value encodes, its first bit the most significant."""
    k = 0
    while v != ():
        k = 2 * k + (v[0] == ONE)
        v = v[1]
    return k


def close(state: dict, want: dict) -> bool:
    """Whether ``state`` has the amplitudes ``want``, within 1e-9."""
    return all(abs(state.get(k, 0) - want.get(k, 0)) < 1e-9 for k in {*state, *want})


def test_had_twice_is_the_identity():
    f = program("lambda x -> @had(@had(x))", 1)
    for v in (ZERO, ONE):
        assert close(run(f, v), {(v, ()): 1})


@pytest.mark.parametrize(
    "name, n",
    [("@qft{%d}", n) for n in range(1, 6)]
    + [("@add_const{%d, 5}", 4), ("@reverse{%d, Bit}", 4), ("@rotations{%d}", 3)],
)
def test_adjoint_after_the_program_is_the_identity(name, n):
    f = name % n
    g = program(f"lambda x -> {arithmetic.adjoint(f, n)}({f}(x))", n)
    s = Semantics()
    for x in range(2**n):
        assert close(s.run(g, num(n, x)), {(num(n, x), ()): 1})


def matrix(f) -> list[list[complex]]:
    """The matrix of the program ``f`` on ``Bit``: row ``w``, column ``v``
    is the amplitude of ``w`` in the state of ``f`` at ``v``."""
    columns = [run(f, v) for v in (ZERO, ONE)]
    return [[column.get((w, ()), 0) for column in columns] for w in (ZERO, ONE)]


def is_adjoint_matrix(f) -> bool:
    """Whether the matrix of ``adjoint(f)`` is the conjugate transpose of
    ``f``'s, within 1e-12."""
    m, d = matrix(f), matrix(adjoint(f))
    return all(abs(d[i][j] - m[j][i].conjugate()) < 1e-12 for i in range(2) for j in range(2))


# An angle: an exact multiple of pi / 4, or a float as the exact fraction it is
_angles = st.one_of(
    st.integers(-16, 16).map(lambda k: RBinary("*", RConst(k), RBinary("/", RPi(), RConst(4)))),
    st.floats(-10, 10).map(Fraction).map(
        lambda q: RBinary("/", RConst(q.numerator), RConst(q.denominator))
    ),
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_angles, _angles, _angles)
def test_the_adjoint_of_u3_is_its_conjugate_transpose(theta, phi, lam):
    assert is_adjoint_matrix(PrU3(theta, phi, lam))


def test_the_adjoint_of_x_is_exactly_x():
    pi, zero = RExact(0, 1), RExact(0, 0)
    assert is_x(adjoint(PrU3(pi, zero, pi)))


@pytest.mark.parametrize(
    "source, text",
    [
        ("&0 |> @not", "u3{pi, 0, pi}"),
        ("&0 |> @had", "u3{1 / 2 * pi, 0, pi}"),
        ("&0 |> rphase{x, 1 / 3 * pi, 0}", "rphase{x, (-1) / 3 * pi, 0}"),
    ],
)
def test_an_exact_angle_is_negated_as_a_value(source, text):
    f = core_of_source(source).fn
    dagger = adjoint(f)
    assert to_str(dagger) == text
    assert adjoint(dagger) == f
    if type(f) is PrU3:
        assert is_x(dagger) == is_x(f)


@pytest.mark.parametrize("source", ["rphase{&plus, 1 / 3, 2}", "rphase{&1, pi / 4, 0}"])
def test_the_adjoint_of_rphase_conjugates_its_phases(source):
    assert is_adjoint_matrix(core_of_source(f"&0 |> {source}").fn)


def test_the_adjoint_of_an_injection_strips_its_tag():
    for inj, tag, other in ((PrLeft, LEFT, RIGHT), (PrRight, RIGHT, LEFT)):
        f = adjoint(inj(TyUnit(), TyUnit()))
        assert run(f, (tag, ())) == {((), ()): 1} and run(f, (other, ())) == {}


# Its second arm erases y, so it has no adjoint
ERASES_IN_ITS_SECOND_ARM = "pmatch [(&0, x) -> (&0, x); (&1, y) -> (&1, &0)]"


@pytest.mark.parametrize(
    "source", ["(&0, &0) |> @fst{Bit, Bit}", f"(&0, &1) |> {ERASES_IN_ITS_SECOND_ARM}"]
)
def test_a_program_that_erases_a_variable_has_no_adjoint(source):
    assert adjoint(core_of_source(source).fn) is None


@pytest.mark.parametrize(
    "source, inputs",
    [
        ("&num_to_state{3, 0} |> @qft{3}", [num(3, x) for x in range(8)]),
        ("&num_to_state{4, 0} |> @add_const{4, 5}", [num(4, x) for x in range(16)]),
        ("&0 |> @had", [ZERO, ONE]),
        ("&0 |> rphase{&plus, 1 / 3, 2}", [ZERO, ONE]),
    ],
)
def test_the_adjoint_of_the_adjoint_runs_like_the_program(source, inputs):
    f = core_of_source(source).fn
    ff, s = adjoint(adjoint(f)), Semantics()
    for v in inputs:
        assert close(s.run(ff, v), s.run(f, v))


@pytest.mark.parametrize("n", range(1, 7))
def test_qft_is_the_little_endian_dft(n):
    f, dim = program(f"@qft{{{n}}}", n), 2**n
    s = Semantics()
    for x in range(dim):
        want = {
            (num(n, y), ()): cmath.exp(2j * math.pi * x * y / dim) / math.sqrt(dim)
            for y in range(dim)
        }
        assert close(s.run(f, num(n, x)), want)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_phase_estimation_reads_its_phase_big_endian(n):
    for k in (1, 3, 2**n - 1):
        p = probabilities(run(core_of_source(f"&phase_estimation{{{n}, {k} / 2 ^ {n}}}"), {}))
        assert [big_endian(v) for v, q in p.items() if q > 1e-9] == [k]
        assert abs(sum(p.values()) - 1) < 1e-9


@pytest.mark.parametrize("a", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_order_finding_peaks_on_multiples_of_2_to_the_n_over_the_order(n, a):
    r = next(r for r in range(1, 2**n) if pow(a, r, 2**n) == 1)
    p = probabilities(run(core_of_source(f"&order_finding{{{n}, {a}}}"), {}))
    peaks = {big_endian(v): q for v, q in p.items() if q > 1e-9}
    assert sorted(peaks) == [j * 2**n // r for j in range(r)]
    assert all(abs(q - 1 / r) < 1e-9 for q in peaks.values())


def odd_sum(v) -> bool:
    """Whether a ``List{n, Bit}`` value holds an odd number of ``&1``."""
    odd = False
    while v != ZERO:  # &ListEmpty
        bit, v = v[1]
        odd ^= bit == ONE
    return odd


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grover_amplifies_as_the_sine_squared(n):
    theta = math.asin(math.sqrt((2**n - 1) / (2 ** (n + 1) - 1)))
    for k in range(4):
        source = (
            f"&grover{{List{{{n}, Bit}}, &equal_superpos_list{{{n}}}, @is_odd_sum{{{n}}}, {k}}}"
        )
        p = probabilities(run(core_of_source(source), {}))
        odd = sum(q for v, q in p.items() if odd_sum(v))
        assert abs(odd - math.sin((2 * k + 1) * theta) ** 2) < 1e-9


# Prelude arithmetic on Num{w} registers: (program, the widths of its
# registers, what it gives on registers holding ks, mod 2^w as num reads it)
CLOSED_FORMS = [
    (f"@add_const{{{N}, {a}}}", (N,), lambda x, a=a: (x + a,))
    for a in (0, 1, 5, 12345, 2**N - 1, 2**N + 3, -3)
] + [
    (arithmetic.adjoint(f"@add_const{{{N}, {a}}}", N), (N,), lambda x, a=a: (x - a,))
    for a in (0, 1, 12345, 2**N - 1, -3)
] + [
    (f"@mod_mult{{{N}, {a}}}", (N,), lambda x, a=a: (x * a,))
    for a in (1, 3, 7, 12345, 2**N - 1, -5)
] + [
    # Its adjoint's pattern is the ctrl of @mod_mult's body
    (arithmetic.adjoint(f"@mod_mult{{{N}, {a}}}", N), (N,), lambda x, a=a: (x * pow(a, -1, 2**N),))
    for a in (1, 3, 5, 12345, 2**N - 1, -5)
] + [
    (f"@rev_adder{{{N}}}", (N, N), lambda a, b: (a, a + b)),
    (arithmetic.adjoint(f"@rev_adder{{{N}}}", N, N), (N, N), lambda a, b: (a, b - a)),
    (f"@mod_exp{{8, {N}, 7}}", (8, N), lambda x, y: (x, y * pow(7, x, 2**N))),
    (arithmetic.adjoint(f"@mod_exp{{8, {N}, 7}}", 8, N), (8, N), lambda x, y: (x, y * pow(7, -x, 2**N))),
]


@pytest.mark.parametrize("name, widths, want", CLOSED_FORMS, ids=[f[0] for f in CLOSED_FORMS])
def test_on_classical_programs_it_is_one_basis_value_with_no_garbage(name, widths, want):
    f, rng, s = program(name, *widths), random.Random(name), Semantics()
    for _ in range(SAMPLES):
        ks = [rng.randrange(2**w) for w in widths]
        assert s.run(f, registers_at(widths, ks)) == {(registers_at(widths, want(*ks)), ()): 1}


def _adders(n: int):
    """``@inc{n}`` and ``@add_const{n, a}`` for every a in [-2^n, 2^(n+1)),
    each with the constant it adds."""
    yield f"@inc{{{n}}}", 1
    for a in range(-(2**n), 2 ** (n + 1)):
        yield f"@add_const{{{n}, {a}}}", a


# The adders on Num{n}, and their adjoints, which subtract
@pytest.mark.parametrize(
    "n, sign",
    [pytest.param(n, 1, id=f"add-{n}") for n in range(7)]
    + [pytest.param(n, -1, id=f"subtract-{n}") for n in range(5)],
)
def test_inc_and_add_const_and_their_adjoints_on_every_input(n, sign):
    for name, a in _adders(n):
        f = program(name if sign == 1 else arithmetic.adjoint(name, n), n)
        s = Semantics()  # a memo is keyed by its nodes' ids
        for x in range(2**n):
            assert s.run(f, num(n, x)) == {(num(n, x + sign * a), ()): 1}, (name, x)


def test_each_programs_adjoint_is_built_once_for_every_pass(spy):
    # A pattern @add_const{..}(x) runs that program's adjoint: core.adjoint
    # builds it once and keeps it on the program's node, and every run of
    # the semantics, each with memos of its own, shares it.
    built = spy(core, "_adjoint")  # (f,)
    f = program(arithmetic.adjoint(f"@add_const{{{N}, 12345}}", N), N)
    rng = random.Random(2)
    for _ in range(SAMPLES):
        x = rng.randrange(2**N)
        assert value(f, num(N, x)) == num(N, x - 12345)
    assert len(built) == len({id(g) for (g,) in built}) > 0


def test_ctrl_arms_are_worked_out_once_per_node_for_every_pass(spy):
    # The adjoint of @mod_mult reads the ctrl of its body as a pattern:
    # core.ctrl_arms works its arms out once and keeps them on the ctrl's
    # node, and two runs of the semantics, each with memos of its own, share
    # them.
    built = spy(core, "_ctrl_arms")  # (p,)
    f = program(arithmetic.adjoint(f"@mod_mult{{{N}, 5}}", N), N)
    rng, inverse = random.Random(5), pow(5, -1, 2**N)
    for s in (Semantics(), Semantics()):
        for _ in range(SAMPLES):
            x = rng.randrange(2**N)
            assert s.value(f, num(N, x)) == num(N, x * inverse)
    assert len(built) == len({id(p) for (p,) in built}) > 0
    assert all(core.ctrl_arms(p) is p._derived for (p,) in built)


def test_a_main_expression_runs_in_an_empty_environment():
    main = f"&num_to_state{{{N}, 3}} |> @add_const{{{N}, 4}}"
    assert value(core_of_source(main), {}) == num(N, 7)
    main = f"&num_to_state{{3, 1}} |> {arithmetic.adjoint('@mod_mult{3, 5}', 3)}"
    assert value(core_of_source(main), {}) == num(3, 5)  # 5 * 5 = 1 mod 8


# Prelude programs whose bodies hold a ctrl, so their adjoints' patterns do,
# with the widths of their registers
BUILT_ON_CTRL = [
    case for n in range(1, 5)
    for case in (
        (f"@mod_mult{{{n}, 3}}", (n,)),
        (f"@mod_exp{{2, {n}, 3}}", (2, n)),
        (f"@rev_adder{{{n}}}", (n, n)),
    )
]


@pytest.mark.parametrize("name, widths", BUILT_ON_CTRL, ids=[case[0] for case in BUILT_ON_CTRL])
def test_the_adjoint_inverts_a_program_built_on_ctrl(name, widths):
    f = program(f"lambda x -> {arithmetic.adjoint(name, *widths)}({name}(x))", *widths)
    s = Semantics()
    for v in registers(*widths):
        assert s.run(f, v) == {(v, ()): 1}


def test_the_adjoint_inverts_cdkm_maj_on_three_bits():
    ty = "Bit * Bit * Bit"  # not a Num register
    f = core_of_source(
        f"((&0, &0), &0) |> lambda x -> @adjoint{{{ty}, {ty}, @cdkm_maj}}(@cdkm_maj(x))"
    ).fn
    s = Semantics()
    for v in [((a, b), c) for a in (ZERO, ONE) for b in (ZERO, ONE) for c in (ZERO, ONE)]:
        assert s.run(f, v) == {(v, ()): 1}


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


def test_a_ctrl_in_a_pattern_reads_a_superposed_arm():
    # A controlled Hadamard: its adjoint reads (c, @had(x)) as a pattern
    f = program("lambda (c, x) -> ctrl c [&0 -> (c, x); &1 -> (c, @had(x))]", 1, 1)
    dagger, s = adjoint(f), Semantics()
    for v in [(c, x) for c in (ZERO, ONE) for x in (ZERO, ONE)]:
        back: dict = {}
        for (w, _), a in s.run(f, v).items():
            for (u, _), b in s.run(dagger, w).items():
                back[u] = back.get(u, 0) + a * b
        assert close({(u, ()): a for u, a in back.items()}, {(v, ()): 1})


def test_a_ctrl_in_a_pattern_takes_the_arm_its_scrutinee_takes():
    # The adjoint maps (x, second[x]) to x and (x, the other bit) to nothing:
    # y matches every x, so the first program never takes its second arm, and
    # the second program's arm binds a to the scrutinee's value.
    for source, second in [
        ("lambda x -> ctrl x [y -> (x, &0); &0 -> (x, &1)]", {ZERO: ZERO, ONE: ZERO}),
        ("lambda x -> ctrl x [a -> (x, a)]", {ZERO: ZERO, ONE: ONE}),
    ]:
        dagger = adjoint(program(source, 1))
        for x in (ZERO, ONE):
            for y in (ZERO, ONE):
                assert run(dagger, (x, y)) == ({(x, ()): 1} if y == second[x] else {})


def test_a_lambda_erases_what_its_body_does_not_use_and_ctrl_drops_it():
    # @fst erases the second bit, so the first is left mixed
    state = run(core_of_source("(&plus, &plus) |> @fst{Bit, Bit}"), {})
    assert probabilities(state) == pytest.approx({ZERO: 0.5, ONE: 0.5})
    assert {g for _, g in state} == {(ZERO,), (ONE,)}
    # ctrl uncomputes its scrutinee, so its garbage goes and x stays coherent
    source = "&plus |> lambda x -> ctrl (lambda y -> &0)(x) [&0 -> x] |> @had"
    assert close(run(core_of_source(source), {}), {(ZERO, ()): 1})


def test_erased_variables_go_to_the_garbage_in_the_order_of_their_names_as_strings():
    # A definition's binders are v%0 .. v%11; the body keeps v%0, and the
    # garbage follows core.erased: v%1, v%10, v%11, v%2, ..., v%9.
    pattern = "()"
    for i in reversed(range(12)):
        pattern = f"(x{i}, {pattern})"
    f = core_of_source(
        f"def @f : Num{{12}} -> Bit := lambda {pattern} -> x0 end\n&num_to_state{{12, 0}} |> @f"
    ).fn
    order = [1, 10, 11, *range(2, 10)]
    assert erased(f) == tuple(f"v%{i}" for i in order)
    for i in range(1, 12):
        garbage = tuple(ONE if j == i else ZERO for j in order)
        assert run(f, num(12, 1 << i)) == {(ZERO, garbage): 1}


def test_a_ctrl_that_is_no_pattern_is_refused_before_any_arm_runs(spy):
    # Arm 1's body leaves x unbound.  (&0, &0) would match arm 0's body.
    f = program("lambda (c, x) -> ctrl c [&0 -> (c, x); &1 -> (c, &0)]", 1, 1)
    p = adjoint(f).pattern
    assert ctrl_arms(p) == "a ctrl in a pattern whose arm does not give x"
    s = Semantics()
    seen = spy(s, "match")
    for _ in range(2):
        with pytest.raises(SemanticsError, match="arm does not give x"):
            s.match(p, (ZERO, ZERO))
    assert seen == [(p, (ZERO, ZERO))] * 2


def test_a_ctrl_on_a_superposed_variable_entangles():
    # The scrutinee is one basis value in each basis environment of x
    source = "&plus |> lambda x -> ctrl x [&0 -> (x, &0); &1 -> (x, &1)]"
    bell = {((ZERO, ZERO), ()): math.sqrt(0.5), ((ONE, ONE), ()): math.sqrt(0.5)}
    assert close(run(core_of_source(source), {}), bell)


def test_match_puts_its_scrutinee_in_the_garbage():
    state = run(core_of_source("(&plus, &plus) |> @and"), {})
    assert len(state) == 4
    assert probabilities(state) == pytest.approx({ZERO: 0.75, ONE: 0.25})


def test_a_constructor_elaborated_to_a_lambda_matches_through_its_adjoint():
    source = (
        "type T := &A | @B of Bit | &C end\n"
        "&1 |> @B |> lambda y -> match y [@B(x) -> x; &A -> &0; &C -> &0]"
    )
    state = run(core_of_source(source), {})
    assert [(v, p) for (v, _), p in state.items()] == [(ONE, 1)]


def test_rphase_reflects_about_a_superposed_pattern():
    f = program("@reflect{Bit, &plus}", 1)
    assert close(run(f, ZERO), {(ONE, ()): 1})
    assert close(run(f, ONE), {(ZERO, ()): 1})
    g = program("gphase{pi / 2}", 1)
    assert run(g, ZERO) == {(ZERO, ()): 1j}
    # I - 2|psi><psi| for psi = (&0 + i &1) / sqrt 2, a pattern of complex amplitudes
    h = program("rphase{u3{pi / 2, pi / 2, 0}(&0), pi, 0}", 1)
    assert close(run(h, ZERO), {(ONE, ()): -1j})
    assert close(run(h, ONE), {(ZERO, ()): 1j})


@pytest.mark.parametrize(
    "source, what",
    [
        ("&0 |> lambda x -> try @not(x) catch x", "try is not defined"),
        ("&0 |> lambda x -> ctrl x [&plus -> &1; else -> &0]", "an else arm after a pattern"),
        # a ctrl's scrutinee is classical: @had(x) is two basis values
        ("&0 |> lambda x -> ctrl @had(x) [&0 -> x; &1 -> x]", "ExApp has 2 entries, not one"),
        ("(&0, &0) |> @adjoint{Bit, Bit * Bit, @fst{Bit, Bit}}", "no adjoint: a pattern variable"),
        # refused when the adjoint is built, though (&0, &1) takes only the first arm
        (
            f"(&0, &1) |> @adjoint{{Bit * Bit, Bit * Bit, {ERASES_IN_ITS_SECOND_ARM}}}",
            "no adjoint: a pattern variable",
        ),
        (
            "&0 |> @adjoint{Bit, Bit, lambda x -> match x [&0 -> &1; &1 -> &0]}",
            "a match erases its scrutinee",
        ),
        (
            "(&0, &0) |> @adjoint{Bit * Bit, Bit * Bit, "
            "lambda (c, x) -> ctrl c [&0 -> (c, x); &1 -> (c, &0)]}",
            "arm does not give x",
        ),
        # the adjoint, lambda x -> @fst(x), leaves the second bit in the garbage
        ("(&0, &0) |> @adjoint{Bit * Bit, Bit, lambda @fst{Bit, Bit}(x) -> x}", "erases a value"),
        # values of another shape than their pattern or gate reads: nothing
        # types the core before it runs
        ("() |> @not", "u3 on a value that is not a bit"),
        ("(&0, &1) |> @had", "u3 on a value that is not a bit"),
        ("&0 |> lambda (x, y) -> x", "a pair pattern on a value that is not a pair"),
        ("() |> lambda &0 -> &1", "an injection pattern on a value that is not tagged"),
    ],
)
def test_what_it_does_not_define_is_refused(source, what):
    with pytest.raises(SemanticsError, match=what):
        run(core_of_source(source), {})


def test_one_semantics_object_runs_gates_as_fresh_runs_do():
    # Its program memo keeps one state per (gate, input): each u3 and rphase
    # of @qft{3} and of its adjoint, met again, gives the state it gave first.
    s = Semantics()
    programs = [program(f, 3) for f in ("@qft{3}", arithmetic.adjoint("@qft{3}", 3))]
    for _ in range(2):
        for f in programs:
            for v in registers(3):
                assert s.run(f, v) == run(f, v)


def test_one_semantics_object_runs_the_programs_of_compiles_already_freed():
    # Each @add_const{1, a} is its own compile, freed after its run, so the
    # next compile may reuse its nodes' ids: a memo keyed by ids alone read
    # @add_const{1, 3} as the identity from an even constant's entries.
    s = Semantics()
    for a in range(-2, 8):
        got = s.value(program(f"@add_const{{1, {a}}}", 1), num(1, 1))
        assert got == num(1, 1 + a), a


@pytest.mark.parametrize(
    "read, main",
    [
        (run, "(&num_to_state{100, 1}, &num_to_state{100, 2}) |> @rev_adder{100}"),
        (value, "&num_to_state{400, 5} |> @add_const{400, 3}"),
    ],
    ids=["run", "value"],
)
def test_a_program_too_deep_for_the_stack_is_a_capacity_error(read, main):
    # It compiles on the CLI's deep stack and is read at the default limit.
    c = cli._on_deep_stack(core_of_source, main)
    with pytest.raises(CapacityError, match="nested too deeply"):
        read(c, {})
