"""The reference semantics on sparse states: the prelude's identities hold,
its algorithms give the distributions they should, its arithmetic gives one
basis value with no garbage, and what it does not define is refused."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from arithmetic import N, SAMPLES, num, program
from hypothesis import HealthCheck, given, settings, strategies as st

from qunic.core import (
    PrLeft, PrRight, PrU3, RBinary, RConst, RExact, RPi, TyUnit, adjoint, ctrl_arms, erased,
    to_str,
)
from qunic.errors import CapacityError, SemanticsError
from qunic.preprocess import core_of_source
from qunic.semantics import LEFT, ONE, RIGHT, ZERO, Semantics, is_x, probabilities, run


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
    g = program(f"lambda x -> @adjoint{{Num{{{n}}}, Num{{{n}}}, {f}}}({f}(x))", n)
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


def registers_at(widths, ks):
    """The basis value of ``Num{w}`` holding ``k``, for each pair of
    ``widths`` and ``ks``: one register, or a pair."""
    values = [num(w, k) for w, k in zip(widths, ks)]
    return values[0] if len(values) == 1 else tuple(values)


@pytest.mark.parametrize(
    "name, widths, want",
    [
        (f"@add_const{{{N}, 12345}}", (N,), lambda x: ((x + 12345) % 2**N,)),
        (
            f"@adjoint{{Num{{{N}}}, Num{{{N}}}, @add_const{{{N}, 12345}}}}",
            (N,),
            lambda x: ((x - 12345) % 2**N,),
        ),
        (f"@mod_mult{{{N}, 12345}}", (N,), lambda x: (x * 12345 % 2**N,)),
        (f"@rev_adder{{{N}}}", (N, N), lambda a, b: (a, (a + b) % 2**N)),
        (f"@mod_exp{{8, {N}, 7}}", (8, N), lambda x, y: (x, y * pow(7, x, 2**N) % 2**N)),
    ],
)
def test_on_classical_programs_it_is_one_basis_value_with_no_garbage(name, widths, want):
    f, rng, s = program(name, *widths), random.Random(3), Semantics()
    for _ in range(SAMPLES):
        ks = [rng.randrange(2**w) for w in widths]
        assert s.run(f, registers_at(widths, ks)) == {(registers_at(widths, want(*ks)), ()): 1}


def registers(*widths: int) -> list:
    """Every basis value of ``Num{w}``, or of ``Num{w1} * Num{w2}``."""
    values = [num(widths[0], x) for x in range(2 ** widths[0])]
    if len(widths) == 1:
        return values
    return [(v, num(widths[1], y)) for v in values for y in range(2 ** widths[1])]


# Prelude programs whose bodies hold a ctrl, so their adjoints' patterns do:
# (program, its type A, a value of A, every basis value of A)
BUILT_ON_CTRL = [
    case
    for n in range(1, 5)
    for case in (
        (f"@mod_mult{{{n}, 3}}", f"Num{{{n}}}", f"&num_to_state{{{n}, 0}}", registers(n)),
        (
            f"@mod_exp{{2, {n}, 3}}",
            f"Num{{2}} * Num{{{n}}}",
            f"(&num_to_state{{2, 0}}, &num_to_state{{{n}, 0}})",
            registers(2, n),
        ),
        (
            f"@rev_adder{{{n}}}",
            f"Num{{{n}}} * Num{{{n}}}",
            f"(&num_to_state{{{n}, 0}}, &num_to_state{{{n}, 0}})",
            registers(n, n),
        ),
    )
] + [
    (
        "@cdkm_maj",
        "Bit * Bit * Bit",
        "((&0, &0), &0)",
        [((a, b), c) for a in (ZERO, ONE) for b in (ZERO, ONE) for c in (ZERO, ONE)],
    )
]


@pytest.mark.parametrize(
    "name, ty, arg, values", BUILT_ON_CTRL, ids=[case[0] for case in BUILT_ON_CTRL]
)
def test_the_adjoint_inverts_a_program_built_on_ctrl(name, ty, arg, values):
    f = core_of_source(f"{arg} |> lambda x -> @adjoint{{{ty}, {ty}, {name}}}({name}(x))").fn
    s = Semantics()
    for v in values:
        assert s.run(f, v) == {(v, ()): 1}


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
    # y matches every x, so the forward program never takes the second arm,
    # and its adjoint maps (x, &1) to nothing
    f = program("lambda x -> ctrl x [y -> (x, &0); &0 -> (x, &1)]", 1)
    dagger = adjoint(f)
    for x in (ZERO, ONE):
        assert run(dagger, (x, ZERO)) == {(x, ()): 1}
        assert run(dagger, (x, ONE)) == {}


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


def test_a_ctrl_that_is_no_pattern_is_refused_before_any_arm_runs(monkeypatch):
    # Arm 1's body leaves x unbound.  (&0, &0) would match arm 0's body.
    f = program("lambda (c, x) -> ctrl c [&0 -> (c, x); &1 -> (c, &0)]", 1, 1)
    p = adjoint(f).pattern
    assert ctrl_arms(p) == "a ctrl in a pattern whose arm does not give x"
    s = Semantics()
    seen, match = [], s.match
    monkeypatch.setattr(s, "match", lambda q, v: seen.append(q) or match(q, v))
    for _ in range(2):
        with pytest.raises(SemanticsError, match="arm does not give x"):
            s.match(p, (ZERO, ZERO))
    assert seen == [p, p]


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
    programs = [program(f, 3) for f in ("@qft{3}", "@adjoint{Num{3}, Num{3}, @qft{3}}")]
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


def test_a_program_too_deep_for_the_stack_is_a_capacity_error():
    core = core_of_source("(&num_to_state{100, 1}, &num_to_state{100, 2}) |> @rev_adder{100}")
    with pytest.raises(CapacityError, match="nested too deeply"):
        run(core, {})
