"""The reference semantics on sparse states: the prelude's identities hold,
its algorithms give the distributions they should, and it agrees with the
classical evaluator where both apply."""

import cmath
import math
import random
import sys

import pytest

from qunic import classical
from qunic.errors import SemanticsError
from qunic.preprocess import core_of_source
from qunic.semantics import ONE, ZERO, Semantics, probabilities, run
from test_classical import N, SAMPLES, num, program


@pytest.fixture(autouse=True)
def default_recursion_limit():
    """Every test here runs at the interpreter's default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


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


@pytest.mark.parametrize("n, r", [(4, 2), (5, 4), (6, 8)])
def test_order_finding_peaks_on_multiples_of_2_to_the_n_over_the_order(n, r):
    assert pow(7, r, 2**n) == 1 and pow(7, r // 2, 2**n) != 1
    p = probabilities(run(core_of_source(f"&order_finding{{{n}, 7}}"), {}))
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


@pytest.mark.parametrize(
    "name, widths, draw",
    [
        (f"@add_const{{{N}, 12345}}", (N,), lambda rng: num(N, rng.randrange(2**N))),
        (f"@mod_mult{{{N}, 12345}}", (N,), lambda rng: num(N, rng.randrange(2**N))),
        (
            f"@rev_adder{{{N}}}",
            (N, N),
            lambda rng: (num(N, rng.randrange(2**N)), num(N, rng.randrange(2**N))),
        ),
        (
            f"@mod_exp{{8, {N}, 7}}",
            (8, N),
            lambda rng: (num(8, rng.randrange(2**8)), num(N, rng.randrange(2**N))),
        ),
    ],
)
def test_on_classical_programs_it_is_the_classical_evaluator(name, widths, draw):
    f, rng, s = program(name, *widths), random.Random(3), Semantics()
    for _ in range(SAMPLES):
        v = draw(rng)
        assert s.run(f, v) == {(classical.run(f, v), ()): 1}


def test_a_lambda_erases_what_its_body_does_not_use_and_ctrl_drops_it():
    # @fst erases the second bit, so the first is left mixed
    state = run(core_of_source("(&plus, &plus) |> @fst{Bit, Bit}"), {})
    assert probabilities(state) == pytest.approx({ZERO: 0.5, ONE: 0.5})
    assert {g for _, g in state} == {(ZERO,), (ONE,)}
    # ctrl uncomputes its scrutinee, so its garbage goes and x stays coherent
    source = "&plus |> lambda x -> ctrl (lambda y -> &0)(x) [&0 -> x] |> @had"
    assert close(run(core_of_source(source), {}), {(ZERO, ()): 1})


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
        ("(&0, &0) |> @adjoint{Bit, Bit * Bit, @fst{Bit, Bit}}", "no adjoint: a pattern variable"),
        (
            "((&0, &0), &0) |> @adjoint{Bit * Bit * Bit, Bit * Bit * Bit, @cdkm_maj}",
            "ExCtrl is not a pattern",
        ),
    ],
)
def test_what_it_does_not_define_is_refused(source, what):
    with pytest.raises(SemanticsError, match=what):
        run(core_of_source(source), {})
