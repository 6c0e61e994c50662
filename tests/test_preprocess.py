"""Elaboration into the core: gate angles, and the limits on unrolling."""

import dataclasses

import pytest

from qunic import core, preprocess
from qunic.errors import CapacityError, RealError
from qunic.preprocess import core_of_source
from qunic.reals import RBinary, RConst, RPi


def gate_angles(root) -> set:
    """The distinct ``u3`` and ``rphase`` angles of a core term."""
    seen, stack, angles = set(), [root], set()
    while stack:
        x = stack.pop()
        if id(x) in seen or not dataclasses.is_dataclass(x):
            continue
        seen.add(id(x))
        if isinstance(x, core.PrU3):
            angles |= {x.theta, x.phi, x.lam}
        elif isinstance(x, core.PrRphase):
            angles |= {x.on_phase, x.off_phase}
        for f in dataclasses.fields(x):
            v = getattr(x, f.name)
            stack.extend(v if isinstance(v, tuple) else [v])
    return angles


def u3_theta(theta: str):
    """The elaborated ``theta`` of ``u3{theta, 0, 0}``, for a nonzero theta."""
    angles = gate_angles(core_of_source(f"&0 |> u3{{{theta}, 0, 0}}"))
    (theta,) = angles - {RConst(0)}
    return theta


class TestGateAngles:
    def test_qft_angles_are_canonical_pi_multiples(self):
        angles = gate_angles(core_of_source("@qft{3}((&1, (&0, (&1, ()))))"))
        pi_times = lambda p, q: RBinary("*", RBinary("/", RConst(p), RConst(q)), RPi())
        assert angles == {RConst(0), RPi(), pi_times(1, 2), pi_times(1, 4)}

    def test_ceil_of_a_float_elaborates_to_a_constant(self):
        assert u3_theta("ceil(sqrt(2))") == RConst(2)

    @pytest.mark.parametrize("theta", ["1 / (2 - 2)", "ln(0 - 1)", "sqrt(0 - 1)"])
    def test_undefined_angle_is_rejected(self, theta):
        with pytest.raises(RealError):
            core_of_source(f"&0 |> u3{{{theta}, 0, 0}}")


class TestUnrollingLimits:
    def test_missing_base_case_is_a_capacity_error(self):
        src = "def @loop{#n} : Unit -> Unit := @loop{#n + 1} end\n@loop{0}(())"
        with pytest.raises(CapacityError, match="@loop.*missing its base case"):
            core_of_source(src, use_prelude=False)

    def test_unroll_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(preprocess, "UNROLL_BUDGET", 5)
        with pytest.raises(CapacityError, match="exceeded 5 instantiations"):
            core_of_source("@qft{4}((&1, (&0, (&1, (&0, ())))))")


class TestPatternBinding:
    def test_if_in_a_pattern_binds_only_the_chosen_branch(self):
        # The unchosen branch's `y` must not be renamed: the body's `y` is the
        # lambda's own.
        src = (
            "def @f : Bit * Bit -> Bit * Bit := lambda (a, y) -> "
            "ctrl a [ if 1 < 2 then x else y endif -> (x, y) ] end\n"
            "@f(&0, &1)"
        )
        lam = core_of_source(src).fn
        assert core.free_qvars(lam.body) <= core.free_qvars(lam.pattern)
