"""Elaboration into the core: gate angles, the limits on unrolling, the shared
prelude, and prelude definitions checked against reference copies."""

import dataclasses

import pytest

from qunic import core, parser, preprocess
from qunic.errors import CapacityError, PreprocessError, RealError
from qunic.preprocess import core_of_source, load_prelude_defs
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


def alpha_normal(root):
    """``root`` with its variables renamed ``v0``, ``v1``, ... by first appearance.

    Names are numbered afresh inside every program, which is closed, so two
    cores with equal normal forms are alpha-equivalent.
    """
    programs = {}  # id of a program node -> its normal form, shared as in the DAG

    def walk(x, names):
        if isinstance(x, core.ExVar):
            return core.ExVar(names.setdefault(x.name, f"v{len(names)}"))
        if isinstance(x, (core.PrAbs, core.PrPmatch, core.PrRphase)):
            if id(x) not in programs:
                programs[id(x)] = rebuild(x, {})
            return programs[id(x)]
        if isinstance(x, tuple):
            return tuple(walk(y, names) for y in x)
        if dataclasses.is_dataclass(x):
            return rebuild(x, names)
        return x

    def rebuild(x, names):
        return type(x)(*(walk(getattr(x, f.name), names) for f in dataclasses.fields(x)))

    return walk(root, {})


class TestSharedPrelude:
    def test_prelude_is_tokenized_once_per_process(self, monkeypatch):
        prelude = preprocess.default_prelude_text()
        tokenize, sources = parser.tokenize, []

        def counting(source):
            sources.append(source)
            return tokenize(source)

        monkeypatch.setattr(parser, "tokenize", counting)
        load_prelude_defs.cache_clear()
        core_of_source("@had(&0)")
        core_of_source("@had(&0)")
        assert sources.count(prelude) == 1
        assert len(sources) == 3

    def test_redefining_a_prelude_name_fails_on_every_call(self):
        src = "def @had : Bit -> Bit := @had end\n@had(&0)"
        for _ in range(2):
            with pytest.raises(PreprocessError, match="duplicate definition @had"):
                core_of_source(src)

    def test_no_elaborator_state_leaks_between_compiles(self):
        src = "@qft{3}((&1, (&0, (&1, ()))))"
        first, second = core_of_source(src), core_of_source(src)
        assert "%" in core.core_expr_to_str(first)  # fresh names are printed
        assert core.core_expr_to_str(first) == core.core_expr_to_str(second)

    def test_shared_definitions_are_deeply_immutable(self):
        hash(load_prelude_defs())

    def test_no_prelude_means_the_prelude_is_never_read(self, monkeypatch):
        def unread():
            raise AssertionError("the prelude was read")

        monkeypatch.setattr(preprocess, "default_prelude_text", unread)
        load_prelude_defs.cache_clear()
        src = "def &z : Unit := () end\n&z"
        assert core_of_source(src, use_prelude=False) == core.ExUnit()


# @mod_exp as it was before the squared constant was reduced mod 2^#n.
MOD_EXP_UNREDUCED = """
def @mod_exp_unreduced{#m, #n, #a} : Num{#m} * Num{#n} -> Num{#m} * Num{#n} :=
  if #m = 0 then @id{Num{#m} * Num{#n}}
  else lambda ((x0, x1), y) ->
    let ((x0, x1), y) =
      ctrl x0 [
        &0 -> ((x0, x1), y);
        &1 -> ((x0, x1), @mod_mult{#n, #a}(y))
      ] in
    let (x0, (x1, y)) = (x0, @mod_exp_unreduced{#m - 1, #n, #a * #a}(x1, y)) in
    ((x0, x1), y)
  endif
end
"""


class TestModExp:
    @staticmethod
    def mod_exp(name, n, a):
        state = f"(&repeated{{{n}, Bit, &plus}}, &num_to_state{{{n}, 1}})"
        main = f"{state} |> @{name}{{{n}, {n}, {a}}}"
        return alpha_normal(core_of_source(MOD_EXP_UNREDUCED + main))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reduced_constant_elaborates_alpha_equal(self, n):
        for a in (1, 3, 7, 11):
            assert self.mod_exp("mod_exp", n, a) == self.mod_exp("mod_exp_unreduced", n, a)

    def test_constants_distinct_mod_2_to_the_n_differ(self):
        assert self.mod_exp("mod_exp", 3, 3) != self.mod_exp("mod_exp", 3, 5)
