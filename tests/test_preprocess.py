"""Elaboration into the core: gate angles, the limits on unrolling, error
texts, pattern binding and scope, the shared prelude, and prelude definitions
checked against reference copies."""

import dataclasses
import gc
import hashlib
import importlib
import itertools
import os
import subprocess
import sys
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest
from arithmetic import num
from hypothesis import given, settings, strategies as st

from qunic import core, lexer, parser, preprocess, printer, reals, semantics
from qunic.core import RBinary, RConst, REuler, RExact, RPi, RUnary
from qunic.errors import CapacityError, PreprocessError, QunityError, RealError
from qunic.preprocess import core_of_source, load_prelude_defs
from qunic.reals import as_pi_multiple, as_rational


def gate_angles(root) -> set:
    """The distinct ``u3`` and ``rphase`` angles of a core term."""
    seen, stack, angles = set(), [root], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, core.PrU3):
            angles |= {x.theta, x.phi, x.lam}
        elif isinstance(x, core.PrRphase):
            angles |= {x.on_phase, x.off_phase}
        stack += core.children(x)
    return angles


def u3_theta(theta: str):
    """The elaborated ``theta`` of ``u3{theta, 0, 0}``, for a nonzero theta."""
    angles = gate_angles(core_of_source(f"&0 |> u3{{{theta}, 0, 0}}"))
    (theta,) = angles - {RExact(0, 0)}
    return theta


class TestGateAngles:
    def test_qft_angles_are_canonical_pi_multiples(self):
        angles = gate_angles(core_of_source("@qft{3}((&1, (&0, (&1, ()))))"))
        pi_times = lambda p, q: RExact(0, Fraction(p, q))
        assert angles == {RExact(0, 0), RExact(0, 1), pi_times(1, 2), pi_times(1, 4)}

    def test_ceil_of_a_float_elaborates_to_a_constant(self):
        assert u3_theta("ceil(sqrt(2))") == RExact(2, 0)

    def test_an_angle_chosen_by_a_condition(self):
        assert u3_theta("if 1 < 2 && !(2 < 1) || 0 > 1 then pi else 0 endif") == RExact(0, 1)

    def test_an_exact_angle_is_one_leaf_however_it_is_written(self):
        c = core_of_source("(&0 |> u3{1 + pi, 0, 0}, &0 |> u3{pi + 1, 0, 0})")
        assert c.left.fn.theta is c.right.fn.theta
        assert c.left.fn.theta == RExact(1, 1)

    @pytest.mark.parametrize(
        "theta",
        ["1 / (2 - 2)", "ln(0 - 1)", "sqrt(0 - 1)", "if 2 > 1 && 1 / 0 > 0 then pi else 0 endif"],
    )
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

    @pytest.mark.parametrize(
        "main",
        ["(&0, &1) |> lambda (_, _) -> ()", "(&0, &1) |> rphase{(_, _), 0, pi}"],
        ids=["lambda", "rphase"],
    )
    def test_each_underscore_is_a_variable_of_its_own(self, main):
        pattern = core_of_source(main).fn.pattern
        assert pattern.left.name != pattern.right.name

    def test_a_definition_cannot_capture_a_variable_of_its_caller(self):
        src = "def @f : Bit -> Bit := lambda x -> y end\n&0 |> lambda y -> @f(y)"
        with pytest.raises(PreprocessError, match="^unbound variable y$"):
            core_of_source(src)

    def test_a_free_variable_in_the_main_expression_is_unbound(self):
        with pytest.raises(PreprocessError, match="^unbound variable y$"):
            core_of_source("y")

    @pytest.mark.parametrize(
        "main, name",
        [
            ("&0 |> lambda x -> (lambda y -> x)(x)", "x"),
            ("&0 |> lambda x -> (pmatch [y -> x])(x)", "x"),
            ("&0 |> lambda (lambda y -> z)(x) -> x", "z"),
            ("&0 |> rphase{(lambda y -> z)(x), 0, pi}", "z"),
            ("&0 |> lambda x -> let y = &1 in (x, y)", "x"),
            ("&0 |> lambda (let y = x in (y, z)) -> x", "z"),
        ],
        ids=[
            "lambda-body",
            "pmatch-body",
            "lambda-in-pattern",
            "lambda-in-rphase",
            "let-body",
            "let-in-pattern",
        ],
    )
    def test_a_program_sees_no_variable_around_it(self, main, name):
        # Programs are closed: a lambda, a pmatch or the body of a let sees no
        # variable of the code around it, also when it sits in a pattern that
        # is binding.
        with pytest.raises(PreprocessError, match=f"^unbound variable {name}$"):
            core_of_source(main)

    def test_a_let_in_a_pattern_binds_through_its_value(self):
        # The value of a let in a pattern is part of the binding pattern; its
        # own pattern and body see only the let's variables.
        c = core_of_source("(&0, &1) |> lambda (a, let y = b in y) -> (a, b)")
        assert core.to_str(c.fn) == "(lambda (a, (lambda y -> y)(b)) -> (a, b))"

    # Patterns whose fresh names are numbered differently from an elaborator
    # that collected a pattern's variables before elaborating it; the cores
    # must stay alpha-equivalent to what that elaborator produced.
    @pytest.mark.parametrize(
        "src, expected",
        [
            pytest.param(
                "def @f : Bit * Bit -> Bit := "
                "lambda (ctrl s [&0 -> (s, y); &1 -> (s, y)]) -> y end\n(&0, &0) |> @f",
                "(lambda ctrl v0 [left{Unit, Unit}(()) -> (v0, v1); "
                "right{Unit, Unit}(()) -> (v0, v1)] -> v1)"
                "((left{Unit, Unit}(()), left{Unit, Unit}(())))",
                id="nested-ctrl",
            ),
            pytest.param(
                "def @f : Bit * Bit -> Bit * Bit := "
                "lambda (let (a, b) = (x, y) in (b, a)) -> (x, y) end\n(&0, &0) |> @f",
                "(lambda (lambda (v0, v1) -> (v1, v0))((v0, v1)) -> (v0, v1))"
                "((left{Unit, Unit}(()), left{Unit, Unit}(())))",
                id="let",
            ),
            pytest.param(
                "type T := &A | &B | @C of Bit * Bit end\n"
                "def @f : T -> Bit * Bit := lambda @C(x, y) -> (x, y) end\n&A |> @f",
                "(lambda (lambda v0 -> right{Unit, (Unit + ((Unit + Unit) * (Unit + Unit)))}"
                "(right{Unit, ((Unit + Unit) * (Unit + Unit))}(v0)))((v0, v1)) -> (v0, v1))"
                "(left{Unit, (Unit + ((Unit + Unit) * (Unit + Unit)))}(()))",
                id="multi-injection-constructor",
            ),
            pytest.param(
                "def &p{&v : Bit} : Bit * Bit := (&v, &0) end\n"
                "def @f : Bit * Bit -> Bit := lambda &p{x} -> x end\n(&0, &0) |> @f",
                "(lambda (v0, left{Unit, Unit}(())) -> v0)"
                "((left{Unit, Unit}(()), left{Unit, Unit}(())))",
                id="expression-argument",
            ),
            pytest.param(
                "def @g{&e : Bit} : Bit * Bit -> Bit := lambda (&e, y) -> y end\n"
                "(&0, &1) |> @g{&plus}",
                "(lambda (u3{1 / 2 * pi, 0, pi}(left{Unit, Unit}(())), v0) -> v0)"
                "((left{Unit, Unit}(()), right{Unit, Unit}(())))",
                id="generic-expression",
            ),
            pytest.param(
                "def @f : Bit * Bit -> Bit * Bit := lambda (a, y) -> "
                "ctrl a [ if 1 < 2 then x else y endif -> (x, y) ] end\n@f(&0, &1)",
                "(lambda (v0, v1) -> ctrl v0 [v2 -> (v2, v1)])"
                "((left{Unit, Unit}(()), right{Unit, Unit}(())))",
                id="if",
            ),
        ],
    )
    def test_pattern_elaborates_alpha_equal_to_collecting_first(self, src, expected):
        assert core.to_str(alpha_normal(core_of_source(src))) == expected


def _pattern_shapes():
    """Pattern trees: "v" a variable, "_" a throwaway, pairs, and ``@had``."""
    leaf = st.sampled_from(["v", "_"])
    return st.recursive(
        leaf,
        lambda inner: st.one_of(st.tuples(inner, inner), st.tuples(st.just("had"), inner)),
        max_leaves=8,
    )


def _render(shape, names) -> str:
    """Source of a pattern tree, giving each "v" the next of ``names``."""
    if shape == "v":
        return next(names)
    if shape == "_":
        return "_"
    if shape[0] == "had":
        return f"@had({_render(shape[1], names)})"
    return f"({_render(shape[0], names)}, {_render(shape[1], names)})"


def _leaves(shape) -> int:
    if isinstance(shape, str):
        return 1
    return _leaves(shape[1]) if shape[0] == "had" else _leaves(shape[0]) + _leaves(shape[1])


def _var_occurrences(e) -> list[str]:
    if isinstance(e, core.ExVar):
        return [e.name]
    if isinstance(e, core.ExPair):
        return _var_occurrences(e.left) + _var_occurrences(e.right)
    if isinstance(e, core.ExApp):
        return _var_occurrences(e.arg)
    return []


@settings(max_examples=200, deadline=None)
@given(_pattern_shapes())
def test_each_name_and_underscore_of_a_pattern_binds_one_variable(shape):
    p = _render(shape, (f"x{i}" for i in itertools.count()))
    lam = core_of_source(f"def @f : Unit -> Unit := lambda {p} -> {p} end\n@f(())").fn
    names = _var_occurrences(lam.pattern)
    assert len(names) == len(set(names)) == _leaves(shape)
    assert core.free_qvars(lam.body) <= set(names)


# Every error the elaborator raises on a file that parses, with its text.
ERRORS = [
    ("dup-type", "type Bit := &0 | &1 end\n&0", "duplicate type definition Bit"),
    ("dup-expr", "def &plus : Bit := &0 end\n&plus", "duplicate definition &plus"),
    ("dup-prog", "def @had : Bit -> Bit := @not end\n&0", "duplicate definition @had"),
    ("dup-real", "def #a := 1 end\ndef #a := 2 end\n()", "duplicate definition #a"),
    ("dup-expr-ctor", "def &Nothing : Bit := &0 end\n&0", "duplicate definition &Nothing"),
    ("dup-prog-ctor", "def @Just : Bit -> Bit := @not end\n&0", "duplicate definition @Just"),
    ("clash-expr", "type T := &plus | &q end\n()", "constructor &plus clashes with an existing name"),
    ("clash-ctor", "type T := &0 | &q end\n()", "constructor &0 clashes with an existing name"),
    ("clash-prog", "type T := @had of Bit end\n()", "constructor @had clashes with an existing name"),
    # A constructor clashes with a definition of either sort, in either order.
    (
        "clash-after-prog",
        "def @A : Bit -> Bit := @not end\ntype T := &A | &B end\n()",
        "constructor &A clashes with an existing name",
    ),
    (
        "clash-prog-as-expr",
        "type T := &had | &q end\n()",
        "constructor &had clashes with an existing name",
    ),
    (
        "clash-expr-as-prog",
        "type T := @plus of Bit end\n()",
        "constructor @plus clashes with an existing name",
    ),
    (
        "dup-prog-after-ctor",
        "type T := &A | &B end\ndef @A : Bit -> Bit := @not end\n()",
        "duplicate definition @A",
    ),
    ("class-type", "&0 |> @id{&0}", "@id: argument for 'a must be a type"),
    ("class-expr", "&repeated{2, Bit, @had}", "&repeated: argument for &x must be an expression"),
    ("class-prog", "&0 |> @adjoint{Bit, Bit, &0}", "@adjoint: argument for @f must be a program"),
    ("class-real", "&0 |> @qft{Bit}", "@qft: argument for #n must be a real"),
    ("arity", "&0 |> @qft{1, 2}", "@qft expects 1 generic argument(s), got 2"),
    ("arity-type", "&0 |> @id{Maybe}", "type Maybe expects 1 generic argument(s), got 0"),
    ("arity-ctor", "&Nothing", "constructor Nothing expects 1 generic argument(s), got 0"),
    (
        "no-args-prog",
        "def @f{@g : Bit -> Bit} : Bit -> Bit := @g{1} end\n&0 |> @f{@had}",
        "parameter @g takes no arguments",
    ),
    (
        "no-args-expr",
        "def &f{&g : Bit} : Bit := &g{1} end\n&f{&0}",
        "parameter &g takes no arguments",
    ),
    (
        "no-args-real",
        "def @f{#g} : Bit -> Bit := u3{#g{1}, 0, 0} end\n&0 |> @f{1}",
        "parameter #g takes no arguments",
    ),
    ("unknown-type", "&0 |> @id{Foo}", "unknown type Foo"),
    ("unknown-expr", "&nope", "unknown expression definition &nope"),
    ("unknown-prog", "&0 |> @nope", "unknown program definition @nope"),
    ("unknown-real", "&0 |> u3{#nope, 0, 0}", "unknown real definition #nope"),
    ("unbound-type-var", "&0 |> @id{'a}", "unbound type variable 'a"),
    (
        "self-instantiation",
        "def @loop : Bit -> Bit := @loop end\n&0 |> @loop",
        "@loop recursively instantiates itself at the same arguments",
    ),
    (
        "self-instantiation-type",
        "type T := @C of T end\n&0 |> @C",
        "type T recursively instantiates itself at the same arguments",
    ),
    ("nullary-as-program", "&0 |> @0", "&0 is a nullary constructor, not a program"),
    ("unapplied-payload", "&Just{Bit}", "@Just carries a payload and must be applied"),
    (
        # Inside the lambda of @f, binders are numbered from 0 again, so the
        # lambda's x would capture the x of @g that &v holds.
        "open-argument-in-a-program",
        "def @f{&v : Bit} : Bit -> Bit * Bit := lambda x -> (x, &v) end\n"
        "def @g : Bit -> Bit * Bit := lambda x -> @f{x}(x) end\n&0 |> @g",
        "&v is used inside a program but has the free variable(s) v%0 of its caller",
    ),
    (
        # So does the pattern of an rphase, whose x would make (v%0, v%0).
        "open-argument-in-an-rphase",
        "def @f{&v : Bit} : Bit * Bit -> Bit * Bit := rphase{(&v, x), 0, pi} end\n"
        "def @g : Bit -> Bit * Bit := lambda x -> (x, &0) |> @f{x} end\n&0 |> @g",
        "&v is used inside a program but has the free variable(s) v%0 of its caller",
    ),
]

DUPLICATE_PARAMETERS = [
    ("alias", "type T{'a, 'a} := 'a end\n()", "duplicate parameter 'a in type T"),
    ("variant", "type V{'a, 'a} := &Q | @R of 'a end\n()", "duplicate parameter 'a in type V"),
    ("expr", "def &e{&x : Bit, &x : Bit} : Bit := &x end\n()", "duplicate parameter &x in &e"),
    (
        "prog",
        "def @f{#n, #n} : Bit -> Bit := u3{#n, 0, 0} end\n&0 |> @f{1, 2}",
        "duplicate parameter #n in @f",
    ),
    ("real", "def #r{#n, #n} := #n end\n()", "duplicate parameter #n in #r"),
]


class TestErrors:
    @pytest.mark.parametrize("src, message", [pytest.param(*e[1:], id=e[0]) for e in ERRORS])
    def test_error_text(self, src, message):
        with pytest.raises(PreprocessError) as info:
            core_of_source(src)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "src, message", [pytest.param(*e[1:], id=e[0]) for e in DUPLICATE_PARAMETERS]
    )
    def test_repeated_parameter_is_rejected(self, src, message):
        with pytest.raises(PreprocessError) as info:
            core_of_source(src)
        assert str(info.value) == message

    # Declared signatures are never elaborated: an instantiation elaborates a
    # definition's body and its arguments, not the types of the definition or
    # of its parameters, so an unknown type there goes unnoticed.
    @pytest.mark.xfail(strict=True, reason="declared signatures are not elaborated")
    @pytest.mark.parametrize(
        "src",
        [
            "def @f : Bogus{3} -> Nope := @not end\n&0 |> @f",
            "def &e : Nope := &0 end\n&e",
            "def @g{&x : Nope, @h : Bogus -> Bit} : Bit -> Bit := @not end\n&0 |> @g{&0, @had}",
        ],
        ids=["program", "expression", "parameters"],
    )
    def test_an_unknown_type_in_a_signature_is_rejected(self, src):
        with pytest.raises(PreprocessError):
            core_of_source(src)


class TestDepth:
    """Each frame per instantiation level lowers the largest circuit that
    elaborates within the default recursion limit.  n = 96 keeps a margin of
    25 levels: the largest n is 140 for @qft and 121 for @rev_adder (CPython
    3.11.7)."""

    @pytest.mark.parametrize(
        "main",
        [
            "&num_to_state{96, 1} |> @qft{96}",
            "(&num_to_state{96, 1}, &num_to_state{96, 1}) |> @rev_adder{96}",
        ],
    )
    def test_wide_circuit_compiles_and_prints_at_the_default_limit(self, recursion_limit, main):
        with recursion_limit(1000):
            assert core.to_str(core_of_source(main))

    # Floors: when they were set, each n was the largest that compiled and
    # printed at recursion limit 1000 in a plain script on CPython 3.10.13,
    # the lowest of 3.10 to 3.13.  A change that adds a frame per level
    # fails here.
    @pytest.mark.parametrize(
        "main",
        [
            "&num_to_state{139, 1} |> @qft{139}",
            "(&num_to_state{121, 1}, &num_to_state{121, 1}) |> @rev_adder{121}",
            "&phase_estimation{138, 1/3}",
        ],
        ids=["qft", "rev_adder", "phase_estimation"],
    )
    def test_the_depth_floor_of_each_family(self, recursion_limit, stack_depth, main):
        with recursion_limit(1000 + stack_depth()):  # not counting pytest's own frames
            assert core.to_str(core_of_source(main))

    @pytest.mark.parametrize(
        "ops, hits",
        [(reals.KERNEL_NODES // 2, 1), (reals.KERNEL_NODES // 2 + 1, 0)],
        ids=["at-the-cap", "over-the-cap"],
    )
    def test_an_integer_expression_at_and_over_the_kernel_cap(self, recursion_limit, ops, hits):
        # A flat chain of ``ops`` operators has 2 * ops + 1 nodes: 63, the
        # most a kernel takes, or 65.  Its definition is instantiated twice,
        # so at the cap the second evaluation builds the kernel and runs it;
        # over the cap both are walked.
        chain = " - ".join(["#x"] + ["1"] * ops)
        src = f"def #e{{#x}} := {chain} end\n&0 |> u3{{#e{{100}}, #e{{200}}, 0}}"
        qf = parser.parse_file(src)
        elaborator = preprocess.Elaborator(qf.defs, use_prelude=True)
        with recursion_limit(1000):
            u3 = elaborator.elaborate(qf.main).fn
        assert (as_rational(u3.theta), as_rational(u3.phi)) == (100 - ops, 200 - ops)
        assert elaborator.kernel_hits == hits
        assert (reals.kernel(qf.defs[0].body) is None) == (hits == 0)

    def test_a_flat_chain_compiles_at_the_default_limit(self, recursion_limit):
        # The left spine of an operator chain is a loop in the elaborator,
        # as it is in the parser and in reals._value.
        with recursion_limit(1000):
            flat = core_of_source("&0 |> u3{" + " - ".join(["1"] * 20_000) + ", 0, 0}")
            # Every node of both chains is exact, so each elaborates to one leaf.
            last = core_of_source("&0 |> u3{" + " - ".join(["pi"] * 2_999) + " + 1, 0, 0}")
            every = core_of_source("&0 |> u3{1 + " + " + ".join(["pi"] * 2_999) + ", 0, 0}")
        assert core.to_str(flat.fn) == "u3{-19998, 0, 0}"
        assert core.to_str(last.fn) == "u3{1 + (-2997) * pi, 0, 0}"
        assert every.fn.theta == RExact(1, 2_999)


def reachable(root):
    """The distinct nodes of a core term, each once."""
    seen, stack = {id(root): root}, [root]
    while stack:
        x = stack.pop()
        for c in core.children(x):
            if id(c) not in seen:
                seen[id(c)] = c
                stack.append(c)
    return seen.values()


class TestConstructors:
    """A variant's constructors are built once per instantiation of the
    variant, so every use within one compile is the same object."""

    def test_every_use_of_a_constructor_is_one_object(self):
        pair = core_of_source("(&0, &0)")
        assert pair.left is pair.right
        cons = "@ListCons{2, Bit}((&0, &ListEmpty{1, Bit}))"
        pair = core_of_source(f"({cons}, {cons})")
        assert pair.left is pair.right
        assert pair.left.fn is pair.right.fn

    def test_instantiations_at_other_arguments_stay_distinct(self):
        pair = core_of_source("(&ListEmpty{1, Bit}, &ListEmpty{2, Bit})")
        assert pair.left != pair.right

    def test_order_finding_reaches_one_object_per_injection(self):
        nodes = reachable(core_of_source("&order_finding{6, 7}"))
        assert sum(isinstance(x, core.PrLeft) for x in nodes) == 1
        assert sum(isinstance(x, core.PrRight) for x in nodes) == 1


class TestArglessNames:
    """An argless name that is no generic parameter in scope is resolved once
    per compile; a generic parameter of the same name still wins where it is
    in scope."""

    @pytest.fixture
    def named(self, monkeypatch):
        """The ``(sort, name)`` of each definition lookup elaboration makes."""
        named, calls = preprocess.Elaborator._named, []

        def counting(self, sort, name, *args):
            calls.append((sort, name))
            return named(self, sort, name, *args)

        monkeypatch.setattr(preprocess.Elaborator, "_named", counting)
        return calls

    def test_a_constructor_used_50_times_is_looked_up_once(self, named):
        main = "(&0, " * 49 + "&0" + ")" * 49
        core_of_source(main)
        assert len([c for c in named if c[1] == "0"]) <= 2

    SCOPE = (
        "def &x : Bit := &1 end\n"
        "def &f{&x : Bit} : Bit * Bit := (&x, &x) end\n"
    )
    ZERO, ONE = "left{Unit, Unit}(())", "right{Unit, Unit}(())"

    def test_a_parameter_shadows_a_definition_resolved_before_it(self):
        c = core_of_source(self.SCOPE + "(&x, &f{&0})")
        assert core.to_str(c) == f"({self.ONE}, ({self.ZERO}, {self.ZERO}))"

    def test_a_definition_is_resolved_outside_a_parameter_used_before_it(self):
        c = core_of_source(self.SCOPE + "(&f{&0}, &x)")
        assert core.to_str(c) == f"(({self.ZERO}, {self.ZERO}), {self.ONE})"

    def test_a_type_name_is_never_a_type_parameter(self):
        c = core_of_source(
            "type A := Unit end  def &n{'A} : Maybe{'A} := &Nothing{A} end  &n{Bit}"
        )
        assert core.to_str(c) == "left{Unit, Unit}(())"


class TestRealElaboration:
    """A real elaborates to its value at one evaluator step per node, and
    equal exact angles of one compile are one node."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """The operators of the evaluator steps elaboration takes, in order."""
        step, calls = preprocess.step, []

        def counting(*args):
            calls.append(args[0])
            return step(*args)

        monkeypatch.setattr(preprocess, "step", counting)
        return calls

    def test_one_step_per_real_node(self, steps):
        extra = set()
        for d in (50, 200, 400):
            steps.clear()
            core_of_source(f"&0 |> u3{{{'sin(' * d}1{')' * d}, 0, 0}}")
            extra.add(len(steps) - d)
        assert len(extra) == 1

    def test_a_gphase_evaluates_its_phase_once(self, steps):
        counts = []
        for main in ("&0 |> gphase{2 * pi * 3 / 8}", "&0 |> u3{2 * pi * 3 / 8, 0, 0}"):
            steps.clear()
            core_of_source(main)
            counts.append(len(steps))
        assert counts[0] == counts[1] == 3

    @pytest.mark.parametrize("main", ["&order_finding{8, 7}", "&num_to_state{12, 1} |> @qft{12}"])
    def test_equal_exact_angles_are_one_object(self, main):
        angles = []
        for x in reachable(core_of_source(main)):
            if isinstance(x, core.PrU3):
                angles += [x.theta, x.phi, x.lam]
            elif isinstance(x, core.PrRphase):
                angles += [x.on_phase, x.off_phase]
        by_value: dict = {}
        for a in angles:
            value = (as_rational(a), as_pi_multiple(a))
            if value != (None, None):
                by_value.setdefault(value, set()).add(id(a))
        assert len(by_value) > 1
        assert all(len(ids) == 1 for ids in by_value.values())
        assert len(angles) > len(by_value)


def _canonical(r):
    """The canonical tree of the closed real ``r``, computed from the
    evaluator's views: a leaf stays itself; any other node is rebuilt on its
    children's canonical trees and then collapsed to ``p``, ``p / q``, ``pi``
    or ``q * pi`` when it is exactly rational or exactly a nonzero multiple of
    pi, and to the ``+`` of the two when it is exact with both parts nonzero."""
    if isinstance(r, RUnary):
        r = RUnary(r.op, _canonical(r.arg))
    elif isinstance(r, RBinary):
        r = RBinary(r.op, _canonical(r.left), _canonical(r.right))
    else:
        return r

    def fraction(q):
        if q.denominator == 1:
            return RConst(q.numerator)
        return RBinary("/", RConst(q.numerator), RConst(q.denominator))

    def pi_times(p):
        return RPi() if p == 1 else RBinary("*", fraction(p), RPi())

    q = as_rational(r)
    if q is not None:
        return fraction(q)
    p = as_pi_multiple(r)
    if p is not None:
        return pi_times(p)
    v = reals._value(r)
    if isinstance(v, tuple):  # exact, with both parts nonzero
        return RBinary("+", fraction(Fraction(v[0])), pi_times(Fraction(v[1])))
    return r


def _closed_reals(depth: int):
    leaves = st.one_of(st.integers(-9, 9).map(RConst), st.just(RPi()), st.just(REuler()))
    if depth == 0:
        return leaves
    sub = _closed_reals(depth - 1)
    return st.one_of(
        sub,
        st.builds(RUnary, st.sampled_from(["sin", "sqrt", "ceil", "floor"]), sub),
        st.builds(RBinary, st.sampled_from(["+", "-", "*", "/", "%"]), sub, sub),
        # a small exponent keeps exact powers small
        st.builds(RBinary, st.just("^"), sub, leaves),
    )


def _text_or_error(make):
    try:
        return core.to_str(make())
    except RealError:
        return RealError


@settings(max_examples=300, deadline=None)
@given(_closed_reals(4))
def test_an_angle_elaborates_to_its_canonical_tree(r):
    """An angle elaborates to a node that prints as its canonical tree, and
    raises RealError exactly when building that tree does."""
    elaborated = lambda: core_of_source(f"&0 |> u3{{{core.to_str(r)}, 0, 0}}").fn.theta
    assert _text_or_error(elaborated) == _text_or_error(lambda: _canonical(r))


# Exact parts as the evaluator keeps them: an int when integral.
_exact_parts = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12).map(
    lambda q: q.numerator if q.denominator == 1 else q
)


@given(_exact_parts, _exact_parts)
def test_an_exact_leaf_prints_as_text_that_elaborates_back_to_it(a, b):
    leaf = RExact(a, b)
    text = core.to_str(leaf)
    assert core_of_source(f"&0 |> u3{{{text}, 0, 0}}").fn.theta == leaf


def alpha_normal(root):
    """``root`` with its variables renamed ``v0``, ``v1``, ... by binder.

    Each binding occurrence gets the next number of its closed program, in
    the order the walk meets its variable, and each use the name of the
    binder in scope: an arm's pattern binds its variables over its body, a
    ``lambda``'s over its body and an ``rphase``'s in its pattern alone.  So
    two binders with one name, an inner one that shadows an outer one, get
    two numbers.  Names are numbered afresh inside every program, which is
    closed, so two cores with equal normal forms are alpha-equivalent.
    """
    programs = {}  # id of a program node -> its normal form, shared as in the DAG
    closed = (core.PrAbs, core.PrPmatch, core.PrRphase)

    def walk(x, scope, count):
        if isinstance(x, core.ExVar):
            return core.ExVar(scope[x.name])
        if isinstance(x, closed):
            if id(x) not in programs:
                programs[id(x)] = rebuild(x, {}, itertools.count())
            return programs[id(x)]
        if isinstance(x, tuple):
            return tuple(walk(y, scope, count) for y in x)
        if isinstance(x, core._Node):
            return rebuild(x, scope, count)
        return x

    def rebuild(x, scope, count):
        if isinstance(x, (core.PrAbs, core.PrRphase, core.CoreArm)):
            binds = core.free_qvars(x.pattern)
            new = [n for n in dict.fromkeys(met(x.pattern)) if n in binds]
            scope = {**scope, **{n: f"v{next(count)}" for n in new}}
        return type(x)(*(walk(getattr(x, name), scope, count) for name in x.__slots__))

    def met(x):
        """The names of ``x``'s variables, in the order the walk meets them."""
        if isinstance(x, core.ExVar):
            yield x.name
        elif isinstance(x, tuple):
            for y in x:
                yield from met(y)
        elif isinstance(x, core._Node) and not isinstance(x, closed):
            for name in x.__slots__:
                yield from met(getattr(x, name))

    return walk(root, {}, itertools.count())


_SUGAR = (core.TVar, core.Name, core.If)

# Every prelude family, the prelude definitions no family reaches, and the
# forms the prelude does not use: conditions over !, && and || (whose right
# operand, undefined here, must not be evaluated) and try.
PRELUDE_MAINS = [
    main.format(n=n)
    for n in range(1, 5)
    for main in (
        "&num_to_state{{{n}, 1}} |> @qft{{{n}}}",
        "&num_to_state{{{n}, 1}} |> @add_const{{{n}, 3}}",
        "(&num_to_state{{{n}, 1}}, &num_to_state{{{n}, 2}}) |> @rev_adder{{{n}}}",
        "&phase_estimation{{{n}, 1 / 2 ^ {n}}}",
        "&grover{{List{{{n}, Bit}}, &equal_superpos_list{{{n}}}, @is_odd_sum{{{n}}}, 1}}",
        "&order_finding{{{n}, 7}}",
    )
] + [
    "&minus",
    "(&0, &1) |> @snd{Bit, Bit}",
    "(&1, &1) |> @and",
    "&num_to_state{3, 7} |> @multi_and{3}",
    "(&0 |> @Just{Bit}, &Nothing{Bit})",
    "&0 |> u3{if 1 < 2 && !(2 < 1) || 0 > 1 then pi else 0 endif, 0, 0}",
    "if 1 > 2 && 1 / 0 > 0 then &1 else &0 endif",
    "if 2 > 1 || 1 / 0 > 0 then &1 else &0 endif",
    "&0 |> lambda x -> try @had(x) catch x",
]


@pytest.mark.parametrize("main", PRELUDE_MAINS)
def test_elaborated_core_has_no_sugar_node(main):
    for x in reachable(core_of_source(main)):
        assert not isinstance(x, _SUGAR), f"{type(x).__name__} in the core of {main}"


def test_try_elaborates_to_a_try():
    assert isinstance(core_of_source("&0 |> lambda x -> try @had(x) catch x").fn.body, core.ExTry)


# An expression definition whose ctrl arm binds x, called with the variable x
# of three programs: @h passes the same variable object as @g, so it reuses
# @g's instantiation, and @k passes another one.
NO_CAPTURE = """
def &f{&v : Bit} : Bit * Bit := ctrl &v [x -> (x, &v)] end
def @g : Bit -> Bit * Bit := lambda x -> &f{x} end
def @h : Bit * Bit -> (Bit * Bit) * Bit := lambda (x, y) -> (&f{x}, y) end
def @k : Bit * Bit -> (Bit * Bit) * Bit := lambda (y, x) -> (&f{x}, y) end
(@g(&0), (@h(&0, &1), @k(&0, &1)))
"""


_VARIABLES = st.from_regex(r"[a-z][a-z0-9']{0,3}", fullmatch=True).filter(
    lambda w: w not in lexer.KEYWORDS
)


@st.composite
def _pair_tree(draw, leaves):
    """The leaves in order, nested in pairs of a drawn shape."""
    if len(leaves) == 1:
        return leaves[0]
    k = draw(st.integers(1, len(leaves) - 1))
    return draw(_pair_tree(leaves[:k])), draw(_pair_tree(leaves[k:]))


@st.composite
def _shuffles(draw):
    """A ``lambda`` that shuffles pairs: its pattern and body as pair trees
    of the numbers of its variables, and two lists of names for them."""
    n = draw(st.integers(1, 5))
    pattern = draw(_pair_tree(list(range(n))))
    body = draw(_pair_tree(draw(st.permutations(range(n)))))
    names = st.lists(_VARIABLES, min_size=n, max_size=n, unique=True)
    return pattern, body, draw(names), draw(names)


class TestInterning:
    """One compile has one object per distinct node, and a binder is named by
    its number within its closed program alone, so alpha-equal programs are
    one object."""

    MAINS = PRELUDE_MAINS + ["&order_finding{8, 7}"]

    @pytest.mark.parametrize("main", MAINS)
    def test_equal_nodes_are_one_object(self, main):
        # One fold keys each distinct node by its class, its fields that hold
        # no node and its children's ids, so it costs the DAG.  In a smallest
        # pair of distinct equal nodes the children are one object each, so
        # the two would share a key.
        nodes = {}

        def key(x, _):
            fields = [getattr(x, name) for name in x.__slots__]
            k = type(x), *(
                tuple(map(id, v)) if type(v) is tuple else id(v) if isinstance(v, core._Node) else v
                for v in fields
            )
            assert nodes.setdefault(k, x) is x, f"two equal {type(x).__name__} nodes"

        core.fold(core_of_source(main), key)

    @pytest.mark.parametrize("main", MAINS)
    def test_alpha_equal_programs_are_one_object(self, main):
        programs = [
            x
            for x in reachable(core_of_source(main))
            if isinstance(x, (core.PrAbs, core.PrPmatch, core.PrRphase))
        ]
        assert len({alpha_normal(p) for p in programs}) == len(programs)

    def test_programs_of_two_definitions_are_one_object(self):
        src = (
            "def @f : Bit -> Bit := lambda x -> @had(x) end\n"
            "def @g : Bit -> Bit := lambda x -> @had(x) end\n(@f(&0), @g(&0))"
        )
        pair = core_of_source(src)
        assert pair.left.fn is pair.right.fn

    def test_programs_that_differ_only_in_their_variables_names_are_one_object(self):
        # A binder is named by its number in its closed program alone.
        src = (
            "def @s1 : Bit * Bit -> Bit * Bit := lambda (x, y) -> (y, x) end\n"
            "def @s2 : Bit * Bit -> Bit * Bit := lambda (a, b) -> (b, a) end\n"
            "(&0, &1) |> @s1 |> @s2"
        )
        app = core_of_source(src)
        assert app.fn is app.arg.fn

    def test_rphase_numbers_its_binders_from_0(self):
        # One rphase bare, one after the binder y: a closed program numbers
        # its binders from 0 wherever it sits, so the two are one object.
        src = (
            "def @bare : Bit -> Bit := rphase{x, 0, pi} end\n"
            "def @inner : Bit -> Bit := lambda y -> y |> rphase{x, 0, pi} end\n"
            "def @global : Bit -> Bit := lambda y -> y |> gphase{pi / 2} end\n"
            "(@bare(&0), (@inner(&0), @global(&0)))"
        )
        c = core_of_source(src)
        bare, inner, phase = c.left.fn, c.right.left.fn.body.fn, c.right.right.fn.body.fn
        assert core.to_str(bare) == "rphase{v%0, 0, pi}"
        assert inner is bare
        assert core.to_str(phase) == "rphase{v%0, 1 / 2 * pi, 1 / 2 * pi}"
        assert phase.on_phase is phase.off_phase

    def test_a_memoized_expression_captures_no_variable(self):
        c = core_of_source(NO_CAPTURE)
        g, h = c.left.fn, c.right.left.fn
        assert g.body is h.body.left
        # the text of this core when binders were numbered once per compile
        assert core.to_str(alpha_normal(c)) == (
            "((lambda v0 -> ctrl v0 [v1 -> (v1, v0)])(left{Unit, Unit}(())), "
            "((lambda (v0, v1) -> (ctrl v0 [v2 -> (v2, v0)], v1))"
            "((left{Unit, Unit}(()), right{Unit, Unit}(()))), "
            "(lambda (v0, v1) -> (ctrl v1 [v2 -> (v2, v1)], v0))"
            "((left{Unit, Unit}(()), right{Unit, Unit}(())))))"
        )
        # @h's y and the arm binder of &f, reused from @g, are both v%1: the
        # arm binds v%1 in its body alone, so S runs @h as it did when the
        # two had names of their own.
        assert h.pattern.right is h.body.left.arms[0].pattern
        zero, one = semantics.ZERO, semantics.ONE
        value = ((zero, zero), (((zero, zero), one), ((one, one), zero)))
        assert semantics.run(c, {}) == {(value, ()): 1}

    SWAPS = (
        "def @s1 : Bit * Bit -> Bit * Bit := lambda (x, y) -> (y, x) end\n"
        "def @s2 : Bit * Bit -> Bit * Bit := lambda (a, b) -> (b, a) end\n"
    )

    def test_alpha_equal_definitions_are_one_object(self):
        c = core_of_source(self.SWAPS + "(&0, &1) |> @s1 |> @s2")
        assert c.fn is c.arg.fn
        assert core.to_str(c.fn) == "(lambda (v%0, v%1) -> (v%1, v%0))"

    @settings(max_examples=50, deadline=None)
    @given(_shuffles())
    def test_a_shuffle_is_one_object_whatever_its_names(self, shuffle):
        pattern, body, names, others = shuffle
        text = lambda tree, leaf, sep=", ": (
            leaf(tree)
            if type(tree) is int
            else f"({text(tree[0], leaf, sep)}{sep}{text(tree[1], leaf, sep)})"
        )
        bits = lambda tree: text(tree, lambda i: "Bit", " * ")
        signature = f"{bits(pattern)} -> {bits(body)}"
        src = "".join(
            f"def @{f} : {signature} := "
            f"lambda {text(pattern, vs.__getitem__)} -> {text(body, vs.__getitem__)} end\n"
            for f, vs in (("p", names), ("q", others))
        )
        arg = text(pattern, lambda i: "&0")
        c = core_of_source(src + f"({arg} |> @p, {arg} |> @q)")
        assert c.left.fn is c.right.fn

    @pytest.fixture
    def no_structural(self, monkeypatch):
        """Every hash of a node, and every == of two nodes that are not one
        object, fails; the prelude is parsed again with the hooks in place."""

        def structural(*args):
            raise AssertionError("a node was hashed or compared structurally")

        monkeypatch.setattr(core, "_hash_of", structural)
        monkeypatch.setattr(core, "_eq_dag", structural)
        monkeypatch.setattr(preprocess, "_prelude", None)

    HAD_THEN = "def @had_then{#t} : Bit -> Bit := lambda x -> u3{#t, 0, 0}(@had(x)) end\n"
    UNHASHED = [
        "&order_finding{6, 7}",
        "&grover{List{3, Bit}, &equal_superpos_list{3}, @is_odd_sum{3}, 2}",
        # an inexact real as a memo key, twice
        "(&0 |> @had_then{sin(1)}, &1 |> @had_then{sin(1)})",
    ]

    def test_elaboration_never_hashes_or_compares_nodes(self, no_structural):
        for main in self.UNHASHED:
            c = core_of_source(self.HAD_THEN + main)
        assert c.left.fn is c.right.fn

    def test_printing_and_running_never_hash_or_compare_nodes(self, no_structural):
        for main in self.UNHASHED:
            c = core_of_source(self.HAD_THEN + main)
            assert core.to_str(c)
            assert semantics.run(c, {})
        c = core_of_source("&num_to_state{4, 3} |> @adjoint{Num{4}, Num{4}, @mod_mult{4, 3}}")
        assert core.to_str(c)
        assert semantics.run(c, {}) == {(num(4, 1), ()): 1}  # 3 * 3^-1 = 1 mod 16


def _step(elaborator):
    """``make(cls, *fields)``: the node of ``cls`` with ``fields`` in the
    table of ``elaborator``, through the class's interning step, the step by
    which the elaborator builds every node."""

    def make(cls, a=None, b=None, c=None):
        return cls._intern(elaborator._nodes, a, b, c)

    return make


def _fields_of(cls, make):
    """Example fields of a node of ``cls``, the nodes among them built by
    ``make(cls, *fields)``; a tuple of arms is built once per call."""
    x, unit, pi, one = make(core.ExVar, "x%0"), make(core.ExUnit), make(RPi), make(RConst, 1)
    bit = make(core.TyUnit)
    arms = (make(core.CoreArm, x, unit),)
    return {
        core.ExVar: ("x%" + str(0),),  # equal to x's name, another str
        RConst: (int("123456789012345678901234567890"),),  # past the small ints' cache
        RExact: (Fraction(-1, 3), int("123456789012345678901234567890")),
        RBinary: ("*", one, pi),
        RUnary: ("sin", one),
        core.ExUnit: (),
        core.TyUnit: (),
        core.TyVoid: (),
        RPi: (),
        REuler: (),
        core.ExPair: (x, unit),
        core.ExApp: (make(core.PrLeft, bit, bit), x),
        core.ExTry: (x, unit),
        core.CoreArm: (x, unit),
        core.TyProd: (bit, make(core.TyVoid)),
        core.TySum: (bit, make(core.TyVoid)),
        core.PrLeft: (bit, bit),
        core.PrRight: (bit, bit),
        core.PrAbs: (x, x),
        core.PrPmatch: (arms,),
        core.PrRphase: (x, make(RConst, 0), pi),
        core.PrU3: (pi, make(RConst, 0), pi),
        core.ExCtrl: (x, arms, None),
        core.ExMatch: (x, arms, unit),
    }[cls]


# Every class with an interning step that the elaborator builds, and RConst
# and RPi, which it built before RExact: four keyed by their first field as
# it is, RExact by both, no-field classes, tuple-field classes and the rest.
INTERNED = [
    core.ExVar, RConst, RExact, RBinary, RUnary, core.ExUnit, core.TyUnit, core.TyVoid, RPi, REuler,
    core.ExPair, core.ExApp, core.ExTry, core.CoreArm, core.TyProd, core.TySum, core.PrLeft,
    core.PrRight, core.PrAbs, core.PrPmatch, core.PrRphase, core.PrU3, core.ExCtrl, core.ExMatch,
]


class TestInternStep:
    """A node that its class's interning step builds in an elaborator's
    table is the node that ``__init__`` builds from the same fields."""

    @pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
    def test_a_made_node_is_the_node_init_builds(self, cls):
        make = _step(preprocess.Elaborator(()))
        made = make(cls, *_fields_of(cls, make))
        built = cls(*_fields_of(cls, lambda c, *f: c(*f)))
        assert made is not built
        assert type(made) is type(built) is cls
        assert made == built and built == made
        assert hash(made) == hash(built)
        assert repr(made) == repr(built)
        made_fields, built_fields = ([getattr(x, n) for n in cls.__slots__] for x in (made, built))
        assert made_fields == built_fields
        assert not hasattr(made, "__dict__")
        for node in (made, built):
            for name in (*cls.__slots__, "_derived", "not_a_field"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(node, name)
        assert made == built

    @pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
    def test_equal_fields_give_one_node_in_a_compile(self, cls):
        make = _step(preprocess.Elaborator(()))
        fields = _fields_of(cls, make)
        node = make(cls, *fields)
        # a name or a constant equal to the first, but another object
        again = _fields_of(cls, make) if cls in (core.ExVar, RConst, RExact) else fields
        assert again == fields
        assert make(cls, *again) is node
        assert _step(preprocess.Elaborator(()))(cls, *fields) is not node

    def test_the_steps_keep_classes_and_their_first_fields_apart(self):
        make = _step(preprocess.Elaborator(()))
        one = make(RConst, 1)
        assert make(core.ExVar, "1") is not make(RConst, 1)
        assert make(RExact, 1, 0) is not make(RConst, 1)
        assert make(RExact, 1, 0) is not make(RExact, 0, 1)
        assert make(RUnary, "sin", one) is not make(RUnary, "cos", one)
        assert make(RBinary, "+", one, one) is not make(RBinary, "-", one, one)
        assert make(core.TyProd, one, one) is not make(core.TySum, one, one)
        assert make(core.TyUnit) is not make(core.TyVoid)
        assert len({make(cls) for cls in (core.ExUnit, core.TyUnit, core.TyVoid, RPi)}) == 4


def _prelude_entries():
    """The entries of the prelude's table in file order, as built by a fresh
    table: a parsed ``type`` definition, or an unparsed ``def``."""
    table, _ = preprocess._prelude_table()
    return [table[key] for key in preprocess._prelude[2]]


class TestSharedPrelude:
    def test_each_chunk_parses_to_its_definition_in_the_whole_prelude(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_prelude", None)
        text = preprocess.default_prelude_text()
        whole = parser.parse_file(text).defs
        entries = _prelude_entries()
        assert [e.name for e in entries] == [d.name for d in whole]
        unparsed = [e for e in entries if type(e) is preprocess._Unparsed]
        assert len(whole) == 41 and len(unparsed) == 36
        assert all(e.sort == d.sort for e, d in zip(entries, whole) if e in unparsed)
        assert [preprocess._parse_chunk(e.text, e.line) for e in unparsed] == [
            d for e, d in zip(entries, whole) if e in unparsed
        ]
        # the chunks' tokens are the prelude's, at their place in it
        tokens = [t for e in unparsed for t in lexer.tokenize("\n" * (e.line - 1) + e.text)[:-1]]
        assert tokens == lexer.tokenize(text)[-1 - len(tokens) : -1]
        assert load_prelude_defs() == whole

    def test_each_chunk_is_tokenized_at_most_once_per_process(self, monkeypatch):
        prelude = preprocess.default_prelude_text()
        tokenize, sources = parser.tokenize, []

        def counting(source):
            sources.append(source)
            return tokenize(source)

        monkeypatch.setattr(parser, "tokenize", counting)
        monkeypatch.setattr(preprocess, "_prelude", None)
        for main in ("@had(&0)", "@had(&0)", "&order_finding{4, 7}", "&num_to_state{2, 1}"):
            core_of_source(main)
        load_prelude_defs()
        chunks = [s for s in sources if s.lstrip("\n").startswith(("def", "type"))]
        assert len(chunks) == len(set(chunks)) == 41
        assert prelude not in sources
        assert len(sources) == 45  # and the four mains

    def test_a_first_compile_parses_only_the_definitions_it_reaches(self):
        script = (
            "from qunic import preprocess\n"
            "preprocess.core_of_source('@had(&0)')\n"
            "table, _, keys = preprocess._prelude\n"
            "print(*(n for s, n in keys if type(table[s, n]) is not preprocess._Unparsed))\n"
            "print(preprocess.prelude_defs_parsed())\n"
        )
        src = str(Path(preprocess.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "Bit Maybe Array Num List had\n6\n"

    def test_the_prelude_is_read_from_a_zipped_package(self, tmp_path):
        package = Path(preprocess.__file__).parent
        archive = tmp_path / "qunic.zip"
        with zipfile.ZipFile(archive, "w") as z:
            for f in sorted(package.glob("*.py")) + [package / "prelude.qunity"]:
                z.write(f, f"qunic/{f.name}")
        script = (
            "import qunic\n"
            "from qunic import core, preprocess\n"
            "print(qunic.__file__)\n"
            "print(core.to_str(preprocess.core_of_source('@had(&0)')))\n"
        )
        # -S and the zip alone on PYTHONPATH: no other copy of the package is importable
        out = subprocess.run(
            [sys.executable, "-S", "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(archive)},
            timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines() == [
            str(archive / "qunic" / "__init__.py"),
            core.to_str(core_of_source("@had(&0)")),
        ]

    def test_a_prelude_name_clashes_before_its_definition_is_parsed(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_prelude", None)
        with pytest.raises(PreprocessError, match="^duplicate definition @qft$"):
            core_of_source("def @qft : Bit -> Bit := @not end\n@qft(&0)")
        clash = "type T := &A | @qft of Bit end\n&A"
        with pytest.raises(PreprocessError, match="^constructor @qft clashes with an existing name$"):
            core_of_source(clash)
        assert type(preprocess._prelude[0]["f", "qft"]) is preprocess._Unparsed

    @pytest.mark.parametrize(
        "prelude, message",
        [
            ("&0\ndef &z : Unit := () end\n", "the prelude holds text before its first definition"),
            ("def @d{#n, #n} : Unit -> Unit := @id{Unit} end\n", "duplicate parameter #n in @d"),
            ("\n\ndef @d : Unit -> Unit := lambda -> () end\n", "^3:33: "),
            ("def &z : Unit := () end &z\n", "must not contain a main expression"),
        ],
        ids=["leading-token", "duplicate-parameter", "parse-error-place", "main-expression"],
    )
    def test_a_bad_prelude_chunk_is_refused(self, monkeypatch, prelude, message):
        monkeypatch.setattr(preprocess, "default_prelude_text", lambda: prelude)
        monkeypatch.setattr(preprocess, "_prelude", None)
        with pytest.raises(QunityError, match=message):
            core_of_source("@d(())" if "@d" in prelude else "&z")

    def test_redefining_a_prelude_name_fails_on_every_call(self):
        src = "def @had : Bit -> Bit := @had end\n@had(&0)"
        for _ in range(2):
            with pytest.raises(PreprocessError, match="duplicate definition @had"):
                core_of_source(src)

    def test_no_elaborator_state_leaks_between_compiles(self):
        src = "@qft{3}((&1, (&0, (&1, ()))))"
        first, second = core_of_source(src), core_of_source(src)
        assert "%" in core.to_str(first)  # fresh names are printed
        assert core.to_str(first) == core.to_str(second)

    def test_shared_definitions_are_deeply_immutable(self):
        hash(load_prelude_defs())

    def test_the_prelude_table_is_built_once_and_user_definitions_stay_out_of_it(
        self, monkeypatch
    ):
        core_of_source("@had(&0)")
        registered = []
        register = preprocess.Elaborator._register

        def counting(self, d):
            registered.append(d.name)
            return register(self, d)

        monkeypatch.setattr(preprocess.Elaborator, "_register", counting)
        mine = "def @mine : Bit -> Bit := @not end\n@mine(&0)"
        for _ in range(2):  # no duplicate: the first compile's @mine is gone
            core_of_source(mine)
        assert registered == ["mine", "mine"]
        with pytest.raises(PreprocessError, match="unknown program definition @mine"):
            core_of_source("@mine(&0)")
        clash = "type T := &ListEmpty | &Other end\n&Other"
        with pytest.raises(PreprocessError, match="constructor &ListEmpty clashes"):
            core_of_source(clash)
        core_of_source(clash, use_prelude=False)  # no prelude, no clash

    def test_no_prelude_means_the_prelude_is_never_read(self, monkeypatch):
        def unread():
            raise AssertionError("the prelude was read")

        monkeypatch.setattr(preprocess, "default_prelude_text", unread)
        monkeypatch.setattr(preprocess, "_prelude", None)
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


# @add_const and @mod_mult as they would be without reducing the constants
# they pass down mod 2^(#n - 1).
ARITH_UNREDUCED = """
def @add_const_unreduced{#n, #a} : Num{#n} -> Num{#n} :=
  if #n <= 0 then @id{Unit}
  else if #n = 1 then
    if #a % 1 = 0 then pmatch [
      (&0, x) -> (if #a % 2 = 1 then &1 else &0 endif, @id{Unit}(x));
      (&1, x) -> (if #a % 2 = 1 then &0 else &1 endif, @id{Unit}(x))
    ]
    else @add_const_needs_an_integer_constant
    endif
  else if #a % 2 = 1 then
    lambda x -> let (x0, x) = @inc{#n}(x) in
      (x0, @add_const_unreduced{#n - 1, (#a - 1) / 2}(x))
  else lambda (x0, x) -> (x0, @add_const_unreduced{#n - 1, #a / 2}(x))
  endif endif endif
end

def @mod_mult_unreduced{#n, #a} : Num{#n} -> Num{#n} :=
  if #n = 1 then @id{Num{#n}}
  else lambda (x0, x1) ->
    let (x0, x1) = (x0, @mod_mult_unreduced{#n - 1, #a}(x1)) in
    ctrl x0 [
      &0 -> (x0, x1);
      &1 -> (x0, @add_const_unreduced{#n - 1, (#a - 1) / 2}(x1))
    ]
  endif
end
"""


def _elaborated(main: str) -> preprocess.Elaborator:
    """The elaborator that compiled ``main`` against the prelude."""
    qf = parser.parse_file(main)
    elaborator = preprocess.Elaborator(qf.defs, use_prelude=True)
    elaborator.elaborate(qf.main)
    return elaborator


class TestModularArithmetic:
    """@add_const and @mod_mult reduce the constant they pass down mod
    2^(#n - 1), so each residue is instantiated once."""

    @staticmethod
    def program(name, n, a):
        main = f"&num_to_state{{{n}, 0}} |> @{name}{{{n}, {a}}}"
        return alpha_normal(core_of_source(ARITH_UNREDUCED + main))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reduced_constants_elaborate_alpha_equal(self, n):
        for a in (-5, -1, 0, 1, 2, 3, 7, 2**n - 1, 2**n, 2**n + 3, 3 * 2**n + 5, 12345):
            assert self.program("add_const", n, a) == self.program("add_const_unreduced", n, a)
            if a % 2:
                assert self.program("mod_mult", n, a) == self.program("mod_mult_unreduced", n, a)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_every_memoized_constant_is_a_residue(self, n):
        memo = _elaborated(f"&order_finding{{{n}, 7}}")._memo
        for name in ("add_const", "mod_mult"):
            # a program's memo key is ("f", name, args), and a rational argument a is (a, 0)
            args = [key[2] for key in memo if key[:2] == ("f", name)]
            assert args
            for (k, _), (c, _) in args:
                assert 0 <= c < 2**k, f"@{name}{{{k}, {c}}}"

    @pytest.mark.parametrize("n, a", [(4, 2), (1, 2), (1, 0), (3, -4), (8, 2**8)])
    def test_mod_mult_refuses_an_even_constant(self, n, a):
        # an even constant is no bijection: it was the identity on all inputs
        with pytest.raises(PreprocessError, match="mod_mult_needs_an_odd_constant"):
            core_of_source(f"&num_to_state{{{n}, 0}} |> @mod_mult{{{n}, {a}}}")

    @pytest.mark.parametrize(
        "main",
        [
            "&num_to_state{2, 1} |> @add_const{2, 1/2}",
            "&num_to_state{2, 1} |> @add_const{2, 5/3}",
            "&num_to_state{1, 1} |> @add_const{1, 1/2}",
            "&num_to_state{8, 1} |> @add_const{8, -7/2}",
            "&num_to_state{3, 1} |> @mod_mult{3, 1/2}",
        ],
    )
    def test_add_const_refuses_a_constant_that_is_not_an_integer(self, main):
        # it compiled to a program that was not x + a; @mod_mult tests that
        # its constant is odd before it reaches @add_const
        name = "mod_mult_needs_an_odd" if "@mod_mult" in main else "add_const_needs_an_integer"
        with pytest.raises(PreprocessError, match=f"{name}_constant"):
            core_of_source(main)

    def test_the_tree_of_add_const_grows_with_n_squared(self):
        # W's inline lowering follows the tree.  20,755 and 80,435 nodes, where
        # a match on the low bit with one call per arm gave 1.5e11 at n = 32.
        def tree(n):
            main = f"&num_to_state{{{n}, 0}} |> @add_const{{{n}, {2**n - 1}}}"
            return core.node_counts(core_of_source(main))[1]

        assert tree(64) <= 4.5 * tree(32)

    def test_the_tree_of_order_finding_20_is_under_a_million_nodes(self):
        # 178,080 nodes, where it was 754,988,756
        assert core.node_counts(core_of_source("&order_finding{20, 7}"))[1] < 10**6

    def test_order_finding_instantiates_each_residue_once(self):
        # 697 with unreduced constants, 317 with @add_const a match on the low bit
        assert _elaborated("&order_finding{12, 7}").instantiations <= 316

    def test_mod_mult_of_no_bits_is_the_identity(self):
        for a in (3, 2):
            c = core_of_source(f"&num_to_state{{0, 0}} |> @mod_mult{{0, {a}}}")
            assert c.fn == core_of_source("() |> @id{Unit}").fn
        core_of_source("(&repeated{1, Bit, &plus}, &num_to_state{0, 1}) |> @mod_exp{1, 0, 3}")


def _sources(name: str, seconds: int, monkeypatch) -> list[str]:
    """``PRELUDE_MAINS``, or the sources of the benchmark's
    ``op_list(workload, 5, seconds)`` for the workload ``name``."""
    if name == "PRELUDE_MAINS":
        return PRELUDE_MAINS
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    return [op.source for op in workloads.op_list(workloads.WORKLOADS[name], 5, seconds)]


class TestKeptRegions:
    """A pattern outside any other, or a closed program, whose elaboration
    read no generic parameter is elaborated once per compile: the same
    region entered again returns the kept core."""

    # The sha256 of the core texts, each after the one before and a newline,
    # of the benchmark's op_list(workload, 5, 15) and of PRELUDE_MAINS, as
    # elaborated with no region kept, with each binder ``x%k`` spelt ``v%k``
    # as the elaborator now names it and ``@add_const`` built on ``@inc``.
    TEXTS = {
        "small_programs": "e601368dc0553c2d4acb6ffd4aa23c3f147161a5a7f86e0d2c3bfe1445dc3de8",
        "shor_unroll": "3d0d06f29f7800358b52f2e6fa0d498abdf976c4db64a2ca564e6ade41d84aa4",
        "dump_core": "d327a0142098ed7bfc5cf7765aa18da453a0a720caef289c3414870e5944811a",
        "PRELUDE_MAINS": "4793a56d97fedd64ebd7707cdc266e4fdbce669889a05a2fafe705488e551968",
    }

    @pytest.mark.parametrize("name", TEXTS)
    def test_the_core_text_is_unchanged(self, name, monkeypatch):
        sources = _sources(name, 15, monkeypatch)
        text = "\n".join(core.to_str(core_of_source(s)) for s in sources)
        assert hashlib.sha256(text.encode()).hexdigest() == self.TEXTS[name]

    def test_a_pattern_that_reads_a_parameter_is_not_shared(self):
        # @is_odd_sum{#n}'s arm @ListCons{#n, Bit}(&0, l') at n = 3, 2, 1
        c = core_of_source("&grover{List{3, Bit}, &equal_superpos_list{3}, @is_odd_sum{3}, 1}")
        patterns = [
            x.arms[1].pattern
            for x in reachable(c)
            if isinstance(x, core.ExMatch) and len(x.arms) == 3
        ]
        assert len(patterns) == 3
        assert all(a != b for a, b in itertools.combinations(patterns, 2))

    def test_a_generic_free_let_lambda_is_elaborated_once(self, monkeypatch):
        # @rotations{#n}'s let (y0, (y1, y)), reached at n = 2..6
        made, step = [], core.PrAbs._intern

        def counting(nodes, a, b, c):
            node = step(nodes, a, b, c)
            made.append(node)
            return node

        monkeypatch.setattr(core.PrAbs, "_intern", counting)
        qf = parser.parse_file("&num_to_state{6, 1} |> @qft{6}")
        elaborator = preprocess.Elaborator(qf.defs, use_prelude=True)
        c = elaborator.elaborate(qf.main)
        text = "(lambda ((v%0, v%1), v%2) -> (v%0, (v%1, v%2)))"
        (let,) = [x for x in reachable(c) if core.to_str(x) == text]
        assert [x is let for x in made].count(True) == 1
        assert elaborator.reused >= 1

    def test_a_region_that_raises_is_not_kept(self):
        qf = parser.parse_file("def @bad{#n} : Bit -> Bit := lambda x -> y end")
        elaborator, region = preprocess.Elaborator(qf.defs), qf.defs[0].body
        errors = []
        for n in (1, 2):
            with pytest.raises(PreprocessError) as info:
                elaborator.elaborate(parser.parse_expr_string(f"&0 |> @bad{{{n}}}"))
            errors.append(str(info.value))
            assert all(key[0] != id(region) for key in elaborator._kept)
        assert errors == ["unbound variable y"] * 2


class TestCallSiteCaches:
    """A call site with generic arguments that resolves to a prelude
    definition keeps its resolution, from its second evaluation on, for the
    rest of the process: nothing a compile gives may change."""

    # @f's call site is evaluated once per compile, so a cache would serve it
    # from the third compile on.
    CALLER = "def @f : Unit -> Unit := @{g}{{1, 1}} end\n() |> @f"
    MINE = ("lambda x -> x", "u3{pi, 0, pi}")

    @pytest.mark.parametrize("g", ["g", "add_const"])
    def test_each_elaborator_gets_its_own_definition(self, g):
        caller = self.CALLER.format(g=g)
        qf = parser.parse_file(caller)
        compiles = []  # (@g's definitions, use_prelude, the core of a fresh parse)
        for body in self.MINE:
            mine = f"def @{g}{{#n, #a}} : Unit -> Unit := {body} end\n"
            fresh = preprocess.elaborate_file(parser.parse_file(mine + caller))
            compiles.append((parser.parse_file(mine).defs, False, fresh))
        if g == "add_const":  # and the prelude's, to whose call sites a cache is kept
            compiles.append(((), True, core_of_source(caller)))
        assert len({core.to_str(c) for _, _, c in compiles}) == len(compiles)
        # the last one twice first, so that with the prelude's the second
        # evaluation builds the site's cache, and the others meet it
        for defs, use_prelude, fresh in compiles[-1:] * 2 + compiles * 3:
            got = preprocess.Elaborator(qf.defs + defs, use_prelude).elaborate(qf.main)
            assert got == fresh
        site = qf.defs[0].body
        assert (type(site._derived) is tuple) == (g == "add_const")

    @pytest.mark.parametrize(
        "src, message",
        [
            ("&0 |> @add_const{1}", "@add_const expects 2 generic argument(s), got 1"),
            ("&0 |> @add_const{1, Bit}", "@add_const: argument for #a must be a real"),
            (
                "def @h{@p : Bit -> Bit} : Bit -> Bit := @p{1} end\n&0 |> @h{@not}",
                "parameter @p takes no arguments",
            ),
            ("&0 |> @add_const{1, #m}", "unknown real definition #m"),
        ],
        ids=["arity", "sort", "parameter", "argument"],
    )
    def test_an_error_reads_the_same_on_every_evaluation(self, src, message):
        qf = parser.parse_file(src)
        for _ in range(3):
            with pytest.raises(PreprocessError) as info:
                preprocess.Elaborator(qf.defs, use_prelude=True).elaborate(qf.main)
            assert str(info.value) == message

    def test_a_region_that_reads_a_parameter_in_a_cached_argument_is_not_kept(self):
        # @u{#k}'s lambda reads #k only in the argument of its call site,
        # which the cache reads from its third evaluation on, at @u{5} and
        # @u{7}, where @add_const{2, #k} is memoized: a read it failed to
        # count would keep @u{5}'s lambda and return it for @u{7}.
        u = "def @u{#k} : Num{2} -> Num{2} := lambda x -> @add_const{2, #k}(x) end\n"
        calls = [f"@add_const{{2, {k}}}" for k in (5, 7)] + [f"@u{{{k}}}" for k in (1, 3, 5, 7)]
        main, want = "()", ()
        for f, k in zip(reversed(calls), (7, 5, 3, 1, 7, 5)):
            main, want = f"({f}(&num_to_state{{2, 0}}), {main})", (num(2, k), want)
        assert semantics.value(core_of_source(u + main), {}) == want

    # The sha256 of each source's counts, one line per source, in a fresh
    # process and then in a warm one, of one round of the benchmark's
    # op_list(workload, 5, 1) and of PRELUDE_MAINS, as elaborated with no
    # call site cached.  A kernel is built at an expression's second
    # evaluation, so the warm process counts more kernel hits.
    COUNTS = {
        "small_programs": "f1c7aeabd1c6b62f69a0f628fb5699118fa12b1fd20ff08cde6b1666e08a501c",
        "shor_unroll": "1a9d4dc7e382503457abe1e5686339897b9a49868b4112c4a420565fc4c79bb1",
        "dump_core": "0868a9eb21964940b08f51f8a2e156a75de0c368fa371ec9e7c23f2f925edc9e",
        "PRELUDE_MAINS": "fd24209e5bb3bc2f31cc2e4ad999b03b41772fc55801f397da37d5496ee81d04",
    }

    @staticmethod
    def _compile(source: str) -> tuple[str, tuple]:
        """The core text of ``source`` and its ``--stats`` counts."""
        qf = parser.parse_file(source)
        elaborator = preprocess.Elaborator(qf.defs, use_prelude=True)
        c = elaborator.elaborate(qf.main)
        counts = elaborator.instantiations, elaborator.reused, elaborator.kernel_hits
        return core.to_str(c), (*counts, *core.node_counts(c), preprocess.prelude_defs_parsed())

    @pytest.mark.parametrize("name", COUNTS)
    def test_a_warm_process_compiles_as_a_fresh_one(self, name, monkeypatch):
        lines = []
        for source in _sources(name, 1, monkeypatch):
            # a fresh prelude table is what a fresh process has: definitions
            # whose nodes hold no kernel and no cache
            monkeypatch.setattr(preprocess, "_prelude", None)
            fresh, warm, again = (self._compile(source) for _ in range(3))
            assert fresh[0] == warm[0] and warm == again, source
            lines.append(f"{fresh[1]} {warm[1]}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.COUNTS[name]


class TestShortcuts:
    """A variable read in the frame of its pair, application, ``ctrl`` or
    ``match``, and an ``if`` condition's kernel run in the ``if`` loop, fall
    back on the walk where they have no answer: each of three compiles of
    one parsed file in one process gives what the walk gives.  A kernel is built at the second
    evaluation, so the third compile is the first that runs it."""

    @pytest.mark.parametrize(
        "body",
        [
            "lambda x -> (y, x)",
            "lambda x -> (x, y)",
            "lambda x -> @not(y)",
            "lambda x -> ctrl y [&0 -> (x, x); &1 -> (x, x)]",
            "lambda x -> match y [&0 -> (x, x); &1 -> (x, x)]",
        ],
        ids=["left-operand", "right-operand", "argument", "ctrl-scrutinee", "match-scrutinee"],
    )
    def test_an_unbound_operand_or_argument_is_reported(self, body):
        qf = parser.parse_file(f"def @g{{#n}} : Bit -> Bit * Bit := {body} end\n&0 |> @g{{1}}")
        for _ in range(3):
            with pytest.raises(PreprocessError) as info:
                preprocess.Elaborator(qf.defs, use_prelude=True).elaborate(qf.main)
            assert str(info.value) == "unbound variable y"

    def test_a_condition_whose_kernel_gives_no_value_is_walked(self):
        qf = parser.parse_file(
            "def @g{#n} : Bit -> Bit := if #n / 0 = 1 then @not else @had endif end\n&0 |> @g{1}"
        )
        cond = qf.defs[0].body.cond
        assert reals.kernel(cond) is not None
        for _ in range(3):
            elaborator = preprocess.Elaborator(qf.defs, use_prelude=True)
            with pytest.raises(RealError) as info:
                elaborator.elaborate(qf.main)
            assert str(info.value) == "division by zero in real expression"
            assert elaborator.kernel_hits == 0
        assert type(cond._derived) is tuple

    def test_a_condition_with_no_kernel_is_walked(self):
        g = "def @g{#n} : Bit -> Bit := if #n < pi then @not else @had endif end\n"
        qf = parser.parse_file(g + "(&0 |> @g{3}, &0 |> @g{4})")
        assert reals.kernel(qf.defs[0].body.cond) is None
        want = core_of_source("(&0 |> @not, &0 |> @had)")
        for _ in range(3):
            elaborator = preprocess.Elaborator(qf.defs, use_prelude=True)
            assert elaborator.elaborate(qf.main) == want
            assert elaborator.kernel_hits == 0


class TestElaboratorAfterAnError:
    """An elaborator that raised compiles again as a fresh one would: no
    instantiation is left under way, and binders are numbered from 0."""

    BAD = "def @bad{#n} : Bit -> Bit := lambda x -> y end\n"
    # binders numbered outside any program, from the count at entry
    SWAP = "def &swap : Bit * Bit := match (&0, &1) [(a, b) -> (b, a)] end\n"

    def test_the_same_error_is_raised_again(self):
        elaborator = preprocess.Elaborator(parser.parse_file(self.BAD).defs)
        main = parser.parse_expr_string("&0 |> @bad{1}")
        for _ in range(2):
            with pytest.raises(PreprocessError, match="^unbound variable y$"):
                elaborator.elaborate(main)

    def test_a_good_compile_after_a_failed_one_gives_the_fresh_core(self):
        defs = parser.parse_file(self.BAD + self.SWAP).defs
        good = parser.parse_expr_string("(&swap, &num_to_state{3, 5} |> @qft{3})")
        used = preprocess.Elaborator(defs, use_prelude=True)
        with pytest.raises(PreprocessError, match="^unbound variable y$"):
            used.elaborate(parser.parse_expr_string("&0 |> @bad{1}"))
        fresh = preprocess.Elaborator(defs, use_prelude=True).elaborate(good)
        assert core.to_str(used.elaborate(good)) == core.to_str(fresh)


def _deep_pairs() -> core.ExPair:
    """A left-nested chain of 5,000 pairs of units, too deep for the stack
    at a recursion limit of 1,000 to elaborate or print."""
    e = core.ExUnit()
    for _ in range(5000):
        e = core.ExPair(e, core.ExUnit())
    return e


def _elaborate(source: str):
    return preprocess.Elaborator((), use_prelude=True).elaborate(parser.parse_expr_string(source))


class TestCollectorPause:
    """Elaboration and printing run with the cyclic garbage collector paused,
    which is safe because no compile leaves cyclic garbage, and leave it on
    or off as they found it, whether they return or raise."""

    # A user definition whose condition is evaluated twice, so that it gets
    # a kernel, which is dropped with the parse.
    KERNEL = (
        "def @g{#n} : Bit -> Bit := if #n % 2 = 1 then @not else @had endif end\n"
        "(&0 |> @g{3}, &0 |> @g{4})"
    )
    # Compiles that raise: an unknown name, an unbound variable, a term too
    # deep for the stack at a recursion limit of 1,000, an undefined angle.
    FAILING = [
        "&0 |> @nope",
        "&0 |> lambda x -> y",
        "&num_to_state{192, 1} |> @qft{192}",
        "&0 |> u3{1 / 0, 0, 0}",
    ]

    def test_a_compile_and_its_print_leave_no_cyclic_garbage(self, recursion_limit):
        gc.collect()
        gc.disable()
        try:
            for main in [*PRELUDE_MAINS, self.KERNEL, self.KERNEL]:
                core.to_str(core_of_source(main))
            raised = 0
            with recursion_limit(1000):
                for main in self.FAILING:
                    try:
                        core_of_source(main)
                    except QunityError:
                        raised += 1
            found = gc.collect()
        finally:
            gc.enable()
        assert (found, raised) == (0, len(self.FAILING))

    def test_elaboration_and_printing_run_paused(self, monkeypatch):
        seen = []

        def spy(fn):
            def call(*args):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args)

            return call

        monkeypatch.setattr(preprocess, "step", spy(preprocess.step))
        monkeypatch.setattr(printer, "_joined", spy(printer._joined))
        core.to_str(_elaborate("&0 |> u3{pi / 3, 0, 0}"))
        assert set(seen) == {("step", False), ("_joined", False)}
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "call, error",
        [
            pytest.param(lambda: _elaborate("&0 |> @had"), None, id="elaborate-returns"),
            pytest.param(lambda: _elaborate("&0 |> @nope"), PreprocessError, id="elaborate-raises"),
            pytest.param(
                lambda: preprocess.Elaborator(()).elaborate(_deep_pairs()),
                CapacityError,
                id="elaborate-too-deep",
            ),
            pytest.param(lambda: core.to_str(core.ExUnit()), None, id="print-returns"),
            pytest.param(lambda: core.to_str(_deep_pairs()), CapacityError, id="print-too-deep"),
        ],
    )
    def test_the_collector_is_left_as_it_was(self, recursion_limit, enabled, call, error):
        if not enabled:
            gc.disable()
        try:
            with recursion_limit(1000):
                if error is None:
                    call()
                else:
                    with pytest.raises(error):
                        call()
            after = gc.isenabled()
        finally:
            gc.enable()
        assert after is enabled
