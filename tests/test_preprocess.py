"""Elaboration into the core: gate angles, the limits on unrolling, error
texts, pattern binding and scope, the shared prelude, and prelude definitions
checked against reference copies."""

import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qunic import core, parser, preprocess
from qunic.core import RBinary, RConst, REuler, RPi, RUnary
from qunic.errors import CapacityError, PreprocessError, RealError
from qunic.preprocess import core_of_source, load_prelude_defs
from qunic.reals import as_pi_multiple, as_rational


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


class TestDepth:
    """Each frame per instantiation level lowers the largest circuit that
    elaborates within the default recursion limit; n = 96 keeps a margin."""

    @pytest.mark.parametrize(
        "main",
        [
            "&num_to_state{96, 1} |> @qft{96}",
            "(&num_to_state{96, 1}, &num_to_state{96, 1}) |> @rev_adder{96}",
        ],
    )
    def test_wide_circuit_compiles_and_prints_at_the_default_limit(self, main):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert core.to_str(core_of_source(main))
        finally:
            sys.setrecursionlimit(limit)


def reachable(root):
    """The distinct nodes of a core term, each once."""
    seen, stack = {id(root): root}, [root]
    while stack:
        x = stack.pop()
        for f in dataclasses.fields(x):
            v = getattr(x, f.name)
            for c in v if isinstance(v, tuple) else (v,):
                if dataclasses.is_dataclass(c) and id(c) not in seen:
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
        assert pair.left is not pair.right
        assert pair.left.fn is pair.right.fn

    def test_instantiations_at_other_arguments_stay_distinct(self):
        pair = core_of_source("(&ListEmpty{1, Bit}, &ListEmpty{2, Bit})")
        assert pair.left != pair.right

    def test_order_finding_reaches_one_object_per_injection(self):
        nodes = reachable(core_of_source("&order_finding{6, 7}"))
        assert sum(isinstance(x, core.PrLeft) for x in nodes) == 1
        assert sum(isinstance(x, core.PrRight) for x in nodes) == 1


class TestRealElaboration:
    """A real elaborates to its value at one evaluator step per node, and
    equal exact angles of one compile are one node."""

    def test_one_step_per_real_node(self, monkeypatch):
        step, calls = preprocess.step, []

        def counting(*args):
            calls.append(args[0])
            return step(*args)

        monkeypatch.setattr(preprocess, "step", counting)
        extra = set()
        for d in (50, 200, 400):
            calls.clear()
            core_of_source(f"&0 |> u3{{{'sin(' * d}1{')' * d}, 0, 0}}")
            extra.add(len(calls) - d)
        assert len(extra) == 1

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
    pi."""
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

    q = as_rational(r)
    if q is not None:
        return fraction(q)
    p = as_pi_multiple(r)
    if p is not None:
        return RPi() if p == 1 else RBinary("*", fraction(p), RPi())
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


_SUGAR = (
    core.TVar,
    core.TName,
    core.TIf,
    core.ELet,
    core.EName,
    core.EIf,
    core.PGphase,
    core.PName,
    core.PIf,
    core.RName,
    core.RIf,
)

# Every prelude family, and the prelude definitions no family reaches.
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
]


@pytest.mark.parametrize("main", PRELUDE_MAINS)
def test_elaborated_core_has_no_sugar_node(main):
    for x in reachable(core_of_source(main)):
        assert not isinstance(x, _SUGAR), f"{type(x).__name__} in the core of {main}"


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
        assert "%" in core.to_str(first)  # fresh names are printed
        assert core.to_str(first) == core.to_str(second)

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
