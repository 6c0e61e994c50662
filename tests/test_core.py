"""Hashing, equality and printing of shared core terms (the ``_Node`` contract)."""

import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from arithmetic import ADD_CONST_TREE
from hypothesis import given, strategies as st

from qunic import cli, core, printer, reals
from qunic.core import (
    BAnd,
    BCmp,
    BNot,
    BOr,
    CoreArm,
    ExApp,
    ExCtrl,
    ExMatch,
    ExPair,
    ExTry,
    ExUnit,
    ExVar,
    If,
    Name,
    PrAbs,
    PrLeft,
    PrPmatch,
    PrRight,
    PrRphase,
    PrU3,
    QFile,
    RBinary,
    RConst,
    RExact,
    RPi,
    RUnary,
    TVar,
    TyProd,
    TySum,
    TyUnit,
    TyVoid,
)
from qunic.errors import CapacityError, RealError
from qunic.parser import parse_type_string
from qunic.preprocess import core_of_source

# From core alone: other modules import some of these classes again.
NODE_CLASSES = [
    cls
    for cls in vars(core).values()
    if isinstance(cls, type) and issubclass(cls, core._Node) and cls is not core._Node
]
# Every field with a default in a class body of core.py.
CLASS_BODY_DEFAULTS = {
    (Name, "args"): (),
    (ExCtrl, "else_body"): None,
    (ExMatch, "else_body"): None,
    (core.Param, "sig"): (),
}


def _deep_u3(depth: int, theta: int) -> str:
    """A program that nests ``depth`` lambdas around one ``u3`` leaf."""
    return (
        "def @deep{#n, #a} : Bit -> Bit := if #n = 0 then u3{#a, 0, 0} "
        "else lambda x -> @deep{#n - 1, #a}(x) endif end\n"
        f"&0 |> @deep{{{depth}, {theta}}}\n"
    )


class TestSharedCores:
    def test_order_finding_20_hashes_fast_and_compares_equal(self):
        a = core_of_source("&order_finding{20, 7}")
        b = core_of_source("&order_finding{20, 7}")
        assert a is not b
        # every hash is a fold over the DAG: a second one costs the first again
        start = time.perf_counter()
        h = hash(a)
        assert hash(a) == h
        assert time.perf_counter() - start < 1.0
        assert a == b
        assert hash(b) == h

    def test_free_variables_of_a_shared_core_cost_the_dag(self):
        # Each level holds its subterm twice, so the tree has 2^22 leaves.
        c = core_of_source(
            "def &e{#n} : Bit := if #n = 0 then &0 "
            "else match (&e{#n - 1}, &e{#n - 1}) [(x, y) -> x] endif end\n&e{22}"
        )
        start = time.perf_counter()
        assert core.free_qvars(c) == frozenset()
        assert time.perf_counter() - start < 1.0

    def test_node_counts_sum_the_tree_over_the_dag(self):
        # A tree of 2^41 - 1 nodes, which no walk of the tree would finish.
        e = ExVar("x")
        for _ in range(40):
            e = ExPair(e, e)
        assert core.node_counts(e) == (41, 2**41 - 1)
        y = ExVar("y")
        assert core.node_counts(ExCtrl(y, (CoreArm(ExUnit(), y),))) == (4, 5)

    def test_folds_over_a_chain_deeper_than_the_stack_need_no_recursion(self):
        e = ExVar("y")
        for _ in range(100_000):
            e = ExPair(ExVar("x"), e)
        assert core.free_qvars(e) == {"x", "y"}
        assert core.node_counts(e) == (200_001, 200_001)

    @pytest.mark.parametrize(
        "source",
        [
            "&num_to_state{80, 5} |> @qft{80}",
            "(&num_to_state{56, 5}, &num_to_state{56, 3}) |> @rev_adder{56}",
        ],
    )
    def test_wide_circuits_compare_equal(self, source):
        # Deeper than the interpreter's recursion limit as a tree.
        assert core_of_source(source) == core_of_source(source)

    @pytest.mark.parametrize(
        "left, right",
        [
            ("&order_finding{8, 7}", "&order_finding{8, 11}"),
            (_deep_u3(60, 1), _deep_u3(60, 2)),
        ],
    )
    @pytest.mark.parametrize("hashed", [False, True])
    def test_cores_differing_in_one_deep_leaf_are_unequal(self, left, right, hashed):
        a, b = core_of_source(left), core_of_source(right)
        if hashed:
            hash(a), hash(b)
        assert a != b
        assert not a == b

    def test_printing_copies_each_text_once(self):
        # A text built from its children's texts would copy the long leaf once
        # per level above it.
        e = ExVar("v" * 1_000_000)
        for _ in range(50_000):
            e = ExPair(ExUnit(), e)
        start = time.perf_counter()
        text = cli._on_deep_stack(core.to_str, e)
        assert time.perf_counter() - start < 1.0
        assert text == "((), " * 50_000 + "v" * 1_000_000 + ")" * 50_000

    def test_printing_an_overlong_constant_is_a_real_error(self):
        c = core_of_source(
            "def &z : Unit := () end\n&z |> lambda () -> () |> gphase{7 ^ 6000}",
            use_prelude=False,
        )
        with pytest.raises(RealError, match="5071 digits"):
            core.to_str(c)

    @pytest.mark.parametrize(
        "leaf, text",
        [
            (RExact(7, 0), "7"),
            (RExact(-7, 0), "-7"),
            (RExact(Fraction(-1, 3), 0), "(-1) / 3"),
            (RExact(0, 1), "pi"),
            (RExact(0, -1), "(-1) * pi"),
            (RExact(0, Fraction(-1, 3)), "(-1) / 3 * pi"),
            (RExact(1, -2997), "1 + (-2997) * pi"),
            (RExact(Fraction(1, 2), 1), "1 / 2 + pi"),
            (RExact(-1, Fraction(2, 3)), "(-1) + 2 / 3 * pi"),
            # as an operand, it is wrapped as the tree it prints
            (RBinary("*", RUnary("sin", RExact(1, 0)), RExact(1, 1)), "sin(1) * (1 + pi)"),
            (RBinary("-", RExact(0, 0), RExact(-1, 0)), "0 - (-1)"),
            (RBinary("^", RExact(Fraction(1, 2), 0), RUnary("sin", RExact(0, 2))),
             "(1 / 2) ^ sin(2 * pi)"),
        ],
    )
    def test_an_exact_leaf_prints_as_the_tree_that_spells_it(self, leaf, text):
        assert core.to_str(leaf) == text

    @pytest.mark.parametrize(
        "leaf", [RExact(7**6000, 0), RExact(0, Fraction(1, 7**6000)), RExact(1, -(7**6000))]
    )
    def test_printing_an_overlong_exact_part_is_a_real_error(self, leaf):
        with pytest.raises(RealError, match="5071 digits"):
            core.to_str(leaf)

    def test_a_text_over_the_bound_is_refused(self, monkeypatch):
        # @add_const_tree's halves are shared, so its text is far longer than
        # its DAG.  At a bound one character short, the final join refuses it;
        # at a small bound, the join of a shared node's text does.
        c = core_of_source(ADD_CONST_TREE + "&num_to_state{8, 1} |> @add_const_tree{8, 12345}")
        text = core.to_str(c)
        monkeypatch.setattr(printer, "TEXT_CHARS", len(text))
        assert core.to_str(c) == text
        monkeypatch.setattr(printer, "TEXT_CHARS", len(text) - 1)
        with pytest.raises(CapacityError, match=f"a text of {len(text)} characters is over"):
            core.to_str(c)
        monkeypatch.setattr(printer, "TEXT_CHARS", 1000)
        with pytest.raises(CapacityError, match="over the limit of 1000$") as refused:
            core.to_str(c)
        assert 1000 < int(re.search(r"a text of (\d+)", str(refused.value))[1]) < len(text)

    def test_nodes_have_no_dict_and_only_their_declared_fields(self):
        assert len(NODE_CLASSES) == 36
        for cls in NODE_CLASSES:
            declared = list(cls.__annotations__)
            assert [f.name for f in dataclasses.fields(cls)] == declared
            node = cls(*[None] * len(declared))
            assert not hasattr(node, "__dict__")
            hash(node)
            assert [f.name for f in dataclasses.fields(node)] == declared

    def test_every_node_class_is_a_documented_dataclass_with_its_fields_as_slots(self):
        for cls in NODE_CLASSES:
            assert dataclasses.is_dataclass(cls)
            assert tuple(f.name for f in dataclasses.fields(cls)) == cls.__slots__
            # each field's type is its annotation's text, as declared
            assert [f.type for f in dataclasses.fields(cls)] == list(cls.__annotations__.values())
            assert all(type(f.type) is str for f in dataclasses.fields(cls))
            assert cls.__doc__ and cls.__doc__.strip(), cls.__name__
            # __init__ takes the fields in order, with their defaults
            params = list(inspect.signature(cls).parameters.values())
            assert [(p.name, p.default) for p in params] == [
                (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
                for f in dataclasses.fields(cls)
            ]
            # ... which are the slots, with the class body's defaults
            assert [(p.name, p.default) for p in params] == [
                (name, CLASS_BODY_DEFAULTS.get((cls, name), inspect.Parameter.empty))
                for name in cls.__slots__
            ]
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
            # each field is set from its own parameter, by position or by name
            values = [object() for _ in cls.__slots__]
            for node in (cls(*values), cls(**dict(zip(cls.__slots__, values)))):
                assert [getattr(node, name) for name in cls.__slots__] == values
        assert ExCtrl(scrutinee=ExVar("x"), arms=()).else_body is None
        assert Name("e", "x") == Name(sort="e", name="x", args=())
        assert dataclasses.fields(ExCtrl)[2].type == "'Expr | None'"  # its source text, quotes and all
        assert not dataclasses.is_dataclass(core._Node)

    def test_a_field_without_a_default_after_one_with_a_default_is_refused(self):
        with pytest.raises(TypeError, match="Late: field 'b' has no default but follows one that has"):

            @core._node
            class Late(core._Node):
                """A class whose second field has no default."""

                a: str = ""
                b: str

    def test_assigning_or_deleting_any_field_is_refused(self):
        for cls in NODE_CLASSES:
            node = cls(*[None] * len(cls.__slots__))
            hash(node)
            # _derived is no field either, and a pass writes it only through
            # object.__setattr__
            for name in (*cls.__slots__, "_derived", "not_a_field"):
                frozen = dataclasses.FrozenInstanceError
                with pytest.raises(frozen, match=f"cannot assign to field '{name}'"):
                    setattr(node, name, None)
                with pytest.raises(frozen, match=f"cannot delete field '{name}'"):
                    delattr(node, name)
            assert [getattr(node, name) for name in cls.__slots__] == [None] * len(cls.__slots__)

    @staticmethod
    def loaded_by(module: str) -> set[str]:
        """The modules that importing ``module`` loads, in a new interpreter."""
        script = f"import sys, {module}\nprint(*sys.modules)\n"
        src = str(pathlib.Path(core.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        loaded = set(out.stdout.split())
        assert module in loaded
        return loaded

    def test_importing_the_compiler_loads_no_later_stage(self):
        loaded = self.loaded_by("qunic.preprocess")
        assert not loaded & {"qunic.semantics", "qunic.cli", "qunic.printer"}

    def test_importing_and_compiling_load_no_dataclasses_importlib_resources_or_typing(self):
        # The node classes and the prelude's reader need neither import, nor
        # inspect, which dataclasses imports, and no compile prints.  The
        # unions of node classes are written with |, so nothing needs typing.
        # -S, since a .pth file may import them itself (certifi's imports
        # importlib.resources and typing).
        script = (
            "import sys, qunic.preprocess\n"
            "print(*sys.modules)\n"
            "qunic.preprocess.core_of_source('&num_to_state{3, 5} |> @qft{3}')\n"
            "print(*sys.modules)\n"
        )
        src = str(pathlib.Path(core.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-S", "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")
        imported, compiled = (set(line.split()) for line in out.stdout.splitlines())
        assert "qunic.preprocess" in imported and "qunic.reals" in compiled
        refused = {"dataclasses", "inspect", "importlib.resources", "typing", "qunic.printer"}
        for loaded in (imported, compiled):
            assert not loaded & refused

    def test_importing_the_tree_with_its_adjoint_loads_no_evaluator(self):
        loaded = self.loaded_by("qunic.core")
        assert not loaded & {"qunic.reals", "qunic.semantics", "qunic.cli"}

    @pytest.mark.parametrize(
        "first",
        [
            "qunic.reals",
            "qunic.core",
            "qunic.printer",
            "qunic.surface",
            "qunic.parser",
            "qunic.preprocess",
        ],
    )
    def test_each_module_imports_first_without_a_cycle(self, first):
        # Whichever module comes first, the tree and its printer are whole:
        # a real name in a generic argument prints with the rest.
        script = (
            f"import {first}\n"
            "from qunic.core import Name, to_str\n"
            "print(to_str(Name('e', 'f', (Name('r', 'n', (Name('t', 'Bit'),)),))))\n"
        )
        src = str(pathlib.Path(core.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (out.returncode, out.stderr, out.stdout) == (0, "", "&f{#n{Bit}}\n")

    def test_a_term_too_deep_to_print_is_a_capacity_error(self):
        def chain():
            e = ExUnit()
            for _ in range(5000):
                e = ExPair(e, ExVar("x"))
            return e

        deep = chain()
        with pytest.raises(CapacityError, match="nested too deeply to print"):
            core.to_str(deep)
        with pytest.raises(CapacityError, match="nested too deeply to print"):
            core.to_str(QFile((), deep))
        assert hash(deep) == hash(chain())
        assert deep == chain()

    def test_repr_is_the_dataclass_form_cut_at_a_fixed_depth(self):
        assert repr(ExVar("x")) == "ExVar(name='x')"
        assert repr(RConst(2)) == "RConst(value=2)"
        arm = CoreArm(ExUnit(), ExVar("y"))
        assert repr(arm) == "CoreArm(pattern=ExUnit(), body=ExVar(name='y'))"
        deep = ExUnit()
        for _ in range(core._REPR_DEPTH):
            deep = ExPair(deep, ExUnit())
        assert repr(deep).startswith("ExPair(left=ExPair(left=")
        assert "left=..., right=..." in repr(deep)
        assert repr(RConst(7**6000)) == "RConst(value=<an integer of 5071 digits>)"
        assert repr(RExact(Fraction(1, 7**6000), 0)) == (
            "RExact(a=Fraction(1, <an integer of 5071 digits>), b=0)"
        )
        # Far deeper than the interpreter's stack as a tree walk.
        text = repr(core_of_source("&num_to_state{80, 5} |> @qft{80}"))
        assert text.startswith("ExApp(") and len(text) < 10_000


# ---------------------------------------------------------------------------
# The DAG comparison agrees with a plain recursive one on small terms


def _structural_eq(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(_structural_eq(x, y) for x, y in zip(a, b))
    if not dataclasses.is_dataclass(a):
        return a == b
    return all(
        _structural_eq(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


def _rebuild(x):
    """An equal term that shares no node with ``x``."""
    if type(x) is tuple:
        return tuple(_rebuild(v) for v in x)
    if not dataclasses.is_dataclass(x):
        return x
    return type(x)(*[_rebuild(getattr(x, f.name)) for f in dataclasses.fields(x)])


_types = st.recursive(
    st.sampled_from([TyVoid(), TyUnit()]),
    lambda sub: st.builds(TySum, sub, sub) | st.builds(TyProd, sub, sub),
    max_leaves=4,
)
_reals = st.recursive(
    st.integers(0, 2).map(RConst) | st.just(RPi()),
    lambda sub: st.builds(RUnary, st.just("sin"), sub)
    | st.builds(RBinary, st.sampled_from(["+", "*"]), sub, sub),
    max_leaves=3,
)


def _exprs_and_progs():
    leaves = st.just(ExUnit()) | st.sampled_from(["x", "y"]).map(ExVar)

    def extend(sub):
        arms = st.lists(st.builds(CoreArm, sub, sub), max_size=2).map(tuple)
        progs = (
            st.builds(PrU3, _reals, _reals, _reals)
            | st.builds(PrLeft, _types, _types)
            | st.builds(PrRight, _types, _types)
            | st.builds(PrAbs, sub, sub)
            | st.builds(PrRphase, sub, _reals, _reals)
            | st.builds(PrPmatch, arms)
        )
        return (
            st.builds(ExPair, sub, sub)
            | sub.map(lambda x: ExPair(x, x))  # a shared child
            | st.builds(ExCtrl, sub, arms, st.none() | sub)
            | st.builds(ExMatch, sub, arms, st.none() | sub)
            | st.builds(ExTry, sub, sub)
            | st.builds(ExApp, progs, sub)
        )

    return st.recursive(leaves, extend, max_leaves=8)


_terms = _exprs_and_progs() | _types | _reals


@given(st.data())
def test_dag_equality_agrees_with_structural_equality(data):
    a = data.draw(_terms)
    b = data.draw(_terms | st.just(a).map(_rebuild))
    if data.draw(st.booleans()):
        hash(a)
    if data.draw(st.booleans()):
        hash(b)
    assert (a == b) is _structural_eq(a, b)
    assert (a != b) is not _structural_eq(a, b)
    if a == b:
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# The one fold, and the walks on it, agree with plain recursive references


def _parts(x) -> list:
    """The nodes in the fields of ``x``, with the items of a tuple field."""
    out = []
    for f in dataclasses.fields(x):
        v = getattr(x, f.name)
        out += [c for c in (v if type(v) is tuple else (v,)) if isinstance(c, core._Node)]
    return out


def _tree_size(x) -> int:
    return 1 + sum(_tree_size(c) for c in _parts(x))


def _distinct(x, seen: dict) -> dict:
    if id(x) not in seen:
        seen[id(x)] = x
        for c in _parts(x):
            _distinct(c, seen)
    return seen


def _free_ref(e) -> set:
    if isinstance(e, ExVar):
        return {e.name}
    if isinstance(e, ExApp):
        return _free_ref(e.arg)
    if isinstance(e, (ExCtrl, ExMatch)):
        free = _free_ref(e.scrutinee)
        for arm in e.arms:
            free |= _free_ref(arm.body) - _free_ref(arm.pattern)
        return free | (set() if e.else_body is None else _free_ref(e.else_body))
    return set().union(*[_free_ref(c) for c in _parts(e)])  # (), pairs, try


def _value_ref(r):
    if isinstance(r, RBinary):
        return reals.step(r.op, _value_ref(r.left), _value_ref(r.right))
    if isinstance(r, RUnary):
        return reals.step(r.op, _value_ref(r.arg))
    return (0, 1) if isinstance(r, RPi) else (r.value, 0)


@given(_terms)
def test_node_counts_match_a_recursive_count(term):
    assert core.node_counts(term) == (len(_distinct(term, {})), _tree_size(term))


@given(_exprs_and_progs())
def test_free_variables_match_a_recursive_reference(e):
    assert core.free_qvars(e) == _free_ref(e)


@given(_terms)
def test_the_printer_keeps_the_text_of_each_node_with_two_incoming_edges(term):
    nodes = _distinct(term, {})
    indegree: dict[int, int] = {}
    for x in nodes.values():
        for c in _parts(x):
            indegree[id(c)] = indegree.get(id(c), 0) + 1
    texts: dict = {}
    printer._show(term, texts, [])
    kept = {k for k, v in texts.items() if type(v) is str and k in nodes}
    assert kept == {k for k, n in indegree.items() if n >= 2}


@given(_reals)
def test_real_values_are_step_folded_recursively(r):
    for term in (r, RBinary("*", r, RUnary("sin", r))):  # the second shares r
        assert reals._value(term) == _value_ref(term)


@pytest.mark.parametrize(
    "e",
    [
        TVar("a"),
        Name("e", "z", (Name("r", "n"),)),
        If("e", BCmp("<", RConst(1), RConst(2)), ExVar("x"), ExVar("y")),
    ],
    ids=["type-variable", "name", "if"],
)
def test_free_variables_of_sugar_are_a_type_error(e):
    for term in (e, ExPair(ExUnit(), e)):
        with pytest.raises(TypeError, match="not a core expression"):
            core.free_qvars(term)


def test_a_program_name_or_if_is_a_leaf_of_free_variables():
    # Programs are closed, so a program name or ``if`` has none, like a lambda.
    cond = BCmp("<", RConst(1), RConst(2))
    for f in (Name("f", "g", (ExVar("y"),)), If("f", cond, Name("f", "g"), Name("f", "h"))):
        assert core.free_qvars(ExApp(f, ExVar("x"))) == {"x"}


# ---------------------------------------------------------------------------
# The printer builds a shared node's text once and reuses it; the text is that
# of the tree, which a copy sharing no node prints node by node.


@given(_terms)
def test_a_term_prints_as_its_copy_that_shares_no_node(term):
    assert core.to_str(term) == core.to_str(_rebuild(term))


@pytest.mark.parametrize(
    "source",
    [
        "&num_to_state{12, 5} |> @qft{12}",
        "(&num_to_state{8, 5}, &num_to_state{8, 3}) |> @rev_adder{8}",
        "&phase_estimation{6, 1/8}",
    ],
)
def test_a_core_prints_as_its_copy_that_shares_no_node(source):
    c = core_of_source(source)
    assert core.to_str(c) == core.to_str(_rebuild(c))


def test_a_shared_generic_argument_prints_at_every_position():
    arg = TyProd(TVar("a"), TyUnit())
    t = Name("t", "Pair", (arg, Name("t", "List", (RConst(3), arg)), arg))
    assert core.to_str(t) == "Pair{('a * Unit), List{3, ('a * Unit)}, ('a * Unit)}"


# ---------------------------------------------------------------------------
# A node's text does not depend on its parent: the parent adds the parentheses.


def test_a_shared_sum_is_parenthesized_only_as_an_operand():
    total = RBinary("+", RConst(1), RConst(2))
    assert core.to_str(RBinary("*", total, RUnary("sin", total))) == "(1 + 2) * sin(1 + 2)"


def test_a_shared_negative_constant_is_never_a_bare_operand():
    c = RConst(-1)
    assert core.to_str(RBinary("-", c, RUnary("cos", c))) == "(-1) - cos(-1)"


def test_a_shared_disjunction_is_bare_as_a_condition_and_parenthesized_under_and():
    either = BOr(BCmp("<", RConst(1), RConst(2)), BCmp("=", RPi(), RPi()))
    t = If("t", either, If("t", BAnd(either, either), TyUnit(), TyVoid()), TyUnit())
    text = core.to_str(t)
    inner = "if (1 < 2 || pi = pi) && (1 < 2 || pi = pi) then Unit else Void endif"
    assert text == f"if 1 < 2 || pi = pi then {inner} else Unit endif"
    assert parse_type_string(text) == t


def _sum_of_sines(n):
    r = RUnary("sin", RConst(1))
    for _ in range(n - 1):
        r = RBinary("+", r, RUnary("sin", RConst(1)))
    return r


def _tower_of_twos(n):
    r = RConst(2)
    for _ in range(n):
        r = RBinary("^", RConst(2), r)
    return r


def _negated_conjunctions(n):
    b = BCmp("<", RConst(1), RConst(2))
    for i in range(n):
        b = BNot(b) if i % 2 else BAnd(b, BCmp("<", RConst(1), RConst(2)))
    return b


@pytest.mark.parametrize("build", [_sum_of_sines, _tower_of_twos, _negated_conjunctions])
def test_an_operand_chain_costs_one_frame_per_level(recursion_limit, build):
    term = build(900)
    with recursion_limit(1000):
        assert core.to_str(term)
