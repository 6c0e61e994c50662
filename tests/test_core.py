"""Hashing, equality and printing of shared core terms (the ``_Node`` contract)."""

import dataclasses
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from qunic import core
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
    PrAbs,
    PrLeft,
    PrPmatch,
    PrRight,
    PrRphase,
    PrU3,
    QFile,
    RBinary,
    RConst,
    RPi,
    RUnary,
    TIf,
    TName,
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
        start = time.perf_counter()
        h = hash(a)
        assert time.perf_counter() - start < 1.0
        assert a == b
        assert hash(b) == h

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

    def test_printing_an_overlong_constant_is_a_real_error(self):
        c = core_of_source(
            "def &z : Unit := () end\n&z |> lambda () -> () |> gphase{7 ^ 6000}",
            use_prelude=False,
        )
        with pytest.raises(RealError, match="5071 digits"):
            core.to_str(c)

    def test_nodes_have_no_dict_and_only_their_declared_fields(self):
        assert len(NODE_CLASSES) == 49
        for cls in NODE_CLASSES:
            declared = list(cls.__annotations__)
            assert [f.name for f in dataclasses.fields(cls)] == declared
            node = cls(*[None] * len(declared))
            assert not hasattr(node, "__dict__")
            hash(node)
            assert [f.name for f in dataclasses.fields(node)] == declared

    @pytest.mark.parametrize(
        "first", ["qunic.reals", "qunic.core", "qunic.surface", "qunic.parser", "qunic.preprocess"]
    )
    def test_each_module_imports_first_without_a_cycle(self, first):
        # Whichever module comes first, the tree and its printer are whole:
        # a real name in a generic argument prints with the rest.
        script = (
            f"import {first}\n"
            "from qunic.core import EName, RName, TName, to_str\n"
            "print(to_str(EName('f', (RName('n', (TName('Bit'),)),))))\n"
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
    t = TName("Pair", (arg, TName("List", (RConst(3), arg)), arg))
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
    t = TIf(either, TIf(BAnd(either, either), TyUnit(), TyVoid()), TyUnit())
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
def test_an_operand_chain_costs_one_frame_per_level(build):
    term = build(900)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert core.to_str(term)
    finally:
        sys.setrecursionlimit(limit)
