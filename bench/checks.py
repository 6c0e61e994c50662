"""Output checks that trust nothing the elaborator says about its own output.

* ``round_trips``: the generated source survives print -> parse.
* ``closure_problems``: the main core has no free variable and every program
  node in it is closed.
* ``core_shape``: DAG size, tree size and depth, computed over the shared
  DAG so that a tree of millions of nodes costs only its distinct nodes;
  the runner compiles each source twice and requires equal shapes.
* ``EXPECTED``: hand-written cores for the smallest instance of every family,
  compared with ``alpha_equal`` (equal up to renaming of bound variables,
  reals compared by value).
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

from qunic import core, parser, reals, surface
from qunic.core import (
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
    TyProd,
    TySum,
    TyUnit,
    TyVoid,
)

# --------------------------------------------------------------------------
# Shape of the shared DAG

_FIELDS: dict[type, tuple[str, ...] | None] = {}


def _fields(t: type) -> tuple[str, ...] | None:
    try:
        return _FIELDS[t]
    except KeyError:
        names = tuple(f.name for f in dataclasses.fields(t)) if dataclasses.is_dataclass(t) else None
        _FIELDS[t] = names
        return names


def _children(x) -> list:
    out = []
    for name in _fields(type(x)) or ():
        v = getattr(x, name)
        if type(v) is tuple:
            out.extend(w for w in v if _fields(type(w)) is not None)
        elif _fields(type(v)) is not None:
            out.append(v)
    return out


class Shape(NamedTuple):
    dag_nodes: int  # distinct nodes, by identity
    tree_nodes: int  # nodes of the same term written out as a tree
    depth: int


def core_shape(root) -> Shape:
    """Count core nodes (types and reals included) without recursion."""
    tree: dict[int, int] = {}
    depth: dict[int, int] = {}
    kids: dict[int, list] = {}
    stack = [root]
    while stack:
        x = stack[-1]
        k = id(x)
        if k in tree:
            stack.pop()
            continue
        if k not in kids:
            kids[k] = _children(x)
            pending = [c for c in kids[k] if id(c) not in tree]
            if pending:
                stack.extend(pending)
                continue
        stack.pop()
        cs = kids[k]
        tree[k] = 1 + sum(tree[id(c)] for c in cs)
        depth[k] = 1 + max((depth[id(c)] for c in cs), default=0)
    return Shape(len(tree), tree[id(root)], depth[id(root)])


def _distinct_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        x = stack.pop()
        yield x
        for c in _children(x):
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)


# --------------------------------------------------------------------------
# Closure and round trip


def closure_problems(root) -> list[str]:
    """Free variables of the main core and of every program in it."""
    problems = []
    free = core.free_qvars(root)
    if free:
        problems.append(f"main expression has free variables {sorted(free)}")
    for x in _distinct_nodes(root):
        if isinstance(x, PrAbs):
            arms = [CoreArm(x.pattern, x.body)]
        elif isinstance(x, PrPmatch):
            arms = list(x.arms)
        else:
            continue
        for arm in arms:
            extra = core.free_qvars(arm.body) - core.free_qvars(arm.pattern)
            if extra:
                problems.append(f"program {type(x).__name__} has free variables {sorted(extra)}")
    return problems


def round_trips(src: str) -> bool:
    qf = parser.parse_file(src)
    return parser.parse_file(surface.file_to_str(qf)) == qf


# --------------------------------------------------------------------------
# Equality up to renaming of bound variables


def _pattern_vars(p) -> list[str]:
    """Variables a core pattern binds, in left-to-right order (programs are closed)."""
    out: list[str] = []
    stack = [p]
    while stack:
        x = stack.pop()
        if isinstance(x, ExVar):
            if x.name not in out:
                out.append(x.name)
        elif isinstance(x, ExPair):
            stack += [x.right, x.left]
        elif isinstance(x, ExApp):
            stack.append(x.arg)
    return out


def _real_value(r) -> float:
    if isinstance(r, (int, float)):
        return float(r)
    return float(reals.evaluate_real(r))


class _Alpha:
    """Lock-step comparison with a scoped bijection between bound names."""

    def __init__(self) -> None:
        self.scopes: list[tuple[dict[str, str], dict[str, str]]] = []

    def _lookup(self, a: str, b: str) -> bool:
        for ab, ba in reversed(self.scopes):
            if a in ab or b in ba:
                return ab.get(a) == b and ba.get(b) == a
        return a == b  # both free

    def _bound(self, pa, pb, bodies) -> bool:
        va, vb = _pattern_vars(pa), _pattern_vars(pb)
        if len(va) != len(vb):
            return False
        self.scopes.append((dict(zip(va, vb)), dict(zip(vb, va))))
        try:
            return all(self.eq(x, y) for x, y in [(pa, pb), *bodies])
        finally:
            self.scopes.pop()

    def _arms(self, xs, ys) -> bool:
        return len(xs) == len(ys) and all(
            self._bound(x.pattern, y.pattern, [(x.body, y.body)]) for x, y in zip(xs, ys)
        )

    def eq(self, a, b) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, ExVar):
            return self._lookup(a.name, b.name)
        if isinstance(a, (ExPair, ExTry)):
            return all(self.eq(getattr(a, f), getattr(b, f)) for f in _fields(type(a)))
        if isinstance(a, ExApp):
            return self.eq(a.fn, b.fn) and self.eq(a.arg, b.arg)
        if isinstance(a, (ExCtrl, ExMatch)):
            if (a.else_body is None) != (b.else_body is None):
                return False
            return (
                self.eq(a.scrutinee, b.scrutinee)
                and self._arms(a.arms, b.arms)
                and (a.else_body is None or self.eq(a.else_body, b.else_body))
            )
        if isinstance(a, PrAbs):
            return self._bound(a.pattern, b.pattern, [(a.body, b.body)])
        if isinstance(a, PrPmatch):
            return self._arms(a.arms, b.arms)
        if isinstance(a, PrRphase):
            return (
                self._bound(a.pattern, b.pattern, [])
                and math.isclose(_real_value(a.on_phase), _real_value(b.on_phase), abs_tol=1e-12)
                and math.isclose(_real_value(a.off_phase), _real_value(b.off_phase), abs_tol=1e-12)
            )
        if isinstance(a, PrU3):
            return all(
                math.isclose(_real_value(x), _real_value(y), abs_tol=1e-12)
                for x, y in ((a.theta, b.theta), (a.phi, b.phi), (a.lam, b.lam))
            )
        return a == b  # ExUnit, PrLeft, PrRight: no variables, no reals


def alpha_equal(a, b) -> bool:
    return _Alpha().eq(a, b)


# --------------------------------------------------------------------------
# Hand-written cores for the smallest instance of each family, derived from
# the prelude definitions by hand.  Variable names are arbitrary.

UNIT = ExUnit()
T_UNIT = TyUnit()
T_BIT = TySum(T_UNIT, T_UNIT)
ZERO = ExApp(PrLeft(T_UNIT, T_UNIT), UNIT)
ONE = ExApp(PrRight(T_UNIT, T_UNIT), UNIT)
NOT = PrU3(math.pi, 0, math.pi)
HAD = PrU3(math.pi / 2, 0, math.pi)
PLUS = ExApp(HAD, ZERO)


def v(name: str) -> ExVar:
    return ExVar(name)


def pair(a, b) -> ExPair:
    return ExPair(a, b)


def app(f, e) -> ExApp:
    return ExApp(f, e)


def lam(p, b) -> PrAbs:
    return PrAbs(p, b)


def bit(b: int):
    return ONE if b else ZERO


def let(p, value, body) -> ExApp:
    return app(lam(p, body), value)


ID = lam(v("z"), v("z"))
REV0 = ID
SNOC0 = lam(pair(v("x"), UNIT), pair(v("x"), UNIT))
REV1 = lam(pair(v("x"), v("y")), app(SNOC0, pair(v("x"), app(REV0, v("y")))))


def _snoc(n: int):
    if n == 0:
        return SNOC0
    return lam(
        pair(v("x"), pair(v("y"), v("z"))), pair(v("y"), app(_snoc(n - 1), pair(v("x"), v("z"))))
    )


def _rev(n: int):
    if n == 0:
        return REV0
    return lam(pair(v("x"), v("y")), app(_snoc(n - 1), pair(v("x"), app(_rev(n - 1), v("y")))))


# @rotations{1} and @qft{1}
ROT1 = lam(pair(v("x"), UNIT), pair(app(HAD, v("x")), UNIT))
QFT1 = lam(
    v("x"),
    let(pair(v("x0"), v("x'")), app(ROT1, v("x")), pair(v("x0"), app(ID, v("x'")))),
)
ADJ_QFT1 = PrPmatch((CoreArm(app(QFT1, v("x")), v("x")),))


def _ctrl(scrutinee, arms, else_body=None) -> ExCtrl:
    return ExCtrl(scrutinee, tuple(CoreArm(p, b) for p, b in arms), else_body)


def _expected_qft(p):
    return app(QFT1, pair(bit(p["v"] % 2), UNIT))


def _expected_add_const(p):
    a = p["a"] % 2
    arms = (
        CoreArm(pair(ZERO, v("x")), pair(bit(a), app(ID, v("x")))),
        CoreArm(pair(ONE, v("x")), pair(bit(1 - a), app(ID, v("x")))),
    )
    return app(PrPmatch(arms), pair(bit(p["v"] % 2), UNIT))


def _cnot3(i: int, j: int):
    """@cnot{3, i, j} for the two instances @cdkm_uma uses."""

    def gate(k: int):  # @gate_1q{k + 1, k, @not}
        if k == 0:
            return lam(pair(v("x"), v("y")), pair(app(NOT, v("x")), v("y")))
        return lam(pair(v("x"), v("y")), pair(v("x"), app(gate(k - 1), v("y"))))

    def ctrl_down(jj: int):  # @controlled_1q{3, 0, jj, @not}
        return lam(
            pair(v("x"), v("y")),
            _ctrl(
                v("x"),
                [(ZERO, pair(v("x"), v("y"))), (ONE, pair(v("x"), app(gate(jj - 1), v("y"))))],
            ),
        )

    if i == 0:
        return ctrl_down(j)
    rev3 = _rev(3)
    return lam(v("x"), app(rev3, app(ctrl_down(2 - j), app(rev3, v("x")))))


def _maj():
    a, b, c = v("a"), v("b"), v("c")
    inner = lam(
        pair(c, pair(a, b)),
        _ctrl(pair(a, b), [(pair(ONE, ONE), pair(pair(a, b), app(NOT, c)))], pair(pair(a, b), c)),
    )
    first = _ctrl(c, [(ZERO, pair(c, pair(a, b))), (ONE, pair(c, pair(app(NOT, a), app(NOT, b))))])
    return lam(pair(pair(a, b), c), app(inner, first))


def _uma():
    a, b, c = v("a"), v("b"), v("c")
    flat = pair(a, pair(b, pair(c, UNIT)))
    unflat = lam(flat, pair(pair(a, b), c))
    inner = lam(pair(pair(a, b), c), app(unflat, app(_cnot3(0, 1), app(_cnot3(2, 0), flat))))
    first = _ctrl(pair(a, b), [(pair(ONE, ONE), pair(pair(a, b), app(NOT, c)))], pair(pair(a, b), c))
    return lam(pair(pair(a, b), c), app(inner, first))


def _expected_rev_adder(p):
    a0, a1, b0, b1, c = v("a0"), v("a1"), v("b0"), v("b1"), v("c")
    ca, ba, c1, c2, s0, s1 = v("ca"), v("ba"), v("c1"), v("c2"), v("s0"), v("s1")
    helper = lam(
        pair(pair(pair(a0, a1), pair(b0, b1)), c),
        let(
            pair(pair(pair(ca, ba), c1), pair(a1, b1)),
            pair(app(_maj(), pair(pair(c, b0), a0)), pair(a1, b1)),
            let(
                pair(pair(ca, ba), pair(pair(a1, s1), c2)),
                pair(pair(ca, ba), app(ID, pair(pair(a1, b1), c1))),
                let(
                    pair(pair(a1, s1), pair(pair(c, s0), a0)),
                    pair(pair(a1, s1), app(_uma(), pair(pair(ca, ba), c2))),
                    pair(pair(pair(a0, a1), pair(s0, s1)), c),
                ),
            ),
        ),
    )
    a, b, x = v("a"), v("b"), v("x")
    adder = lam(
        pair(a, b), app(lam(pair(x, ZERO), x), app(helper, pair(pair(a, b), ZERO)))
    )
    return app(adder, pair(pair(bit(p["v"] % 2), UNIT), pair(bit(p["w"] % 2), UNIT)))


def _expected_phase_estimation(p):
    phase = 2 * math.pi * p["k"] / 2
    x0, x1 = v("x0"), v("x1")
    apply_phase = lam(
        pair(x0, x1),
        pair(
            _ctrl(x0, [(ZERO, x0), (ONE, app(PrRphase(v("_"), phase, phase), x0))]),
            app(ID, x1),
        ),
    )
    return app(REV1, app(ADJ_QFT1, app(apply_phase, pair(PLUS, UNIT))))


def _expected_grover(p):  # one Grover iteration
    t_list0 = TySum(T_UNIT, TyVoid())
    payload = TyProd(T_BIT, t_list0)
    empty = app(PrLeft(T_UNIT, payload), UNIT)
    cons = PrRight(T_UNIT, payload)
    theta = 2 * math.acos(math.sqrt(1 / 3))
    superpos = app(
        PrPmatch(
            (
                CoreArm(ZERO, empty),
                CoreArm(ONE, app(cons, pair(PLUS, app(PrLeft(T_UNIT, TyVoid()), UNIT)))),
            )
        ),
        app(PrU3(theta, 0, 0), ZERO),
    )
    odd0 = lam(v("l"), ZERO)
    l, l1, x = v("l"), v("l1"), v("x")
    oracle = lam(
        l,
        ExMatch(
            l,
            (
                CoreArm(empty, ZERO),
                CoreArm(app(cons, pair(ZERO, l1)), app(odd0, l1)),
                CoreArm(app(cons, pair(ONE, l1)), app(NOT, app(odd0, l1))),
            ),
        ),
    )
    reflect = PrRphase(superpos, 0, math.pi)
    step = lam(
        x,
        app(
            reflect,
            _ctrl(app(oracle, x), [(ZERO, x), (ONE, app(PrRphase(v("_"), math.pi, math.pi), x))]),
        ),
    )
    return app(step, superpos)


def _expected_order_finding(p):
    x0, x1, y = v("x0"), v("x1"), v("y")
    mod_exp = lam(
        pair(pair(x0, x1), y),
        let(
            pair(pair(x0, x1), y),
            _ctrl(x0, [(ZERO, pair(pair(x0, x1), y)), (ONE, pair(pair(x0, x1), app(ID, y)))]),
            let(
                pair(x0, pair(x1, y)),
                pair(x0, app(ID, pair(x1, y))),
                pair(pair(x0, x1), y),
            ),
        ),
    )
    fst = lam(pair(v("x"), v("y")), v("x"))
    start = pair(pair(PLUS, UNIT), pair(ONE, UNIT))
    return app(REV1, app(ADJ_QFT1, app(fst, app(mod_exp, start))))


# family -> (parameters of the smallest instance, builder of its expected core)
EXPECTED = {
    "qft": ({"v": 1}, _expected_qft),
    "add_const": ({"a": 1, "v": 0}, _expected_add_const),
    "rev_adder": ({"v": 1, "w": 1}, _expected_rev_adder),
    "phase_estimation": ({"k": 1}, _expected_phase_estimation),
    "grover": ({"iters": 1}, _expected_grover),
    "order_finding": ({"a": 1}, _expected_order_finding),
}
