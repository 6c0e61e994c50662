"""Seeded operation lists for the compile benchmark.

Every operation compiles one generated Qunity source through the front end
(``core_of_source``); in the ``dump_core`` workload it also prints the core
(``core_expr_to_str``), which is the ``--dump-core`` path.  The program only
ever sees the generated source text.

A workload is a fixed grid of *cells* (family and size, plus for
``shor_unroll`` the constant ``a``).  One round visits every cell once, in an
order the seed shuffles; the seed also draws each source's input values and
the names of its own definitions.  The cost-relevant parameters sit in the
cells, so two seeds run the same mix of work and their figures are
comparable, while the op list is still a seeded draw.  The number of rounds
is a pure function of ``--seconds``, so two commits always run the same op
list for the same arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAMILIES = ("qft", "add_const", "rev_adder", "phase_estimation", "grover", "order_finding")


@dataclass(frozen=True)
class Op:
    family: str
    n: int
    source: str
    dump: bool  # also print the core, as --dump-core does


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[tuple, ...]  # (family, n) or (family, n, a)
    dump: bool
    round_seconds: float  # wall time of one round with checks, at the seed commit
    probes: tuple[tuple[str, int], ...] = ()  # oversized sources, traced run only


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small_programs",
            "Typical CLI programs from every prelude family at small n: the prelude lex "
            "and parse dominate, and elaboration with a fresh Elaborator per call is light.",
            # grover and order_finding grow exponentially in n, hence their lower cap
            tuple((f, n) for f in FAMILIES[:4] for n in range(1, 13))
            + tuple((f, n) for f in FAMILIES[4:] for n in range(1, 7)),
            dump=False,
            round_seconds=7.5,
        ),
        Workload(
            "shor_unroll",
            "order_finding{n, a} at n 8..12: thousands of memoized instantiations and "
            "bignum real arithmetic, so preprocess and reals dominate and the front end is small.",
            tuple(("order_finding", n, a) for n in range(8, 13) for a in (3, 7, 11)),
            dump=False,
            round_seconds=7.5,
        ),
        Workload(
            "dump_core",
            "The --dump-core path on wide qft, rev_adder and phase_estimation: prints a "
            "shared DAG instead of building and hashing one, unlike shor_unroll.",
            tuple(("qft", n) for n in range(48, 81, 8))
            + tuple(("rev_adder", n) for n in range(32, 57, 8))
            + tuple(("phase_estimation", n) for n in range(16, 41, 8)),
            dump=True,
            round_seconds=3.75,
            probes=(("qft", 128), ("rev_adder", 128)),
        ),
    )
}


def draw_params(family: str, n: int, rng: random.Random) -> dict:
    """Input values for one source; none of them changes the amount of work much."""
    if family == "qft":
        return {"v": rng.randrange(2**n)}
    if family == "add_const":
        return {"a": rng.randrange(2**n), "v": rng.randrange(2**n)}
    if family == "rev_adder":
        return {"v": rng.randrange(2**n), "w": rng.randrange(2**n)}
    if family == "phase_estimation":
        return {"k": rng.randrange(2**n)}
    if family == "grover":
        return {"iters": rng.randint(1, 3)}
    if family == "order_finding":
        return {"a": 2 * rng.randrange(2 ** (n - 1)) + 1}
    raise ValueError(f"unknown family {family!r}")


def source(family: str, n: int, params: dict, tag: str = "") -> str:
    """Qunity source for one program of ``family`` at size ``n``.

    Each source declares a few definitions of its own (a register type, its
    inputs, the circuit or result) and ends in a main expression using them.
    ``tag`` only renames those definitions.
    """
    head = f"/* {family} at n = {n} */\n"
    if family in ("qft", "add_const"):
        call = f"@qft{{{n}}}" if family == "qft" else f"@add_const{{{n}, {params['a']}}}"
        return head + (
            f"type Reg{tag} := Num{{{n}}} end\n"
            f"def &input{tag} : Reg{tag} := &num_to_state{{{n}, {params['v']}}} end\n"
            f"def @circuit{tag} : Reg{tag} -> Reg{tag} := {call} end\n"
            f"&input{tag} |> @circuit{tag}\n"
        )
    if family == "rev_adder":
        return head + (
            f"type Reg{tag} := Num{{{n}}} end\n"
            f"def &lhs{tag} : Reg{tag} := &num_to_state{{{n}, {params['v']}}} end\n"
            f"def &rhs{tag} : Reg{tag} := &num_to_state{{{n}, {params['w']}}} end\n"
            f"def @circuit{tag} : Reg{tag} * Reg{tag} -> Reg{tag} * Reg{tag} := "
            f"@rev_adder{{{n}}} end\n"
            f"(&lhs{tag}, &rhs{tag}) |> @circuit{tag}\n"
        )
    if family == "phase_estimation":
        return head + (
            f"def #phase{tag} := {params['k']} / 2 ^ {n} end\n"
            f"def &estimate{tag} : Num{{{n}}} := &phase_estimation{{{n}, #phase{tag}}} end\n"
            f"&estimate{tag}\n"
        )
    if family == "grover":
        return head + (
            f"type Entries{tag} := List{{{n}, Bit}} end\n"
            f"def @oracle{tag} : Entries{tag} -> Bit := @is_odd_sum{{{n}}} end\n"
            f"def &search{tag} : Entries{tag} := &grover{{Entries{tag}, "
            f"&equal_superpos_list{{{n}}}, @oracle{tag}, {params['iters']}}} end\n"
            f"&search{tag}\n"
        )
    if family == "order_finding":
        return head + (
            f"def #base{tag} := {params['a']} end\n"
            f"def &period{tag} : Num{{{n}}} := &order_finding{{{n}, #base{tag}}} end\n"
            f"&period{tag}\n"
        )
    raise ValueError(f"unknown family {family!r}")


def rounds_for(workload: Workload, seconds: int) -> int:
    return max(1, round(seconds / workload.round_seconds))


def op_list(workload: Workload, seed: int, seconds: int) -> list[Op]:
    """The fixed op list for ``(workload, seed, seconds)``."""
    rng = random.Random(f"{workload.name}:{seed}")
    ops = []
    for _ in range(rounds_for(workload, seconds)):
        cells = list(workload.cells)
        rng.shuffle(cells)
        for cell in cells:
            family, n = cell[0], cell[1]
            params = draw_params(family, n, rng)
            if len(cell) == 3:
                params["a"] = cell[2]
            tag = f"_{rng.randrange(1000)}"
            ops.append(Op(family, n, source(family, n, params, tag), workload.dump))
    return ops


def probe_list(workload: Workload, seed: int) -> list[Op]:
    """Oversized sources that exercise the size limits; not part of the op list."""
    rng = random.Random(f"{workload.name}:probes:{seed}")
    return [
        Op(family, n, source(family, n, draw_params(family, n, rng)), workload.dump)
        for family, n in workload.probes
    ]
