"""The prelude's arithmetic registers, shared by the tests of S:
``Num{n}`` values, and the core programs that act on them."""

from qunic.preprocess import core_of_source
from qunic.semantics import LEFT, RIGHT

N = 16  # the width of a register
SAMPLES = 25  # random inputs per program


def num(n: int, k: int):
    """The little-endian ``Num{n}`` value of ``k mod 2^n``."""
    v = ()
    for i in reversed(range(n)):
        v = ((RIGHT if k >> i & 1 else LEFT, ()), v)
    return v


def registers_at(widths, ks):
    """The basis value of ``Num{w}`` holding ``k``, for each pair of
    ``widths`` and ``ks``: one register, or a pair."""
    values = [num(w, k) for w, k in zip(widths, ks)]
    return values[0] if len(values) == 1 else tuple(values)


def registers(*widths: int) -> list:
    """Every basis value of ``Num{w}``, or of ``Num{w1} * Num{w2}``."""
    values = [num(widths[0], x) for x in range(2 ** widths[0])]
    if len(widths) == 1:
        return values
    return [(v, num(widths[1], y)) for v in values for y in range(2 ** widths[1])]


def adjoint(name: str, *widths: int) -> str:
    """``@adjoint{T, T, name}`` for ``T`` the registers of these widths:
    ``Num{a}``, or ``Num{a} * Num{b}``."""
    ty = " * ".join(f"Num{{{w}}}" for w in widths)
    return f"@adjoint{{{ty}, {ty}, {name}}}"


def program(name: str, *inputs: int):
    """The core program ``name``, applied to ``&num_to_state`` inputs of these widths."""
    states = [f"&num_to_state{{{n}, 0}}" for n in inputs]
    arg = states[0] if len(states) == 1 else f"({', '.join(states)})"
    return core_of_source(f"{arg} |> {name}").fn


# The prelude's @add_const as it was before it was built on @inc, as a user
# definition: a match on the low bit with one call per arm, so its tree
# doubles with each bit while its DAG grows with #n.
ADD_CONST_TREE = """
def @add_const_tree{#n, #a} : Num{#n} -> Num{#n} :=
  if #n <= 0 then @id{Unit}
  else pmatch [
    (&0, x) -> (if #a % 2 = 1 then &1 else &0 endif,
                @add_const_tree{#n - 1, ((#a - #a % 2) / 2) % 2 ^ (#n - 1)}(x));
    (&1, x) -> (if #a % 2 = 1 then &0 else &1 endif,
                @add_const_tree{#n - 1, ((#a - #a % 2) / 2 + #a % 2) % 2 ^ (#n - 1)}(x))
  ]
  endif
end
"""
