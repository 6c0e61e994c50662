"""Hypothesis strategies for core terms shared by the test modules."""

from hypothesis import strategies as st

from qunic.core import RBinary, RUnary


def real_trees(leaves, depth: int, unary=(), binary="+-*/%^", exponents=None):
    """Real trees at most ``depth`` operators deep over the strategy
    ``leaves``: ``RUnary`` nodes of the operators in ``unary``, ``RBinary``
    nodes of those in ``binary``, and, if ``exponents`` is a strategy, ``^``
    nodes whose right operand it draws."""
    if depth == 0:
        return leaves
    sub = real_trees(leaves, depth - 1, unary, binary, exponents)
    trees = [sub]
    if unary:
        trees.append(st.builds(RUnary, st.sampled_from(unary), sub))
    if binary:
        trees.append(st.builds(RBinary, st.sampled_from(binary), sub, sub))
    if exponents is not None:
        trees.append(st.builds(RBinary, st.just("^"), sub, exponents))
    return st.one_of(trees)
