import numpy as np
import pytest

from quasicheck import expr as ex


def random_smooth_expr(rng: np.random.Generator, n: int, depth: int = 3):
    """Random AST that is smooth and bounded on [-1, 1]^n: polynomials in
    sin/cos/+/-/* with small constants. Used for AD-vs-FD checks."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Const(round(float(rng.uniform(0.1, 2.0)), 3))
        return ex.Var(int(rng.integers(1, n + 1)))
    pick = rng.random()
    if pick < 0.5:
        op = ["+", "-", "*"][int(rng.integers(0, 3))]
        return ex.Binary(op, random_smooth_expr(rng, n, depth - 1),
                         random_smooth_expr(rng, n, depth - 1))
    if pick < 0.8:
        name = ["sin", "cos"][int(rng.integers(0, 2))]
        return ex.Call(name, (random_smooth_expr(rng, n, depth - 1),))
    return ex.Unary("-", random_smooth_expr(rng, n, depth - 1))


def random_ast(rng: np.random.Generator, n: int, depth: int = 4):
    """Random AST over the full grammar (for print/parse round trips)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ex.Const(round(float(rng.uniform(0.0, 9.0)), 4))
        return ex.Var(int(rng.integers(1, n + 1)))
    pick = rng.random()
    if pick < 0.45:
        op = ["+", "-", "*", "/", "^"][int(rng.integers(0, 5))]
        return ex.Binary(op, random_ast(rng, n, depth - 1),
                         random_ast(rng, n, depth - 1))
    if pick < 0.6:
        return ex.Unary("-", random_ast(rng, n, depth - 1))
    unary = ["sin", "cos", "exp", "log", "sqrt", "abs"]
    binary = ["min", "max", "pow"]
    if rng.random() < 0.6:
        name = unary[int(rng.integers(0, len(unary)))]
        return ex.Call(name, (random_ast(rng, n, depth - 1),))
    name = binary[int(rng.integers(0, len(binary)))]
    return ex.Call(name, (random_ast(rng, n, depth - 1),
                          random_ast(rng, n, depth - 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture
def helper_blocks(monkeypatch):
    """The blocks that `conditions._in_lanes` hands to helper threads, as
    ((lo, k), future) in the order submitted."""
    from quasicheck import conditions

    submitted = []
    helpers = conditions._helpers

    class Recording:
        def submit(self, fn, *block):
            submitted.append((block, helpers().submit(fn, *block)))
            return submitted[-1][1]

    monkeypatch.setattr(conditions, "_helpers", Recording)
    return submitted
