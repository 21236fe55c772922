import gc
import hashlib
import io
import keyword
import math
import re
import threading
import tokenize
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasicheck import expr as ex
from quasicheck.families import family_by_name
from quasicheck.expr import (Binary, Call, Const, Param, ParseError, Unary,
                             Var, parse, pretty_print)
from quasicheck.field import (DomainBox, ScalarField, catalog_field,
                              make_field_from_expr, validate_grad)
from conftest import random_ast, random_smooth_expr


def v(i):
    return Var(i)


def c(x):
    return Const(float(x))


# (source, dimension, expected AST)
VALID_CORPUS = [
    ("x1^2 + x2^2", 2,
     Binary("+", Binary("^", v(1), c(2)), Binary("^", v(2), c(2)))),
    ("1+2*3", 1, Binary("+", c(1), Binary("*", c(2), c(3)))),
    ("1*2+3", 1, Binary("+", Binary("*", c(1), c(2)), c(3))),
    ("2^3^2", 1, Binary("^", c(2), Binary("^", c(3), c(2)))),
    ("-x1^2", 1, Binary("^", Unary("-", v(1)), c(2))),
    ("1-2-3", 1, Binary("-", Binary("-", c(1), c(2)), c(3))),
    ("8/4/2", 1, Binary("/", Binary("/", c(8), c(4)), c(2))),
    ("sin(x1)", 1, Call("sin", (v(1),))),
    ("min(x1, x2)", 2, Call("min", (v(1), v(2)))),
    ("max(1, 2)", 1, Call("max", (c(1), c(2)))),
    ("pow(x1, 2)", 1, Call("pow", (v(1), c(2)))),
    ("abs(-x1)", 1, Call("abs", (Unary("-", v(1)),))),
    ("sqrt(x1)", 1, Call("sqrt", (v(1),))),
    ("log(exp(x1))", 1, Call("log", (Call("exp", (v(1),)),))),
    ("(x1)", 1, v(1)),
    ("((1))", 1, c(1)),
    ("1e3", 1, c(1000)),
    ("2.5e-2", 1, c(0.025)),
    (".5", 1, c(0.5)),
    ("1.5E+2", 1, c(150)),
    ("x1*-x2", 2, Binary("*", v(1), Unary("-", v(2)))),
    ("-(x1+1)", 1, Unary("-", Binary("+", v(1), c(1)))),
    ("x10", 10, v(10)),
    ("x1 - -x1", 1, Binary("-", v(1), Unary("-", v(1)))),
    ("cos(x1)*sin(x2)", 2,
     Binary("*", Call("cos", (v(1),)), Call("sin", (v(2),)))),
    ("x1/x2 + 1", 2, Binary("+", Binary("/", v(1), v(2)), c(1))),
    ("2 ^ x1", 1, Binary("^", c(2), v(1))),
    ("min(max(x1,0),1)", 1,
     Call("min", (Call("max", (v(1), c(0))), c(1)))),
    ("1 + 2 + 3", 1, Binary("+", Binary("+", c(1), c(2)), c(3))),
    ("x2^2*x1", 2, Binary("*", Binary("^", v(2), c(2)), v(1))),
]

# (source, dimension, expected error offset)
MALFORMED_CORPUS = [
    ("sin(x1", 1, 6),
    ("x3", 2, 0),
    ("", 1, 0),
    ("2x1", 1, 1),
    ("foo(1)", 1, 0),
    ("sin(1,2)", 1, 0),
    ("min(1)", 1, 0),
    ("1+", 1, 2),
    ("(1+2", 1, 4),
    ("1+*2", 1, 2),
    ("x0", 1, 0),
    ("1..2", 1, 2),
    ("@", 1, 0),
    ("pow(2,)", 1, 6),
    ("min(1 2)", 1, 6),
    ("x1 + 1e999", 1, 5),
]


@pytest.mark.parametrize("source,dim,expected", VALID_CORPUS,
                         ids=[s for s, _, _ in VALID_CORPUS])
def test_parse_valid(source, dim, expected):
    assert parse(source, dim) == expected


@pytest.mark.parametrize("source,dim,pos", MALFORMED_CORPUS,
                         ids=[repr(s) for s, _, _ in MALFORMED_CORPUS])
def test_parse_malformed(source, dim, pos):
    with pytest.raises(ParseError) as err:
        parse(source, dim)
    assert err.value.pos == pos


def test_corpus_size():
    assert len(VALID_CORPUS) + len(MALFORMED_CORPUS) >= 40


@pytest.mark.parametrize("source,dim,_", VALID_CORPUS,
                         ids=[s for s, _, _ in VALID_CORPUS])
def test_pretty_print_round_trip_corpus(source, dim, _):
    e = parse(source, dim)
    assert parse(pretty_print(e), dim) == e


def test_pretty_print_examples():
    assert pretty_print(Binary("+", v(1), c(2))) == "(x1 + 2.0)"
    assert pretty_print(Binary("^", v(1), c(2))) == "(x1 ^ 2.0)"


def test_pretty_print_round_trip_random(rng):
    n = 3
    for _ in range(1000):
        e = random_ast(rng, n)
        s = pretty_print(e)
        assert parse(s, n) == e, s


# ---------------------------------------------------------------------------
# Evaluation: a field's values and gradients are one compiled program's


def field(source, n=1):
    return make_field_from_expr(source, n, DomainBox.cube(-1, 1, n))


def test_eval_examples():
    assert field("x1^2").values([3.0]) == 9
    assert field("sin(x1)").values([0.0]) == 0
    assert field("x1*x2 + 1", 2).values([2.0, 5.0]) == 11


def test_eval_domain_errors():
    for source, x in [("log(x1)", 0.0), ("1/x1", 0.0), ("sqrt(x1)", -1.0),
                      ("pow(x1, 0.5)", -1.0)]:
        f = field(source)
        assert not np.isfinite(f.values([x])), source
        assert np.all(np.isnan(f.grads([x]))), source


# (source, a point outside its domain); every source is valid at x1 = 0.5.
# The last two fail inside an operand, or at two nodes
INVALID_POINTS = [
    ("1 + 1/x1", 0.0),
    ("1 + log(x1)", 0.0),
    ("1 + sqrt(x1)", -1.0),
    ("1 + pow(x1, 0.5)", 0.0),
    ("1 + x1^-2", 0.0),
    ("1 + x1^0.5", -1.0),
    ("1 + x1^log(x1)", -1.0),
    ("log(x1) + 1/x1", 0.0),
]


@pytest.mark.parametrize("source,x", INVALID_POINTS,
                         ids=[s for s, _ in INVALID_POINTS])
def test_eval_error_position(source, x):
    # an invalid point is found by its row: in a batch with valid points,
    # only its value is not finite (NaN or an infinity) and only its
    # gradient row is NaN
    f = field(source)
    X = np.array([[0.5], [x], [0.5]])
    assert np.isfinite(f.values(X)).tolist() == [True, False, True]
    G = f.grads(X)
    assert np.all(np.isnan(G[1])) and np.all(np.isfinite(G[[0, 2]]))


def test_power_rules():
    # integer exponents are fine on negative bases
    assert field("(0-2)^3").values([0.0]) == -8
    assert field("(0-2)^-2").values([0.0]) == 0.25
    # non-integer exponents require a positive base; a general exponent
    # does so even where it happens to be an integer
    for source, x in [("(0-2)^0.5", 0.0), ("(0-2)^x1", 1.5), ("(0-2)^x1", 2.0)]:
        f = field(source)
        assert np.isnan(f.values([x])) and np.all(np.isnan(f.grads([x])))
    assert field("4^0.5").values([0.0]) == 2
    assert field("x1^0.5").values([4.0]) == 2


# every integer power the compiler lowers: numpy's own power for k = -1, 1
# and 2, |x|^k with x's sign (`_ipow`) for the others
INT_POWERS = [k for k in range(-6, 8) if k]


def int_power_program(k):
    return ex.compile_expr(parse(f"x1^{k}" if k > 0 else f"x1^-{-k}", 1), 1)


def _same_bits(a, b):
    """Equal bit for bit, a NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64))


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-300, 1e300, 1.5, -1.5]
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from(INT_POWERS),
       xs=st.lists(floats, min_size=1, max_size=8))
def test_integer_power_is_odd_or_even_bit_for_bit(k, xs):
    # x^k at -x is (-1)^k x^k, and its derivative (-1)^(k-1) k x^(k-1),
    # for every float, ±0, ±inf, NaN and subnormals included
    prog = int_power_program(k)
    X = np.array(xs + SPECIAL)[:, None]
    one = np.ones_like(X)
    with np.errstate(all="ignore"):
        v, G = prog.dual(X, one)
        w, H = prog.dual(-X, one)
    odd = k % 2
    assert _same_bits(w, -v if odd else v)
    assert _same_bits(H, G if odd else -G)


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from(INT_POWERS),
       xs=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                             allow_subnormal=True), min_size=1, max_size=8))
def test_integer_power_is_within_one_ulp(k, xs):
    # every finite value is within one ulp of the exact power
    with np.errstate(all="ignore"):
        values = int_power_program(k).value(np.array(xs)[:, None])
    for x, v in zip(xs, values.tolist()):
        if math.isfinite(v) and (x or k > 0):
            exact = Fraction(x) ** k
            assert abs(Fraction(v) - exact) <= Fraction(math.ulp(v)), (x, k, v)


@settings(max_examples=100, deadline=None)
@given(k=st.sampled_from(INT_POWERS),
       xs=st.lists(st.floats(-3, 3), min_size=2, max_size=40))
def test_integer_power_row_equals_the_point_alone(k, xs):
    prog = int_power_program(k)
    X = np.array(xs)[:, None]
    with np.errstate(all="ignore"):
        v, G = prog.dual(X, np.ones_like(X))
        for i, x in enumerate(X):
            one, g = prog.dual(x, np.ones(1))
            assert _same_bits(prog.value(x), v[i]) and _same_bits(one, v[i])
            assert _same_bits(g, G[i])


@pytest.mark.parametrize("k", INT_POWERS)
def test_integer_power_gradients_match_central_differences(k):
    # negative powers on boxes away from their pole at 0; the deviation is
    # relative to the largest |k x^(k-1)| on the box, at one of its ends
    boxes = [(-2.0, 2.0)] if k > 0 else [(0.5, 2.0), (-2.0, -0.5)]
    for lo, hi in boxes:
        f = make_field_from_expr(f"x1^{k}" if k > 0 else f"x1^-{-k}", 1,
                                 DomainBox.cube(lo, hi, 1))
        scale = max(abs(k * x ** (k - 1)) for x in (lo, hi))
        assert validate_grad(f, seed=k + 10, count=50).passed(1e-8 * scale), (k, lo)


def test_integer_power_helper_is_alias_safe():
    # with out = a, the sign is taken before out is written
    a = np.array([-2.0, -0.0, 0.5, -3.0, math.inf, -5e-324])
    for k in (3.0, -3.0, 4.0, 7.0):
        with np.errstate(all="ignore"):
            ref = ex._ipow(a.copy(), k)
            b = a.copy()
            assert ex._ipow(b, k, out=b) is b and _same_bits(b, ref)
            # a point alone: 0-d operands and registers
            for x, r in zip(a, ref):
                out = np.empty(())
                assert ex._ipow(np.array(x), k, out=out) is out and _same_bits(out, r)
                assert _same_bits(ex._ipow(np.array(x), k), r)
    alone = ex._ipow(np.array(-2.0), 3.0)   # a scalar, as numpy's power gives
    assert alone == -8.0 and np.ndim(alone) == 0


def test_integer_power_of_a_constant_and_of_a_parameter():
    # a constant subtree and a parameter-only base t1^3 run without a
    # register, and keep the sign of a negative base
    prog = ex.compile_expr(parse("(0-2)^3*x1 + t1^3 + t1^4", 1, 1), 1, 1)
    for line in ("v2 = _ipow(v1, 3.0)", "v5 = _ipow(p1, 3.0)", "v7 = _ipow(p1, 4.0)"):
        assert line + "\n" in prog.source   # no out=: none depends on x
    X = np.array([[1.0], [2.0], [-1.0]])
    T = np.array([[-1.5], [0.5], [-2.0]])
    t = T[:, 0]
    assert np.array_equal(prog.value(X, T), -8.0 * X[:, 0] + (t * t * t + t ** 4))
    for i in range(3):
        assert prog.value(X[i], T[i]) == prog.value(X, T)[i]
        assert prog.value(X, T[i])[i] == prog.value(X, T)[i]
    assert np.array_equal(prog.dual(X, np.ones_like(X), T)[1], np.full(3, -8.0))


def test_integer_power_allocates_no_temporary():
    # the helper writes |a|, then |a|^k, then the sign into its register
    a = np.linspace(-2.0, 2.0, 100_000)   # 0 left out
    out = np.empty_like(a)
    tracemalloc.start()
    try:
        for k in (3.0, 4.0, -5.0):
            ex._ipow(a, k, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_eval_dual_examples():
    x = np.array([3.0])
    assert field("x1^2").program.dual(x, np.ones(1)) == (9.0, 6.0)
    assert field("x1^2").grads(x).tolist() == [6.0]
    x = np.array([2.0, 5.0])
    assert field("x1*x2", 2).program.dual(x, np.array([1.0, -1.0])) == (10.0, 3.0)
    assert field("x1*x2", 2).grads(x).tolist() == [5.0, 2.0]


# (source, dimension, point, direction, slope along it or NaN): a tie of
# abs/min/max that f takes gives a NaN slope, in every direction, even
# along the tie; a kink where f equals another branch (or 1, for a^0)
# near the point leaves f differentiable there
TIES = [
    ("abs(x1)", 1, [0.0], [1.0], math.nan),
    ("abs(x1)", 1, [-0.0], [1.0], math.nan),
    ("abs(x1)", 1, [3.0], [2.0], 2.0),
    ("abs(x1)", 1, [-3.0], [2.0], -2.0),
    ("abs(x1 - x2)", 2, [0.5, 0.5], [1.0, 1.0], math.nan),
    ("min(x1, 2*x1 - 2)", 1, [2.0], [1.0], math.nan),
    ("min(x1, 2*x1 - 2)", 1, [3.0], [1.0], 1.0),
    ("min(abs(x1), 0.5)", 1, [0.0], [1.0], math.nan),
    ("min(abs(x1), 0.5)", 1, [-0.5], [1.0], math.nan),
    ("x1^abs(x2)", 2, [2.0, 0.0], [1.0, 0.0], math.nan),
    ("max(abs(x1), 0.5)", 1, [0.0], [1.0], 0.0),
    ("max(x1, abs(x1 - x2))", 2, [2.0, 2.0], [1.0, -1.0], 1.0),
    ("abs(x1)^0", 1, [0.0], [1.0], 0.0),
]


def test_a_tie_that_f_takes_gives_a_nan_slope():
    for source, n, x, d, slope in TIES:
        f = field(source, n)
        x, d = np.array(x), np.array(d)
        with np.errstate(invalid="ignore"):   # 0/0 and NaN * 1.0 at a tie
            value, got = f.program.dual(x, d)
        assert value == f.values(x) and np.isfinite(value), source
        if math.isnan(slope):
            assert np.isnan(got) and np.isnan(f.grads(x)).all(), source
        else:
            assert got == slope and np.isfinite(f.grads(x)).all(), source
    # in a batch only the tie's row is NaN
    G = field("abs(x1)").grads(np.array([[0.0], [3.0], [-3.0]]))
    assert np.isnan(G[0, 0]) and G[1:, 0].tolist() == [1.0, -1.0]


def test_dual_general_power_includes_exponent_derivative():
    # d/dx 2^x = 2^x ln 2
    f = field("2^x1")
    assert f.values(np.array([3.0])) == pytest.approx(8.0)
    assert f.grads(np.array([3.0]))[0] == pytest.approx(8.0 * math.log(2.0))


def test_ad_matches_central_differences(rng):
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        f = make_field_from_expr(random_smooth_expr(rng, n), n,
                                 DomainBox.cube(-1, 1, n))
        for _ in range(5):
            x = rng.uniform(-1, 1, size=n)
            d = rng.normal(size=n)
            d /= max(1.0, np.linalg.norm(d))
            h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
            fd = (f.values(x + h * d) - f.values(x - h * d)) / (2 * h)
            assert abs(f.grads(x) @ d - fd) <= 1e-6, f.program.source
            checked += 1
    assert checked >= 200


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_non_finite_value_has_nan_gradient_row(seed, n):
    # whatever the rules give for the partial derivatives at a point
    # outside the expression's domain, grads reports the row as NaN; the
    # points reach past [-1, 1] so that log, sqrt and powers leave it
    rng = np.random.default_rng(seed)
    f = make_field_from_expr(random_ast(rng, n), n, DomainBox.cube(-1, 1, n))
    X = rng.uniform(-3, 3, size=(64, n))
    X[::4] = np.round(X[::4])   # integers hit poles and zero bases
    bad = ~np.isfinite(f.values(X))
    G = f.grads(X)
    assert np.all(np.isnan(G[bad]))


_UNARY = {"sin": (np.sin, np.cos), "cos": (np.cos, lambda a: -np.sin(a)),
          "exp": (np.exp, np.exp), "log": (np.log, lambda a: 1.0 / a),
          "sqrt": (np.sqrt, lambda a: 0.5 / np.sqrt(a))}


def reference_dual(e, X, D=None, tie=math.nan):
    """(f, grad f, m) at the points X by dense forward mode, one recursive
    pass over the AST with the compiler's derivative rules; given
    directions D (one per point), (f, <grad f, d>, m) by the same pass
    seeded with D instead of the unit vectors. m is the tangent of the same
    pass over |seeds| with each term's factor taken in absolute value and
    the terms added: it bounds every term the pass sums on the way, carried
    to the root, so rounding of the tangent is a few ulps of m. At an exact
    tie of abs (a == 0) or min/max (a == b) the derivative factor is `tie`,
    NaN as in the compiler by default."""
    seeds = np.eye(X.shape[-1]) if D is None else D[..., None]
    if isinstance(e, Const):
        zero = np.zeros(X.shape[:-1] + seeds.shape[-1:])
        return np.full(X.shape[:-1], e.value), zero, zero
    if isinstance(e, Var):
        seed = np.broadcast_to(seeds[..., e.index - 1, :], X.shape[:-1] + seeds.shape[-1:])
        return X[..., e.index - 1], seed, np.abs(seed)
    if isinstance(e, Unary):
        a, ta, ma = reference_dual(e.child, X, D, tie)
        return -a, -ta, ma
    if isinstance(e, Call) and e.name in _UNARY:
        (a, ta, ma), (fn, d) = reference_dual(e.args[0], X, D, tie), _UNARY[e.name]
        return fn(a), d(a)[..., None] * ta, np.abs(d(a))[..., None] * ma
    if isinstance(e, Call) and e.name == "abs":
        a, ta, ma = reference_dual(e.args[0], X, D, tie)
        sign = np.where(a == 0, tie, np.sign(a))[..., None]
        return np.abs(a), sign * ta, np.abs(sign) * ma
    (a, ta, ma), (b, tb, mb) = (reference_dual(x, X, D, tie) for x in
                                (e.args if isinstance(e, Call) else (e.left, e.right)))
    op = e.name if isinstance(e, Call) else e.op
    k = ex._int_exponent(e.right) if op == "^" else None
    if k is not None:
        factor = (k * a ** float(k - 1))[..., None]
        return a ** float(k), factor * ta, np.abs(factor) * ma
    if op in ("^", "pow"):
        w = np.where(a > 0, a, np.nan)
        v, log_w, b_w = w ** b, np.log(w)[..., None], (b / w)[..., None]
        return v, v[..., None] * (tb * log_w + b_w * ta), \
            np.abs(v)[..., None] * (mb * np.abs(log_w) + np.abs(b_w) * ma)
    if op in ("min", "max"):
        first = ((a <= b) if op == "min" else (a >= b))[..., None]
        one = np.where(a == b, tie, 1.0)[..., None]
        value = np.minimum(a, b) if op == "min" else np.maximum(a, b)
        return value, np.where(first, ta, tb) * one, np.where(first, ma, mb) * np.abs(one)
    m = ma * np.abs(b)[..., None] + np.abs(a)[..., None] * mb
    return {"+": (a + b, ta + tb, ma + mb), "-": (a - b, ta - tb, ma + mb),
            "*": (a * b, ta * b[..., None] + a[..., None] * tb, m),
            "/": (a / b, (ta * b[..., None] - a[..., None] * tb)
                  / (b * b)[..., None], m / (b * b)[..., None])}[op]


def test_gradients_match_a_reference_dual_evaluator(rng):
    # the gradients from one slope pass per unit vector against dense dual
    # numbers: the same rules, so the same numbers up to rounding where
    # both are finite
    compared = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        e = random_ast(rng, n)
        f = make_field_from_expr(e, n, DomainBox.cube(-1, 1, n))
        X = rng.uniform(-3, 3, size=(16, n))
        with np.errstate(all="ignore"):
            value, G, _ = reference_dual(e, X)
        np.testing.assert_array_equal(f.values(X), value)
        got = f.grads(X)
        both = np.isfinite(got).all(-1) & np.isfinite(G).all(-1)
        scale = np.abs(G[both]).max(initial=1.0)   # cancellation leaves ulps
        np.testing.assert_allclose(got[both], G[both], rtol=1e-9,
                                   atol=1e-12 * scale, err_msg=pretty_print(e))
        compared += both.sum()
    assert compared >= 2000


def clean_rows(prog, X, D):
    """The rows of the points X where no array that prog.dual(X, D) makes
    on the way over- or underflows: the program's source run again with
    every function of its namespace watched, a row kept while each result
    is finite and zero or normal there."""
    rows = np.ones(X.shape[:-1], dtype=bool)

    def watch(fn):
        def call(*args, **kwargs):
            nonlocal rows
            r = np.asarray(fn(*args, **kwargs))
            if r.dtype == float:
                rows = rows & np.isfinite(r) & ((r == 0) | (np.abs(r) >= np.finfo(float).tiny))
            return r
        return call

    namespace = {k: watch(v) if callable(v) and not isinstance(v, type) else v
                 for k, v in ex._NAMESPACE.items()}
    namespace.update(_registers=ex._RegisterFile(256), _tangents=ex._RegisterFile(256))
    exec(prog.source, namespace)
    with np.errstate(all="ignore"):
        namespace["dual"](X, D)
    return rows


def random_case(seed, n, rows=64):
    """A random expression's field and AST, points reaching past [-1, 1]
    (every fourth an integer point: poles, zero bases and ties) and random
    directions."""
    rng = np.random.default_rng(seed)
    e = random_ast(rng, n)
    X = rng.uniform(-3, 3, size=(rows, n))
    X[::4] = np.round(X[::4])
    return make_field_from_expr(e, n, DomainBox.cube(-1, 1, n)), e, X, \
        rng.normal(size=(rows, n))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(-40, 40))
def test_slopes_scale_with_the_direction_bit_for_bit(seed, n, k):
    # a slope is linear in its direction, and every tangent operation (a
    # sum, a product or quotient with a value, a choice) commutes with
    # scaling by 2^k exactly, wherever no array of either pass over- or
    # underflows
    f, _, X, D = random_case(seed, n)
    scaled = 2.0 ** k * D
    clean = clean_rows(f.program, X, D) & clean_rows(f.program, X, scaled)
    (_, one), (_, slope) = f.slopes(X, D), f.slopes(X, scaled)
    assert _same_bits(slope[clean], 2.0 ** k * one[clean])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
@example(seed=103, n=1)   # a constant field whose exact slope 0 the reference misses by 2e-12
@example(seed=56, n=1)    # a subnormal slope, 8.7e-319, that the two passes round apart
def test_slopes_match_a_reference_dual_evaluator(seed, n):
    # the compiled one-tangent pass against dense dual numbers seeded with
    # the same directions: the same rules, so the same numbers up to
    # rounding where both are finite. Rounding is bounded by the terms
    # summed on the way, not by the slope, which may cancel to 0, and by a
    # few subnormal steps, below which the relative terms underflow to 0
    f, e, X, D = random_case(seed, n)
    with np.errstate(all="ignore"):
        value, slope, m = reference_dual(e, X, D)
        G = reference_dual(e, X)[1]
    got_value, got = f.slopes(X, D)
    np.testing.assert_array_equal(got_value, value)
    slope, m = slope[..., 0], m[..., 0]
    both = np.isfinite(got) & np.isfinite(slope) & np.isfinite(G).all(-1) & np.isfinite(m)
    got, slope, m = got[both], slope[both], m[both]
    floor = 4 * np.finfo(float).smallest_subnormal
    far = np.abs(got - slope) > np.maximum(1e-9 * np.abs(slope) + 1e-12 * m, floor)
    assert not far.any(), (pretty_print(e), got[far], slope[far], m[far])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_nan_slopes_fall_on_non_finite_values_and_ties(seed, n):
    # the rows that slopes makes NaN are those that grads makes NaN: a
    # value that is not finite, or a tie of abs/min/max that f takes (the
    # reference's slope is NaN by its tie rule alone); elsewhere a slope
    # or a partial derivative is NaN only where the arithmetic makes it so,
    # never where the reference evaluator's slope and gradient are finite
    f, e, X, D = random_case(seed, n)
    with np.errstate(all="ignore"):
        ref, G = reference_dual(e, X, D)[1][..., 0], reference_dual(e, X)[1]
        untied = reference_dual(e, X, D, tie=1.0)[1][..., 0]
    value, slope = f.slopes(X, D)
    by_rule = ~np.isfinite(value) | (np.isnan(ref) & ~np.isnan(untied))
    grads = f.grads(X)
    assert np.isnan(slope[by_rule]).all() and np.isnan(grads[by_rule]).all()
    finite = ~by_rule & np.isfinite(ref) & np.isfinite(G).all(-1)
    assert not np.isnan(slope[finite]).any() and not np.isnan(grads[finite]).any()


def test_batch_eval_matches_scalar(rng):
    f = field("sin(x1)*x2 + x1^2", 2)
    X = rng.uniform(-2, 2, size=(50, 2))
    batch = f.values(X)
    for i, x in enumerate(X):
        assert batch[i] == pytest.approx(f.value(x), rel=1e-15, abs=1e-15)


def test_one_point_is_a_batch_of_one():
    # numpy's power has a shortcut for a scalar exponent of -1; one point
    # must not take it when a batch does not
    e = parse("(2.0011/x2)^x3", 3)
    f = make_field_from_expr(e, 3, DomainBox.cube(-2, 2, 3))
    x = np.array([1.0, 1.0, -1.0])
    X = np.array([x, [0.5, 1.5, 0.3]])
    batch = f.values(X)[0]
    assert batch == 0.4997251511668582
    for one in (f.program.value(x), f.values(x), f.value(x),
                f.program.dual(x, x)[0], f.slopes(x, x)[0]):
        assert one == batch
    assert np.array_equal(f.grad(x), f.grads(X)[0])
    assert np.array_equal(f.grads(x), f.grads(X)[0])


def test_batch_eval_nan_for_invalid():
    f = make_field_from_expr("log(x1)", 1, DomainBox.cube(-1, 1, 1))
    out = f.values(np.array([[1.0], [0.0], [-1.0]]))
    assert np.isfinite(out[0]) and not np.isfinite(out[1]) and np.isnan(out[2])


def test_grad_batch(rng):
    f = make_field_from_expr("x1^2 + 3*x2", 2, DomainBox.cube(-1, 1, 2))
    X = rng.uniform(-1, 1, size=(10, 2))
    G = f.grads(X)
    assert np.allclose(G[:, 0], 2 * X[:, 0])
    assert np.allclose(G[:, 1], 3.0)
    # outside the domain the value is NaN, and so is the gradient
    f = make_field_from_expr("log(x1)", 1, DomainBox.cube(-1, 2, 1))
    G = f.grads(np.array([[-1.0], [2.0]]))
    assert np.isnan(G[0, 0]) and G[1, 0] == 0.5


def test_compiled_source_holds_only_numbers_and_generated_names():
    e = parse("pow(x1, 2.5) + 1e-3*abs(x2 - 7) / log(x1) - min(x1, 1e300)^3", 2)
    source = ex.compile_expr(e, 2).source + ex.compile_expr(
        parse("t2^x1 + x2^t1 + abs(t1) / t2", 2, 2), 2, 2).source
    names = {tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.type == tokenize.NAME}
    allowed = set(ex._NAMESPACE) | set(keyword.kwlist) | {
        "value", "dual", "X", "D", "T", "R", "S", "out", "_registers", "_tangents",
        "shape"}
    assert {n for n in names - allowed if not re.fullmatch(r"[vtwxpd]\d+", n)} == set()


def assert_each_temporary_dies_once_after_its_last_read(source):
    """In each function of a program's source: no temporary is read after
    its `del`, every one but the returned results is deleted exactly once,
    and no result is deleted."""
    for body in source.split("def ")[1:]:
        *lines, ret = [line.strip() for line in body.splitlines()[1:]]
        results = set(re.findall(r"\w+", ret))
        made, dead = set(), set()
        for line in lines:
            if line.startswith("del "):
                names = line[4:].split(", ")
                assert len(set(names)) == len(names) and made.issuperset(names), line
                assert not dead & set(names) and not results & set(names), line
                dead.update(names)
                continue
            name, _, call = line.partition(" = ")
            assert not dead & set(re.findall(r"\w+", call)), line
            if re.fullmatch(r"[vtw]\d+", name):
                made.add(name)
        assert made - results == dead, body


# sqrt(sqrt(x1^2)): its root's tangent reads the root after the root's line
@pytest.mark.parametrize("source,dim,_", VALID_CORPUS + [("sqrt(sqrt(x1^2))", 1, None)],
                         ids=[s for s, _, _ in VALID_CORPUS] + ["sqrt(sqrt(x1^2))"])
def test_corpus_programs_delete_each_temporary_once(source, dim, _):
    assert_each_temporary_dies_once_after_its_last_read(
        ex.compile_expr(parse(source, dim), dim).source)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_random_programs_delete_each_temporary_once(seed, n):
    e = random_ast(np.random.default_rng(seed), n, depth=6)
    assert_each_temporary_dies_once_after_its_last_read(ex.compile_expr(e, n).source)


def pinned_corpus(rng):
    """The corpus, 300 random expressions and a last program whose integer
    powers lower to `_ipow`, with their dimensions."""
    return [(parse(s, d), d) for s, d, _ in VALID_CORPUS] \
        + [(random_ast(rng, 3), 3) for _ in range(300)] \
        + [(parse("x1^3 - x2^5 + (x1*x2)^-3", 2), 2)]


def test_parameter_free_programs_are_unchanged(rng):
    # the sha256 of the programs emitted for the corpus and 300 random
    # expressions, as recorded when a node began to take over the register
    # of an operand whose last use it is, and then when a bare variable's
    # value became a copy of the points' column (35 of the 330 programs),
    # and then when the strict checks and the seed argument S went (each
    # source is the one before without its check and seed-row lines), and
    # then when values lost their trailing axis of one and tangents became
    # sparse coordinate maps, one ufunc call per line writing to registers,
    # and then with a last program whose integer powers and their
    # derivative factors (k = 3, 5, -3 and 4, -4) lower to the sign-split
    # `_ipow`, which no other program of the corpus reaches, and then when
    # a node's tangent became one term, its slope along the seeds D, and
    # then when one liveness pass placed every register and `del`: each
    # `del` follows its temporary's last use, and a tangent line free of x
    # and the seeds (b*b of a constant divisor) takes no register, so the
    # corpus needs 382 value and 412 tangent registers (398 and 418 before),
    # and then when a tie of abs/min/max became a NaN tangent and the tie
    # flags went: abs's factor is a / |a| and min/max select NaN where
    # a == b (472 tangent registers), and then when a^2 and the factor a^2
    # of a^3 became numpy's square, bit for bit its power at 2, and each
    # coordinate x_j a line that loads it (`_load`: a view of an array, or
    # made into a register for `Segments`) just before its first read, not
    # deleted, its register freed after its last read in a value line (479
    # value registers)
    h = hashlib.sha256()
    cases = pinned_corpus(rng)
    for e, d in cases:
        h.update(ex.compile_expr(e, d).source.encode())
    assert "_ipow(" in ex.compile_expr(*cases[-1]).source
    assert h.hexdigest() == \
        "f6aa9702436749180604cb63bd105f3024cbf02b27ac884f08ff2f072053bb9e"


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(floats, min_size=1, max_size=40))
def test_square_is_power_at_two_bit_for_bit(xs):
    # a^2 lowers to numpy's square: numpy's power takes it as its shortcut
    # at the exponent 2, so both round alike for every float, ±0, ±inf,
    # NaN, subnormals and overflow, contiguous, strided or a point alone
    X = np.array(xs + SPECIAL)
    with np.errstate(all="ignore"):
        for a in (X, X[::-1], X[::3], X[0], X[-1]):
            assert _same_bits(np.square(a), np.power(a, 2.0))


def test_the_pinned_corpus_squares_as_it_powers_at_two(rng):
    # each program of the pinned corpus that squares, run again with
    # power(a, 2.0) in place of square(a), gives the same values and slopes
    # bit for bit, at a batch and at each point alone
    points = np.random.default_rng(27)
    square = re.compile(r"square\((_F\([^()]*\)|[^,()]+)")
    squaring = 0
    for e, d in pinned_corpus(rng):
        prog = ex.compile_expr(e, d)
        if "square(" not in prog.source:
            continue
        squaring += 1
        namespace = dict(ex._NAMESPACE, _registers=ex._RegisterFile(256),
                         _tangents=ex._RegisterFile(256))
        exec(square.sub(r"power(\1, 2.0", prog.source), namespace)
        X = points.uniform(-3, 3, size=(32, d))
        X[::4] = np.round(X[::4])
        D = points.normal(size=(32, d))
        with np.errstate(all="ignore"):
            for x, dx in [(X, D), *zip(X[:8], D[:8])]:
                assert _same_bits(prog.value(x), namespace["value"](x))
                for a, b in zip(prog.dual(x, dx), namespace["dual"](x, dx)):
                    assert _same_bits(a, b)
    assert squaring >= 5


def segment_case(rng, n, k, ride, per_pair):
    """`expr.Segments` of k random pairs in R^n (every third x and fourth
    y an integer point: poles, zero bases and ties), at a grid of 5
    lambdas or one lambda per pair, with or without x and y riding, and
    its points made by hand (rows, k, n): [x, y,] lam * (x - y) + y."""
    X, Y = rng.uniform(-3, 3, size=(2, k, n))
    X[::3] = np.round(X[::3])
    Y[::4] = np.round(Y[::4])
    lam = rng.uniform(0.01, 0.99, size=(1, k) if per_pair else (5, 1))
    D = np.subtract(X.T, Y.T, order="C")
    P = lam[..., None] * D.T + Y
    if ride:
        P = np.concatenate([X[None], Y[None], P])
    return ex.Segments(np.ascontiguousarray(Y.T), D, lam, X.T if ride else None), P


def test_segments_of_the_pinned_corpus_are_their_points(rng):
    # every program of the pinned corpus gives on segments, whose points it
    # makes itself, what it gives on the same points as an array, bit for
    # bit, at a grid and at one lambda per pair, with and without x and y
    # riding; the integer points make NaN and infinite values
    points = np.random.default_rng(28)
    nan = inf = False
    for e, d in pinned_corpus(rng):
        prog = ex.compile_expr(e, d)
        for ride in (False, True):
            for per_pair in (False, True):
                segments, P = segment_case(points, d, 16, ride, per_pair)
                with np.errstate(all="ignore"):
                    got, want = prog.value(segments), prog.value(P)
                assert got.shape == want.shape and _same_bits(got, want), pretty_print(e)
                nan, inf = nan or np.isnan(want).any(), inf or np.isinf(want).any()
    assert nan and inf


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.sampled_from([1, 7, 64]),
       ride=st.booleans(), per_pair=st.booleans())
def test_segments_are_their_points(seed, n, k, ride, per_pair):
    rng = np.random.default_rng(seed)
    prog = ex.compile_expr(random_ast(rng, n), n)
    segments, P = segment_case(rng, n, k, ride, per_pair)
    with np.errstate(all="ignore"):
        assert _same_bits(prog.value(segments), prog.value(P))


@pytest.mark.parametrize("source,n,p", [("x1^3 + t1*x1^2 + t2*x1", 1, 2),
                                        ("x1^2 + x2^2 + t1*sin(t2*x1*x2)", 2, 2),
                                        ("t1^t2 + x1*0", 1, 2), ("exp(t1)", 1, 1)])
def test_segments_take_one_parameter_row_per_pair(source, n, p, rng):
    # a parameter row per pair broadcasts over the rows of the pair's
    # points, and one vector over all of them, as in `value`
    prog = ex.compile_expr(parse(source, n, p), n, p)
    T = rng.uniform(0.5, 2.0, size=(50, p))
    for ride in (False, True):
        for per_pair in (False, True):
            segments, P = segment_case(rng, n, 50, ride, per_pair)
            with np.errstate(all="ignore"):
                for t in (T, T[7]):
                    assert _same_bits(prog.value(segments, t), prog.value(P, t))


def test_value_frees_each_coordinate_after_its_last_use():
    # catalog sqnorm squares each coordinate once: each load takes the
    # register that the one before it freed, so two registers serve any n
    source = catalog_field("sqnorm", 8).program.source.split("def dual")[0]
    assert source.count("_load(") == 8
    assert set(re.findall(r"R\[\d+\]", source)) == {"R[0]", "R[1]"}


def test_slopes_off_ties_are_unchanged(rng):
    # the sha256 of the slopes of the pinned corpus at seeded uniform
    # points along normal directions, every NaN written as numpy's, as
    # pinned when tie flags still marked the ties: the NaN tangent of a tie
    # moved no slope by a bit. Three programs meet a tie at every row
    # (max(x1, x1), min(x2, x2)), each in a branch that f takes, so those
    # slopes are NaN either way
    points = np.random.default_rng(26)
    h = hashlib.sha256()
    for e, d in pinned_corpus(rng):
        f = make_field_from_expr(e, d, DomainBox.cube(-2, 2, d))
        X = points.uniform(-2, 2, size=(64, d))
        _, slope = f.slopes(X, points.normal(size=(64, d)))
        h.update(np.where(np.isnan(slope), np.nan, slope).tobytes())
    assert h.hexdigest() == \
        "e93cb9ea1591d0ef68460ec4af37569104e87c330256d17c35cd8ade83f863b6"


def test_tangent_lines_grow_linearly_in_n():
    # the dual source of catalog sqnorm has a few tangent lines per
    # coordinate (2*x_j, its product with the seed d_j and the sum); a
    # tangent that carried every coordinate through each of the n - 1 sums
    # would take O(n^2)
    def tangent_lines(n):
        source = catalog_field("sqnorm", n).program.source
        value, dual = source.split("def dual")
        return len(dual.splitlines()) - len(value.splitlines())

    assert tangent_lines(20) <= 4 * tangent_lines(5) + 4


def test_parameters_are_declared():
    e = parse("t1*x1 + t2^2", 1, 2)
    assert e == Binary("+", Binary("*", Param(1), v(1)), Binary("^", Param(2), c(2)))
    assert parse(pretty_print(e), 1, 2) == e
    with pytest.raises(ParseError) as err:
        parse("t1 + x1*t3", 1, 2)
    assert err.value.pos == 8
    with pytest.raises(ParseError) as err:
        parse("x1 + t1", 1)
    assert err.value.pos == 5
    with pytest.raises(ValueError):
        ex.compile_expr(e, 1, 1)


def test_parameters_have_no_tangent():
    # d/dx of t1*x1^2 + t2*x1 + sin(t1) + abs(t2) is 2*t1*x1 + t2, finite
    # at the first row's t2 = 0, a tie of the parameter-only abs
    e = parse("t1*x1^2 + t2*x1 + sin(t1) + abs(t2)", 1, 2)
    prog = ex.compile_expr(e, 1, 2)
    X = np.array([[0.5], [-1.0], [2.0]])
    T = np.array([[1.0, 0.0], [2.0, -3.0], [-1.0, 0.5]])
    t1, t2 = T[:, 0], T[:, 1]
    x = X[:, 0]
    value = t1 * x ** 2 + t2 * x + np.sin(t1) + np.abs(t2)
    f = ScalarField("rows", prog, DomainBox.cube(-1, 2, 1), T)
    assert np.allclose(f.values(X), value, rtol=1e-15)
    g = f.grads(X)
    assert np.allclose(g[:, 0], 2 * t1 * x + t2, rtol=1e-15)
    # one theta broadcasts against every row and gives the same bits
    for i in range(3):
        one = ScalarField("one", prog, f.domain, T[i])
        assert one.values(X)[i] == f.values(X)[i]
        assert np.array_equal(one.grads(X)[i], g[i])
    # a program takes parameters exactly when it was compiled with them
    with pytest.raises(TypeError):
        prog.value(X)
    with pytest.raises(TypeError):
        ex.compile_expr(parse("x1", 1), 1).value(X, T)


def test_parameter_only_expressions_broadcast():
    # a value that depends on no x is spread over the points, and a
    # parameter exponent (2 here, which numpy's power can shortcut) rounds
    # alike for one theta and for one theta per row
    X = np.zeros((4, 3, 1))
    T = np.array([[1.1, 2.0], [0.3, 2.0], [1.7, 2.0]])
    prog = ex.compile_expr(parse("t1^t2 + x1*0", 1, 2), 1, 2)
    rows = prog.value(X, T)
    assert rows.shape == (4, 3)
    for i in range(3):
        assert np.all(prog.value(X, T[i])[:, i] == rows[:, i])
    only = ex.compile_expr(parse("exp(t1)", 1, 1), 1, 1)
    out = only.value(X, T[:, :1])
    assert out.shape == (4, 3) and np.all(out == np.exp(T[:, 0]))


def test_one_program_runs_in_two_threads_at_once(rng):
    # each thread has its own register file: two threads calling the same
    # programs' value (on points and on segments) and dual at once get the
    # serial results, bit for bit
    cases = []
    for _ in range(12):
        X = rng.uniform(-1, 1, size=(4096, 3))
        cases.append((ex.compile_expr(random_ast(rng, 3), 3), X, ()))
    fam = family_by_name("param_cubic")
    X = fam.domain.lower + rng.random((4096, fam.domain.dim)) * fam.domain.widths
    T = fam.param_box.lower + rng.random((4096, fam.param_box.dim)) * fam.param_box.widths
    cases.append((fam.program, X, (T,)))

    lam = np.linspace(0.1, 0.9, 7)[:, None]

    def run():
        return [[prog.value(X, *T), *prog.dual(X, X[::-1], *T),
                 prog.value(ex.Segments(X.T, X[::-1].T, lam, X.T), *T)]
                for prog, X, T in cases]

    def bits(out):
        return [[(a.shape, a.tobytes()) for a in results] for results in out]

    with np.errstate(all="ignore"):
        serial = bits(run())
    start = threading.Barrier(2)
    outs = [[], []]

    def work(out):
        with np.errstate(all="ignore"):
            start.wait()
            for _ in range(6):
                out.append(bits(run()))

    threads = [threading.Thread(target=work, args=(out,)) for out in outs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [len(out) for out in outs] == [6, 6]
    assert all(got == serial for out in outs for got in out)


def test_a_program_dies_with_its_last_reference():
    # the compiled functions are not left in the namespace they run in, so
    # no reference cycle keeps them, or the register buffers that their
    # namespace holds, alive after the program: without the cyclic
    # collector, both functions go with the last reference to the program
    gc.disable()
    try:
        prog = ex.compile_expr(parse("x1^2 + sin(3*x1)*exp(x2)", 2), 2)
        X = np.ones((8, 2))
        prog.value(X)
        prog.dual(X, X)
        refs = [weakref.ref(prog.value), weakref.ref(prog.dual)]
        del prog
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def _registers(prog):
    return prog.value.__globals__["_registers"], prog.dual.__globals__["_tangents"]


def test_compiles_of_one_tree_share_the_lowering_not_the_program():
    e = parse("x1^2 + sin(3*x1)*exp(x2)", 2)
    a, b = ex.compile_expr(e, 2), ex.compile_expr(parse("x1^2 + sin(3*x1)*exp(x2)", 2), 2)
    assert a.source is b.source and a.value.__code__ is b.value.__code__
    assert a.value is not b.value and a.dual is not b.dual
    assert not set(map(id, _registers(a))) & set(map(id, _registers(b)))


def test_trees_that_lower_apart_share_no_lowering():
    # Const(0.0) == Const(-0.0) with equal hashes, yet they lower apart
    plus, minus = (Binary("+", Var(1), Const(z)) for z in (0.0, -0.0))
    assert plus == minus and hash(plus) == hash(minus)
    at = np.array([[-0.0]])
    for tree, sign in ((plus, False), (minus, True), (plus, False)):
        prog = ex.compile_expr(tree, 1)
        assert prog.source == ex._lower(tree, 1, 0)[0]
        assert np.signbit(prog.value(at)).tolist() == [sign]
    # one text at two dimensions and at two parameter counts
    e = parse("x1 + x2", 2)
    assert ex.compile_expr(e, 3).n == 3 and ex.compile_expr(e, 2).n == 2
    with pytest.raises(ValueError, match="beyond the dimension"):
        ex.compile_expr(e, 1)
    e = parse("x1 * t1", 1, 1)
    assert ex.compile_expr(e, 1, 2).p == 2
    with pytest.raises(ValueError, match="beyond the count"):
        ex.compile_expr(e, 1, 0)
    e = parse("x1", 1)
    for p in (0, 1, 0):
        prog = ex.compile_expr(e, 1, p)
        assert prog.p == p and prog.source == ex._lower(e, 1, p)[0]
        assert ("def value(X, T)" in prog.source) == (p > 0)


def test_a_tree_too_deep_to_lower_is_refused_each_time():
    e = Var(1)
    for _ in range(5000):
        e = Unary("-", e)
    for _ in range(2):
        with pytest.raises(ValueError, match="nests too deeply to compile"):
            ex.compile_expr(e, 1)
    assert (ex._tree_key(e), 1, 0) not in ex._LOWERED


def test_the_lowering_cache_is_bounded_and_exact(monkeypatch):
    # past the bound the oldest lowerings go, and every program still
    # equals one lowered afresh: its source, registers, values and slopes
    rng = np.random.default_rng(31)
    trees = [random_ast(rng, 2) for _ in range(ex._LOWERED_MAX + 20)]
    trees += trees[::-1]   # the second pass meets kept and dropped entries
    programs = [ex.compile_expr(e, 2) for e in trees]
    assert len(ex._LOWERED) == ex._LOWERED_MAX
    monkeypatch.setattr(ex, "_LOWERED", {})
    monkeypatch.setattr(ex, "_LOWERED_MAX", 0)   # nothing kept
    X, D = rng.uniform(-2, 2, size=(2, 16, 2))
    with np.errstate(all="ignore"):
        for e, prog in zip(trees, programs):
            fresh = ex.compile_expr(e, 2)
            assert not ex._LOWERED and prog.source == fresh.source
            assert [r.file[0] for r in _registers(prog)] == \
                [r.file[0] for r in _registers(fresh)]
            assert _same_bits(prog.value(X), fresh.value(X))
            for got, want in zip(prog.dual(X, D), fresh.dual(X, D)):
                assert _same_bits(got, want)
