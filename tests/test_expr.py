import hashlib
import io
import keyword
import math
import re
import tokenize

import numpy as np
import pytest

from quasicheck import expr as ex
from quasicheck.expr import (Binary, Call, Const, EvalError, Param,
                             ParseError, Unary, Var, ast_equal, eval_dual,
                             eval_expr, parse, pretty_print)
from quasicheck.field import DomainBox, ScalarField, make_field_from_expr
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
    assert ast_equal(parse(source, dim), expected)


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
    assert ast_equal(parse(pretty_print(e), dim), e)


def test_pretty_print_examples():
    assert pretty_print(Binary("+", v(1), c(2))) == "(x1 + 2.0)"
    assert pretty_print(Binary("^", v(1), c(2))) == "(x1 ^ 2.0)"


def test_pretty_print_round_trip_random(rng):
    n = 3
    for _ in range(1000):
        e = random_ast(rng, n)
        s = pretty_print(e)
        assert ast_equal(parse(s, n), e), s


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_examples():
    assert eval_expr(parse("x1^2", 1), [3.0]) == 9
    assert eval_expr(parse("sin(x1)", 1), [0.0]) == 0
    assert eval_expr(parse("x1*x2 + 1", 2), [2.0, 5.0]) == 11


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        eval_expr(parse("log(x1)", 1), [0.0])
    with pytest.raises(EvalError):
        eval_expr(parse("1/x1", 1), [0.0])
    with pytest.raises(EvalError):
        eval_expr(parse("sqrt(x1)", 1), [-1.0])
    with pytest.raises(EvalError):
        eval_expr(parse("pow(x1, 0.5)", 1), [-1.0])


# (source, point, message, offset of the failing node); the last case has
# two failing nodes and the first one in left-first post-order is reported
STRICT_ERRORS = [
    ("1 + 1/x1", [0.0], "division by zero", 5),
    ("1 + log(x1)", [0.0], "log of non-positive value", 4),
    ("1 + sqrt(x1)", [-1.0], "sqrt of negative value", 4),
    ("1 + pow(x1, 0.5)", [0.0], "pow requires positive base", 4),
    ("1 + x1^-2", [0.0], "zero raised to a negative power", 6),
    ("1 + x1^0.5", [-1.0], "non-integer power of non-positive base", 6),
    ("1 + x1^log(x1)", [-1.0], "log of non-positive value", 7),
    ("log(x1) + 1/x1", [0.0], "log of non-positive value", 0),
]


@pytest.mark.parametrize("source,x,message,pos", STRICT_ERRORS,
                         ids=[s for s, _, _, _ in STRICT_ERRORS])
def test_eval_error_position(source, x, message, pos):
    e = parse(source, 1)
    for evaluate in (lambda: eval_expr(e, x),
                     lambda: eval_dual(e, np.array(x), np.ones(1))):
        with pytest.raises(EvalError) as err:
            evaluate()
        assert (err.value.message, err.value.pos) == (message, pos)


def test_power_rules():
    # integer exponents are fine on negative bases
    assert eval_expr(parse("(0-2)^3", 1), [0.0]) == -8
    assert eval_expr(parse("(0-2)^-2", 1), [0.0]) == 0.25
    # non-integer exponents require a positive base
    with pytest.raises(EvalError):
        eval_expr(parse("(0-2)^0.5", 1), [0.0])
    with pytest.raises(EvalError):
        eval_expr(parse("(0-2)^x1", 1), [1.5])
    assert eval_expr(parse("4^0.5", 1), [0.0]) == 2


def test_eval_dual_examples():
    r = eval_dual(parse("x1^2", 1), np.array([3.0]), np.array([1.0]))
    assert (r.value, r.deriv) == (9, 6)
    r = eval_dual(parse("x1*x2", 2), np.array([2.0, 5.0]), np.array([0.0, 1.0]))
    assert (r.value, r.deriv) == (10, 2)


def test_dual_nondiff_flags():
    r = eval_dual(parse("abs(x1)", 1), np.array([0.0]), np.array([1.0]))
    assert r.value == 0 and r.nondiff
    # tie propagates the first argument's derivative
    r = eval_dual(parse("min(x1, x1*1)", 1), np.array([2.0]), np.array([1.0]))
    assert r.nondiff and r.deriv == 1.0
    r = eval_dual(parse("abs(x1)", 1), np.array([3.0]), np.array([1.0]))
    assert not r.nondiff and r.deriv == 1.0
    r = eval_dual(parse("abs(x1)", 1), np.array([-3.0]), np.array([1.0]))
    assert r.deriv == -1.0
    # a kink inside a general exponent flags the power
    r = eval_dual(parse("x1^abs(x2)", 2), np.array([2.0, 0.0]),
                  np.array([0.0, 1.0]))
    assert r.value == 1.0 and r.nondiff


def test_dual_general_power_includes_exponent_derivative():
    # d/dx 2^x = 2^x ln 2
    r = eval_dual(parse("2^x1", 1), np.array([3.0]), np.array([1.0]))
    assert r.value == pytest.approx(8.0)
    assert r.deriv == pytest.approx(8.0 * math.log(2.0))


def test_ad_matches_central_differences(rng):
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        e = random_smooth_expr(rng, n)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=n)
            d = rng.normal(size=n)
            d /= max(1.0, np.linalg.norm(d))
            h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
            r = eval_dual(e, x, d)
            fd = (eval_expr(e, x + h * d) - eval_expr(e, x - h * d)) / (2 * h)
            assert abs(r.deriv - fd) <= 1e-6, pretty_print(e)
            checked += 1
    assert checked >= 200


def test_dual_linearity(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        e = random_smooth_expr(rng, n)
        x = rng.uniform(-1, 1, size=n)
        d1 = rng.normal(size=n)
        d2 = rng.normal(size=n)
        a, b = float(rng.normal()), float(rng.normal())
        lhs = eval_dual(e, x, a * d1 + b * d2).deriv
        rhs = a * eval_dual(e, x, d1).deriv + b * eval_dual(e, x, d2).deriv
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_batch_eval_matches_scalar(rng):
    e = parse("sin(x1)*x2 + x1^2", 2)
    X = rng.uniform(-2, 2, size=(50, 2))
    batch = ex.compile_expr(e, 2).value(X, False)
    for i, x in enumerate(X):
        assert batch[i] == pytest.approx(eval_expr(e, x), rel=1e-15, abs=1e-15)


def test_one_point_is_a_batch_of_one():
    # numpy's power has a shortcut for a scalar exponent of -1; one point
    # must not take it when a batch does not
    e = parse("(2.0011/x2)^x3", 3)
    f = make_field_from_expr(e, 3, DomainBox.cube(-2, 2, 3))
    x = np.array([1.0, 1.0, -1.0])
    X = np.array([x, [0.5, 1.5, 0.3]])
    batch = f.values(X)[0]
    assert batch == 0.4997251511668582
    for one in (eval_expr(e, x), f.values(x), f.value(x),
                eval_dual(e, x, np.ones(3)).value):
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
    assert not f.program.kinks
    assert np.allclose(G[:, 0], 2 * X[:, 0])
    assert np.allclose(G[:, 1], 3.0)
    # outside the domain the value is NaN, and so is the gradient
    f = make_field_from_expr("log(x1)", 1, DomainBox.cube(-1, 2, 1))
    G = f.grads(np.array([[-1.0], [2.0]]))
    assert np.isnan(G[0, 0]) and G[1, 0] == 0.5 and not f.program.kinks


def test_compiled_source_holds_only_numbers_and_generated_names():
    e = parse("pow(x1, 2.5) + 1e-3*abs(x2 - 7) / log(x1) - min(x1, 1e300)^3", 2)
    source = ex.compile_expr(e, 2).source + ex.compile_expr(
        parse("t2^x1 + x2^t1 + abs(t1) / t2", 2, 2), 2, 2).source
    names = {tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.type == tokenize.NAME}
    allowed = set(ex._NAMESPACE) | set(keyword.kwlist) | {
        "value", "dual", "X", "S", "T", "R", "out", "_registers", "strict", "ndim",
        "shape", "reshape"}
    assert {n for n in names - allowed if not re.fullmatch(r"[vtfwxsp]\d+", n)} == set()


def test_parameter_free_programs_are_unchanged(rng):
    # the sha256 of the programs emitted for the corpus and 300 random
    # expressions, as recorded when a node began to take over the register
    # of an operand whose last use it is, and then when a bare variable's
    # value became a copy of the points' column (35 of the 330 programs)
    h = hashlib.sha256()
    cases = [(parse(s, d), d) for s, d, _ in VALID_CORPUS] \
        + [(random_ast(rng, 3), 3) for _ in range(300)]
    for e, d in cases:
        h.update(ex.compile_expr(e, d).source.encode())
    assert h.hexdigest() == \
        "4ef6d17bada614e868e0009c5d843ee841d54485384488d5093abab2accb751f"


def test_parameters_are_declared():
    e = parse("t1*x1 + t2^2", 1, 2)
    assert ast_equal(e, Binary("+", Binary("*", Param(1), v(1)),
                               Binary("^", Param(2), c(2))))
    assert ast_equal(parse(pretty_print(e), 1, 2), e)
    with pytest.raises(ParseError) as err:
        parse("t1 + x1*t3", 1, 2)
    assert err.value.pos == 8
    with pytest.raises(ParseError) as err:
        parse("x1 + t1", 1)
    assert err.value.pos == 5
    with pytest.raises(ValueError):
        ex.compile_expr(e, 1, 1)


def test_parameters_have_no_tangent():
    # d/dx of t1*x1^2 + t2*x1 + sin(t1) + abs(t2) is 2*t1*x1 + t2, with no
    # nondifferentiability flag from the parameter-only abs
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
    assert np.allclose(g[:, 0], 2 * t1 * x + t2, rtol=1e-15) and not prog.kinks
    # one theta broadcasts against every row and gives the same bits
    for i in range(3):
        one = ScalarField("one", prog, f.domain, T[i])
        assert one.values(X)[i] == f.values(X)[i]
        assert np.array_equal(one.grads(X)[i], g[i])
    # a program takes parameters exactly when it was compiled with them
    with pytest.raises(TypeError):
        prog.value(X, False)
    with pytest.raises(TypeError):
        ex.compile_expr(parse("x1", 1), 1).value(X, False, T)


def test_parameter_only_expressions_broadcast():
    # a value that depends on no x is spread over the points, and a
    # parameter exponent (2 here, which numpy's power can shortcut) rounds
    # alike for one theta and for one theta per row
    X = np.zeros((4, 3, 1))
    T = np.array([[1.1, 2.0], [0.3, 2.0], [1.7, 2.0]])
    prog = ex.compile_expr(parse("t1^t2 + x1*0", 1, 2), 1, 2)
    rows = prog.value(X, False, T)
    assert rows.shape == (4, 3)
    for i in range(3):
        assert np.all(prog.value(X, False, T[i])[:, i] == rows[:, i])
    only = ex.compile_expr(parse("exp(t1)", 1, 1), 1, 1)
    out = only.value(X, False, T[:, :1])
    assert out.shape == (4, 3) and np.all(out == np.exp(T[:, 0]))
