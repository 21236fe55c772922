import math
from dataclasses import replace

import numpy as np
import pytest

import quasicheck as qc
from quasicheck.field import (DomainBox, EvaluationError, catalog,
                              catalog_field, catalog_names, default_fd_step,
                              fd_grad, make_field_from_expr, validate_grad)


def test_box_validation():
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0]), np.array([math.inf]))
    with pytest.raises(ValueError):
        DomainBox(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        catalog_field("sqnorm", 0)
    box = DomainBox.cube(-1, 1, 3)
    assert box.dim == 3
    assert np.all(box.widths == 2)


def test_box_contains_and_clip():
    box = DomainBox.cube(0, 1, 2)
    assert box.contains(np.array([0.5, 0.5]))
    assert not box.contains(np.array([1.5, 0.5]))


def test_make_field_from_expr_gradient():
    f = make_field_from_expr("x1^2 + x2^2", 2, DomainBox.cube(-1, 1, 2))
    assert f.value([0.5, 0.5]) == 0.5
    assert np.allclose(f.grad([0.5, -0.25]), [1.0, -0.5])

    g = make_field_from_expr("sin(x1)", 1, DomainBox.cube(0, 2 * math.pi, 1))
    assert g.grad([0.0]) == pytest.approx([1.0])
    assert g.grad([math.pi]) == pytest.approx([-1.0])


def test_field_dimension_is_its_programs():
    fields = catalog(3) + [make_field_from_expr("x1*x2", 2, DomainBox.cube(-1, 1, 2))]
    for f in fields:
        assert f.dim == f.program.n == f.domain.dim


def test_mismatched_domain_is_rejected():
    f = catalog_field("sqnorm", 3)
    with pytest.raises(ValueError, match="box dimension"):
        replace(f, domain=DomainBox.cube(-1, 1, 2))
    with pytest.raises(ValueError, match="box dimension"):
        make_field_from_expr("x1^2", 1, DomainBox.cube(-1, 1, 2))
    for wrong in (np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(2)):
        with pytest.raises(ValueError, match="for dimension 3"):
            f.values(wrong)
        with pytest.raises(ValueError, match="for dimension 3"):
            f.grads(wrong)


def test_gradients_are_the_callers_own():
    # the slope of x2 + log(2) is the seed d2 itself, and x1 has none:
    # every call returns a fresh copy, so writing into the slopes or the
    # gradients changes no later call's, also at one point
    f = make_field_from_expr("x2 + log(2)", 2, DomainBox.cube(-1, 1, 2))
    for shape, rows in (((3, 2), [[0.0, 1.0]] * 3), ((2,), [0.0, 1.0])):
        G = f.grads(np.zeros(shape))
        assert G.tolist() == rows
        G[...] = 7.0
        assert f.grads(np.zeros(shape)).tolist() == rows
        assert not np.shares_memory(G, f.grads(np.zeros(shape)))
        D = np.full(shape, 3.0)
        _, slope = f.slopes(np.zeros(shape), D)
        assert not np.shares_memory(slope, D) and np.all(slope == 3.0)


def test_values_are_the_callers_own():
    # a bare variable's values are a copy of its column of the points
    X = np.array([[0.5, -0.25], [0.75, 1.0]])
    f = make_field_from_expr("x1", 2, DomainBox.cube(-1, 1, 2))
    assert not np.shares_memory(f.values(X), X)
    val, _ = f.slopes(X, X)
    assert not np.shares_memory(val, X)
    assert val.tolist() == f.values(X).tolist() == [0.5, 0.75]


def test_expr_field_nondiff_gradient_is_skipped():
    f = make_field_from_expr("abs(x1)", 1, DomainBox.cube(-1, 1, 1))
    # kink at 0: batch gradient is NaN there, scalar access raises
    G = f.grads(np.array([[0.5], [0.0], [-0.5]]))
    assert G[0, 0] == 1.0 and G[2, 0] == -1.0
    assert np.isnan(G[1, 0])
    with pytest.raises(EvaluationError):
        f.grad([0.0])
    # the kink of abs(x2) sits in the exponent of a general power
    h = make_field_from_expr("x1^abs(x2)", 2,
                             DomainBox(np.array([1.0, -1.0]), np.array([3.0, 1.0])))
    G = h.grads(np.array([[2.0, 0.0], [2.0, 0.5]]))
    assert np.all(np.isnan(G[0])) and np.all(np.isfinite(G[1]))
    with pytest.raises(EvaluationError):
        h.grad([2.0, 0.0])


def test_fd_grad_quadratic_near_exact():
    f = catalog_field("sqnorm", 1)
    f = replace(f, domain=DomainBox.cube(-4, 4, 1))
    g = fd_grad(f, np.array([3.0]), 1e-5)
    # central differences are exact for quadratics up to rounding
    assert abs(g[0] - 6.0) <= 1e-9


def test_fd_grad_constant_and_sin():
    c = catalog_field("const", 3)
    assert np.all(fd_grad(c, np.zeros(3), 1e-5) == 0)
    s = catalog_field("sin", 1)
    g = fd_grad(s, np.array([1.0]), 1e-5)
    assert abs(g[0] - math.cos(1.0)) <= 1e-10


def test_fd_grad_requires_positive_step():
    with pytest.raises(ValueError):
        fd_grad(catalog_field("const", 1), np.zeros(1), 0.0)


def test_validate_grad_catalog_quadratic():
    rep = validate_grad(catalog_field("sqnorm", 2), seed=1, count=100)
    assert rep.points_checked == 100
    assert rep.max_abs_deviation <= 1e-6


def test_validate_grad_detects_planted_bug():
    f = catalog_field("sqnorm", 2)

    def dual(X, D):
        v, _ = f.program.dual(X, D)
        return v, 4.0 * np.sum(X * D, axis=-1)

    buggy = replace(f, program=replace(f.program, dual=dual))
    rep = validate_grad(buggy, seed=1, count=100)
    assert rep.max_abs_deviation > 0.1
    assert not rep.passed(1e-6)
    # deviation is about ||grad f||_inf at the worst point
    expected = float(np.max(np.abs(2.0 * np.asarray(rep.worst_point))))
    assert rep.max_abs_deviation == pytest.approx(expected, rel=1e-3)


def test_validate_grad_constant_field():
    rep = validate_grad(catalog_field("const", 2), seed=3, count=50)
    assert rep.max_abs_deviation <= 1e-12


def test_catalog_contents():
    names = {f.name for f in catalog(2)}
    assert {"const", "affine", "sqnorm", "cubic", "sin", "cubic_minus_x",
            "sqrtnorm"} <= names

    sq = catalog_field("sqnorm", 2)
    assert sq.known_sigma == 2.0
    assert sq.known_status == "sigma_quasiconvex"
    assert sq.value([1.0, 1.0]) == 2.0
    assert np.all(sq.grad([1.0, 2.0]) == [2.0, 4.0])

    cst = catalog_field("const", 2)
    assert cst.known_sigma == 0.0
    assert cst.known_status == "quasiconvex"

    sin = catalog_field("sin", 1)
    assert sin.known_status == "not_quasiconvex"
    # sin(pi/2) = 1 beats both segment endpoints sin(0) = sin(pi) = 0
    assert sin.value([math.pi / 2]) > max(sin.value([0.0]),
                                          sin.value([math.pi]))


def test_catalog_status_sigma_consistency():
    for f in catalog(3):
        if f.known_status == "sigma_quasiconvex":
            assert f.known_sigma is not None and f.known_sigma > 0
        if f.known_status == "quasiconvex":
            assert f.known_sigma == 0.0


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_field("nope", 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_all_catalog_gradients_validate(n):
    for f in catalog(n):
        rep = validate_grad(f, seed=11, count=100)
        assert rep.passed(1e-6), (f.name, rep.max_abs_deviation)


# the closed forms of the catalog entries: value and gradient at rows X
CLOSED_FORMS = {
    "const": (lambda X: np.ones(len(X)), np.zeros_like),
    "affine": (lambda X: X @ np.arange(1.0, X.shape[1] + 1),
               lambda X: np.ones_like(X) * np.arange(1.0, X.shape[1] + 1)),
    "sqnorm": (lambda X: np.sum(X ** 2, axis=1), lambda X: 2.0 * X),
    "cubic": (lambda X: X[:, 0] ** 3, lambda X: 3.0 * X ** 2),
    "sin": (lambda X: np.sin(X[:, 0]), np.cos),
    "cubic_minus_x": (lambda X: X[:, 0] ** 3 - X[:, 0],
                      lambda X: 3.0 * X ** 2 - 1.0),
    "sqrtnorm": (lambda X: np.sqrt(np.linalg.norm(X, axis=1)),
                 lambda X: X / (2.0 * np.linalg.norm(X, axis=1)[:, None] ** 1.5)),
}


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("name", catalog_names())
def test_catalog_matches_closed_forms(name, n, rng):
    f = catalog_field(name, n)
    X = f.domain.lower + rng.random((100, f.dim)) * f.domain.widths
    for got, want in zip((f.values(X), f.grads(X)),
                         (form(X) for form in CLOSED_FORMS[name])):
        # a few ulps of the largest entry per summed coordinate
        ulps = 4 * f.dim * np.finfo(float).eps * np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=ulps)


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_sqnorm_gradient_is_twice_the_point_bit_for_bit(n, rng):
    # each partial derivative 2*x_j is one product, exact in binary
    f = catalog_field("sqnorm", n)
    X = f.domain.lower + rng.random((50, n)) * f.domain.widths
    assert np.array_equal(f.grads(X), 2.0 * X)
    assert np.array_equal(f.grads(X[0]), 2.0 * X[0])


# the golden reports' expression fields (tests/test_golden.py), then every
# catalog field at a few dimensions
LAYOUT_FIELDS = [make_field_from_expr(source, 2, DomainBox.cube(-1, 1, 2))
                 for source in ("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)",
                                "(x1+2)^x2 + abs(x1 - x2)")]
LAYOUT_FIELDS += list({(f.name, f.dim): f for n in (1, 2, 3, 5, 8)
                       for f in catalog(n)}.values())


@pytest.mark.parametrize("f", LAYOUT_FIELDS, ids=lambda f: f"{f.name}-{f.dim}")
def test_values_do_not_depend_on_point_layout(f, rng):
    # batch_margins_bc hands fields a coordinate-major view, and sigma's
    # f(x), f(y) call a (2, k, n) view of the drawn (k, 2, n) pairs
    P = f.domain.lower + rng.random((6, 40, f.dim)) * f.domain.widths
    V = np.ascontiguousarray(np.moveaxis(P, -1, 0)).transpose(1, 2, 0)
    V.flags.writeable = False
    pairs = np.ascontiguousarray(P.transpose(1, 0, 2)).transpose(1, 0, 2)
    for W in (V, pairs):
        np.testing.assert_array_equal(f.values(W), f.values(P))
        np.testing.assert_array_equal(f.grads(W), f.grads(P))
    # the slope pass's values are the values, bit for bit
    np.testing.assert_array_equal(f.slopes(V, V)[0], f.values(P))


def test_default_fd_step():
    assert default_fd_step(np.array([0.5])) == 1e-5
    assert default_fd_step(np.array([3.0, -7.0])) == pytest.approx(7e-5)
