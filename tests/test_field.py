import math

import numpy as np
import pytest

import quasicheck as qc
from quasicheck.field import (DomainBox, EvaluationError, catalog,
                              catalog_field, default_fd_step, fd_grad,
                              make_field_from_expr, validate_grad)


def test_box_validation():
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0]), np.array([math.inf]))
    box = DomainBox.cube(-1, 1, 3)
    assert box.dim == 3
    assert np.all(box.widths == 2)


def test_box_contains_and_clip():
    box = DomainBox.cube(0, 1, 2)
    assert box.contains(np.array([0.5, 0.5]))
    assert not box.contains(np.array([1.5, 0.5]))
    assert np.all(box.clip(np.array([2.0, -1.0])) == [1.0, 0.0])


def test_make_field_from_expr_gradient():
    f = make_field_from_expr("x1^2 + x2^2", 2, DomainBox.cube(-1, 1, 2))
    assert f.value([0.5, 0.5]) == 0.5
    assert np.allclose(f.grad([0.5, -0.25]), [1.0, -0.5])

    g = make_field_from_expr("sin(x1)", 1, DomainBox.cube(0, 2 * math.pi, 1))
    assert g.grad([0.0]) == pytest.approx([1.0])
    assert g.grad([math.pi]) == pytest.approx([-1.0])


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
    from dataclasses import replace
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
    rep = validate_grad(catalog_field("sqnorm", 2), seed=1, count=100, tol=1e-6)
    assert rep.points_checked == 100
    assert rep.max_abs_deviation <= 1e-6


def test_validate_grad_detects_planted_bug():
    from dataclasses import replace
    f = catalog_field("sqnorm", 2)
    buggy = replace(f, grad_fn=lambda X: 4.0 * np.asarray(X, dtype=float))
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
        rep = validate_grad(f, seed=11, count=100, tol=1e-6)
        assert rep.passed(1e-6), (f.name, rep.max_abs_deviation)


@pytest.mark.parametrize("source,name", [
    ("x1^2 + x2^2", "sqnorm"),
    ("sin(x1)", "sin"),
    ("x1^3 - x1", "cubic_minus_x"),
])
def test_expr_field_matches_catalog(source, name, rng):
    cat = catalog_field(name, 2)
    f = make_field_from_expr(source, cat.dim, cat.domain)
    X = cat.domain.lower + rng.random((100, cat.dim)) * cat.domain.widths
    assert np.allclose(f.values(X), cat.values(X), atol=1e-12, rtol=1e-12)
    assert np.allclose(f.grads(X), cat.grads(X), atol=1e-12, rtol=1e-12)


# the golden reports' expression fields (tests/test_golden.py), then every
# catalog field at a few dimensions
LAYOUT_FIELDS = [make_field_from_expr(source, 2, DomainBox.cube(-1, 1, 2))
                 for source in ("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)",
                                "(x1+2)^x2 + abs(x1 - x2)")]
LAYOUT_FIELDS += list({(f.name, f.dim): f for n in (1, 2, 3, 5, 8)
                       for f in catalog(n)}.values())


def _sums_reorder(f):
    """Fields whose sum over the coordinates may run in another order on
    another layout: `X @ c` from n = 3, and numpy's pairwise `np.sum`
    along a contiguous axis from n = 8."""
    return (f.name == "affine" and f.dim >= 3) or \
        (f.name in ("sqnorm", "sqrtnorm") and f.dim >= 8)


@pytest.mark.parametrize("f", LAYOUT_FIELDS, ids=lambda f: f"{f.name}-{f.dim}")
def test_values_do_not_depend_on_point_layout(f, rng):
    # segment_margins hands fields a read-only coordinate-major view
    P = f.domain.lower + rng.random((6, 40, f.dim)) * f.domain.widths
    V = np.ascontiguousarray(np.moveaxis(P, -1, 0)).transpose(1, 2, 0)
    V.flags.writeable = False
    for a, b in ((f.values(P), f.values(V)), (f.grads(P), f.grads(V))):
        if _sums_reorder(f):
            ulps = 4 * f.dim * np.finfo(float).eps * np.max(np.abs(a))
            np.testing.assert_allclose(b, a, rtol=0, atol=ulps)
        else:
            np.testing.assert_array_equal(b, a)


def test_default_fd_step():
    assert default_fd_step(np.array([0.5])) == 1e-5
    assert default_fd_step(np.array([3.0, -7.0])) == pytest.approx(7e-5)
