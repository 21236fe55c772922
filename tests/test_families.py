"""Shipped families against the hand-written closures they were defined by
before they became compiled expressions: the closures are kept here as
the oracle for every member's values and gradients."""

import numpy as np
import pytest

from quasicheck.families import family_by_name
from quasicheck.field import ScalarField

EPS = np.finfo(float).eps


def cubic_oracle(theta, X):
    p, q = theta[..., 0], theta[..., 1]
    x = X[..., 0]
    # x^3 is compiled as |x|^3 with x's sign, which numpy's power computes
    # on its vector path for every x
    value = np.copysign(np.abs(x) ** 3, x) + p * x ** 2 + q * x
    p, q = p[..., None], q[..., None]
    return value, 3.0 * X ** 2 + 2.0 * p * X + q, None


def perturbed_sqnorm_oracle(theta, X):
    a, w = theta[..., 0], theta[..., 1]
    value = np.sum(X ** 2, axis=-1) + a * np.sin(w * X[..., 0])
    g = 2.0 * X.copy()
    ripple = a * w * np.cos(w * X[..., 0])
    g[..., 0] += ripple
    scale = np.abs(2.0 * X)
    scale[..., 0] += np.abs(ripple)
    return value, g, scale


def bump_sum_oracle(theta, X):
    a1, width, a2 = (theta[..., k, None] for k in range(3))
    c = 0.7
    r1 = np.sum((X - c) ** 2, axis=-1)
    r2 = np.sum((X + c) ** 2, axis=-1)
    value = -a1[..., 0] * np.exp(-r1 / width[..., 0]) \
        - a2[..., 0] * np.exp(-r2 / width[..., 0])
    g1 = (2.0 * a1 / width) * np.exp(-r1 / width[..., 0])[..., None] * (X - c)
    g2 = (2.0 * a2 / width) * np.exp(-r2 / width[..., 0])[..., None] * (X + c)
    return value, g1 + g2, np.abs(g1) + np.abs(g2)


# the parent closures, written for one theta or one theta per point row,
# and the points per theta each family is checked on
ORACLES = {"param_cubic": (cubic_oracle, 100_000),
           "perturbed_sqnorm": (perturbed_sqnorm_oracle, 20_000),
           "bump_sum": (bump_sum_oracle, 20_000)}


def _thetas(fam, count=20, seed=0):
    rng = np.random.default_rng(seed)
    box = fam.param_box
    return box.lower + rng.random((count, box.dim)) * box.widths


def _points(fam, rows, seed):
    rng = np.random.default_rng(seed)
    box = fam.domain
    return box.lower + rng.random((rows, box.dim)) * box.widths


def _assert_matches_oracle(name, oracle, theta, X, f):
    value, grad = f.values(X), f.grads(X)
    v, g, scale = oracle(theta, X)
    assert np.array_equal(value, v), name
    if scale is None:   # the compiled gradient associates as the closure did
        assert np.array_equal(grad, g), name
    else:               # t1*(cos(.)*t2) against (a*w)*cos(.): rounding only
        assert np.all(np.abs(grad - g) <= 4 * EPS * scale), name
    return value, grad


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_members_match_closures(name):
    # each member alone (build), and the engine's field with one theta per
    # point row, on the row shape of condition (b)/(c) and on the
    # (L + 2, k, n) shape of the segment kernel
    fam = family_by_name(name)
    oracle, rows = ORACLES[name]
    thetas = _thetas(fam)
    rng = np.random.default_rng(1)
    k = rows // 3
    for i, theta in enumerate(thetas):
        X = _points(fam, rows, i)
        pick = rng.integers(len(thetas), size=rows)
        for P in (X, X[:3 * k].reshape(3, k, X.shape[-1])):
            T = thetas[pick[:P.shape[-2]]]
            _assert_matches_oracle(name, oracle, theta, P, fam.build(theta))
            row = ScalarField("members", fam.program, fam.domain, T)
            value, grad = _assert_matches_oracle(name, oracle, T, P, row)
            mine = pick[:P.shape[-2]] == i
            alone = fam.build(theta)
            assert np.array_equal(alone.values(P[..., mine, :]), value[..., mine])
            assert np.array_equal(alone.grads(P[..., mine, :]), grad[..., mine, :])
