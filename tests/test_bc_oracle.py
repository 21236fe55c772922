"""The (b)/(c) kernel against a frozen oracle: the two-pass kernel that
`batch_margins_bc` was before it stacked x and y into one program pass
and summed ||x-y|| over coordinate planes, kept here verbatim (with the
row-wise norm it used). Every key of the result must match it bit for
bit, signed zeros and NaNs included, at n < 8, where np.sum over a row
adds its entries in coordinate order; the oracle's `ok` key, since
deleted from the kernel, must equal the kernel's `ok_c`."""

import math
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings, strategies as st

from quasicheck.conditions import CheckConfig, batch_margins_bc
from quasicheck.field import DomainBox, ScalarField, catalog_field, make_field_from_expr


# ---------------------------------------------------------------------------
# the oracle, verbatim


def pnorm_batch(A: np.ndarray, p=2) -> np.ndarray:
    """Row-wise p-norm of an (..., n) array ('inf' and math.inf both
    select the max norm)."""
    if p == 1:
        return np.sum(np.abs(A), axis=-1)
    if p == 2:
        d = np.sqrt(np.sum(A * A, axis=-1))
        odd = (d < 1e-150) | (d > 1e150)
        if odd.any():   # squares under- or overflowed: rescale by the largest entry
            with np.errstate(invalid="ignore"):
                m = np.max(np.abs(A), axis=-1, keepdims=True)
                scaled = m[..., 0] * np.sqrt(np.sum((A / m) ** 2, axis=-1))
                d = np.where(odd & (m[..., 0] > 0) & (m[..., 0] < np.inf), scaled, d)
        return d
    if p in ("inf", math.inf, np.inf):
        return np.max(np.abs(A), axis=-1)
    raise ValueError(f"unsupported norm selector: {p!r}")


def _pairing(g: np.ndarray, D: np.ndarray):
    """<g, D> over the last axis and whether g is finite there, one
    coordinate plane of the gradients at a time, summed from 0.0 as np.sum
    over a row is for n < 8 (a sum of zeros is +0.0)."""
    G = g.transpose(-1, *range(g.ndim - 1))   # the planes that grads views
    pairing, ok = 0.0 + G[0] * D[..., 0], np.isfinite(G[0])
    for j in range(1, len(G)):
        pairing += G[j] * D[..., j]
        ok &= np.isfinite(G[j])
    return pairing, ok


def oracle_margins_bc(f: ScalarField, X: np.ndarray, Y: np.ndarray,
                      cfg: CheckConfig):
    """Margins and premise masks for conditions (b) and (c) on pair rows.

    (b): premise f(x) <= f(y) - tol; (c): premise
    <grad f(x), y-x> > -(sigma/2)*||x-y||^2 + tol. The tolerance narrows
    both premises, so rounding never makes a premise hold. Both share the
    conclusion margin -(sigma/2)*||x-y||^2 - <grad f(y), x-y>. f(x) and
    f(y) come from the program passes that give the gradients.

    Returns a dict with keys fx, fy, pairing_x, pairing_y, margin,
    premise_b, premise_c, sep (||x-y||), ok_b (f(x), f(y) and grad f(y)
    finite), ok_c (both gradients finite) and ok (both).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    fX, gX = f.grads(X, with_values=True)
    fY, gY = f.grads(Y, with_values=True)
    with np.errstate(all="ignore"):
        pairing_x, gx_ok = _pairing(gX, Y - X)
        pairing_y, gy_ok = _pairing(gY, X - Y)
        ok_b = np.isfinite(fX) & np.isfinite(fY) & gy_ok
        d = pnorm_batch(X - Y, cfg.penalty_norm)
        threshold = -0.5 * cfg.sigma * d * d
        margin = threshold - pairing_y
        premise_b = fX <= fY - cfg.tol
        premise_c = pairing_x > threshold + cfg.tol
    return dict(fx=fX, fy=fY, pairing_x=pairing_x, pairing_y=pairing_y,
                margin=margin, premise_b=premise_b, premise_c=premise_c,
                sep=d, ok_b=ok_b, ok_c=gx_ok & gy_ok, ok=ok_b & gx_ok)


# ---------------------------------------------------------------------------
# fields and points

# each a function of n: smooth, NaN and -inf values (log), +-inf values
# (1/x1), abs ties (NaN gradients), and catalog const (every pairing 0)
FIELDS = {
    "smooth": lambda n: "+".join(f"x{j}^2" for j in range(1, n + 1)) + f" + 0.1*sin(3*x1)*exp(x{n})",
    "log": lambda n: f"log(x1) + x{n}^2",
    "recip": lambda n: f"1/x1 - x{n}",
    "abs": lambda n: f"abs(x1) + abs(x1 - x{n}) + x{n}",
    "const": None,
}


@lru_cache(maxsize=None)
def field(name: str, n: int) -> ScalarField:
    if FIELDS[name] is None:
        return catalog_field(name, n)
    return make_field_from_expr(FIELDS[name](n), n, DomainBox.cube(-2, 2, n))


# coordinates of one scale: ordinary ones with exact ties and signed zeros,
# tiny ones whose differences square to below 1e-300 (||x-y|| < 1e-150),
# and huge ones whose differences square to inf (||x-y|| > 1e150)
SCALES = {
    "ordinary": st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
                          st.floats(-2, 2, allow_subnormal=False)),
    "tiny": st.sampled_from([0.0, -0.0, 1e-160, -1e-160, 3e-161, 5e-324, -2e-170]),
    "huge": st.sampled_from([0.0, 1e155, -1e155, 2e160, -3e152, 1.0]),
}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 5))
    rows = []
    for _ in range(k):
        coord = SCALES[draw(st.sampled_from(sorted(SCALES)))]
        rows.append([[draw(coord) for _ in range(n)] for _ in range(2)])
    P = np.array(rows, dtype=float).reshape(k, 2, n)
    cfg = CheckConfig(sigma=draw(st.sampled_from([0.0, 0.25])),
                      penalty_norm=draw(st.sampled_from([1, 2, "inf", math.inf])))
    return field(draw(st.sampled_from(sorted(FIELDS))), n), P, cfg


# one case of each kind the draws must reach: both sides of the rescale
# branch, -inf and NaN values, a tie (NaN gradient at a finite value) and
# all-zero pairings
TINY_HUGE = np.array([[[1e-160, 0.0, -0.0], [0.0, 3e-161, 0.0]],
                      [[1e155, -1e155, 0.0], [-3e152, 2e160, 1.0]]])
LOG_ABS = np.array([[[0.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0], [1.0, 1.0]],
                    [[0.0, 0.5], [1.0, 1.0]]])


@settings(max_examples=400, deadline=None)
@given(cases())
@example((field("smooth", 3), TINY_HUGE, CheckConfig(sigma=0.25)))
@example((field("const", 3), TINY_HUGE, CheckConfig()))
@example((field("log", 2), LOG_ABS, CheckConfig()))
@example((field("abs", 2), LOG_ABS, CheckConfig(penalty_norm=1)))
def test_bc_kernel_matches_the_frozen_two_pass_kernel_bit_for_bit(case):
    f, P, cfg = case
    X, Y = P[:, 0], P[:, 1]
    got = batch_margins_bc(f, X, Y, cfg)
    want = oracle_margins_bc(f, X, Y, cfg)
    # the frozen kernel's combined mask is the new ok_c: grads makes the
    # gradient row of a non-finite value NaN, so ok_c implies ok_b
    assert want.pop("ok").tobytes() == got["ok_c"].tobytes()
    assert sorted(got) == sorted(want)
    for key, w in want.items():
        g = np.asarray(got[key])
        assert (g.dtype, g.shape) == (w.dtype, w.shape), key
        assert g.tobytes() == w.tobytes(), (key, g, w)
