"""The (b)/(c) kernel against a frozen oracle: the two-pass kernel that
`batch_margins_bc` was before it stacked x and y into one program pass
and summed ||x-y|| over coordinate planes, kept here verbatim (with the
row-wise norm it used). The oracle sums each pairing from the gradient,
one coordinate at a time; the kernel takes each pairing as one slope of
a forward-mode pass, so the chain rule does the summing and the
pairings' last bits differ. So fx, fy, sep and premise_b must match bit
for bit, signed zeros and NaNs included (at n < 8, where np.sum over a
row adds its entries in coordinate order); pairing_x, pairing_y and
margin must lie within a rounding bound of the oracle; and premise_c,
ok_b and ok_c (and the oracle's `ok` key, since deleted from the kernel,
against `ok_c`) must be equal except on the rows that bound excuses."""

import math
from functools import lru_cache

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from quasicheck.conditions import CheckConfig, batch_margins_bc
from quasicheck.expr import Call, Const, Var, parse
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
    f(y) come from the value program, which the slope passes equal bit
    for bit.

    Returns a dict with keys fx, fy, pairing_x, pairing_y, margin,
    premise_b, premise_c, sep (||x-y||), ok_b (f(x), f(y) and grad f(y)
    finite), ok_c (both gradients finite) and ok (both).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    fX, gX = f.values(X), f.grads(X)
    fY, gY = f.values(Y), f.grads(Y)
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
SOURCES = {
    "smooth": lambda n: "+".join(f"x{j}^2" for j in range(1, n + 1)) + f" + 0.1*sin(3*x1)*exp(x{n})",
    "log": lambda n: f"log(x1) + x{n}^2",
    "recip": lambda n: f"1/x1 - x{n}",
    "abs": lambda n: f"abs(x1) + abs(x1 - x{n}) + x{n}",
    "const": lambda n: "1",
}


@lru_cache(maxsize=None)
def field(name: str, n: int) -> ScalarField:
    if name == "const":
        return catalog_field(name, n)
    return make_field_from_expr(SOURCES[name](n), n, DomainBox.cube(-2, 2, n), name)


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
    return field(draw(st.sampled_from(sorted(SOURCES))), n), P, cfg


# one case of each kind the draws must reach: both sides of the rescale
# branch, -inf and NaN values, a tie (NaN gradient at a finite value) and
# all-zero pairings
TINY_HUGE = np.array([[[1e-160, 0.0, -0.0], [0.0, 3e-161, 0.0]],
                      [[1e155, -1e155, 0.0], [-3e152, 2e160, 1.0]]])
LOG_ABS = np.array([[[0.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0], [1.0, 1.0]],
                    [[0.0, 0.5], [1.0, 1.0]]])
# a partial derivative that overflows where the slope does not (1/x1 at
# x1 = 1e-160), and a pairing that overflows from a finite gradient
OVERFLOW = np.array([[[1e-160, 0.0, 0.0], [2e-160, 0.0, 1.0]],
                     [[6e153, 6e153, 0.0], [-6e153, -6e153, 0.0]]])


# ---------------------------------------------------------------------------
# the rounding bound


def magnitude(e, X, A):
    """The value of the expression e at the points X and the magnitude of
    its slope along directions of absolute value A: the chain rule of the
    slope with every term taken in absolute value, so the sum over j of
    |g_j d_j| with each g_j summed term by term. Rounding moves a sum of
    such terms by a few ulps of this magnitude (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3), however the terms
    are grouped; the plain sum over j of |g_j d_j| would not do, as a g_j
    whose terms cancel exactly (abs's -1 + 1) leaves the slope the
    rounding of terms that the oracle never forms."""
    if isinstance(e, Const):
        return e.value, np.zeros(X.shape[:-1])
    if isinstance(e, Var):
        return X[..., e.index - 1], A[..., e.index - 1]
    if isinstance(e, Call):
        a, m = magnitude(e.args[0], X, A)
        fn, d = {"sin": (np.sin, np.cos), "exp": (np.exp, np.exp),
                 "log": (np.log, np.reciprocal), "abs": (np.abs, np.sign)}[e.name]
        return fn(a), np.abs(d(a)) * m
    (a, ma), (b, mb) = magnitude(e.left, X, A), magnitude(e.right, X, A)
    if e.op == "^":   # a constant exponent
        return a ** b, np.abs(b * a ** (b - 1)) * ma
    return {"+": (a + b, ma + mb), "-": (a - b, ma + mb),
            "*": (a * b, ma * np.abs(b) + np.abs(a) * mb),
            "/": (a / b, (ma * np.abs(b) + np.abs(a) * mb) / (b * b))}[e.op]


def rounding_bounds(f, X, Y):
    """The bound on |kernel - oracle| of pairing_x and pairing_y: K
    roundings, each of at most eps times the slope's magnitude plus the
    smallest subnormal (for results that underflow), with K = 2n + 8: two
    per term of a sum over n coordinates and a few per node."""
    e = parse(SOURCES[f.name](f.dim), f.dim)
    K, fi = 2 * f.dim + 8, np.finfo(float)
    with np.errstate(all="ignore"):
        return tuple(K * (fi.eps * magnitude(e, P, np.abs(Q - P))[1] + fi.smallest_subnormal)
                     for P, Q in ((X, Y), (Y, X)))


@settings(max_examples=400, deadline=None)
@given(cases())
@example((field("smooth", 3), TINY_HUGE, CheckConfig(sigma=0.25)))
@example((field("const", 3), TINY_HUGE, CheckConfig()))
@example((field("log", 2), LOG_ABS, CheckConfig()))
@example((field("abs", 2), LOG_ABS, CheckConfig(penalty_norm=1)))
@example((field("recip", 3), OVERFLOW, CheckConfig()))
@example((field("smooth", 3), OVERFLOW, CheckConfig(sigma=0.25)))
def test_bc_kernel_matches_the_frozen_two_pass_kernel(case):
    f, P, cfg = case
    X, Y = P[:, 0], P[:, 1]
    got = batch_margins_bc(f, X, Y, cfg)
    want = oracle_margins_bc(f, X, Y, cfg)
    got["ok"] = got["ok_c"]   # the frozen kernel's combined mask is the new ok_c
    assert sorted(got) == sorted(want)
    for key in ("fx", "fy", "sep", "premise_b"):
        g, w = got[key], want[key]
        assert (g.dtype, g.shape) == (w.dtype, w.shape), key
        assert g.tobytes() == w.tobytes(), (key, g, w)
    bound = dict(zip(("pairing_x", "pairing_y"), rounding_bounds(f, X, Y)))
    bound["margin"] = bound["pairing_y"] + np.finfo(float).eps * np.abs(want["margin"])
    for key, b in bound.items():
        g, w = got[key], want[key]
        both = np.isfinite(g) & np.isfinite(w)
        assert np.all(np.abs(g[both] - w[both]) <= b[both]), (key, g, w, b)
    # the rows excused: where the bound reaches from the oracle's
    # pairing_x across the premise's threshold, and where the oracle's
    # pairing is not finite at a finite value: its gradient or its sum
    # overflowed, where the kernel's one slope may be finite (1/x1 at tiny
    # x1: the slope -d1/x1^2 is, the partial derivative is not) or not (a
    # finite gradient whose pairing overflows, now skipped)
    with np.errstate(all="ignore"):
        at = -0.5 * cfg.sigma * want["sep"] * want["sep"] + cfg.tol
        w, b = want["pairing_x"], bound["pairing_x"]
        edge = (w - b > at) != (w + b > at)
    lost = (~np.isfinite(want["pairing_x"]) & np.isfinite(want["fx"])) | \
        (~np.isfinite(want["pairing_y"]) & np.isfinite(want["fy"]))
    for key in ("premise_c", "ok_b", "ok_c", "ok"):
        differ = got[key] != want[key]
        assert not np.any(differ & ~(edge | lost)), (key, got[key], want[key])
        event(f"{key}: {np.count_nonzero(differ & edge)} rows at the threshold, "
              f"{np.count_nonzero(differ & lost)} where the oracle's pairing overflowed")


def test_overflowed_pairings_are_skipped_by_one_side_only():
    # the rows of the two kinds that the property excuses, counted on the
    # fixed cases: a tiny x1 makes 1/x1's partial derivative overflow,
    # which the oracle skips and the kernel scores, and huge coordinates
    # make the pairing of a finite gradient overflow, which the oracle
    # scored and the kernel skips
    cfg = CheckConfig()
    f = field("recip", 3)
    X, Y = OVERFLOW[:, 0], OVERFLOW[:, 1]
    got, want = batch_margins_bc(f, X, Y, cfg), oracle_margins_bc(f, X, Y, cfg)
    assert got["ok_b"].tolist() == [True, True] and want["ok_b"].tolist() == [False, True]
    f = field("smooth", 3)
    got, want = batch_margins_bc(f, X, Y, cfg), oracle_margins_bc(f, X, Y, cfg)
    assert got["ok_c"].tolist() == [True, False] and want["ok_c"].tolist() == [True, True]
