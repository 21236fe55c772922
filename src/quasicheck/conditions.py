"""Signed-margin evaluators for quasiconvexity conditions.

Three conditions are checked, each as a signed margin (negative means
violated at the witness):

  (a) segment inequality:
        f(lam*x + (1-lam)*y) <= max{f(x), f(y)} - (sigma/2)*lam*(1-lam)*||x-y||^2
  (b) if f(x) <= f(y) then <grad f(y), x-y> <= -(sigma/2)*||x-y||^2
  (c) if <grad f(x), y-x> > -(sigma/2)*||x-y||^2
      then <grad f(y), x-y> <= -(sigma/2)*||x-y||^2

sigma = 0 recovers plain quasiconvexity (the Arrow-Enthoven condition for
(b)). sigma_star_* estimate the largest sigma for which (a) holds on the
examined pairs.

Each formula is written once, in a kernel over arrays of pairs:
`segment_margins` yields the (a) margins of chunks of pairs, at a shared
lambda grid or at one lambda per pair, evaluating f once per chunk on a
coordinate-major point buffer that every chunk reuses, and
`batch_margins_bc` gives the pairings, both premises and the shared
(b)/(c) conclusion margin. The per-pair worst (a) margin and sigma*
reduce over the kernel's chunks; the scalar checks `margin_a`, `check_b`,
`check_c` and `sigma_star_segment` run the kernels on a batch of one.
Margins are raw; `is_violated` is the one rule that applies the
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .field import ScalarField
from .vecmath import as_vec, pnorm_batch

__all__ = [
    "CheckConfig",
    "Verdict",
    "Witness",
    "HOLDS",
    "VIOLATED",
    "VACUOUS",
    "SKIPPED",
    "is_violated",
    "segment_margins",
    "margin_a",
    "batch_margin_a_worst",
    "batch_margins_bc",
    "check_b",
    "check_c",
    "sigma_star_segment",
    "sigma_star_estimate",
    "check_lemma",
    "default_lambda_grid",
]

# points per field evaluation in segment_margins: the chunks bound memory
SEGMENT_CHUNK = 1 << 16


def segment_chunk(L: int) -> int:
    """Pairs per chunk of `segment_margins` at L lambdas per pair."""
    return max(1, SEGMENT_CHUNK // (L + 2))


HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
SKIPPED = "skipped"


def default_lambda_grid(k: int = 64) -> tuple[float, ...]:
    """Dyadic grid {j/k : j = 1..k-1}, strictly inside (0, 1)."""
    return tuple(j / k for j in range(1, k))


@dataclass(frozen=True)
class CheckConfig:
    sigma: float = 0.0
    tol: float = 1e-9
    min_sep: float = 1e-6
    lambda_grid: tuple[float, ...] = dc_field(default_factory=default_lambda_grid)
    penalty_norm: object = 2

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.tol <= 0 or self.min_sep <= 0:
            raise ValueError("tol and min_sep must be positive")
        grid = tuple(float(l) for l in self.lambda_grid)
        if not grid or min(grid) <= 0 or max(grid) >= 1:
            raise ValueError("lambda grid must lie strictly inside (0, 1)")
        object.__setattr__(self, "lambda_grid", grid)

    def to_json(self):
        p = self.penalty_norm
        return {
            "sigma": self.sigma,
            "tol": self.tol,
            "min_sep": self.min_sep,
            "lambda_grid_size": len(self.lambda_grid),
            "penalty_norm": "inf" if p in ("inf", math.inf, np.inf) else p,
        }


@dataclass(frozen=True)
class Witness:
    x: np.ndarray
    y: np.ndarray
    lam: Optional[float] = None
    fx: Optional[float] = None
    fy: Optional[float] = None
    pairing_x: Optional[float] = None  # <grad f(x), y-x>
    pairing_y: Optional[float] = None  # <grad f(y), x-y>

    def to_json(self):
        out = {"x": np.asarray(self.x).tolist(), "y": np.asarray(self.y).tolist()}
        for k in ("lam", "fx", "fy", "pairing_x", "pairing_y"):
            v = getattr(self, k)
            if v is not None:
                out[k] = float(v)
        return out


@dataclass(frozen=True)
class Verdict:
    status: str
    margin: float
    witness: Optional[Witness] = None

    def to_json(self):
        out = {"status": self.status, "margin": self.margin}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def is_violated(margin, tol):
    """The violation rule, elementwise: a margin is violated iff it lies
    below -tol (NaN never is)."""
    return np.less(margin, -tol)


def _classify(margin: float, tol: float) -> str:
    return VIOLATED if is_violated(margin, tol) else HOLDS


def _checked_pair(x, y, cfg: CheckConfig):
    """x and y as vectors, rejecting a pair closer than min_sep."""
    x = as_vec(x)
    y = as_vec(y)
    d = float(pnorm_batch(x - y, cfg.penalty_norm))
    if d < cfg.min_sep:
        raise ValueError(f"||x-y|| = {d} below min_sep {cfg.min_sep}")
    return x, y


# ---------------------------------------------------------------------------
# Condition (a): the defining segment inequality


def segment_margins(f: ScalarField, X, Y, lams, sigma: float, penalty_norm=2):
    """Condition-(a) margins of the pairs (X[i], Y[i]), chunk by chunk:

        max{f(x), f(y)} - (sigma/2)*lam*(1-lam)*||x-y||^2 - f(y + lam*(x-y))

    `lams` has shape (L, 1) for a grid shared by all pairs or (1, N) for
    one lambda per pair. Each chunk evaluates f once, on x, y, then one
    segment point per lambda: the points are stored coordinate-major,
    (n, L + 2, k), in one buffer reused by every chunk, and f gets them
    as a read-only (L + 2, k, n) view in which each coordinate is one
    contiguous plane. Yields (rows, margins (L, k), ||x-y|| (k,)) per
    chunk of k pairs; a margin is NaN where an evaluation failed.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    L = lams.shape[0]
    step = segment_chunk(L)
    S = np.empty((X.shape[1], L + 2, min(step, X.shape[0])))
    points = S.transpose(1, 2, 0)
    points.flags.writeable = False   # f must not write into the reused buffer
    for lo in range(0, X.shape[0], step):
        rows = slice(lo, lo + step)
        x, y = X[rows], Y[rows]
        k = x.shape[0]
        lam = lams if lams.shape[1] == 1 else lams[:, rows]
        P = S[..., :k]
        with np.errstate(all="ignore"):
            P[:, 0], P[:, 1] = x.T, y.T
            np.multiply(lam, (P[:, 0] - P[:, 1])[:, None], out=P[:, 2:])
            P[:, 2:] += P[:, 1, None]
            v = f.values(points[:, :k])
            # from the row-major x - y: a sum over the planes would reorder it at n >= 8
            d = pnorm_batch(x - y, penalty_norm)
            m = np.empty((L, k))
            top = np.maximum(v[0], v[1])
            if sigma:
                np.multiply(0.5 * sigma * lam * (1.0 - lam), d, out=m)
                m *= d
                np.subtract(top, m, out=m)
                m -= v[2:]
            else:   # the penalty is +0 for finite d: subtracting it is exact
                np.subtract(top, v[2:], out=m)
            finite = np.isfinite(v)
            if not finite.all():
                m[~(finite[0] & finite[1] & finite[2:])] = np.nan
        yield rows, m, d   # outside errstate: the consumer runs between chunks


def margin_a(f: ScalarField, x, y, lam: float, cfg: CheckConfig) -> float:
    """max{f(x),f(y)} - (sigma/2)*lam*(1-lam)*||x-y||^2 - f(segment point).

    Nonnegative iff the defining inequality holds at (x, y, lam).
    Returns NaN when an evaluation fails (skipped sample).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    x, y = _checked_pair(x, y, cfg)
    (_, m, _), = segment_margins(f, x[None], y[None], np.array([[lam]], dtype=float),
                                 cfg.sigma, cfg.penalty_norm)
    return float(m[0, 0])


def batch_margin_a_worst(f: ScalarField, X: np.ndarray, Y: np.ndarray,
                         cfg: CheckConfig):
    """Per-pair worst condition-(a) margin over the lambda grid.

    Returns (worst_margin, worst_lam, ok_mask); rows with any failed
    evaluation have ok_mask False and NaN margin. Ties go to the first
    lambda of the grid.
    """
    lams = np.asarray(cfg.lambda_grid)[:, None]
    worst = np.empty(len(X))
    worst_lam = np.empty(len(X))
    for rows, m, _ in segment_margins(f, X, Y, lams, cfg.sigma, cfg.penalty_norm):
        i = np.argmin(m, axis=0)   # a NaN column gives its first NaN
        worst[rows] = np.take_along_axis(m, i[None], axis=0)[0]
        worst_lam[rows] = lams[i, 0]
    return worst, worst_lam, ~np.isnan(worst)


# ---------------------------------------------------------------------------
# Conditions (b) and (c): first-order gradient implications


def batch_margins_bc(f: ScalarField, X: np.ndarray, Y: np.ndarray,
                     cfg: CheckConfig, premise_tol: float | None = None):
    """Margins and premise masks for conditions (b) and (c) on pair rows.

    (b): premise f(x) <= f(y) + premise_tol; (c): premise
    <grad f(x), y-x> > -(sigma/2)*||x-y||^2 + premise_tol. Both share the
    conclusion margin -(sigma/2)*||x-y||^2 - <grad f(y), x-y>. premise_tol
    defaults to cfg.tol (0 makes the premises exact; adversarial search
    uses that so reported violations are genuine and not artifacts of
    premise rounding room).

    Returns a dict with keys fx, fy, pairing_x, pairing_y, margin,
    premise_b, premise_c, sep (||x-y||), ok_b (f(x), f(y) and grad f(y)
    finite), ok_c (both gradients finite) and ok (both).
    """
    pt = cfg.tol if premise_tol is None else premise_tol
    return _margins_bc(f, X, Y, cfg, pt, values=True)


def _margins_bc(f: ScalarField, X, Y, cfg: CheckConfig, pt: float,
                values: bool):
    """`batch_margins_bc` at premise tolerance pt. Without `values` it skips
    f(x), f(y) and the keys that need them (fx, fy, premise_b, ok_b, ok),
    which leaves all that condition (c) needs."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    r = {}
    if values:
        fX = r["fx"] = f.values(X)
        fY = r["fy"] = f.values(Y)
    gX = f.grads(X)
    gY = f.grads(Y)
    gx_ok = np.all(np.isfinite(gX), axis=-1)
    gy_ok = np.all(np.isfinite(gY), axis=-1)
    if values:
        ok_b = np.isfinite(fX) & np.isfinite(fY) & gy_ok
    with np.errstate(all="ignore"):
        d = pnorm_batch(X - Y, cfg.penalty_norm)
        pairing_x = np.sum(gX * (Y - X), axis=-1)
        pairing_y = np.sum(gY * (X - Y), axis=-1)
        threshold = -0.5 * cfg.sigma * d * d
        margin = threshold - pairing_y
        if values:
            r["premise_b"] = fX <= fY + pt
        premise_c = pairing_x > threshold + pt
    r.update(pairing_x=pairing_x, pairing_y=pairing_y, margin=margin,
             premise_c=premise_c, ok_c=gx_ok & gy_ok, sep=d)
    if values:
        r.update(ok_b=ok_b, ok=ok_b & gx_ok)
    return r


def _check_bc(f: ScalarField, x, y, cfg: CheckConfig, premise_tol, name: str,
              witness_keys: tuple) -> Verdict:
    """Condition `name` ('b' or 'c') at one pair, as a batch of one."""
    x, y = _checked_pair(x, y, cfg)
    r = batch_margins_bc(f, x[None], y[None], cfg, premise_tol)
    if not r[f"ok_{name}"][0]:
        return Verdict(SKIPPED, math.nan)
    w = Witness(x=x, y=y, **{k: float(r[k][0]) for k in witness_keys})
    if not r[f"premise_{name}"][0]:
        return Verdict(VACUOUS, math.nan, w)
    margin = float(r["margin"][0])
    return Verdict(_classify(margin, cfg.tol), margin, w)


def check_b(f: ScalarField, x, y, cfg: CheckConfig,
            premise_tol: float | None = None) -> Verdict:
    """Condition (b) at one pair (see batch_margins_bc): premise
    f(x) <= f(y); conclusion margin -(sigma/2)*||x-y||^2 - <grad f(y), x-y>."""
    return _check_bc(f, x, y, cfg, premise_tol, "b", ("fx", "fy", "pairing_y"))


def check_c(f: ScalarField, x, y, cfg: CheckConfig,
            premise_tol: float | None = None) -> Verdict:
    """Condition (c) at one pair: premise <grad f(x), y-x> >
    -(sigma/2)*||x-y||^2, enforced strictly as "> +tol"; conclusion margin
    as in check_b."""
    return _check_bc(f, x, y, cfg, premise_tol, "c", ("pairing_x", "pairing_y"))


# ---------------------------------------------------------------------------
# sigma* estimation


def _sigma_star(f: ScalarField, X, Y, cfg: CheckConfig, failure: str) -> float:
    """min over pairs and the lambda grid of
    2 * (max{f(x),f(y)} - f(segment)) / (lam*(1-lam)*||x-y||^2), the
    sigma = 0 margin scaled; raises ArithmeticError(failure) when no
    sample evaluates."""
    lams = np.asarray(cfg.lambda_grid)[:, None]
    weight = lams * (1.0 - lams)
    best = math.inf
    for _, m, d in segment_margins(f, X, Y, lams, 0.0, cfg.penalty_norm):
        with np.errstate(all="ignore"):
            den = np.multiply(weight, d)
            den *= d
            ratio = np.multiply(m, 2.0, out=m)
            ratio /= den
        ratio = ratio[np.isfinite(ratio)]
        if ratio.size:
            best = min(best, float(np.min(ratio)))
    if not math.isfinite(best):
        raise ArithmeticError(failure)
    return best


def sigma_star_segment(f: ScalarField, x, y, cfg: CheckConfig) -> float:
    """min over the lambda grid of
    2 * (max{f(x),f(y)} - f(segment)) / (lam*(1-lam)*||x-y||^2).

    Negative values mean f is not even quasiconvex on this segment.
    """
    x, y = _checked_pair(x, y, cfg)
    # canonical pair order makes the result bitwise swap-invariant
    # (the default lambda grid is symmetric about 1/2)
    if tuple(y) < tuple(x):
        x, y = y, x
    return _sigma_star(f, x[None], y[None], cfg,
                       "all lambda samples failed on this segment")


def sigma_star_estimate(f: ScalarField, sampler, cfg: CheckConfig) -> float:
    """min of sigma_star_segment over sampled pairs: an upper bound for the
    largest sigma satisfying the defining inequality on the domain.

    `sampler` is either an iterable of (x, y) pairs or an object with a
    .pairs() method (see search.Sampler). The raw (possibly negative)
    value is returned; clamp at 0 only when reporting.
    """
    pairs = sampler.pairs() if hasattr(sampler, "pairs") else sampler
    P = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                   dtype=float)
    if P.size == 0:
        raise ValueError("sampler produced no pairs")
    X, Y = P[:, 0, :], P[:, 1, :]
    keep = pnorm_batch(X - Y, cfg.penalty_norm) >= cfg.min_sep
    if not np.any(keep):
        raise ValueError("no pair passed the min_sep filter")
    return _sigma_star(f, X[keep], Y[keep], cfg,
                       "every sampled segment failed to evaluate")


# ---------------------------------------------------------------------------
# Scalar lemma: if at every x in (a,b) either phi'(x) <= 0 or
# phi(x) <= phi(a), then phi(b) <= phi(a).


def check_lemma(phi: ScalarField, grid, tol: float = 1e-9) -> Verdict:
    """Grid check of the scalar monotone-bound lemma on phi's interval.

    holds: hypothesis satisfied on the grid and phi(b) <= phi(a) + tol.
    vacuous: hypothesis fails at some grid point (witness attached).
    violated: hypothesis held on the grid yet phi(b) > phi(a) + tol --
    a candidate contradiction, to be re-examined on a finer grid.
    """
    if phi.dim != 1:
        raise ValueError("lemma checker requires a 1-D field")
    a = float(phi.domain.lower[0])
    b = float(phi.domain.upper[0])
    grid = np.asarray(sorted(float(t) for t in grid), dtype=float)
    if grid.size == 0 or grid[0] <= a or grid[-1] >= b:
        raise ValueError("grid must be non-empty and strictly inside (a, b)")
    fa = phi.value(np.array([a]))
    fb = phi.value(np.array([b]))
    vals = phi.values(grid[:, None])
    ders = phi.grads(grid[:, None])[:, 0]
    ok = np.isfinite(vals) & np.isfinite(ders)
    hyp = (ders <= tol) | (vals <= fa + tol)
    bad = ok & ~hyp
    if np.any(bad):
        i = int(np.argmax(bad))
        w = Witness(x=np.array([grid[i]]), y=np.array([b]),
                    fx=float(vals[i]), fy=fb, pairing_x=float(ders[i]))
        return Verdict(VACUOUS, math.nan, w)
    if not np.any(ok):
        return Verdict(SKIPPED, math.nan)
    margin = fa - fb
    w = Witness(x=np.array([a]), y=np.array([b]), fx=fa, fy=fb)
    return Verdict(_classify(margin, tol), margin, w)


def check_lemma_refined(phi: ScalarField, initial_points: int = 63,
                        tol: float = 1e-9, max_rounds: int = 6) -> Verdict:
    """check_lemma with grid-doubling: a violated verdict is only kept if
    it survives refinement (otherwise refinement finds the hypothesis
    failure and the verdict turns vacuous)."""
    a = float(phi.domain.lower[0])
    b = float(phi.domain.upper[0])
    k = initial_points + 1
    verdict = None
    for _ in range(max_rounds):
        grid = a + (b - a) * np.arange(1, k) / k
        verdict = check_lemma(phi, grid, tol)
        if verdict.status != VIOLATED:
            return verdict
        k *= 2
    return verdict
