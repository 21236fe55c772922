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
`segment_margins` yields the (a) margins of chunks of a block of pairs,
at a shared lambda grid or at one lambda per pair. Its pair work is done
once per block: the planes of x - y, ||x-y|| and max{f(x), f(y)} (NaN
where either failed), where the caller may hand in ||x-y|| and f(x), f(y).
Each chunk then fills only its segment points (one per pair and lambda)
into a coordinate-major point buffer that every chunk of the block
reuses, and evaluates f once on them (with x and y in the same call when
f(x), f(y) were not handed in). `batch_margins_bc` gives the pairings,
both premises and the shared (b)/(c) conclusion margin from one program
pass over x and y stacked as coordinate planes, seeded with the
directions y - x and x - y: each pairing is one directional derivative,
and no gradient is formed; its values are f(x) and f(y).
The per-pair worst (a) margin and sigma* reduce over the kernel's
chunks; `verdicts_bc` gives the (b)/(c) verdict of each pair row, and
the scalar checks `margin_a`, `check_b`, `check_c` and
`sigma_star_segment` run the kernels on a batch of one, after checking
that x and y have f's dimension and lie min_sep apart. Margins are
raw; `is_violated` is the one rule that applies the tolerance, and
`statuses` the one rule that maps a kernel row to holds, violated,
vacuous or skipped. A condition skips a pair only when an evaluation it
reads fails: f at x, y and the segment points for (a); f(x), f(y) and
<grad f(y), x-y> for (b); both pairings for (c). A pairing that
overflows counts as failed.

`sigma_star_estimate` and the implication harness (search.py) cut their
pairs into blocks and run each block end to end, drawn, filtered and
scored, on one lane of `_in_lanes`. The min_sep filter gives the block's
||x-y||, which the kernels read; (a) takes f(x), f(y) from the (b)/(c)
pass in `check` and from one `values` call in `sigma`. Every block goes
to one queue, which a helper thread (given a second CPU) takes from, and
the calling thread takes the earliest block no helper has started
whenever the result it needs next is not done. The kernels themselves run on whichever thread
calls them, and a block hands back only its own results, so neither
keeps an array whose length grows with the pair count.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from .field import ScalarField
from .vecmath import as_vec

__all__ = [
    "CheckConfig",
    "Verdict",
    "Witness",
    "HOLDS",
    "VIOLATED",
    "VACUOUS",
    "SKIPPED",
    "STATUSES",
    "is_violated",
    "statuses",
    "segment_margins",
    "margin_a",
    "batch_margin_a_worst",
    "batch_margins_bc",
    "check_b",
    "check_c",
    "verdicts_bc",
    "sigma_star_segment",
    "sigma_star_estimate",
    "check_lemma",
    "default_lambda_grid",
]

# points per chunk of segment_margins: the chunks bound memory
SEGMENT_CHUNK = 1 << 16

# pairs scored at once in `check` and `sigma`, over all lanes: the LANES
# blocks that run at once hold this many pairs, whatever the count; the
# one more block in flight is queued (nothing drawn yet) or done, when it
# holds only its result (see `_in_lanes`)
PAIR_BLOCK = 1 << 14

# lanes of `_in_lanes`: the calling thread and LANES - 1 helper threads,
# set by `_lanes` on first use. At most two, the only count measured:
# more lanes cut the pairs in flight into more, smaller blocks, each with
# the same Python cost per block and per hand-off.
LANES = None
_pool = None   # the helper threads, started by the first stream that needs them


def _cpu_max() -> str:
    """The cgroup v2 CPU quota of this process, "quota period" or "max"
    ("" when the file is missing or unreadable)."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            return fh.read()
    except OSError:
        return ""


def _lanes() -> int:
    """LANES, counted on first use: min(2, the CPUs this process may run
    on, its CPU quota rounded up), where a quota of "max" or a missing,
    unreadable or malformed file is none."""
    global LANES
    if LANES is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        try:
            quota, period = map(int, _cpu_max().split())
            cpus = min(cpus, max(1, -(-quota // period)))
        except (ValueError, ZeroDivisionError):
            pass
        LANES = min(2, cpus)
    return LANES


def _helpers():
    """The executor of the helper threads of `_in_lanes`."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor   # about 10 ms of import
        _pool = ThreadPoolExecutor(max(1, _lanes() - 1), "quasicheck-lane")
    return _pool


def _in_lanes(work, count: int):
    """work(lo, k) for each block of pairs lo..lo+k-1, yielded in order,
    the blocks cutting pairs 0..count-1 into PAIR_BLOCK // LANES pairs
    each. Every block goes to the helper threads' queue; while the first
    block in flight is not done, the calling thread runs the earliest
    block that no helper has started, so no lane idles while a block waits
    to be consumed. At most LANES + 1 blocks are in flight (queued,
    running, or done and not yet consumed) and at most LANES run at once;
    none is left running when the stream ends, fails or is closed. At one
    lane nothing is queued: the calling thread runs every block."""
    from concurrent.futures import Future   # about 10 ms of import
    W = _lanes()
    size = max(1, PAIR_BLOCK // W)
    blocks = ((lo, min(size, count - lo)) for lo in range(0, count, size))
    queue = _helpers().submit if W > 1 else lambda *_: Future()
    flight = deque()   # [block, its future] per block in flight, in order
    try:
        while True:
            for block in itertools.islice(blocks, W + 1 - len(flight)):
                flight.append([block, queue(work, *block)])
            if not flight:
                return
            for entry in flight:
                if flight[0][1].done():
                    break
                if entry[1].cancel():   # no helper has started it: run it here
                    entry[1] = Future()
                    entry[1].set_result(work(*entry[0]))
            yield flight.popleft()[1].result()
    finally:
        for _, future in flight:
            if not future.cancel():
                future.exception()   # wait for it, dropping its failure if any


HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
SKIPPED = "skipped"
# the statuses in the order of the reports' counts; a status code (see
# `statuses`) indexes this tuple, and only the first two carry a margin
STATUSES = (HOLDS, VIOLATED, VACUOUS, SKIPPED)


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
        norm = self.penalty_norm
        if norm not in (1, 2, "inf", math.inf):
            raise ValueError(f"unsupported norm selector: {norm!r}")
        object.__setattr__(self, "penalty_norm", norm if norm in (1, 2) else math.inf)

    def to_json(self):
        p = self.penalty_norm
        return {
            "sigma": self.sigma,
            "tol": self.tol,
            "min_sep": self.min_sep,
            "lambda_grid_size": len(self.lambda_grid),
            "penalty_norm": "inf" if p == math.inf else p,
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


def statuses(margin, premise, ok, tol) -> np.ndarray:
    """The status of each row of a condition, as an int8 index into
    STATUSES: skipped where not ok, else vacuous where the premise fails,
    else violated or holds by `is_violated`."""
    code = np.where(premise, is_violated(margin, tol), 2)
    return np.where(ok, code, 3).astype(np.int8)


def _plane_norm(D: np.ndarray, p=2) -> np.ndarray:
    """The p-norm of vectors stored as coordinate planes (D[j] holds
    coordinate j of each), summed in coordinate order as np.sum over a row
    of fewer than 8 entries is; for p = 2, vectors whose squares under- or
    overflow are rescaled by their largest entry."""
    if p == math.inf:
        return np.max(np.abs(D), axis=0)
    if p not in (1, 2):
        raise ValueError(f"unsupported norm selector: {p!r}")
    term = np.abs if p == 1 else np.square
    acc = term(D[0])
    for j in range(1, len(D)):
        acc += term(D[j])
    if p == 1:
        return acc
    d = np.sqrt(acc, out=acc)
    odd = (d < 1e-150) | (d > 1e150)
    if odd.any():
        m = np.max(np.abs(D), axis=0)
        odd &= (m > 0) & (m < math.inf)
        d[odd] = m[odd] * _plane_norm(D[:, odd] / m[odd])
    return d


def _checked_pair(f: ScalarField, x, y, cfg: CheckConfig):
    """x and y as vectors, rejecting a pair whose lengths are not f's
    dimension or that lies closer than min_sep."""
    x = as_vec(x)
    y = as_vec(y)
    if not len(x) == len(y) == f.dim:
        raise ValueError(f"points of lengths {len(x)} and {len(y)} for a "
                         f"{f.dim}-dimensional field")
    d = float(_plane_norm((x - y)[:, None], cfg.penalty_norm)[0])
    if d < cfg.min_sep:
        raise ValueError(f"||x-y|| = {d} below min_sep {cfg.min_sep}")
    return x, y


def _separated(P: np.ndarray, cfg: CheckConfig):
    """The pairs P (rows (x, y)) at least min_sep apart, as X, Y, the mask
    of those kept and their ||x-y||: views of P when every pair is kept,
    since no kernel writes into the points it is given."""
    X, Y = P[:, 0], P[:, 1]
    d = _plane_norm((X - Y).T, cfg.penalty_norm)
    keep = d >= cfg.min_sep
    return (X, Y, keep, d) if keep.all() else (X[keep], Y[keep], keep, d[keep])


def _stacked(X, Y) -> np.ndarray:
    """The points x and y of the pairs X, Y (rows) as coordinate planes
    (n, 2, k): S[j, 0] holds coordinate j of each x, S[j, 1] of each y."""
    S = np.empty((np.shape(X)[1], 2, len(X)))
    S[:, 0], S[:, 1] = np.transpose(X), np.transpose(Y)
    return S


# ---------------------------------------------------------------------------
# Condition (a): the defining segment inequality


def _buffers(n: int, L: int, size: int) -> tuple:
    """The per-chunk buffers of `segment_margins`, for chunks of up to
    `size` pairs in R^n at L lambdas: the coordinate-major points
    (n, L + 2, size) (x, y, then one segment point per lambda) and their
    read-only (L + 2, size, n) view, the margins (L, size) and the flat
    buffer of the points' finite flags ((L + 2) * size). The per-block
    arrays (the planes of x - y, ||x-y|| and max{f(x), f(y)}) are the
    caller's."""
    S = np.empty((n, L + 2, size))
    points = S.transpose(1, 2, 0)
    points.flags.writeable = False   # f must not write into the reused buffer
    return S, points, np.empty((L, size)), np.empty((L + 2) * size, dtype=bool)


def segment_margins(f: ScalarField, X, Y, lams, sigma: float, penalty_norm=2, *,
                    ends=None, sep=None):
    """Condition-(a) margins of the pairs X, Y (rows), chunk by chunk:

        max{f(x), f(y)} - (sigma/2)*lam*(1-lam)*||x-y||^2 - f(y + lam*(x-y))

    `lams` has shape (L, 1) for a grid shared by all pairs or (1, N) for
    one lambda per pair. The work that does not depend on lambda is done
    once per call (one block): the planes of x - y, ||x-y|| (unless `sep`
    gives it) and, when `ends` = (f(x), f(y)) is given, their max, NaN
    where either failed. Each chunk copies in its pairs' y, fills one
    segment point per lambda and calls f once, on the segment points
    alone, or without `ends` on x and y as well (planes 0 and 1), so a
    caller with no f(x), f(y) makes no second call. The points are stored
    coordinate-major, (n, L + 2, k), in a buffer that every chunk reuses,
    and f gets a read-only (planes, k, n) view of them in which each
    coordinate is one contiguous plane. Yields (rows, margins (L, k),
    ||x-y|| (k,)) per chunk of k pairs, in order, rows being the chunk's
    slice of the pairs; a margin is NaN where an evaluation failed. The
    margins live in a buffer that the next chunk overwrites once the
    consumer asks for it. Parameter rows of f, one per pair, are sliced
    as lambdas are.

    Runs on the calling thread. At most SEGMENT_CHUNK // (L + 2) pairs
    are one chunk; more are cut into chunks of a LANES-th of that, so the
    buffers of the LANES blocks that `_in_lanes` runs at once hold at most
    SEGMENT_CHUNK points together. The margins depend neither on the
    chunking nor on whether `ends` and `sep` (f's values and
    `_plane_norm`'s norms) are given.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    N, L = len(X), lams.shape[0]
    whole = max(1, SEGMENT_CHUNK // (L + 2))
    step = max(1, N if N <= whole else whole // _lanes())
    Xt, Yt = X.T, Y.T
    with np.errstate(all="ignore"):
        D = np.subtract(Xt, Yt, order="C")
        d = _plane_norm(D, penalty_norm) if sep is None else sep
        weight = 0.5 * sigma * lams * (1.0 - lams) if sigma else None
        if ends is not None:   # NaN where f(x) or f(y) failed: so are its margins
            fx, fy = ends
            top = np.maximum(fx, fy)
            failed = ~(np.isfinite(fx) & np.isfinite(fy))
            if failed.any():
                top[failed] = np.nan
    ride = 2 if ends is None else 0   # x and y ride in f's call, as planes 0 and 1
    S, points, M, finite = _buffers(X.shape[1], L, step)
    # parameter rows are sliced only when the pairs take several chunks
    rowwise = np.ndim(f.params) == 2 and step < N
    per_pair = lams.shape[1] > 1   # one lambda per pair: sliced as the pairs
    for lo in range(0, N, step):
        rows = slice(lo, min(lo + step, N))
        k = rows.stop - lo
        P, m, dk = S[..., :k], M[:, :k], d[rows]
        lam = lams[:, rows] if per_pair else lams
        g = replace(f, params=f.params[rows]) if rowwise else f
        with np.errstate(all="ignore"):
            if ride:
                P[:, 0] = Xt[:, rows]
            P[:, 1] = Yt[:, rows]
            np.multiply(lam, D[:, None, rows], out=P[:, 2:])
            P[:, 2:] += P[:, 1, None]
            v = g.values(points[2 - ride:, :k])
            t = np.maximum(v[0], v[1]) if ride else top[rows]
            if sigma:
                np.multiply(weight[:, rows] if per_pair else weight, dk, out=m)
                m *= dk
                np.subtract(t, m, out=m)
                m -= v[ride:]
            else:   # the penalty is +0 for finite d: subtracting it is exact
                np.subtract(t, v[ride:], out=m)
            # a contiguous out: numpy 2.4's isfinite writes a strided bool
            # out, such as the flags of a one-pair chunk, wrongly (AVX-512)
            ok = np.isfinite(v, out=finite[:v.size].reshape(v.shape))
            if not ok.all():
                m[~(ok[0] & ok[1] & ok[2:] if ride else ok)] = np.nan
        yield rows, m, dk


def margin_a(f: ScalarField, x, y, lam: float, cfg: CheckConfig) -> float:
    """max{f(x),f(y)} - (sigma/2)*lam*(1-lam)*||x-y||^2 - f(segment point).

    Nonnegative iff the defining inequality holds at (x, y, lam).
    Returns NaN when an evaluation fails (skipped sample).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    x, y = _checked_pair(f, x, y, cfg)
    (_, m, _), = segment_margins(f, x[None], y[None], np.array([[lam]], dtype=float),
                                 cfg.sigma, cfg.penalty_norm)
    return float(m[0, 0])


def batch_margin_a_worst(f: ScalarField, X: np.ndarray, Y: np.ndarray,
                         cfg: CheckConfig, *, ends=None, sep=None):
    """Per-pair worst condition-(a) margin over the lambda grid.

    Returns (worst_margin, worst_lam, ok_mask); rows with any failed
    evaluation have ok_mask False and NaN margin. Ties go to the first
    lambda of the grid. `ends` = (f(x), f(y)) and `sep` = ||x-y||, when
    the caller has them, spare the kernel that work (see
    `segment_margins`); by default it computes them.
    """
    lams = np.asarray(cfg.lambda_grid)[:, None]
    worst = np.empty(len(X))
    worst_lam = np.empty(len(X))
    for rows, m, _ in segment_margins(f, X, Y, lams, cfg.sigma, cfg.penalty_norm,
                                      ends=ends, sep=sep):
        i = np.argmin(m, axis=0)   # a NaN column gives its first NaN
        worst[rows] = m[i, np.arange(len(i))]
        worst_lam[rows] = lams[i, 0]
    return worst, worst_lam, ~np.isnan(worst)


# ---------------------------------------------------------------------------
# Conditions (b) and (c): first-order gradient implications


def batch_margins_bc(f: ScalarField, X: np.ndarray, Y: np.ndarray,
                     cfg: CheckConfig, *, sep=None):
    """Margins and premise masks for conditions (b) and (c) on pair rows.

    (b): premise f(x) <= f(y) - tol; (c): premise
    <grad f(x), y-x> > -(sigma/2)*||x-y||^2 + tol. The tolerance narrows
    both premises, so rounding never makes a premise hold. Both share the
    conclusion margin -(sigma/2)*||x-y||^2 - <grad f(y), x-y>. The pairs
    are copied into coordinate planes (n, 2, k), and one `slopes` pass over
    them, seeded with the planes of y - x at x and of x - y at y, gives f
    and both pairings; ||x-y|| is `sep` when the caller has it, else it
    comes from the same planes (`_plane_norm`).

    Returns a dict with keys fx, fy, pairing_x, pairing_y, margin,
    premise_b, premise_c, sep (||x-y||), ok_b (f(x) and the pairing at y
    finite) and ok_c (both pairings finite, which implies ok_b: `slopes`
    makes the slope of a non-finite value NaN). A pairing that overflows
    is not finite, so its pair is skipped.
    """
    S = _stacked(X, Y)
    with np.errstate(all="ignore"):
        D = S[:, ::-1] - S   # planes of y - x, then of x - y
        (fx, fy), pairing = f.slopes(S.transpose(1, 2, 0), D.transpose(1, 2, 0))
        pairing_x, pairing_y = pairing
        d = _plane_norm(D[:, 0], cfg.penalty_norm) if sep is None else sep
        finite = np.isfinite(pairing)
        ok_b = np.isfinite(fx) & finite[1]   # a non-finite f(y) makes its slope NaN
        threshold = -0.5 * cfg.sigma * d * d
        margin = threshold - pairing_y
        premise_b = fx <= fy - cfg.tol
        premise_c = pairing_x > threshold + cfg.tol
    return dict(fx=fx, fy=fy, pairing_x=pairing_x, pairing_y=pairing_y,
                margin=margin, premise_b=premise_b, premise_c=premise_c,
                sep=d, ok_b=ok_b, ok_c=finite[0] & finite[1])


# the witness fields of each of conditions (b) and (c)
_WITNESS_KEYS = {"b": ("fx", "fy", "pairing_y"), "c": ("pairing_x", "pairing_y")}


def verdicts_bc(f: ScalarField, X: np.ndarray, Y: np.ndarray, cfg: CheckConfig,
                name: str) -> list[Verdict]:
    """Condition `name` ('b' or 'c') at each pair row of X, Y, from one
    `batch_margins_bc` call: row i's verdict is `check_b`/`check_c` at
    (X[i], Y[i]), whose witness holds views of the rows."""
    r = batch_margins_bc(f, X, Y, cfg)
    out = []
    for i, s in enumerate(statuses(r["margin"], r[f"premise_{name}"], r[f"ok_{name}"],
                                   cfg.tol).tolist()):
        if STATUSES[s] == SKIPPED:
            out.append(Verdict(SKIPPED, math.nan))
            continue
        w = Witness(x=X[i], y=Y[i], **{k: float(r[k][i]) for k in _WITNESS_KEYS[name]})
        out.append(Verdict(STATUSES[s], float(r["margin"][i]) if s < 2 else math.nan, w))
    return out


def check_b(f: ScalarField, x, y, cfg: CheckConfig) -> Verdict:
    """Condition (b) at one pair (see batch_margins_bc): premise
    f(x) <= f(y), enforced as "<= f(y) - tol"; conclusion margin
    -(sigma/2)*||x-y||^2 - <grad f(y), x-y>."""
    x, y = _checked_pair(f, x, y, cfg)
    return verdicts_bc(f, x[None], y[None], cfg, "b")[0]


def check_c(f: ScalarField, x, y, cfg: CheckConfig) -> Verdict:
    """Condition (c) at one pair: premise <grad f(x), y-x> >
    -(sigma/2)*||x-y||^2, enforced strictly as "> +tol"; conclusion margin
    as in check_b."""
    x, y = _checked_pair(f, x, y, cfg)
    return verdicts_bc(f, x[None], y[None], cfg, "c")[0]


# ---------------------------------------------------------------------------
# sigma* estimation


def _sigma_star(f: ScalarField, X, Y, cfg: CheckConfig, *, ends=None,
                sep=None) -> float:
    """min over the pairs X, Y (rows) and the lambda grid of
    2 * (max{f(x),f(y)} - f(segment)) / (lam*(1-lam)*||x-y||^2), the
    sigma = 0 margin scaled; +inf when no sample evaluates. `ends` and
    `sep` are passed to `segment_margins`."""
    lams = np.asarray(cfg.lambda_grid)[:, None]
    weight = lams * (1.0 - lams)
    best = math.inf
    den = np.empty(0)
    for _, m, d in segment_margins(f, X, Y, lams, 0.0, cfg.penalty_norm,
                                   ends=ends, sep=sep):
        if den.size < m.size:
            den = np.empty(m.size)
        with np.errstate(all="ignore"):
            q = np.multiply(weight, d, out=den[:m.size].reshape(m.shape))
            q *= d
            ratio = np.multiply(m, 2.0, out=m)
            ratio /= q
        # the minimum over the finite ratios, the others counting as +inf:
        # fmin skips NaN, so only a -inf or an all-NaN chunk needs the copy
        low = np.fmin.reduce(ratio, axis=None)
        if not low > -math.inf:
            np.copyto(ratio, math.inf, where=~np.isfinite(ratio))
            low = ratio.min()
        best = min(best, float(low))
    return best


def sigma_star_segment(f: ScalarField, x, y, cfg: CheckConfig) -> float:
    """min over the lambda grid of
    2 * (max{f(x),f(y)} - f(segment)) / (lam*(1-lam)*||x-y||^2).

    Negative values mean f is not even quasiconvex on this segment.
    """
    x, y = _checked_pair(f, x, y, cfg)
    # canonical pair order makes the result bitwise swap-invariant
    # (the default lambda grid is symmetric about 1/2)
    if tuple(y) < tuple(x):
        x, y = y, x
    best = _sigma_star(f, x[None], y[None], cfg)
    if not math.isfinite(best):
        raise ArithmeticError("all lambda samples failed on this segment")
    return best


def sigma_star_estimate(f: ScalarField, sampler, cfg: CheckConfig) -> float:
    """min of sigma_star_segment over sampled pairs: an upper bound for the
    largest sigma satisfying the defining inequality on the domain.

    `sampler` is either an iterable of (x, y) pairs or a sampler whose
    .draw(lo, k) gives its pairs lo..lo+k-1 (see search.Sampler). The pairs
    go through in blocks, each drawn or sliced, filtered by min_sep and
    scored on its own lane (see `_in_lanes`). The raw (possibly negative)
    value is returned; clamp at 0 only when reporting.
    """
    if hasattr(sampler, "draw"):
        count, draw = sampler.count, sampler.draw
    else:
        P = np.asarray(sampler if isinstance(sampler, np.ndarray) else list(sampler),
                       dtype=float)
        if P.size == 0:
            raise ValueError("sampler produced no pairs")
        count, draw = len(P), lambda lo, k: P[lo:lo + k]

    def run(lo, k):
        """The block's sigma* and how many of its pairs pass min_sep: f(x)
        and f(y) from one `values` call, ||x-y|| from the filter."""
        X, Y, _, d = _separated(draw(lo, k), cfg)
        ends = f.values(_stacked(X, Y).transpose(1, 2, 0))
        return _sigma_star(f, X, Y, cfg, ends=ends, sep=d), len(X)

    best, kept = math.inf, 0
    for block_best, block_kept in _in_lanes(run, count):
        best, kept = min(best, block_best), kept + block_kept
    if not kept:
        raise ValueError("no pair passed the min_sep filter")
    if not math.isfinite(best):
        raise ArithmeticError("every sampled segment failed to evaluate")
    return best


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
    vals, ders = phi.slopes(grid[:, None], np.ones((grid.size, 1)))
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
    return Verdict(VIOLATED if is_violated(margin, tol) else HOLDS, margin, w)


def check_lemma_refined(phi: ScalarField, initial_points: int = 63,
                        tol: float = 1e-9) -> Verdict:
    """check_lemma with grid-doubling: a violated verdict is only kept if
    it survives refinement, up to six grids (otherwise refinement finds
    the hypothesis failure and the verdict turns vacuous)."""
    a = float(phi.domain.lower[0])
    b = float(phi.domain.upper[0])
    k = initial_points + 1
    verdict = None
    for _ in range(6):
        grid = a + (b - a) * np.arange(1, k) / k
        verdict = check_lemma(phi, grid, tol)
        if verdict.status != VIOLATED:
            return verdict
        k *= 2
    return verdict
