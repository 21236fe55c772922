"""Seeded pair sampling, adversarial falsification, and the implication
harness.

Determinism contract: pair i is a pure function of (seed, i, strategy,
domain, min_sep) via counter-based Philox streams; a `segment_grid` pair
is the closed form in (i, count). A block of the sampler's pairs
(`Sampler.draw`) starting at pair lo jumps its Philox counter ahead to
pair lo's slots in each rejection round and redraws only its own pending
pairs, so the pairs do not depend on the block size, and every kernel
computes each pair's margins on its own, so a report does not depend on
how the blocks and the kernels' chunks split the pairs. The implication
harness runs each block end to end on whichever lane takes it from the
queue (`conditions._in_lanes`); the calling thread merges the blocks'
counts and witnesses, and hands their per-pair records to an optional
sink, in block order, so the blocks may finish in any order. `check` and
`sigma` score one `conditions.PAIR_BLOCK` of pairs at a time.

Falsification is derivative-free compass search on the margin with a
geometric step schedule. One lockstep engine runs many independent
searches at once (the restarts of one `falsify`, or every member of a
family in `open_question_search`): each round one objective call scores
a group of sweeps of every live restart of every search, and every
scored row is charged to its search. A group's depth depends only on
the rows its search has scored, so with a fixed seed a larger budget
only extends the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import conditions as cond
from .conditions import CheckConfig, Verdict, Witness
from .field import DomainBox, ScalarField

__all__ = [
    "Sampler",
    "SearchBudget",
    "FalsificationResult",
    "HarnessReport",
    "sample_pairs",
    "falsify",
    "implication_harness",
    "open_question_search",
    "Candidate",
]

_STRATEGIES = {"uniform_box": 0, "gaussian_interior": 1, "segment_grid": 2}


@dataclass(frozen=True)
class Sampler:
    strategy: str
    seed: int
    count: int
    domain: DomainBox
    min_sep: float = 1e-6

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def draw(self, lo: int, count: int) -> np.ndarray:
        """Pairs lo..lo+count-1 of the stream (see `sample_pairs`)."""
        return sample_pairs(self, lo, count)

    def to_json(self):
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "count": self.count,
            "domain": self.domain.to_json(),
            "min_sep": self.min_sep,
        }


def _round_uniforms(seed: int, strategy_id: int, round_idx: int,
                    lo: int, count: int, n: int) -> np.ndarray:
    """Uniforms of shape (count, 2, n) for pairs lo.. of one round: slice
    [lo:lo + count] of that round's (total, 2, n) array, for any total.

    A Philox counter step gives four 64-bit draws and each uniform takes
    one, so pair lo starts 2n*lo draws in: jump ahead by whole counter
    steps, then skip the 0 or 2 draws left over."""
    bg = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF,
                          counter=[0, 0, strategy_id, round_idx])
    steps, skip = divmod(lo * 2 * n, 4)
    bg.advance(steps)
    if skip:
        bg.random_raw(skip)
    return np.random.Generator(bg).random((count, 2, n))


def sample_pairs(s: Sampler, lo: int = 0, count: Optional[int] = None) -> np.ndarray:
    """Array of shape (k, 2, n) with ||x - y||_2 >= min_sep per pair: the
    sampler's pairs lo..lo+k-1, k = count (by default all of its pairs).

    Pair i takes the uniforms of stream slot i of each round until it is
    accepted; a rejected pair is redrawn in the next round. So a
    `uniform_box` or `gaussian_interior` pair i depends only on (seed,
    strategy, domain, min_sep, i), never on the count; a `segment_grid`
    pair i is the closed form in (i, count). Either way a block of pairs
    needs nothing of the other blocks. All sampling, whole or by block,
    runs here, so a profile of this one function (or the benchmark
    tracer's row count) covers it.
    """
    k = s.count - lo if count is None else count
    n = s.domain.dim
    sid = _STRATEGIES[s.strategy]
    lo_box, widths = s.domain.lower, s.domain.widths
    if s.strategy == "segment_grid":
        t = 0.5 * (np.arange(lo, lo + k) + 1) / (s.count + 1)  # in (0, 0.5)
        X = lo_box + t[:, None] * widths
        Y = s.domain.upper - t[:, None] * widths
        if np.any(cond._plane_norm((X - Y).T) < s.min_sep):
            raise ValueError("segment_grid produced a pair below min_sep; "
                             "reduce count or enlarge the box")
        return np.stack([X, Y], axis=1)

    center = 0.5 * (lo_box + s.domain.upper)
    out = None
    pending = np.arange(k)
    for round_idx in range(1000):
        if not pending.size:
            break
        u = _round_uniforms(s.seed, sid, round_idx, lo, k, n)
        if pending.size < k:
            u = u[pending]
        if s.strategy == "uniform_box":
            cand = np.multiply(u, widths, out=u)
            cand += lo_box
            ok = np.ones(len(u), dtype=bool)
        else:  # gaussian_interior: Box-Muller from the uniform slots
            u1 = np.clip(u[:, 0, :], 1e-12, 1.0)
            u2 = u[:, 1, :]
            r = np.sqrt(-2.0 * np.log(u1))
            z, z2 = r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)
            cand = np.stack([center + 0.2 * widths * z,
                             center + 0.2 * widths * z2], axis=1)
            ok = s.domain.contains(cand[:, 0]) & s.domain.contains(cand[:, 1])
        ok &= cond._plane_norm((cand[:, 0] - cand[:, 1]).T) >= s.min_sep
        if out is None:   # round 0 draws every pair
            out = cand
        else:
            out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    if pending.size:
        raise ValueError("pair rejection failed after 1000 rounds "
                         "(degenerate box or min_sep too large)")
    return out


# ---------------------------------------------------------------------------
# Falsification: compass search on the margin

# the most sweeps per restart that one round of the lockstep engine scores:
# the one in progress and those a miss runs next (see `_falsify_many`)
LOOKAHEAD = 4


@dataclass(frozen=True)
class SearchBudget:
    max_evals: int = 10_000
    restarts: int = 8
    max_iters: int = 400
    init_step_frac: float = 0.1   # of box width
    step_decay: float = 0.5
    min_step: float = 1e-10

    def __post_init__(self):
        if min(self.max_evals, self.restarts, self.max_iters) < 1:
            raise ValueError("budget fields must be positive")
        if not (0 < self.step_decay < 1 and self.init_step_frac > 0
                and self.min_step > 0):
            raise ValueError("invalid step schedule")

    def to_json(self):
        return {
            "max_evals": self.max_evals,
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "init_step_frac": self.init_step_frac,
            "step_decay": self.step_decay,
            "min_step": self.min_step,
        }


@dataclass(frozen=True)
class FalsificationResult:
    target: str
    sigma: float
    best_margin: float
    witness: Optional[Witness]
    evaluations: int
    violation_found: bool

    def to_json(self):
        return {
            "target": self.target,
            "sigma": self.sigma,
            "best_margin": self.best_margin,
            "witness": self.witness.to_json() if self.witness else None,
            "evaluations": self.evaluations,
            "violation_found": self.violation_found,
        }


class _MarginObjective:
    """Margins of rows of packed search variables: x (n) then y (n), plus
    lambda for target 'a', on the field f or, given parameter rows
    `thetas`, on the members of f's program at those rows: one kernel call
    scores a batch of rows, whichever members they belong to, through one
    program call with each row at its member's parameters.

    Vacuous, skipped and below-min_sep rows score +inf so the search moves
    off them.
    """

    def __init__(self, f: ScalarField, target: str, cfg: CheckConfig,
                 thetas=None):
        if target not in ("a", "b", "c"):
            raise ValueError(f"target must be one of a, b, c; got {target!r}")
        self.f = f
        self.thetas = thetas
        self.target = target
        self.cfg = cfg
        n = self.n = f.dim
        lo, hi = f.domain.lower, f.domain.upper
        self.nvars = 2 * n + (1 if target == "a" else 0)
        if target == "a":
            self.lower = np.concatenate([lo, lo, [1e-6]])
            self.upper = np.concatenate([hi, hi, [1.0 - 1e-6]])
        else:
            self.lower = np.concatenate([lo, lo])
            self.upper = np.concatenate([hi, hi])
        # the sweep order: coordinate, sign, bounds and index of each poll
        self.coord = np.repeat(np.arange(self.nvars), 2)
        self.sign = np.tile([1.0, -1.0], self.nvars)
        self.poll_lower = self.lower[self.coord]
        self.poll_upper = self.upper[self.coord]
        self.poll_index = np.arange(2 * self.nvars)

    def split(self, Z: np.ndarray):
        n = self.n
        lam = Z[..., 2 * n] if self.target == "a" else None
        return Z[..., :n], Z[..., n:2 * n], lam

    def member(self, searches) -> ScalarField:
        """The field that scores row i of search searches[i]: f, or given
        thetas, f with row i at parameter row thetas[searches[i]]."""
        return self.f if self.thetas is None else \
            replace(self.f, params=self.thetas[searches])

    def __call__(self, Z: np.ndarray, searches=None) -> np.ndarray:
        """Margins of the rows Z, row i scored at `member(searches)`'s row
        i (without thetas, searches is ignored): one kernel call for all
        rows, whichever members they belong to."""
        X, Y, lam = self.split(Z)
        f, cfg = self.member(searches), self.cfg
        if self.target == "a":
            return np.concatenate([
                np.where((d >= cfg.min_sep) & np.isfinite(m[0]), m[0], math.inf)
                for _, m, d in cond.segment_margins(f, X, Y, lam[None],
                                                    cfg.sigma, cfg.penalty_norm)])
        t = self.target
        r = cond.batch_margins_bc(f, X, Y, cfg)
        active = (r["sep"] >= cfg.min_sep) & r[f"ok_{t}"] & r[f"premise_{t}"]
        return np.where(active, r["margin"], math.inf)

    def poll_points(self, Z: np.ndarray, step: np.ndarray, j: np.ndarray):
        """The compass polls of the points Z (one per row) in sweep order:
        for each coordinate +step, then -step, clipped to the box. Returns
        the polls as points, shape (rows, 2 * nvars, nvars), and the
        pending mask: polls of coordinates j.. (j per row) that move."""
        zc = Z[:, self.coord]
        moved = np.minimum(np.maximum(zc + self.sign * step[:, self.coord],
                                      self.poll_lower), self.poll_upper)
        points = np.repeat(Z[:, None, :], self.coord.size, axis=1)
        points[:, self.poll_index, self.coord] = moved
        return points, (moved != zc) & (self.poll_index >= 2 * j[:, None])

    def witnesses(self, Z: np.ndarray, searches) -> list[Optional[Witness]]:
        """The witnesses at the points Z, row i of search searches[i],
        re-checked at once: one kernel call with each row at its member's
        parameters gives, bit for bit, what re-checking each row on its
        member alone gives (`ScalarField.value` for target 'a',
        `check_b`/`check_c` for 'b'/'c')."""
        X, Y, lam = self.split(Z)
        f = self.member(searches)
        if self.target == "a":
            fx, fy = f.values(X), f.values(Y)
            return [Witness(x=X[i].copy(), y=Y[i].copy(), lam=float(lam[i]),
                            fx=float(fx[i]), fy=float(fy[i])) for i in range(len(Z))]
        return [v.witness for v in cond.verdicts_bc(f, X, Y, self.cfg, self.target)]


def _falsify_many(f: ScalarField, target: str, cfg: CheckConfig,
                  budget: SearchBudget, seeds, thetas=None,
                  until_violation: bool = False) -> list[FalsificationResult]:
    """`falsify(f, target, cfg, budget, seeds[s])` for every s, with f at
    parameter row thetas[s] when thetas is given (the members of one
    family), all searches run by one lockstep compass engine (see
    `_MarginObjective`).

    With `until_violation`, a search ends in the round where one of its
    restarts accepts a violated margin (`conditions.is_violated`): its
    slots stop, its wave's best point is recorded as at any wave end, and
    no later wave opens. Its `violation_found` is still `falsify`'s, since
    the search runs as `falsify`'s up to that round, an accepted margin
    only falls and the best point is the smallest margin accepted; a
    search that finds no violation gives `falsify`'s result. No witness
    is re-checked (each is None); a stopped search's other fields differ.

    Slot s*R + k (R = budget.restarts) holds restart k of search s's
    current wave. Each round scores, in one objective call, a group of
    sweeps of every live slot: the rest of its current sweep, then the
    whole sweeps it runs next if those polls miss, each while the slot
    would still be live. The group is one sweep deep, and one sweep deeper
    for each R * LOOKAHEAD * 2 * nvars rows its search has scored, up to
    LOOKAHEAD sweeps. In its wave's first round a slot scores only its
    start point.
    """
    if not len(seeds):
        return []
    obj = _MarginObjective(f, target, cfg, thetas)
    S, R, nv = len(seeds), budget.restarts, obj.nvars
    P, G = 2 * nv, LOOKAHEAD      # polls per sweep, sweeps per group
    span = obj.upper - obj.lower
    half = budget.max_evals // 2

    N = S * R
    Z = np.zeros((N, nv))
    val = np.empty(N)
    step = np.zeros((N, nv))
    j = np.zeros(N, dtype=np.int64)
    sweeps = np.zeros(N, dtype=np.int64)
    improved = np.zeros(N, dtype=bool)
    live = np.zeros(N, dtype=bool)
    fresh = np.zeros(N, dtype=bool)      # start point not scored yet
    evals = np.zeros(S, dtype=np.int64)      # rows scored
    wave = np.full(S, -1)
    running = np.ones(S, dtype=bool)
    best_val = np.full(S, math.inf)
    best_z = np.zeros((S, nv))

    def open_wave(s):
        # the R start points of the wave: one draw from the search's
        # Philox stream 3 (the sampler's are 0-2) at the wave's counter
        wave[s] += 1
        bg = np.random.Philox(key=int(seeds[s]) & 0xFFFFFFFFFFFFFFFF,
                              counter=[0, 0, 3, wave[s]])
        sl = slice(s * R, s * R + R)
        Z[sl] = obj.lower + np.random.Generator(bg).random((R, nv)) * span
        val[sl] = math.inf
        step[sl] = budget.init_step_frac * span
        j[sl] = sweeps[sl] = 0
        improved[sl] = False
        live[sl] = fresh[sl] = True

    def close_wave(s):
        # the wave's smallest margin, at its lowest slot, replaces the best
        # point only if it is smaller: ties go to the earlier wave
        k = s * R + int(val[s * R:s * R + R].argmin())
        if val[k] < best_val[s]:
            best_val[s], best_z[s] = val[k], Z[k]

    for s in range(S):
        open_wave(s)
    while True:
        # a search scores at most max_evals rows, and the slots of its
        # waves after the first close once it has scored half of them
        live &= np.repeat((evals < budget.max_evals)
                          & ((wave == 0) | (evals < half)), R)
        for s in (running & ~live.reshape(S, R).any(axis=1)).nonzero()[0]:
            close_wave(s)
            running[s] = evals[s] < half and wave[s] < 3
            if running[s]:
                open_wave(s)
        if not running.any():
            break
        L = live.nonzero()[0]
        ar = np.arange(L.size)
        owner = L // R
        # a group is one sweep deep, and one sweep deeper for each R * G * P
        # rows (a round of whole groups) its search has scored, up to G: the
        # rows a group scores after its hit are lost, and hits come often
        # early in a search
        depth = np.minimum(1 + evals[owner] // (R * G * P), G)
        # the step of each live slot after g = 0..G sweeps without a hit:
        # the running product of the decays (a sweep that improved keeps
        # its step); and whether the slot is still live then
        imp = improved[L]
        steps = np.empty((L.size, G + 1, nv))
        steps[:, 0] = step[L]
        steps[:, 1:] = budget.step_decay
        steps[imp, 1] = 1.0
        np.multiply.accumulate(steps, axis=1, out=steps)
        alive = steps.max(axis=2) >= budget.min_step
        alive[:, 1] |= imp
        alive &= np.arange(G + 1) < (budget.max_iters - sweeps[L])[:, None]
        alive[:, 0] = True
        np.logical_and.accumulate(alive, axis=1, out=alive)
        # the group's polls: sweep 0 from coordinate j, the others whole
        jg = np.zeros((L.size, G), dtype=np.int64)
        jg[:, 0] = j[L]
        cand, pending = obj.poll_points(np.repeat(Z[L], G, axis=0),
                                        steps[:, :G].reshape(-1, nv), jg.ravel())
        cand = cand.reshape(L.size, G * P, nv)
        scored = alive[:, :G] & (np.arange(G) < depth[:, None])
        pending = (pending.reshape(L.size, G, P)
                   & scored[:, :, None]).reshape(L.size, G * P)
        F = fresh[L]
        if F.any():
            cand[F, 0] = Z[L[F]]
            pending[F] = False
            pending[F, 0] = True
            fresh[L] = False
        # each search's polls, slot by slot, cut to the rows it has left;
        # every scored row is charged
        cs = pending.cumsum(axis=1)
        before = cs[:, -1].cumsum() - cs[:, -1]   # polls of the slots before
        left = budget.max_evals - evals[owner] \
            - (before - before[np.searchsorted(owner, owner)])
        polls = pending & (cs <= left[:, None])
        np.add.at(evals, owner, polls.sum(axis=1))
        V = np.full(polls.shape, math.inf)
        if polls.any():   # each poll is scored at its search's member
            V[polls] = obj(cand[polls], owner[polls.nonzero()[0]])
        # the first improving poll of each slot is accepted (a start point
        # always is); a hit in sweep m ends the m sweeps before it, and a
        # slot without one ends the depth sweeps of its group
        hit = V < val[L, None]
        first = hit.argmax(axis=1)
        has = hit[ar, first] | F
        m = np.where(has, first // P, depth)
        step[L] = steps[ar, m]
        sweeps[L] += m
        live[L] = alive[ar, m]
        moved = has & ~F
        improved[L] = moved
        j[L] = np.where(moved, first % P // 2 + 1, 0)
        acc = has.nonzero()[0]
        Z[L[acc]] = cand[acc, first[acc]]
        val[L[acc]] = V[acc, first[acc]]
        # a hit on the last coordinate ends its sweep, which improved
        E = L[j[L] == nv]
        sweeps[E] += 1
        live[E] = sweeps[E] < budget.max_iters
        improved[E] = False
        j[E] = 0
        if until_violation:
            # a search whose restart accepted a violated margin ends here
            for s in set(owner[acc[cond.is_violated(val[L[acc]], cfg.tol)]].tolist()):
                close_wave(s)
                running[s] = False
                live[s * R:s * R + R] = False

    # one re-check of every search's best point, each at its own member
    found = [] if until_violation else [s for s in range(S) if math.isfinite(best_val[s])]
    witness = dict(zip(found, obj.witnesses(best_z[found], found))) if found else {}
    results = []
    for s in range(S):
        v = float(best_val[s])
        finite = math.isfinite(v)
        results.append(FalsificationResult(
            target=target, sigma=cfg.sigma, best_margin=v if finite else math.nan,
            witness=witness.get(s), evaluations=int(evals[s]),
            violation_found=finite and bool(cond.is_violated(v, cfg.tol))))
    return results


def falsify(f: ScalarField, target: str, cfg: CheckConfig,
            budget: SearchBudget, seed: int) -> FalsificationResult:
    """Multi-start compass search minimizing the signed margin of one
    condition; a negative best margin is a confirmed violation witness.
    Never claims nonexistence: it reports the best found within budget.

    The budget counts rows scored: each point whose margin is computed is
    one evaluation. The restarts run in waves of `budget.restarts`, each a
    compass search from a seeded random point. A sweep polls each
    coordinate in turn, +step before -step, and moves to the first point
    that improves; the next coordinate is polled from there, and a sweep
    without a move decays the step. A restart ends once its step is below
    `budget.min_step` or it has run `budget.max_iters` sweeps. The
    restarts of a wave run in lockstep rounds (`_falsify_many`), each
    scoring a group of up to LOOKAHEAD sweeps of every restart, one sweep
    deep at first and deeper as the search scores rows; when a round's
    polls exceed the evaluations left they are cut in restart order. Three
    rules stop the search: it scores at most `budget.max_evals` rows; when
    a wave ends, the next opens only while fewer than `max_evals // 2`
    rows are scored and fewer than 4 waves have run; and the restarts of
    waves after the first stop once `max_evals // 2` rows are scored. The
    best point is the smallest margin any restart accepted, the earlier
    wave and then the lower restart winning ties. With a fixed seed a
    larger budget only extends the run.
    """
    return _falsify_many(f, target, cfg, budget, [seed])[0]


# ---------------------------------------------------------------------------
# Implication harness


@dataclass(frozen=True)
class HarnessReport:
    sample_count: int
    sigma: float
    seed: int
    counts: dict            # condition -> {holds, violated, vacuous, skipped}
    worst: dict             # condition -> {"margin": float, "witness": {...}}
    theorem_tension: bool   # (b)/(c) violations without any (a) violation
    skipped: int            # pairs that any condition skipped; not in to_json

    @property
    def total_violations(self) -> int:
        return sum(c["violated"] for c in self.counts.values())

    def to_json(self):
        return {
            "sample_count": self.sample_count,
            "sigma": self.sigma,
            "seed": self.seed,
            "counts": self.counts,
            "worst": self.worst,
            "theorem_tension": self.theorem_tension,
            "total_violations": self.total_violations,
        }


def _note(status, margins, X, Y, lam=None):
    """One condition on a block of pairs: its tally, and its first smallest
    margin with that pair (None when no pair holds or is violated)."""
    tally = np.bincount(status, minlength=len(cond.STATUSES))
    if not tally[:2].any():
        return tally, None
    # one argmin over the rows with a margin (the others +inf); where it
    # lands on a NaN margin or on a masked row, nanargmin decides
    masked = np.where(status < 2, margins, math.inf)
    i = int(masked.argmin())
    if status[i] >= 2 or np.isnan(masked[i]):
        masked[status >= 2] = np.nan
        if np.isnan(masked).all():
            return tally, None
        i = int(np.nanargmin(masked))
    return tally, (float(margins[i]), X[i].copy(), Y[i].copy(),
                   None if lam is None else float(lam[i]))


def implication_harness(f: ScalarField, cfg: CheckConfig, sampler: Sampler,
                        rows=None) -> HarnessReport:
    """Evaluate (a) over pairs x lambda grid, (b) and (c) over pairs.

    The pairs go through in blocks, each drawn, filtered by min_sep and
    run through the (b)/(c) and (a) kernels on whichever lane takes it
    (see `conditions._in_lanes`). The block's ||x-y|| is computed once, by
    the filter, and f(x), f(y) once, by the (b)/(c) kernel's `slopes`
    pass, whose values the (a) kernel reads. A block hands back how many
    of its pairs any condition skipped, the counts and first smallest
    margin of each condition and, when the sink `rows` is given, its
    record: one row per pair it kept, in keys "index" (the pair's
    position in the sampler's stream), "a_margin", "a_status",
    "bc_margin", "b_status" and "c_status" (status codes, see
    `conditions.statuses`). The calling thread merges the blocks in block
    order and passes each record to `rows` as it merges, so memory does
    not grow with the count.
    """
    def run(lo, k):
        X, Y, keep, d = cond._separated(sample_pairs(sampler, lo, k), cfg)
        r = cond.batch_margins_bc(f, X, Y, cfg, sep=d)
        record = {"index": lo + np.flatnonzero(keep), "bc_margin": r["margin"]}
        for name in "bc":
            record[f"{name}_status"] = cond.statuses(r["margin"], r[f"premise_{name}"],
                                                     r[f"ok_{name}"], cfg.tol)
        ends = r["fx"], r["fy"]
        del r   # the (a) kernel runs without the rest of the (b)/(c) results
        record["a_margin"], lam, ok = cond.batch_margin_a_worst(f, X, Y, cfg,
                                                                ends=ends, sep=d)
        record["a_status"] = cond.statuses(record["a_margin"], True, ok, cfg.tol)
        notes = {name: _note(record[f"{name}_status"], record["bc_margin"], X, Y)
                 for name in "bc"}
        notes["a"] = _note(record["a_status"], record["a_margin"], X, Y, lam)
        # per pair, how many conditions skipped it
        skips = sum(record[f"{name}_status"] == cond.STATUSES.index(cond.SKIPPED)
                    for name in "abc")
        return record if rows else None, int(np.count_nonzero(skips)), notes

    tallies = {name: np.zeros(len(cond.STATUSES), dtype=np.int64) for name in "abc"}
    best = {}      # condition -> (margin, x, y, lam) of its first smallest margin
    skipped = 0    # pairs that any condition skipped
    for record, skips, notes in cond._in_lanes(run, sampler.count):
        skipped += skips
        for name, (tally, first) in notes.items():
            tallies[name] += tally
            if first is not None and (name not in best or first[0] < best[name][0]):
                best[name] = first
        if rows:
            rows(record)
        del record   # not held while the next block runs

    counts = {name: dict(zip(cond.STATUSES, t.tolist())) for name, t in tallies.items()}
    worst = {}
    for name in "abc":
        if name in best:
            margin, x, y, lam = best[name]
            worst[name] = {"margin": margin,
                           "witness": Witness(x=x, y=y, lam=lam).to_json()}
    tension = (counts["a"]["violated"] == 0
               and (counts["b"]["violated"] > 0 or counts["c"]["violated"] > 0))
    return HarnessReport(sample_count=sum(counts["a"].values()), sigma=cfg.sigma,
                         seed=sampler.seed, counts=counts, worst=worst,
                         theorem_tension=tension, skipped=skipped)


# ---------------------------------------------------------------------------
# Open question: does (c) imply (a)?


@dataclass(frozen=True)
class Candidate:
    params: np.ndarray
    family: str
    a_margin: float
    a_witness: Optional[Witness]
    c_best_margin: float
    reverified: bool

    def to_json(self):
        return {
            "family": self.family,
            "params": np.asarray(self.params).tolist(),
            "a_margin": self.a_margin,
            "a_witness": self.a_witness.to_json() if self.a_witness else None,
            "c_best_margin": self.c_best_margin,
            "reverified": self.reverified,
            "note": "sampling-based candidate, not a proof",
        }


def open_question_search(family, cfg: CheckConfig, budget: SearchBudget,
                         seed: int, param_samples: int = 32) -> list[Candidate]:
    """Search a parametrized family for a member where condition (c) shows
    no violation but the defining segment inequality (a) does.

    Three engine calls (`_falsify_many`) cover every sampled parameter
    vector: falsify (c) on all members; falsify (a) on the members where
    (c) found no violation; and re-verify (c) with a 10x budget on the
    members whose (a) violation reaches depth <= -10*tol. A member whose
    (c) stays violation-free and whose (a) witness re-checks at that depth
    is a candidate. Each member's search has its own seed and its own
    budget of rows scored (see `falsify`). A (c) search stops at its first
    violation (`_falsify_many`'s `until_violation`), so it finds a
    violation exactly when `falsify` on that member alone does, and gives
    `falsify`'s best margin when it finds none (no witness); an (a) search
    gives what `falsify` on that member alone gives. So the candidates are
    those of `falsify` run member by member: evidence, never proofs.
    """
    if param_samples < 1:
        raise ValueError("param_samples must be >= 1")
    box = family.param_box
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xFA,)))
    thetas = box.lower + rng.random((param_samples, box.dim)) * box.widths
    per_theta = replace(budget,
                        max_evals=max(200, budget.max_evals // (2 * param_samples)))
    # the family's program; each search gives it its own parameter row
    f = ScalarField(family.name, family.program, family.domain)

    def phase(ks, target, b, offset):
        # (c) reads only violation_found and best_margin: a search stops at
        # its first violation and re-checks none; (a) reports its best points
        return _falsify_many(f, target, cfg, b, [seed + offset + k for k in ks],
                             thetas[ks], until_violation=target == "c")

    ks = range(param_samples)
    # members that visibly fail (c) are not interesting for (c)=>(a)
    ks = [k for k, r in zip(ks, phase(ks, "c", per_theta, 1000))
          if not r.violation_found]
    res_a = dict(zip(ks, phase(ks, "a", per_theta, 2000)))
    ks = [k for k in ks if math.isfinite(res_a[k].best_margin)
          and res_a[k].best_margin <= -10.0 * cfg.tol]
    # re-verify: (c) must stay violation-free under a 10x budget
    big = replace(per_theta, max_evals=10 * per_theta.max_evals,
                  restarts=2 * per_theta.restarts)
    candidates = []
    for k, res_c2 in zip(ks, phase(ks, "c", big, 3000)):
        if res_c2.violation_found:
            continue
        w = res_a[k].witness
        confirm = cond.margin_a(family.build(thetas[k]), w.x, w.y, w.lam, cfg)
        if not (math.isfinite(confirm) and confirm <= -10.0 * cfg.tol):
            continue
        candidates.append(Candidate(
            params=thetas[k], family=family.name,
            a_margin=res_a[k].best_margin, a_witness=w,
            c_best_margin=res_c2.best_margin, reverified=True,
        ))
    candidates.sort(key=lambda c: c.a_margin)
    return candidates
