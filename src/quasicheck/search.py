"""Seeded pair sampling, adversarial falsification, and the implication
harness.

Determinism contract: pair i is a pure function of (seed, i, strategy,
domain) via counter-based Philox streams, and every kernel computes each
pair's margins on its own, so a report does not depend on how the kernels
chunk the pairs. Falsification is derivative-free compass search on the
margin with a geometric step schedule, so with a fixed seed a larger
budget can only extend the same trajectory. One lockstep engine runs many
independent searches at once (the restarts of one `falsify`, or every
member of a family in `open_question_search`): each round one objective
call scores the pending polls of every live restart of every search, and
each search's evaluations are then charged as if its restarts had run one
after another, so every result is that of the sequential search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from . import conditions as cond
from .conditions import CheckConfig, Verdict, Witness
from .field import DomainBox, ScalarField
from .vecmath import pnorm_batch

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

    def pairs(self) -> np.ndarray:
        return sample_pairs(self)

    def to_json(self):
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "count": self.count,
            "domain": self.domain.to_json(),
            "min_sep": self.min_sep,
        }


def _round_uniforms(seed: int, strategy_id: int, round_idx: int,
                    count: int, n: int) -> np.ndarray:
    """Uniforms of shape (count, 2, n); position i is independent of count."""
    bg = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF,
                          counter=[0, 0, strategy_id, round_idx])
    rng = np.random.Generator(bg)
    return rng.random((count, 2, n))


def sample_pairs(s: Sampler) -> np.ndarray:
    """Array of shape (count, 2, n) with ||x - y||_2 >= min_sep per pair.

    Rejected pairs are redrawn in later rounds; pair i always consumes the
    stream slot i of each round, keeping results independent of how the
    batch is partitioned.
    """
    n = s.domain.dim
    sid = _STRATEGIES[s.strategy]
    if s.strategy == "segment_grid":
        t = 0.5 * (np.arange(s.count) + 1) / (s.count + 1)  # in (0, 0.5)
        lo, hi = s.domain.lower, s.domain.upper
        X = lo + t[:, None] * (hi - lo)
        Y = hi - t[:, None] * (hi - lo)
        out = np.stack([X, Y], axis=1)
        if np.any(pnorm_batch(X - Y, 2) < s.min_sep):
            raise ValueError("segment_grid produced a pair below min_sep; "
                             "reduce count or enlarge the box")
        return out

    out = np.empty((s.count, 2, n))
    pending = np.ones(s.count, dtype=bool)
    widths = s.domain.widths
    center = 0.5 * (s.domain.lower + s.domain.upper)
    for round_idx in range(1000):
        if not np.any(pending):
            break
        u = _round_uniforms(s.seed, sid, round_idx, s.count, n)
        if s.strategy == "uniform_box":
            cand = s.domain.lower + u * widths
            inside = np.ones(s.count, dtype=bool)
        else:  # gaussian_interior: Box-Muller from the uniform slots
            u1 = np.clip(u[:, 0, :], 1e-12, 1.0)
            u2 = u[:, 1, :]
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            z2 = np.sqrt(-2.0 * np.log(u1)) * np.sin(2.0 * np.pi * u2)
            cand = np.stack([center + 0.2 * widths * z,
                             center + 0.2 * widths * z2], axis=1)
            inside = s.domain.contains(cand[:, 0]) & s.domain.contains(cand[:, 1])
        sep_ok = pnorm_batch(cand[:, 0] - cand[:, 1], 2) >= s.min_sep
        accept = pending & inside & sep_ok
        out[accept] = cand[accept]
        pending &= ~accept
    if np.any(pending):
        raise ValueError("pair rejection failed after 1000 rounds "
                         "(degenerate box or min_sep too large)")
    return out


# ---------------------------------------------------------------------------
# Falsification: compass search on the margin


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


def _stacked(fields, groups) -> ScalarField:
    """One field over consecutive row groups: along the row axis (-2),
    rows start..stop-1 of each (member, start, stop) in `groups` are
    evaluated by fields[member]'s fn and grad_fn (row by row, so each
    member's rows get the values and gradients they get alone)."""

    def fn(X):
        return np.concatenate([fields[m].fn(X[..., a:b, :]) for m, a, b in groups],
                              axis=-1)

    def grad_fn(X):
        return np.concatenate([fields[m].grad_fn(X[..., a:b, :])
                               for m, a, b in groups], axis=-2)

    f = fields[0]
    return ScalarField(name="members", dim=f.dim, fn=fn, grad_fn=grad_fn,
                       domain=f.domain)


class _MarginObjective:
    """Margins of rows of packed search variables: x (n) then y (n), plus
    lambda for target 'a', on one field or on several members that share
    dim and domain. One kernel call scores a batch of rows, whichever
    members they belong to.

    Vacuous, skipped and below-min_sep rows score +inf so the search moves
    off them.
    """

    def __init__(self, f, target: str, cfg: CheckConfig):
        if target not in ("a", "b", "c"):
            raise ValueError(f"target must be one of a, b, c; got {target!r}")
        self.fields = [f] if isinstance(f, ScalarField) else list(f)
        f = self.fields[0]
        lo, hi = f.domain.lower, f.domain.upper
        for g in self.fields[1:]:
            if not (g.dim == f.dim and np.array_equal(g.domain.lower, lo)
                    and np.array_equal(g.domain.upper, hi)):
                raise ValueError(f"members must share dim and domain: "
                                 f"{g.name} differs from {f.name}")
        self.target = target
        self.cfg = cfg
        n = self.n = f.dim
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

    def __call__(self, Z: np.ndarray, groups=None) -> np.ndarray:
        """Margins of the rows Z. `groups` lists (member, start, stop): rows
        start..stop-1 belong to that member, and one kernel call scores
        the rows of all members (`_stacked`), per kernel chunk for target
        'a'. By default every row belongs to the first member."""
        if groups is None:
            return self._margins(self.fields[0], Z)
        block = cond.segment_chunk(1) if self.target == "a" else len(Z)
        out = []
        for lo in range(0, len(Z), block):
            hi = lo + block
            part = [(m, max(a, lo) - lo, min(b, hi) - lo)
                    for m, a, b in groups if a < hi and b > lo]
            out.append(self._margins(_stacked(self.fields, part), Z[lo:hi]))
        return np.concatenate(out)

    def _margins(self, f: ScalarField, Z: np.ndarray) -> np.ndarray:
        X, Y, lam = self.split(Z)
        cfg = self.cfg
        if self.target == "a":
            return np.concatenate([
                np.where((d >= cfg.min_sep) & np.isfinite(m[0]), m[0], math.inf)
                for _, m, d in cond.segment_margins(f, X, Y, lam[None],
                                                    cfg.sigma, cfg.penalty_norm)])
        # premise at tolerance 0: violations found here are genuine,
        # not artifacts of the reporting premise slack; (c) needs only
        # the gradients
        t = self.target
        if t == "c":
            r = cond._margins_bc(f, X, Y, cfg, 0.0, values=False)
        else:
            r = cond.batch_margins_bc(f, X, Y, cfg, premise_tol=0.0)
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

    def witness_at(self, z: np.ndarray, member: int = 0) -> Witness:
        x, y, lam = self.split(z)
        f = self.fields[member]
        if self.target == "a":
            return Witness(x=x.copy(), y=y.copy(), lam=float(lam),
                           fx=f.value(x), fy=f.value(y))
        v = cond.check_b(f, x, y, self.cfg) if self.target == "b" \
            else cond.check_c(f, x, y, self.cfg)
        return v.witness


def _falsify_many(fields, target: str, cfg: CheckConfig, budget: SearchBudget,
                  seeds) -> list[FalsificationResult]:
    """`falsify(fields[s], target, cfg, budget, seeds[s])` for every s, all
    searches run by one lockstep compass engine.

    Slot s*R + k (R = budget.restarts) holds restart k of the current wave
    of search s: its point, margin, step vector, sweep coordinate j,
    improved flag, sweep count, evaluations and live flag. Each round
    scores the pending polls of every live slot in one objective call (a
    slot of a wave just opened polls its start point), then applies the
    compass rules to all slots at once. A slot's cap is the room its
    search had when the wave opened less what the slots before it in the
    wave have used so far: it only shrinks, and a slot closes once it has
    used it, so each restart runs at least as far as the replay can charge
    it. In waves after the first a slot also closes once the slots before
    it have used what its search needs to reach half its budget: the
    replay stops before it. When a search's wave has no live slot left,
    its restarts are replayed in order (see `falsify`) and its next wave
    opens unless a stopping rule ends the search.
    """
    if not len(fields):
        return []
    obj = _MarginObjective(fields, target, cfg)
    S, R, nv = len(fields), budget.restarts, obj.nvars
    N = S * R
    span = obj.upper - obj.lower
    step0 = budget.init_step_frac * span
    half = budget.max_evals // 2
    everyone = np.arange(N)

    Z = np.zeros((N, nv))
    val = np.empty(N)
    step = np.zeros((N, nv))
    j = np.zeros(N, dtype=np.int64)
    sweeps = np.zeros(N, dtype=np.int64)
    used = np.zeros(N, dtype=np.int64)
    improved = np.zeros(N, dtype=bool)
    live = np.zeros(N, dtype=bool)
    fresh = np.zeros(N, dtype=bool)      # start point not scored yet
    # each slot's polls, see obj.poll_points; a fresh slot polls its start
    cand, pending = obj.poll_points(Z, step, j)

    evals = [0] * S
    wave = [-1] * S
    best_val = [math.inf] * S
    best_z = [None] * S
    running = np.ones(S, dtype=bool)
    room = np.zeros(S, dtype=np.int64)       # evaluations left at wave open
    # a slot closes once the slots before it in its wave have used this many
    discard = np.zeros(S, dtype=np.int64)
    opened = np.zeros(S, dtype=np.int64)     # round the wave opened in
    # accepted points of round base + i: (slots, evaluations, margins, points)
    history = []
    base = 0

    def open_wave(s):
        nonlocal scored_fresh
        w = wave[s] = wave[s] + 1
        sl = slice(s * R, s * R + R)
        Z[sl] = obj.lower + np.array([
            np.random.default_rng(np.random.SeedSequence(
                entropy=seeds[s], spawn_key=(r,))).random(nv)
            for r in range(w * R, w * R + R)]) * span
        step[sl] = step0
        j[sl] = sweeps[sl] = used[sl] = 0
        improved[sl] = False
        live[sl] = fresh[sl] = scored_fresh = True
        cand[sl, 0] = Z[sl]
        pending[sl] = False
        pending[sl, 0] = True
        room[s] = budget.max_evals - evals[s]
        # the first wave keeps every restart its cap allows
        discard[s] = half - evals[s] if w else room[s]
        opened[s] = base + len(history)

    def accepted_at(s, i, limit):
        """Slot i's last accepted point within `limit` evaluations."""
        for slots, n, v, z in reversed(history[opened[s] - base:]):
            k = ((slots == i) & (n <= limit)).nonzero()[0]
            if k.size:
                return v[k[-1]], z[k[-1]]

    def replay(s):
        w = wave[s]
        for k in range(R):
            i = s * R + k
            left = budget.max_evals - evals[s]
            n = int(used[i])
            evals[s] += min(n, left)
            v, z = (val[i], Z[i]) if n <= left else accepted_at(s, i, left)
            if v < best_val[s]:
                best_val[s], best_z[s] = float(v), z.copy()
            if (evals[s] >= budget.max_evals
                    or (w * R + k + 1 >= R and evals[s] >= half)):
                running[s] = False
                return
        if w == 3:   # 4 * restarts restarts have run
            running[s] = False
        else:
            open_wave(s)

    def end_sweep(E):
        """End the sweeps of the live slots in mask E: decay the step where
        the sweep found nothing, close on min_step and max_iters, else
        start the next sweep."""
        np.multiply(step, budget.step_decay, out=step, where=(E & ~improved)[:, None])
        sweeps[E] += 1
        live[E] = (improved | (step.max(axis=1) >= budget.min_step))[E] \
            & (sweeps[E] < budget.max_iters)
        improved[E] = False
        j[E] = 0

    scored_fresh = False     # a wave opened since the last round
    for s in range(S):
        open_wave(s)
    while True:
        U = used.reshape(S, R)
        incl = U.cumsum(axis=1)
        take = room[:, None] - incl
        live &= ((take > 0) & (incl - U < discard[:, None])).ravel()
        ended = (running & ~live.reshape(S, R).any(axis=1)).nonzero()[0]
        if ended.size:
            for s in ended:
                replay(s)
            if not running.any():
                break
            drop = int(opened[running].min()) - base
            del history[:drop]
            base += drop
            take = room[:, None] - used.reshape(S, R).cumsum(axis=1)
        # one objective call scores every live slot's pending polls, each
        # slot's cut to its cap
        cs = pending.cumsum(axis=1)
        polls = pending & live[:, None] & (cs <= take.reshape(N, 1))
        rows = cand[polls]
        if S == 1:
            vals = obj(rows)
        else:
            per = polls.sum(axis=1).reshape(S, R).sum(axis=1)
            vals = obj(rows, [(s, b - n, b) for s, (n, b)
                              in enumerate(zip(per, per.cumsum())) if n])
        # the first improving poll of each slot is accepted and charged up
        # to (a start point is always accepted); a slot without one is
        # charged its polls
        V = np.full(polls.shape, math.inf)
        V[polls] = vals
        hit = V < val[:, None]
        first = hit.argmax(axis=1)
        has = hit[everyone, first]
        if scored_fresh:
            has |= fresh
        used += np.where(has, cs[everyone, first], polls.sum(axis=1))
        acc = has.nonzero()[0]
        fa = first[acc]
        za, va = cand[acc, fa], V[acc, fa]
        Z[acc] = za
        val[acc] = va
        j[acc] = fa // 2 + 1
        improved[acc] = True
        history.append((acc, used[acc], va, za))
        if scored_fresh:
            F = fresh.nonzero()[0]
            j[F] = 0
            improved[F] = fresh[F] = scored_fresh = False
        # a sweep ends without a hit or after a hit on the last coordinate;
        # it also ends where every poll left in it is a clipped no-move
        end_sweep(live & (~has | (j == nv)))
        cand, pending = obj.poll_points(Z, step, j)
        E = live & ~pending.any(axis=1)
        while E.any():
            end_sweep(E)
            E &= live
            cand[E], pending[E] = obj.poll_points(Z[E], step[E], j[E])
            E &= ~pending.any(axis=1)

    results = []
    for s in range(S):
        v, z = best_val[s], best_z[s]
        finite = math.isfinite(v)
        results.append(FalsificationResult(
            target=target, sigma=cfg.sigma, best_margin=v if finite else math.nan,
            witness=obj.witness_at(z, s) if z is not None and finite else None,
            evaluations=evals[s],
            violation_found=finite and bool(cond.is_violated(v, cfg.tol))))
    return results


def falsify(f: ScalarField, target: str, cfg: CheckConfig,
            budget: SearchBudget, seed: int) -> FalsificationResult:
    """Multi-start compass search minimizing the signed margin of one
    condition; a negative best margin is a confirmed violation witness.
    Never claims nonexistence: it reports the best found within budget.

    The result is that of running the restarts one after another, each a
    compass search from a seeded random point, capped by the evaluations
    left, and stopping after a restart once at least `budget.restarts`
    have run and half the budget is spent, or once 4 * `budget.restarts`
    have run. A sweep polls each coordinate in turn, +step before -step,
    and moves to the first point that improves; the next coordinate is
    polled from there, and a sweep without a move decays the step. The
    search runs on the lockstep engine (`_falsify_many`): the restarts run
    in waves of `budget.restarts`, each round scoring the remaining sweep
    polls of every live restart in one objective call and charging each
    restart only up to its first hit, and the sequential accounting is
    then replayed in restart order. A capped restart's trajectory is a
    prefix of its uncapped one, so with C evaluations left a restart is
    charged min(its evaluations, C) and ends at its last point accepted
    within C. Waves after the first are speculative; the replay discards
    the restarts the stopping rules exclude.
    """
    return _falsify_many([f], target, cfg, budget, [seed])[0]


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
    # per counted pair, not part of the JSON report: "index" (position in
    # the sampler's stream), "a_margin", "a_ok", "bc_margin", "b_vacuous",
    # "c_vacuous", "bc_ok"
    per_pair: dict = dc_field(repr=False, compare=False)

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


def _tally(margins, vacuous, ok, tol):
    active = ok & ~vacuous
    violated = active & cond.is_violated(margins, tol)
    return {"holds": int(np.sum(active & ~violated)),
            "violated": int(np.sum(violated)),
            "vacuous": int(np.sum(vacuous & ok)),
            "skipped": int(np.sum(~ok))}


def implication_harness(f: ScalarField, cfg: CheckConfig,
                        sampler: Sampler) -> HarnessReport:
    """Evaluate (a) over pairs x lambda grid, (b) and (c) over pairs."""
    pairs = sample_pairs(sampler)
    d = pnorm_batch(pairs[:, 0] - pairs[:, 1], cfg.penalty_norm)
    keep = d >= cfg.min_sep
    pairs = pairs[keep]
    N = pairs.shape[0]
    X, Y = pairs[:, 0], pairs[:, 1]
    a_margin, a_lam, a_ok = cond.batch_margin_a_worst(f, X, Y, cfg)
    r = cond.batch_margins_bc(f, X, Y, cfg)
    bc_margin, bc_ok = r["margin"], r["ok"]
    b_vac, c_vac = ~r["premise_b"], ~r["premise_c"]

    counts = {
        "a": _tally(a_margin, np.zeros(N, dtype=bool), a_ok, cfg.tol),
        "b": _tally(bc_margin, b_vac, bc_ok, cfg.tol),
        "c": _tally(bc_margin, c_vac, bc_ok, cfg.tol),
    }

    worst = {}
    if np.any(a_ok):
        i = int(np.nanargmin(np.where(a_ok, a_margin, np.nan)))
        worst["a"] = {
            "margin": float(a_margin[i]),
            "witness": Witness(x=pairs[i, 0], y=pairs[i, 1],
                               lam=float(a_lam[i])).to_json(),
        }
    for name, vac in (("b", b_vac), ("c", c_vac)):
        active = bc_ok & ~vac
        if np.any(active):
            masked = np.where(active, bc_margin, np.nan)
            i = int(np.nanargmin(masked))
            worst[name] = {
                "margin": float(bc_margin[i]),
                "witness": Witness(x=pairs[i, 0], y=pairs[i, 1]).to_json(),
            }

    tension = (counts["a"]["violated"] == 0
               and (counts["b"]["violated"] > 0 or counts["c"]["violated"] > 0))
    per_pair = {"index": np.flatnonzero(keep), "a_margin": a_margin,
                "a_ok": a_ok, "bc_margin": bc_margin, "b_vacuous": b_vac,
                "c_vacuous": c_vac, "bc_ok": bc_ok}
    return HarnessReport(sample_count=N, sigma=cfg.sigma, seed=sampler.seed,
                         counts=counts, worst=worst, theorem_tension=tension,
                         per_pair=per_pair)


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
    is a candidate. Each member keeps the seeds and budgets it would get
    searched on its own. Candidates are evidence, never proofs.
    """
    if param_samples < 1:
        raise ValueError("param_samples must be >= 1")
    box = family.param_box
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xFA,)))
    thetas = box.lower + rng.random((param_samples, box.dim)) * box.widths
    per_theta = replace(budget,
                        max_evals=max(200, budget.max_evals // (2 * param_samples)))
    fields = [family.build(theta) for theta in thetas]

    def phase(ks, target, b, offset):
        return _falsify_many([fields[k] for k in ks], target, cfg, b,
                             [seed + offset + k for k in ks])

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
        confirm = cond.margin_a(fields[k], w.x, w.y, w.lam, cfg)
        if not (math.isfinite(confirm) and confirm <= -10.0 * cfg.tol):
            continue
        candidates.append(Candidate(
            params=thetas[k], family=family.name,
            a_margin=res_a[k].best_margin, a_witness=w,
            c_best_margin=res_c2.best_margin, reverified=True,
        ))
    candidates.sort(key=lambda c: c.a_margin)
    return candidates
