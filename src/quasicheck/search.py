"""Seeded pair sampling, adversarial falsification, and the implication
harness.

Determinism contract: pair i is a pure function of (seed, i, strategy,
domain) via counter-based Philox streams, and every kernel computes each
pair's margins on its own, so a report does not depend on how the kernels
chunk the pairs. Falsification is derivative-free compass search on the
margin with a geometric step schedule, so with a fixed seed a larger
budget can only extend the same trajectory; each sweep's polls are scored
as one kernel batch without changing that trajectory.
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


class _MarginObjective:
    """Margins of rows of packed search variables: x (n) then y (n), plus
    lambda for target 'a'. A batch of rows is scored by one kernel call.

    Vacuous, skipped and below-min_sep rows score +inf so the search moves
    off them.
    """

    def __init__(self, f: ScalarField, target: str, cfg: CheckConfig):
        if target not in ("a", "b", "c"):
            raise ValueError(f"target must be one of a, b, c; got {target!r}")
        self.f = f
        self.target = target
        self.cfg = cfg
        n = f.dim
        self.nvars = 2 * n + (1 if target == "a" else 0)
        lo, hi = f.domain.lower, f.domain.upper
        if target == "a":
            self.lower = np.concatenate([lo, lo, [1e-6]])
            self.upper = np.concatenate([hi, hi, [1.0 - 1e-6]])
        else:
            self.lower = np.concatenate([lo, lo])
            self.upper = np.concatenate([hi, hi])
        # the sweep order: coordinate, sign and bounds of each poll
        self.coord = np.repeat(np.arange(self.nvars), 2)
        self.sign = np.tile([1.0, -1.0], self.nvars)
        self.poll_lower = self.lower[self.coord]
        self.poll_upper = self.upper[self.coord]

    def split(self, Z: np.ndarray):
        n = self.f.dim
        lam = Z[..., 2 * n] if self.target == "a" else None
        return Z[..., :n], Z[..., n:2 * n], lam

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        X, Y, lam = self.split(Z)
        cfg = self.cfg
        if self.target == "a":
            return np.concatenate([
                np.where((d >= cfg.min_sep) & np.isfinite(m[0]), m[0], math.inf)
                for _, m, d in cond.segment_margins(self.f, X, Y, lam[None],
                                                    cfg.sigma, cfg.penalty_norm)])
        # premise at tolerance 0: violations found here are genuine,
        # not artifacts of the reporting premise slack
        r = cond.batch_margins_bc(self.f, X, Y, cfg, premise_tol=0.0)
        t = self.target
        active = (r["sep"] >= cfg.min_sep) & r[f"ok_{t}"] & r[f"premise_{t}"]
        return np.where(active, r["margin"], math.inf)

    def polls(self, z: np.ndarray, step: np.ndarray, j: int, limit: int):
        """The first `limit` compass poll points of coordinates j.. in sweep
        order (+step, then -step, each clipped to the box), dropping
        clipped no-moves. Returns (points, coordinate of each point)."""
        coord = self.coord[2 * j:]
        moved = np.minimum(np.maximum(z[coord] + self.sign[2 * j:] * step[coord],
                                      self.poll_lower[2 * j:]), self.poll_upper[2 * j:])
        keep = moved != z[coord]
        coord = coord[keep]
        Z = np.repeat(z[None], coord.size, axis=0)
        Z[np.arange(coord.size), coord] = moved[keep]
        return Z[:limit], coord[:limit]

    def witness_at(self, z: np.ndarray) -> Witness:
        x, y, lam = self.split(z)
        f = self.f
        if self.target == "a":
            return Witness(x=x.copy(), y=y.copy(), lam=float(lam),
                           fx=f.value(x), fy=f.value(y))
        v = cond.check_b(f, x, y, self.cfg) if self.target == "b" \
            else cond.check_c(f, x, y, self.cfg)
        return v.witness


def falsify(f: ScalarField, target: str, cfg: CheckConfig,
            budget: SearchBudget, seed: int) -> FalsificationResult:
    """Multi-start compass search minimizing the signed margin of one
    condition; a negative best margin is a confirmed violation witness.
    Never claims nonexistence: it reports the best found within budget.

    A sweep polls each coordinate in turn, +step before -step, and moves
    to the first point that improves; the next coordinate is polled from
    there. The remaining polls of a sweep are scored as one batch; after a
    hit the rest is re-issued from the accepted point, and evaluations are
    charged only up to the hit, so the trajectory is that of polling one
    point at a time.
    """
    obj = _MarginObjective(f, target, cfg)
    span = obj.upper - obj.lower
    evals = 0
    best_val = math.inf
    best_z = None

    restart = 0
    while evals < budget.max_evals:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(restart,)))
        z = obj.lower + rng.random(obj.nvars) * span
        val = float(obj(z[None])[0])
        evals += 1
        step = budget.init_step_frac * span.copy()
        iters = 0
        while evals < budget.max_evals and iters < budget.max_iters:
            iters += 1
            improved = False
            j = 0
            while j < obj.nvars and evals < budget.max_evals:
                Z, coord = obj.polls(z, step, j, budget.max_evals - evals)
                if not coord.size:
                    break
                vals = obj(Z)
                hit = np.flatnonzero(vals < val)
                if not hit.size:
                    evals += coord.size
                    break
                i = int(hit[0])
                evals += i + 1
                z, val = Z[i], float(vals[i])
                improved = True
                j = int(coord[i]) + 1
            if not improved:
                step *= budget.step_decay
                if np.max(step) < budget.min_step:
                    break
        if val < best_val:
            best_val = val
            best_z = z
        restart += 1
        if restart >= budget.restarts and evals >= budget.max_evals // 2:
            break
        if restart >= 4 * budget.restarts:
            break

    witness = None
    if best_z is not None and math.isfinite(best_val):
        witness = obj.witness_at(best_z)
    found = math.isfinite(best_val) and bool(cond.is_violated(best_val, cfg.tol))
    return FalsificationResult(
        target=target, sigma=cfg.sigma,
        best_margin=best_val if math.isfinite(best_val) else math.nan,
        witness=witness, evaluations=evals, violation_found=found,
    )


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

    For each sampled parameter vector: falsify (c); only if nothing is
    found, falsify (a); an (a)-violation of depth <= -10*tol makes the
    member a candidate, kept only if it survives a re-verification of (c)
    with a 10x budget. Candidates are evidence, never proofs.
    """
    if param_samples < 1:
        raise ValueError("param_samples must be >= 1")
    box = family.param_box
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xFA,)))
    thetas = box.lower + rng.random((param_samples, box.dim)) * box.widths
    per_theta = replace(budget,
                        max_evals=max(200, budget.max_evals // (2 * param_samples)))
    candidates = []
    for k, theta in enumerate(thetas):
        f = family.build(theta)
        res_c = falsify(f, "c", cfg, per_theta, seed=seed + 1000 + k)
        if res_c.violation_found:
            continue  # member visibly fails (c); not interesting for (c)=>(a)
        res_a = falsify(f, "a", cfg, per_theta, seed=seed + 2000 + k)
        if not (math.isfinite(res_a.best_margin)
                and res_a.best_margin <= -10.0 * cfg.tol):
            continue
        # re-verify: (c) must stay violation-free under a 10x budget
        big = replace(per_theta, max_evals=10 * per_theta.max_evals,
                      restarts=2 * per_theta.restarts)
        res_c2 = falsify(f, "c", cfg, big, seed=seed + 3000 + k)
        if res_c2.violation_found:
            continue
        confirm = cond.margin_a(f, res_a.witness.x, res_a.witness.y,
                                res_a.witness.lam, cfg)
        if not (math.isfinite(confirm) and confirm <= -10.0 * cfg.tol):
            continue
        candidates.append(Candidate(
            params=theta, family=family.name,
            a_margin=res_a.best_margin, a_witness=res_a.witness,
            c_best_margin=res_c2.best_margin, reverified=True,
        ))
    candidates.sort(key=lambda c: c.a_margin)
    return candidates
