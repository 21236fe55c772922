"""The four benchmark workloads and the checks on their outputs.

Each workload is one quasicheck CLI command, run once per op with its own
`--seed`. The checks re-verify what a report claims against an
independent numpy oracle (closed-form value and gradient); they never
assert an expected verdict, because verdicts on the expression field may
legitimately vary with the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from speed import probe_array, probe_scalar

EXPR = "x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)"
EXPR_FIELD = ["--expr", EXPR, "--dim", "2", "--box=-1:1"]

# |reported - oracle| <= RTOL * (1 + sum of the magnitudes of the terms):
# the CLI and the oracle round differently (the interpreter's x^2 is a
# power, the oracle's a product), so equality holds only to rounding.
RTOL = 1e-9
# sigma* of ||x||^2 is exactly 2 on every segment; the sampled estimate
# may sit below 2 by rounding and above 2 by at most this much on 100k
# pairs in 5-D (the minimum of |f(x)-f(y)|/||x-y||^2 over the pairs).
SQNORM_SIGMA_ABOVE = 1e-3
SQNORM_SIGMA_BELOW = 1e-6


def expr_value(X):
    x1, x2 = X[..., 0], X[..., 1]
    return x1 * x1 + x2 * x2 + 0.1 * np.sin(3 * x1) * np.exp(x2)


def expr_grad(X):
    x1, x2 = X[..., 0], X[..., 1]
    return np.stack([2 * x1 + 0.3 * np.cos(3 * x1) * np.exp(x2),
                     2 * x2 + 0.1 * np.sin(3 * x1) * np.exp(x2)], axis=-1)


def cubic_value(theta, X):
    p, q = theta
    x = X[..., 0]
    return x ** 3 + p * x ** 2 + q * x


class CheckFailed(Exception):
    """An op's output failed re-verification."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _close(reported, oracle, scale, what):
    _require(abs(reported - oracle) <= RTOL * (1.0 + scale),
             f"{what}: reported {reported!r}, oracle {oracle!r}")


def _in_box(v, lo, hi, what):
    v = np.asarray(v, dtype=float)
    _require(np.all(v >= lo) and np.all(v <= hi), f"{what} {v.tolist()} outside box")


def oracle_margin_a(value, x, y, lam, sigma):
    """Condition-(a) margin and the magnitude of its terms."""
    d2 = float(np.sum((x - y) ** 2))
    fx, fy, fz = (float(value(p)) for p in (x, y, y + lam * (x - y)))
    pen = 0.5 * sigma * lam * (1 - lam) * d2
    return max(fx, fy) - pen - fz, abs(fx) + abs(fy) + abs(fz) + pen


def oracle_pairings(x, y, sigma):
    """(pairing_x, pairing_y, threshold, scale) for conditions (b)/(c)."""
    gx, gy = expr_grad(x), expr_grad(y)
    thr = -0.5 * sigma * float(np.sum((x - y) ** 2))
    px, py = float(gx @ (y - x)), float(gy @ (x - y))
    scale = float(np.abs(gx) @ np.abs(y - x) + np.abs(gy) @ np.abs(x - y)) - thr
    return px, py, thr, scale


# ---------------------------------------------------------------------------
# Per-workload checks: (report, exit_code) -> None, raising CheckFailed


def check_harness(rep, code):
    p, cfg = rep["payload"], rep["config"]
    sigma, tol = cfg["check"]["sigma"], cfg["check"]["tol"]
    n = p["sample_count"]
    _require(0 < n <= cfg["sampler"]["count"], f"sample_count {n}")
    for name, c in p["counts"].items():
        _require(sum(c.values()) == n, f"counts[{name}] {c} do not sum to {n}")
    violated = {k: c["violated"] for k, c in p["counts"].items()}
    _require(p["total_violations"] == sum(violated.values()), "total_violations")
    tension = violated["a"] == 0 and (violated["b"] > 0 or violated["c"] > 0)
    _require(p["theorem_tension"] == tension, "theorem_tension")
    _require(code == (1 if sum(violated.values()) else 0), f"exit code {code}")
    grid = {j / 64 for j in range(1, 64)}
    for name, worst in p["worst"].items():
        w = worst["witness"]
        x, y = np.array(w["x"]), np.array(w["y"])
        _in_box(x, -1, 1, f"worst[{name}].x")
        _in_box(y, -1, 1, f"worst[{name}].y")
        if name == "a":
            _require(w["lam"] in grid, f"worst[a].lam {w['lam']} off the grid")
            m, scale = oracle_margin_a(expr_value, x, y, w["lam"], sigma)
        else:
            px, py, thr, scale = oracle_pairings(x, y, sigma)
            m = thr - py
            if name == "b":
                fx, fy = float(expr_value(x)), float(expr_value(y))
                _require(fx <= fy + tol + RTOL * (1 + abs(fx) + abs(fy)),
                         "worst[b] witness fails the (b) premise")
            else:
                _require(px > thr + tol - RTOL * (1 + scale),
                         "worst[c] witness fails the (c) premise")
        _close(worst["margin"], m, scale, f"worst[{name}].margin")
        # the worst margin decides whether anything was counted violated
        _require((worst["margin"] < -tol) == (violated[name] > 0),
                 f"worst[{name}].margin disagrees with counts")


def check_sigma(rep, code):
    p = rep["payload"]
    raw = p["sigma_star_raw"]
    _require(2.0 - SQNORM_SIGMA_BELOW <= raw <= 2.0 + SQNORM_SIGMA_ABOVE,
             f"sqnorm sigma* {raw!r} not within [2-{SQNORM_SIGMA_BELOW}, "
             f"2+{SQNORM_SIGMA_ABOVE}]")
    _require(p["sigma_star"] == max(0.0, raw), "sigma_star != max(0, raw)")
    _require(code == 0, f"exit code {code}")


def check_falsify(rep, code):
    p, cfg = rep["payload"], rep["config"]
    tol = cfg["check"]["tol"]
    _require(1 <= p["evaluations"] <= cfg["budget"]["max_evals"],
             f"evaluations {p['evaluations']} exceed the budget")
    _require(code == (1 if p["violation_found"] else 0), f"exit code {code}")
    best, w = p["best_margin"], p["witness"]
    if w is None:
        _require(best is None or math.isnan(best), "margin without witness")
        _require(not p["violation_found"], "violation without witness")
        return
    x, y = np.array(w["x"]), np.array(w["y"])
    _in_box(x, -1, 1, "witness.x")
    _in_box(y, -1, 1, "witness.y")
    px, py, thr, scale = oracle_pairings(x, y, p["sigma"])
    _close(w["pairing_x"], px, scale, "witness.pairing_x")
    _close(w["pairing_y"], py, scale, "witness.pairing_y")
    _close(best, thr - py, scale, "best_margin")
    # the search evaluates the premise with no slack
    _require(px > thr - RTOL * (1 + scale), "witness fails the (c) premise")
    _require(p["violation_found"] == (best < -tol), "violation_found")


def check_family(rep, code):
    p = rep["payload"]
    box = p["family"]["param_box"]
    cands = p["candidates"]
    _require(code == (1 if cands else 0), f"exit code {code}")
    tol = 1e-9  # the CLI default; the family report does not echo it
    margins = [c["a_margin"] for c in cands]
    _require(margins == sorted(margins), "candidates not sorted by a_margin")
    for c in cands:
        theta = np.array(c["params"])
        _in_box(theta, np.array(box["lower"]), np.array(box["upper"]), "params")
        _require(c["reverified"], "candidate not reverified")
        w = c["a_witness"]
        x, y = np.array(w["x"]), np.array(w["y"])
        m, scale = oracle_margin_a(lambda X: cubic_value(theta, X), x, y,
                                   w["lam"], rep["config"]["sigma"])
        _require(m <= -10 * tol, f"candidate {theta.tolist()}: (a) margin "
                                 f"{m!r} does not re-verify at <= -10*tol")
        _close(c["a_margin"], m, scale, "candidate a_margin")
        _require(not c["c_best_margin"] < -tol, "candidate violates (c)")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # CLI arguments, without --seed and --out
    work_unit: str       # what work_per_s counts
    check: object        # (report, exit_code) -> None
    setup: str           # Python run in a fresh interpreter, timed as setup_s
    probe: object        # speed probe resembling the command's work

    def work(self, rep) -> float:
        p = rep["payload"]
        if self.work_unit == "pairs":
            return p.get("sample_count", rep["config"]["sampler"]["count"])
        if self.work_unit == "evals":
            return p["evaluations"]
        return float(self.argv[self.argv.index("--param-samples") + 1])


def _field_setup(argv) -> str:
    return ("from quasicheck.cli import build_parser, resolve_field\n"
            f"resolve_field(build_parser().parse_args({list(argv)!r}))\n")


_CHECK = ("check", *EXPR_FIELD, "--sigma", "0.25", "--pairs", "100000")
_SIGMA = ("sigma", "--fn", "sqnorm", "--dim", "5", "--pairs", "100000")
_FALSIFY = ("falsify", *EXPR_FIELD, "--target", "c", "--budget", "10000")
_FAMILY = ("falsify", "--family", "param_cubic", "--budget", "100000",
           "--param-samples", "32")

WORKLOADS = {w.name: w for w in (
    # bulk certify path: (a) lambda loop + tree-walking batch interpreter
    Workload("check_expr", _CHECK, "pairs", check_harness, _field_setup(_CHECK),
             probe_array),
    # its own lambda loop, values only, catalog closure, no expr
    Workload("sigma_catalog", _SIGMA, "pairs", check_sigma, _field_setup(_SIGMA),
             probe_array),
    # scalar per-point path: one-point grad_batch, n dual passes
    Workload("falsify_expr", _FALSIFY, "evals", check_falsify,
             _field_setup(_FALSIFY), probe_scalar),
    # compass search on closure fields: condition + vecmath overhead, no expr;
    # 32 theta per command halve the run-to-run spread from theta content
    Workload("family_cubic", _FAMILY, "thetas", check_family,
             "import quasicheck.cli\n"
             "from quasicheck.families import family_by_name\n"
             "family_by_name('param_cubic')\n", probe_scalar),
)}

WORK_METRIC = {"pairs": "pairs_per_s", "evals": "evals_per_s",
               "thetas": "thetas_per_s"}
