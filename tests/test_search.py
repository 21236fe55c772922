import contextlib
import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import harness_with_record
from hypothesis import given, settings, strategies as st

from quasicheck import conditions as cond
from quasicheck import search
from quasicheck.cli import main
from quasicheck.conditions import (VACUOUS, CheckConfig, check_b, check_c,
                                   margin_a, sigma_star_estimate)
from quasicheck.families import ExprFamily, family_by_name, shipped_families
from quasicheck.field import (DomainBox, catalog, catalog_field,
                              make_field_from_expr)
from quasicheck.search import (Candidate, FalsificationResult, Sampler,
                               SearchBudget, _falsify_many, _MarginObjective,
                               falsify, implication_harness,
                               open_question_search, sample_pairs)

BOX2 = DomainBox.cube(-1, 1, 2)


def test_sampler_validation():
    with pytest.raises(ValueError):
        Sampler("bogus", 1, 10, BOX2)
    with pytest.raises(ValueError):
        Sampler("uniform_box", 1, 0, BOX2)


@pytest.mark.parametrize("strategy", ["uniform_box", "gaussian_interior"])
def test_sampler_deterministic(strategy):
    a = sample_pairs(Sampler(strategy, 42, 100, BOX2))
    b = sample_pairs(Sampler(strategy, 42, 100, BOX2))
    assert np.array_equal(a, b)
    c = sample_pairs(Sampler(strategy, 43, 100, BOX2))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("strategy", ["uniform_box", "gaussian_interior"])
def test_sampler_prefix_stable(strategy):
    # pair i depends only on (seed, i): a longer run extends a shorter one
    short = sample_pairs(Sampler(strategy, 42, 50, BOX2))
    long = sample_pairs(Sampler(strategy, 42, 200, BOX2))
    assert np.array_equal(short, long[:50])


def test_sampler_respects_box_and_sep():
    s = Sampler("gaussian_interior", 9, 500, BOX2, min_sep=1e-3)
    pairs = sample_pairs(s)
    assert pairs.shape == (500, 2, 2)
    assert BOX2.contains(pairs[:, 0]).all()
    assert BOX2.contains(pairs[:, 1]).all()
    assert np.all(np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1) >= 1e-3)


def test_sampler_degenerate_box_fails():
    tiny = DomainBox(np.array([0.0]), np.array([1e-9]))
    with pytest.raises(ValueError):
        sample_pairs(Sampler("uniform_box", 1, 10, tiny, min_sep=1.0))


# sha256 of sample_pairs(Sampler(strategy, 2024, count, _stream_box(n),
# min_sep)) as recorded before the sampler became a stream of blocks
STREAM_HASHES = {
    ("uniform_box", 1, 101, 1e-06): "fa3d9a1be0f298f77f1ebc7b29d41612863b5f8af9f808d9e95cf4800ac81a87",
    ("uniform_box", 1, 200, 1e-06): "db1b3b4a8e7c13d8ba3bf7225b814b452739a22855152e48f10a27537091e2cd",
    ("uniform_box", 2, 101, 1e-06): "32b34ff73ba3b58d156918f30ca418e714394f7aa80291ded12b8797e09a7e5e",
    ("uniform_box", 2, 200, 1e-06): "93db1bfe8b10d2c75fffbf90cc791f140a3a7419f06873c9d620e6d47222ea6f",
    ("uniform_box", 3, 101, 1e-06): "508d393e0830da5704419bacf5f0b43e8d73085ab266580ef0131d0e7f0d498d",
    ("uniform_box", 3, 200, 1e-06): "03cc2ed0ce8efb0a1715afcf2a0f2d8a7279acf5fd7e24d64fd7cfb8cc987ea9",
    ("uniform_box", 5, 101, 1e-06): "6ca66e489f8d47e5e8babd4f4bb8922b5e20fb2957e84672c4d47322aba30e5c",
    ("uniform_box", 5, 200, 1e-06): "07fc53a5ec7c98ac6c9fce76b5ed1a29575b3c7b62c13ab655443a3efa78acf4",
    ("gaussian_interior", 1, 101, 1e-06): "c7c15b3cdf8577ca86924494174f8cb03b5ebc0cc831237c7541ad87ce95ee44",
    ("gaussian_interior", 1, 200, 1e-06): "4004668bdc0bc3556bb777d152b9b0c91d7900b4fa59f8b7cff369a9f0f4c66c",
    ("gaussian_interior", 2, 101, 1e-06): "3dfe023129441baee176119dccbca8250050bc4644b8fed625d6866ec0783ac1",
    ("gaussian_interior", 2, 200, 1e-06): "43ea747f20642c9f0a8519d0f3173c4e0db5a8373957ac638f658f50a3556122",
    ("gaussian_interior", 3, 101, 1e-06): "c1afd7be1763b9e8cb05b617db709758753bdd30790599a20212656811d7f73b",
    ("gaussian_interior", 3, 200, 1e-06): "36735c1657ade98f34871daa8dbeaf3404905917e059fa1d40d219381379fdb9",
    ("gaussian_interior", 5, 101, 1e-06): "7fcd144c6025d0fabec86b467bd41a3af2aa3d47c40041ae4531ad4fee0bb3bc",
    ("gaussian_interior", 5, 200, 1e-06): "fd577a54be8940896793e0341417679d11a4aeea338e7a9cbfb8dc0e39c34912",
    ("segment_grid", 1, 101, 1e-06): "99905d7063cb50c2cd7cba2c796ae97d39d5c5c8f32b41acb3ae448a215b6a3c",
    ("segment_grid", 1, 200, 1e-06): "b4ce30856ca726ccb6fe576f21c34d7bab99f940c04863c8bb2cb55b478400d9",
    ("segment_grid", 2, 101, 1e-06): "f8afa41d4f8be67e290b625a7efb87c03b7da50a97b947f5083a5efe18b4258b",
    ("segment_grid", 2, 200, 1e-06): "e7872763204f938c55f47320acc3e4f83ed2f95ffeb994cfcc6569c15e775a48",
    ("segment_grid", 3, 101, 1e-06): "9f0c671c13db2d78dce8e0c283ee7c481443bed9fecef1b7bcad982709886b43",
    ("segment_grid", 3, 200, 1e-06): "5a9cd76307fc335af2d33fdf89a90b5964eecc69a28677d4ed9ccb4afc0a9b33",
    ("segment_grid", 5, 101, 1e-06): "66c4af8b7e8d4cb9a8bf54a7e86184a2572437b6e0c37f0dd3062962b1338dce",
    ("segment_grid", 5, 200, 1e-06): "d87f8f3985ab83200b1dd8b90afc4f8e2a59b38d42bfa8debc715e1a55323b94",
    ("uniform_box", 1, 101, 1.0): "6591f22115a8617307f56974185e9a1d390b2cc2781619503aa0369e968613b0",
}


def _stream_box(n):
    return DomainBox(np.linspace(-1.0, 0.5, n), np.linspace(1.0, 2.0, n))


@pytest.mark.parametrize("case", sorted(STREAM_HASHES), ids=str)
def test_sampler_blocks_reproduce_the_recorded_pairs(case):
    # with odd n, blocks of 1 or 3 pairs start 2n*lo = 2 (mod 4) draws into
    # a round, inside a Philox counter step
    strategy, n, count, min_sep = case
    s = Sampler(strategy, 2024, count, _stream_box(n), min_sep=min_sep)
    for size in (1, 2, 3, 1008, count):
        P = np.concatenate([s.draw(lo, min(size, count - lo))
                            for lo in range(0, count, size)])
        assert hashlib.sha256(P.tobytes()).hexdigest() == STREAM_HASHES[case]
        assert np.array_equal(sample_pairs(s), P)


def test_sampler_redraws_rejected_pairs_in_later_rounds():
    # the min_sep = 1 case of STREAM_HASHES: most round-0 candidates are
    # too close, so its pairs come from rounds beyond round 0
    s = Sampler("uniform_box", 2024, 101, _stream_box(1), min_sep=1.0)
    round0 = s.domain.lower + search._round_uniforms(2024, 0, 0, 0, 101, 1) \
        * s.domain.widths
    redrawn = ~np.all(sample_pairs(s) == round0, axis=(1, 2))
    assert 0.5 < redrawn.mean() < 1.0


def test_segment_grid_spans_box():
    box = DomainBox.cube(0, 1, 1)
    pairs = sample_pairs(Sampler("segment_grid", 0, 5, box))
    # endpoint pairs at mirrored grid offsets
    for x, y in pairs:
        assert x[0] + y[0] == pytest.approx(1.0)
        assert x[0] < y[0]


# ---------------------------------------------------------------------------
# falsify


def test_falsify_finds_sin_a_violation():
    f = catalog_field("sin", 1)
    res = falsify(f, "a", CheckConfig(), SearchBudget(max_evals=10_000), seed=3)
    assert res.best_margin <= -0.9
    assert res.violation_found
    assert res.evaluations <= 10_000
    # witness reproduces the margin
    m = margin_a(f, res.witness.x, res.witness.y, res.witness.lam,
                 CheckConfig())
    assert abs(m - res.best_margin) <= 1e-10


def test_falsify_sin_oracle_dense_grid():
    # independent oracle: exhaustive coarse grid over (x, y, lambda)
    f = catalog_field("sin", 1)
    xs = np.linspace(0, 2 * math.pi, 64)
    lams = np.linspace(1 / 64, 63 / 64, 64)
    X, Y, L = np.meshgrid(xs, xs, lams, indexing="ij")
    seg = Y + L * (X - Y)
    margins = np.maximum(np.sin(X), np.sin(Y)) - np.sin(seg)
    keep = np.abs(X - Y) >= 1e-6
    oracle_best = float(np.min(margins[keep]))
    assert oracle_best == pytest.approx(-1.0, abs=0.01)
    res = falsify(f, "a", CheckConfig(), SearchBudget(max_evals=10_000), seed=3)
    assert res.best_margin <= oracle_best + 0.05


def test_falsify_no_false_positives_on_catalog():
    # at their known sigma, catalog fields never produce violations
    budget = SearchBudget(max_evals=10_000)
    for f in catalog(2):
        if f.known_status not in ("quasiconvex", "sigma_quasiconvex"):
            continue
        cfg = CheckConfig(sigma=f.known_sigma)
        for target in ("a", "b", "c"):
            res = falsify(f, target, cfg, budget, seed=5)
            assert not res.violation_found, (f.name, target, res.best_margin)
            if math.isfinite(res.best_margin):
                assert res.best_margin >= -1e-9


def test_falsify_b_on_cubic_minus_x():
    f = catalog_field("cubic_minus_x", 1)
    res = falsify(f, "b", CheckConfig(), SearchBudget(max_evals=10_000), seed=3)
    assert res.best_margin <= -0.5
    v = check_b(f, res.witness.x, res.witness.y, CheckConfig())
    assert abs(v.margin - res.best_margin) <= 1e-10




def test_falsify_deterministic():
    f = catalog_field("cubic_minus_x", 1)
    r1 = falsify(f, "c", CheckConfig(), SearchBudget(max_evals=3000), seed=2)
    r2 = falsify(f, "c", CheckConfig(), SearchBudget(max_evals=3000), seed=2)
    assert r1.best_margin == r2.best_margin
    assert np.array_equal(r1.witness.x, r2.witness.x)


def test_falsify_bad_target():
    with pytest.raises(ValueError):
        falsify(catalog_field("sin", 1), "z", CheckConfig(),
                SearchBudget(), seed=1)


def _witness_alone(f, target, cfg, z):
    """The witness at the packed point z, re-checked on the field f alone:
    one-point values for target 'a', `check_b`/`check_c` for 'b'/'c'."""
    n = f.dim
    x, y = z[:n], z[n:2 * n]
    if target == "a":
        return cond.Witness(x=x.copy(), y=y.copy(), lam=float(z[2 * n]),
                            fx=f.value(x), fy=f.value(y))
    return (check_b if target == "b" else check_c)(f, x, y, cfg).witness


def _restart_round(obj, r, budget, left, depth):
    """One round of the restart r (a dict) with `left` rows to spend: its
    start point, or the polls of `depth` sweeps, sweep after sweep, each
    ending without a hit before the next starts, cut to `left` and scored
    in one call; the first improving poll is accepted. Returns the rows
    scored."""
    if r["fresh"]:
        r["fresh"] = False
        if left < 1:
            return 0
        r["val"] = float(obj(r["z"][None])[0])
        return 1
    z, step, sweeps, improved, j = r["z"], r["step"], r["sweeps"], r["improved"], r["j"]
    polls, alive = [], True     # (point, coordinate, step, sweeps) per poll
    for g in range(depth + 1):
        if g:   # the sweep before missed and ends here
            if not improved:
                step = step * budget.step_decay
                alive = step.max() >= budget.min_step
            sweeps += 1
            alive = alive and sweeps < budget.max_iters
            improved, j = False, 0
            if not alive or g == depth:
                break
        for c in range(j, obj.nvars):
            for sign in (1.0, -1.0):
                moved = min(max(z[c] + sign * step[c], obj.lower[c]), obj.upper[c])
                if moved != z[c]:
                    p = z.copy()
                    p[c] = moved
                    polls.append((p, c, step, sweeps))
    polls = polls[:max(left, 0)]
    V = obj(np.array([p for p, *_ in polls])) if polls else np.empty(0)
    hits = np.flatnonzero(V < r["val"])
    if not hits.size:
        r.update(step=step, sweeps=sweeps, improved=False, j=0, live=alive)
        return len(polls)
    i = int(hits[0])
    r["z"], c, r["step"], r["sweeps"] = polls[i]
    r.update(val=float(V[i]), j=c + 1, improved=True)
    if r["j"] == obj.nvars:   # the hit ends its sweep, which improved
        r.update(sweeps=r["sweeps"] + 1, improved=False, j=0,
                 live=r["sweeps"] + 1 < budget.max_iters)
    return len(polls)


def _restart_by_restart(f, target, cfg, budget, seed):
    """Reference for `falsify` without lockstep arrays, which the
    `*_match_sequential` tests compare it with: each round the live
    restarts of the current wave run one after another (`_restart_round`),
    each with the rows the search has left, all with the group depth of
    the rows scored when the round began. Returns the result and the
    number of waves run."""
    obj = _MarginObjective(f, target, cfg)
    R, nv = budget.restarts, obj.nvars
    half = budget.max_evals // 2
    evals, best_val, best_z = 0, math.inf, None
    wave, restarts = -1, []
    while True:
        if evals >= budget.max_evals or (wave > 0 and evals >= half):
            for r in restarts:
                r["live"] = False
        if not any(r["live"] for r in restarts):
            for r in restarts:   # in restart order, after the earlier waves
                if r["val"] < best_val:
                    best_val, best_z = r["val"], r["z"]
            if restarts and (wave == 3 or evals >= half):
                break
            wave += 1
            bg = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF, counter=[0, 0, 3, wave])
            u = np.random.Generator(bg).random((R, nv))
            restarts = [dict(z=obj.lower + u[k] * (obj.upper - obj.lower),
                             val=math.inf, step=budget.init_step_frac * (obj.upper - obj.lower),
                             sweeps=0, improved=False, j=0, live=True, fresh=True)
                        for k in range(R)]
        G = search.LOOKAHEAD
        depth = min(1 + evals // (R * G * 2 * nv), G)
        for r in restarts:
            if r["live"]:
                evals += _restart_round(obj, r, budget, budget.max_evals - evals, depth)
    finite = math.isfinite(best_val)
    return FalsificationResult(
        target=target, sigma=cfg.sigma, best_margin=best_val if finite else math.nan,
        witness=_witness_alone(f, target, cfg, best_z) if finite else None,
        evaluations=evals,
        violation_found=finite and bool(cond.is_violated(best_val, cfg.tol)),
    ), wave + 1


def _assert_same_result(res, ref):
    # to_json floats round-trip exactly, so equal JSON means equal bits
    assert json.dumps(res.to_json()) == json.dumps(ref.to_json())
    assert res.evaluations == ref.evaluations
    assert (res.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        assert res.witness.x.tobytes() == ref.witness.x.tobytes()
        assert res.witness.y.tobytes() == ref.witness.y.tobytes()


EXPR_FIELD = make_field_from_expr("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", 2,
                                  DomainBox.cube(-1, 1, 2))

# the `*_match_sequential` falsify tests below compare the lockstep engine,
# bit for bit, with `_restart_by_restart`, whose restarts of a round run
# one after another; the open-question ones compare it with
# `_member_by_member`, whose members run one after another


@pytest.mark.parametrize("max_evals", [50, 300, 3000])
@pytest.mark.parametrize("restarts", [1, 3, 8])
@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_falsify_matches_sequential_restarts(target, restarts, max_evals):
    # budgets of 50 and 300 run out inside a restart and inside a wave
    cfg = CheckConfig(sigma=0.25)
    budget = SearchBudget(max_evals=max_evals, restarts=restarts)
    for seed in (4, 9):
        res = falsify(EXPR_FIELD, target, cfg, budget, seed=seed)
        ref, _ = _restart_by_restart(EXPR_FIELD, target, cfg, budget, seed)
        _assert_same_result(res, ref)
        assert res.evaluations <= max_evals


@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_falsify_short_restarts_match_sequential(target):
    # with a few sweeps per restart, waves end and open well inside the
    # budget, so the cut falls on the restarts of a later wave
    cfg = CheckConfig(sigma=0.25)
    for max_evals in (40, 60, 80, 100, 150):
        for max_iters in (4, 6):
            budget = SearchBudget(max_evals=max_evals, restarts=4,
                                  max_iters=max_iters)
            for seed in range(5):
                res = falsify(EXPR_FIELD, target, cfg, budget, seed=seed)
                ref, _ = _restart_by_restart(EXPR_FIELD, target, cfg, budget,
                                             seed)
                _assert_same_result(res, ref)


@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_falsify_stopping_rules_match_sequential(target):
    f = catalog_field("cubic_minus_x", 1)
    cfg = CheckConfig()
    # short restarts: 4 waves of them spend under half the budget
    capped = SearchBudget(max_evals=100_000, restarts=2, max_iters=3)
    res = falsify(f, target, cfg, capped, seed=6)
    ref, waves = _restart_by_restart(f, target, cfg, capped, 6)
    _assert_same_result(res, ref)
    assert waves == 4
    assert ref.evaluations < capped.max_evals // 2
    # half the budget is spent in a wave after the first, whose restarts
    # then stop before the budget is
    half = SearchBudget(max_evals=300, restarts=3, max_iters=3)
    res = falsify(f, target, cfg, half, seed=0)
    ref, waves = _restart_by_restart(f, target, cfg, half, 0)
    _assert_same_result(res, ref)
    assert 1 < waves < 4
    assert half.max_evals // 2 <= ref.evaluations < half.max_evals


def test_falsify_ties_go_to_the_earliest_restart():
    # every (a) margin of a constant field is 0, so no restart of the four
    # waves moves and all tie: the best point is restart 0's start point
    # of the first wave
    f = catalog_field("const", 2)
    budget = SearchBudget(max_evals=100_000, restarts=3, max_iters=2)
    res = falsify(f, "a", CheckConfig(), budget, seed=8)
    ref, waves = _restart_by_restart(f, "a", CheckConfig(), budget, 8)
    _assert_same_result(res, ref)
    assert waves == 4 and res.best_margin == 0.0
    obj = _MarginObjective(f, "a", CheckConfig())
    u = np.random.Generator(np.random.Philox(key=8, counter=[0, 0, 3, 0])).random(obj.nvars)
    start = obj.lower + u * (obj.upper - obj.lower)
    w = res.witness
    assert np.array_equal(np.concatenate([w.x, w.y, [w.lam]]), start)


# schedules whose sweeps end inside one round's group of LOOKAHEAD sweeps:
# a non-dyadic decay, whose steps must be the reference's repeated
# products; max_iters and min_step reached after a group's first sweep; a
# first step of twice the box, whose polls clip to its faces
GROUP_SCHEDULES = [dict(step_decay=0.3), dict(max_iters=5),
                   dict(max_iters=7, step_decay=0.3),
                   dict(min_step=1e-3, step_decay=0.3),
                   dict(min_step=0.02), dict(init_step_frac=2.0)]


@pytest.mark.parametrize("schedule", GROUP_SCHEDULES,
                         ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_falsify_lookahead_groups_match_sequential(target, schedule):
    # budgets of 60 to 300 evaluations cut a restart's group inside one
    # of its later sweeps
    cfg = CheckConfig(sigma=0.25)
    for max_evals in (60, 110, 300, 3000):
        budget = SearchBudget(max_evals=max_evals, restarts=3, **schedule)
        for seed in range(3):
            res = falsify(EXPR_FIELD, target, cfg, budget, seed=seed)
            ref, _ = _restart_by_restart(EXPR_FIELD, target, cfg, budget, seed)
            _assert_same_result(res, ref)


def test_falsify_clipped_sweeps_match_sequential():
    # a step below 5.5e-17 moves no coordinate that lies in [0.5, 1], so
    # once the steps decay that far a sweep on [0.5, 1]^2 has no poll left
    # and ends without an evaluation: as a group's first sweep, inside it
    # and at its end
    f = make_field_from_expr("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", 2,
                             DomainBox.cube(0.5, 1, 2))
    cfg = CheckConfig(sigma=0.25)
    for target in ("a", "b", "c"):
        for decay in (0.5, 0.3):
            budget = SearchBudget(max_evals=1000, restarts=2, max_iters=12,
                                  init_step_frac=4e-16, step_decay=decay,
                                  min_step=1e-18)
            for seed in range(2):
                res = falsify(f, target, cfg, budget, seed=seed)
                ref, _ = _restart_by_restart(f, target, cfg, budget, seed)
                _assert_same_result(res, ref)


@contextlib.contextmanager
def _scored():
    """Inside the block, the rows of every objective call and the search
    of each row (0 without parameter rows), one array per call."""
    calls, searches = [], []
    score = _MarginObjective.__call__

    def counted(obj, Z, s=None):
        calls.append(Z.copy())
        searches.append(np.zeros(len(Z), dtype=np.int64) if s is None else s.copy())
        return score(obj, Z, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_MarginObjective, "__call__", counted)
        yield calls, searches


SEARCH_FIELDS = {"const": catalog_field("const", 2), "EXPR": EXPR_FIELD}


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(sorted(SEARCH_FIELDS)), target=st.sampled_from("abc"),
       max_evals=st.integers(1, 300), restarts=st.integers(1, 8),
       seed=st.integers(0, 2 ** 64 + 7))
def test_falsify_charges_every_scored_row(field, target, max_evals, restarts, seed):
    budget = SearchBudget(max_evals=max_evals, restarts=restarts)
    with _scored() as (calls, _):
        res = falsify(SEARCH_FIELDS[field], target, CheckConfig(sigma=0.25),
                      budget, seed)
    assert res.evaluations == sum(map(len, calls)) <= max_evals


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["perturbed_sqnorm", "bump_sum", "param_cubic"]),
       target=st.sampled_from("abc"), max_evals=st.integers(1, 300),
       seed=st.integers(0, 1000))
def test_family_engine_charges_every_scored_row(name, target, max_evals, seed):
    # each search of one engine call is charged the rows scored for it
    fam = family_by_name(name)
    box = fam.param_box
    thetas = box.lower + np.random.default_rng(seed).random((5, box.dim)) * box.widths
    f = search.ScalarField(fam.name, fam.program, fam.domain)
    with _scored() as (_, searches):
        results = _falsify_many(f, target, CheckConfig(), SearchBudget(max_evals=max_evals),
                                [seed + k for k in range(5)], thetas)
    per_search = np.bincount(np.concatenate(searches), minlength=5)
    assert [r.evaluations for r in results] == per_search.tolist()
    assert per_search.max() <= max_evals


def _is_subsequence(rows, of):
    """Whether the rows appear in `of` in the same order."""
    it = iter(map(bytes, of))
    return all(any(r == o for o in it) for r in map(bytes, rows))


@settings(max_examples=30, deadline=None)
@given(target=st.sampled_from("abc"), small=st.integers(1, 600),
       extra=st.integers(1, 600), seed=st.integers(0, 1000))
def test_falsify_monotone_in_budget(target, small, extra, seed):
    # with the seed fixed, a larger budget only extends the run: the
    # smaller run's objective calls are the larger run's first calls, its
    # last call cut to a subsequence, so every point it accepts the larger
    # run accepts too, and the best margin never rises with the budget
    cfg = CheckConfig(sigma=0.25)
    with _scored() as (a, _):
        res_small = falsify(EXPR_FIELD, target, cfg, SearchBudget(max_evals=small), seed)
    with _scored() as (b, _):
        res_large = falsify(EXPR_FIELD, target, cfg,
                            SearchBudget(max_evals=small + extra), seed)
    k = len(a)
    assert k <= len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a[:k - 1], b))
    if k:
        assert _is_subsequence(a[-1], b[k - 1])
    if math.isfinite(res_small.best_margin):
        assert res_large.best_margin <= res_small.best_margin


def test_falsify_cap_cuts_the_lookahead_group():
    # (c) is vacuous everywhere on a constant field at sigma 0, so no poll
    # improves and the one restart polls whole groups until the cap; the
    # budgets put the cap at every poll of the first three groups
    f = catalog_field("const", 2)
    for max_evals in range(2, 100):
        with _scored() as (calls, _):
            res = falsify(f, "c", CheckConfig(),
                          SearchBudget(max_evals=max_evals, restarts=1), seed=1)
        assert sum(map(len, calls)) == res.evaluations == max_evals


def test_falsify_expr_takes_at_most_90_objective_calls(tmp_path):
    # the lockstep engine scores up to LOOKAHEAD sweeps of each restart per
    # objective call: 49 calls on this command, 127 with one sweep a call
    with _scored() as (calls, _):
        main(["falsify", "--expr", "x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", "--dim",
              "2", "--box=-1:1", "--target", "c", "--budget", "10000", "--seed",
              "1", "--out", str(tmp_path / "report.json")])
    assert len(calls) <= 90


# restarts, max_iters and seed of a search whose first wave of short
# restarts stops just below max_evals // 2 rows
JUST_BELOW_HALF = {"a": (4, 3, 13), "b": (4, 3, 10), "c": (4, 3, 25)}


@pytest.mark.parametrize("target, max_evals", [("a", 184), ("b", 142),
                                               ("c", 138)])
def test_falsify_scores_only_start_points_of_discarded_restarts(target, max_evals):
    # the second wave opens, and its start points take the search to half
    # its budget, so its restarts close after their start point and no
    # third wave opens
    restarts, max_iters, seed = JUST_BELOW_HALF[target]
    f = catalog_field("cubic_minus_x", 1)
    budget = SearchBudget(max_evals=max_evals, restarts=restarts,
                          max_iters=max_iters)
    with _scored() as (calls, _):
        res = falsify(f, target, CheckConfig(), budget, seed=seed)
    scored = np.concatenate(calls)
    assert res.evaluations == len(scored) >= max_evals // 2
    obj = _MarginObjective(f, target, CheckConfig())
    for wave in range(3):
        bg = np.random.Philox(key=seed, counter=[0, 0, 3, wave])
        u = np.random.Generator(bg).random((restarts, obj.nvars))
        for start in obj.lower + u * (obj.upper - obj.lower):
            moved = (scored != start).sum(axis=1)
            # a poll of a start point moves one coordinate
            if wave == 0:
                assert (moved == 1).any()
            else:
                assert (moved == 0).sum() == (wave == 1)
                assert not (moved == 1).any()


def test_falsify_c_evaluates_no_values():
    # the (b)/(c) kernel takes f(x) and f(y) from its gradient passes, so
    # neither the search nor the witness re-check runs the value program
    calls = []
    g = catalog_field("cubic_minus_x", 1)

    def value(X):
        calls.append(len(X))
        return g.program.value(X)

    f = replace(g, program=replace(g.program, value=value))
    res = falsify(f, "c", CheckConfig(), SearchBudget(max_evals=2000), seed=3)
    assert res.violation_found
    assert calls == []


# ---------------------------------------------------------------------------
# contrapositive structure of the gradient conditions


def _b_violated_tol0(f, x, y, sigma):
    fx, fy = f.value(x), f.value(y)
    d2 = float(np.sum((np.asarray(x) - np.asarray(y)) ** 2))
    gy = f.grad(y)
    margin = -0.5 * sigma * d2 - float(np.dot(gy, np.asarray(x) - np.asarray(y)))
    return fx <= fy and margin < 0


@pytest.mark.parametrize("name", ["sin", "cubic_minus_x"])
def test_c_violations_imply_b_violation_some_orientation(name):
    f = catalog_field(name, 1)
    cfg = CheckConfig()
    pairs = sample_pairs(Sampler("uniform_box", 21, 3000, f.domain))
    found = 0
    from quasicheck.conditions import check_c, VIOLATED
    for x, y in pairs:
        v = check_c(f, x, y, cfg)
        if v.status != VIOLATED:
            continue
        found += 1
        assert (_b_violated_tol0(f, x, y, cfg.sigma)
                or _b_violated_tol0(f, y, x, cfg.sigma))
    assert found > 0  # the property was actually exercised


# ---------------------------------------------------------------------------
# implication harness


def test_harness_sqnorm_sigma2_no_violations():
    f = catalog_field("sqnorm", 2)
    rep = implication_harness(f, CheckConfig(sigma=2.0, tol=1e-8),
                              Sampler("uniform_box", 7, 20_000, f.domain))
    assert rep.total_violations == 0
    assert not rep.theorem_tension
    for cond in ("a", "b", "c"):
        counts = rep.counts[cond]
        assert sum(counts.values()) == rep.sample_count


def test_harness_sin_all_conditions_violated():
    f = catalog_field("sin", 1)
    rep = implication_harness(f, CheckConfig(),
                              Sampler("uniform_box", 7, 20_000, f.domain))
    for cond in ("a", "b", "c"):
        assert rep.counts[cond]["violated"] > 0, cond
    assert rep.worst["a"]["margin"] < -0.9


def test_harness_const_degenerate():
    f = catalog_field("const", 2)
    rep = implication_harness(f, CheckConfig(),
                              Sampler("uniform_box", 7, 5000, f.domain))
    assert rep.counts["a"]["violated"] == 0
    assert rep.worst["a"]["margin"] == 0.0
    assert rep.counts["b"]["violated"] == 0
    assert rep.counts["c"]["vacuous"] == rep.sample_count


def test_harness_chunks_identical(monkeypatch):
    # the (a) kernel's chunk size and the sampler's block size only
    # partition the work; a chunk holds SEGMENT_CHUNK // 65 pairs (63
    # lambdas + x + y), so the sizes below put one pair in each chunk, or
    # leave a partial last chunk of 5000, and the blocks split chunks
    f = catalog_field("sqnorm", 2)
    cfg = CheckConfig(sigma=2.0)
    s = Sampler("uniform_box", 13, 5000, f.domain)
    reports, sigmas = [], []
    for chunk, block in ((65, 1 << 14), (65 * 7, 1 << 14), (65 * 1001, 1 << 14),
                         (1 << 16, 1 << 14), (1 << 16, 3), (65 * 7, 1008),
                         (65 * 1001, 4999)):
        monkeypatch.setattr(cond, "SEGMENT_CHUNK", chunk)
        monkeypatch.setattr(cond, "PAIR_BLOCK", block)
        reports.append(harness_with_record(f, cfg, s))
        sigmas.append(sigma_star_estimate(f, s, cfg).hex())
    for rep, record in reports[1:]:
        assert rep.to_json() == reports[0][0].to_json()
        for key, arr in reports[0][1].items():
            assert np.array_equal(record[key], arr), key
    assert set(sigmas) == {sigmas[0]}


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn runs; numpy reports its array buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("strategy", sorted(search._STRATEGIES))
def test_reports_do_not_depend_on_the_lanes_or_the_block_size(monkeypatch, strategy):
    # each block draws its own pairs (rejection rounds included) on its
    # own lane, so neither the number of lanes nor the block size shows in
    # a bit of check's report, its per-pair record or sigma*; 2001 pairs
    # end in a partial block at every size below, an odd number of blocks
    # at most of them
    cfg = CheckConfig(sigma=0.25)
    s = Sampler(strategy, 11, 2001, EXPR_FIELD.domain)
    runs = []
    for lanes in (1, 2, 3):
        for block in (250, 600, 1 << 14):
            monkeypatch.setattr(cond, "LANES", lanes)
            monkeypatch.setattr(cond, "PAIR_BLOCK", block)
            rep, record = harness_with_record(EXPR_FIELD, cfg, s)
            runs.append((json.dumps(rep.to_json(), sort_keys=True),
                         [v.tobytes() for v in record.values()],
                         sigma_star_estimate(EXPR_FIELD, s, cfg).hex()))
    assert all(run == runs[0] for run in runs[1:])


def test_reports_do_not_depend_on_the_order_blocks_finish_in(monkeypatch):
    # a helper that is slow on every block makes the calling thread finish
    # the blocks queued behind it first; ties everywhere (a constant field)
    # and pairs dropped by min_sep show any merge out of block order, in
    # the first smallest witness or in the order of the record's rows
    caller = threading.current_thread()
    on_helpers = []
    g = catalog_field("const", 2)

    def value(X):   # points, or segments (expr.Segments)
        if threading.current_thread() is not caller:
            on_helpers.append(X.shape)
            time.sleep(0.01)
        return g.program.value(X)

    f = replace(g, program=replace(g.program, value=value))
    cfg = CheckConfig(min_sep=0.5)
    s = Sampler("uniform_box", 3, 2000, f.domain)
    monkeypatch.setattr(cond, "PAIR_BLOCK", 200)
    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # the lanes' threads interleave often
    try:
        for lanes in (1, 2, 3):
            monkeypatch.setattr(cond, "LANES", lanes)
            rep, record = harness_with_record(f, cfg, s)
            runs.append((json.dumps(rep.to_json(), sort_keys=True),
                         [v.tobytes() for v in record.values()],
                         sigma_star_estimate(f, s, cfg).hex()))
            assert 0 < rep.sample_count < s.count
    finally:
        sys.setswitchinterval(switch)
    assert on_helpers
    assert all(run == runs[0] for run in runs[1:])


def test_memory_does_not_grow_with_the_pair_count(monkeypatch):
    # sigma* and the harness hold one block of pairs at a time
    f = catalog_field("sqnorm", 3)
    cfg = CheckConfig()
    small, big = (Sampler("uniform_box", 5, count, f.domain)
                  for count in (20_000, 200_000))
    # two lanes reach their joint peak only when their chunks' values are
    # live at once, which one run need not do: a peak is the largest of
    # three runs
    peak = lambda fn: max(_traced_peak(fn) for _ in range(3))
    for lanes in (1, 2):
        monkeypatch.setattr(cond, "LANES", lanes)
        sigma_small = peak(lambda: sigma_star_estimate(f, small, cfg))
        sigma_big = peak(lambda: sigma_star_estimate(f, big, cfg))
        assert sigma_big <= sigma_small + 64 * 1024
        harness_small = peak(lambda: implication_harness(f, cfg, small))
        harness_big = peak(lambda: implication_harness(f, cfg, big))
        assert harness_big <= harness_small + 64 * 1024
        # a sink adds only the record of a block that finishes while the
        # block before it still runs on the other lane (27 B a pair), held
        # until it merges
        waiting = (lanes - 1) * 27 * (cond.PAIR_BLOCK // lanes)
        sink_big = peak(lambda: implication_harness(f, cfg, big, lambda record: None))
        assert sink_big <= harness_big + waiting + 64 * 1024


def test_harness_holds_one_block_at_a_time(monkeypatch):
    # a second block adds nothing: the first block's pairs, their filtered
    # copies, (b)/(c) results and record are dropped before the second is
    # drawn
    f = catalog_field("sqnorm", 2)
    cfg = CheckConfig()
    one, two = (Sampler("uniform_box", 5, k * cond.PAIR_BLOCK, f.domain)
                for k in (1, 2))
    in_lanes = cond._in_lanes
    for lanes in (1, 2):
        monkeypatch.setattr(cond, "LANES", lanes)
        # two lanes reach their joint peak only when their chunks are live
        # at once. In the one-block reference each lane runs one block of
        # the same calls, and each program call holds its result until the
        # other lane's call of the same rank returns, so the reference
        # reaches that peak under any load; the two-block peak is the
        # largest of three free runs. Only the calls made inside a block
        # are paired: the call that scores the (a) witness again once the
        # blocks are merged has no partner
        met = threading.Barrier(lanes, timeout=60)
        inside = threading.local()

        def in_blocks(work, count):
            def block(*args):
                inside.block = True
                try:
                    return work(*args)
                finally:
                    inside.block = False
            return in_lanes(block, count)

        def held(fn):
            return lambda *args: (fn(*args), getattr(inside, "block", False)
                                  and met.wait())[0]

        lockstep = replace(f, program=replace(f.program, value=held(f.program.value),
                                              dual=held(f.program.dual)))
        implication_harness(f, cfg, two)   # the program's registers, once
        with monkeypatch.context() as m:
            m.setattr(cond, "_in_lanes", in_blocks)
            reference = _traced_peak(lambda: implication_harness(lockstep, cfg, one))
        extra = max(_traced_peak(lambda: implication_harness(f, cfg, two))
                    for _ in range(3)) - reference
        assert extra <= 96 * 1024


def test_falsify_witness_rechecks_bitwise():
    # a witness from the search re-checks to the same margin, bit for bit
    f = make_field_from_expr("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", 2,
                             DomainBox.cube(-1, 1, 2))
    cfg = CheckConfig(sigma=0.25)
    for seed in (7, 12):
        res = falsify(f, "a", cfg, SearchBudget(max_evals=2000), seed=seed)
        w = res.witness
        assert margin_a(f, w.x, w.y, w.lam, cfg) == res.best_margin
        # the witness's values are one-point field values
        assert (w.fx, w.fy) == (f.value(w.x), f.value(w.y))
        res = falsify(f, "c", cfg, SearchBudget(max_evals=2000), seed=seed)
        w = res.witness
        v = check_c(f, w.x, w.y, cfg)
        assert v.margin == res.best_margin
        assert (v.witness.pairing_x, v.witness.pairing_y) == (w.pairing_x,
                                                              w.pairing_y)
    g = catalog_field("cubic_minus_x", 1)
    res = falsify(g, "b", CheckConfig(), SearchBudget(max_evals=3000), seed=3)
    assert check_b(g, res.witness.x, res.witness.y,
                   CheckConfig()).margin == res.best_margin


@pytest.mark.parametrize("target", ["b", "c"])
def test_falsify_bc_witnesses_recheck_at_the_default_tolerance(target):
    # the search applies the re-check's premise (exactly for (b), whose
    # tolerance widens it), so no witness it reports re-checks as vacuous
    cfg = CheckConfig(sigma=1.0)
    check = check_b if target == "b" else check_c
    found = 0
    for seed in range(10):
        res = falsify(EXPR_FIELD, target, cfg, SearchBudget(max_evals=2000), seed)
        if res.witness is None:
            continue
        found += 1
        v = check(EXPR_FIELD, res.witness.x, res.witness.y, cfg)
        assert v.status != VACUOUS
        assert v.margin == res.best_margin
    assert found > 0


# ---------------------------------------------------------------------------
# open-question campaign


def _member_by_member(family, cfg, budget, seed, param_samples):
    """Reference for `open_question_search`, which the open-question
    `*_match_sequential` tests compare it with: the members are searched
    one after another, each phase by `falsify` on the member alone, so the
    family engine must give each member what a run on it alone gives.
    Returns the candidates and the number of members that reached the
    re-verification."""
    box = family.param_box
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xFA,)))
    thetas = box.lower + rng.random((param_samples, box.dim)) * box.widths
    per_theta = replace(budget,
                        max_evals=max(200, budget.max_evals // (2 * param_samples)))
    candidates = []
    reverified = 0
    for k, theta in enumerate(thetas):
        f = family.build(theta)
        res_c = falsify(f, "c", cfg, per_theta, seed=seed + 1000 + k)
        if res_c.violation_found:
            continue
        res_a = falsify(f, "a", cfg, per_theta, seed=seed + 2000 + k)
        if not (math.isfinite(res_a.best_margin)
                and res_a.best_margin <= -10.0 * cfg.tol):
            continue
        big = replace(per_theta, max_evals=10 * per_theta.max_evals,
                      restarts=2 * per_theta.restarts)
        reverified += 1
        res_c2 = falsify(f, "c", cfg, big, seed=seed + 3000 + k)
        if res_c2.violation_found:
            continue
        confirm = margin_a(f, res_a.witness.x, res_a.witness.y,
                           res_a.witness.lam, cfg)
        if not (math.isfinite(confirm) and confirm <= -10.0 * cfg.tol):
            continue
        candidates.append(Candidate(
            params=theta, family=family.name,
            a_margin=res_a.best_margin, a_witness=res_a.witness,
            c_best_margin=res_c2.best_margin, reverified=True,
        ))
    candidates.sort(key=lambda c: c.a_margin)
    return candidates, reverified


def _candidates_json(cands):
    return json.dumps([c.to_json() for c in cands])


@pytest.mark.parametrize("name", ["perturbed_sqnorm", "bump_sum", "param_cubic"])
def test_open_question_matches_sequential(name):
    fam = family_by_name(name)
    cfg = CheckConfig()
    budget = SearchBudget(max_evals=20_000)
    reverified = 0
    for seed in (0, 1, 2, 36):   # param_cubic reaches the third phase at 36
        ref, n = _member_by_member(fam, cfg, budget, seed, 16)
        reverified += n
        assert _candidates_json(open_question_search(fam, cfg, budget, seed, 16)) \
            == _candidates_json(ref)
    assert reverified > 0   # the third phase ran


@pytest.mark.parametrize("name", ["perturbed_sqnorm", "bump_sum", "param_cubic"])
def test_open_question_lookahead_groups_match_sequential(name):
    # every member's search ends sweeps inside the engine's groups
    fam = family_by_name(name)
    for schedule in (dict(step_decay=0.3, max_iters=9),
                     dict(min_step=1e-3, init_step_frac=2.0)):
        budget = SearchBudget(max_evals=4_000, restarts=3, **schedule)
        for seed in (0, 3):
            ref, _ = _member_by_member(fam, CheckConfig(), budget, seed, 8)
            cands = open_question_search(fam, CheckConfig(), budget, seed, 8)
            assert _candidates_json(cands) == _candidates_json(ref)


def test_open_question_candidate_matches_sequential():
    fam = family_by_name("perturbed_sqnorm")
    budget = SearchBudget(max_evals=20_000)
    ref, _ = _member_by_member(fam, CheckConfig(), budget, 20, 16)
    assert len(ref) == 1
    cands = open_question_search(fam, CheckConfig(), budget, 20, 16)
    assert _candidates_json(cands) == _candidates_json(ref)


@pytest.mark.parametrize("chunk", [3, 3 * 7, 3 * 50])
def test_open_question_kernel_chunks_match_sequential(monkeypatch, chunk):
    # a target-(a) batch of several members spans several kernel chunks of
    # chunk // 3 rows; each row must still reach its own member, so the
    # family engine reports what it reports at the default chunk size
    budget = SearchBudget(max_evals=4_000)
    for name, seed in (("bump_sum", 1), ("param_cubic", 2)):
        fam = family_by_name(name)
        box = fam.param_box
        thetas = box.lower + np.random.default_rng(seed).random((8, box.dim)) * box.widths
        f = search.ScalarField(fam.name, fam.program, fam.domain)
        runs = []
        for size in (cond.SEGMENT_CHUNK, chunk):
            monkeypatch.setattr(cond, "SEGMENT_CHUNK", size)
            runs.append([json.dumps(r.to_json()) for r in
                         _falsify_many(f, "a", CheckConfig(), budget, range(8), thetas)])
            runs[-1].append(_candidates_json(
                open_question_search(fam, CheckConfig(), budget, seed, 8)))
        assert runs[1] == runs[0]
        ref, _ = _member_by_member(fam, CheckConfig(), budget, seed, 8)
        assert runs[1][-1] == _candidates_json(ref)


LOGS = ExprFamily("logs", "x1^2 + x2^2 + t2*sin(3*x1)*exp(x2) + log(x1 - t1)",
                  EXPR_FIELD.domain, DomainBox.cube(-5, 5, 2))
LOGS_THETAS = np.array([[-2, 0.1], [5, 0.1], [-1.5, 1], [-3, 0.5]])


def test_falsify_many_isolates_members():
    # one engine call over members of one family, one of them NaN
    # everywhere on the box: each result is that member's own search
    cfg = CheckConfig(sigma=0.25)
    budget = SearchBudget(max_evals=600, restarts=3)
    seeds = [4, 5, 6, 7]
    f = LOGS.build(LOGS_THETAS[0])
    for target in ("a", "b", "c"):
        results = _falsify_many(f, target, cfg, budget, seeds, LOGS_THETAS)
        for theta, seed, res in zip(LOGS_THETAS, seeds, results):
            _assert_same_result(res, falsify(LOGS.build(theta), target, cfg,
                                             budget, seed))
        assert results[1].witness is None and math.isnan(results[1].best_margin)
        assert any(r.violation_found for r in results)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", ["perturbed_sqnorm", "bump_sum", "param_cubic"])
def test_stop_at_the_first_violation_keeps_violation_found(name, sigma):
    # a search that stops at its first violation finds one exactly when the
    # full search does, scores no more rows, and gives the full result but
    # the witness, which it does not re-check, when it finds none; each
    # member's result is that of its stopped search alone
    fam = family_by_name(name)
    f = search.ScalarField(fam.name, fam.program, fam.domain)
    box = fam.param_box
    cfg = CheckConfig(sigma=sigma)
    budget = SearchBudget(max_evals=1_000, restarts=4)
    stopped = clean = saved = 0
    for seed in (0, 1, 2):
        thetas = box.lower + np.random.default_rng(seed).random((8, box.dim)) * box.widths
        seeds = [seed + 10 * k for k in range(8)]
        for target in "bc":
            full = _falsify_many(f, target, cfg, budget, seeds, thetas)
            stop = _falsify_many(f, target, cfg, budget, seeds, thetas,
                                 until_violation=True)
            for k, (res, ref) in enumerate(zip(stop, full)):
                assert res.violation_found == ref.violation_found
                assert res.evaluations <= ref.evaluations
                assert res.witness is None
                if ref.violation_found:
                    stopped += 1
                    saved += res.evaluations < ref.evaluations
                else:
                    clean += 1
                    _assert_same_result(res, replace(ref, witness=None))
                alone, = _falsify_many(f, target, cfg, budget, seeds[k:k + 1],
                                       thetas[k:k + 1], until_violation=True)
                _assert_same_result(res, alone)
    assert stopped and clean and saved


def test_only_the_c_phases_stop_at_the_first_violation(monkeypatch):
    # the (a) phase reports its best margins and witnesses, so it runs whole
    calls = []
    many = search._falsify_many
    monkeypatch.setattr(search, "_falsify_many", lambda *a, **k: calls.append(
        (a[1], k.get("until_violation", False))) or many(*a, **k))
    open_question_search(family_by_name("param_cubic"), CheckConfig(),
                         SearchBudget(max_evals=20_000), 36, 16)
    assert calls == [("c", True), ("a", False), ("c", True)]
    calls.clear()
    falsify(EXPR_FIELD, "c", CheckConfig(), SearchBudget(max_evals=300), 1)
    assert calls == [("c", False)]


def test_only_the_a_phase_rechecks_witnesses(monkeypatch):
    # the (c) phases read no witness, so their searches re-check none
    targets = []
    witnesses = search._MarginObjective.witnesses
    monkeypatch.setattr(search._MarginObjective, "witnesses", lambda obj, *a: (
        targets.append(obj.target) or witnesses(obj, *a)))
    open_question_search(family_by_name("param_cubic"), CheckConfig(),
                         SearchBudget(max_evals=20_000), 36, 16)
    assert targets == ["a"]


@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_one_search_runs_at_its_theta_row(target):
    # a family phase with one search left runs at that search's row, not
    # at the parameters of the field it is given
    cfg = CheckConfig(sigma=0.25)
    budget = SearchBudget(max_evals=600, restarts=3)
    f = LOGS.build(LOGS_THETAS[0])
    for k in (2, 3):
        res, = _falsify_many(f, target, cfg, budget, [k], LOGS_THETAS[k:k + 1])
        _assert_same_result(res, falsify(LOGS.build(LOGS_THETAS[k]), target,
                                         cfg, budget, k))


def test_open_question_psd_quadratics_no_candidates():
    # convex members: (a) never violated, so no candidate can appear
    fam = ExprFamily("psd_quad", "(t1^2 + 0.1)*x1^2 + 2*t1*t2*x1*x2"
                     " + (t2^2 + t3^2 + 0.1)*x2^2", DomainBox.cube(-1, 1, 2),
                     DomainBox.cube(-1, 1, 3))
    cands = open_question_search(fam, CheckConfig(), SearchBudget(max_evals=20_000),
                                 seed=5, param_samples=6)
    assert cands == []


def test_open_question_empty_params_rejected():
    fam = shipped_families()[0]
    with pytest.raises(ValueError):
        open_question_search(fam, CheckConfig(), SearchBudget(), seed=1,
                             param_samples=0)


def test_shipped_families_lookup():
    names = [f.name for f in shipped_families()]
    assert names == ["perturbed_sqnorm", "bump_sum", "param_cubic"]
    assert family_by_name("bump_sum").name == "bump_sum"
    with pytest.raises(KeyError):
        family_by_name("nope")


def test_family_members_are_valid_fields():
    from quasicheck.field import validate_grad
    rng = np.random.default_rng(3)
    for fam in shipped_families():
        box = fam.param_box
        for theta in box.lower + rng.random((5, box.dim)) * box.widths:
            rep = validate_grad(fam.build(theta), seed=2, count=50)
            assert rep.passed(1e-6), (fam.name, theta)


def _witness_json(w):
    return None if w is None else json.dumps(w.to_json())


def test_family_witness_is_the_members_own():
    # the engine scores members through one program with a parameter row
    # per point row; the witnesses of all searches are re-checked in one
    # batch, each as on the member built alone
    fam = family_by_name("param_cubic")
    thetas = np.array([[0.0, -1.0], [1.5, -2.0], [-1.0, 1.0]])
    cfg = CheckConfig()
    obj = _MarginObjective(fam.build(thetas[1]), "c", cfg, thetas)
    z = np.array([-1.0, 0.6])
    rows = np.tile(z, (3, 1))
    margins = obj(rows, np.arange(3))
    witnesses = obj.witnesses(rows, np.arange(3))
    for k, theta in enumerate(thetas):
        f = fam.build(theta)
        w = witnesses[k]
        v = check_c(f, z[:1], z[1:], cfg)
        assert (w.pairing_x, w.pairing_y) == (v.witness.pairing_x,
                                              v.witness.pairing_y)
        if v.status != "vacuous":
            assert margins[k] == v.margin


@pytest.mark.parametrize("target", ["a", "b", "c"])
@pytest.mark.parametrize("name", ["perturbed_sqnorm", "bump_sum", "param_cubic"])
def test_batched_witnesses_equal_members_alone(name, target):
    # one re-check of many searches' points, each at its own parameter
    # row, in any order and with repeats, equals each member alone, bit
    # for bit, whatever the verdict (vacuous and skipped rows included)
    fam = family_by_name(name)
    rng = np.random.default_rng(4)
    box = fam.param_box
    thetas = box.lower + rng.random((12, box.dim)) * box.widths
    cfg = CheckConfig(sigma=0.5)
    obj = _MarginObjective(fam.build(thetas[0]), target, cfg, thetas)
    searches = np.concatenate([rng.permutation(12), [3, 3, 7]])
    Z = obj.lower + rng.random((searches.size, obj.nvars)) * (obj.upper - obj.lower)
    batch = obj.witnesses(Z, searches)
    for z, s, w in zip(Z, searches, batch):
        alone = _witness_alone(fam.build(thetas[s]), target, cfg, z)
        assert _witness_json(w) == _witness_json(alone)


@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_family_scoring_over_many_kernel_chunks_equals_members_alone(target):
    # 50,000 rows span several chunks of the segment kernel (a chunk holds
    # at most SEGMENT_CHUNK // 3 rows at one lambda per row), and each
    # chunk scores its own parameter rows: one call over all 64 members
    # equals each member scoring its own rows, bit for bit
    fam = family_by_name("perturbed_sqnorm")
    rng = np.random.default_rng(6)
    box = fam.param_box
    thetas = box.lower + rng.random((64, box.dim)) * box.widths
    cfg = CheckConfig(sigma=0.5)
    f = search.ScalarField(fam.name, fam.program, fam.domain)
    obj = _MarginObjective(f, target, cfg, thetas)
    searches = rng.integers(0, 64, 50_000)
    assert searches.size > 2 * (cond.SEGMENT_CHUNK // 3)
    Z = obj.lower + rng.random((searches.size, obj.nvars)) * (obj.upper - obj.lower)
    want = np.empty(searches.size)
    for k, theta in enumerate(thetas):
        rows = searches == k
        want[rows] = _MarginObjective(fam.build(theta), target, cfg)(Z[rows])
    assert np.isfinite(want).any() and (want < 0).any()
    assert obj(Z, searches).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["perturbed_sqnorm", "bump_sum", "param_cubic"])
def test_family_engine_rechecks_witnesses_once(monkeypatch, name):
    # every search of an engine call is re-checked by one witness call
    calls = []
    batch = _MarginObjective.witnesses
    monkeypatch.setattr(_MarginObjective, "witnesses",
                        lambda self, Z, s: calls.append(len(Z)) or batch(self, Z, s))
    fam = family_by_name(name)
    f = search.ScalarField(fam.name, fam.program, fam.domain)
    box = fam.param_box
    thetas = box.lower + np.random.default_rng(5).random((5, box.dim)) * box.widths
    results = _falsify_many(f, "c", CheckConfig(), SearchBudget(max_evals=300),
                            [1, 2, 3, 4, 5], thetas)
    assert calls == [sum(math.isfinite(r.best_margin) for r in results)] != [0]


@pytest.mark.parametrize("lanes", [2, 64])
def test_search_paths_bypass_the_lanes(monkeypatch, tmp_path, helper_blocks, lanes):
    # the falsify objective and margin_a run on the calling thread alone,
    # whatever the number of lanes
    monkeypatch.setattr(cond, "LANES", lanes)
    out = str(tmp_path / "report.json")
    expr = ["--expr", "x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", "--dim", "2", "--box=-1:1"]
    f = catalog_field("sqnorm", 2)
    margin_a(f, np.array([0.1, 0.2]), np.array([-0.5, 0.3]), 0.25, CheckConfig())
    for argv in (["falsify", *expr, "--target", "a", "--budget", "2000"],
                 ["falsify", "--family", "param_cubic", "--budget", "20000",
                  "--param-samples", "16"]):
        assert main(argv + ["--seed", "5", "--out", out]) in (0, 1)
    assert helper_blocks == []
    # while check, over more than one block, hands blocks to the helper
    monkeypatch.setattr(cond, "LANES", 2)
    assert main(["check", *expr, "--pairs", "20000", "--seed", "5", "--out", out]) in (0, 1)
    assert helper_blocks
