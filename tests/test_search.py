import json
import math
from dataclasses import replace

import numpy as np
import pytest

from quasicheck import conditions as cond
from quasicheck.conditions import CheckConfig, check_b, check_c, margin_a
from quasicheck.families import family_by_name, shipped_families
from quasicheck.field import (DomainBox, ScalarField, catalog, catalog_field,
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


def test_falsify_monotone_in_budget():
    f = catalog_field("sin", 1)
    cfg = CheckConfig()
    small = falsify(f, "a", cfg, SearchBudget(max_evals=500), seed=11)
    large = falsify(f, "a", cfg, SearchBudget(max_evals=5000), seed=11)
    assert large.best_margin <= small.best_margin


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


def _polls(obj, z, step, j):
    """The pending polls of one point from coordinate j (see
    `_MarginObjective.poll_points`). Returns (points, coordinate of each
    point)."""
    points, pending = obj.poll_points(z[None], step[None], np.array([j]))
    return points[0, pending[0]], obj.coord[pending[0]]


def _sequential_falsify(f, target, cfg, budget, seed):
    """Reference for `falsify`: the restarts run one after another, each
    capped by the evaluations left, and each sweep's remaining polls are
    scored as one batch. Returns the result and the number of restarts
    run."""
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
                Z, coord = _polls(obj, z, step, j)
                limit = budget.max_evals - evals
                Z, coord = Z[:limit], coord[:limit]
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
    ), restart


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


@pytest.mark.parametrize("max_evals", [50, 300, 3000])
@pytest.mark.parametrize("restarts", [1, 3, 8])
@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_falsify_matches_sequential_restarts(target, restarts, max_evals):
    # budgets of 50 and 300 run out inside a restart and inside a wave
    cfg = CheckConfig(sigma=0.25)
    budget = SearchBudget(max_evals=max_evals, restarts=restarts)
    for seed in (4, 9):
        res = falsify(EXPR_FIELD, target, cfg, budget, seed=seed)
        ref, _ = _sequential_falsify(EXPR_FIELD, target, cfg, budget, seed)
        _assert_same_result(res, ref)
        assert res.evaluations <= max_evals


@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_falsify_short_restarts_match_sequential(target):
    # with a few sweeps per restart, restarts before the one the budget
    # cuts keep running after it has stopped, so its path reaches past its
    # charge and its final point must be read off at the charge
    cfg = CheckConfig(sigma=0.25)
    for max_evals in (40, 60, 80, 100, 150):
        for max_iters in (4, 6):
            budget = SearchBudget(max_evals=max_evals, restarts=4,
                                  max_iters=max_iters)
            for seed in range(5):
                res = falsify(EXPR_FIELD, target, cfg, budget, seed=seed)
                ref, _ = _sequential_falsify(EXPR_FIELD, target, cfg, budget,
                                             seed)
                _assert_same_result(res, ref)


@pytest.mark.parametrize("target", ["a", "b", "c"])
def test_falsify_stopping_rules_match_sequential(target):
    f = catalog_field("cubic_minus_x", 1)
    cfg = CheckConfig()
    # short restarts: 4 * restarts of them spend under half the budget
    capped = SearchBudget(max_evals=100_000, restarts=2, max_iters=3)
    res = falsify(f, target, cfg, capped, seed=6)
    ref, ran = _sequential_falsify(f, target, cfg, capped, 6)
    _assert_same_result(res, ref)
    assert ran == 4 * capped.restarts
    assert ref.evaluations < capped.max_evals // 2
    # half the budget is spent in a later, speculative wave
    half = SearchBudget(max_evals=150, restarts=3, max_iters=3)
    res = falsify(f, target, cfg, half, seed=6)
    ref, ran = _sequential_falsify(f, target, cfg, half, 6)
    _assert_same_result(res, ref)
    assert half.restarts < ran < 4 * half.restarts
    assert half.max_evals // 2 <= ref.evaluations < half.max_evals


@pytest.mark.parametrize("target, max_evals", [("a", 184), ("b", 142),
                                               ("c", 138)])
def test_falsify_scores_only_start_points_of_discarded_restarts(
        monkeypatch, target, max_evals):
    # the first wave of 6 short restarts uses max_evals // 2 - 1
    # evaluations, so the second wave ends on the max_evals // 2 rule after
    # its first restart; the other five restarts of that wave are discarded
    # by the replay and must stop after their start point
    f = catalog_field("cubic_minus_x", 1)
    budget = SearchBudget(max_evals=max_evals, restarts=6, max_iters=3)
    rows = []
    score = _MarginObjective.__call__

    def counted(self, Z, *groups):
        rows.append(len(Z))
        return score(self, Z, *groups)

    monkeypatch.setattr(_MarginObjective, "__call__", counted)
    ref, ran = _sequential_falsify(f, target, CheckConfig(), budget, 6)
    assert ran == budget.restarts + 1
    sequential = sum(rows)
    rows.clear()
    _assert_same_result(falsify(f, target, CheckConfig(), budget, seed=6), ref)
    # no restart is capped, so the searches the replay keeps score the
    # rows they score one after another
    assert sum(rows) == sequential + budget.restarts - 1


def test_falsify_c_evaluates_no_values():
    # condition (c) needs only the gradients; the two values calls left
    # (x, then y) are the witness re-check
    calls = []
    g = catalog_field("cubic_minus_x", 1)

    def fn(X):
        calls.append(len(X))
        return g.fn(X)

    f = ScalarField(name="counted", dim=1, fn=fn, grad_fn=g.grad_fn,
                    domain=g.domain)
    res = falsify(f, "c", CheckConfig(), SearchBudget(max_evals=2000), seed=3)
    assert res.violation_found
    assert calls == [1, 1]


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
    # the (a) kernel's chunk size only partitions the work; a chunk holds
    # SEGMENT_CHUNK // 65 pairs (63 lambdas + x + y), so the sizes below
    # put one pair in each chunk, or leave a partial last chunk of 5000
    f = catalog_field("sqnorm", 2)
    cfg = CheckConfig(sigma=2.0)
    s = Sampler("uniform_box", 13, 5000, f.domain)
    reports = []
    for chunk in (65, 65 * 7, 65 * 1001, 1 << 16):
        monkeypatch.setattr(cond, "SEGMENT_CHUNK", chunk)
        reports.append(implication_harness(f, cfg, s))
    for rep in reports[1:]:
        assert rep.to_json() == reports[0].to_json()
        for key, arr in reports[0].per_pair.items():
            assert np.array_equal(rep.per_pair[key], arr), key


def test_falsify_witness_rechecks_bitwise():
    # a witness from the search re-checks to the same margin, bit for bit
    f = make_field_from_expr("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", 2,
                             DomainBox.cube(-1, 1, 2))
    cfg = CheckConfig(sigma=0.25)
    for seed in (7, 11):
        res = falsify(f, "a", cfg, SearchBudget(max_evals=2000), seed=seed)
        w = res.witness
        assert margin_a(f, w.x, w.y, w.lam, cfg) == res.best_margin
        # the witness's values are one-point field values
        assert (w.fx, w.fy) == (f.value(w.x), f.value(w.y))
        res = falsify(f, "c", cfg, SearchBudget(max_evals=2000), seed=seed)
        w = res.witness
        v = check_c(f, w.x, w.y, cfg, premise_tol=0.0)
        assert v.margin == res.best_margin
        assert (v.witness.pairing_x, v.witness.pairing_y) == (w.pairing_x,
                                                              w.pairing_y)
    g = catalog_field("cubic_minus_x", 1)
    res = falsify(g, "b", CheckConfig(), SearchBudget(max_evals=3000), seed=3)
    assert check_b(g, res.witness.x, res.witness.y,
                   CheckConfig()).margin == res.best_margin


# ---------------------------------------------------------------------------
# open-question campaign


def _sequential_open_question(family, cfg, budget, seed, param_samples):
    """Reference for `open_question_search`: the members are searched one
    after another, each phase by `falsify`. Returns the candidates and the
    number of members that reached the re-verification."""
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
    for seed in (0, 1, 2, 8):   # param_cubic reaches the third phase at 8
        ref, n = _sequential_open_question(fam, cfg, budget, seed, 16)
        reverified += n
        assert _candidates_json(open_question_search(fam, cfg, budget, seed, 16)) \
            == _candidates_json(ref)
    assert reverified > 0   # the third phase ran


def test_open_question_candidate_matches_sequential():
    fam = family_by_name("perturbed_sqnorm")
    budget = SearchBudget(max_evals=20_000)
    ref, _ = _sequential_open_question(fam, CheckConfig(), budget, 13, 16)
    assert len(ref) == 1
    cands = open_question_search(fam, CheckConfig(), budget, 13, 16)
    assert _candidates_json(cands) == _candidates_json(ref)


@pytest.mark.parametrize("chunk", [3, 3 * 7, 3 * 50])
def test_open_question_kernel_chunks_match_sequential(monkeypatch, chunk):
    # a target-(a) batch of several members spans several kernel chunks of
    # chunk // 3 rows; each row must still reach its own member
    monkeypatch.setattr(cond, "SEGMENT_CHUNK", chunk)
    budget = SearchBudget(max_evals=4_000)
    for name, seed in (("bump_sum", 1), ("param_cubic", 2)):
        fam = family_by_name(name)
        ref, _ = _sequential_open_question(fam, CheckConfig(), budget, seed, 8)
        cands = open_question_search(fam, CheckConfig(), budget, seed, 8)
        assert _candidates_json(cands) == _candidates_json(ref)


def test_falsify_many_isolates_members():
    # one engine call over members that share dim and domain, one of them
    # NaN everywhere on the box: each result is that member's own search
    box = EXPR_FIELD.domain
    members = [EXPR_FIELD, make_field_from_expr("log(x1 - 5)", 2, box),
               make_field_from_expr("(x1+2)^x2 + abs(x1 - x2)", 2, box),
               EXPR_FIELD]
    cfg = CheckConfig(sigma=0.25)
    budget = SearchBudget(max_evals=600, restarts=3)
    seeds = [4, 5, 6, 7]
    for target in ("a", "b", "c"):
        results = _falsify_many(members, target, cfg, budget, seeds)
        for f, seed, res in zip(members, seeds, results):
            _assert_same_result(res, falsify(f, target, cfg, budget, seed))
        assert results[1].witness is None and math.isnan(results[1].best_margin)
    for other in (make_field_from_expr("x1^2", 1, DomainBox.cube(-1, 1, 1)),
                  make_field_from_expr("x1^2", 2, DomainBox.cube(-1, 2, 2))):
        with pytest.raises(ValueError, match="share dim and domain"):
            _falsify_many([EXPR_FIELD, other], "c", cfg, budget, [1, 2])


def test_open_question_psd_quadratics_no_candidates():
    # convex members: (a) never violated, so no candidate can appear
    from quasicheck.families import ExprFamily
    from quasicheck.field import ScalarField

    def build(theta):
        a, b, c = float(theta[0]), float(theta[1]), float(theta[2])
        Q = np.array([[a * a + 0.1, a * b], [a * b, b * b + c * c + 0.1]])

        def fn(X):
            X = np.asarray(X, dtype=float)
            return np.einsum("...i,ij,...j->...", X, Q, X)

        def grad_fn(X):
            return 2.0 * np.asarray(X, dtype=float) @ Q

        return ScalarField(name="psd_quad", dim=2, fn=fn, grad_fn=grad_fn,
                           domain=DomainBox.cube(-1, 1, 2))

    fam = ExprFamily(name="psd_quad",
                     param_box=DomainBox.cube(-1, 1, 3), build=build)
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
    for fam in shipped_families():
        mid = 0.5 * (fam.param_box.lower + fam.param_box.upper)
        f = fam.build(mid)
        rep = validate_grad(f, seed=2, count=50)
        assert rep.passed(1e-6), fam.name
