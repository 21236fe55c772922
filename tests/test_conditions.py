import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from quasicheck import conditions, search
from quasicheck.conditions import (HOLDS, SKIPPED, VACUOUS, VIOLATED,
                                   CheckConfig, batch_margin_a_worst,
                                   batch_margins_bc,
                                   check_b, check_c, check_lemma,
                                   check_lemma_refined, default_lambda_grid,
                                   is_violated, margin_a, sigma_star_estimate,
                                   sigma_star_segment)
from quasicheck.field import DomainBox, catalog_field, make_field_from_expr
from quasicheck.search import Sampler, implication_harness, sample_pairs

SIN = catalog_field("sin", 1)
SQ1 = catalog_field("sqnorm", 1)
SQ2 = catalog_field("sqnorm", 2)
CONST = catalog_field("const", 2)
CUBIC_MX = catalog_field("cubic_minus_x", 1)


def cfg(sigma=0.0, **kw):
    return CheckConfig(sigma=sigma, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(sigma=-1.0)
    with pytest.raises(ValueError):
        CheckConfig(tol=0.0)
    with pytest.raises(ValueError):
        CheckConfig(lambda_grid=(0.0, 0.5))
    grid = default_lambda_grid()
    assert len(grid) == 63 and grid[0] == 1 / 64 and grid[-1] == 63 / 64


@pytest.mark.parametrize("norm", [0, 3, 2.5, "2", "max", None])
def test_config_rejects_an_unsupported_norm_when_built(norm):
    with pytest.raises(ValueError, match="unsupported norm selector"):
        CheckConfig(penalty_norm=norm)


@pytest.mark.parametrize("spelling", ["inf", math.inf, np.inf, float("inf")])
def test_config_stores_the_max_norm_as_math_inf(spelling):
    c = CheckConfig(penalty_norm=spelling)
    assert c.penalty_norm == math.inf and type(c.penalty_norm) is float
    assert c.to_json()["penalty_norm"] == "inf"
    assert [CheckConfig(penalty_norm=p).to_json()["penalty_norm"] for p in (1, 2)] == [1, 2]


# ---------------------------------------------------------------------------
# margin_a


def test_margin_a_sin_violation():
    m = margin_a(SIN, [0.0], [math.pi], 0.5, cfg())
    assert m == pytest.approx(-1.0, abs=1e-12)


def test_margin_a_const_zero():
    assert margin_a(CONST, [0.1, 0.2], [0.9, -0.3], 0.3, cfg()) == 0.0


def test_margin_a_sqnorm_sigma2_symmetric_pair():
    # 1 - (2)(0.25)(4)/2 - 0 = 0 by direct arithmetic
    m = margin_a(SQ1, [-1.0], [1.0], 0.5, cfg(sigma=2.0))
    assert m == pytest.approx(0.0, abs=1e-15)
    fx, fy = 1.0, 1.0
    oracle = max(fx, fy) - 0.5 * 2.0 * 0.25 * 4.0 - 0.0
    assert m == pytest.approx(oracle, abs=1e-15)


def test_margin_a_preconditions():
    with pytest.raises(ValueError):
        margin_a(SQ1, [0.0], [1.0], 0.0, cfg())
    with pytest.raises(ValueError):
        margin_a(SQ1, [0.5], [0.5], 0.5, cfg())


def test_margin_a_swap_symmetry(rng):
    c = cfg(sigma=1.0)
    for _ in range(200):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(x - y) < c.min_sep:
            continue
        lam = float(rng.uniform(0.05, 0.95))
        a = margin_a(SQ2, x, y, lam, c)
        b = margin_a(SQ2, y, x, 1.0 - lam, c)
        assert abs(a - b) <= 1e-12


def test_margin_a_monotone_in_sigma(rng):
    # margins at sigma' < sigma differ by (sigma-sigma')/2*lam*(1-lam)*d^2
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        lam = float(rng.uniform(0.1, 0.9))
        hi, lo = 2.0, 0.5
        m_hi = margin_a(SQ2, x, y, lam, cfg(sigma=hi))
        m_lo = margin_a(SQ2, x, y, lam, cfg(sigma=lo))
        gap = 0.5 * (hi - lo) * lam * (1 - lam) * np.sum((x - y) ** 2)
        assert m_lo == pytest.approx(m_hi + gap, rel=1e-12, abs=1e-12)
        if m_hi >= 0:
            assert m_lo >= 0


# ---------------------------------------------------------------------------
# check_b / check_c


def test_check_b_sqnorm_example():
    v = check_b(SQ1, [0.0], [1.0], cfg(sigma=2.0))
    assert v.status == HOLDS
    assert v.margin == pytest.approx(1.0)  # -1 - (-2)


def test_check_b_vacuous():
    v = check_b(SIN, [math.pi / 2], [math.pi / 4], cfg())
    assert v.status == VACUOUS


def test_check_b_cubic_minus_x_violation():
    # f(-1.1) = -0.231 < f(0) = 0, and f'(0) = -1
    v = check_b(CUBIC_MX, [-1.1], [0.0], cfg())
    assert v.status == VIOLATED
    assert v.margin == pytest.approx(-1.1)
    # grid oracle: f is not quasiconvex on the segment [-1.1, 0]
    ts = np.linspace(0, 1, 101)[1:-1]
    seg = -1.1 + ts * 1.1
    f = seg ** 3 - seg
    assert np.max(f) > max(CUBIC_MX.value([-1.1]), CUBIC_MX.value([0.0]))
    # f(-1) = f(0) is within tol of the premise's boundary: no witness
    assert check_b(CUBIC_MX, [-1.0], [0.0], cfg()).status == VACUOUS


def test_check_c_sqnorm_example():
    v = check_c(SQ1, [1.0], [2.0], cfg())
    assert v.status == HOLDS
    assert v.witness.pairing_x == pytest.approx(2.0)
    assert v.margin == pytest.approx(4.0)


def test_check_c_const_vacuous():
    v = check_c(CONST, [0.0, 0.0], [1.0, 1.0], cfg())
    assert v.status == VACUOUS


def test_check_c_cubic_minus_x_violation():
    v = check_c(CUBIC_MX, [0.0], [-1.1], cfg())
    assert v.status == VIOLATED
    assert v.margin == pytest.approx(-(3 * 1.1 ** 2 - 1) * 1.1)
    # contrapositive of the gradient-implication proof: the swapped pair
    # must violate the value-premise condition as well
    swapped = check_b(CUBIC_MX, [-1.1], [0.0], cfg())
    assert swapped.status == VIOLATED


def test_witness_reproducibility():
    c = cfg()
    v = check_b(CUBIC_MX, [-1.1], [0.0], c)
    again = check_b(CUBIC_MX, v.witness.x, v.witness.y, c)
    assert abs(again.margin - v.margin) <= 1e-12


def test_skipped_needs_only_the_evaluations_a_check_uses():
    # abs(x1) has no gradient at 0: (b) at x = 0 needs only grad f(y),
    # (c) needs both gradients
    f = make_field_from_expr("abs(x1)", 1, DomainBox.cube(-1, 1, 1))
    vb = check_b(f, [0.0], [0.5], cfg())
    assert vb.status == HOLDS and vb.margin == 0.5
    assert check_c(f, [0.0], [0.5], cfg()).status == SKIPPED
    assert check_b(f, [0.5], [0.0], cfg()).status == SKIPPED
    assert check_c(f, [0.5], [0.0], cfg()).status == SKIPPED
    # and so does check: x = -0.5 is the kink of abs(x1 + 0.5)
    g = make_field_from_expr("abs(x1 + 0.5)", 1, DomainBox.cube(-1, 1, 1))
    counts = implication_harness(g, cfg(), Sampler("segment_grid", 0, 1, g.domain)).counts
    assert (counts["b"]["holds"], counts["c"]["skipped"]) == (1, 1)


def test_min_sep_enforced():
    with pytest.raises(ValueError):
        check_b(SQ1, [0.5], [0.5 + 1e-9], cfg())
    with pytest.raises(ValueError):
        check_c(SQ1, [0.5], [0.5 + 1e-9], cfg())


# ---------------------------------------------------------------------------
# sigma*


def test_sigma_star_segment_sqnorm_exact_two():
    got = sigma_star_segment(SQ1, [-1.0], [1.0], cfg())
    assert got == pytest.approx(2.0, abs=1e-12)
    # grid oracle: 2*(1-(2l-1)^2)/(4l(1-l)) = 2 for every interior lambda
    for lam in default_lambda_grid():
        num = 1.0 - (2 * lam - 1) ** 2
        assert 2 * num / (4 * lam * (1 - lam)) == pytest.approx(2.0)


def test_sigma_star_segment_const_zero():
    assert sigma_star_segment(CONST, [0.0, 0.0], [1.0, 1.0], cfg()) == 0.0


def test_sigma_star_segment_sin_negative():
    got = sigma_star_segment(SIN, [0.0], [math.pi], cfg())
    at_half = 2.0 * (0.0 - 1.0) / (0.25 * math.pi ** 2)
    assert got <= at_half + 1e-12
    assert at_half == pytest.approx(-0.81, abs=0.005)


def test_sigma_star_segment_swap_invariant(rng):
    for _ in range(50):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        a = sigma_star_segment(SQ2, x, y, cfg())
        b = sigma_star_segment(SQ2, y, x, cfg())
        assert abs(a - b) <= 1e-12


def test_sigma_star_estimate_sqnorm():
    s = Sampler("uniform_box", 7, 10_000, SQ2.domain)
    est = sigma_star_estimate(SQ2, s, cfg())
    assert est == pytest.approx(2.0, abs=1e-3)


def test_sigma_star_estimate_const_zero():
    s = Sampler("uniform_box", 7, 500, CONST.domain)
    assert abs(sigma_star_estimate(CONST, s, cfg())) <= 1e-12


def test_sigma_star_estimate_affine_near_zero():
    # infimum 0 is approached along pairs inside a level set of <c, x>;
    # include such pairs explicitly (c = (1, 2) here)
    aff = catalog_field("affine", 2)
    rng = np.random.default_rng(5)
    base = rng.uniform(-0.5, 0.5, size=(200, 2))
    level_dir = np.array([2.0, -1.0]) / np.sqrt(5.0)  # orthogonal to c
    pairs = np.stack([base + 0.4 * level_dir, base - 0.4 * level_dir], axis=1)
    uniform = sample_pairs(Sampler("uniform_box", 7, 1000, aff.domain))
    est = sigma_star_estimate(aff, np.vstack([uniform, pairs]), cfg())
    assert -1e-9 <= est <= 1e-9


def test_sigma_star_estimate_catalog_reproduction():
    # symmetric segment_grid pairs expose the infimum for sqnorm/cubic
    for name, n in (("sqnorm", 2), ("const", 2), ("cubic", 1)):
        f = catalog_field(name, n)
        pairs = np.vstack([
            sample_pairs(Sampler("uniform_box", 3, 2000, f.domain)),
            sample_pairs(Sampler("segment_grid", 3, 10_000, f.domain)),
        ])
        est = sigma_star_estimate(f, pairs, cfg())
        assert est == pytest.approx(f.known_sigma, abs=1e-3), name


def test_sigma_star_estimate_no_pairs():
    with pytest.raises(ValueError):
        sigma_star_estimate(SQ2, np.empty((0, 2, 2)), cfg())


# ---------------------------------------------------------------------------
# batch kernels against closed forms


def _sq_margins(X, Y, lam, sigma):
    # sqnorm: f(x) = |x|^2, grad f(x) = 2x
    d2 = np.sum((X - Y) ** 2, axis=-1)
    Z = Y + np.asarray(lam)[..., None] * (X - Y)
    fx, fy = np.sum(X * X, axis=-1), np.sum(Y * Y, axis=-1)
    seg = np.maximum(fx, fy) - 0.5 * sigma * lam * (1 - lam) * d2 - np.sum(Z * Z, axis=-1)
    px = 2 * np.sum(X * (Y - X), axis=-1)
    py = 2 * np.sum(Y * (X - Y), axis=-1)
    return seg, fx, fy, px, py, d2


def _affine_margins(X, Y, lam, sigma):
    # affine: f(x) = <c, x> with c = (1, 2), grad f = c
    c = np.array([1.0, 2.0])
    d2 = np.sum((X - Y) ** 2, axis=-1)
    fx, fy = X @ c, Y @ c
    seg = (np.maximum(fx, fy) - 0.5 * sigma * lam * (1 - lam) * d2
           - (lam * fx + (1 - lam) * fy))
    return seg, fx, fy, (Y - X) @ c, (X - Y) @ c, d2


def test_batch_kernels_match_closed_form(rng):
    for name, oracle in (("sqnorm", _sq_margins), ("affine", _affine_margins)):
        _match_closed_form(catalog_field(name, 2), oracle, rng)


def _match_closed_form(f, oracle, rng):
    c = cfg(sigma=1.0)
    X = rng.uniform(-1, 1, size=(300, 2))
    Y = rng.uniform(-1, 1, size=(300, 2))
    keep = np.linalg.norm(X - Y, axis=1) >= 1e-3
    X, Y = X[keep], Y[keep]
    lams = np.array(c.lambda_grid)
    seg = np.stack([oracle(X, Y, lam, c.sigma)[0] for lam in lams])
    worst, worst_lam, ok = batch_margin_a_worst(f, X, Y, c)
    assert ok.all()
    np.testing.assert_allclose(worst, seg.min(axis=0), rtol=0, atol=1e-12)
    # the reported lambda attains the worst margin
    at_lam = oracle(X, Y, worst_lam, c.sigma)[0]
    np.testing.assert_allclose(at_lam, worst, rtol=0, atol=1e-12)

    _, fx, fy, px, py, d2 = oracle(X, Y, 0.5, c.sigma)
    r = batch_margins_bc(f, X, Y, c)
    assert r["ok_b"].all() and r["ok_c"].all()
    np.testing.assert_allclose(r["sep"] ** 2, d2, rtol=1e-14)
    for key, want in (("fx", fx), ("fy", fy), ("pairing_x", px),
                      ("pairing_y", py), ("margin", -0.5 * c.sigma * d2 - py)):
        np.testing.assert_allclose(r[key], want, rtol=0, atol=1e-12, err_msg=key)
    # premises, tol on their strict side, away from their boundaries where
    # rounding decides
    slack_b = fy - c.tol - fx
    slack_c = px - (-0.5 * c.sigma * d2 + c.tol)
    clear = np.abs(slack_b) > 1e-9
    assert np.array_equal(r["premise_b"][clear], slack_b[clear] >= 0)
    clear = np.abs(slack_c) > 1e-9
    assert np.array_equal(r["premise_c"][clear], slack_c[clear] > 0)


def test_b_premise_within_tol_is_vacuous():
    # f(x) = 1.25e-10 > f(y) = -7.29e-10 on the monotone cubic: the
    # premise fails, yet f(x) <= f(y) + tol holds, which once made the
    # pair a violation (margin -3.4e-9) on a quasiconvex field
    v = check_b(catalog_field("cubic", 1), [5e-4], [-9e-4], cfg())
    assert v.status == VACUOUS and v.witness.fx > v.witness.fy


def test_scalar_checks_are_batches_of_one(rng):
    # the scalar API returns exactly the kernel's row, bit for bit
    f = make_field_from_expr("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", 2,
                             DomainBox.cube(-1, 1, 2))
    c = cfg(sigma=0.3)
    X = rng.uniform(-1, 1, size=(40, 2))
    Y = rng.uniform(-1, 1, size=(40, 2))
    worst, worst_lam, _ = batch_margin_a_worst(f, X, Y, c)
    r = batch_margins_bc(f, X, Y, c)
    for i in range(len(X)):
        assert margin_a(f, X[i], Y[i], worst_lam[i], c) == worst[i]
        vb, vc = check_b(f, X[i], Y[i], c), check_c(f, X[i], Y[i], c)
        assert vb.witness.pairing_y == r["pairing_y"][i]
        assert vc.witness.pairing_x == r["pairing_x"][i]
        assert (vb.status == VACUOUS) == (not r["premise_b"][i])
        assert (vc.status == VACUOUS) == (not r["premise_c"][i])
        for v in (vb, vc):
            if v.status != VACUOUS:
                assert v.margin == r["margin"][i]


def test_bc_kernel_takes_values_from_its_gradient_passes(rng):
    # one program pass per kernel call: x and y go through one dual pass,
    # stacked as (2, k, n) points, and f(x) and f(y) are its values, equal
    # to the value program's bit for bit; the (b)/(c) search objective
    # makes one pass per call as well
    g = make_field_from_expr("x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)", 2,
                             DomainBox.cube(-1, 1, 2))
    calls, duals = [], []

    def value(X):
        calls.append(len(X))
        return g.program.value(X)

    def dual(X, D):
        duals.append(X.shape)
        return g.program.dual(X, D)

    f = replace(g, program=replace(g.program, value=value, dual=dual))
    X = rng.uniform(-1, 1, size=(1 << 14, 2))
    Y = rng.uniform(-1, 1, size=(1 << 14, 2))
    r = batch_margins_bc(f, X, Y, cfg())
    assert calls == [] and duals == [(2, 1 << 14, 2)]
    assert np.array_equal(r["fx"], g.values(X))
    assert np.array_equal(r["fy"], g.values(Y))
    Z = np.concatenate([X[:115], Y[:115]], axis=1)   # rows of packed x, y
    for target in "bc":
        objective = search._MarginObjective(f, target, cfg())
        duals.clear()
        objective(Z)
        assert calls == [] and duals == [(2, 115, 2)]


def test_segment_margins_chunking_is_invisible(monkeypatch, rng):
    # neither the chunk size nor the number of lanes (which sets the size
    # of the blocks and of a large block's chunks) shows in a bit of the
    # margins, sigma* or the harness's per-pair arrays
    f = catalog_field("sqnorm", 3)
    c = cfg(sigma=0.5)
    X = rng.uniform(-1, 1, size=(250, 3))
    Y = rng.uniform(-1, 1, size=(250, 3))
    pairs = np.stack([X, Y], axis=1)
    lam = rng.uniform(0.01, 0.99, size=(1, 250))   # one lambda per pair
    sampler = Sampler("uniform_box", 3, 600, f.domain)
    monkeypatch.setattr(conditions, "PAIR_BLOCK", 250)   # blocks of many chunks
    runs = []
    for lanes in (1, 2, 3):
        monkeypatch.setattr(conditions, "LANES", lanes)
        # 65 points per chunk is one pair per chunk at the 63-point grid;
        # 65 * 7 puts a chunk edge inside the 250 pairs
        for chunk in (65, 65 * 7, 65 * 249, 1 << 16):
            monkeypatch.setattr(conditions, "SEGMENT_CHUNK", chunk)
            # the margins of a chunk live until the next chunk: copy them
            per_pair = np.concatenate([m[0].copy() for _, m, _ in conditions.segment_margins(
                f, X, Y, lam, c.sigma, c.penalty_norm)])
            harness = implication_harness(f, c, sampler).per_pair
            runs.append([*batch_margin_a_worst(f, X, Y, c),
                         sigma_star_estimate(f, pairs, c), per_pair,
                         *harness.values()])
    for i in range(len(X)):
        assert margin_a(f, X[i], Y[i], lam[0, i], c) == runs[0][4][i]
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_segment_margins_points_are_read_only(rng):
    # the kernel reuses one point buffer for every chunk: a program that
    # wrote into its input would corrupt the chunks after it
    def value(X):
        X[..., 0] = 0.0
        return np.sum(X, axis=-1)

    f = make_field_from_expr("x1 + x2", 2, DomainBox.cube(-1, 1, 2))
    f = replace(f, program=replace(f.program, value=value))
    X = rng.uniform(-1, 1, size=(10, 2))
    Y = rng.uniform(-1, 1, size=(10, 2))
    with pytest.raises(ValueError, match="read-only"):
        batch_margin_a_worst(f, X, Y, cfg())


@pytest.mark.parametrize("lanes", [2, 3])
def test_segment_margins_failure_on_a_helper_reaches_the_caller(
        monkeypatch, helper_blocks, lanes):
    # a field that fails on a helper's block of check or sigma raises in
    # the caller what it raises on the calling thread alone, once no block
    # is left running
    caller = threading.current_thread()
    writers = []

    def writing(everywhere):
        def value(X):
            if everywhere or threading.current_thread() is not caller:
                writers.append(threading.current_thread())
                X[..., 0] = 0.0
            else:   # a helper starts its block before the caller needs it
                time.sleep(0.05)
            return np.sum(X, axis=-1)
        return value

    f = make_field_from_expr("x1 + x2", 2, DomainBox.cube(-1, 1, 2))
    pairs = Sampler("uniform_box", 3, 16, f.domain)
    pairs3 = Sampler("uniform_box", 3, 16, DomainBox.cube(-1, 1, 3))   # wrong dimension
    errors = {}
    for W in (1, lanes):
        monkeypatch.setattr(conditions, "LANES", W)
        monkeypatch.setattr(conditions, "PAIR_BLOCK", 4 * W)   # blocks of 4 pairs
        writer = replace(f, program=replace(f.program, value=writing(W == 1)))
        for name, run in (
                ("check write", lambda: implication_harness(writer, cfg(), pairs)),
                ("sigma write", lambda: sigma_star_estimate(writer, pairs, cfg())),
                ("check dimension", lambda: implication_harness(f, cfg(), pairs3)),
                ("sigma dimension", lambda: sigma_star_estimate(f, pairs3, cfg()))):
            with pytest.raises(ValueError) as err:
                run()
            errors.setdefault(name, []).append(str(err.value))
            assert all(future.done() for _, future in helper_blocks)
    assert writers[0] is caller and writers[-1] is not caller
    assert "read-only" in errors["check write"][0]
    assert "(2, 4, 3)" in errors["check dimension"][0]   # x and y stacked
    assert "(65, 4, 3)" in errors["sigma dimension"][0]
    for messages in errors.values():
        assert messages[0] == messages[1]
    assert helper_blocks


@pytest.mark.parametrize("lanes", [2, 3])
def test_failure_on_the_callers_block_leaves_no_helper_block_running(
        monkeypatch, helper_blocks, lanes):
    caller = threading.current_thread()

    def value(X):
        if threading.current_thread() is caller:
            raise ArithmeticError("the caller's block failed")
        time.sleep(0.05)   # the helpers are still busy when it fails
        return np.sum(X, axis=-1)

    f = make_field_from_expr("x1 + x2", 2, DomainBox.cube(-1, 1, 2))
    f = replace(f, program=replace(f.program, value=value))
    pairs = Sampler("uniform_box", 3, 64, f.domain)
    monkeypatch.setattr(conditions, "LANES", lanes)
    monkeypatch.setattr(conditions, "PAIR_BLOCK", 4 * lanes)

    def second_fails(lo, k):   # the caller's second block, run while it waits
        if threading.current_thread() is not caller:
            time.sleep(0.05)
        elif lo == 0:
            time.sleep(0.01)   # the helpers start their blocks meanwhile
        elif lo % (4 * lanes) == 0:
            raise ArithmeticError("the caller's block failed")

    for run in (lambda: implication_harness(f, cfg(), pairs),
                lambda: sigma_star_estimate(f, pairs, cfg()),
                lambda: list(conditions._in_lanes(second_fails, 64))):
        started = len(helper_blocks)
        with pytest.raises(ArithmeticError, match="the caller's block failed"):
            run()
        assert len(helper_blocks) > started
        assert all(future.done() for _, future in helper_blocks)


@pytest.mark.parametrize("lanes", [2, 3])
def test_segment_margins_early_exit_leaves_no_chunk_running(
        monkeypatch, rng, helper_blocks, lanes):
    # segment_margins runs on the calling thread at any number of lanes,
    # and a consumer that stops early (margin_a's one-chunk unpack, a
    # break, close()) leaves the next stream the same margins
    monkeypatch.setattr(conditions, "LANES", lanes)
    monkeypatch.setattr(conditions, "SEGMENT_CHUNK", 65 * 8 * lanes)   # 8 pairs a chunk
    f = catalog_field("sqnorm", 3)
    c = cfg(sigma=0.5)
    X = rng.uniform(-1, 1, size=(100, 3))
    Y = rng.uniform(-1, 1, size=(100, 3))
    lams = np.asarray(c.lambda_grid)[:, None]

    def stream():
        return conditions.segment_margins(f, X, Y, lams, c.sigma, c.penalty_norm)

    full = [m.copy() for _, m, _ in stream()]
    assert len(full) == 13
    margin_a(f, X[0], Y[0], 0.5, c)
    for _, m, _ in stream():
        first = m.copy()
        break
    assert np.array_equal(first, full[0])
    chunks = stream()
    next(chunks)
    next(chunks)
    chunks.close()
    again = [m.copy() for _, m, _ in stream()]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, full))
    assert helper_blocks == []


@pytest.mark.parametrize("lanes", [2, 3])
def test_lanes_run_block_i_in_lane_i_mod_lanes(monkeypatch, lanes):
    # (the name predates the shared queue; it now pins the queue's contract)
    # blocks come back in order; at most LANES + 1 are in flight (queued,
    # running, or done and not yet consumed) and at most LANES run at
    # once; while a slowed helper runs the first block, the calling thread
    # runs the blocks queued behind it; a stream closed early leaves no
    # block running; at one lane nothing is queued
    caller = threading.current_thread()
    lock = threading.Lock()
    helper_started = threading.Event()
    submitted, running, most, finished = [], [0], [0], []
    helpers = conditions._helpers

    class FirstBlockOnAHelper:
        def submit(self, fn, *block):
            submitted.append(helpers().submit(fn, *block))
            if block[0] == 0:   # a helper takes it before the caller can
                assert helper_started.wait(10)
            return submitted[-1]

    def work(lo, k):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        if threading.current_thread() is not caller:
            helper_started.set()
        time.sleep(0.3 if lo == 0 and threading.current_thread() is not caller
                   else 0.002)
        with lock:
            running[0] -= 1
            finished.append((lo, threading.current_thread() is caller))
        return lo, k

    monkeypatch.setattr(conditions, "_helpers", FirstBlockOnAHelper)
    blocks = [(lo, min(3, 20 - lo)) for lo in range(0, 20, 3)]
    monkeypatch.setattr(conditions, "LANES", 1)
    monkeypatch.setattr(conditions, "PAIR_BLOCK", 3)   # blocks of 3 pairs
    assert list(conditions._in_lanes(work, 20)) == blocks
    assert submitted == [] and all(on_caller for _, on_caller in finished)
    finished.clear()
    monkeypatch.setattr(conditions, "LANES", lanes)
    monkeypatch.setattr(conditions, "PAIR_BLOCK", 3 * lanes)
    for i, block in enumerate(conditions._in_lanes(work, 20)):
        assert block == blocks[i]
        assert len(submitted) - i <= lanes + 1
    assert len(submitted) == len(blocks) and most[0] <= lanes
    # the blocks queued behind the slowed first block ran, some of them on
    # the calling thread, before it finished
    first = [lo for lo, _ in finished].index(0)
    assert {lo for lo, _ in finished[:first]} >= {lo for lo, _ in blocks[1:lanes + 1]}
    assert any(on_caller for _, on_caller in finished[:first])
    stream = conditions._in_lanes(work, 20)
    next(stream)
    stream.close()
    assert all(future.done() for future in submitted) and running == [0]


def test_lanes_run_blocks_no_helper_has_started(monkeypatch):
    # a helper that never wakes costs nothing: the calling thread runs
    # every block itself
    from concurrent.futures import Future

    class Asleep:
        def submit(self, fn, *block):
            return Future()   # never started

    monkeypatch.setattr(conditions, "_helpers", Asleep)
    monkeypatch.setattr(conditions, "LANES", 2)
    monkeypatch.setattr(conditions, "PAIR_BLOCK", 4)
    caller = threading.current_thread()
    out = list(conditions._in_lanes(lambda lo, k: (lo, k, threading.current_thread()), 9))
    assert out == [(0, 2, caller), (2, 2, caller), (4, 2, caller), (6, 2, caller),
                   (8, 1, caller)]


def test_lane_count_honours_the_cpu_quota(monkeypatch):
    # min(2, the CPUs of the affinity mask, the cgroup v2 quota rounded up);
    # a quota of "max" and a missing, unreadable or malformed file limit
    # nothing
    assert isinstance(conditions._cpu_max(), str)
    for cpus, quota, lanes in ((4, "max 100000\n", 2), (4, "50000 100000\n", 1),
                               (4, "150000 100000\n", 2), (4, "400000 100000\n", 2),
                               (4, "", 2), (4, "x 100000", 2), (4, "100000 0", 2),
                               (1, "max 100000\n", 1), (1, "150000 100000\n", 1)):
        monkeypatch.setattr(conditions.os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        monkeypatch.setattr(conditions, "_cpu_max", lambda quota=quota: quota)
        monkeypatch.setattr(conditions, "LANES", None)   # not yet counted
        assert conditions._lanes() == lanes, (cpus, quota)


def test_statuses_is_the_one_status_rule():
    # skipped where not ok, else vacuous where the premise fails, else
    # violated or holds by is_violated; codes index STATUSES, the order of
    # the reports' counts
    assert conditions.STATUSES == (HOLDS, VIOLATED, VACUOUS, SKIPPED)
    m = np.array([0.5, -1.0, -1.0, -1.0, np.nan, -1e-9, -np.inf])
    premise = np.array([True, True, False, False, True, True, True])
    ok = np.array([True, True, True, False, False, True, True])
    s = conditions.statuses(m, premise, ok, 1e-9)
    assert s.dtype == np.int8
    assert [conditions.STATUSES[k] for k in s] == [
        HOLDS, VIOLATED, VACUOUS, SKIPPED, SKIPPED, HOLDS, VIOLATED]
    # a condition without a premise, such as (a)
    assert conditions.statuses(m[:2], True, True, 1e-9).tolist() == [0, 1]


def test_is_violated_is_the_one_rule():
    m = np.array([-1.0, -1e-9, -2e-9, 0.0, np.nan, -np.inf, np.inf])
    assert is_violated(m, 1e-9).tolist() == [True, False, True, False,
                                             False, True, False]
    assert bool(is_violated(-0.5, 0.1)) and not bool(is_violated(-0.05, 0.1))


# ---------------------------------------------------------------------------
# scalar lemma


def lemma_field(source, lo, hi):
    return make_field_from_expr(source, 1, DomainBox.cube(lo, hi, 1))


def test_lemma_parabola_holds():
    phi = lemma_field("(x1-1)^2", 0.0, 2.0)
    grid = np.linspace(0, 2, 65)[1:-1]
    v = check_lemma(phi, grid)
    assert v.status == HOLDS


def test_lemma_increasing_vacuous():
    phi = lemma_field("x1", 0.0, 1.0)
    v = check_lemma(phi, np.linspace(0, 1, 65)[1:-1])
    assert v.status == VACUOUS
    assert v.witness is not None


def test_lemma_decreasing_holds():
    phi = lemma_field("0 - x1", 0.0, 1.0)
    v = check_lemma(phi, np.linspace(0, 1, 65)[1:-1])
    assert v.status == HOLDS
    assert v.margin == pytest.approx(1.0)


def test_lemma_grid_validation():
    phi = lemma_field("x1", 0.0, 1.0)
    with pytest.raises(ValueError):
        check_lemma(phi, [])
    with pytest.raises(ValueError):
        check_lemma(phi, [0.0, 0.5])


def test_lemma_refined_matches_plain():
    phi = lemma_field("(x1-1)^2", 0.0, 2.0)
    assert check_lemma_refined(phi).status == HOLDS
