"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; without -s they show up in captured output on failure.
"""

import json
import math
import time

import numpy as np
from conftest import random_ast, random_smooth_expr

from quasicheck import conditions
from quasicheck import expr as ex
from quasicheck.cli import main
from quasicheck.conditions import (CheckConfig, check_lemma_refined, margin_a,
                                   sigma_star_estimate)
from quasicheck.families import shipped_families
from quasicheck.field import (DomainBox, catalog, catalog_field,
                              make_field_from_expr, validate_grad)
from quasicheck.search import (Sampler, SearchBudget, falsify,
                               implication_harness, open_question_search,
                               sample_pairs)

SEED = 20260825


def report(num, label, ok, detail=""):
    line = f"acceptance {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_sigma_star_recovery():
    # sigma* of ||x||^2 on [-1,1]^n is 2 for n in {1, 2, 5}
    details = []
    ok = True
    for n in (1, 2, 5):
        f = catalog_field("sqnorm", n)
        t0 = time.perf_counter()
        est = sigma_star_estimate(
            f, Sampler("uniform_box", SEED, 10_000, f.domain), CheckConfig())
        dt = time.perf_counter() - t0
        details.append(f"n={n}: {est:.6f} in {dt:.1f}s")
        ok &= abs(est - 2.0) <= 1e-3 and dt < 10.0
    report(1, "sigma* recovery on sqnorm", ok, "; ".join(details))


def test_criterion_02_degenerate_sigma_star():
    cfg = CheckConfig()
    const = catalog_field("const", 2)
    est_const = sigma_star_estimate(
        const, Sampler("uniform_box", SEED, 10_000, const.domain), cfg)

    # the affine infimum 0 is approached along level-set directions of
    # <c, x> with c = (1, 2); uniform pairs alone cannot reach it
    aff = catalog_field("affine", 2)
    rng = np.random.default_rng(SEED)
    base = rng.uniform(-0.5, 0.5, size=(200, 2))
    level_dir = np.array([2.0, -1.0]) / np.sqrt(5.0)
    level_pairs = np.stack([base + 0.4 * level_dir,
                            base - 0.4 * level_dir], axis=1)
    uniform = sample_pairs(Sampler("uniform_box", SEED, 10_000, aff.domain))
    est_aff = sigma_star_estimate(aff, np.vstack([uniform, level_pairs]), cfg)

    ok = abs(est_const) <= 1e-12 and -1e-9 <= est_aff <= 1e-9
    report(2, "degenerate sigma*", ok,
           f"const: {est_const:.2e}, affine: {est_aff:.2e}")


def test_criterion_03_theorem_soundness_sweep():
    t0 = time.perf_counter()
    details = []
    ok = True
    for f in catalog(2):
        if f.known_status not in ("quasiconvex", "sigma_quasiconvex"):
            continue
        cfg = CheckConfig(sigma=f.known_sigma, tol=1e-8)
        rep = implication_harness(
            f, cfg, Sampler("uniform_box", SEED, 100_000, f.domain))
        details.append(f"{f.name}: {rep.total_violations}")
        ok &= rep.total_violations == 0
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(3, "soundness sweep at known sigma", ok,
           f"violations {'; '.join(details)}; {dt:.1f}s total")


def test_criterion_04_falsification_power():
    res_a = falsify(catalog_field("sin", 1), "a", CheckConfig(),
                    SearchBudget(max_evals=10_000), seed=3)
    res_b = falsify(catalog_field("cubic_minus_x", 1), "b", CheckConfig(),
                    SearchBudget(max_evals=10_000), seed=3)
    ok = (res_a.best_margin <= -0.9 and res_a.violation_found
          and res_b.best_margin <= -0.5 and res_b.violation_found)
    report(4, "falsification power", ok,
           f"sin (a): {res_a.best_margin:.3f}, "
           f"cubic_minus_x (b): {res_b.best_margin:.3f}")


def _b_violated_exact(f, x, y, sigma):
    # condition (b) with the premise at tolerance 0
    fx, fy = f.value(x), f.value(y)
    d2 = float(np.sum((np.asarray(x) - np.asarray(y)) ** 2))
    margin = -0.5 * sigma * d2 - float(np.dot(f.grad(y),
                                              np.asarray(x) - np.asarray(y)))
    return fx <= fy and margin < 0


def test_criterion_05_contrapositive():
    # every condition-(c) violation must come with a condition-(b)
    # violation on the same or swapped pair
    from quasicheck.conditions import VIOLATED, check_c
    cfg = CheckConfig()
    found = 0
    exceptions = 0
    for name in ("sin", "cubic_minus_x"):
        f = catalog_field(name, 1)
        # adversarial witnesses from falsification runs
        for seed in range(5):
            res = falsify(f, "c", cfg, SearchBudget(max_evals=3000), seed=seed)
            if not res.violation_found:
                continue
            found += 1
            x, y = res.witness.x, res.witness.y
            if not (_b_violated_exact(f, x, y, cfg.sigma)
                    or _b_violated_exact(f, y, x, cfg.sigma)):
                exceptions += 1
        # sampled violations for volume
        for x, y in sample_pairs(Sampler("uniform_box", SEED, 3000, f.domain)):
            v = check_c(f, x, y, cfg)
            if v.status != VIOLATED:
                continue
            found += 1
            if not (_b_violated_exact(f, x, y, cfg.sigma)
                    or _b_violated_exact(f, y, x, cfg.sigma)):
                exceptions += 1
    ok = found > 0 and exceptions == 0
    report(5, "(c) violations imply (b) violations", ok,
           f"{found} (c)-violations, {exceptions} exceptions")


def test_criterion_06_gradient_validation():
    worst = 0.0
    ok = True
    for n in (1, 2, 5):
        for f in catalog(n):
            rep = validate_grad(f, seed=SEED, count=100)
            worst = max(worst, rep.max_abs_deviation)
            ok &= rep.passed(1e-6)
    rng = np.random.default_rng(SEED)
    box = DomainBox.cube(-1.0, 1.0, 2)
    for _ in range(20):
        e = random_smooth_expr(rng, 2)
        f = make_field_from_expr(e, 2, box)
        rep = validate_grad(f, seed=SEED, count=100)
        worst = max(worst, rep.max_abs_deviation)
        ok &= rep.passed(1e-6)
    report(6, "gradient validation", ok, f"worst deviation {worst:.2e}")


def test_criterion_07_lemma_checker():
    def phi(source, lo, hi):
        e = ex.parse(source, 1)
        return make_field_from_expr(e, 1, DomainBox.cube(lo, hi, 1))

    v1 = check_lemma_refined(phi("(x1 - 1)^2", 0, 2))
    v2 = check_lemma_refined(phi("x1", 0, 1))
    v3 = check_lemma_refined(phi("0 - x1", 0, 1))
    trio_ok = (v1.status, v2.status, v3.status) == ("holds", "vacuous", "holds")

    # mutation detectability: flipping the margin sign (fb - fa instead of
    # fa - fb) must flip the decreasing case from holds to violated
    tol = 1e-9
    fa, fb = v3.witness.fx, v3.witness.fy
    mutated = fb - fa
    mutation_ok = (v3.margin >= -tol) and (mutated < -tol)

    ok = trio_ok and mutation_ok
    report(7, "scalar lemma checker", ok,
           f"verdicts {v1.status}/{v2.status}/{v3.status}, "
           f"mutated margin {mutated:+.1f} flips to violated: {mutation_ok}")


def test_criterion_08_determinism_across_chunkings(tmp_path, monkeypatch):
    # the same seed gives the same report however the (a) kernel chunks
    # the pairs; 20000 pairs straddle a chunk edge at every size below
    reports = []
    for chunk in (65 * 3, 65 * 999, 1 << 16):
        monkeypatch.setattr(conditions, "SEGMENT_CHUNK", chunk)
        out = tmp_path / f"c{chunk}.json"
        code = main(["check", "--fn", "sqnorm", "--dim", "2", "--sigma", "2",
                     "--pairs", "20000", "--seed", "17", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        rep.pop("timestamp")
        reports.append(json.dumps(rep, sort_keys=True))
    ok = all(r == reports[0] for r in reports)
    report(8, "determinism across chunk sizes", ok,
           f"{len(reports[0])} payload bytes identical")


def test_criterion_09_parser_corpus(rng):
    import test_expr as tx

    total = len(tx.VALID_CORPUS) + len(tx.MALFORMED_CORPUS)
    ok = total >= 40
    for source, dim, expected in tx.VALID_CORPUS:
        ok &= ex.parse(source, dim) == expected
    for source, dim, pos in tx.MALFORMED_CORPUS:
        try:
            ex.parse(source, dim)
            ok = False
        except ex.ParseError as err:
            ok &= err.pos == pos
    trips = 0
    for _ in range(1000):
        e = random_ast(rng, 3)
        if ex.parse(ex.pretty_print(e), 3) == e:
            trips += 1
    ok &= trips == 1000
    report(9, "parser corpus and round trips", ok,
           f"{total} corpus entries, {trips}/1000 round trips")


def test_criterion_10_open_question_campaign():
    # total nominal budget 3 x 100k evaluations, inside the 1e6 cap
    all_ok = True
    survivors = []
    for fam in shipped_families():
        cands = open_question_search(
            fam, CheckConfig(), SearchBudget(max_evals=100_000),
            seed=SEED, param_samples=12)
        for c in cands:
            all_ok &= c.reverified
            # the reported (a)-witness must reproduce its margin
            f = fam.build(c.params)
            m = margin_a(f, c.a_witness.x, c.a_witness.y, c.a_witness.lam,
                         CheckConfig())
            all_ok &= math.isfinite(m) and m <= -10.0 * 1e-9
        survivors.append(f"{fam.name}: {len(cands)}")
    # surviving candidates are research artifacts, not failures
    report(10, "open-question campaign", all_ok,
           "candidates " + "; ".join(survivors))
