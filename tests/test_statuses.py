"""One status rule for every condition row: the harness's counts, its
per-pair records, the `check --csv` rows and `check_b`/`check_c` agree on
which pairs each condition counts, on fields with kinks (abs, min, max)
and domain edges (sqrt, log, division), where a condition that does not
read a failed evaluation must not skip the pair."""

import csv
import json
import os
import tempfile

import numpy as np
from conftest import harness_with_record
from hypothesis import example, given, settings, strategies as st

from quasicheck import conditions as cond
from quasicheck.cli import main
from quasicheck.conditions import CheckConfig, check_b, check_c
from quasicheck.field import DomainBox, make_field_from_expr
from quasicheck.search import Sampler, sample_pairs

# terms of a field in x1 (and x2), each with a kink or a domain edge at a
# dyadic constant c, where segment_grid points land
TERMS = {
    1: ["abs(x1 + {c})", "max(x1, {c})", "min(x1, {c} - x1)", "sqrt(x1 + {c})",
        "log(x1 - {c})", "1/(x1 - {c})", "x1^2"],
    2: ["abs(x1 - x2)", "max(x1 + {c}, x2)", "min(x2, {c})", "sqrt(x1 + x2 + {c})",
        "log(x2 - {c})", "x1/(x2 - {c})", "abs(x2 + {c})", "x1^2 + x2^2"],
}
DYADIC = [-0.5, -0.25, 0.0, 0.25, 0.5, 0.75]


@st.composite
def cases(draw):
    n = draw(st.sampled_from([1, 2]))
    terms = draw(st.lists(st.sampled_from(TERMS[n]), min_size=1, max_size=2))
    expr = " + ".join(t.format(c=draw(st.sampled_from(DYADIC))) for t in terms)
    # count + 1 a power of two puts the pairs' points on dyadic grid points
    count = 2 ** draw(st.integers(1, 6)) - 1
    return expr, n, count, draw(st.sampled_from([0.0, 0.25]))


@settings(max_examples=80, deadline=None)
@given(cases())
@example(("abs(x1 + 0.5)", 1, 1, 0.0))   # (b) holds where (c) is skipped
@example(("abs(x1 - x2) + log(x2 - 0.5)", 2, 7, 0.25))
def test_check_counts_csv_and_pair_checks_agree(case):
    expr, n, count, sigma = case
    box = DomainBox.cube(-1.0, 1.0, n)
    f = make_field_from_expr(expr, n, box)
    cfg = CheckConfig(sigma=sigma)
    sampler = Sampler("segment_grid", 0, count, box)
    rep, p = harness_with_record(f, cfg, sampler)
    # the JSON counts tally the per-pair statuses
    for name in "abc":
        tally = np.bincount(p[f"{name}_status"], minlength=4).tolist()
        assert rep.counts[name] == dict(zip(cond.STATUSES, tally)), name
    # skipped counts each pair that any condition skipped once
    codes = np.stack([p[f"{name}_status"] for name in "abc"])
    assert rep.skipped == np.count_nonzero((codes == cond.STATUSES.index(cond.SKIPPED)).any(axis=0))
    # each (b)/(c) status and margin is check_b's/check_c's on that pair
    P = sample_pairs(sampler)
    for j, i in enumerate(p["index"]):
        for name, check in (("b", check_b), ("c", check_c)):
            v = check(f, P[i, 0], P[i, 1], cfg)
            s = cond.STATUSES[p[f"{name}_status"][j]]
            assert s == v.status, (name, P[i], s, v)
            if s in (cond.HOLDS, cond.VIOLATED):
                assert v.margin == p["bc_margin"][j]
    # the CLI's JSON counts and --csv rows are the harness's
    with tempfile.TemporaryDirectory() as tmp:
        out, rows = os.path.join(tmp, "report.json"), os.path.join(tmp, "rows.csv")
        main(["check", "--expr", expr, "--dim", str(n), "--box=-1:1",
              "--strategy", "segment_grid", "--pairs", str(count), "--sigma", str(sigma),
              "--seed", "0", "--out", out, "--csv", rows])
        with open(out) as fh:
            assert json.load(fh)["payload"]["counts"] == rep.counts
        with open(rows, newline="") as fh:
            got = list(csv.reader(fh))
    assert got[0] == ["pair_index", "condition", "margin", "status"]
    want = []
    for j, i in enumerate(p["index"].tolist()):
        for name in "abc":
            s = cond.STATUSES[p[f"{name}_status"][j]]
            margin = p["a_margin" if name == "a" else "bc_margin"][j]
            active = s in (cond.HOLDS, cond.VIOLATED)
            want.append([str(i), name, repr(float(margin)) if active else "", s])
    assert got[1:] == want

