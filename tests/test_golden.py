"""Golden seeded reports: the sha256 of each JSON report (timestamp removed)
is pinned, so any change to values, gradients, flags or search trajectories
of the expression evaluator or of the kernels that evaluate its programs
shows up as a changed hash.

The hashes were recorded with numpy 2.4 on x86-64. A report that moves on
purpose gets its new hash here together with a note in CHANGES.md saying
which bits moved and why.
"""

import hashlib
import json

import pytest

from quasicheck import conditions
from quasicheck.cli import main

EXPR = "x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)"
POW_ABS = "(x1+2)^x2 + abs(x1 - x2)"

GOLDEN = {
    "check_expr": (
        ["check", "--expr", EXPR, "--dim", "2", "--box=-1:1",
         "--sigma", "0.25", "--pairs", "10000", "--seed", "7"],
        "e778d81500cf61dac6e233d6c62c68296b7585157146cd08086086e6a35db230",
    ),
    "falsify_c_expr": (
        ["falsify", "--expr", EXPR, "--dim", "2", "--box=-1:1",
         "--target", "c", "--budget", "2000", "--seed", "7"],
        "42606f233ce9d86963757a1d9ad0d57bde7f34f4c74b54b7d95bf881f4e09d94",
    ),
    "falsify_a_pow_abs": (
        ["falsify", "--expr", POW_ABS, "--dim", "2", "--box=-1:1",
         "--target", "a", "--budget", "2000", "--seed", "7"],
        "ee445ee497ea4c82f1d1206a8cf080db8f9a6e3a55164f89010e6f5018454cf6",
    ),
    "check_pow_abs": (
        ["check", "--expr", POW_ABS, "--dim", "2", "--box=-1:1",
         "--pairs", "2000", "--seed", "7"],
        "e8c597a1ba41dc9342cc301905d5ce2407574176f6e8bdf763521154a9d124cd",
    ),
    "sigma_sqnorm_5d": (
        ["sigma", "--fn", "sqnorm", "--dim", "5", "--pairs", "10000", "--seed", "7"],
        "e829da3d80e13f2a80237473f5bcdb85ed02925f2275138979bbd6eba5880e47",
    ),
    "check_sqrtnorm_3d": (
        ["check", "--fn", "sqrtnorm", "--dim", "3", "--sigma", "0.1",
         "--pairs", "5000", "--seed", "7"],
        "7444f5702d8ac12f9b98d03c3b7d66000c9b998e439d11f72fae7cdb7c68e970",
    ),
    # n >= 8: ||x-y|| is summed over the coordinate planes in order, where
    # np.sum over a row would sum pairwise (see CHANGES.md for the bits)
    "check_sqrtnorm_10d": (
        ["check", "--fn", "sqrtnorm", "--dim", "10", "--sigma", "0.1",
         "--pairs", "3000", "--seed", "7"],
        "b063d45f7c81c045d18ff52d8502d05e0727e32be6e692cc3cd5cc5dfc77d130",
    ),
    "falsify_c_sqnorm_10d": (
        ["falsify", "--fn", "sqnorm", "--dim", "10", "--target", "c",
         "--budget", "2000", "--seed", "7"],
        "ec680423431f7153eeedb7319afd99a83cefa183038173845d28aef29fecd7e5",
    ),
    "family_param_cubic": (
        ["falsify", "--family", "param_cubic", "--budget", "20000",
         "--param-samples", "16", "--seed", "5"],
        "d53ac128194e80830547272f0bba81457b8e1ebbac636fd53ea5a0a851c07e16",
    ),
}


def report_sha256(argv, tmp_path) -> str:
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    report.pop("timestamp")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert report_sha256(argv, tmp_path) == expected


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_at_every_lane_count(name, lanes, tmp_path, monkeypatch):
    # the lanes that compute the (a) and sigma* chunks leave no trace
    monkeypatch.setattr(conditions, "LANES", lanes)
    argv, expected = GOLDEN[name]
    assert report_sha256(argv, tmp_path) == expected
