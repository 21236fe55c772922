"""Golden seeded reports: the sha256 of each JSON report (timestamp removed)
is pinned, so any change to values, gradients, flags or search trajectories
of the expression evaluator, of the catalog closures or of the kernels that
evaluate them shows up as a changed hash.

The hashes were recorded with numpy 2.4 on x86-64. A report that moves on
purpose gets its new hash here together with a note in CHANGES.md saying
which bits moved and why.
"""

import hashlib
import json

import pytest

from quasicheck.cli import main

EXPR = "x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)"
POW_ABS = "(x1+2)^x2 + abs(x1 - x2)"

GOLDEN = {
    "check_expr": (
        ["check", "--expr", EXPR, "--dim", "2", "--box=-1:1",
         "--sigma", "0.25", "--pairs", "10000", "--seed", "7"],
        "9c53196508346955bbe7d7e4a0e823041eadd371cdddd35f017880b935bad3c0",
    ),
    "falsify_c_expr": (
        ["falsify", "--expr", EXPR, "--dim", "2", "--box=-1:1",
         "--target", "c", "--budget", "2000", "--seed", "7"],
        "4b7e4342a74b852f8dfb5979b8d6977f3c687073467c6ee3cc92a0fb37803769",
    ),
    "falsify_a_pow_abs": (
        ["falsify", "--expr", POW_ABS, "--dim", "2", "--box=-1:1",
         "--target", "a", "--budget", "2000", "--seed", "7"],
        "5c8f9c8ef9579a755102c130afeb5357f97de572b2207035a86d1c06f33448c8",
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
        "4e1495c15628c92230ff0ef9446b794a67b15e52178f842f72bfe503b350ae4c",
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
