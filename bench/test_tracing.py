"""Tests for the benchmark's tracer: self-time arithmetic, restore, and the
open-question funnel. Run with `python3 -m pytest bench`."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import quasicheck  # noqa: E402
from quasicheck import cli, conditions, field, search, vecmath  # noqa: E402
from tracing import MODULES, Tracer, family_funnel, layer_metrics  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_call_tree():
    clk = FakeClock()
    tr = Tracer(clock=clk)

    def work(dt):
        clk.now += dt

    c = tr.wrap(lambda dt: work(dt), "m.c")

    def b_body():
        work(2.0)
        c(3.0)

    b = tr.wrap(b_body, "m.b")

    def a_body():
        work(1.0)
        b()
        work(4.0)
        c(5.0)

    a = tr.wrap(a_body, "m.a")
    tr.begin_op(7)
    a()

    assert tr.stats["m.a"].total_s == 15.0
    assert tr.stats["m.a"].self_s == 5.0        # 15 - (5 + 5)
    assert tr.stats["m.b"].self_s == 2.0        # 5 - 3
    assert tr.stats["m.c"].calls == 2
    assert tr.stats["m.c"].self_s == 8.0
    # every span belongs to op 7; parents follow the call tree
    assert {s[0] for s in tr.spans} == {7}
    name_of = {s[1]: s[3] for s in tr.spans}
    edges = sorted((s[3], name_of.get(s[2], "")) for s in tr.spans)
    assert edges == [("m.a", ""), ("m.b", "m.a"), ("m.c", "m.a"), ("m.c", "m.b")]
    # self time equals duration minus the union of child intervals
    for op, sid, parent, name, start, end, own in tr.spans:
        kids = [(s[4], s[5]) for s in tr.spans if s[2] == sid]
        assert own == (end - start) - sum(e - s for s, e in kids)


def test_exception_in_child_is_still_charged():
    clk = FakeClock()
    tr = Tracer(clock=clk)

    def boom():
        clk.now += 2.0
        raise ValueError("below min_sep")

    child = tr.wrap(boom, "m.child")

    def parent_body():
        clk.now += 1.0
        try:
            child()
        except ValueError:
            pass

    tr.wrap(parent_body, "m.parent")()
    assert tr.stats["m.child"].calls == 1
    assert tr.stats["m.child"].self_s == 2.0
    assert tr.stats["m.parent"].self_s == 1.0


def _bindings():
    mods = [quasicheck] + [sys.modules[f"quasicheck.{m}"]
                           for m in MODULES + ("families",)]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("ScalarField", k): v
                for k, v in vars(field.ScalarField).items()})
    return out


def test_instrument_wraps_from_imports_and_restore_puts_back():
    before = _bindings()
    tr = Tracer()
    with tr:
        assert conditions.as_vec is not before[("quasicheck.vecmath", "as_vec")]
        assert conditions.as_vec is vecmath.as_vec   # one wrapper per function
        assert search.falsify.__wrapped__ is before[("quasicheck.search", "falsify")]
        f = field.catalog_field("sqnorm", 2)
        cfg = conditions.CheckConfig()
        conditions.margin_a(f, [0.1, 0.2], [0.5, -0.3], 0.5, cfg)
    assert tr.stats["conditions.margin_a"].calls == 1
    assert tr.stats["vecmath.as_vec"].calls >= 2    # bound by `from .vecmath`
    assert tr.stats["field.values"].calls == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_reports_agree(tmp_path):
    argv = ["check", "--fn", "sqnorm", "--dim", "2", "--pairs", "500",
            "--seed", "3", "--out"]
    reports = []
    for traced in (False, True):
        out = tmp_path / f"{traced}.json"
        tr = Tracer()
        if traced:
            tr.instrument()
        try:
            assert cli.main(argv + [str(out)]) == 0
        finally:
            tr.restore()
        text = out.read_text()
        reports.append("\n".join(line for line in text.splitlines()
                                 if '"timestamp"' not in line))
    assert reports[0] == reports[1]
    assert tr.stats["search.sample_pairs"].extra["rows"] == 500
    assert layer_metrics(tr, 1)["search.sample_pairs.rows"] == 500


def _res(evals, best, found):
    return SimpleNamespace(evaluations=evals, best_margin=best,
                           violation_found=found)


def test_family_funnel_from_falsify_sequence():
    tol = 1e-9
    log = [
        ("c", tol, _res(10, -1.0, True)),          # theta 0: fails (c)
        ("c", tol, _res(10, 0.5, False)),          # theta 1: (c) clean,
        ("a", tol, _res(20, 0.1, False)),          #   no (a) violation
        ("c", tol, _res(10, 0.5, False)),          # theta 2: (c) clean,
        ("a", tol, _res(20, -1e-3, True)),         #   (a) found,
        ("c", tol, _res(100, -1.0, True)),         #   re-verify fails
        ("c", tol, _res(10, 0.5, False)),          # theta 3: candidate
        ("a", tol, _res(20, -1e-3, True)),
        ("c", tol, _res(100, 0.2, False)),
    ]
    f = family_funnel(log, candidates=1)
    assert f == {"thetas": 4, "c_rejected": 1, "a_found": 2,
                 "reverify_failed": 1, "candidates": 1, "evals": 300}


def test_family_funnel_rejects_unexpected_sequence():
    with pytest.raises(ValueError, match="expected"):
        family_funnel([("a", 1e-9, _res(1, 0.0, False))], candidates=0)
