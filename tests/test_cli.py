import csv
import json
import sys
import warnings

import numpy as np
import pytest

from quasicheck.cli import (EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, UsageError,
                            build_parser, main, parse_box)


def run(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_parse_box():
    box = parse_box("0:1", 3)
    assert np.all(box.lower == 0) and np.all(box.upper == 1)
    box = parse_box("-1:1,0:2", 2)
    assert box.lower.tolist() == [-1, 0]
    with pytest.raises(UsageError):
        parse_box("0:1,0:1", 3)
    with pytest.raises(UsageError):
        parse_box("junk", 1)
    with pytest.raises(UsageError):
        parse_box("1:0", 1)


def test_check_catalog_quasiconvex_exits_zero(tmp_path):
    code, rep = run(["check", "--fn", "sqnorm", "--dim", "2", "--sigma", "2",
                     "--pairs", "3000", "--seed", "7"], tmp_path)
    assert code == EXIT_OK
    assert rep["schema"] == 1
    assert rep["payload"]["total_violations"] == 0


def test_check_sin_expression_exits_one(tmp_path):
    code, rep = run(["check", "--expr", "sin(x1)", "--dim", "1",
                     "--box", "0:6.2832", "--sigma", "0", "--pairs", "500"],
                    tmp_path)
    assert code == EXIT_VIOLATIONS
    assert rep["payload"]["total_violations"] > 0
    assert rep["payload"]["worst"]["a"]["witness"]["x"]


def test_exit_code_contract_full_catalog(tmp_path):
    for name, sigma, expected in [
        ("const", 0.0, EXIT_OK),
        ("affine", 0.0, EXIT_OK),
        ("sqnorm", 2.0, EXIT_OK),
        ("cubic", 0.0, EXIT_OK),
        ("sin", 0.0, EXIT_VIOLATIONS),
        ("cubic_minus_x", 0.0, EXIT_VIOLATIONS),
    ]:
        code, _ = run(["check", "--fn", name, "--sigma", str(sigma),
                       "--pairs", "2000", "--seed", "7"], tmp_path)
        assert code == expected, name


def test_sigma_command(tmp_path):
    code, rep = run(["sigma", "--fn", "sqnorm", "--dim", "1",
                     "--pairs", "10000", "--seed", "7"], tmp_path)
    assert code == EXIT_OK
    assert rep["payload"]["sigma_star"] == pytest.approx(2.0, abs=1e-3)


def test_falsify_command(tmp_path):
    code, rep = run(["falsify", "--fn", "sin", "--dim", "1", "--target", "a",
                     "--budget", "5000", "--seed", "3"], tmp_path)
    assert code == EXIT_VIOLATIONS
    assert rep["payload"]["best_margin"] <= -0.9


def test_gradcheck_command(tmp_path):
    code, rep = run(["gradcheck", "--expr", "x1^2 + sin(x2)", "--dim", "2",
                     "--box=-1:1", "--points", "50"], tmp_path)
    assert code == EXIT_OK
    assert rep["payload"]["passed"]
    assert rep["payload"]["max_abs_deviation"] <= 1e-6


def test_gradcheck_passes_the_exact_gradient_of_a_large_field(tmp_path):
    # slope exactly 900: the central difference is off by about 1.5e-6, over
    # --tol in absolute terms but about 1.7e-9 of the slope
    code, rep = run(["gradcheck", "--expr=" + " + ".join(["x1"] * 900), "--dim", "1",
                     "--box=-1:1"], tmp_path)
    assert code == EXIT_OK
    payload = rep["payload"]
    assert payload["passed"] and payload["max_rel_deviation"] <= 1e-8
    assert payload["max_abs_deviation"] > 1e-6


def test_lemma_command(tmp_path):
    code, rep = run(["lemma", "--expr", "(x1-1)^2", "--dim", "1",
                     "--box", "0:2"], tmp_path)
    assert code == EXIT_OK
    assert rep["payload"]["status"] == "holds"


def _reject(token):
    raise ValueError(f"{token} is not a JSON value")


@pytest.mark.parametrize("argv, key", [
    # (c) is vacuous everywhere on a constant field, so no row has a margin
    (["falsify", "--fn", "const", "--budget", "300", "--target", "c"], "best_margin"),
    (["lemma", "--fn", "cubic_minus_x"], "margin"),
])
def test_reports_are_strict_json(tmp_path, argv, key):
    # a margin that is not a number is written as null, never as NaN
    out = tmp_path / "report.json"
    main(argv + ["--out", str(out)])
    rep = json.loads(out.read_text(), parse_constant=_reject)
    assert rep["payload"][key] is None


def test_overflowing_margin_is_written_as_null(tmp_path):
    # the (a) margin of this field overflows to -inf: the report writes it
    # as null and keeps its counts
    code, rep = run(["check", "--expr", "1.7e308*sin(x1)", "--dim", "1", "--box=-2:5",
                     "--pairs", "2000", "--seed", "1"], tmp_path)
    rep = json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject)
    assert code == EXIT_VIOLATIONS and rep["payload"]["worst"]["a"]["margin"] is None
    assert rep["payload"]["counts"] == {
        "a": {"holds": 1031, "violated": 969, "vacuous": 0, "skipped": 0},
        "b": {"holds": 371, "violated": 147, "vacuous": 583, "skipped": 899},
        "c": {"holds": 252, "violated": 93, "vacuous": 369, "skipped": 1286}}


def test_catalog_command(tmp_path):
    code, rep = run(["catalog"], tmp_path)
    assert code == EXIT_OK
    names = [f["name"] for f in rep["payload"]["fields"]]
    assert "sqnorm" in names and "sin" in names
    assert [f["name"] for f in rep["payload"]["families"]] == [
        "perturbed_sqnorm", "bump_sum", "param_cubic"]


def test_usage_errors(tmp_path):
    assert main(["check", "--fn", "nope", "--out",
                 str(tmp_path / "x.json")]) == EXIT_USAGE
    assert main(["check", "--expr", "sin(x1", "--dim", "1", "--box", "0:1",
                 "--out", str(tmp_path / "x.json")]) == EXIT_USAGE
    assert main(["check", "--out", str(tmp_path / "x.json")]) == EXIT_USAGE
    assert main(["check", "--fn", "sqnorm", "--expr", "x1", "--box", "0:1",
                 "--out", str(tmp_path / "x.json")]) == EXIT_USAGE
    # a field given by --expr has no parameters
    assert main(["check", "--expr", "t1*x1", "--dim", "1", "--box", "0:1",
                 "--out", str(tmp_path / "x.json")]) == EXIT_USAGE


@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["catalog"], ["check", "--fn", "sqnorm"], ["sigma", "--fn", "sqnorm"],
    ["falsify", "--fn", "sqnorm"], ["gradcheck", "--fn", "sqrtnorm"],
    ["lemma", "--fn", "sqnorm"], ["check", "--expr", "1", "--box=0:1"],
    ["falsify", "--family", "param_cubic"]], ids=" ".join)
def test_dimension_below_one_is_a_usage_error(argv, dim, tmp_path, capsys):
    code, rep = run(argv + ["--dim", dim], tmp_path)
    assert code == EXIT_USAGE and rep is None
    assert f"--dim must be at least 1, got {dim}" in capsys.readouterr().err


def test_dimension_from_config_file_is_checked(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 0}))
    code, rep = run(["sigma", "--fn", "sqnorm", "--config", str(cfg)], tmp_path)
    assert code == EXIT_USAGE and rep is None
    assert "--dim must be at least 1" in capsys.readouterr().err


def test_overflowing_literal_is_a_usage_error(tmp_path):
    code, rep = run(["check", "--expr", "x1 + 1e999", "--dim", "1",
                     "--box", "0:1", "--pairs", "100"], tmp_path)
    assert code == EXIT_USAGE and rep is None


@pytest.mark.parametrize("argv", [
    ["check", "--fn", "sqnorm", "--dim", "1500"],   # compiles a 1,500-deep sum
    ["check", "--expr=" + " + ".join(["x1"] * 1200), "--dim", "1", "--box=-1:1"],
    ["check", "--expr=" + "-" * 1200 + "x1", "--dim", "1", "--box=-1:1"],
    ["check", "--expr=" + "x1" + "^x1" * 1200, "--dim", "1", "--box=0:1"],
    ["check", "--expr=" + "(" * 400 + "x1" + ")" * 400, "--dim", "1", "--box=-1:1"]],
    ids=["sqnorm_1500", "sum_1200", "neg_1200", "pow_1200", "parens_400"])
def test_too_deep_expression_is_a_usage_error(argv, tmp_path, capsys):
    # the parser and the compiler recurse once per nesting level: past
    # Python's recursion limit the run ends with one error line and exit
    # code 2, not with a traceback and the exit code of a violation
    code, rep = run(argv + ["--pairs", "10"], tmp_path)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and rep is None
    assert err.startswith("error: ") and "nests too deeply" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["lemma", "--expr", "log(x1)", "--dim", "1", "--box", "0:2"],
    ["sigma", "--expr", "log(x1)", "--dim", "1", "--box=-1:0", "--pairs", "100"],
    ["gradcheck", "--expr", "log(x1)", "--dim", "1", "--box=-1:0"]],
    ids=lambda argv: argv[0])
def test_evaluation_errors_are_reported_not_raised(argv, tmp_path, capsys):
    # log(x1) is not finite at the lemma's endpoint 0, and on [-1, 0]
    # nowhere: the run ends with one error line and exit code 2, not with a
    # traceback and the exit code of a violation
    code, rep = run(argv, tmp_path)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and rep is None
    assert err.startswith("error: ") and "Traceback" not in err


def test_overflowing_field_emits_no_warning(tmp_path):
    # exp(1000*x1) overflows to inf on most of the box; those samples are
    # skipped without numpy warnings leaking out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(["check", "--expr", "exp(1000*x1)", "--dim", "1",
                         "--box", "0:1"], tmp_path)
    assert code == EXIT_OK
    assert rep["skipped_samples"] > 0


def test_skipped_samples_counts_each_pair_once(tmp_path):
    # log(x1) is not finite on [-1, 0]: every condition skips those pairs,
    # and the report counts each of them once, not once per condition
    _, rep = run(["check", "--expr", "log(x1)", "--dim", "1", "--box=-1:1",
                  "--pairs", "100", "--seed", "1"], tmp_path)
    counts = rep["payload"]["counts"]
    assert [counts[name]["skipped"] for name in "abc"] == [74, 74, 74]
    assert rep["skipped_samples"] == 74 <= rep["payload"]["sample_count"]


def test_infinite_field_has_no_gradient_witness(tmp_path):
    # sin(3*x1) + exp(1000) is +inf on the whole box, so every pair of it is
    # skipped: its gradient rows are NaN like its values, and the search
    # reports no violation of (c)
    code, rep = run(["falsify", "--expr", "sin(3*x1) + exp(1000)", "--dim", "1",
                     "--box=0:6", "--target", "c", "--budget", "2000",
                     "--seed", "1"], tmp_path)
    assert code == EXIT_OK
    assert rep["payload"]["violation_found"] is False
    assert rep["payload"]["witness"] is None


def test_report_round_trip_reproducible(tmp_path):
    argv = ["check", "--fn", "sqnorm", "--dim", "2", "--sigma", "2",
            "--pairs", "2000", "--seed", "13"]
    _, rep1 = run(argv, tmp_path, "a.json")
    _, rep2 = run(argv, tmp_path, "b.json")
    rep1.pop("timestamp")
    rep2.pop("timestamp")
    assert rep1 == rep2


def test_csv_output(tmp_path):
    csv_path = tmp_path / "margins.csv"
    code = main(["check", "--fn", "sin", "--dim", "1", "--pairs", "50",
                 "--csv", str(csv_path), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_VIOLATIONS
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "pair_index,condition,margin,status"
    assert len(lines) == 1 + 50 * 3


def test_csv_rows_match_counted_pairs(tmp_path):
    # the inf-norm min_sep filter drops some sampled pairs; the CSV lists
    # exactly the pairs the report counted, by their sampler index
    csv_path = tmp_path / "margins.csv"
    code, rep = run(["check", "--fn", "sqnorm", "--dim", "2", "--norm", "inf",
                     "--min-sep", "0.5", "--pairs", "2000", "--seed", "3",
                     "--csv", str(csv_path)], tmp_path)
    assert code == EXIT_OK
    payload = rep["payload"]
    assert payload["sample_count"] < 2000
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    indices = {int(r["pair_index"]) for r in rows}
    assert len(indices) == payload["sample_count"]
    assert max(indices) < 2000
    for name, counts in payload["counts"].items():
        statuses = [r["status"] for r in rows if r["condition"] == name]
        assert {s: statuses.count(s) for s in counts} == counts


def test_failed_check_leaves_no_partial_csv(tmp_path, capsys):
    # segment_grid pairs draw closer as the index grows, so a later block
    # fails min_sep after earlier blocks' rows were written: the CSV is
    # left as it was, and no temporary file stays beside it
    csv_path = tmp_path / "margins.csv"
    csv_path.write_text("before\n")
    code = main(["check", "--fn", "sqnorm", "--dim", "2", "--strategy", "segment_grid",
                 "--pairs", "40000", "--min-sep", "1", "--csv", str(csv_path),
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert "below min_sep" in capsys.readouterr().err
    assert csv_path.read_text() == "before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["margins.csv"]


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, flag):
    # exit 2, not the violations code 1; the CSV is opened before the run,
    # so the JSON report does not reach stdout either
    missing = str(tmp_path / "no such directory" / "r")
    code = main(["check", "--fn", "sqnorm", "--pairs", "10", flag, missing])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "no such directory" in err
    assert out == ""


def test_dim_of_a_fixed_dimension_entry(tmp_path, capsys):
    # sin is 1-D: --dim 5 is a usage error, --dim 1 is the entry's own
    code, rep = run(["check", "--fn", "sin", "--dim", "5", "--pairs", "10"], tmp_path)
    assert code == EXIT_USAGE and rep is None
    assert "--dim 5" in capsys.readouterr().err
    code, rep = run(["check", "--fn", "sin", "--dim", "1", "--pairs", "10"], tmp_path)
    assert code == EXIT_VIOLATIONS and rep["config"]["field"]["dim"] == 1


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "sqnorm", "dim": 1, "pairs": 500,
                               "sigma": 2.0, "seed": 3}))
    out = tmp_path / "r.json"
    code = main(["check", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["config"]["field"]["name"] == "sqnorm"
    assert rep["config"]["sampler"]["count"] == 500
    # an explicit flag beats the file value, in either spelling
    for flag in (["--pairs", "100"], ["--pairs=100"]):
        code = main(["check", "--config", str(cfg), *flag, "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["config"]["sampler"]["count"] == 100
    cfg.write_text(json.dumps({"budget": 50}))
    for flag in (["--budget", "3000"], ["--budget=3000"]):
        code, rep = run(["falsify", "--fn", "sin", "--config", str(cfg), *flag],
                        tmp_path)
        assert rep["config"]["budget"]["max_evals"] == 3000
    # a file value is converted as the flag's text would be
    cfg.write_text(json.dumps({"budget": "50", "sigma": 1}))
    code, rep = run(["falsify", "--fn", "sin", "--config", str(cfg)], tmp_path)
    assert rep["config"]["budget"]["max_evals"] == 50
    assert rep["config"]["check"]["sigma"] == 1.0


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.json"
    for data in ({"frobnicate": 1}, {"func": 1}):
        cfg.write_text(json.dumps(data))
        assert main(["check", "--fn", "sqnorm", "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == EXIT_USAGE


@pytest.mark.parametrize("data", [
    {"pairs": "abc"}, {"pairs": 1.5}, {"pairs": True}, {"pairs": None},
    {"sigma": [1]}, {"norm": 3}, {"strategy": "bogus"}])
def test_config_file_mistyped_value_is_a_usage_error(tmp_path, data):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    assert main(["check", "--fn", "sqnorm", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == EXIT_USAGE


def test_malformed_config_file_is_named_in_its_error(tmp_path, capsys):
    # a config file that is not JSON is a usage error that names the file
    cfg = tmp_path / "c.json"
    cfg.write_text("{bad")
    assert main(["catalog", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfg}: Expecting property name")


def without_timestamp(path) -> str:
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.lstrip().startswith('"timestamp"'))


def as_config(argv, spell) -> dict:
    """The --config object of argv's flags, keys spelled by spell(name) and
    values that read as JSON numbers written as numbers."""
    data, i = {}, 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        if not eq:
            value, i = argv[i + 1], i + 1
        try:
            number = json.loads(value)
        except ValueError:
            number = None
        data[spell(flag[2:])] = number if isinstance(number, (int, float)) else value
        i += 1
    return data


@pytest.mark.parametrize("argv,flag,value,abbrev", [
    (["check", "--fn", "sqnorm", "--dim", "3", "--sigma", "2", "--pairs", "400",
      "--min-sep", "1e-5", "--strategy", "segment_grid", "--seed", "3"], "--pairs", "300", "--pai"),
    (["sigma", "--expr", "x1^2 + x2^2", "--box=-1:2", "--pairs", "400",
      "--lambda-points", "15", "--seed", "4"], "--pairs", "300", "--pai"),
    (["falsify", "--fn", "sin", "--target", "b", "--budget", "500", "--min-sep", "1e-5",
      "--norm", "inf", "--seed", "2"], "--budget", "300", "--bud"),
    (["falsify", "--family", "param_cubic", "--budget", "2000", "--param-samples", "2",
      "--tol", "1e-8", "--seed", "5"], "--budget", "1000", "--bud"),
    (["gradcheck", "--expr", "x1^2 + sin(x2)", "--dim", "2", "--box=-1:1", "--points", "20",
      "--tol", "1e-5", "--seed", "3"], "--points", "10", "--poi"),
    (["lemma", "--expr", "(x1 - 1)^2", "--dim", "1", "--box", "0:2", "--grid-points", "31",
      "--tol", "1e-8"], "--box", "0:3", "--bo"),
    (["catalog", "--dim", "3"], "--dim", "4", "--di")],
    ids=lambda a: " ".join(a[:3]) if isinstance(a, list) else a)
def test_config_keys_are_the_flags_they_name(tmp_path, capsys, argv, flag, value, abbrev):
    # a --config file stands for its flags: a key is a flag's name, with
    # dashes or underscores, spelled in full; explicit flags override it
    explicit, out = tmp_path / "explicit.json", tmp_path / "from_config.json"
    assert main(argv + ["--out", str(explicit)]) in (EXIT_OK, EXIT_VIOLATIONS)
    cfg = tmp_path / "run.json"
    for spell in (str, lambda k: k.replace("-", "_")):
        cfg.write_text(json.dumps(as_config(argv, spell)))
        code = main([argv[0], "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VIOLATIONS)
        assert without_timestamp(out) == without_timestamp(explicit)
    i = argv.index(flag)
    main(argv[:i + 1] + [value] + argv[i + 2:] + ["--out", str(explicit)])
    assert without_timestamp(out) != without_timestamp(explicit)
    main([argv[0], "--config", str(cfg), flag, value, "--out", str(out)])
    assert without_timestamp(out) == without_timestamp(explicit)
    # an abbreviation is refused, as a flag and as a key
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(argv[:i] + [abbrev, value] + argv[i + 2:] + ["--out", str(out)])
    assert e.value.code == EXIT_USAGE and abbrev in capsys.readouterr().err
    cfg.write_text(json.dumps({abbrev[2:]: value}))
    assert main(argv[:i] + argv[i + 2:] + ["--config", str(cfg)]) == EXIT_USAGE
    assert abbrev in capsys.readouterr().err


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    # as the console script calls it: main() parses sys.argv[1:]
    cfg, out = tmp_path / "run.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"dim": 4}))
    monkeypatch.setattr(sys, "argv", ["quasicheck", "catalog", "--config", str(cfg),
                                      "--out", str(out)])
    assert main() == EXIT_OK
    assert json.loads(out.read_text())["payload"]["fields"][0]["dim"] == 4


def test_one_parser_serves_every_command(tmp_path, capsys):
    # main parses with one parser for the process: a usage error and a
    # --config run in between leave no state in it, so a repeated command
    # reports what it did the first time; build_parser gives a new one
    argv = ["falsify", "--fn", "sin", "--target", "b", "--budget", "500"]
    first, out, cfg = tmp_path / "first.json", tmp_path / "again.json", tmp_path / "run.json"
    code = main(argv + ["--out", str(first)])

    def again():
        assert main(argv + ["--out", str(out)]) == code
        assert without_timestamp(out) == without_timestamp(first)

    with pytest.raises(SystemExit) as e:   # argparse's own exit
        main(argv + ["--target", "z"])
    assert e.value.code == EXIT_USAGE
    again()
    # keys that the repeated command leaves at their defaults
    cfg.write_text(json.dumps({"seed": 4, "restarts": 3, "norm": "inf", "min_sep": 1e-5}))
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) in (EXIT_OK, EXIT_VIOLATIONS)
    assert json.loads(out.read_text())["config"]["seed"] == 4
    again()
    cfg.write_text(json.dumps({"seed": 4, "budget": "many"}))
    assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
    again()
    assert "invalid int value: 'many'" in capsys.readouterr().err
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("flags", [
    ["--fn", "sqnorm"], ["--expr", "x1"], ["--box=5:6"], ["--target", "b"],
    ["--target", "a"], ["--expr", "x1", "--box=5:6", "--target", "b"],
    ["--dim", "5"]], ids=" ".join)
def test_family_rejects_the_flags_it_ignores(tmp_path, capsys, flags):
    # the open-question search runs on the family's own domain and picks
    # its own targets, so a field, a dimension, a box or a target is a
    # usage error
    code, rep = run(["falsify", "--family", "param_cubic", "--budget", "2000",
                     "--param-samples", "2", *flags], tmp_path)
    assert code == EXIT_USAGE and rep is None
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for flag in flags:
        if flag.startswith("--"):
            assert flag.split("=")[0] in err
    # a plain falsify still targets (a) by default
    code, rep = run(["falsify", "--fn", "sin", "--budget", "200"], tmp_path)
    assert rep["payload"]["target"] == "a"


@pytest.mark.parametrize("argv,flag", [
    (["sigma", "--fn", "sqnorm", "--sigma", "0.5"], "--sigma"),
    (["falsify", "--fn", "sin", "--param-samples", "4"], "--param-samples"),
    (["lemma", "--fn", "cubic", "--seed", "3"], "--seed"),
    (["catalog", "--seed", "3"], "--seed"),
    (["falsify", "--fn", "sin", "--budget", "300", "--lambda-points", "5"], "--lambda-points"),
    (["falsify", "--family", "param_cubic", "--budget", "300", "--param-samples", "1",
      "--lambda-points", "5"], "--lambda-points")], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_flags_that_change_nothing_are_refused(tmp_path, capsys, argv, flag):
    # sigma* is estimated at sigma = 0, a single field has no members,
    # lemma and catalog draw nothing at random, and falsify draws lambda
    # continuously (a family re-check uses the witness's): each flag, on
    # the command line or as a --config key, is a usage error that names it
    try:
        code, rep = run(argv, tmp_path)
    except SystemExit as e:   # argparse's own usage error
        code, rep = e.code, None
    assert code == EXIT_USAGE and rep is None
    assert flag in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag[2:]: argv[argv.index(flag) + 1]}))
    code, rep = run(argv[:argv.index(flag)] + ["--config", str(cfg)], tmp_path)
    assert code == EXIT_USAGE and rep is None
    assert flag[2:] in capsys.readouterr().err
    # without the flag each command runs and echoes the old defaults
    code, rep = run(argv[:argv.index(flag)], tmp_path)
    assert code in (EXIT_OK, EXIT_VIOLATIONS)
    assert rep["config"]["seed"] == 7 and rep["config"]["sigma"] == (
        0.0 if argv[0] in ("sigma", "falsify") else None)


def test_open_question_cli(tmp_path):
    code, rep = run(["falsify", "--family", "param_cubic", "--budget", "6000",
                     "--param-samples", "4", "--seed", "1", "--tol", "1e-8",
                     "--min-sep", "1e-5", "--norm", "inf"], tmp_path)
    assert code in (EXIT_OK, EXIT_VIOLATIONS)
    assert rep["payload"]["mode"] == "open_question"
    assert rep["payload"]["family"]["expression"] == "x1^3 + t1*x1^2 + t2*x1"
    # the report says which check settings the campaign ran with
    assert rep["config"]["check"] == {"sigma": 0.0, "tol": 1e-8, "min_sep": 1e-5,
                                      "lambda_grid_size": 63,
                                      "penalty_norm": "inf"}
    for cand in rep["payload"]["candidates"]:
        assert cand["reverified"]
