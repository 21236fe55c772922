"""Command-line surface: reproducible runs with JSON reports.

Exit codes: 0 = completed, no violations; 1 = violations found (still a
successful run); 2 = usage, config or evaluation error, or an output
file that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import conditions as cond
from . import search as srch
from .conditions import CheckConfig
from .families import family_by_name, shipped_families
from .field import (DomainBox, catalog, catalog_field, make_field_from_expr,
                    validate_grad)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def parse_box(spec: str, n: int) -> DomainBox:
    """`lo:hi[,lo:hi...]`; a single interval broadcasts over all coordinates."""
    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise UsageError(f"box has {len(parts)} intervals, expected 1 or {n}")
    lo, hi = [], []
    for part in parts:
        try:
            a, b = part.split(":")
            lo.append(float(a))
            hi.append(float(b))
        except ValueError:
            raise UsageError(f"bad box interval {part!r}, expected lo:hi")
    try:
        return DomainBox(np.array(lo), np.array(hi))
    except ValueError as e:
        raise UsageError(str(e))


def resolve_field(args):
    if args.fn and args.expr:
        raise UsageError("give exactly one of --fn and --expr")
    n = args.dim or 2   # --dim's default, given only where a field needs it
    if args.fn:
        try:
            f = catalog_field(args.fn, n)
        except KeyError as e:
            raise UsageError(str(e))
        if args.dim not in (None, f.dim):
            raise UsageError(f"--fn {args.fn} is {f.dim}-dimensional: it takes no "
                             f"--dim {args.dim}")
        if args.box:
            box = parse_box(args.box, f.dim)
            from dataclasses import replace
            f = replace(f, domain=box)
        return f
    if args.expr:
        if not args.box:
            raise UsageError("--expr requires --box")
        return make_field_from_expr(args.expr, n, parse_box(args.box, n),
                                    name=f"expr:{args.expr}")
    raise UsageError("a field is required: --fn <catalog name> or --expr <text>")


def make_config(args) -> CheckConfig:
    grid = cond.default_lambda_grid(args.lambda_points + 1)
    norm = args.norm if args.norm == "inf" else int(args.norm)
    return CheckConfig(sigma=args.sigma, tol=args.tol, min_sep=args.min_sep,
                       lambda_grid=grid, penalty_norm=norm)


def make_sampler(args, domain: DomainBox) -> srch.Sampler:
    return srch.Sampler(strategy=args.strategy, seed=args.seed, count=args.pairs,
                        domain=domain, min_sep=args.min_sep)


def echo_config(args, f=None, cfg=None, sampler=None) -> dict:
    out = {
        "command": args.command,
        "seed": args.seed,
        "sigma": getattr(args, "sigma", None),
    }
    if f is not None:
        out["field"] = {"name": f.name, "dim": f.dim,
                        "domain": f.domain.to_json()}
    if cfg is not None:
        out["check"] = cfg.to_json()
    if sampler is not None:
        out["sampler"] = sampler.to_json()
    return out


def build_report(payload: dict, config: dict, skipped: int = 0) -> dict:
    return {
        "schema": 1,
        "tool": "quasicheck",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "payload": payload,
        "skipped_samples": skipped,
    }


def _finite(obj):
    """obj with each non-finite float as None: JSON has no NaN or infinity."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_outputs(report: dict, args):
    text = json.dumps(_finite(report), indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@contextlib.contextmanager
def csv_sink(path):
    """A `rows=` sink for `implication_harness` (None when path is None)
    that writes the rows (pair_index, condition, margin, status) of each
    record to the CSV file `path`: pair_index is the pair's position in
    the sampler, and the margin is blank unless the status is holds or
    violated. The rows go to a temporary file beside `path`, opened here,
    that replaces it when the with block completes and is removed when it
    fails, so a failed run leaves `path` as it was."""
    if path is None:
        yield None
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair_index", "condition", "margin", "status"])

            def write(record):
                p = {k: v.tolist() for k, v in record.items()}
                for k, i in enumerate(p["index"]):
                    for name in "abc":
                        s = p[f"{name}_status"][k]
                        margin = p["a_margin" if name == "a" else "bc_margin"][k]
                        w.writerow([i, name, repr(margin) if s < 2 else "", cond.STATUSES[s]])
            yield write
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):   # gone once it replaced path
            os.remove(tmp)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    f = resolve_field(args)
    cfg = make_config(args)
    sampler = make_sampler(args, f.domain)
    with csv_sink(args.csv) as rows:
        report = srch.implication_harness(f, cfg, sampler, rows)
        out = build_report(report.to_json(), echo_config(args, f, cfg, sampler), report.skipped)
        write_outputs(out, args)
    return EXIT_VIOLATIONS if report.total_violations > 0 else EXIT_OK


def cmd_sigma(args) -> int:
    f = resolve_field(args)
    cfg = make_config(args)
    sampler = make_sampler(args, f.domain)
    raw = cond.sigma_star_estimate(f, sampler, cfg)
    payload = {"sigma_star_raw": raw, "sigma_star": max(0.0, raw)}
    out = build_report(payload, echo_config(args, f, cfg, sampler))
    write_outputs(out, args)
    return EXIT_VIOLATIONS if cond.is_violated(raw, cfg.tol) else EXIT_OK


def cmd_falsify(args) -> int:
    cfg = make_config(args)
    budget = srch.SearchBudget(max_evals=args.budget, restarts=args.restarts)
    if args.family:
        ignored = [f"--{k}" for k in ("fn", "expr", "dim", "box", "target") if getattr(args, k)]
        if ignored:
            raise UsageError(f"--family takes no {', '.join(ignored)}: it searches the "
                             "family's own domain, with its own targets")
        try:
            fam = family_by_name(args.family)
        except KeyError as e:
            raise UsageError(str(e))
        cands = srch.open_question_search(
            fam, cfg, budget, seed=args.seed,
            param_samples=32 if args.param_samples is None else args.param_samples)
        payload = {
            "mode": "open_question",
            "family": fam.to_json(),
            "candidates": [c.to_json() for c in cands],
            "note": "candidates are sampling-based evidence, not proofs",
        }
        config = echo_config(args, cfg=cfg)
        config["budget"] = budget.to_json()
        out = build_report(payload, config)
        write_outputs(out, args)
        return EXIT_VIOLATIONS if cands else EXIT_OK
    if args.param_samples is not None:
        raise UsageError("--param-samples needs --family: a single field has no members")
    f = resolve_field(args)
    res = srch.falsify(f, args.target or "a", cfg, budget, seed=args.seed)
    config = echo_config(args, f, cfg)
    config["budget"] = budget.to_json()
    out = build_report(res.to_json(), config)
    write_outputs(out, args)
    return EXIT_VIOLATIONS if res.violation_found else EXIT_OK


def cmd_gradcheck(args) -> int:
    f = resolve_field(args)
    rep = validate_grad(f, seed=args.seed, count=args.points)
    payload = rep.to_json()
    payload["passed"] = rep.passed(args.tol)
    out = build_report(payload, echo_config(args, f), rep.skipped)
    write_outputs(out, args)
    return EXIT_OK if rep.passed(args.tol) else EXIT_VIOLATIONS


def cmd_lemma(args) -> int:
    f = resolve_field(args)
    verdict = cond.check_lemma_refined(f, initial_points=args.grid_points,
                                       tol=args.tol)
    payload = verdict.to_json()
    if verdict.status == cond.VIOLATED:
        payload["note"] = "candidate contradiction - refine grid"
    out = build_report(payload, echo_config(args, f))
    write_outputs(out, args)
    return EXIT_VIOLATIONS if verdict.status == cond.VIOLATED else EXIT_OK


def cmd_catalog(args) -> int:
    entries = []
    for f in catalog(args.dim):
        entries.append({
            "name": f.name,
            "dim": f.dim,
            "domain": f.domain.to_json(),
            "known_status": f.known_status,
            "known_sigma": f.known_sigma,
        })
    fams = [fam.to_json() for fam in shipped_families()]
    out = build_report({"fields": entries, "families": fams}, echo_config(args))
    write_outputs(out, args)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_field_args(p):
    p.add_argument("--fn", help="catalog field name")
    p.add_argument("--expr", help="expression in x1..xn, e.g. 'x1^2 + x2^2'")
    p.add_argument("--dim", type=int, help="dimension (default 2)")
    p.add_argument("--box", help="domain box lo:hi[,lo:hi...] (broadcasts)")


def _add_check_args(p, sigma=True, lambda_points=True):
    if sigma:   # sigma* is estimated at sigma = 0
        p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--min-sep", dest="min_sep", type=float, default=1e-6)
    if lambda_points:   # falsify draws lambda continuously
        p.add_argument("--lambda-points", dest="lambda_points", type=int,
                       default=63, help="interior lambda grid size")
    p.add_argument("--norm", choices=["1", "2", "inf"], default="2",
                   type=str)


def _add_sampler_args(p):
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--strategy", default="uniform_box",
                   choices=["uniform_box", "gaussian_interior", "segment_grid"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasicheck",
        description="Numerically certify or falsify (strong) quasiconvexity "
                    "of differentiable functions on box domains.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, help):   # a flag, like a --config key, is spelled in full
        return sub.add_parser(name, help=help, allow_abbrev=False)

    common = dict(seed=7, out=None)

    p = add_parser("check", help="run the (a)/(b)/(c) implication harness")
    _add_field_args(p)
    _add_check_args(p)
    _add_sampler_args(p)
    p.add_argument("--csv", help="write per-sample margin rows")
    p.set_defaults(func=cmd_check, **common)

    p = add_parser("sigma", help="an upper bound on sigma*, taken over sampled segments")
    _add_field_args(p)
    _add_check_args(p, sigma=False)
    _add_sampler_args(p)
    p.set_defaults(func=cmd_sigma, sigma=0.0, **common)

    p = add_parser("falsify", help="adversarial search for violations")
    _add_field_args(p)
    _add_check_args(p, lambda_points=False)
    p.add_argument("--target", choices=["a", "b", "c"],
                   help="condition to falsify (default a; not with --family)")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--family", help="open-question mode on a shipped family")
    p.add_argument("--param-samples", dest="param_samples", type=int,
                   help="family members to search (default 32; only with --family)")
    p.set_defaults(func=cmd_falsify, lambda_points=63, **common)

    p = add_parser("gradcheck", help="validate gradients against central differences")
    _add_field_args(p)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradcheck, **common)

    p = add_parser("lemma", help="scalar monotone-bound lemma check")
    _add_field_args(p)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=63)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_lemma, **common)

    p = add_parser("catalog", help="list built-in fields and families")
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=cmd_catalog, **common)

    for name, sp in sub.choices.items():
        if name not in ("lemma", "catalog"):   # they draw nothing at random
            sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--out", help="write the JSON report to this path")
        sp.add_argument("--config",
                        help="JSON file with default flag values "
                             "(explicit flags override)")
    return ap


def config_flags(path) -> list:
    """The flags a --config file stands for: each key k with value v is
    the token `--k=v`, with the underscores of k as dashes and a JSON
    number written as its repr, for argparse to parse and check as it
    would the command line."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise UsageError(f"config file {path}: {e}") from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in data.items():
        if key in ("config", "help"):
            raise UsageError(f"config key {key!r} is not a run setting")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config key {key!r}: expected a string or a "
                             f"number, got {value!r}")
        text = value if isinstance(value, str) else repr(value)
        flags.append(f"--{key.replace('_', '-')}={text}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:   # explicit flags come last, so they override the file
            try:
                args = ap.parse_args(argv[:1] + config_flags(args.config) + argv[1:])
            except SystemExit as e:   # argparse refused a key or its value
                return e.code
        if args.dim is not None and args.dim < 1:
            raise UsageError(f"--dim must be at least 1, got {args.dim}")
        return args.func(args)
    except (UsageError, ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
