"""quasicheck benchmark: four CLI workloads, end-to-end and per-layer.

Usage, from the repository root:

    python3 bench/run.py --workload check_expr --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --heldout-seed 2 --seconds 20

One workload runs in one process as a closed loop: a single client calls
`quasicheck.cli.main(argv)` in-process, one command at a time. Command i
gets `--seed` from (workload seed, i). An untimed warm-up runs command 1
first; the timed command 1 must then give the same report, timestamp
excepted. Every command's report is re-verified (see workloads.py); a command
fails on an exception, an exit code other than 0 or 1, or a failed check.

Timings are in reference seconds (see speed.py): wall time scaled to a
fixed machine speed, measured by a probe that resembles the workload's
work and runs while the command runs, so that other tenants of a shared
host do not move the numbers. Raw wall times are printed beside them.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median time, in fresh interpreters, to import quasicheck
               and build the workload's field or family
  op_p50_s     median time per command
  work_per_s   median over commands of work / command time, where work is
               pairs (check_expr, sigma_catalog; printed as pairs_per_s),
               objective evaluations (falsify_expr; evals_per_s) or
               parameter samples (family_cubic; thetas_per_s)
  peak_rss_mb  peak resident memory of this process
--trace 1 first runs commands untraced for a third of --seconds, then the
same commands traced (tracing.py), checks that both give identical
reports, and reports per-layer metrics per traced command (raw seconds)
plus trace.overhead (traced / untraced median command time).

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. Provenance is printed on the line before it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speed import SpeedMeter, normalise
from tracing import Tracer, layer_metrics, module_self_s, total_s
from workloads import WORK_METRIC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_STARTS = 9    # timed fresh interpreters per run (plus one warm)

UNITS = {"setup_s": "s", "op_p50_s": "s", "work_per_s": "1/s",
         "peak_rss_mb": "MB"}


def layer_units(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("ns_per_pair", "ns_per_pair_lambda")):
        return "ns"
    if name.endswith(("skipped_frac", "overhead")):
        return "ratio"
    return "count"


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)


def strip_timestamp(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k != "timestamp"}


@dataclass
class Op:
    """One command: `seconds` in reference seconds, `raw_s` wall seconds."""
    index: int
    seed: int
    seconds: float | None = None
    raw_s: float | None = None
    report: dict | None = None
    error: str | None = None


class Runner:
    """Runs and checks one workload's commands in this process."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.out = OUT_DIR / f"{workload.name}-{os.getpid()}.json"

    def run(self, i: int) -> Op:
        from quasicheck import cli
        op = Op(i, op_seed(self.seed, i))
        argv = [*self.wl.argv, "--seed", str(op.seed), "--out", str(self.out)]
        gc.collect()  # each CLI run starts from a fresh heap
        try:
            with SpeedMeter(self.wl.probe) as meter:
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
            op.raw_s = wall - meter.probe_s()
            op.seconds = meter.normalise(wall)
            if code not in (0, 1):
                raise RuntimeError(f"exit code {code}")
            with open(self.out) as fh:
                op.report = json.load(fh)
            self.wl.check(op.report, code)
        except Exception as e:  # any failure of one command is counted
            op.error = f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        return op

    def loop(self, start: int, seconds: float) -> list:
        """Run commands start, start+1, ... until `seconds` of wall time
        have passed (at least one command)."""
        ops = []
        t_end = time.perf_counter() + seconds
        while not ops or time.perf_counter() < t_end:
            ops.append(self.run(start + len(ops)))
        return ops

    def same_payload(self, op: Op, again: Op, what: str) -> None:
        if op.error or again.error:
            return
        if strip_timestamp(op.report) != strip_timestamp(again.report):
            op.error = f"{what}: report differs for seed {op.seed}"

    def cleanup(self):
        self.out.unlink(missing_ok=True)


def measure_setup(workload) -> tuple[float, float]:
    """Median (reference, raw) seconds over fresh interpreters; each one
    probes its own speed right after the timed import and build."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import quasicheck\n"
            f"{workload.setup}"
            "t = time.perf_counter() - t0\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "from speed import probe_scalar\n"
            "print(repr(t), *[repr(probe_scalar()) for _ in range(5)])\n")
    ref, raw = [], []
    for k in range(SETUP_STARTS + 1):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        if k:  # the first start may compile bytecode
            t, *probes = map(float, res.stdout.split())
            raw.append(t)
            ref.append(normalise(t, probes))
    return statistics.median(ref), statistics.median(raw)


def provenance(args, n_ops: int, overhead=None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env,
                                timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "quasicheck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_role": args.seed_role, "ops": n_ops,
        "run_seconds": args.seconds, "trace": args.trace,
        "trace.overhead": overhead,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def report_failures(ops):
    for op in ops:
        if op.error:
            print(f"FAILED op {op.index} (--seed {op.seed}): {op.error}",
                  file=sys.stderr)


def completed(ops) -> list:
    """The commands that returned, so that they have a time."""
    done = [op for op in ops if op.seconds is not None]
    if not done:
        raise RuntimeError("no command completed")
    return done


def run_plain(args, wl, runner):
    """End-to-end metrics in reference seconds, plus the raw figures."""
    setup_s, setup_raw = measure_setup(wl)
    warm = runner.run(1)
    ops = runner.loop(1, args.seconds)
    runner.same_payload(ops[0], warm, "repeated seed")
    timed = completed(ops)

    def summary(key):
        secs = [getattr(op, key) for op in timed]
        rates = [wl.work(op.report) / getattr(op, key)
                 for op in timed if op.report]
        return statistics.median(secs), statistics.median(rates)

    op_s, rate = summary("seconds")
    op_raw, rate_raw = summary("raw_s")
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": op_s,
        "work_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"raw wall time: setup_s {setup_raw:.6g} s, op_p50_s {op_raw:.6g} s, "
             f"{WORK_METRIC[wl.work_unit]} {rate_raw:.6g} 1/s"]
    return [warm] + ops, metrics, dict(UNITS), notes


# Per-layer metrics that must read 0 on the listed workloads: they show
# that each workload isolates the layers it was chosen for.
PREDICTED_ZEROS = {
    "expr calls": (("expr.eval_batch.calls", "expr.grad_batch.calls"),
                   ("sigma_catalog", "family_cubic")),
    "batch kernel calls": (("conditions.batch_margin_a_worst.calls",
                            "conditions.batch_margins_bc.calls",
                            "conditions.sigma_star_estimate.calls"),
                           ("falsify_expr", "family_cubic")),
    "search.falsify calls": (("search.falsify.calls",),
                             ("check_expr", "sigma_catalog")),
}


def isolation_notes(workload, tracer, metrics, ops, op_s) -> list[str]:
    """Human-readable checks that the workload stresses the layers it was
    designed for. They describe the program, so they are printed, not
    counted as failed commands."""
    notes = []
    for what, (names, workloads) in PREDICTED_ZEROS.items():
        if workload in workloads:
            value = sum(metrics[k] for k in names)
            notes.append(f"{what} = {value:g} per op "
                         f"({'as predicted' if value == 0 else 'NOT 0 as predicted'})")
    share = lambda name: total_s(tracer, name, ops) / op_s
    if workload == "check_expr":
        a = share("conditions.batch_margin_a_worst")
        rest = {"batch_margins_bc": share("conditions.batch_margins_bc"),
                "sample_pairs": share("search.sample_pairs"),
                "implication_harness self":
                    metrics["search.implication_harness.self_s"] / op_s}
        notes.append(f"batch_margin_a_worst with its children: {a:.1%} of op "
                     f"time (largest: {a > max(rest.values())}); "
                     + ", ".join(f"{k} {v:.1%}" for k, v in rest.items()))
        notes.append("inclusive s per op: " + ", ".join(
            f"{name} {total_s(tracer, name, ops):.4f}" for name in (
                "search.sample_pairs", "conditions.batch_margin_a_worst",
                "conditions.batch_margins_bc", "search.implication_harness")))
    elif workload == "falsify_expr":
        g = share("expr.grad_batch")
        notes.append(f"expr.grad_batch with its children: {g:.1%} of op time "
                     f"(most: {g > 0.5})")
    elif workload == "family_cubic":
        mods = module_self_s(tracer, ops)
        cv = mods.get("conditions", 0.0) + mods.get("vecmath", 0.0)
        fs = mods.get("field", 0.0)
        notes.append(f"self time per op: conditions+vecmath {cv:.4f} s, "
                     f"field {fs:.4f} s (exceeds: {cv > fs})")
    return notes


def run_traced(args, wl, runner):
    """Per-layer metrics from traced commands that repeat untraced ones."""
    warm = runner.run(1)
    plain = runner.loop(1, args.seconds / 3)
    runner.same_payload(plain[0], warm, "repeated seed")
    tracer = Tracer()
    t_end = time.perf_counter() + args.seconds * 2 / 3
    traced = []
    with tracer:
        for op in plain:
            tracer.begin_op(op.index)
            traced.append(runner.run(op.index))
            if time.perf_counter() >= t_end:
                break
    for op, again in zip(plain, traced):
        runner.same_payload(again, op, "traced vs untraced")
    n = len(traced)
    metrics = layer_metrics(tracer, n)
    metrics["trace.overhead"] = (
        statistics.median(op.seconds for op in completed(traced))
        / statistics.median(op.seconds for op in completed(plain[:n])))
    units = {k: layer_units(k) for k in metrics}
    notes = isolation_notes(wl.name, tracer, metrics, n, statistics.median(
        op.raw_s for op in completed(traced)))
    notes.append(f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
    return [warm] + plain + traced, metrics, units, notes


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(wl, args.seed)
    try:
        ops, metrics, units, notes = (run_traced if args.trace else run_plain)(
            args, wl, runner)
    finally:
        runner.cleanup()
    report_failures(ops)
    failed = sum(1 for op in ops if op.error)
    timed = len(ops) - 1  # the warm-up is checked but not timed

    print(f"workload {wl.name} seed {args.seed} ({args.seed_role}): "
          f"{len(ops)} commands ({timed} timed), {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
        if name == "work_per_s":
            print(f"  {WORK_METRIC[wl.work_unit]:48s} {value:.6g} 1/s")
    print(f"  {'failed_frac':48s} {failed / len(ops):.6g} ratio")
    for note in notes:
        print(f"  {note}")
    print(json.dumps(provenance(args, timed, metrics.get("trace.overhead"))))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, on --seed and on --heldout-seed."""
    runs = [(args.seed, "seed")]
    if args.heldout_seed is not None:
        runs.append((args.heldout_seed, "heldout"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for seed, role in runs:
        for name in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--seed-role", role]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=180)
            sys.stderr.write(res.stderr)
            lines = res.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if res.returncode != 0 or not lines:
                print(f"workload {name} exited with {res.returncode}",
                      file=sys.stderr)
                return 1
            out = json.loads(lines[-1])
            combined["correct"] &= out["correct"]
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
            tag = name if role == "seed" else f"{name}.heldout"
            for metric, v in out["metrics"].items():
                combined["metrics"][f"{tag}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["check_expr", "sigma_catalog", "falsify_expr",
                             "family_cubic", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--heldout-seed", dest="heldout_seed", type=int,
                    help="with --workload all, also run every workload on "
                         "this seed, kept back for re-checking a claim")
    ap.add_argument("--seed-role", dest="seed_role", default="seed",
                    choices=["seed", "heldout"], help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "quasicheck" / "__init__.py").is_file():
        print(f"error: quasicheck sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
