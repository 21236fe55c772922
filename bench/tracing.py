"""Outside-in tracer for quasicheck: wraps the public functions of the
package's modules, records spans and counts, and derives per-layer metrics.

Nothing inside `src/` knows about it. `Tracer.instrument()` replaces each
public function of `cli`, `search`, `conditions`, `vecmath`, `field` and
`expr` (and the `ScalarField` evaluation methods) with a timing wrapper,
in its own module and in every package module that bound the same object
with `from .x import name`, so for example `as_vec` calls made from
`conditions` are counted. `Tracer.restore()` puts every original back.

Self time of a span is its duration minus the time covered by its direct
child spans, measured from wrapper entry to wrapper exit, so the tracer's
own bookkeeping for a child is charged to the child rather than to its
parent. Spans are strictly nested (one thread), so this equals duration
minus the union of the child intervals.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from dataclasses import dataclass, field as dc_field

MODULES = ("cli", "search", "conditions", "vecmath", "field", "expr")
FIELD_METHODS = ("value", "values", "grad", "grads")
MAX_SPANS = 50_000   # span records kept in memory; later ones are only aggregated


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = dc_field(default_factory=dict)

    def add(self, qty: str, amount: float) -> None:
        self.extra[qty] = self.extra.get(qty, 0.0) + amount


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None:
        return 1
    return math.prod(shape[:-1])


class Tracer:
    """Span recorder. `clock` is injectable so tests can drive a fake time.

    `spans` keeps at most MAX_SPANS records `(op, span_id, parent_id,
    name, start, end, self_s)`; later spans are still aggregated in
    `stats` and counted in `dropped`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.falsify_log: list[tuple] = []
        self.funnel: dict[str, float] = {}
        self._stack: list[list] = []   # [span_id, start, child_s]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- span recording -------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Later spans belong to op `op`; the funnel log starts empty."""
        self.op = op
        self.falsify_log.clear()

    def wrap(self, fn, name: str, on_return=None):
        """Return `fn` wrapped in a span called `name`. `on_return(args,
        kwargs, result)` may return {qty: amount} added to the stat."""
        clock = self.clock
        stack = self._stack
        stat = self.stats.setdefault(name, Stat())

        def traced(*args, **kwargs):
            start = clock()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, start, 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                own = end - start - frame[2]
                stat.calls += 1
                stat.total_s += end - start
                stat.self_s += own
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, span_id, parent, name,
                                       start, end, own))
                else:
                    self.dropped += 1
                if ok and on_return is not None:
                    for qty, amount in on_return(args, kwargs, result).items():
                        stat.add(qty, amount)
                if stack:
                    stack[-1][2] += clock() - start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching the package -------------------------------------------

    def instrument(self) -> None:
        """Wrap the public functions of MODULES wherever they are bound."""
        if self._patched:
            raise RuntimeError("tracer is already instrumented")
        pkg = importlib.import_module("quasicheck")
        mods = {m: importlib.import_module(f"quasicheck.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    qual = f"{short}.{name}"
                    wrappers[id(obj)] = (obj, self.wrap(obj, qual,
                                                        self._hook(qual)))
        holders = [pkg] + [importlib.import_module(f"quasicheck.{m}")
                           for m in ("families",) + MODULES]
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((holder, name, obj))
                    setattr(holder, name, hit[1])
        cls = mods["field"].ScalarField
        for meth in FIELD_METHODS:
            orig = cls.__dict__[meth]
            qual = f"field.{meth}"
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(orig, qual, self._hook(qual)))

    def restore(self) -> None:
        """Put back every object `instrument` replaced."""
        while self._patched:
            holder, name, orig = self._patched.pop()
            setattr(holder, name, orig)

    def __enter__(self):
        self.instrument()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- counts at layer boundaries -------------------------------------

    def _hook(self, qual: str):
        if qual in ("field.values", "field.grads", "expr.eval_batch",
                    "expr.grad_batch"):
            # (self, X) for the field methods, (e, X) for expr
            return lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X"))}
        if qual == "search.sample_pairs":
            return lambda a, k, r: {"rows": r.shape[0]}
        if qual == "conditions.batch_margin_a_worst":
            return lambda a, k, r: {"pair_lambdas": (
                _rows(_arg(a, k, 1, "X"))
                * len(_arg(a, k, 3, "cfg").lambda_grid))}
        if qual == "conditions.batch_margins_bc":
            return lambda a, k, r: {"pairs": _rows(_arg(a, k, 1, "X"))}
        if qual == "conditions.sigma_star_estimate":
            return lambda a, k, r: {"pair_lambdas": (
                _arg(a, k, 1, "sampler").count
                * len(_arg(a, k, 2, "cfg").lambda_grid))}
        if qual == "search.implication_harness":
            return lambda a, k, r: {
                "skipped": sum(c["skipped"] for c in r.counts.values()),
                "checks": 3 * r.sample_count}
        if qual == "search.falsify":
            return self._on_falsify
        if qual == "search.open_question_search":
            return self._on_family
        return None

    def _on_falsify(self, args, kwargs, result):
        target = _arg(args, kwargs, 1, "target")
        tol = _arg(args, kwargs, 2, "cfg").tol
        self.falsify_log.append((target, tol, result))
        return {"evals": result.evaluations}

    def _on_family(self, args, kwargs, result):
        for qty, amount in family_funnel(self.falsify_log, len(result)).items():
            self.funnel[qty] = self.funnel.get(qty, 0.0) + amount
        self.falsify_log.clear()
        return {}


def family_funnel(log, candidates: int) -> dict:
    """Open-question funnel from the sequence of `falsify` calls made by one
    `open_question_search`: per theta a (c) search; if it finds no violation,
    an (a) search; if that finds margin <= -10*tol, a re-verifying (c)
    search. `log` holds (target, tol, FalsificationResult) in call order.
    """
    out = {"thetas": 0, "c_rejected": 0, "a_found": 0, "reverify_failed": 0,
           "candidates": candidates, "evals": 0}
    i = 0

    def take(expected):
        nonlocal i
        if i >= len(log) or log[i][0] != expected:
            got = log[i][0] if i < len(log) else "end"
            raise ValueError(f"family funnel: expected a falsify({expected!r}) "
                             f"call at position {i}, got {got!r}")
        _, tol, res = log[i]
        i += 1
        out["evals"] += res.evaluations
        return tol, res

    while i < len(log):
        tol, res = take("c")
        out["thetas"] += 1
        if res.violation_found and res.best_margin < -tol:
            out["c_rejected"] += 1
            continue
        tol, res = take("a")
        if not (math.isfinite(res.best_margin)
                and res.best_margin <= -10.0 * tol):
            continue
        out["a_found"] += 1
        _, res = take("c")
        if res.violation_found:
            out["reverify_failed"] += 1
    if candidates > out["a_found"] - out["reverify_failed"]:
        raise ValueError("family funnel: more candidates than re-verified members")
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics, normalised per traced op


def _get(stats, name) -> Stat:
    return stats.get(name) or Stat()


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op per-layer metrics {name: value} from the tracer's stats."""
    s = tracer.stats
    per = 1.0 / ops
    out = {}

    def put(metric, value):
        out[metric] = value * per

    for name in ("cli.main", "cli.write_outputs", "search.sample_pairs",
                 "search.implication_harness", "conditions.batch_margin_a_worst",
                 "conditions.batch_margins_bc", "conditions.sigma_star_estimate",
                 "expr.eval_batch", "expr.grad_batch", "expr.parse",
                 "field.values", "field.grads", "field.grad",
                 "conditions.check_c", "conditions.margin_a",
                 "search.falsify", "search.open_question_search"):
        put(f"{name}.self_s", _get(s, name).self_s)
    for name in ("conditions.batch_margin_a_worst", "conditions.batch_margins_bc",
                 "conditions.sigma_star_estimate",
                 "expr.eval_batch", "expr.grad_batch", "field.values",
                 "field.grads", "field.value", "field.grad",
                 "conditions.check_c", "conditions.margin_a", "search.falsify"):
        put(f"{name}.calls", _get(s, name).calls)
    for name in ("search.sample_pairs", "expr.eval_batch", "expr.grad_batch",
                 "field.values", "field.grads"):
        put(f"{name}.rows", _get(s, name).extra.get("rows", 0))
    put("search.falsify.evals", _get(s, "search.falsify").extra.get("evals", 0))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    h = _get(s, "search.implication_harness")
    out["search.implication_harness.skipped_frac"] = ratio(
        h.extra.get("skipped", 0), h.extra.get("checks", 0))
    for name, qty, metric in (
            ("conditions.batch_margin_a_worst", "pair_lambdas", "ns_per_pair_lambda"),
            ("conditions.batch_margins_bc", "pairs", "ns_per_pair"),
            ("conditions.sigma_star_estimate", "pair_lambdas", "ns_per_pair_lambda")):
        st = _get(s, name)
        out[f"{name}.{metric}"] = ratio(st.self_s, st.extra.get(qty, 0), 1e9)
    out["expr.dual_passes_per_grad"] = ratio(
        _get(s, "expr.eval_dual_batch").calls, _get(s, "expr.grad_batch").calls)

    vec = [st for name, st in s.items() if name.startswith("vecmath.")]
    put("vecmath.calls", sum(st.calls for st in vec))
    put("vecmath.self_s", sum(st.self_s for st in vec))

    f = tracer.funnel
    for qty in ("thetas", "c_rejected", "a_found", "reverify_failed",
                "candidates"):
        put(f"search.family.{qty}", f.get(qty, 0))
    out["search.family.evals_per_theta"] = ratio(f.get("evals", 0),
                                                 f.get("thetas", 0))
    return out


def module_self_s(tracer: Tracer, ops: int) -> dict:
    """Per-op self time summed by module prefix (`field`, `vecmath`, ...)."""
    out = {}
    for name, st in tracer.stats.items():
        mod = name.split(".", 1)[0]
        out[mod] = out.get(mod, 0.0) + st.self_s / ops
    return out


def total_s(tracer: Tracer, name: str, ops: int) -> float:
    """Per-op inclusive time of one wrapped function."""
    return _get(tracer.stats, name).total_s / ops
