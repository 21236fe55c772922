"""How often the compass search finds a violation that is known to exist.

For each case the search runs on seeds 0..39 at a fixed budget; the table
gives the seeds that found a violation and the mean best margin over the
seeds whose best margin is finite. A second table counts the candidates of
the open-question campaign at the CLI defaults (budget 10000, 32 members,
8 restarts) over seeds 0..19, and lists each candidate. Rows are markdown,
so the output can go straight into a report.

Run: python3 demos/search_effectiveness.py
"""

import math

from quasicheck.conditions import CheckConfig
from quasicheck.families import shipped_families
from quasicheck.field import DomainBox, catalog_field, make_field_from_expr
from quasicheck.search import SearchBudget, falsify, open_question_search

EXPR = "x1^2 + x2^2 + 0.1*sin(3*x1)*exp(x2)"
FIELDS = {"sin": catalog_field("sin", 1),
          "cubic_minus_x": catalog_field("cubic_minus_x", 1),
          "EXPR": make_field_from_expr(EXPR, 2, DomainBox.cube(-1, 1, 2))}
# field, target, budget, sigma
CASES = [("sin", "a", 1000, 0.0), ("cubic_minus_x", "a", 1000, 0.0),
         ("cubic_minus_x", "b", 300, 0.0), ("EXPR", "c", 2000, 1.0),
         ("EXPR", "a", 2000, 1.0), ("EXPR", "b", 300, 1.0)]
SEEDS = range(40)
CAMPAIGN_SEEDS = range(20)
SIGMAS = (0.0, 0.5)

print(f"EXPR is `{EXPR}` on [-1,1]^2; seeds {SEEDS.start}..{SEEDS.stop - 1}.\n")
print("| field | target | sigma | budget | found | mean best margin |")
print("|---|---|---|---|---|---|")
for name, target, max_evals, sigma in CASES:
    results = [falsify(FIELDS[name], target, CheckConfig(sigma=sigma),
                       SearchBudget(max_evals=max_evals), seed)
               for seed in SEEDS]
    found = sum(r.violation_found for r in results)
    finite = [r.best_margin for r in results if math.isfinite(r.best_margin)]
    mean = f"{sum(finite) / len(finite):.4g}" if finite else "n/a"
    print(f"| `{name}` | ({target}) | {sigma:g} | {max_evals} | "
          f"{found}/{len(results)} | {mean} |")

print(f"\nOpen-question candidates, seeds {CAMPAIGN_SEEDS.start}.."
      f"{CAMPAIGN_SEEDS.stop - 1}:\n")
families = shipped_families()
print("| sigma | " + " | ".join(f"`{fam.name}`" for fam in families) + " |")
print("|---" * (len(families) + 1) + "|")
listed = []
for sigma in SIGMAS:
    counts = []
    for fam in families:
        n = 0
        for seed in CAMPAIGN_SEEDS:
            for c in open_question_search(fam, CheckConfig(sigma=sigma),
                                          SearchBudget(max_evals=10_000), seed):
                n += 1
                listed.append(f"- `{fam.name}`, sigma {sigma:g}, seed {seed}: "
                              f"params {[round(t, 8) for t in c.params.tolist()]}, "
                              f"a_margin {c.a_margin:.3g}, "
                              f"c_best_margin {c.c_best_margin:.3g}")
        counts.append(str(n))
    print(f"| {sigma:g} | " + " | ".join(counts) + " |")
if listed:
    print("\nCandidates:\n")
    print("\n".join(listed))
