"""Parse an expression, differentiate it in forward mode, and check the
gradient against central differences.

Run: python3 demos/expressions_and_gradients.py
"""

import numpy as np

from quasicheck.expr import parse, pretty_print
from quasicheck.field import DomainBox, make_field_from_expr, validate_grad

source = "exp(0 - x1^2 - 0.5 * x2^2) + 0.1 * sin(3 * x1)"
print(f"source:    {source}")

e = parse(source, dimension=2)
print(f"parsed:    {pretty_print(e)}")

box = DomainBox.cube(-1.0, 1.0, 2)
f = make_field_from_expr(e, 2, box, name="demo")

x = np.array([0.3, -0.4])
print(f"f({x})      = {f.value(x):.6f}")
print(f"grad f({x}) = {f.grad(x)}")

# compiled forward-mode gradients vs central differences at 100 seeded points
rep = validate_grad(f, seed=0, count=100)
print(f"gradient check: worst deviation {rep.max_abs_deviation:.2e} "
      f"(relative {rep.max_rel_deviation:.2e}) over {rep.points_checked} "
      f"points (relative tolerance 1e-6: "
      f"{'ok' if rep.passed(1e-6) else 'FAILED'})")
