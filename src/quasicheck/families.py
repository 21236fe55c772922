"""Parametrized function families for the open-question campaign.

A family is one expression in x1..xn and parameters t1..tp (see expr),
compiled once: each member is the field of that program at one
parameter vector theta from the family's parameter box, and the search
engine scores the points of many members in one program call, each row
at its own theta.

Which families are promising for separating the gradient condition (c)
from the segment inequality (a) is anybody's guess; the three shipped
here (perturbed squared norms, two-bump wells, cubics) are pragmatic
choices covering smooth oscillation, multimodality, and inflection.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expr as ex
from .field import DomainBox, ScalarField

__all__ = ["ExprFamily", "shipped_families", "family_by_name"]


@dataclass(frozen=True)
class ExprFamily:
    """The functions `expression` of x1..xn on `domain` (n = domain.dim),
    one for each parameter vector t1..tp in `param_box`."""

    name: str
    expression: str
    domain: DomainBox
    param_box: DomainBox
    description: str = ""
    program: ex.Program = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, p = self.domain.dim, self.param_box.dim
        object.__setattr__(self, "program", ex.compile_expr(
            ex.parse(self.expression, n, p), n, p))

    def build(self, theta) -> ScalarField:
        """The member at parameter vector theta: the shared program at
        theta."""
        theta = np.array(theta, dtype=float)
        name = f"{self.name}[{','.join(f'{t:.4g}' for t in theta)}]"
        return ScalarField(name, self.program, self.domain, theta)

    def to_json(self):
        return {
            "name": self.name,
            "expression": self.expression,
            "param_box": self.param_box.to_json(),
            "description": self.description,
        }


_SHIPPED = {
    # quasiconvex for small t1*t2^2
    "perturbed_sqnorm": (
        "x1^2 + x2^2 + t1*sin(t2*x1)", DomainBox.cube(-1.0, 1.0, 2),
        DomainBox(np.array([0.0, 1.0]), np.array([1.0, 6.0])),
        "squared norm with a sinusoidal ripple on x1"),
    # two wells at -0.7 and 0.7, non-quasiconvex for comparable depths
    "bump_sum": (
        "-t1*exp(-((x1 - 0.7)^2)/t2) - t3*exp(-((x1 + 0.7)^2)/t2)",
        DomainBox.cube(-2.0, 2.0, 1),
        DomainBox(np.array([0.2, 0.1, 0.2]), np.array([1.5, 1.0, 1.5])),
        "sum of two negative Gaussian wells"),
    # quasiconvex on [-2, 2] iff no interior local max
    "param_cubic": (
        "x1^3 + t1*x1^2 + t2*x1", DomainBox.cube(-2.0, 2.0, 1),
        DomainBox(np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
        "cubic with tunable quadratic and linear terms"),
}


def shipped_families() -> list[ExprFamily]:
    return [family_by_name(name) for name in _SHIPPED]


def family_by_name(name: str) -> ExprFamily:
    """The shipped family `name`; compiles only that family."""
    if name not in _SHIPPED:
        raise KeyError(f"unknown family {name!r}; known: {list(_SHIPPED)}")
    return ExprFamily(name, *_SHIPPED[name])
