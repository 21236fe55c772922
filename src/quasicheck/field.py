"""Scalar fields on box domains: expression-backed and built-in catalog.

A ScalarField bundles a batch-capable evaluator and gradient over a
DomainBox, plus the analytically known quasiconvexity status where one
exists. Invalid evaluations (domain errors, nondifferentiable points)
surface as NaN in batch results so samplers can skip and count them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .vecmath import as_vec

__all__ = [
    "DomainBox",
    "ScalarField",
    "GradReport",
    "EvaluationError",
    "make_field_from_expr",
    "fd_grad",
    "default_fd_step",
    "validate_grad",
    "catalog",
    "catalog_field",
    "catalog_names",
]

SIGMA_QUASICONVEX = "sigma_quasiconvex"
QUASICONVEX = "quasiconvex"
NOT_QUASICONVEX = "not_quasiconvex"
UNKNOWN = "unknown"


class EvaluationError(ArithmeticError):
    """Field evaluation left the valid region (non-finite result)."""


@dataclass(frozen=True)
class DomainBox:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper coordinate-wise")

    @classmethod
    def cube(cls, lo: float, hi: float, n: int) -> "DomainBox":
        return cls(np.full(n, float(lo)), np.full(n, float(hi)))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, X: np.ndarray, atol: float = 0.0) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.all((X >= self.lower - atol) & (X <= self.upper + atol), axis=-1)

    def clip(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.lower, self.upper)

    def shrunk(self, margin: float) -> "DomainBox":
        """Box pulled in by `margin` on every side (for interior sampling)."""
        m = np.minimum(margin, 0.25 * self.widths)
        return DomainBox(self.lower + m, self.upper - m)

    def to_json(self):
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}


@dataclass(frozen=True)
class ScalarField:
    """f with gradient on a box; fn/grad_fn accept (..., n) arrays.

    The arrays fn and grad_fn receive may be non-contiguous, read-only
    views (`segment_margins` passes views of a point buffer it reuses for
    every chunk): they must not write into their input or keep it.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    domain: DomainBox
    known_sigma: Optional[float] = None
    known_status: str = UNKNOWN

    def value(self, x) -> float:
        """f at one point, evaluated as a batch of one."""
        x = as_vec(x)
        v = float(self.values(x[None])[0])
        if not np.isfinite(v):
            raise EvaluationError(f"{self.name}: non-finite value at {x.tolist()}")
        return v

    def values(self, X: np.ndarray) -> np.ndarray:
        """Batch values; NaN marks invalid points."""
        with np.errstate(all="ignore"):
            return np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=float)

    def grad(self, x) -> np.ndarray:
        """grad f at one point, evaluated as a batch of one."""
        x = as_vec(x)
        g = self.grads(x[None])[0]
        if not np.all(np.isfinite(g)):
            raise EvaluationError(f"{self.name}: non-finite gradient at {x.tolist()}")
        return g

    def grads(self, X: np.ndarray) -> np.ndarray:
        """Batch gradients; NaN rows mark invalid/nondifferentiable points."""
        with np.errstate(all="ignore"):
            return np.asarray(self.grad_fn(np.asarray(X, dtype=float)), dtype=float)


def make_field_from_expr(e, n: int, box: DomainBox, name: str = "expr") -> ScalarField:
    """Field backed by the expression compiled once: each evaluation is one
    pass of straight-line numpy code, and the gradient comes from the same
    pass in forward mode with vector tangents.

    Nondifferentiable points (abs/min/max ties) and points outside the
    expression's domain yield NaN gradients so downstream sampling counts
    them as skipped.
    """
    if isinstance(e, str):
        e = ex.parse(e, n)
    if box.dim != n:
        raise ValueError("box dimension does not match the field dimension")
    prog = ex.compile_expr(e, n)

    def fn(X):
        return ex.eval_batch(prog, X)

    def grad_fn(X):
        g, mask = ex.grad_batch(prog, X, n)
        if prog.kinks:
            g[mask] = np.nan
        return g

    f = ScalarField(name=name, dim=n, fn=fn, grad_fn=grad_fn, domain=box)
    object.__setattr__(f, "expression", e)
    return f


def default_fd_step(x: np.ndarray) -> float:
    """h = 1e-5 * max(1, ||x||_inf), balancing truncation and rounding."""
    return 1e-5 * max(1.0, float(np.max(np.abs(x))))


def fd_grad(f: ScalarField, x, h: float) -> np.ndarray:
    """Central-difference gradient, the independent oracle for AD."""
    x = as_vec(x)
    if h <= 0:
        raise ValueError("step h must be positive")
    probes = np.repeat(x[None, :], 2 * x.size, axis=0)
    for i in range(x.size):
        probes[2 * i, i] += h
        probes[2 * i + 1, i] -= h
    vals = f.values(probes)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{f.name}: finite-difference probe left the valid region")
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


@dataclass(frozen=True)
class GradReport:
    points_checked: int
    max_abs_deviation: float
    worst_point: np.ndarray
    step: float
    skipped: int = 0

    def passed(self, tol: float) -> bool:
        return self.max_abs_deviation <= tol

    def to_json(self):
        return {
            "points_checked": self.points_checked,
            "max_abs_deviation": self.max_abs_deviation,
            "worst_point": np.asarray(self.worst_point).tolist(),
            "step": self.step,
            "skipped": self.skipped,
        }


def validate_grad(f: ScalarField, seed: int, count: int = 100,
                  h: float | None = None, tol: float = 1e-6) -> GradReport:
    """Compare the field gradient against central differences at seeded
    interior points; the report carries the worst deviation."""
    if count < 1:
        raise ValueError("count must be >= 1")
    base_h = h if h is not None else 1e-5 * max(1.0, float(np.max(np.abs(
        np.stack([f.domain.lower, f.domain.upper])))))
    inner_box = f.domain.shrunk(2.0 * base_h)
    rng = np.random.default_rng(seed)
    X = inner_box.lower + rng.random((count, f.dim)) * inner_box.widths

    worst = -1.0
    worst_point = X[0]
    skipped = 0
    checked = 0
    for x in X:
        step = h if h is not None else default_fd_step(x)
        try:
            g = f.grad(x)
            g_fd = fd_grad(f, x, step)
        except EvaluationError:
            skipped += 1
            continue
        dev = float(np.max(np.abs(g - g_fd)))
        checked += 1
        if dev > worst:
            worst = dev
            worst_point = x
    if checked == 0:
        raise EvaluationError(f"{f.name}: all gradient-check samples were skipped")
    return GradReport(points_checked=checked, max_abs_deviation=worst,
                      worst_point=worst_point, step=base_h, skipped=skipped)


# ---------------------------------------------------------------------------
# Catalog of fields with analytically known status

def _const_field(n: int) -> ScalarField:
    c = 1.0
    return ScalarField(
        name="const", dim=n,
        fn=lambda X: np.full(np.shape(X)[:-1], c),
        grad_fn=lambda X: np.zeros_like(np.asarray(X, dtype=float)),
        domain=DomainBox.cube(-1.0, 1.0, n),
        known_sigma=0.0, known_status=QUASICONVEX,
    )


def _affine_field(n: int) -> ScalarField:
    c = np.arange(1, n + 1, dtype=float)
    return ScalarField(
        name="affine", dim=n,
        fn=lambda X: np.asarray(X, dtype=float) @ c,
        grad_fn=lambda X: np.broadcast_to(c, np.shape(X)).copy(),
        domain=DomainBox.cube(-1.0, 1.0, n),
        known_sigma=0.0, known_status=QUASICONVEX,
    )


def _sqnorm_field(n: int) -> ScalarField:
    return ScalarField(
        name="sqnorm", dim=n,
        fn=lambda X: np.sum(np.asarray(X, dtype=float) ** 2, axis=-1),
        grad_fn=lambda X: 2.0 * np.asarray(X, dtype=float),
        domain=DomainBox.cube(-1.0, 1.0, n),
        known_sigma=2.0, known_status=SIGMA_QUASICONVEX,
    )


def _cubic_field() -> ScalarField:
    # x^3 is monotone, hence quasiconvex on any interval
    return ScalarField(
        name="cubic", dim=1,
        fn=lambda X: np.asarray(X, dtype=float)[..., 0] ** 3,
        grad_fn=lambda X: 3.0 * np.asarray(X, dtype=float) ** 2,
        domain=DomainBox.cube(-1.0, 1.0, 1),
        known_sigma=0.0, known_status=QUASICONVEX,
    )


def _sin_field() -> ScalarField:
    # interior max at pi/2 beats both endpoints: not quasiconvex on [0, 2pi]
    return ScalarField(
        name="sin", dim=1,
        fn=lambda X: np.sin(np.asarray(X, dtype=float)[..., 0]),
        grad_fn=lambda X: np.cos(np.asarray(X, dtype=float)),
        domain=DomainBox.cube(0.0, 2.0 * np.pi, 1),
        known_status=NOT_QUASICONVEX,
    )


def _cubic_minus_x_field() -> ScalarField:
    # local max at x = -1/sqrt(3): not quasiconvex on [-2, 2]
    return ScalarField(
        name="cubic_minus_x", dim=1,
        fn=lambda X: np.asarray(X, dtype=float)[..., 0] ** 3
        - np.asarray(X, dtype=float)[..., 0],
        grad_fn=lambda X: 3.0 * np.asarray(X, dtype=float) ** 2 - 1.0,
        domain=DomainBox.cube(-2.0, 2.0, 1),
        known_status=NOT_QUASICONVEX,
    )


def _sqrtnorm_field(n: int) -> ScalarField:
    # sqrt(||x||) on a box away from the origin, where it is smooth
    def fn(X):
        r = np.sqrt(np.sum(np.asarray(X, dtype=float) ** 2, axis=-1))
        return np.sqrt(r)

    def grad_fn(X):
        X = np.asarray(X, dtype=float)
        r = np.sqrt(np.sum(X ** 2, axis=-1))
        return X / (2.0 * r[..., None] ** 1.5)

    return ScalarField(
        name="sqrtnorm", dim=n, fn=fn, grad_fn=grad_fn,
        domain=DomainBox.cube(1.0, 2.0, n),
        known_status=UNKNOWN,
    )


def catalog(n: int = 2) -> list[ScalarField]:
    """Built-in fields; n-dimensional entries use dimension n, the
    one-dimensional entries keep their defining interval."""
    return [
        _const_field(n),
        _affine_field(n),
        _sqnorm_field(n),
        _cubic_field(),
        _sin_field(),
        _cubic_minus_x_field(),
        _sqrtnorm_field(n),
    ]


def catalog_names() -> list[str]:
    return [f.name for f in catalog(2)]


def catalog_field(name: str, n: int = 2) -> ScalarField:
    for f in catalog(n):
        if f.name == name:
            return f
    raise KeyError(f"unknown catalog field {name!r}; known: {catalog_names()}")
