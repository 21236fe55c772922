"""Scalar fields on box domains, each a compiled expression.

A ScalarField is one compiled program (see expr) at its parameter values
on a DomainBox, plus the analytically known quasiconvexity status where
one exists; its batch values and directional derivatives are calls of
that program.
The built-in catalog is a table of expressions with their known status;
`catalog_field` compiles only the entry it is asked for. Invalid
evaluations (domain errors, nondifferentiable points) surface as NaN in
batch results so samplers can skip and count them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("box bounds must be non-empty 1-D vectors of "
                             "equal length")
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

    def contains(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.all((X >= self.lower) & (X <= self.upper), axis=-1)

    def shrunk(self, margin: float) -> "DomainBox":
        """Box pulled in by `margin` on every side (for interior sampling)."""
        m = np.minimum(margin, 0.25 * self.widths)
        return DomainBox(self.lower + m, self.upper - m)

    def to_json(self):
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}


@dataclass(frozen=True)
class ScalarField:
    """f and its derivatives on a box: the compiled expression `program`
    (see expr.Program) at its parameter values `params`, when it has any:
    one vector for every point, or one row per point row.

    The arrays values and slopes receive may be non-contiguous or read-only
    views (of the pairs drawn by `sigma_star_estimate`, of the coordinate
    planes of `batch_margins_bc`, and of the planes of y and x - y in the
    `expr.Segments` of every chunk of `segment_margins`): the program must
    not write into its input or keep it.
    """

    name: str
    program: ex.Program
    domain: DomainBox
    params: Optional[np.ndarray] = None
    known_sigma: Optional[float] = None
    known_status: str = UNKNOWN

    def __post_init__(self):
        if self.domain.dim != self.program.n:
            raise ValueError("box dimension does not match the field dimension")

    @property
    def dim(self) -> int:
        return self.program.n

    def value(self, x) -> float:
        """f at one point, evaluated as a batch of one."""
        x = as_vec(x)
        v = float(self.values(x[None])[0])
        if not np.isfinite(v):
            raise EvaluationError(f"{self.name}: non-finite value at {x.tolist()}")
        return v

    def _points(self, X, segments=False) -> np.ndarray:
        if not (segments and isinstance(X, ex.Segments)):
            X = np.asarray(X, dtype=float)
        if X.shape[-1:] != (self.program.n,):
            raise ValueError(f"{self.name}: points of shape {X.shape} for "
                             f"dimension {self.program.n}")
        return X

    def values(self, X: np.ndarray) -> np.ndarray:
        """Batch values over (..., n) points, or over the points of the
        segments of pairs (`expr.Segments`, whose coordinates the program
        makes itself); a NaN or infinite value marks an invalid point."""
        T = () if self.params is None else (self.params,)
        with np.errstate(all="ignore"):
            return self.program.value(self._points(X, segments=True), *T)

    def grad(self, x) -> np.ndarray:
        """grad f at one point, evaluated as a batch of one."""
        x = as_vec(x)
        g = self.grads(x[None])[0]
        if not np.all(np.isfinite(g)):
            raise EvaluationError(f"{self.name}: non-finite gradient at {x.tolist()}")
        return g

    def slopes(self, X: np.ndarray, D: np.ndarray):
        """(values, slopes) over (..., n) points X along the directions D,
        one per point, of X's shape: the slope at x along d is
        <grad f(x), d>, from one forward-mode pass of the program, so both
        points of k pairs, given as one (2, k, n) array, take one pass. The
        slope is NaN at nondifferentiable points (the program makes it NaN
        at the abs/min/max ties that f takes) and is set to NaN where the
        value is not finite (outside the expression's domain), so samplers
        count both as skipped. The values equal `values(X)` bit for bit."""
        T = () if self.params is None else (self.params,)
        with np.errstate(all="ignore"):
            val, slope = self.program.dual(self._points(X), D, *T)
            ok = np.isfinite(val)
            if not ok.all():
                slope = np.where(ok, slope, np.nan)
        return val, slope

    def grads(self, X: np.ndarray) -> np.ndarray:
        """Batch gradients over (..., n) points, one `slopes` pass along
        each unit vector, NaN where `slopes` is."""
        G = np.empty(self._points(X).shape)
        for j, e in enumerate(np.eye(self.dim)):
            G[..., j] = self.slopes(X, np.broadcast_to(e, G.shape))[1]
        return G


def make_field_from_expr(e, n: int, box: DomainBox,
                         name: str = "expr") -> ScalarField:
    """The field of `e`, source text or an AST in x1..xn, on `box`: the
    expression compiled once (see expr.compile_expr), so each evaluation
    is one pass of straight-line numpy code, and a directional derivative
    comes from the same pass in forward mode, one tangent per node."""
    if isinstance(e, str):
        e = ex.parse(e, n)
    return ScalarField(name, ex.compile_expr(e, n), box)


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
    max_rel_deviation: float
    worst_point: np.ndarray
    step: float
    skipped: int = 0

    def passed(self, tol: float) -> bool:
        return self.max_rel_deviation <= tol

    def to_json(self):
        return {
            "points_checked": self.points_checked,
            "max_abs_deviation": self.max_abs_deviation,
            "max_rel_deviation": self.max_rel_deviation,
            "worst_point": np.asarray(self.worst_point).tolist(),
            "step": self.step,
            "skipped": self.skipped,
        }


def validate_grad(f: ScalarField, seed: int, count: int = 100) -> GradReport:
    """Compare the field gradient against central differences at seeded
    interior points; the report carries the worst deviation, its point and
    the worst relative one, max |g - g_fd| / max(1, max |g_fd|), to pass on."""
    if count < 1:
        raise ValueError("count must be >= 1")
    base_h = 1e-5 * max(1.0, float(np.max(np.abs(
        np.stack([f.domain.lower, f.domain.upper])))))
    inner_box = f.domain.shrunk(2.0 * base_h)
    rng = np.random.default_rng(seed)
    X = inner_box.lower + rng.random((count, f.dim)) * inner_box.widths

    worst = worst_rel = -1.0
    worst_point = X[0]
    skipped = 0
    checked = 0
    for x in X:
        try:
            g = f.grad(x)
            g_fd = fd_grad(f, x, default_fd_step(x))
        except EvaluationError:
            skipped += 1
            continue
        dev = float(np.max(np.abs(g - g_fd)))
        worst_rel = max(worst_rel, dev / max(1.0, float(np.max(np.abs(g_fd)))))
        checked += 1
        if dev > worst:
            worst = dev
            worst_point = x
    if checked == 0:
        raise EvaluationError(f"{f.name}: all gradient-check samples were skipped")
    return GradReport(checked, worst, worst_rel, worst_point, base_h, skipped)


# ---------------------------------------------------------------------------
# Catalog of fields with analytically known status

# name: (expression in x1..xn, fixed dimension or None for n, interval of
# every coordinate, known_sigma, known_status). {squares} is x1^2 + ... +
# xn^2 and {weighted} is 1*x1 + ... + n*xn.
_CATALOG = {
    "const": ("1", None, (-1.0, 1.0), 0.0, QUASICONVEX),
    "affine": ("{weighted}", None, (-1.0, 1.0), 0.0, QUASICONVEX),
    "sqnorm": ("{squares}", None, (-1.0, 1.0), 2.0, SIGMA_QUASICONVEX),
    # x^3 is monotone, hence quasiconvex on any interval
    "cubic": ("x1^3", 1, (-1.0, 1.0), 0.0, QUASICONVEX),
    # interior max at pi/2 beats both endpoints: not quasiconvex on [0, 2pi]
    "sin": ("sin(x1)", 1, (0.0, 2.0 * np.pi), None, NOT_QUASICONVEX),
    # local max at x = -1/sqrt(3): not quasiconvex on [-2, 2]
    "cubic_minus_x": ("x1^3 - x1", 1, (-2.0, 2.0), None, NOT_QUASICONVEX),
    # sqrt(||x||) on a box away from the origin, where it is smooth
    "sqrtnorm": ("sqrt(sqrt({squares}))", None, (1.0, 2.0), None, UNKNOWN),
}


def catalog(n: int = 2) -> list[ScalarField]:
    """Built-in fields; n-dimensional entries use dimension n, the
    one-dimensional entries keep their defining interval."""
    return [catalog_field(name, n) for name in _CATALOG]


def catalog_names() -> list[str]:
    return list(_CATALOG)


def catalog_field(name: str, n: int = 2) -> ScalarField:
    """The catalog entry `name` at dimension n; compiles only that entry."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog field {name!r}; known: {catalog_names()}")
    source, dim, (lo, hi), sigma, status = _CATALOG[name]
    n = dim or n
    box = DomainBox.cube(lo, hi, n)
    js = range(1, n + 1)
    source = source.format(squares=" + ".join(f"x{j}^2" for j in js),
                           weighted=" + ".join(f"{j}*x{j}" for j in js))
    return ScalarField(name, ex.compile_expr(ex.parse(source, n), n), box,
                       known_sigma=sigma, known_status=status)
