"""Vector fields, Jacobians, and closed-form equilibria.

All three systems handled here share one arrangement of the right-hand side,

    f(x, y, z) = (a*(y - x), x*(b - z) - y, x*y - c*z)

and differ only in which coefficients are free.  The scaling-law (SL) system
takes (a, b, c) arbitrary.  The two Lorenz arrangements pin them: the
conventional Lorenz-63 system is (a, b, c) = (10, 28, 8/3), and the literal
variant interchanges the roles of 28 and 8/3, i.e. (10, 8/3, 28).  Everything
in this module is autonomous and gauge-free; the power-law time
reparametrization lives in `timegauge`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "SystemKind",
    "State3",
    "SystemParams",
    "Equilibrium",
    "LORENZ_STANDARD_PARAMS",
    "LORENZ_LITERAL_PARAMS",
    "effective_params",
    "make_field",
    "jacobian",
    "field_norm",
    "equilibria",
]

# Residual bound every closed-form equilibrium must satisfy when substituted
# back into the field, relative to the largest term of the field there (and
# never below this absolute value): rounding grows with the size of the
# point, a wrong closed form does not shrink with it.
EQUILIBRIUM_RESIDUAL_BOUND = 1e-12


class SystemKind(enum.Enum):
    """Which right-hand side a run uses."""

    SL = "sl"
    LORENZ_LITERAL = "lorenz-literal"
    LORENZ_STANDARD = "lorenz-standard"


@dataclass(frozen=True)
class State3:
    """A phase-space point (x, y, z).  Components must be finite reals."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"state component {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z


@dataclass(frozen=True)
class SystemParams:
    """Coefficients (a, b, c) of the shared quadratic right-hand side."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Equilibrium:
    """A zero of the field: the point, its back-substituted residual norm,
    and an optional note about degeneracy (e.g. the symmetric pair merging
    into the origin at b = 1)."""

    point: State3
    residual_norm: float
    multiplicity_note: str = ""


LORENZ_STANDARD_PARAMS = SystemParams(10.0, 28.0, 8.0 / 3.0)
LORENZ_LITERAL_PARAMS = SystemParams(10.0, 8.0 / 3.0, 28.0)


def effective_params(kind: SystemKind, params: SystemParams | None = None) -> SystemParams:
    """Coefficients actually used for `kind`.

    SL requires explicit `params`; both Lorenz arrangements have fixed
    coefficients and ignore the argument.
    """
    if kind is SystemKind.SL:
        if params is None:
            raise ValueError("the SL system needs explicit SystemParams")
        return params
    if kind is SystemKind.LORENZ_STANDARD:
        return LORENZ_STANDARD_PARAMS
    if kind is SystemKind.LORENZ_LITERAL:
        return LORENZ_LITERAL_PARAMS
    raise ValueError(f"unknown system kind: {kind!r}")


def make_field(
    kind: SystemKind, params: SystemParams | None = None
) -> Callable[[float, tuple[float, float, float]], tuple[float, float, float]]:
    """Bind coefficients into a plain-tuple evaluator rhs(t, (x, y, z)) of
    f(x, y, z) = (a(y-x), x(b-z)-y, xy-cz).

    The returned closure is the one evaluator of the field; the gauged
    field (`timegauge.make_gauged_field`) weights its output.  The
    integrators call it in their inner loops, so it works on bare floats
    and skips dataclass construction.  The time argument is accepted for
    signature compatibility and ignored (the field is autonomous).
    """
    p = effective_params(kind, params)
    a, b, c = p.a, p.b, p.c

    def rhs(t: float, state: tuple[float, float, float]) -> tuple[float, float, float]:
        x, y, z = state
        return (a * (y - x), x * (b - z) - y, x * y - c * z)

    return rhs


def jacobian(
    kind: SystemKind, params: SystemParams | None, state: State3 | Sequence[float]
) -> np.ndarray:
    """Jacobian matrix of the field at `state`, shape (3, 3).

    Rows follow the equation order:

        [[-a,    a,  0],
         [b - z, -1, -x],
         [y,     x,  -c]]
    """
    p = effective_params(kind, params)
    x, y, z = state
    return np.array(
        [
            [-p.a, p.a, 0.0],
            [p.b - z, -1.0, -x],
            [y, x, -p.c],
        ]
    )


def field_norm(params: SystemParams, point: State3 | Sequence[float]) -> float:
    """Euclidean norm of the field at `point` (the equilibrium residual)."""
    return math.hypot(*make_field(SystemKind.SL, params)(0.0, point))


def equilibria(params: SystemParams) -> list[Equilibrium]:
    """All real zeros of the SL field, in closed form.

    Setting f = 0 gives x = y from the first equation, then x(b - 1 - z) = 0
    and x**2 = c*z.  The origin always qualifies; when c*(b - 1) > 0 a
    symmetric pair appears at (+/-sqrt(c*(b-1)), +/-sqrt(c*(b-1)), b - 1).
    Order is deterministic: origin, positive branch, negative branch.

    Raises ValueError for c = 0 (the closed form divides by c) and for a = 0
    (the first equation degenerates and the zero set becomes a continuum, so
    a finite list would be wrong), and ArithmeticError for a pair that misses
    EQUILIBRIUM_RESIDUAL_BOUND.
    """
    a, b, c = params.a, params.b, params.c
    if c == 0:
        raise ValueError("equilibria: c must be nonzero (closed form solves x**2 = c*z)")
    if a == 0:
        raise ValueError(
            "equilibria: a must be nonzero; with a = 0 the first equation vanishes "
            "identically and the zeros form a one-parameter family, not a finite list"
        )

    note = "symmetric pair merges into the origin (b = 1)" if b == 1.0 else ""
    out = [Equilibrium(State3(0.0, 0.0, 0.0), 0.0, note)]

    disc = c * (b - 1.0)
    if disc > 0.0:
        r = math.sqrt(disc)
        zc = b - 1.0
        for sign in (1.0, -1.0):
            pt = State3(sign * r, sign * r, zc)
            res = field_norm(params, pt)
            # Largest term magnitude of the field at the pair, where x = y.
            scale = max(1.0, r * max(abs(b), abs(zc)), r * r, abs(c * zc))
            if res > EQUILIBRIUM_RESIDUAL_BOUND * scale:
                raise ArithmeticError(
                    f"closed-form equilibrium residual {res:.3e} exceeds "
                    f"{EQUILIBRIUM_RESIDUAL_BOUND:.0e} times the term scale {scale:.3e} "
                    f"for params {params}"
                )
            out.append(Equilibrium(pt, res, ""))
    return out
