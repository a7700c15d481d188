"""Witness algebra: half-space splits, test-operator witnesses and verdicts.

A witness is stored as a bound together with a test operator and stands for
the Hermitian operator ``bound * I - test``. Detection couples a half-space
membership test on the constraint observable with the sign of the matching
witness expectation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .linalg import (
    BOUNDARY_TOL,
    DETECTION_TOL,
    DimensionMismatch,
    HermitianOperator,
    expectation,
)


class HalfSpaceSide(enum.Enum):
    LEQ = "leq"
    GEQ = "geq"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ConstraintSpec:
    """Constraint observable C together with its threshold value c.

    Splits state space into the half-spaces Tr(rho C) <= c and >= c.
    """

    C: HermitianOperator
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"constraint value {self.c!r} must be finite")


@dataclass(frozen=True)
class Witness:
    """Operator ``bound * I - test`` in (bound, test) form."""

    bound: float
    test: HermitianOperator

    def as_operator(self) -> HermitianOperator:
        return self.bound * HermitianOperator.identity(self.test.dims) - self.test

    def value(self, rho) -> float:
        """Expectation of the witness operator on a state."""
        return self.bound - expectation(self.test, rho)

    def fires(self, rho) -> bool:
        return self.value(rho) < -DETECTION_TOL


@dataclass(frozen=True)
class AlphaWitness:
    """Rotated witness: test alpha*C + (1-alpha)*L, bound alpha*c + (1-alpha)*p_c."""

    alpha: float
    base: ConstraintSpec
    test_L: HermitianOperator
    p_c_of_L: float
    witness: Witness


@dataclass(frozen=True)
class UewPair:
    """The two witnesses of a constrained pair, one per half-space."""

    w_c: Witness
    w_ctilde: Witness
    constraint: ConstraintSpec


class VerdictLabel(enum.Enum):
    ENTANGLED = "entangled"
    NOT_DETECTED = "not-detected"


@dataclass(frozen=True)
class Verdict:
    label: VerdictLabel
    side_used: HalfSpaceSide
    witness_value: float

    @property
    def entangled(self) -> bool:
        return self.label is VerdictLabel.ENTANGLED


def halfspace_membership(rho, spec: ConstraintSpec) -> HalfSpaceSide:
    """Which side of Tr(rho C) = c a state falls on, with a BOUNDARY_TOL band."""
    val = expectation(spec.C, rho)
    if val < spec.c - BOUNDARY_TOL:
        return HalfSpaceSide.LEQ
    if val > spec.c + BOUNDARY_TOL:
        return HalfSpaceSide.GEQ
    return HalfSpaceSide.BOUNDARY


def combine_alpha(spec: ConstraintSpec, L: HermitianOperator, alpha: float) -> HermitianOperator:
    """Rotated test operator alpha*C + (1-alpha)*L, defined for finite alpha < 1."""
    if not -math.inf < alpha < 1.0:
        raise ValueError("alpha must be finite and < 1")
    return alpha * spec.C + (1.0 - alpha) * L


def normalised_rotation(spec: ConstraintSpec, L: HermitianOperator, alpha):
    """The rotation by alpha as (scale, lam, test) with test = lam*C + L.

    scale * test is the rotated operator alpha*C + (1-alpha)*L, so
    lam = alpha/(1-alpha) and scale = 1-alpha. Dividing by the scale keeps
    the test well scaled for arbitrarily negative alpha; alpha = -inf gives
    the limit (1, -1, L - C) and alpha = None counts as alpha = 0.
    """
    if alpha is None:
        alpha = 0.0
    if alpha == float("-inf"):
        scale, lam = 1.0, -1.0
    elif alpha < 1.0:
        scale, lam = 1.0 - alpha, alpha / (1.0 - alpha)
    else:
        raise ValueError("alpha must be < 1 or -inf")
    return scale, lam, rotated_test(spec, L, lam)


def rotated_test(spec: ConstraintSpec, L: HermitianOperator, lam: float) -> HermitianOperator:
    """The test lam*C + L in one validation, the bytes and trace of the stepwise lam * spec.C + L.

    A real multiple of the stored, exactly Hermitian C is exactly Hermitian,
    so the stepwise build's first validation only repeats work, as long as
    lam*C has no entry past half the largest double (~9e307), where that
    validation refuses its overflowing stored part. This build refuses the
    sum in the same way, unless L brings every such entry back below it.
    The dims check is the one its sum makes.
    """
    if spec.C.dims != L.dims:
        raise DimensionMismatch(f"dims {spec.C.dims} vs {L.dims}")
    return HermitianOperator(spec.C.mat * float(lam) + L.mat, dims=L.dims)


def build_few(L: HermitianOperator, g_s: float) -> Witness:
    """Witness g_s*I - L from a certified unconstrained product supremum."""
    return Witness(bound=float(g_s), test=L)


def build_v_alpha(
    spec: ConstraintSpec, L: HermitianOperator, p_c: float, alpha: float
) -> AlphaWitness:
    """Rotated constrained witness from a certified p_c(L).

    The bound is the affine combination alpha*c + (1-alpha)*p_c, which equals
    the constrained supremum of the rotated test operator whenever the
    unconstrained optimum of that operator stays on the >= side.
    """
    n_alpha = combine_alpha(spec, L, alpha)
    bound = alpha * spec.c + (1.0 - alpha) * float(p_c)
    return AlphaWitness(
        alpha=alpha,
        base=spec,
        test_L=L,
        p_c_of_L=float(p_c),
        witness=Witness(bound=bound, test=n_alpha),
    )


def build_minus_inf(spec: ConstraintSpec, L: HermitianOperator, p_c: float) -> Witness:
    """Limit witness (p_c - c)*I - (L - C) of the rotated family.

    The affine bound p_c - c can fall below the constrained supremum of
    L - C, outside case I and, since the product set is not convex, in
    case I too; the witness then fires on a product state. A sound bound is
    the constrained supremum of L - C itself.
    """
    return Witness(bound=float(p_c) - spec.c, test=L - spec.C)


def detect(rho, pair: UewPair) -> Verdict:
    """Half-space aware detection verdict for a state.

    The constraint expectation picks which witness applies; boundary states
    are tried against both and count as entangled if either fires.
    """
    side = halfspace_membership(rho, pair.constraint)
    if side is HalfSpaceSide.LEQ:
        val = pair.w_c.value(rho)
    elif side is HalfSpaceSide.GEQ:
        val = pair.w_ctilde.value(rho)
    else:
        val = min(pair.w_c.value(rho), pair.w_ctilde.value(rho))
    label = VerdictLabel.ENTANGLED if val < -DETECTION_TOL else VerdictLabel.NOT_DETECTED
    return Verdict(label=label, side_used=side, witness_value=float(val))
