"""Reproduction harness: noise-threshold scans, alpha sweeps, plane samples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import BOUNDARY_TOL, DETECTION_TOL, SCAN_RESOLUTION, expectation
from .optimize import OptimizerConfig, sup_product_constrained
from .states import NoisyStateFamily
from .witness import ConstraintSpec, HalfSpaceSide, Witness, normalised_rotation

MINUS_INF = float("-inf")


@dataclass(frozen=True)
class SweepRow:
    """One alpha of a sweep: witness bound, detection threshold, detection at p=0."""

    alpha: float  # -inf stands for the limit witness
    bound: float
    threshold_p: Optional[float]
    detected_at_zero: bool


@dataclass(frozen=True)
class PlaneSample:
    label: str
    x: float  # constraint expectation
    y: float  # test expectation


def threshold_scan(
    family: NoisyStateFamily,
    witness: Witness,
    spec: ConstraintSpec,
    side: HalfSpaceSide,
    resolution: float = SCAN_RESOLUTION,
) -> Optional[float]:
    """Supremum p* of the detected noise interval [0, p*], or None.

    A noise level p counts as detected when family.member(p) lies on the
    given side of the constraint (within its BOUNDARY_TOL band; both
    bands for BOUNDARY) and the witness fires on it (value below
    -DETECTION_TOL). The witness value and the constraint expectation are
    affine in p, so each condition holds on a half-line and the detected
    set is an interval starting at 0; p* is the first zero of the
    conditions, found from its two ends alone: the family's pure state at
    p = 0, and at p = 1 the maximally mixed state I/d, where <X> is read as
    Tr(X)/d. So a scan reads four scalars: <T> and <C> of the pure state
    (T the witness test) and the two operators' stored traces over d. No
    state is built. Returns None as soon as p = 0 escapes detection.
    resolution is only validated (finite, 0 < r <= SCAN_RESOLUTION): the
    edge is exact.
    """
    if not 0.0 < resolution <= SCAN_RESOLUTION:
        raise ValueError(f"resolution must be finite with 0 < resolution <= {SCAN_RESOLUTION}")
    pure, d = family.pure, family.pure.op.dim
    # each condition f(p) <= 0 is kept as (f(0), f(1)); the witness condition
    # is strict, and at p = 0 every comparison is the one detection makes
    w0 = witness.bound - expectation(witness.test, pure) + DETECTION_TOL
    if not w0 < 0.0:
        return None
    lines = [(w0, witness.bound - witness.test.trace() / d + DETECTION_TOL)]
    c0, c1 = expectation(spec.C, pure), spec.C.trace() / d
    if side is not HalfSpaceSide.GEQ:
        hi = spec.c + BOUNDARY_TOL
        lines.append((c0 - hi, c1 - hi))
    if side is not HalfSpaceSide.LEQ:
        lo = spec.c - BOUNDARY_TOL
        lines.append((lo - c0, lo - c1))
    edge = 1.0
    for at0, at1 in lines:
        if at0 > 0.0:
            return None
        if at1 > at0:
            edge = min(edge, abs(at0) / (at1 - at0))  # at0 <= 0; abs keeps the zero unsigned
    return edge


def rotated_witness(L, spec: ConstraintSpec, alpha, side: HalfSpaceSide, cfg: OptimizerConfig) -> Witness:
    """Witness of L rotated by alpha on one half-space.

    The bound is scale times the constrained product supremum of the
    normalised test lam*C + L on that side (witness.normalised_rotation),
    and the test is the rotated operator scale * (lam*C + L). Below alpha0
    the affine bound of build_v_alpha is too low, and build_minus_inf's
    p_c - c can be too low in either case (the product set is not convex, so
    alpha0 can be finite in case I too); both then fire on product states;
    alpha = -inf takes the limit test L - C, alpha = None the test L itself.
    """
    scale, _, test = normalised_rotation(spec, L, alpha)
    return Witness(scale * sup_product_constrained(test, spec, side, cfg).value, scale * test)


def alpha_sweep(
    L,
    spec: ConstraintSpec,
    alphas: Sequence[float],
    family: NoisyStateFamily,
    cfg: OptimizerConfig,
):
    """One SweepRow per requested alpha (float('-inf') selects the limit witness).

    Each row's witness is the <= side rotated_witness, one constrained
    solve per alpha. A row's threshold_p is the supremum of its detected
    noise interval on the <= side (see threshold_scan).
    """
    for alpha in alphas:
        if alpha != MINUS_INF and not alpha < 1.0:
            raise ValueError("finite alphas must be < 1")
    rows = []
    for alpha in alphas:
        witness = rotated_witness(L, spec, alpha, HalfSpaceSide.LEQ, cfg)
        thr = threshold_scan(family, witness, spec, HalfSpaceSide.LEQ)
        rows.append(
            SweepRow(
                alpha=alpha,
                bound=witness.bound,
                threshold_p=thr,
                detected_at_zero=thr is not None,
            )
        )
    return rows


def plane_samples(states, spec: ConstraintSpec, L) -> list:
    """(label, Tr(C rho), Tr(L rho)) for a list of labeled states."""
    out = []
    for label, rho in states:
        x = expectation(spec.C, rho)
        y = expectation(L, rho)
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"non-finite expectation for state {label!r}")
        out.append(PlaneSample(label=str(label), x=x, y=y))
    return out
