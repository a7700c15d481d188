"""Reproduction harness: noise-threshold scans, alpha sweeps, plane samples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import expectation
from .optimize import OptimizerConfig, sup_product_constrained
from .states import NoisyStateFamily
from .witness import (
    BOUNDARY_TOL,
    DETECTION_TOL,
    ConstraintSpec,
    HalfSpaceSide,
    Witness,
    build_v_alpha,
    normalised_rotation,
)

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
    resolution: float = 1e-3,
) -> Optional[float]:
    """Supremum p* of the detected noise interval [0, p*], or None.

    A noise level p counts as detected when family.member(p) lies on the
    given side of the constraint (within its 1e-9 boundary band; both
    bands for BOUNDARY) and the witness fires on it. The witness value
    and the constraint expectation are affine in p, so each condition
    holds on a half-line and the detected set is an interval starting at
    0; p* is the first zero of the conditions, found from the members at
    p = 0 and p = 1 alone. Returns None when p = 0 itself escapes
    detection. resolution is only validated (finite, 0 < r <= 1e-3): the
    edge is exact.
    """
    if not 0.0 < resolution <= 1e-3:
        raise ValueError("resolution must be finite with 0 < resolution <= 1e-3")
    ends = [family.member(p) for p in (0.0, 1.0)]
    # each condition f(p) <= 0 is kept as (f(0), f(1)); the witness condition
    # is strict, and at p = 0 every comparison is the one detection makes
    lines = [tuple(witness.value(rho) + DETECTION_TOL for rho in ends)]
    cons = [expectation(spec.C, rho) for rho in ends]
    if side is not HalfSpaceSide.GEQ:
        lines.append(tuple(v - (spec.c + BOUNDARY_TOL) for v in cons))
    if side is not HalfSpaceSide.LEQ:
        lines.append(tuple((spec.c - BOUNDARY_TOL) - v for v in cons))
    if not lines[0][0] < 0.0 or any(at0 > 0.0 for at0, _ in lines):
        return None
    edge = 1.0
    for at0, at1 in lines:
        if at1 > at0:
            edge = min(edge, abs(at0) / (at1 - at0))  # at0 <= 0; abs keeps the zero unsigned
    return edge


def alpha_sweep(
    L,
    spec: ConstraintSpec,
    alphas: Sequence[float],
    family: NoisyStateFamily,
    cfg: OptimizerConfig,
):
    """One SweepRow per requested alpha (float('-inf') selects the limit witness).

    The constrained bound of the base test operator is computed once and
    reused by every rotated witness. A row's threshold_p is the supremum of
    its detected noise interval on the <= side (see threshold_scan).

    The -inf row's bound is the constrained supremum of the limit test
    L - C itself, as in cli._build_pair: build_minus_inf's affine p_c - c
    equals it only in case I, and outside it the limit witness would fire
    on a product state.
    """
    for alpha in alphas:
        if alpha != MINUS_INF and not alpha < 1.0:
            raise ValueError("finite alphas must be < 1")
    p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg).value
    rows = []
    for alpha in alphas:
        if alpha == MINUS_INF:
            _, _, test = normalised_rotation(spec, L, alpha)
            witness = Witness(sup_product_constrained(test, spec, HalfSpaceSide.LEQ, cfg).value, test)
        else:
            witness = build_v_alpha(spec, L, p_c, alpha).witness
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
