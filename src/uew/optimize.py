"""Suprema of expectation values over (constrained) pure product states.

Three cooperating search mechanisms live here:

* a see-saw that alternates exact single-party eigenvector updates, used
  for unconstrained suprema; all restarts run as one (R, d, d) stack, one
  einsum and one batched ``numpy.linalg.eigh`` per half step. Each row
  starts from a party-A ket; these starts are drawn once per (seed,
  restarts, dA) and cached read-only, each (operator, seed, restarts) is
  solved once per process, with 16 kept, and value ties between restarts
  are broken on canonical argmax rows computed in one batch;
* an exhaustive per-party angle-grid oracle, kept deliberately independent
  of the see-saw so the two can cross-check each other;
* constrained suprema behind a feasibility short-circuit: for qubit pairs
  one exact reduction (one party in closed form over its Bloch sphere cut
  by the constraint, the other by a coarse angle grid and compass search,
  with either party outer); beyond qubit pairs a constrained see-saw whose
  half steps are exact single-party maximisations under the conditioned
  constraint, started from the best feasible points of a random sample and
  from the cut point of a Lagrange-multiplier root-find, which starts at the
  unconstrained optimum, continues from its bracket ends with no random
  starts and always bridges its two ends onto the cut.

All randomness flows from explicit seeds; identical configs give
bit-identical results.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linalg import (
    ALPHA0_FEAS_TOL,
    ALPHA0_WIDTH,
    BOUNDARY_TOL,
    COMPASS_STOP,
    CUT_TOL,
    DIV_FLOOR,
    FLAT_EMPTY_TOL,
    FLAT_NORMAL_TOL,
    MU_CAP,
    MU_STOP,
    PHASE_TOL,
    SEESAW_TOL,
    SLERP_PHASE_TOL,
    TIE_TOL,
    DimensionMismatch,
    HermitianOperator,
    Ket,
    expectation,
)
from .states import ProductKet, product_expectations, random_product_batch
from .witness import ConstraintSpec, HalfSpaceSide, normalised_rotation

_ALPHA0_AIM = 0.8              # share of the way from the tangent to the square-root Newton crossing
_ALPHA0_MAX_TANGENTS = 64      # tangent steps per alpha0 search, at least its lam bisection's depth
ORACLE_MAX_TOTAL_DIM = 9
_SEESAW_MAX_ITER = 500         # sweeps per see-saw row
_PAIR_GRID = (45, 90)          # outer-party polar x azimuth grid of the qubit-pair solve
_COMPASS_MAX_STEPS = 400       # stencils per qubit-pair compass search; a smooth f needs ~100
_GENERIC_PAIR_CAP = 1 << 24    # max pair evaluations in the generic grid oracle
_CONSTRAINED_STARTS = 16       # best feasible sample points the d >= 3 constrained see-saw starts from
_MU_DOUBLINGS = 64             # multiplier doublings before a party's cut counts as empty
_MU_BISECTIONS = 30            # multiplier halvings of a constrained half step


class EmptyFeasibleSet(RuntimeError):
    """No product state satisfies the constraint side; the half-space split is vacuous."""


class AssumptionViolated(RuntimeError):
    """The unconstrained optimum sits strictly on the <= side; swap the sides."""


class CaseLabel(enum.Enum):
    CASE_I = "case-i"
    CASE_II = "case-ii"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class OptimizerConfig:
    """See-saw restart count and master seed; every other search setting is a constant."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.restarts, numbers.Integral) and self.restarts >= 1):
            raise ValueError(f"restarts {self.restarts!r} must be a positive integer")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):  # None draws OS entropy
            raise ValueError(f"seed {self.seed!r} must be a non-negative integer")


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    argmax: ProductKet
    constraint_value: Optional[float]
    converged: bool
    iterations: int
    method: str


# ---------------------------------------------------------------------------
# raw see-saw machinery
# ---------------------------------------------------------------------------


def _hermitian_top(mats: np.ndarray):
    """Top eigenvalues and eigenvectors of a stack of (R, d, d) matrices.

    The stack is symmetrized first to kill float asymmetry, then goes
    through one batched ``numpy.linalg.eigh`` call.
    """
    vals, vecs = np.linalg.eigh((mats + mats.conj().transpose(0, 2, 1)) / 2)
    return vals[:, -1], vecs[:, :, -1]


def _seesaw_batch(M4: np.ndarray, A0: np.ndarray):
    """Alternating eigenvector ascent from R starting party-A kets at once.

    The starts are the rows of ``A0`` (R, dA), copied and never written:
    sup_product_unconstrained passes the read-only starts that
    _restart_starts draws once per (seed, restarts, dA), and breaks value
    ties between the returned rows in one batch (_best_restart). Each row's
    party-B ket is set by its first half step. Each half step is an exact
    maximization of the conditioned quadratic form, so no row's value ever
    decreases. A row retires once its gain drops below SEESAW_TOL, keeping
    its value and iteration count, with at most _SEESAW_MAX_ITER sweeps.
    Returns per-row arrays (values, A, B, iterations, converged).
    """
    A = np.array(A0, dtype=complex)
    R = len(A)
    B = np.empty((R, M4.shape[1]), dtype=complex)
    vals = np.full(R, -np.inf)
    its = np.full(R, _SEESAW_MAX_ITER)
    conv = np.zeros(R, dtype=bool)
    live = np.arange(R)
    for it in range(1, _SEESAW_MAX_ITER + 1):
        a = A[live]
        _, b = _hermitian_top(np.einsum("ri,ikjl,rj->rkl", a.conj(), M4, a))
        new, a = _hermitian_top(np.einsum("rk,ikjl,rl->rij", b.conj(), M4, b))
        done = new - vals[live] < SEESAW_TOL
        A[live], B[live], vals[live] = a, b, new
        its[live[done]] = it
        conv[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break
    return vals, A, B, its, conv


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


@functools.lru_cache(maxsize=32)
def _restart_starts(seed, restarts: int, dA: int):
    """Read-only (restarts, dA) party-A see-saw start kets.

    Row r is the first draw of the r-th child of SeedSequence(seed). Every
    solve with the same (seed, restarts, dA) starts from the same rows, so
    they are drawn once and shared.
    """
    children = np.random.SeedSequence(seed).spawn(restarts)
    A = np.array([_random_unit(np.random.default_rng(ss), dA) for ss in children])
    A.setflags(write=False)
    return A


def _canonical_rows(X: np.ndarray) -> np.ndarray:
    """``Ket.unit(row).amplitudes`` of every row of X, bit for bit.

    The squared norm is real.real + imag.imag through the same BLAS dot as
    ``numpy.linalg.norm`` of one vector (matmul of 1 x d by d x 1 takes
    it; a plain sum rounds differently), and the modulus is ``hypot``, as
    ``abs`` of one complex scalar (numpy's array ``abs`` can differ in the
    last bit). The phase comes from the first amplitude of modulus above
    PHASE_TOL, which every normalised row has.
    """
    re, im = X.real, X.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    Y = X / np.sqrt(sq[:, 0])
    mod = np.hypot(Y.real, Y.imag)
    j = (mod > PHASE_TOL).argmax(axis=1)
    rows = np.arange(len(Y))
    phase = Y[rows, j].conj() / mod[rows, j]
    return Y * phase[:, None]


def _best_restart(vals: np.ndarray, A: np.ndarray, B: np.ndarray) -> int:
    """Index of the winning see-saw restart, reduced in start order.

    A restart replaces the current best when its value is higher by more
    than TIE_TOL, or within TIE_TOL and its key is lexicographically smaller.
    The key is the real and imaginary parts of Ket.unit(a) then
    Ket.unit(b); the canonical rows of all restarts come in one batch.
    """
    keys = np.concatenate([_canonical_rows(A), _canonical_rows(B)], axis=1).view(float).tolist()
    v = vals.tolist()
    best = 0
    for r in range(1, len(v)):
        if v[r] > v[best] + TIE_TOL or (abs(v[r] - v[best]) <= TIE_TOL and keys[r] < keys[best]):
            best = r
    return best


def sup_product_unconstrained(L: HermitianOperator, cfg: OptimizerConfig) -> OptimizationResult:
    """Supremum of <a,b|L|a,b> over product kets via restarted see-saw.

    The cfg.restarts party-A starts are drawn once per (seed, restarts, dA)
    and shared by every later solve with the same triple. Restarts are
    reduced deterministically: best value wins, value ties within TIE_TOL go
    to the lexicographically smallest canonicalized argmax, with the
    canonical argmaxes of all restarts computed in one batch
    (_best_restart). Each (operator, seed, restarts) is solved once per
    process, with the 16 latest kept; the frozen result is shared.
    """
    if len(L.dims) != 2:
        raise DimensionMismatch("bipartite operator required")
    return _unconstrained_solve(L.mat.tobytes(), L.dims, cfg)


@functools.lru_cache(maxsize=16)
def _unconstrained_solve(mat: bytes, dims: tuple, cfg: OptimizerConfig) -> OptimizationResult:
    """sup_product_unconstrained of the operator with these matrix bytes and dims."""
    dA, dB = dims
    M4 = np.frombuffer(mat, dtype=complex).reshape(dA, dB, dA, dB)
    vals, A, B, its, conv = _seesaw_batch(M4, _restart_starts(cfg.seed, cfg.restarts, dA))
    best = _best_restart(vals, A, B)
    return OptimizationResult(
        value=float(vals[best]),
        argmax=ProductKet(a=Ket.unit(A[best]), b=Ket.unit(B[best])),
        constraint_value=None,
        converged=bool(conv[best]),
        iterations=int(its[best]),
        method="seesaw",
    )


# ---------------------------------------------------------------------------
# Bloch-vector geometry for qubit parties
# ---------------------------------------------------------------------------

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# kron(_PAULI[i], _PAULI[j]) at row 4*i + j
_PAULI_PAIRS = np.array([np.kron(p, q) for p in _PAULI for q in _PAULI])


def _pauli_tensor_coeffs(M: HermitianOperator) -> np.ndarray:
    """Real 4x4 coefficients of a two-qubit operator in the Pauli basis."""
    return np.trace(M.mat @ _PAULI_PAIRS, axis1=1, axis2=2).real.reshape(4, 4) / 4.0


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def _columns(cols, theta, phi):
    """The columns broadcast over theta and phi, flattened in C order, as (N, k)."""
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    return np.stack([np.broadcast_to(x, shape).ravel() for x in cols], axis=-1)


def _qubit_kets(theta, phi):
    """(N, 2) qubit kets cos(t/2)|0> + e^{ip} sin(t/2)|1> at broadcast angles."""
    return _columns([np.cos(theta / 2) + 0j, np.exp(1j * phi) * np.sin(theta / 2)], theta, phi)


def _qubit_bloch(theta, phi):
    """(N, 4) Bloch 4-vectors (1, n) of the _qubit_kets at the same angles.

    <k|X|k> = bloch @ (Pauli coefficients of X).
    """
    st = np.sin(theta)
    return _columns([np.ones(()), st * np.cos(phi), st * np.sin(phi), np.cos(theta)], theta, phi)


def _qubit_angles(n_theta: int, n_phi: int, phi_endpoint: bool = True):
    """Broadcast (theta, phi) of a polar/azimuth grid, theta-major.

    theta takes n_theta points on [0, pi] with both ends; phi takes n_phi
    points from 0, ending at 2 pi only when ``phi_endpoint``. Pass them to
    _qubit_kets or _qubit_bloch.
    """
    th = np.linspace(0.0, np.pi, n_theta)[:, None]
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=phi_endpoint)[None, :]
    return th, ph


def _cap_cut(v, g0, u, c, sense):
    """Row-wise geometry of the cap {unit n : sense*(g0 + u.n - c) <= 0} against v.

    Returns (nv, us, t, nu, nu2, uv, ratio, rise, free, empty): |v|, the
    signed normal us = sense*u, the threshold t = sense*(c - g0), |us| and
    its floor at DIV_FLOOR, us.v, the cut circle's height t/|us| and radius
    (both clipped to the sphere), whether v/|v| satisfies the cut, and
    whether the cap is empty. A row with |u| < FLAT_NORMAL_TOL counts as
    uncut when its threshold is at least -FLAT_EMPTY_TOL, and a cut is
    empty only CUT_TOL past the tangent plane.
    """
    nv = np.linalg.norm(v, axis=1)
    us = sense * u
    t = sense * (c - g0)
    nu = np.linalg.norm(us, axis=1)
    uv = np.einsum("ij,ij->i", us, v)
    tiny = nu < FLAT_NORMAL_TOL
    free = (uv / np.maximum(nv, DIV_FLOOR) <= t) | tiny
    empty = np.where(tiny, t < -FLAT_EMPTY_TOL, t < -nu - CUT_TOL)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nu2 = np.maximum(nu, DIV_FLOOR)
        ratio = np.clip(t / nu2, -1.0, 1.0)
        rise = np.sqrt(np.maximum(1.0 - ratio**2, 0.0))
    return nv, us, t, nu, nu2, uv, ratio, rise, free, empty


def _cap_max_values(w0, v, g0, u, c, sense):
    """Row-wise max of w0 + v.n over unit n with sense*(g0 + u.n - c) <= 0.

    Closed form: w0 + |v| where the free maximiser v/|v| satisfies the cut,
    otherwise the best point of the circle where the cut meets the sphere;
    an empty cap has value -inf (edge rules in _cap_cut).
    """
    nv, us, t, _, nu2, uv, _, rise, free, empty = _cap_cut(v, g0, u, c, sense)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        along = uv / nu2**2
        # |v| sin(angle to u), from the difference vector: nv**2 - (uv/nu)**2
        # cancels to ~sqrt(eps)*|v| when v is nearly parallel to u.
        vperp = np.linalg.norm(v - along[:, None] * us, axis=1)
        val = np.where(free, w0 + nv, w0 + along * t + vperp * rise)
    return np.where(empty, -np.inf, val)


def _cap_argmax(w0, v, g0, u, c, sense):
    """(N, 2) unit qubit kets whose Bloch vectors maximise _cap_max_values.

    An empty cap has a nan row.
    """
    nv, us, _, nu, nu2, _, ratio, rise, free, empty = _cap_cut(v, g0, u, c, sense)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        n_free = v / nv[:, None]
        # the circle point towards v, in a frame (u/|u|, e1, e2) built from u
        # alone (Duff et al., JCGT 6, 2017): where v is (nearly) parallel to u,
        # v's perpendicular part is noise, and any circle point is a maximiser
        ux, uy, uz = np.where(nu > 0, us.T / nu2, [[0.0], [0.0], [1.0]])
        sz = np.copysign(1.0, uz)
        a = -1.0 / (sz + uz)
        b = ux * uy * a
        e1 = (1.0 + sz * ux * ux * a, sz * b, -sz * ux)
        e2 = (b, sz + uy * uy * a, -uy)
        p1, p2 = (v[:, 0] * e[0] + v[:, 1] * e[1] + v[:, 2] * e[2] for e in (e1, e2))
        r = np.hypot(p1, p2)
        cs, sn = np.where(r > 0, p1 / r, 1.0), np.where(r > 0, p2 / r, 0.0)
        n_cap = np.stack(
            [ratio * uk + rise * (cs * ek + sn * fk) for uk, ek, fk in zip((ux, uy, uz), e1, e2)], axis=1
        )
    n = np.where((free & (nv > 0))[:, None], n_free, n_cap)
    n[empty] = np.nan
    return _qubit_kets(np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2]), np.arctan2(n[:, 1], n[:, 0]))


def _oracle_22(L, spec, side, resolution):
    TL = _pauli_tensor_coeffs(L)
    U = _qubit_bloch(*_qubit_angles(resolution, 2 * resolution - 1))
    if spec is not None:
        TC = _pauli_tensor_coeffs(spec.C)
        sense = 1 if side is HalfSpaceSide.LEQ else -1
    best = -np.inf
    for flip, lo in itertools.product((False, True), range(0, len(U), 1 << 16)):
        # row blocks keep the temporaries small
        w = U[lo : lo + (1 << 16)] @ (TL.T if flip else TL)
        if spec is None:
            vals = w[:, 0] + np.linalg.norm(w[:, 1:], axis=1)
        else:
            g = U[lo : lo + (1 << 16)] @ (TC.T if flip else TC)
            vals = _cap_max_values(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], spec.c, sense)
        best = max(best, float(vals.max()))
    if best == -np.inf:
        raise EmptyFeasibleSet("no feasible product state on the oracle grid")
    return best


def _party_ket_grid(d: int, resolution: int) -> np.ndarray:
    """All kets of one party on a hyperspherical angle grid (for d = 2, the
    kets of _qubit_angles(resolution, 2 * resolution - 1), bit for bit)."""
    mag_axes = [np.linspace(0.0, np.pi / 2, resolution)] * (d - 1)
    ph_axes = [np.linspace(0.0, 2.0 * np.pi, 2 * resolution - 1)] * (d - 1)
    grids = np.meshgrid(*mag_axes, *ph_axes, indexing="ij")
    flat = [g.ravel() for g in grids]
    n = flat[0].size
    kets = np.empty((n, d), dtype=complex)
    sin_run = np.ones(n)
    for k in range(d - 1):
        kets[:, k] = sin_run * np.cos(flat[k])
        sin_run = sin_run * np.sin(flat[k])
    kets[:, d - 1] = sin_run
    for k in range(1, d):
        kets[:, k] = kets[:, k] * np.exp(1j * flat[d - 2 + k])
    return kets


def _pair_grid_max(L, spec, sense, kets_a, kets_b):
    """Exhaustive feasibility-filtered max over the product of two ket grids."""
    dA, dB = L.dims
    XA = np.einsum("ni,nj->nij", kets_a.conj(), kets_a).reshape(len(kets_a), dA * dA)
    XB = np.einsum("nk,nl->nkl", kets_b.conj(), kets_b).reshape(len(kets_b), dB * dB)
    L2 = L.mat.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    if spec is not None:
        C2 = spec.C.mat.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    best = -np.inf
    for lo in range(0, len(kets_a), 4096):
        xa = XA[lo : lo + 4096]
        vals = (xa @ L2 @ XB.T).real
        if spec is not None:
            feas = sense * ((xa @ C2 @ XB.T).real - spec.c) <= CUT_TOL
            vals = np.where(feas, vals, -np.inf)
        best = max(best, float(vals.max()))
    return best


def grid_oracle_sup(
    L: HermitianOperator,
    spec: Optional[ConstraintSpec] = None,
    side: Optional[HalfSpaceSide] = None,
    resolution: int = 721,
) -> float:
    """Brute-force product-state supremum on per-party angle grids.

    Independent of the see-saw path: no iteration, no restarts. For qubit
    pairs the polar/azimuth grid of one party is scanned exhaustively while
    the other party is maximized in closed form over its (feasibility-cut)
    Bloch sphere; both orientations are scanned and the larger max wins.
    Higher local dimensions fall back to a full pair grid with
    hyperspherical angles and relative phases. The value is monotone
    non-decreasing under grid refinement with nested resolutions.
    """
    if len(L.dims) != 2:
        raise DimensionMismatch("bipartite operator required")
    if L.dim > ORACLE_MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {L.dim} too large for the grid oracle")
    if spec is not None and spec.C.dims != L.dims:
        raise DimensionMismatch("constraint operator lives on a different space")
    if spec is not None and side not in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
        raise ValueError("constrained oracle needs side leq or geq")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if L.dims == (2, 2):
        return _oracle_22(L, spec, side, resolution)
    dA, dB = L.dims
    ka = _party_ket_grid(dA, resolution)
    kb = _party_ket_grid(dB, resolution)
    if len(ka) * len(kb) > _GENERIC_PAIR_CAP:
        raise ValueError("resolution too fine for the generic pair grid; lower it")
    sense = 1 if (spec is None or side is HalfSpaceSide.LEQ) else -1
    best = _pair_grid_max(L, spec, sense, ka, kb)
    if best == -np.inf:
        raise EmptyFeasibleSet("no feasible product state on the oracle grid")
    return best


# ---------------------------------------------------------------------------
# constrained supremum
# ---------------------------------------------------------------------------


def _qubit_pair_constrained(L, spec, sense):
    """Constrained supremum over qubit product states by one exact reduction.

    For the outer party's Bloch vector n, f(n) is the inner party's
    closed-form maximum over its Bloch sphere cut by the constraint. f is
    scanned on the outer party's _PAIR_GRID (polar angles with both poles,
    azimuths without the 2 pi endpoint) with either party outer: where the
    optimum shrinks the inner cut to a point, f has a curved ridge in that
    orientation only.
    The 4 best grid points of each orientation seed a compass search on
    (theta, phi): move to the best improving point of the 3x3 stencil, else
    halve the step, until it is below COMPASS_STOP (Kolda, Lewis & Torczon,
    SIAM Rev. 45, 2003) or _COMPASS_MAX_STEPS stencils have run. Returns
    (value, argmax, True) at the best end point, or None when no grid
    point is feasible.
    """
    TL = _pauli_tensor_coeffs(L)
    TC = _pauli_tensor_coeffs(spec.C)

    def best_inner(n, flip, kernel=_cap_max_values):
        w = np.where(flip[:, None], n @ TL.T, n @ TL)
        g = np.where(flip[:, None], n @ TC.T, n @ TC)
        return kernel(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], spec.c, sense)

    tn, pn = _PAIR_GRID
    grid = _qubit_bloch(*_qubit_angles(tn, pn, phi_endpoint=False))
    flip = np.repeat([False, True], len(grid))
    vals = best_inner(np.vstack([grid, grid]), flip)
    if vals.max() == -np.inf:
        return None
    # 4 starts per orientation, searched in lockstep
    ks = np.concatenate([np.argsort(-half, kind="stable")[:4] for half in np.split(vals, 2)])
    flip = np.repeat([False, True], 4)
    fx = vals[ks + len(grid) * flip]
    step = np.array([np.pi / (tn - 1), 2 * np.pi / pn])
    stencil = step * np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    x = step * np.stack(divmod(ks, pn), axis=1)
    h = np.ones(len(ks))
    rows = np.arange(len(ks))
    for _ in range(_COMPASS_MAX_STEPS):
        live = h * step.max() >= COMPASS_STOP
        if not live.any():
            break
        cand = x[:, None] + h[:, None, None] * stencil
        nc = _qubit_bloch(cand[..., 0].ravel(), cand[..., 1].ravel())
        fv = best_inner(nc, np.repeat(flip, len(stencil))).reshape(len(ks), -1)
        j = fv.argmax(axis=1)
        up = live & (fv[rows, j] > fx)
        x[up], fx[up] = cand[rows, j][up], fv[rows, j][up]
        h[live & ~up] *= 0.5
    s = int(np.argmax(fx))
    kets, n = _qubit_kets(x[s, :1], x[s, 1:]), _qubit_bloch(x[s, :1], x[s, 1:])
    # only the winning row builds its maximiser
    outer = Ket.unit(kets[0])
    inner = Ket.unit(best_inner(n, flip[s : s + 1], _cap_argmax)[0])
    pk = ProductKet(a=inner, b=outer) if flip[s] else ProductKet(a=outer, b=inner)
    return expectation(L, pk), pk, True


def _quad(x, M):
    """<x|M|x> of every row of x, against one matrix M or a stack of them."""
    return np.einsum("...i,...ij,...j->...", x.conj(), M, x).real


def _bloch_coeffs(h):
    """(w0, v) of a stack of 2x2 Hermitian matrices: <y|h|y> = w0 + v.n."""
    t = np.einsum("rij,kji->rk", h, np.array(_PAULI)).real / 2
    return t[:, 0], t[:, 1:]


def _cut_top(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Row-wise unit maximiser of <x|M|x> subject to <x|N|x> <= 0.

    M and N are (R, d, d) Hermitian stacks. Where the top eigenvector of M
    is feasible it is the maximiser. Elsewhere a multiplier mu > 0 is
    bracketed, by doubling and then bisection, on the sign of <N> at the top
    eigenvector of M - mu N, which falls as mu grows. The problem has zero
    duality gap (Beck & Eldar, SIAM J. Optim. 17, 2006), so the maximiser
    lies in the span of the bracket's two eigenvectors, also where the top
    eigenvalue is degenerate at the multiplier; that span is a qubit, solved
    exactly by _cap_argmax with the cut at 0. Rows where doubling finds no
    feasible eigenvector are nan.
    """
    _, x = _hermitian_top(M)
    cut = np.flatnonzero(_quad(x, N) > 0)
    if cut.size == 0:
        return x
    M, N = M[cut], N[cut]

    def top(mu):
        _, y = _hermitian_top(M - mu[:, None, None] * N)
        return y, _quad(y, N)

    lo, x_lo = np.zeros(len(cut)), x[cut]
    hi = 1.0 + np.linalg.norm(M, axis=(1, 2)) / np.linalg.norm(N, axis=(1, 2))
    x_hi, g_hi = top(hi)
    for _ in range(_MU_DOUBLINGS):
        up = g_hi > 0
        if not up.any():
            break
        lo[up], x_lo[up] = hi[up], x_hi[up]
        hi[up] *= 2
        y, g = top(hi)
        x_hi[up], g_hi[up] = y[up], g[up]
    for _ in range(_MU_BISECTIONS):
        mid = (lo + hi) / 2
        y, g = top(mid)
        down = g <= 0
        hi[down], x_hi[down] = mid[down], y[down]
        lo[~down], x_lo[~down] = mid[~down], y[~down]
    Q = np.linalg.qr(np.stack([x_hi, x_lo], axis=2))[0]  # first column spans x_hi
    QH = Q.conj().transpose(0, 2, 1)
    y = _cap_argmax(*_bloch_coeffs(QH @ M @ Q), *_bloch_coeffs(QH @ N @ Q), 0.0, 1)
    x[cut] = np.einsum("rij,rj->ri", Q, y)
    x[cut[g_hi > 0]] = np.nan
    return x


def _constrained_seesaw(L, spec, sense, A0, B0):
    """Alternating exact constrained ascent from R starting product kets at once.

    As in _seesaw_batch, but each half step maximises the conditioned form
    of L under the conditioned cut sense*(C - c) <= 0 (_cut_top). A move is
    taken only when it is feasible and does not lower the row's value; an
    infeasible start counts as -inf, so its first feasible move is taken. A
    row retires once a sweep gains no more than SEESAW_TOL, with at most
    _SEESAW_MAX_ITER sweeps. Returns per-row arrays (values, A, B).
    """
    dA, dB = L.dims
    N = sense * (spec.C.mat - spec.c * np.eye(L.dim))
    M4, N4 = (T.reshape(dA, dB, dA, dB) for T in (L.mat, N))
    A = np.array(A0, dtype=complex)
    B = np.array(B0, dtype=complex)
    prod = np.einsum("ri,rk->rik", A, B).reshape(len(A), L.dim)
    vals = _quad(prod, L.mat)
    # a point on the cut lands within rounding of it, on either side
    slack = L.dim * np.finfo(float).eps * np.linalg.norm(N)
    vals[_quad(prod, N) > slack] = -np.inf
    live = np.arange(len(A))
    for _ in range(_SEESAW_MAX_ITER):
        before = vals[live]
        for X, Y, cond in ((B, A, "ri,ikjl,rj->rkl"), (A, B, "rk,ikjl,rl->rij")):
            y = Y[live]
            Mc, Nc = (np.einsum(cond, y.conj(), T, y) for T in (M4, N4))
            x = _cut_top(Mc, Nc)
            new = _quad(x, Mc)
            ok = (_quad(x, Nc) <= slack) & (new >= vals[live])
            X[live[ok]], vals[live[ok]] = x[ok], new[ok]
        live = live[vals[live] > before + SEESAW_TOL]
        if live.size == 0:
            break
    return vals, A, B


def _slerp(u: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    ov = np.vdot(u, v)
    if abs(ov) > SLERP_PHASE_TOL:
        v = v * (ov.conjugate() / abs(ov))  # align phases first
    w = (1 - t) * u + t * v
    return w / np.linalg.norm(w)  # |w|^2 >= 1/2 - 1e-15 for unit u, v and t in [0, 1]


def _dual_refine(L, spec, sense, base):
    """Cut point (a, b) via a multiplier root-find on the penalized see-saw.

    For mu >= 0 the see-saw maximum v(mu) of L - sense*mu*C gives the dual
    bound v(mu) + sense*mu*c on the side sense*(<C> - c) <= 0. The bracket
    starts at mu = 0 from base, the unconstrained optimum, which lies past
    the cut; each penalized see-saw continues from the party-A kets of the
    bracket ends, with no random starts. A sign-change bisection narrows
    the bracket to its crossing, and the feasible and infeasible ends are
    then bridged along a product-state path onto the cut, which restores
    attainment also where the crossing is a jump between branches. None
    when no multiplier reaches the feasible side.
    """
    dA, dB = L.dims
    CM, c = spec.C.mat, spec.c

    def gamma(a, b):
        prod = np.kron(a, b)
        return float(np.vdot(prod, CM @ prod).real)

    def solve(mu, A0):
        M4 = (L.mat - sense * mu * CM).reshape(dA, dB, dA, dB)
        vals, A, B, _, _ = _seesaw_batch(M4, A0)
        r = int(np.argmax(vals))
        return gamma(A[r], B[r]), (A[r], B[r])

    lo_mu, hi_mu = 0.0, 1.0
    lo_pt = (base.argmax.a.amplitudes, base.argmax.b.amplitudes)
    scale = max(1.0, abs(base.value))
    for _ in range(80):
        hi_gam, hi_pt = solve(hi_mu, [lo_pt[0]])
        if sense * (hi_gam - c) <= 0.0:
            break
        lo_mu, lo_pt = hi_mu, hi_pt
        hi_mu *= 2.0
        if hi_mu > MU_CAP * scale:
            return None
    else:
        return None
    for _ in range(90):
        mid = 0.5 * (lo_mu + hi_mu)
        gam, pt = solve(mid, [lo_pt[0], hi_pt[0]])
        if sense * (gam - c) <= 0.0:
            hi_mu, hi_pt = mid, pt
        else:
            lo_mu, lo_pt = mid, pt
        if hi_mu - lo_mu < MU_STOP * max(1.0, hi_mu):
            break
    # bridge the two ends through product states onto the cut
    (af, bf), (ai, bi) = hi_pt, lo_pt
    tlo, thi = 0.0, 1.0  # t=0 feasible side, t=1 infeasible side
    for _ in range(200):
        tm = 0.5 * (tlo + thi)
        if sense * (gamma(_slerp(af, ai, tm), _slerp(bf, bi, tm)) - c) <= 0.0:
            tlo = tm
        else:
            thi = tm
    return _slerp(af, ai, tlo), _slerp(bf, bi, tlo)


def _generic_constrained(L, spec, sense, cfg, base):
    """_constrained_seesaw from the best feasible points of 200k seeded
    random product states and from the cut point of the multiplier
    root-find, which starts at base, the infeasible unconstrained optimum,
    and draws no further random starts; returns (value, argmax, converged)
    of the first best start, or None when no sample point is feasible."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EED)))
    A, B = random_product_batch(L.dims, 200_000, rng)
    vals, cons = (product_expectations(T, A, B) for T in (L, spec.C))
    feas = np.flatnonzero(sense * (cons - spec.c) <= BOUNDARY_TOL)
    if feas.size == 0:
        return None
    top = feas[np.argsort(-vals[feas], kind="stable")[:_CONSTRAINED_STARTS]]
    A0, B0 = A[top], B[top]
    refined = _dual_refine(L, spec, sense, base)
    if refined is not None:
        A0, B0 = np.vstack([A0, refined[0]]), np.vstack([B0, refined[1]])
    vals, A, B = _constrained_seesaw(L, spec, sense, A0, B0)
    r = int(np.argmax(vals))
    pk = ProductKet(a=Ket.unit(A[r]), b=Ket.unit(B[r]))
    return expectation(L, pk), pk, refined is not None


def sup_product_constrained(
    L: HermitianOperator,
    spec: ConstraintSpec,
    side: HalfSpaceSide,
    cfg: OptimizerConfig,
) -> OptimizationResult:
    """Supremum of <a,b|L|a,b> over product kets on one constraint side.

    Stage 1 returns the unconstrained optimum whenever it satisfies the side
    to within the boundary band BOUNDARY_TOL. Otherwise, for qubit
    pairs, one party is maximised in closed form over its Bloch sphere cut
    by the constraint and the other by the fixed _PAIR_GRID refined by
    compass search, with either party outer (_qubit_pair_constrained); the
    result is converged whenever a grid point is feasible. Beyond qubit
    pairs, a constrained see-saw runs from the 16 best feasible points of a
    random product sample and from the cut point of a multiplier root-find,
    which starts at the stage-1 optimum, continues from its bracket ends,
    draws no random starts and always bridges its two ends onto the cut;
    each half step maximises one party exactly under the conditioned
    constraint (_cut_top), and the result is converged when the root-find
    returned (_generic_constrained). Only cfg.restarts and cfg.seed are
    read; the see-saw stopping rule is SEESAW_TOL and _SEESAW_MAX_ITER.
    Raises EmptyFeasibleSet when the qubit-pair grid or the random sample
    holds no feasible point.
    """
    if side not in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
        raise ValueError("side must be leq or geq")
    if spec.C.dims != L.dims:
        raise DimensionMismatch("constraint operator lives on a different space")
    sense = 1 if side is HalfSpaceSide.LEQ else -1
    base = sup_product_unconstrained(L, cfg)
    cval = expectation(spec.C, base.argmax)
    if sense * (cval - spec.c) <= BOUNDARY_TOL:
        return replace(base, constraint_value=cval)

    if L.dims == (2, 2):
        found = _qubit_pair_constrained(L, spec, sense)
    else:
        found = _generic_constrained(L, spec, sense, cfg, base)
    if found is None:
        where = "qubit-pair grid" if L.dims == (2, 2) else "random product sample"
        raise EmptyFeasibleSet(f"no product state on the {where} satisfies the constraint side")
    value, pk, converged = found
    return OptimizationResult(
        value=float(value),
        argmax=pk,
        constraint_value=float(expectation(spec.C, pk)),
        converged=converged,
        iterations=base.iterations,
        method="hybrid",
    )


# ---------------------------------------------------------------------------
# case classification, alpha0, identity residual
# ---------------------------------------------------------------------------


def classify_case(L: HermitianOperator, spec: ConstraintSpec, cfg: OptimizerConfig) -> CaseLabel:
    """Locate the unconstrained optima of L and L - C relative to the cut.

    The optimum of L must not sit strictly on the <= side (that is the
    standing sign convention; callers should swap the sides if it does).
    """
    opt_l = sup_product_unconstrained(L, cfg)
    c_at_l = expectation(spec.C, opt_l.argmax)
    if c_at_l < spec.c - BOUNDARY_TOL:
        raise AssumptionViolated(
            f"optimum of the test operator has constraint value {c_at_l!r} < c; "
            "relabel the half-spaces"
        )
    opt_d = sup_product_unconstrained(L - spec.C, cfg)
    c_at_d = expectation(spec.C, opt_d.argmax)
    if (
        abs(c_at_l - spec.c) <= BOUNDARY_TOL
        or abs(c_at_d - spec.c) <= BOUNDARY_TOL
    ):
        return CaseLabel.DEGENERATE
    return CaseLabel.CASE_I if c_at_d > spec.c else CaseLabel.CASE_II


def _alpha_feasible(L, spec, cfg, p_c, alpha):
    """Whether the rotated witness bound still dominates on the <= side."""
    return _alpha0_probe(L, spec, cfg, p_c, normalised_rotation(spec, L, alpha)[1])[0]


def _alpha0_probe(L, spec, cfg, p_c, lam):
    """Validity of the rotated witness at lam, plus a tangent step and an aim when it fails.

    lam = alpha/(1-alpha) runs over [-1, 0] as alpha runs over [-inf, 0];
    lam = -1 is the limit witness L - C. The probe is evaluated on
    nbar = lam*C + L, the rotated operator divided by 1 - alpha, so the
    comparison stays well scaled. A failing probe's argmax s is feasible,
    so the validity margin F(lam) = sup_{<C> <= c} <nbar> - lam c - p_c,
    convex in lam, obeys F(lam) >= (<L>_s - p_c) + lam (<C>_s - c). Where
    that line meets tol = ALPHA0_FEAS_TOL, at lam_t, every lam < lam_t is
    certified invalid. F has a double root at the plateau edge, so the
    tangent only halves the distance to the flip; Newton on
    sqrt(F) - sqrt(tol), exact for a quadratic margin, crosses at
    lam_s = lam + 2 sqrt(F) (sqrt(F) - sqrt(tol)) / (c - <C>_s) >= lam_t.
    The aim lies _ALPHA0_AIM of the way from lam_t to lam_s, short of an
    overshoot onto the flat part of F, where a valid probe gives no tangent.
    Returns (valid, (lam_t, lam_aim)); the pair is None for a valid probe,
    for <C>_s >= c (no decreasing line), and for a non-finite step.
    """
    bound = lam * spec.c + p_c
    res = sup_product_constrained(lam * spec.C + L, spec, HalfSpaceSide.LEQ, cfg)
    if res.value <= bound + ALPHA0_FEAS_TOL:
        return True, None
    slope = res.constraint_value - spec.c
    if not slope < 0:
        return False, None
    lam_t = (ALPHA0_FEAS_TOL - (expectation(L, res.argmax) - p_c)) / slope
    root = math.sqrt(res.value - bound)
    lam_s = lam - 2.0 * root * (root - math.sqrt(ALPHA0_FEAS_TOL)) / slope
    lam_a = lam_t + _ALPHA0_AIM * (lam_s - lam_t)
    if not (np.isfinite(lam_t) and np.isfinite(lam_a)):
        return False, None
    return False, (lam_t, lam_a)


def compute_alpha0(
    L: HermitianOperator,
    spec: ConstraintSpec,
    cfg: OptimizerConfig,
    p_c: Optional[float] = None,
) -> Optional[float]:
    """Smallest rotation parameter whose witness stays valid on the <= side.

    Searches lam = alpha/(1-alpha) on [-1, 0], the whole rotated family, for
    the flip of the monotone predicate of _alpha0_probe. The first probe is
    lam = -1, the limit witness L - C; None means it is valid, and so every
    member is. Otherwise safeguarded Newton (Dinkelbach) steps run on the
    validity margin, convex in lam: each failing probe's tangent crossing
    is a certified lower end of the bracket, and the next probe goes to its
    aim (see _alpha0_probe). An aim within half the ALPHA0_WIDTH (in alpha)
    of the new lower end, or at or above the valid end, is replaced by one
    closing probe half a width above the lower end, or at the next double
    if that is farther. Bisection in lam takes over when a step is missing
    or leaves the bracket.

    Returns the alpha of the valid end of a bracket narrower than
    ALPHA0_WIDTH in alpha, or of one with no double strictly between its
    ends: for |alpha| beyond about 1e5 the lam grid near -1 is coarser than
    ALPHA0_WIDTH in alpha.
    Raises ValueError when the predicate fails at alpha = 0 (inconsistent
    p_c), which is probed only while no smaller lam has been found valid.
    """
    if p_c is None:
        p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg).value
    valid, step = _alpha0_probe(L, spec, cfg, p_c, -1.0)
    if valid:
        return None
    width = ALPHA0_WIDTH  # in alpha; alpha(hi) - alpha(lo) = (hi - lo) / ((1 + lo) (1 + hi))
    tangents_left = _ALPHA0_MAX_TANGENTS
    lo, hi = -1.0, None  # every lam below lo fails; hi: least lam found valid
    while True:
        top = 0.0 if hi is None else hi
        if step is not None and lo < step[0] < top and tangents_left:
            tangents_left -= 1
            (lo, aim), step = step, None
            if top - lo <= width * (1.0 + lo) * (1.0 + top):
                continue
            a = lo / (1.0 + lo) + 0.5 * width
            close = max(a / (1.0 - a), math.nextafter(lo, 0.0))
            x = aim if close < aim < top else close
        elif hi is None:
            x = 0.0  # bisection needs a valid upper end
        elif hi - lo > width * (1.0 + lo) * (1.0 + hi):
            x = 0.5 * (lo + hi)
        else:
            break
        if hi is not None and not lo < x < hi:
            break  # no double strictly between the ends
        valid, step = _alpha0_probe(L, spec, cfg, p_c, x)
        if valid:
            hi = x
        elif x == 0.0:
            raise ValueError("feasibility fails at alpha = 0; inconsistent inputs")
        else:
            lo = x
    return float(hi / (1.0 + hi))


def rotated_bound_residual(
    L: HermitianOperator, spec: ConstraintSpec, alpha: float, cfg: OptimizerConfig
) -> float:
    """Gap between the constrained supremum of the rotated operator and its affine form.

    The identity requires the unconstrained optima of both the original and
    the rotated test operator to stay on the >= side; a violation is
    reported as a warning and the residual is returned regardless. Both
    optima are read from the constrained solves: a "seesaw" result is the
    unconstrained optimum with its constraint value, and a "hybrid" one
    means that optimum lay beyond the boundary band on the >= side.
    """
    if not -math.inf < alpha < 1.0:
        raise ValueError("alpha must be finite and < 1")
    pc_res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
    scale, _, nbar = normalised_rotation(spec, L, alpha)
    # nbar is a positive multiple of the rotated operator: same argmax
    res = sup_product_constrained(nbar, spec, HalfSpaceSide.LEQ, cfg)
    for name, r in (("test", pc_res), ("rotated test", res)):
        if r.method == "seesaw" and r.constraint_value < spec.c - BOUNDARY_TOL:
            warnings.warn(
                f"optimum of the {name} operator crosses to the <= side; "
                "the affine identity is not guaranteed",
                RuntimeWarning,
                stacklevel=2,
            )
    affine = alpha * spec.c + (1.0 - alpha) * pc_res.value
    return abs(scale * res.value - affine)
