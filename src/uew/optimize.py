"""Suprema of expectation values over (constrained) pure product states.

Three cooperating search mechanisms live here:

* a see-saw that alternates exact single-party eigenvector updates, used
  for unconstrained suprema; all restarts run as one (R, d, d) stack, one
  einsum and one batched ``numpy.linalg.eigh`` per half step;
* an exhaustive per-party angle-grid oracle, kept deliberately independent
  of the see-saw so the two can cross-check each other;
* a constrained pipeline (feasibility short-circuit, coarse feasible grid
  whose qubit pair scan skips rows that a closed-form bound rules out,
  coordinate-wise golden-section polish, then a Lagrange-multiplier
  root-find whose zero duality gap certifies boundary optima, finished by
  an exact alternation for qubit pairs that pins the constraint exactly).

All randomness flows from explicit seeds; identical configs give
bit-identical results.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linalg import (
    DimensionMismatch,
    HermitianOperator,
    Ket,
    _lex_key,
    expectation,
)
from .states import ProductKet, random_product_batch
from .witness import ConstraintSpec, HalfSpaceSide, combine_alpha

ALPHA0_FEAS_TOL = 1e-8
BOUNDARY_CLASSIFY_TOL = 1e-9
ORACLE_MAX_TOTAL_DIM = 9
_PAIR_GRID_CAP = 4096          # max grid points per party in the coarse stage
_GENERIC_PAIR_CAP = 1 << 24    # max pair evaluations in the generic grid oracle


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
    restarts: int = 64
    grid_theta: int = 181
    grid_phi: int = 360
    seesaw_tol: float = 1e-11
    seesaw_max_iter: int = 500
    feas_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.grid_theta < 2 or self.grid_phi < 2:
            raise ValueError("grids need at least 2 points")
        if min(self.seesaw_tol, self.feas_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.seesaw_max_iter < 1:
            raise ValueError("seesaw_max_iter must be positive")


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


def _seesaw_batch(M4: np.ndarray, starts, tol: float, max_iter: int):
    """Alternating eigenvector ascent from R starting product kets at once.

    ``starts`` holds R pairs (a, b); their kets are stacked as (R, dA) and
    (R, dB). Each half step is an exact maximization of the conditioned
    quadratic form, so no row's value ever decreases. A row retires once
    its gain drops below ``tol``, keeping its value and iteration count.
    Returns per-row arrays (values, A, B, iterations, converged).
    """
    R = len(starts)
    A = np.array([a for a, _ in starts], dtype=complex)
    B = np.array([b for _, b in starts], dtype=complex)
    vals = np.full(R, -np.inf)
    its = np.full(R, max_iter)
    conv = np.zeros(R, dtype=bool)
    live = np.arange(R)
    for it in range(1, max_iter + 1):
        a = A[live]
        _, b = _hermitian_top(np.einsum("ri,ikjl,rj->rkl", a.conj(), M4, a))
        new, a = _hermitian_top(np.einsum("rk,ikjl,rl->rij", b.conj(), M4, b))
        done = new - vals[live] < tol
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


def _pk_key(a: np.ndarray, b: np.ndarray):
    ka = Ket.unit(a)
    kb = Ket.unit(b)
    return _lex_key(np.concatenate([ka.amplitudes, kb.amplitudes]))


def sup_product_unconstrained(L: HermitianOperator, cfg: OptimizerConfig) -> OptimizationResult:
    """Supremum of <a,b|L|a,b> over product kets via restarted see-saw.

    Restarts are reduced deterministically: best value wins, value ties
    within 1e-12 go to the lexicographically smallest canonicalized argmax.
    """
    if len(L.dims) != 2:
        raise DimensionMismatch("bipartite operator required")
    dA, dB = L.dims
    starts = []
    for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(ss)
        starts.append((_random_unit(rng, dA), _random_unit(rng, dB)))
    vals, A, B, its, conv = _seesaw_batch(
        L.mat.reshape(dA, dB, dA, dB), starts, cfg.seesaw_tol, cfg.seesaw_max_iter
    )
    best, best_key = 0, None
    for r in range(1, cfg.restarts):
        if vals[r] > vals[best] + 1e-12:
            best, best_key = r, None
        elif abs(vals[r] - vals[best]) <= 1e-12:
            if best_key is None:
                best_key = _pk_key(A[best], B[best])
            key = _pk_key(A[r], B[r])
            if key < best_key:
                best, best_key = r, key
    val, a, b = vals[best], A[best], B[best]
    its, conv = int(its[best]), bool(conv[best])
    pk = ProductKet(a=Ket.unit(a), b=Ket.unit(b))
    return OptimizationResult(
        value=float(val),
        argmax=pk,
        constraint_value=None,
        converged=conv,
        iterations=its,
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


def _pauli_tensor_coeffs(M: HermitianOperator) -> np.ndarray:
    """Real 4x4 coefficients of a two-qubit operator in the Pauli basis."""
    T = np.empty((4, 4))
    mat = M.mat
    for i in range(4):
        for j in range(4):
            T[i, j] = float(np.trace(mat @ np.kron(_PAULI[i], _PAULI[j])).real) / 4.0
    return T


def _qubit_coeffs(M2: np.ndarray):
    """Split a 2x2 Hermitian matrix as w0*I + w.sigma."""
    w0 = (M2[0, 0].real + M2[1, 1].real) / 2.0
    w = np.array(
        [M2[0, 1].real, -M2[0, 1].imag, (M2[0, 0].real - M2[1, 1].real) / 2.0]
    )
    return w0, w


def _bloch_ket(n: np.ndarray) -> np.ndarray:
    th = np.arccos(np.clip(n[2], -1.0, 1.0))
    ph = np.arctan2(n[1], n[0])
    return np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])


def _max_linear_on_cap(w0: float, w: np.ndarray, u: np.ndarray, t: float):
    """Maximize w0 + w.n over unit n with u.n <= t (closed form).

    Returns (value, n) or None when the spherical cap is empty.
    """
    nu = np.linalg.norm(u)
    nw = np.linalg.norm(w)
    if nu < 1e-14:
        if t < -1e-12:
            return None
        n = w / nw if nw > 1e-300 else np.array([0.0, 0.0, 1.0])
        return w0 + nw, n
    if t < -nu:
        return None
    if nw < 1e-300:
        n = np.array([0.0, 0.0, 1.0])
        if u @ n > t:
            n = -u / nu
        return w0, n
    nstar = w / nw
    if u @ nstar <= t:
        return w0 + nw, nstar
    uhat = u / nu
    ratio = np.clip(t / nu, -1.0, 1.0)
    wperp = w - (w @ uhat) * uhat
    npw = np.linalg.norm(wperp)
    if npw < 1e-300:
        m = np.array([1.0, 0.0, 0.0]) if abs(uhat[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        m = m - (m @ uhat) * uhat
        m /= np.linalg.norm(m)
    else:
        m = wperp / npw
    n = ratio * uhat + np.sqrt(max(0.0, 1.0 - ratio * ratio)) * m
    return w0 + w @ n, n


def _alternate_qubit_constrained(
    LM: np.ndarray,
    CM: np.ndarray,
    c: float,
    sense: int,
    a: np.ndarray,
    b: np.ndarray,
    max_iter: int = 5000,
    tol: float = 1e-15,
):
    """Block ascent with the exact constrained single-qubit subproblem.

    Every accepted half step satisfies the constraint exactly (boundary
    points land on <C> = c with no slack), so this is used as the final
    refinement once the right basin is known.
    """
    L4 = LM.reshape(2, 2, 2, 2)
    C4 = CM.reshape(2, 2, 2, 2)
    val = -np.inf
    for it in range(1, max_iter + 1):
        mn = np.einsum("i,ikjl,j->kl", a.conj(), L4, a)
        mc = np.einsum("i,ikjl,j->kl", a.conj(), C4, a)
        w0, w = _qubit_coeffs(mn)
        g0, g = _qubit_coeffs(mc)
        r = _max_linear_on_cap(w0, w, sense * g, sense * (c - g0))
        if r is None:
            return None
        _, n = r
        b = _bloch_ket(n)
        mn = np.einsum("k,ikjl,l->ij", b.conj(), L4, b)
        mc = np.einsum("k,ikjl,l->ij", b.conj(), C4, b)
        w0, w = _qubit_coeffs(mn)
        g0, g = _qubit_coeffs(mc)
        r = _max_linear_on_cap(w0, w, sense * g, sense * (c - g0))
        if r is None:
            return None
        va, n = r
        a = _bloch_ket(n)
        if va - val < tol and it > 3:
            return va, a, b, it
        val = va
    return val, a, b, max_iter


# ---------------------------------------------------------------------------
# angle parametrization (grid oracle and polish)
# ---------------------------------------------------------------------------


def _ket_from_angles(mags: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Hyperspherical ket: d-1 magnitude angles in [0, pi/2], d-1 phases.

    For a qubit this is cos(m)|0> + e^{ip} sin(m)|1> with m = theta/2.
    """
    d = len(mags) + 1
    amps = np.ones(d, dtype=complex)
    sin_run = 1.0
    for k in range(d - 1):
        amps[k] = sin_run * np.cos(mags[k])
        sin_run *= np.sin(mags[k])
    amps[d - 1] = sin_run
    amps[1:] *= np.exp(1j * phases)
    return amps


def _angles_from_ket(v: np.ndarray):
    d = v.size
    mags = np.empty(d - 1)
    tail = 1.0
    for k in range(d - 1):
        ak = min(1.0, abs(v[k]) / np.sqrt(tail)) if tail > 1e-300 else 1.0
        mags[k] = np.arccos(ak)
        tail = max(tail - abs(v[k]) ** 2, 0.0)
    phases = np.angle(v[1:])
    return mags, phases


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def _qubit_grid(n_theta: int, n_phi: int, phi_endpoint: bool = True):
    """Qubit kets cos(t/2)|0> + e^{ip} sin(t/2)|1> on a polar/azimuth grid.

    theta takes n_theta points on [0, pi] with both ends; phi takes n_phi
    points from 0, ending at 2 pi only when ``phi_endpoint``. Points run
    theta-major. Returns the (N, 2) kets and their (N, 4) Bloch 4-vectors
    (1, n), so that <k|X|k> = bloch @ (Pauli coefficients of X).
    """
    th = np.linspace(0.0, np.pi, n_theta)[:, None]
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=phi_endpoint)[None, :]
    shape = (n_theta, n_phi)
    kets = np.stack(
        [np.broadcast_to(np.cos(th / 2), shape).ravel(), (np.exp(1j * ph) * np.sin(th / 2)).ravel()],
        axis=-1,
    )
    st = np.sin(th)
    bloch = np.stack(
        [
            np.ones(n_theta * n_phi),
            (st * np.cos(ph)).ravel(),
            (st * np.sin(ph)).ravel(),
            np.broadcast_to(np.cos(th), shape).ravel(),
        ],
        axis=-1,
    )
    return kets, bloch


def _cap_max_vectorized(w0, v, g0, u, c, sense):
    """Row-wise closed-form max over the Bloch sphere cut by a half-space."""
    nv = np.linalg.norm(v, axis=1)
    us = sense * u
    t = sense * (c - g0)
    nu = np.linalg.norm(us, axis=1)
    uv = np.einsum("ij,ij->i", us, v)
    val_free = w0 + nv
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nu2 = np.maximum(nu, 1e-300)
        ratio = np.clip(t / nu2, -1.0, 1.0)
        along = uv / nu2**2
        # |v| sin(angle to u), from the difference vector: nv**2 - (uv/nu)**2
        # cancels to ~sqrt(eps)*|v| when v is nearly parallel to u.
        vperp = np.linalg.norm(v - along[:, None] * us, axis=1)
        val_cap = w0 + along * t + vperp * np.sqrt(np.maximum(1.0 - ratio**2, 0.0))
    feas_free = uv / np.maximum(nv, 1e-300) <= t
    val = np.where(feas_free, val_free, val_cap)
    val = np.where(t < -nu - 1e-15, -np.inf, val)
    tiny = nu < 1e-14
    val = np.where(tiny & (t >= -1e-12), val_free, val)
    val = np.where(tiny & (t < -1e-12), -np.inf, val)
    return val


def _oracle_22(L, spec, side, resolution):
    TL = _pauli_tensor_coeffs(L)
    _, U = _qubit_grid(resolution, 2 * resolution - 1)
    if spec is not None:
        TC = _pauli_tensor_coeffs(spec.C)
        sense = 1 if side is HalfSpaceSide.LEQ else -1
    best = -np.inf
    for flip in (False, True):
        Ta = TL.T if flip else TL
        w = U @ Ta
        if spec is None:
            vals = w[:, 0] + np.linalg.norm(w[:, 1:], axis=1)
        else:
            g = U @ (TC.T if flip else TC)
            vals = _cap_max_vectorized(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], spec.c, sense)
        m = float(vals.max())
        best = max(best, m)
    if best == -np.inf:
        raise EmptyFeasibleSet("no feasible product state on the oracle grid")
    return best


def _party_ket_grid(d: int, resolution: int) -> np.ndarray:
    """All kets of one party on a hyperspherical angle grid."""
    if d == 2:
        return _qubit_grid(resolution, 2 * resolution - 1)[0]
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


def _pair_grid_max(L, spec, sense, kets_a, kets_b, chunk=4096):
    """Exhaustive feasibility-filtered max over the product of two ket grids."""
    dA, dB = L.dims
    XA = np.einsum("ni,nj->nij", kets_a.conj(), kets_a).reshape(len(kets_a), dA * dA)
    XB = np.einsum("nk,nl->nkl", kets_b.conj(), kets_b).reshape(len(kets_b), dB * dB)
    L2 = L.mat.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    if spec is not None:
        C2 = spec.C.mat.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    best = -np.inf
    arg = None
    for lo in range(0, len(kets_a), chunk):
        xa = XA[lo : lo + chunk]
        vals = (xa @ L2 @ XB.T).real
        if spec is not None:
            feas = sense * ((xa @ C2 @ XB.T).real - spec.c) <= 1e-15
            vals = np.where(feas, vals, -np.inf)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best:
            best = float(vals[i, j])
            arg = (kets_a[lo + i], kets_b[j])
    return best, arg


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
    best, _ = _pair_grid_max(L, spec, sense, ka, kb)
    if best == -np.inf:
        raise EmptyFeasibleSet("no feasible product state on the oracle grid")
    return best


# ---------------------------------------------------------------------------
# constrained supremum
# ---------------------------------------------------------------------------


def _pruned_pair_grid_max(L, spec, sense, kets, bloch):
    """``_pair_grid_max`` over the qubit pair grid kets x kets, scanning only
    the party-A rows that can hold its maximum.

    Each row's upper bound is the closed-form maximum over party B's whole
    Bloch sphere cut by the constraint, with the cut loosened past the
    grid's 1e-15 feasibility tolerance and the rounding of both
    computations. A full scan of the 16 rows with the highest bounds gives
    a lower bound; rows whose bound falls short of it cannot hold a
    maximum and are skipped (bound-based pruning, Horst & Tuy, Global
    Optimization). The rest, and the 16 scanned rows, keep their order, so
    the row-major first-maximum rule picks the same pair as the full scan,
    and the result never falls below the lower bound.
    """
    TL = _pauli_tensor_coeffs(L)
    TC = _pauli_tensor_coeffs(spec.C)
    w = bloch @ TL
    g = bloch @ TC
    slack_c = 1e-15 + 1e-12 * (1.0 + np.abs(TC).sum() + abs(spec.c))
    bound = _cap_max_vectorized(
        w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], spec.c + sense * slack_c, sense
    )
    top = np.argsort(-bound, kind="stable")[:16]
    lower, _ = _pair_grid_max(L, spec, sense, kets[np.sort(top)], kets)
    slack_v = 1e-12 * (1.0 + np.abs(TL).sum())
    keep = np.isfinite(bound) & (bound >= lower - slack_v)
    keep[top] = True
    keep = np.flatnonzero(keep)
    return _pair_grid_max(L, spec, sense, kets[keep], kets, chunk=1024)


def _coarse_feasible_seed(L, spec, sense, cfg):
    """Feasibility-filtered coarse grid stage; returns (value, (a, b)) or None."""
    dA, dB = L.dims
    if (dA, dB) == (2, 2):
        total = cfg.grid_theta * cfg.grid_phi
        shrink = min(1.0, np.sqrt(_PAIR_GRID_CAP / total))
        tn = max(2, int(round(cfg.grid_theta * shrink)))
        pn = max(2, int(round(cfg.grid_phi * shrink)))
        kets, bloch = _qubit_grid(tn, pn, phi_endpoint=False)
        best, arg = _pruned_pair_grid_max(L, spec, sense, kets, bloch)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EED)))
        n = 200_000
        A, B = random_product_batch(L.dims, n, rng)
        prod = np.einsum("ni,nk->nik", A, B).reshape(n, dA * dB)
        vals = np.einsum("ni,ij,nj->n", prod.conj(), L.mat, prod).real
        cons = np.einsum("ni,ij,nj->n", prod.conj(), spec.C.mat, prod).real
        feas = sense * (cons - spec.c) <= cfg.feas_tol
        if not feas.any():
            return None
        idx = np.flatnonzero(feas)[np.argmax(vals[feas])]
        best, arg = float(vals[idx]), (A[idx], B[idx])
    if best == -np.inf or arg is None:
        return None
    return best, arg


def _golden_max(f, lo, hi, iters=60):
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _golden_polish(L, spec, sense, cfg, a, b, sweeps=25):
    """Coordinate-wise golden-section ascent over the product angles.

    Infeasible proposals score -inf (exact penalty), so only feasible
    improvements are ever accepted.
    """
    dA, dB = L.dims
    coords = []
    for v, d in ((a, dA), (b, dB)):
        mags, phases = _angles_from_ket(v)
        coords.extend(list(mags) + list(phases))
    n_mag = {0: dA - 1, 1: dB - 1}
    M4 = L.mat.reshape(dA, dB, dA, dB)
    C4 = spec.C.mat.reshape(dA, dB, dA, dB)

    def kets_of(x):
        xa = x[: 2 * (dA - 1)]
        xb = x[2 * (dA - 1) :]
        va = _ket_from_angles(np.asarray(xa[: dA - 1]), np.asarray(xa[dA - 1 :]))
        vb = _ket_from_angles(np.asarray(xb[: dB - 1]), np.asarray(xb[dB - 1 :]))
        return va, vb

    def score(x):
        va, vb = kets_of(x)
        cons = np.einsum("i,k,ikjl,j,l->", va.conj(), vb.conj(), C4, va, vb).real
        if sense * (cons - spec.c) > cfg.feas_tol:
            return -np.inf
        return np.einsum("i,k,ikjl,j,l->", va.conj(), vb.conj(), M4, va, vb).real

    x = list(coords)
    cur = score(x)
    n_a = 2 * (dA - 1)
    for _ in range(sweeps):
        prev = cur
        for k in range(len(x)):
            local = k if k < n_a else k - n_a
            is_mag = local < (n_mag[0] if k < n_a else n_mag[1])
            lo, hi = (0.0, np.pi / 2) if is_mag else (0.0, 2.0 * np.pi)

            def f(t, k=k):
                y = list(x)
                y[k] = t
                return score(y)

            t, ft = _golden_max(f, lo, hi)
            if ft > cur:
                x[k] = t
                cur = ft
        if cur - prev < 1e-12:
            break
    va, vb = kets_of(x)
    return cur, va, vb


def _warm_seesaw(M4, starts, extra_rngs, tol, max_iter):
    """Best see-saw value over warm starts followed by fresh random draws.

    All starts run as one batch; the first maximum in start order wins.
    """
    dA, dB = M4.shape[0], M4.shape[1]
    starts = list(starts) + [(_random_unit(rng, dA), _random_unit(rng, dB)) for rng in extra_rngs]
    vals, A, B, _, _ = _seesaw_batch(M4, starts, tol, max_iter)
    r = int(np.argmax(vals))
    return vals[r], A[r], B[r]


def _slerp(u: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    ov = np.vdot(u, v)
    if abs(ov) > 1e-15:
        v = v * (ov.conjugate() / abs(ov))  # align phases first
    w = (1 - t) * u + t * v
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        return u
    return w / nw


def _dual_refine(L, spec, sense, cfg, a_seed, b_seed):
    """Boundary optimum via a multiplier root-find on the penalized see-saw.

    For mu >= 0 the see-saw maximum v(mu) of L - sense*mu*C gives the dual
    bound v(mu) + mu*sense_adjusted_c; when the penalized optimizer lands on
    <C> = c the duality gap vanishes and the point is a certified global
    constrained optimum. A sign-change bisection tracks that crossing; if
    the crossing is a jump between branches, the two branch endpoints are
    bridged along a product-state path to restore attainment.
    """
    dA, dB = L.dims
    M = L.mat
    CM = spec.C.mat
    c = spec.c
    seeds = np.random.SeedSequence((cfg.seed, 0xD0A1)).spawn(64)
    seed_i = 0

    def fresh(k):
        nonlocal seed_i
        out = [np.random.default_rng(seeds[(seed_i + j) % 64]) for j in range(k)]
        seed_i += k
        return out

    def solve(mu, warm):
        M4 = (M - sense * mu * CM).reshape(dA, dB, dA, dB)
        val, a, b = _warm_seesaw(M4, warm, fresh(3), cfg.seesaw_tol, cfg.seesaw_max_iter)
        prod = np.kron(a, b)
        gam = float(np.vdot(prod, CM @ prod).real)
        lval = float(np.vdot(prod, M @ prod).real)
        return gam, lval, a, b

    warm = [(a_seed, b_seed)]
    gam0, l0, a0, b0 = solve(0.0, warm)
    if sense * (gam0 - c) <= cfg.feas_tol:
        return l0, a0, b0, True  # constraint not active after all
    lo_mu, lo_pt = 0.0, (a0, b0)
    hi_mu = 1.0
    hi_pt = None
    scale = max(1.0, abs(l0))
    for _ in range(80):
        gam, lval, a, b = solve(hi_mu, [lo_pt] + warm)
        if sense * (gam - c) <= 0.0:
            hi_pt = (a, b, gam, lval)
            break
        lo_mu, lo_pt = hi_mu, (a, b)
        hi_mu *= 2.0
        if hi_mu > 1e9 * scale:
            return None
    if hi_pt is None:
        return None
    lo_pt_full = None
    for _ in range(90):
        mid = 0.5 * (lo_mu + hi_mu)
        gam, lval, a, b = solve(mid, [lo_pt, hi_pt[:2]])
        if sense * (gam - c) <= 0.0:
            hi_mu, hi_pt = mid, (a, b, gam, lval)
        else:
            lo_mu, lo_pt = mid, (a, b)
            lo_pt_full = (a, b, gam, lval)
        if hi_mu - lo_mu < 1e-14 * max(1.0, hi_mu):
            break
    a, b, gam, lval = hi_pt
    if abs(gam - c) > 1e-7 and lo_pt_full is not None:
        # branch jump: bridge the two endpoints through product states
        af, bf, gf, _ = hi_pt
        ai, bi, gi, _ = lo_pt_full

        def gamma_at(t):
            va, vb = _slerp(af, ai, t), _slerp(bf, bi, t)
            prod = np.kron(va, vb)
            return float(np.vdot(prod, CM @ prod).real), va, vb

        tlo, thi = 0.0, 1.0  # t=0 feasible side, t=1 infeasible side
        for _ in range(200):
            tm = 0.5 * (tlo + thi)
            g, va, vb = gamma_at(tm)
            if sense * (g - c) <= 0.0:
                tlo = tm
            else:
                thi = tm
        g, a, b = gamma_at(tlo)
        prod = np.kron(a, b)
        lval = float(np.vdot(prod, M @ prod).real)
    return lval, a, b, True


def sup_product_constrained(
    L: HermitianOperator,
    spec: ConstraintSpec,
    side: HalfSpaceSide,
    cfg: OptimizerConfig,
) -> OptimizationResult:
    """Supremum of <a,b|L|a,b> over product kets on one constraint side.

    Stage 1 returns the unconstrained optimum whenever it already satisfies
    the side. Otherwise a coarse feasible grid seeds a golden-section
    coordinate polish (for qubit pairs the grid is the full pair grid of
    one polar/azimuth grid with itself, scanned only on the party-A rows
    whose closed-form bound can reach the best row, so the seed is the
    full scan's first maximum), a multiplier root-find locates the
    boundary-active optimum, and (for qubit pairs) an exact constrained
    alternation pins the constraint to machine precision. The best
    feasible candidate wins.
    """
    if side not in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
        raise ValueError("side must be leq or geq")
    if spec.C.dims != L.dims:
        raise DimensionMismatch("constraint operator lives on a different space")
    sense = 1 if side is HalfSpaceSide.LEQ else -1
    base = sup_product_unconstrained(L, cfg)
    cval = expectation(spec.C, base.argmax)
    if sense * (cval - spec.c) <= cfg.feas_tol:
        return replace(base, constraint_value=cval)

    seeded = _coarse_feasible_seed(L, spec, sense, cfg)
    if seeded is None:
        raise EmptyFeasibleSet(
            "no product state on the coarse grid satisfies the constraint side"
        )
    seed_val, (a, b) = seeded
    candidates = [(seed_val, a, b)]

    pol_val, pa, pb = _golden_polish(L, spec, sense, cfg, a, b)
    if pol_val > -np.inf:
        candidates.append((pol_val, pa, pb))

    refined = _dual_refine(L, spec, sense, cfg, pa if pol_val > -np.inf else a, pb if pol_val > -np.inf else b)
    converged = refined is not None
    if refined is not None:
        rval, ra, rb = refined[0], refined[1], refined[2]
        candidates.append((rval, ra, rb))

    if L.dims == (2, 2):
        more = []
        for val, ka, kb in candidates:
            alt = _alternate_qubit_constrained(L.mat, spec.C.mat, spec.c, sense, ka, kb)
            if alt is not None:
                more.append((alt[0], alt[1], alt[2]))
        candidates.extend(more)
    elif refined is not None:
        # no exact alternation beyond qubit pairs; polish the dual point instead
        rp_val, rp_a, rp_b = _golden_polish(L, spec, sense, cfg, refined[1], refined[2])
        if rp_val > -np.inf:
            candidates.append((rp_val, rp_a, rp_b))

    best_val, best_a, best_b = max(candidates, key=lambda t: t[0])
    pk = ProductKet(a=Ket.unit(best_a), b=Ket.unit(best_b))
    cons = expectation(spec.C, pk)
    return OptimizationResult(
        value=float(best_val),
        argmax=pk,
        constraint_value=float(cons),
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
    if c_at_l < spec.c - BOUNDARY_CLASSIFY_TOL:
        raise AssumptionViolated(
            f"optimum of the test operator has constraint value {c_at_l!r} < c; "
            "relabel the half-spaces"
        )
    opt_d = sup_product_unconstrained(L - spec.C, cfg)
    c_at_d = expectation(spec.C, opt_d.argmax)
    if (
        abs(c_at_l - spec.c) <= BOUNDARY_CLASSIFY_TOL
        or abs(c_at_d - spec.c) <= BOUNDARY_CLASSIFY_TOL
    ):
        return CaseLabel.DEGENERATE
    return CaseLabel.CASE_I if c_at_d > spec.c else CaseLabel.CASE_II


def _alpha_feasible(L, spec, cfg, p_c, alpha):
    """Whether the rotated witness bound still dominates on the <= side.

    Evaluated on the (1-alpha)-normalized operator so the comparison stays
    well scaled for arbitrarily negative alpha.
    """
    lam = alpha / (1.0 - alpha)
    nbar = lam * spec.C + L
    bound = lam * spec.c + p_c
    sup = sup_product_constrained(nbar, spec, HalfSpaceSide.LEQ, cfg).value
    return sup <= bound + ALPHA0_FEAS_TOL


def _alpha0_probe(L, spec, cfg, p_c, alpha):
    """The _alpha_feasible predicate at alpha, plus a Newton step when it fails.

    A failing probe's argmax s is feasible, so with lam = alpha/(1-alpha) the
    validity margin F(lam) = sup_{<C> <= c} <L + lam C> - lam c - p_c obeys
    F(lam) >= (<L>_s - p_c) + lam (<C>_s - c). Where that line meets the
    tolerance, at alpha_t, every alpha < alpha_t is certified invalid.
    Returns (valid, alpha_t); alpha_t is None for a valid probe, for
    <C>_s >= c (no decreasing line), and for a non-finite step.
    """
    lam = alpha / (1.0 - alpha)
    nbar = lam * spec.C + L
    bound = lam * spec.c + p_c
    res = sup_product_constrained(nbar, spec, HalfSpaceSide.LEQ, cfg)
    if res.value <= bound + ALPHA0_FEAS_TOL:
        return True, None
    slope = res.constraint_value - spec.c
    if not slope < 0:
        return False, None
    lam_t = (ALPHA0_FEAS_TOL - (expectation(L, res.argmax) - p_c)) / slope
    if not (np.isfinite(lam_t) and lam_t > -1.0):
        return False, None
    return False, lam_t / (1.0 + lam_t)


def compute_alpha0(
    L: HermitianOperator,
    spec: ConstraintSpec,
    cfg: OptimizerConfig,
    bracket_min: float = -1e6,
    p_c: Optional[float] = None,
) -> Optional[float]:
    """Smallest rotation parameter whose witness stays valid on the <= side.

    Locates the flip of the monotone predicate _alpha_feasible on
    [bracket_min, 0] by safeguarded Newton (Dinkelbach) steps on the convex
    validity margin. Each failing probe's argmax yields a tangent minorant
    whose tolerance crossing is a certified lower end of the bracket; the
    next probe goes there, so a valid tangent probe is the threshold itself.
    A step shorter than the 1e-6 width is closed by one probe just above
    it. Bisection takes over when a step is missing or leaves the bracket.

    Returns the valid end of a bracket narrower than 1e-6, or None when the
    predicate already holds at bracket_min (no finite threshold in the
    searchable range). Raises ValueError for a non-finite or non-negative
    bracket_min, and when the predicate fails at alpha = 0 (inconsistent
    p_c). Being monotone, the predicate is probed at alpha = 0 only while
    no point below it has been found valid.
    """
    if not (np.isfinite(bracket_min) and bracket_min < 0):
        raise ValueError("bracket_min must be finite and negative")
    if p_c is None:
        p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg).value
    valid, step = _alpha0_probe(L, spec, cfg, p_c, bracket_min)
    if valid:
        return None
    width = 1e-6
    # tangent steps are capped at the probe count of a plain bisection, so a
    # stalling iteration costs at most twice what the bisection would
    tangents_left = max(1, int(np.ceil(np.log2(-bracket_min) - np.log2(width))))
    lo, hi = bracket_min, None  # every alpha below lo fails; hi: least alpha found valid
    while True:
        top = 0.0 if hi is None else hi
        if step is not None and lo < step < top and tangents_left:
            tangents_left -= 1
            short = step - lo <= width
            lo, step = step, None
            if top - lo <= width:
                continue
            x = lo + 0.5 * width if short else lo
        elif hi is None:
            x = 0.0  # bisection needs a valid upper end
        elif hi - lo > width:
            x = 0.5 * (lo + hi)
        else:
            break
        valid, step = _alpha0_probe(L, spec, cfg, p_c, x)
        if valid:
            hi = x
        elif x == 0.0:
            raise ValueError("feasibility fails at alpha = 0; inconsistent inputs")
        else:
            lo = x
    return float(hi)


def rotated_bound_residual(
    L: HermitianOperator, spec: ConstraintSpec, alpha: float, cfg: OptimizerConfig
) -> float:
    """Gap between the constrained supremum of the rotated operator and its affine form.

    The identity requires the unconstrained optima of both the original and
    the rotated test operator to stay on the >= side; a violation is
    reported as a warning and the residual is returned regardless.
    """
    if not alpha < 1.0:
        raise ValueError("alpha must be < 1")
    p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg).value
    n_alpha = combine_alpha(spec, L, alpha)
    for name, op in (("test", L), ("rotated test", n_alpha)):
        opt = sup_product_unconstrained(op, cfg)
        if expectation(spec.C, opt.argmax) < spec.c - BOUNDARY_CLASSIFY_TOL:
            warnings.warn(
                f"optimum of the {name} operator crosses to the <= side; "
                "the affine identity is not guaranteed",
                RuntimeWarning,
                stacklevel=2,
            )
    lam = alpha / (1.0 - alpha)
    nbar = lam * spec.C + L
    sup_norm = sup_product_constrained(nbar, spec, HalfSpaceSide.LEQ, cfg).value
    h = (1.0 - alpha) * sup_norm
    affine = alpha * spec.c + (1.0 - alpha) * p_c
    return abs(h - affine)
