"""Suprema of expectation values over (constrained) pure product states.

Three cooperating search mechanisms live here:

* a see-saw that alternates exact single-party eigenvector updates, used
  for unconstrained suprema; all restarts run as one (R, d, d) stack, one
  einsum and one batched ``numpy.linalg.eigh`` per half step;
* an exhaustive per-party angle-grid oracle, kept deliberately independent
  of the see-saw so the two can cross-check each other;
* constrained suprema behind a feasibility short-circuit: for qubit pairs
  one exact reduction (one party in closed form over its Bloch sphere cut
  by the constraint, the other by a coarse angle grid and compass search,
  with either party outer); beyond qubit pairs a random feasible seed,
  coordinate-wise golden-section polish and a Lagrange-multiplier
  root-find whose zero duality gap certifies boundary optima.

All randomness flows from explicit seeds; identical configs give
bit-identical results.
"""

from __future__ import annotations

import enum
import itertools
import math
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
from .witness import ConstraintSpec, HalfSpaceSide, normalised_rotation

ALPHA0_FEAS_TOL = 1e-8
BOUNDARY_CLASSIFY_TOL = 1e-9
ORACLE_MAX_TOTAL_DIM = 9
_PAIR_GRID_CAP = 4096          # max outer-party grid points of the qubit-pair solve
_COMPASS_MAX_STEPS = 400       # stencils per qubit-pair compass search; a smooth f needs ~100
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


def _qubit_kets(theta, phi):
    """Qubit kets cos(t/2)|0> + e^{ip} sin(t/2)|1> at broadcast angles.

    theta and phi broadcast against each other; the points are flattened
    in C order. Returns the (N, 2) kets and their (N, 4) Bloch 4-vectors
    (1, n), so that <k|X|k> = bloch @ (Pauli coefficients of X).
    """
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))

    def flat(x):
        return np.broadcast_to(x, shape).ravel()

    st = np.sin(theta)
    kets = np.stack([flat(np.cos(theta / 2) + 0j), flat(np.exp(1j * phi) * np.sin(theta / 2))], axis=-1)
    bloch = np.stack(
        [np.ones(kets.shape[0]), flat(st * np.cos(phi)), flat(st * np.sin(phi)), flat(np.cos(theta))],
        axis=-1,
    )
    return kets, bloch


def _qubit_grid(n_theta: int, n_phi: int, phi_endpoint: bool = True):
    """_qubit_kets on a polar/azimuth grid, theta-major.

    theta takes n_theta points on [0, pi] with both ends; phi takes n_phi
    points from 0, ending at 2 pi only when ``phi_endpoint``.
    """
    th = np.linspace(0.0, np.pi, n_theta)[:, None]
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=phi_endpoint)[None, :]
    return _qubit_kets(th, ph)


def _cap_max_vectorized(w0, v, g0, u, c, sense):
    """Row-wise max of w0 + v.n over unit n with sense*(g0 + u.n - c) <= 0.

    Closed form: the free maximiser v/|v| where it satisfies the cut,
    otherwise the best point of the circle where the cut meets the sphere.
    Returns the values and the (N, 3) maximisers; an empty cap has value
    -inf and a nan maximiser. A row with |u| < 1e-14 counts as uncut when
    its threshold is at least -1e-12, and a cut is empty only 1e-15 past
    the tangent plane.
    """
    nv = np.linalg.norm(v, axis=1)
    us = sense * u
    t = sense * (c - g0)
    nu = np.linalg.norm(us, axis=1)
    uv = np.einsum("ij,ij->i", us, v)
    tiny = nu < 1e-14
    free = (uv / np.maximum(nv, 1e-300) <= t) | tiny
    empty = np.where(tiny, t < -1e-12, t < -nu - 1e-15)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nu2 = np.maximum(nu, 1e-300)
        ratio = np.clip(t / nu2, -1.0, 1.0)
        rise = np.sqrt(np.maximum(1.0 - ratio**2, 0.0))
        along = uv / nu2**2
        # |v| sin(angle to u), from the difference vector: nv**2 - (uv/nu)**2
        # cancels to ~sqrt(eps)*|v| when v is nearly parallel to u.
        vperp = np.linalg.norm(v - along[:, None] * us, axis=1)
        val = np.where(free, w0 + nv, w0 + along * t + vperp * rise)
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
    return np.where(empty, -np.inf, val), n


def _oracle_22(L, spec, side, resolution):
    TL = _pauli_tensor_coeffs(L)
    _, U = _qubit_grid(resolution, 2 * resolution - 1)
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
            vals = _cap_max_vectorized(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], spec.c, sense)[0]
        best = max(best, float(vals.max()))
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


def _qubit_pair_constrained(L, spec, sense, cfg):
    """Constrained supremum over qubit product states by one exact reduction.

    For the outer party's Bloch vector n, f(n) is the inner party's
    closed-form maximum over its Bloch sphere cut by the constraint. f is
    scanned on the outer party's grid (sized from grid_theta/grid_phi and
    _PAIR_GRID_CAP) with either party outer: where the optimum shrinks the
    inner cut to a point, f has a curved ridge in that orientation only.
    The 4 best grid points of each orientation seed a compass search on
    (theta, phi): move to the best improving point of the 3x3 stencil, else
    halve the step, until it is below 1e-13 (Kolda, Lewis & Torczon, SIAM
    Rev. 45, 2003) or _COMPASS_MAX_STEPS stencils have run. Returns
    (value, argmax, True) at the best end point, or None when no grid
    point is feasible.
    """
    TL = _pauli_tensor_coeffs(L)
    TC = _pauli_tensor_coeffs(spec.C)

    def best_inner(n, flip):
        w = np.where(flip[:, None], n @ TL.T, n @ TL)
        g = np.where(flip[:, None], n @ TC.T, n @ TC)
        return _cap_max_vectorized(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], spec.c, sense)

    shrink = min(1.0, np.sqrt(_PAIR_GRID_CAP / (cfg.grid_theta * cfg.grid_phi)))
    tn = max(2, int(round(cfg.grid_theta * shrink)))
    pn = max(2, int(round(cfg.grid_phi * shrink)))
    grid = _qubit_grid(tn, pn, phi_endpoint=False)[1]
    flip = np.repeat([False, True], len(grid))
    vals = best_inner(np.vstack([grid, grid]), flip)[0]
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
        live = h * step.max() >= 1e-13
        if not live.any():
            break
        cand = x[:, None] + h[:, None, None] * stencil
        nc = _qubit_kets(cand[..., 0].ravel(), cand[..., 1].ravel())[1]
        fv = best_inner(nc, np.repeat(flip, len(stencil)))[0].reshape(len(ks), -1)
        j = fv.argmax(axis=1)
        up = live & (fv[rows, j] > fx)
        x[up], fx[up] = cand[rows, j][up], fv[rows, j][up]
        h[live & ~up] *= 0.5
    s = int(np.argmax(fx))
    kets, n = _qubit_kets(x[s, :1], x[s, 1:])
    nx, ny, nz = best_inner(n, flip[s : s + 1])[1][0]
    outer = Ket.unit(kets[0])
    inner = Ket.unit(_qubit_kets(np.arctan2(np.hypot(nx, ny), nz), np.arctan2(ny, nx))[0][0])
    pk = ProductKet(a=inner, b=outer) if flip[s] else ProductKet(a=outer, b=inner)
    return expectation(L, pk), pk, True


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


def _generic_constrained(L, spec, sense, cfg):
    """Best of 200k seeded random product states, polished, then the
    multiplier root-find and a polish of its point; returns (value, argmax,
    converged) of the best feasible candidate, or None when none is."""
    dA, dB = L.dims
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
    a, b = A[idx], B[idx]
    candidates = [(float(vals[idx]), a, b)]
    pol_val, pa, pb = _golden_polish(L, spec, sense, cfg, a, b)
    if pol_val > -np.inf:
        candidates.append((pol_val, pa, pb))
        a, b = pa, pb
    refined = _dual_refine(L, spec, sense, cfg, a, b)
    if refined is not None:
        candidates.append(tuple(refined[:3]))
        rp_val, rp_a, rp_b = _golden_polish(L, spec, sense, cfg, refined[1], refined[2])
        if rp_val > -np.inf:
            candidates.append((rp_val, rp_a, rp_b))
    best_val, best_a, best_b = max(candidates, key=lambda t: t[0])
    return best_val, ProductKet(a=Ket.unit(best_a), b=Ket.unit(best_b)), refined is not None


def sup_product_constrained(
    L: HermitianOperator,
    spec: ConstraintSpec,
    side: HalfSpaceSide,
    cfg: OptimizerConfig,
) -> OptimizationResult:
    """Supremum of <a,b|L|a,b> over product kets on one constraint side.

    Stage 1 returns the unconstrained optimum whenever it already satisfies
    the side. Otherwise, for qubit pairs, one party is maximised in closed
    form over its Bloch sphere cut by the constraint and the other by a
    coarse angle grid refined by compass search, with either party outer
    (_qubit_pair_constrained); the result is converged whenever a grid
    point is feasible. Beyond qubit pairs, the best feasible point of a
    random product sample seeds a coordinate-wise golden-section polish
    and a multiplier root-find (zero duality gap certifies boundary
    optima), whose point is polished again; the best feasible candidate
    wins and the result is converged when the root-find returned. Raises
    EmptyFeasibleSet when the grid or the sample holds no feasible point.
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

    solve = _qubit_pair_constrained if L.dims == (2, 2) else _generic_constrained
    found = solve(L, spec, sense, cfg)
    if found is None:
        raise EmptyFeasibleSet("no product state on the coarse grid satisfies the constraint side")
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
    """Whether the rotated witness bound still dominates on the <= side."""
    return _alpha0_probe(L, spec, cfg, p_c, alpha)[0]


def _alpha0_probe(L, spec, cfg, p_c, alpha):
    """Validity of the rotated witness at alpha, plus a Newton step when it fails.

    Evaluated on the (1-alpha)-normalized operator nbar = lam*C + L so the
    comparison stays well scaled for arbitrarily negative alpha. A failing
    probe's argmax s is feasible, so the validity margin
    F(lam) = sup_{<C> <= c} <nbar> - lam c - p_c obeys
    F(lam) >= (<L>_s - p_c) + lam (<C>_s - c). Where that line meets the
    tolerance, at alpha_t, every alpha < alpha_t is certified invalid.
    Returns (valid, alpha_t); alpha_t is None for a valid probe, for
    <C>_s >= c (no decreasing line), and for a non-finite step.
    """
    _, lam, nbar = normalised_rotation(spec, L, alpha)
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
    if not -math.inf < alpha < 1.0:
        raise ValueError("alpha must be finite and < 1")
    p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg).value
    scale, _, nbar = normalised_rotation(spec, L, alpha)
    # nbar is a positive multiple of the rotated operator: same argmax
    for name, op in (("test", L), ("rotated test", nbar)):
        opt = sup_product_unconstrained(op, cfg)
        if expectation(spec.C, opt.argmax) < spec.c - BOUNDARY_CLASSIFY_TOL:
            warnings.warn(
                f"optimum of the {name} operator crosses to the <= side; "
                "the affine identity is not guaranteed",
                RuntimeWarning,
                stacklevel=2,
            )
    h = scale * sup_product_constrained(nbar, spec, HalfSpaceSide.LEQ, cfg).value
    affine = alpha * spec.c + (1.0 - alpha) * p_c
    return abs(h - affine)
