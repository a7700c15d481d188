"""Reference values computed outside the timed region.

Nothing here calls the package. The qubit oracle below serves the
``alpha0`` reference: an angle grid over party A refined by pattern search,
with party B maximised exactly over its Bloch sphere cut by the constraint
half-space.
"""

from __future__ import annotations

import numpy as np

GRID = 181    # theta points over [0, pi]; phi gets twice as many over [0, 2 pi]
STARTS = 6    # best grid points refined by pattern search
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# ---------------------------------------------------------------------------
# qubit-pair oracle with exact inner maximisation
# ---------------------------------------------------------------------------


def pauli_coeffs(mat: np.ndarray) -> np.ndarray:
    """T with <a,b|M|a,b> = sum_ij T_ij nA_i nB_j, nA = (1, Bloch vector)."""
    return np.array(
        [[np.trace(mat @ np.kron(PAULI[i], PAULI[j])).real / 4.0 for j in range(4)]
         for i in range(4)]
    )


def cap_max(w0, w, g0, u, c):
    """Row-wise max of w0 + w.n over unit n with g0 + u.n <= c."""
    t = c - g0
    nu = np.linalg.norm(u, axis=1)
    nw = np.linalg.norm(w, axis=1)
    out = w0 + nw
    with np.errstate(invalid="ignore", divide="ignore"):
        uhat = u / nu[:, None]
        wu = np.einsum("ij,ij->i", w, uhat)
        free_ok = np.einsum("ij,ij->i", u, w) <= t * nw
        s = np.clip(t / nu, -1.0, 1.0)
        wperp = np.sqrt(np.maximum(nw**2 - wu**2, 0.0))
        on_circle = w0 + s * wu + np.sqrt(np.maximum(1.0 - s**2, 0.0)) * wperp
    out = np.where(free_ok, out, on_circle)
    out = np.where(t < -nu, -np.inf, out)
    flat = nu < 1e-14
    return np.where(flat, np.where(t >= 0.0, w0 + nw, -np.inf), out)


def _bloch(theta, phi):
    st = np.sin(theta)
    return np.stack([np.ones_like(theta), st * np.cos(phi), st * np.sin(phi), np.cos(theta)], -1)


def qubit_sup(L: np.ndarray, C: np.ndarray, c: float) -> float:
    """Supremum of <L> over qubit product states with <C> <= c, refined to about 1e-13.

    Party A runs over a (theta, phi) grid; the best grid points are refined
    by a shrinking 3x3 pattern search. Party B is maximised exactly.
    """
    TL = pauli_coeffs(L)
    TC = pauli_coeffs(C)

    def value(theta, phi):
        nA = _bloch(theta, phi)
        w = nA @ TL
        g = nA @ TC
        return cap_max(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], c)

    th, ph = np.meshgrid(np.linspace(0, np.pi, GRID), np.linspace(0, 2 * np.pi, 2 * GRID), indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    vals = value(th, ph)
    if not np.isfinite(vals.max()):
        raise ValueError("no feasible product state on the reference grid")
    order = np.argsort(vals)[::-1][:STARTS]
    step0 = np.pi / (GRID - 1)
    offs = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    best = float(vals[order[0]])
    for k in order:
        x = np.array([th[k], ph[k]])
        fx = float(vals[k])
        step = step0
        while step > 1e-13:
            cand = x + step * offs
            fv = value(cand[:, 0], cand[:, 1])
            j = int(np.argmax(fv))
            if fv[j] > fx:
                x, fx = cand[j], float(fv[j])
            else:
                step *= 0.5
        best = max(best, fx)
    return best


def qubit_alpha0(L: np.ndarray, C: np.ndarray, c: float, bracket_min=-1e6, feas_tol=1e-8, width=1e-9):
    """Threshold alpha0 of the rotated family on the <= side, by bisection.

    Same predicate as the program's definition (the normalised rotated
    operator lam*C + L, lam = alpha/(1-alpha), stays below lam*c + p_c on
    the <= side) but evaluated with :func:`qubit_sup`.
    """
    p_c = qubit_sup(L, C, c)

    def valid(alpha):
        lam = alpha / (1.0 - alpha)
        return qubit_sup(lam * C + L, C, c) <= lam * c + p_c + feas_tol

    if valid(bracket_min):
        return None
    lo, hi = bracket_min, 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if valid(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# noise-scan closed form
# ---------------------------------------------------------------------------


def scan_threshold(bound, T, C, c, phi, detect_tol=1e-10, boundary_tol=1e-9):
    """Exact edge of the detected interval [0, p*] of rho_p = p I/d + (1-p)|phi><phi|.

    The witness value and the constraint expectation are both affine in p,
    so the detected set is an intersection of half-lines. Returns None when
    p = 0 is not detected.
    """
    d = T.shape[0]
    w0 = bound - float(np.vdot(phi, T @ phi).real)
    w1 = bound - float(np.trace(T).real) / d
    c0 = float(np.vdot(phi, C @ phi).real)
    c1 = float(np.trace(C).real) / d
    # detected where  w(p) + tol < 0  and  cons(p) - c - btol <= 0 (the <= side)
    lines = [(w0 + detect_tol, w1 - w0), (c0 - c - boundary_tol, c1 - c0)]
    edge = 1.0
    for at0, slope in lines:
        if at0 > 0:
            return None
        if slope > 0:
            edge = min(edge, -at0 / slope)
    return edge
