"""Suprema of expectation values over (constrained) pure product states.

Three cooperating search mechanisms live here:

* a see-saw that alternates exact single-party eigenvector updates, used
  for unconstrained suprema; all restarts run as one batch. On a qubit
  pair a half step works on Bloch vectors and the operator's real 4x4
  Pauli coefficients: fixing one party leaves the other w0 + v.m, whose
  maximum over unit m is w0 + |v| at m = v/|v|. Otherwise a half step
  conditions the operator with one matmul and takes the top eigenpairs in
  closed form on a qubit party, else with one batched
  ``numpy.linalg.eigh``. Each row starts from a party-A ket, the first
  draw of one SeedSequence(seed) child, byte for byte numpy's spawn loop:
  numpy's SeedSequence(seed).pool supplies the mixed seed, and one
  vectorised pass mixes in each child's spawn key and hashes the
  children's PCG64 states, with no SeedSequence object per child. These
  starts are drawn once per (seed, restarts, dA) and cached read-only, each
  (operator, seed, restarts) is solved once per process, with 16 kept,
  and value ties between restarts are broken on canonical argmax rows
  computed in one batch;
* an exhaustive per-party angle-grid oracle, kept deliberately independent
  of the see-saw so the two can cross-check each other;
* constrained suprema behind a feasibility short-circuit: for qubit pairs
  one exact reduction (one party in closed form over its Bloch sphere cut
  by the constraint, the other by a coarse angle grid and compass search,
  with either party outer). The closed form takes one matmul per
  orientation over the whole grid and runs on every row, as it does on
  the grid oracle's blocks of _CAP_BLOCK outer kets; both divide L and N
  by powers of two first, so no square overflows or underflows; each
  compass state (orientation, angles, step) is evaluated once per solve,
  at _COMPASS_LEVELS halvings of its step, and every row replays those
  levels as a one-stencil-per-step search would, so values, argmaxes and
  step counts are those of that search. Beyond qubit pairs a
  constrained see-saw whose half steps are exact single-party
  maximisations under the conditioned constraint, started from the best
  feasible points of a random sample and from the cut point of a
  Lagrange-multiplier root-find, which starts at the unconstrained
  optimum, continues from its bracket ends with no random starts and
  always bridges its two ends onto the cut.

All randomness flows from explicit seeds; identical configs give
bit-identical results.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .linalg import (
    ALPHA0_FEAS_TOL,
    ALPHA0_WIDTH,
    COMPASS_STOP,
    PHASE_TOL,
    SEESAW_TOL,
    TIE_TOL,
    DimensionMismatch,
    HermitianOperator,
    Ket,
    expectation,
    is_integer,
)
from .states import ProductKet, product_expectations, random_product_batch
from .witness import ConstraintSpec, HalfSpaceSide, halfspace_membership, normalised_rotation, rotated_test

_ALPHA0_AIM = 0.8              # share of the way from the tangent to the square-root Newton crossing
_ALPHA0_MAX_TANGENTS = 64      # tangent steps per alpha0 search, at least its lam bisection's depth
ORACLE_MAX_TOTAL_DIM = 9
_SEESAW_MAX_ITER = 500         # sweeps per see-saw row
_PAIR_GRID = (45, 90)          # outer-party polar x azimuth grid of the qubit-pair solve
_COMPASS_MAX_STEPS = 400       # stencils per qubit-pair compass search; a smooth f needs ~100
_COMPASS_LEVELS = 5            # step halvings a compass round evaluates per new state
_CAP_BLOCK = 4096              # outer kets per n @ S block of the caps, the whole _PAIR_GRID; 256 KiB
_GENERIC_PAIR_CAP = 1 << 24    # max grid oracle rows: ket pairs, or one party's kets for a qubit pair
_CONSTRAINED_STARTS = 16       # best feasible sample points the d >= 3 constrained see-saw starts from
_MU_DOUBLINGS = 64             # multiplier doublings before a cut counts as unreached, in _cut_top and _dual_refine
_MU_BISECTIONS = 30            # multiplier halvings of a constrained half step
_TINY = np.finfo(float).tiny   # smallest normal double, the floor of a norm that divides
_EPS = np.finfo(float).eps     # machine epsilon of the rounding bands


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
        # a seed of None would draw OS entropy
        if not (is_integer(self.restarts) and self.restarts >= 1):
            raise ValueError(f"restarts {self.restarts!r} must be a positive integer")
        if not (is_integer(self.seed) and self.seed >= 0):
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

    Each matrix is read as its Hermitian part (H + H^dagger)/2, which kills
    float asymmetry. A 2x2 stack [[a, b], [b*, d]] is (a + d)/2 times the
    identity plus the traceless part that _qubit_top solves in closed form;
    the qubit halves of a qubit-qudit see-saw and _cut_top's qubit parties
    take this branch (a qubit-pair see-saw runs on Bloch vectors instead,
    see _seesaw_batch). Other sizes go through one batched
    ``numpy.linalg.eigh`` call.
    """
    if mats.shape[-1] == 2:
        a, d = mats[:, 0, 0].real, mats[:, 1, 1].real
        r, vecs = _qubit_top((a - d) / 2, (mats[:, 0, 1] + mats[:, 1, 0].conj()) / 2)
        return (a + d) / 2 + r, vecs
    vals, vecs = np.linalg.eigh((mats + mats.conj().transpose(0, 2, 1)) / 2)
    return vals[:, -1], vecs[:, :, -1]


def _qubit_top(half, b):
    """Top eigenvalues r and unit eigenvectors of the traceless 2x2 rows [[half, b], [b*, -half]].

    r = hypot(half, |b|), and the vector (s, b*) for half >= 0, else
    (b, s), with s = r + |half|, is normalised by hypot(s, |b|); no term
    cancels, and hypot neither overflows nor underflows. A zero row gets
    (1, 0). As a Bloch vector v = (Re b, -Im b, half), the vector is the
    qubit ket of v/|v|, and of (0, 0, 1) where v = 0.
    """
    nb = np.abs(b)
    r = np.hypot(half, nb)
    s = r + np.abs(half)
    norm = np.hypot(s, nb)
    scalar = norm == 0
    s[scalar], norm[scalar] = 1.0, 1.0
    s, b = s / norm, b / norm
    ge = half >= 0
    vecs = np.empty((len(b), 2), dtype=complex)
    vecs[:, 0], vecs[:, 1] = np.where(ge, s, b), np.where(ge, b.conj(), s)
    return r, vecs


def _conditioning(*ops4):
    """The two matrices that condition the (dA, dB, dA, dB) operators ops4 on one party.

    MA = M4.transpose(0, 2, 1, 3).reshape(dA^2, dB^2) holds M4[i, k, j, l]
    at row (i, j) and column (k, l); the operators' MA stand side by side
    in XA and their transposes in XB, both C-contiguous. _condition with
    XA fixes party A, with XB party B.
    """
    dA, dB = ops4[0].shape[:2]
    MAs = [M4.transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB) for M4 in ops4]
    return np.hstack(MAs), np.ascontiguousarray(np.vstack(MAs).T)


def _condition(y, X, d):
    """(R, k, d, d) forms <y|M|y> on the other party of the k operators of X (see _conditioning).

    One matmul of the rows conj(y) (x) y by X; row r of the result is the
    einsum of conj(y[r]), M4 and y[r] over the conditioned party.
    """
    R, n = y.shape
    return ((y.conj()[:, :, None] * y[:, None, :]).reshape(R, n * n) @ X).reshape(R, -1, d, d)


def _seesaw_batch(M4: np.ndarray, A0: np.ndarray):
    """Alternating eigenvector ascent from R starting party-A kets at once.

    The starts are the rows of ``A0`` (R, dA), copied and never written:
    sup_product_unconstrained passes the read-only starts that
    _restart_starts draws once per (seed, restarts, dA), and breaks value
    ties between the returned rows in one batch (_best_restart). Each row's
    party-B ket is set by its first half step. Each half step is an exact
    maximization of the conditioned quadratic form. For a qubit pair it
    runs on Bloch 4-vectors n = (1, <X>, <Y>, <Z>) and the real Pauli
    coefficients T of M4 (_pauli_tensor_coeffs): fixing party A at n gives
    party B the form w0 + v.m with (w0, v) = n T (n T^T the other way), so
    the step takes m = v/|v|, or (0, 0, 1) where v = 0, and the value
    w0 + |v| (_bloch_top); the kets are built once at the end (_qubit_top).
    Otherwise one matmul conditions M4 on every live row (_condition) and
    _hermitian_top takes the top eigenpairs, in closed form on a qubit
    party. No row's value ever decreases. A row retires once its gain drops
    below SEESAW_TOL, keeping its value and iteration count, with at most
    _SEESAW_MAX_ITER sweeps. Returns per-row arrays (values, A, B,
    iterations, converged).
    """
    dA, dB = M4.shape[:2]
    bloch = dA == dB == 2
    if bloch:
        T = _pauli_tensor_coeffs(M4)
        T0, T1, TB0, TB1 = T[0], T[1:], T[:, 0], np.ascontiguousarray(T[:, 1:].T)
        A = _ket_bloch(np.asarray(A0))
        B = np.empty_like(A)

        def halves(a):
            _, b = _bloch_top(a[:, :3] @ T1 + T0)
            new, a = _bloch_top(b[:, :3] @ TB1 + TB0)
            return new, a, b

    else:
        XA, XB = _conditioning(M4)
        A = np.array(A0, dtype=complex)
        B = np.empty((len(A), dB), dtype=complex)

        def halves(a):
            _, b = _hermitian_top(_condition(a, XA, dB)[:, 0])
            new, a = _hermitian_top(_condition(b, XB, dA)[:, 0])
            return new, a, b

    # the live rows travel compacted (a, val) and are written back as they retire
    R = len(A)
    vals = np.full(R, -np.inf)
    its = np.full(R, _SEESAW_MAX_ITER)
    conv = np.zeros(R, dtype=bool)
    live, a, val = np.arange(R), A, vals
    for it in range(1, _SEESAW_MAX_ITER + 1):
        new, a, b = halves(a)
        done = new - val < SEESAW_TOL
        val = new
        if done.any():
            r = live[done]
            A[r], B[r], vals[r], its[r], conv[r] = a[done], b[done], new[done], it, True
            keep = ~done
            live, a, b, val = live[keep], a[keep], b[keep], val[keep]
            if live.size == 0:
                break
    A[live], B[live], vals[live] = a, b, val
    if bloch:  # the top eigenvectors of v.sigma, from each row's last v
        A, B = (_qubit_top(X[:, 5], X[:, 3] - 1j * X[:, 4])[1] for X in (A, B))
    return vals, A, B, its, conv


def _ket_bloch(K: np.ndarray) -> np.ndarray:
    """(R, 6) rows (m, m) of the Bloch vectors m = (<k|X|k>, <k|Y|k>, <k|Z|k>)
    of (R, 2) unit qubit rows k, laid out as _bloch_top's rows (m, v)."""
    x = K[:, 0].conj() * K[:, 1]
    p = K.real**2 + K.imag**2
    n = np.empty((len(K), 6))
    n[:, 0], n[:, 1], n[:, 2] = 2 * x.real, 2 * x.imag, p[:, 0] - p[:, 1]
    n[:, 3:] = n[:, :3]
    return n


def _bloch_top(P: np.ndarray):
    """Max of w0 + v.m over unit Bloch vectors m for the rows (w0, v) of the (R, 4) P.

    Returns the values w0 + |v| and (R, 6) rows (m, v): the maximiser
    m = v/|v|, which the next half step reads, and v itself, from which
    _seesaw_batch builds the ket as _hermitian_top does (_qubit_top). A
    row with v = 0 takes m = (0, 0, 1), the Bloch vector of the ket (1, 0)
    that _hermitian_top gives a scalar matrix. |v| is taken by hypot, as
    in _qubit_top, so it neither overflows nor underflows.
    """
    v = P[:, 1:]
    nv = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    out = np.empty((len(P), 6))
    out[:, 3:] = v
    if nv.all():
        np.divide(v, nv[:, None], out=out[:, :3])
    else:
        out[:, :3] = (0.0, 0.0, 1.0)
        np.divide(v, nv[:, None], out=out[:, :3], where=nv[:, None] > 0)
    return P[:, 0] + nv, out


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool of 4 uint32 words
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix of the entropy words
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715  # mix of two pool words
_MASK32 = 0xFFFFFFFF


def _hash_constants(init, mult, n):
    """The n + 1 words init * mult**k mod 2**32, k = 0 .. n: call k of a hash
    xors with the k-th and multiplies by the (k + 1)-th."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _ss_mix(x, y):
    """numpy's mix of pool word x with hashed word y, on ints or uint32 arrays."""
    r = ((_SS_MIX_L * x & _MASK32) - _SS_MIX_R * y) & _MASK32
    return r ^ r >> 16


def _spawn_states(seed: int, n: int) -> np.ndarray:
    """(n, 4) uint64: row i is SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64), bit for bit.

    Child i's entropy is the seed's w little-endian uint32 words, zero-padded
    to the pool size, then its spawn key i. Before that last word a child's
    pool is SeedSequence(seed).pool, which numpy supplies; the spawn-key
    word and generate_state run over the (n,) keys as uint32 arrays, whose
    products wrap mod 2**32 as numpy's do. The parent's mixing makes
    4 max(4, w) hashmix calls, so the key's 4 calls start there.
    """
    seed = int(seed)
    start = 4 * max(4, -(-seed.bit_length() // 32))
    consts = np.array(_hash_constants(_SS_INIT_A, _SS_MULT_A, start + 4)[start:], dtype=np.uint32)[:, None]
    # the spawn-key word, hashed against each pool word in turn
    key = (np.arange(n, dtype=np.uint32) ^ consts[:-1]) * consts[1:]
    key ^= key >> 16
    pool = _ss_mix(np.random.SeedSequence(seed).pool[:, None], key)
    # generate_state(4, np.uint64): 8 uint32 words cycling the pool, read as little-endian pairs
    consts = np.array(_hash_constants(_SS_INIT_B, _SS_MULT_B, 8), dtype=np.uint32)[:, None]
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:-1]) * consts[1:]
    state ^= state >> 16
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _FixedState(ISeedSequence):
    """A seed sequence whose generate_state returns given uint64 words (a
    _spawn_states row), all PCG64 reads of it."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.lru_cache(maxsize=32)
def _restart_starts(seed, restarts: int, dA: int):
    """Read-only (restarts, dA) party-A see-saw start kets.

    Row r is the first draw of the r-th child of SeedSequence(seed): dA
    complex normals (real parts, then imaginary parts) from that child's
    generator, divided by their norm, with the 2*dA normals taken in one
    call and all rows normalised at once (_unit_rows). The children's PCG64
    states come from _spawn_states: numpy's SeedSequence(seed).pool, with
    each child's spawn key mixed in by one vectorised pass, so the rows are
    byte for byte those of numpy's spawn loop, without a SeedSequence object
    per child. Every solve with the same (seed, restarts, dA)
    starts from the same rows, so they are drawn once and shared.
    """
    x = np.array([
        np.random.Generator(np.random.PCG64(_FixedState(w))).normal(size=2 * dA)
        for w in _spawn_states(seed, restarts)
    ])
    A = _unit_rows(x[:, :dA] + 1j * x[:, dA:])
    A.setflags(write=False)
    return A


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """``row / numpy.linalg.norm(row)`` for every row of X, bit for bit.

    The squared norm is real.real + imag.imag through the same BLAS dot as
    ``numpy.linalg.norm`` of one vector (matmul of 1 x d by d x 1 takes
    it; a plain sum rounds differently).
    """
    re, im = X.real, X.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return X / np.sqrt(sq[:, 0])


def _canonical_rows(X: np.ndarray) -> np.ndarray:
    """``Ket.unit(row).amplitudes`` of every row of X, bit for bit.

    The rows are normalised as ``Ket.unit`` does (_unit_rows), and the
    modulus is ``hypot``, as ``abs`` of one complex scalar (numpy's array
    ``abs`` can differ in the last bit). The phase comes from the first
    amplitude of modulus above PHASE_TOL, which every normalised row has.
    """
    Y = _unit_rows(X)
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


# kron(_PAULI[i], _PAULI[j]) at row 4*i + j; column a of each has its one
# nonzero entry, a phase of +-1 or +-i, in row _PAULI_ROWS[4*i + j, a]
_PAULI_PAIRS = np.array([np.kron(p, q) for p in _PAULI for q in _PAULI])
_PAULI_ROWS = np.abs(_PAULI_PAIRS).argmax(axis=1)
_PAULI_PHASES = np.take_along_axis(_PAULI_PAIRS, _PAULI_ROWS[:, None, :], axis=1)[:, 0]
_PAULI_GATHER = 4 * np.arange(4) + _PAULI_ROWS  # flat index of M[a, row(a)]


def _pauli_tensor_coeffs(M) -> np.ndarray:
    """Real 4x4 coefficients T of a two-qubit operator in the Pauli basis.

    M is a HermitianOperator or its matrix, as (4, 4) or (2, 2, 2, 2);
    M = sum T[i, j] sigma_i (x) sigma_j. T[i, j] is Tr(M P)/4 with P the
    pair's kron: one gather of M[a, row(a)] * phase(a), summed over a in
    order, which is the trace of the matmul M @ P bit for bit (the other
    three products of each diagonal entry are zeros).
    """
    mat = np.reshape(getattr(M, "mat", M), 16)
    return (mat[_PAULI_GATHER] * _PAULI_PHASES).sum(axis=1).real.reshape(4, 4) / 4.0


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def _columns(cols, theta, phi):
    """The columns broadcast over theta and phi, flattened in C order, as (N, k)."""
    shape = np.broadcast(theta, phi).shape
    out = np.empty(shape + (len(cols),), dtype=np.result_type(*cols))
    for k, x in enumerate(cols):
        out[..., k] = x
    return out.reshape(-1, len(cols))


def _qubit_kets(theta, phi):
    """(N, 2) qubit kets cos(t/2)|0> + e^{ip} sin(t/2)|1> at broadcast angles."""
    return _columns([np.cos(theta / 2) + 0j, np.exp(1j * phi) * np.sin(theta / 2)], theta, phi)


def _qubit_bloch(theta, phi):
    """(N, 4) Bloch 4-vectors (1, n) of the _qubit_kets at the same angles.

    <k|X|k> = bloch @ (Pauli coefficients of X).
    """
    st = np.sin(theta)
    return _columns([1.0, st * np.cos(phi), st * np.sin(phi), np.cos(theta)], theta, phi)


def _qubit_angles(n_theta: int, n_phi: int, phi_endpoint: bool = True):
    """Broadcast (theta, phi) of a polar/azimuth grid, theta-major.

    theta takes n_theta points on [0, pi] with both ends; phi takes n_phi
    points from 0, ending at 2 pi only when ``phi_endpoint``. Pass them to
    _qubit_kets or _qubit_bloch.
    """
    th = np.linspace(0.0, np.pi, n_theta)[:, None]
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=phi_endpoint)[None, :]
    return th, ph


# outer-party Bloch 4-vectors of the qubit-pair solve's _PAIR_GRID, shared read-only
_PAIR_BLOCH = _qubit_bloch(*_qubit_angles(*_PAIR_GRID, phi_endpoint=False))
_PAIR_BLOCH.setflags(write=False)


def _norm3(x):
    """Row norms of an (N, 3) array, bit for bit numpy.linalg.norm(x, axis=1),
    whose add.reduce sums (x0^2 + x1^2) + x2^2."""
    x0, x1, x2 = x.T
    return np.sqrt((x0 * x0 + x1 * x1) + x2 * x2)


def _cap_cut(v, g0, u, band):
    """Row-wise geometry of the cap {unit n : g0 + u.n <= 0} against v.

    v and u are (N, 3); views of wider rows serve (see _coeff_columns).
    Returns (nv, t, nu, uv, free, empty, nu2, ratio, rise): |v|, the
    threshold t = -g0, |u|, u.v, whether v/|v| satisfies the cut, whether
    the cap is empty, and the cut circle: |u| floored at the smallest
    normal double, _TINY, and the circle's height t/|u| and radius, both
    clipped to the sphere. Every norm that divides is floored at _TINY, so
    a zero norm gives no inf or nan. band, the _cut_slack of the cut that
    g0 + u.n evaluates, is the one band: v/|v| is free up to band past the
    cut, and a cap is empty only once the whole sphere lies more than band
    past it. A zero u (the zero cut, band 0) leaves every row free at a
    threshold of 0. The norms are _norm3's; u.v stays an einsum, whose
    3-term summation order is numpy's SIMD one, so a hand-written sum
    would change its last bits. The kernels that call it hold one
    np.errstate for it and their own formulas.
    """
    nv, nu = _norm3(v), _norm3(u)
    t = -g0
    uv = np.einsum("ij,ij->i", u, v)
    free = uv / np.maximum(nv, _TINY) <= t + band
    empty = t < -nu - band
    nu2 = np.maximum(nu, _TINY)
    ratio = np.minimum(np.maximum(t / nu2, -1.0), 1.0)
    return nv, t, nu, uv, free, empty, nu2, ratio, np.sqrt(np.maximum(1.0 - ratio**2, 0.0))


def _cap_max_values(w0, v, g0, u, band):
    """Row-wise max of w0 + v.n over unit n with g0 + u.n <= 0.

    Closed form: w0 + |v| where the free maximiser v/|v| satisfies the cut,
    otherwise the best point of the circle where the cut meets the sphere;
    an empty cap has value -inf (edge rules and band in _cap_cut). Every
    row is computed on its own, so a scan over any rows (the qubit-pair
    grid, a compass round's new states, the grid oracle) gives each row
    the value it has alone.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nv, t, _, uv, free, empty, nu2, _, rise = _cap_cut(v, g0, u, band)
        along = uv / nu2**2
        # |v| sin(angle to u), from the difference vector: nv**2 - (uv/nu)**2
        # cancels to ~sqrt(eps)*|v| when v is nearly parallel to u.
        vperp = _norm3(v - along[:, None] * u)
        # the circle's height clipped to the sphere, as in ratio: past the
        # tangent plane, within the band, the cap is the one point -u/|u|
        val = np.where(free, w0 + nv, w0 + along * np.maximum(t, -nu2) + vperp * rise)
    return np.where(empty, -np.inf, val)


def _cap_argmax(w0, v, g0, u, band):
    """(N, 2) unit qubit kets whose Bloch vectors maximise _cap_max_values.

    An empty cap has a nan row.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nv, _, nu, _, free, empty, nu2, ratio, rise = _cap_cut(v, g0, u, band)
        n_free = v / nv[:, None]
        # the circle point towards v, in a frame (u/|u|, e1, e2) built from u
        # alone (Duff et al., JCGT 6, 2017): where v is (nearly) parallel to u,
        # v's perpendicular part is noise, and any circle point is a maximiser
        ux, uy, uz = np.where(nu > 0, u.T / nu2, [[0.0], [0.0], [1.0]])
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


def _orientations(L, N):
    """The (4, 8) coefficients S of both orientations: [TL | TN] with party
    A outer and [TL.T | TN.T] with party B outer, TL and TN the Pauli
    coefficients of L and N."""
    TL, TN = _pauli_tensor_coeffs(L), _pauli_tensor_coeffs(N)
    return np.hstack([TL, TN]), np.hstack([TL.T, TN.T])


def _coeff_columns(P):
    """(w0, v, g0, u) of the rows of n @ S: row i holds the inner party's
    coefficients of L and of N at outer Bloch 4-vector n[i]."""
    return P[:, 0], P[:, 1:4], P[:, 4], P[:, 5:]


def _inner_caps(S, n, band, kernel=_cap_max_values):
    """kernel on the inner party's cap at outer Bloch 4-vectors n, S one orientation of _orientations.

    band is the cut's _cut_slack (see _cap_cut). Blocks of at most
    _CAP_BLOCK rows keep each temporary small; a row's result does not
    depend on the block it falls in.
    """
    return np.concatenate(
        [kernel(*_coeff_columns(n[lo : lo + _CAP_BLOCK] @ S), band) for lo in range(0, len(n), _CAP_BLOCK)]
    )


def _oracle_22(L, N, resolution):
    """Max of _inner_caps over both orientations of a resolution grid.

    L and N are first divided by powers of two (_pow2_unit), which moves
    no maximiser and rounds nothing, and the max is scaled back exactly.
    """
    (Lm, e), (Nm, _) = _pow2_unit(L.mat), _pow2_unit(N.mat)
    U = _qubit_bloch(*_qubit_angles(resolution, 2 * resolution - 1))
    band = _cut_slack(Nm)
    return float(np.ldexp(max(_inner_caps(S, U, band).max() for S in _orientations(Lm, Nm)), e))


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


def _pair_grid_max(L, N, kets_a, kets_b):
    """Exhaustive max over the product of two ket grids, where <N> <= _cut_slack(N)."""
    dA, dB = L.dims
    band = _cut_slack(N.mat)
    XA = np.einsum("ni,nj->nij", kets_a.conj(), kets_a).reshape(len(kets_a), dA * dA)
    XB = np.einsum("nk,nl->nkl", kets_b.conj(), kets_b).reshape(len(kets_b), dB * dB)
    L2, N2 = (T.mat.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB) for T in (L, N))
    best = -np.inf
    for lo in range(0, len(kets_a), _CAP_BLOCK):
        xa = XA[lo : lo + _CAP_BLOCK]
        vals = np.where((xa @ N2 @ XB.T).real <= band, (xa @ L2 @ XB.T).real, -np.inf)
        best = max(best, float(vals.max()))
    return best


def grid_oracle_sup(
    L: HermitianOperator,
    spec: Optional[ConstraintSpec] = None,
    side: Optional[HalfSpaceSide] = None,
    resolution: int = 721,
) -> float:
    """Brute-force product-state supremum on per-party angle grids.

    Independent of the see-saw path: no iteration, no restarts. The scan
    keeps the side <N> <= 0 of the cut N (_cut_operator), counting a point
    up to _cut_slack(N) past it as on it; without spec N is 0, which every
    point satisfies. For qubit pairs the polar/azimuth grid of one party
    is scanned exhaustively while the other party is maximized in closed
    form over its Bloch sphere cut by N, on every grid row, with L and N
    divided by powers of two first (_oracle_22); both orientations are
    scanned and the larger max wins. Higher local dimensions fall back to
    a full pair grid with hyperspherical angles and relative phases. The
    value is monotone non-decreasing under grid refinement with nested
    resolutions. A grid of more than _GENERIC_PAIR_CAP rows is refused
    before it is built.
    """
    if len(L.dims) != 2:
        raise DimensionMismatch("bipartite operator required")
    if L.dim > ORACLE_MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {L.dim} too large for the grid oracle")
    if spec is not None and spec.C.dims != L.dims:
        raise DimensionMismatch("constraint operator lives on a different space")
    if spec is not None and side not in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
        raise ValueError("constrained oracle needs side leq or geq")
    if not (is_integer(resolution) and resolution >= 2):
        raise ValueError(f"resolution {resolution!r} must be an integer of at least 2")
    # a qubit pair scans one party's kets (the other is closed form), other dims ket pairs
    power = 1 if L.dims == (2, 2) else L.dims[0] + L.dims[1] - 2
    if (resolution * (2 * resolution - 1)) ** power > _GENERIC_PAIR_CAP:
        raise ValueError("resolution too fine for the grid oracle; lower it")
    # unconstrained is the zero cut: <0> <= 0 everywhere, so every row is free
    N = 0.0 * L if spec is None else _cut_operator(spec, side)
    if L.dims == (2, 2):
        best = _oracle_22(L, N, resolution)
    else:
        best = _pair_grid_max(L, N, *(_party_ket_grid(d, resolution) for d in L.dims))
    if best == -np.inf:
        raise EmptyFeasibleSet("no feasible product state on the oracle grid")
    return best


# ---------------------------------------------------------------------------
# constrained supremum
# ---------------------------------------------------------------------------


def _cut_operator(spec: ConstraintSpec, side: HalfSpaceSide) -> HermitianOperator:
    """The cut N = s(C - cI) of one side, s = 1 for LEQ and -1 for GEQ: the side is <N> <= 0."""
    sense = 1.0 if side is HalfSpaceSide.LEQ else -1.0
    C = spec.C
    return HermitianOperator(sense * (C.mat - spec.c * np.eye(C.dim)), dims=C.dims)  # one validation


def _pow2_unit(mat):
    """(mat / 2^e, e), 2^e the power of two that brings mat's largest real or
    imaginary part into [0.5, 1); e = 0 for a zero mat.

    Dividing by a power of two rounds nothing (short of parts that turn
    subnormal), and a positive scaling of L or of N moves no maximiser, so
    the qubit-pair solve and the grid oracle work on coefficients near 1,
    whose squares neither overflow nor underflow at any scale that
    HermitianOperator holds.
    """
    x = np.ascontiguousarray(mat, dtype=complex).view(float)
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e).view(complex), e


def _cut_slack(mat) -> float:
    """How far past the cut <N> = 0 a product point still counts as on its side.

    mat is the cut's matrix N (either sign: only its norm is read). A point
    computed on the cut lands within rounding of it, on either side, and
    the rounding of <x|N|x> in dimension dim is of order dim * eps * |N|_F,
    so the band scales with the operators. The norm is taken of mat divided
    by a power of two (_pow2_unit) and scaled back exactly, so its squares
    neither overflow nor underflow. Every optimizer test of a product point
    against the cut reads it: the stage-1 short-circuit, the qubit cap
    kernels, the grid oracle, the random sample filter, the constrained
    see-saw and _cut_top.
    """
    scaled, e = _pow2_unit(mat)
    return np.ldexp(len(mat) * _EPS * np.linalg.norm(scaled), e)


def _top4(x):
    """``np.argsort(-x, kind="stable")[:4]`` without sorting all of x.

    The 4th smallest of -x bounds the candidates; sorted stably in index
    order, they rank as in the full sort. A nan bound (fewer than 4 rows
    that are not nan) keeps every row, and nan rows rank last either way.
    """
    neg = -x
    kth = np.partition(neg, 3)[3]
    cand = np.flatnonzero(~(neg > kth))
    return cand[np.argsort(neg[cand], kind="stable")[:4]]


def _qubit_pair_constrained(L, N):
    """Constrained supremum over qubit product states by one exact reduction.

    For the outer party's Bloch vector n, f(n) is the inner party's
    closed-form maximum over its Bloch sphere cut by <N> <= 0. f is
    scanned on the outer party's _PAIR_GRID (polar angles with both poles,
    azimuths without the 2 pi endpoint) with either party outer: where the
    optimum shrinks the inner cut to a point, f has a curved ridge in that
    orientation only. Every grid row of both orientations goes through the
    closed form (_inner_caps). L and N are first divided by powers of two
    (_pow2_unit), which moves no maximiser and rounds nothing; the value is
    read from L itself. The 4 best grid points of each orientation seed a
    compass search on (theta, phi): each step moves to the first best of
    the 8 off-centre points of the 3x3 stencil if it improves, else halves
    the step (the centre is the row's own point, whose value the row holds,
    so it never improves and is not evaluated), until the step is below
    COMPASS_STOP (Kolda, Lewis & Torczon, SIAM Rev. 45, 2003) or the row
    has run _COMPASS_MAX_STEPS steps. Most steps only halve, so one round
    evaluates a row's stencil at its step h and at h/2 ... h/2^(K-1),
    K = _COMPASS_LEVELS, and replays the steps: the row moves at its first
    improving level, or halves through every level it ran. h 0.5^m is
    exact, so every candidate is the one a step-by-step search evaluates.
    A state's K*8 candidates depend on its (orientation, theta, phi, h)
    alone and the kernel works row by row, so each state reaches the
    kernel once per solve: the starts fall onto one trajectory within a
    few steps, and a round mostly evaluates only the states of the rows
    that moved. The cache lives for the solve; every row replays the
    cached levels against its own value and step count. Returns (value,
    argmax, True, steps) at the best end point, steps being the most
    stencil steps any row ran, which is the round count of a search that
    runs one stencil per round; raises EmptyFeasibleSet when no grid point
    is feasible.
    """
    (Lm, _), (Nm, _) = _pow2_unit(L.mat), _pow2_unit(N.mat)
    S = _orientations(Lm, Nm)
    band = _cut_slack(Nm)
    vals = np.concatenate([_inner_caps(s, _PAIR_BLOCH, band) for s in S])
    if vals.max() == -np.inf:
        raise EmptyFeasibleSet("no product state on the qubit-pair grid satisfies the constraint side")
    # 4 starts per orientation, searched in lockstep
    ks = np.concatenate([_top4(half) for half in np.split(vals, 2)])
    side = [0] * 4 + [1] * 4
    fx = vals[ks + len(_PAIR_BLOCH) * np.array(side)].tolist()
    tn, pn = _PAIR_GRID
    step = np.array([np.pi / (tn - 1), 2 * np.pi / pn])
    stencil = step * np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])
    x = (step * np.stack(divmod(ks, pn), axis=1)).tolist()
    h = [1.0] * len(ks)
    steps = [0] * len(ks)
    K, width, widest = _COMPASS_LEVELS, len(stencil), float(step.max())
    halvings = [0.5**m for m in range(K)]
    # h (0.5^m stencil) is (h 0.5^m) stencil: scaling by 0.5^m is exact
    levels = np.multiply.outer(halvings, stencil)
    # (orientation, theta, phi, h) -> each level's first stencil maximum and the (theta, phi) at it
    seen = {}
    while True:
        # a row runs while its next step is at least COMPASS_STOP and within _COMPASS_MAX_STEPS
        live = [r for r in range(len(ks)) if h[r] * widest >= COMPASS_STOP and steps[r] < _COMPASS_MAX_STEPS]
        if not live:
            break
        keys = [(side[r], *x[r], h[r]) for r in live]
        new = sorted(set(keys).difference(seen))  # orientation 0 first, as the split below needs
        if new:
            state = np.array(new)
            cand = (state[:, None, None, 1:3] + state[:, 3, None, None, None] * levels).reshape(-1, 2)
            n = _qubit_bloch(cand[:, 0], cand[:, 1])
            # every level of the new states, at most 8 * _COMPASS_LEVELS * 8 kets, in one kernel call
            cut = np.count_nonzero(state[:, 0] == 0) * K * width
            fv = _cap_max_values(*_coeff_columns(np.concatenate([n[:cut] @ S[0], n[cut:] @ S[1]])), band)
            # each stencil's first maximum, as in index k of cand
            k = np.arange(len(fv), step=width) + fv.reshape(-1, width).argmax(axis=1)
            seen.update(zip(new, zip(fv[k].reshape(-1, K).tolist(), cand[k].reshape(-1, K, 2).tolist())))
        for r, key in zip(live, keys):
            best, to = seen[key]
            # level m is step steps + m + 1 of the row: it moves at its first
            # improving level, or halves through every level it runs
            m, moved = 0, False
            while m < K and h[r] * halvings[m] * widest >= COMPASS_STOP and steps[r] + m < _COMPASS_MAX_STEPS:
                if best[m] > fx[r]:
                    x[r], fx[r], moved = to[m], best[m], True
                    break
                m += 1
            steps[r] += m + moved
            h[r] *= 0.5**m
    s = int(np.argmax(fx))
    th, ph = np.array(x[s])[:, None]
    kets, n = _qubit_kets(th, ph), _qubit_bloch(th, ph)
    # only the winning row builds its maximiser
    outer = Ket.unit(kets[0])
    inner = Ket.unit(_inner_caps(S[side[s]], n, band, _cap_argmax)[0])
    pk = ProductKet(a=inner, b=outer) if side[s] else ProductKet(a=outer, b=inner)
    return expectation(L, pk), pk, True, max(steps)


def _quad(x, M):
    """<x|M|x> of every row of x, against one matrix M or a stack of them."""
    return np.einsum("...i,...ij,...j->...", x.conj(), M, x).real


def _bloch_coeffs(h):
    """(w0, v) of a stack of 2x2 Hermitian matrices: <y|h|y> = w0 + v.n."""
    t = np.einsum("rij,kji->rk", h, np.array(_PAULI)).real / 2
    return t[:, 0], t[:, 1:]


def _cut_top(M: np.ndarray, N: np.ndarray, band: float) -> np.ndarray:
    """Row-wise unit maximiser of <x|M|x> subject to <x|N|x> <= 0.

    M and N are (R, d, d) Hermitian stacks, and band is the _cut_slack of
    the cut they condition. Where the top eigenvector of M is feasible
    (<N> at most band) it is the maximiser. Elsewhere a multiplier mu > 0 is
    bracketed, by doubling and then bisection, on the sign of <N> at the top
    eigenvector of M - mu N, which falls as mu grows. The problem has zero
    duality gap (Beck & Eldar, SIAM J. Optim. 17, 2006), so the maximiser
    lies in the span of the bracket's two eigenvectors, also where the top
    eigenvalue is degenerate at the multiplier; that span is a qubit, solved
    exactly by _cap_argmax with the same band. The bracket's sign tests
    locate the crossing and keep 0. Rows where doubling finds no feasible
    eigenvector are nan.
    """
    _, x = _hermitian_top(M)
    cut = np.flatnonzero(_quad(x, N) > band)
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
    y = _cap_argmax(*_bloch_coeffs(QH @ M @ Q), *_bloch_coeffs(QH @ N @ Q), band)
    x[cut] = np.einsum("rij,rj->ri", Q, y)
    x[cut[g_hi > 0]] = np.nan
    return x


def _constrained_seesaw(L, N, A0, B0):
    """Alternating exact constrained ascent from R starting product kets at once.

    As in _seesaw_batch, but each half step maximises the conditioned form
    of L under the conditioned cut <N> <= 0 (_cut_top), and one matmul
    conditions L and N together (_conditioning of both). A move is taken
    only when it is feasible (<N> at most _cut_slack(N)) and does not lower
    the row's value; an infeasible start counts as -inf, so its first
    feasible move is taken. A row retires once a sweep gains no more than
    SEESAW_TOL, with at most _SEESAW_MAX_ITER sweeps. Returns per-row
    arrays (values, A, B, sweeps).
    """
    dA, dB = L.dims
    XA, XB = _conditioning(*(T.mat.reshape(dA, dB, dA, dB) for T in (L, N)))
    A = np.array(A0, dtype=complex)
    B = np.array(B0, dtype=complex)
    prod = np.einsum("ri,rk->rik", A, B).reshape(len(A), L.dim)
    vals = _quad(prod, L.mat)
    slack = _cut_slack(N.mat)
    vals[_quad(prod, N.mat) > slack] = -np.inf
    its = np.zeros(len(A), dtype=int)
    live = np.arange(len(A))
    for it in range(1, _SEESAW_MAX_ITER + 1):
        its[live] = it
        before = vals[live]
        for X, Y, XY, d in ((B, A, XA, dB), (A, B, XB, dA)):
            cond = _condition(Y[live], XY, d)
            Mc, Nc = cond[:, 0], cond[:, 1]
            x = _cut_top(Mc, Nc, slack)
            new = _quad(x, Mc)
            ok = (_quad(x, Nc) <= slack) & (new >= vals[live])
            X[live[ok]], vals[live[ok]] = x[ok], new[ok]
        live = live[vals[live] > before + SEESAW_TOL]
        if live.size == 0:
            break
    return vals, A, B, its


def _slerp(u: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Unit ket on the chord from u (t = 0) to v (t = 1), v's phase first
    aligned so that <u|v> is real and >= 0 whenever it is nonzero; for unit
    u, v and t in [0, 1] the chord point then has |w|^2 >= 1/2."""
    ov = np.vdot(u, v)
    if ov:
        v = v * (ov.conjugate() / abs(ov))
    w = (1 - t) * u + t * v
    return w / np.linalg.norm(w)


def _dual_refine(L, N, base):
    """Cut point (a, b) via a multiplier root-find on the penalized see-saw.

    For mu >= 0 the see-saw maximum v(mu) of L - mu*N gives the dual
    bound v(mu) on the side <N> <= 0. The bracket
    starts at mu = 0 from base, the unconstrained optimum, which lies past
    the cut; each penalized see-saw continues from the party-A kets of the
    bracket ends, with no random starts. The multiplier doubles from 1 at
    most _MU_DOUBLINGS times. A sign-change bisection narrows the bracket
    to its crossing, and the feasible and infeasible ends are then bridged
    along a product-state path onto the cut, which restores attainment
    also where the crossing is a jump between branches. Both bisections
    stop where the doubles do, once hi - lo is at most _EPS * max(1, hi)
    (_EPS as in _cut_slack): about 53 halvings each.
    None when no multiplier reaches the feasible side.
    """
    dA, dB = L.dims

    def gamma(a, b):
        prod = (a[:, None] * b).ravel()
        return float(np.vdot(prod, N.mat @ prod).real)

    def solve(mu, A0):
        M4 = (L.mat - mu * N.mat).reshape(dA, dB, dA, dB)
        vals, A, B, _, _ = _seesaw_batch(M4, A0)
        r = int(np.argmax(vals))
        return gamma(A[r], B[r]), (A[r], B[r])

    def wide(lo, hi):
        return hi - lo > _EPS * max(1.0, hi)

    lo_mu, hi_mu = 0.0, 1.0
    lo_pt = (base.argmax.a.amplitudes, base.argmax.b.amplitudes)
    for _ in range(_MU_DOUBLINGS):
        hi_gam, hi_pt = solve(hi_mu, [lo_pt[0]])
        if hi_gam <= 0.0:
            break
        lo_mu, lo_pt = hi_mu, hi_pt
        hi_mu *= 2.0
    else:
        return None
    while wide(lo_mu, hi_mu):
        mid = 0.5 * (lo_mu + hi_mu)
        gam, pt = solve(mid, [lo_pt[0], hi_pt[0]])
        if gam <= 0.0:
            hi_mu, hi_pt = mid, pt
        else:
            lo_mu, lo_pt = mid, pt
    # bridge the two ends through product states onto the cut
    (af, bf), (ai, bi) = hi_pt, lo_pt
    tlo, thi = 0.0, 1.0  # t=0 feasible side, t=1 infeasible side
    while wide(tlo, thi):
        tm = 0.5 * (tlo + thi)
        if gamma(_slerp(af, ai, tm), _slerp(bf, bi, tm)) <= 0.0:
            tlo = tm
        else:
            thi = tm
    return _slerp(af, ai, tlo), _slerp(bf, bi, tlo)


def _generic_constrained(L, N, cfg, base):
    """_constrained_seesaw from the best feasible points (<N> at most
    _cut_slack(N)) of 200k seeded random product states and from the cut
    point of the multiplier root-find, which starts at base, the infeasible
    unconstrained optimum, and draws no further random starts; returns
    (value, argmax, converged, sweeps) of the first best start, and raises
    EmptyFeasibleSet when no sample point is feasible."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EED)))
    A, B = random_product_batch(L.dims, 200_000, rng)
    vals = product_expectations(L, A, B)
    feas = np.flatnonzero(product_expectations(N, A, B) <= _cut_slack(N.mat))
    if feas.size == 0:
        raise EmptyFeasibleSet("no product state on the random product sample satisfies the constraint side")
    top = feas[np.argsort(-vals[feas], kind="stable")[:_CONSTRAINED_STARTS]]
    A0, B0 = A[top], B[top]
    refined = _dual_refine(L, N, base)
    if refined is not None:
        A0, B0 = np.vstack([A0, refined[0]]), np.vstack([B0, refined[1]])
    vals, A, B, its = _constrained_seesaw(L, N, A0, B0)
    r = int(np.argmax(vals))
    pk = ProductKet(a=Ket.unit(A[r]), b=Ket.unit(B[r]))
    return expectation(L, pk), pk, refined is not None, int(its[r])


def sup_product_constrained(
    L: HermitianOperator,
    spec: ConstraintSpec,
    side: HalfSpaceSide,
    cfg: OptimizerConfig,
) -> OptimizationResult:
    """Supremum of <a,b|L|a,b> over product kets on one constraint side.

    The side is <N> <= 0 with one cut operator N = s(C - cI) (_cut_operator),
    and a product point counts as on it up to _cut_slack(N) past the cut,
    a band that scales with the operators. Stage 1 returns the
    unconstrained optimum whenever s(<C> - c) at its argmax lies within
    that band; the band is read from C and c without building N. Otherwise,
    for qubit pairs, one party is maximised in closed form over its Bloch
    sphere cut by N and the other by the fixed _PAIR_GRID refined by
    compass search, with either party outer (_qubit_pair_constrained); the
    result is converged whenever a grid point is feasible. Beyond qubit
    pairs, a constrained see-saw runs from the 16 best feasible points of a
    random product sample and from the cut point of a multiplier root-find,
    which starts at the stage-1 optimum, continues from its bracket ends,
    draws no random starts and always bridges its two ends onto the cut;
    each half step maximises one party exactly under the conditioned
    constraint (_cut_top), and the result is converged when the root-find
    returned (_generic_constrained). A hybrid result counts the most
    compass stencil steps of any row or the winning row's constrained
    sweeps as its iterations. Only cfg.restarts and cfg.seed are read; the
    see-saw stopping rule is SEESAW_TOL and _SEESAW_MAX_ITER. Raises
    EmptyFeasibleSet when the qubit-pair grid or the random sample holds no
    feasible point.
    """
    if side not in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
        raise ValueError("side must be leq or geq")
    if spec.C.dims != L.dims:
        raise DimensionMismatch("constraint operator lives on a different space")
    base = sup_product_unconstrained(L, cfg)
    cv = expectation(spec.C, base.argmax)
    sense = 1.0 if side is HalfSpaceSide.LEQ else -1.0
    if sense * (cv - spec.c) <= _cut_slack(spec.C.mat - spec.c * np.eye(L.dim)):
        return replace(base, constraint_value=cv)

    N = _cut_operator(spec, side)
    if L.dims == (2, 2):
        value, pk, converged, iterations = _qubit_pair_constrained(L, N)
    else:
        value, pk, converged, iterations = _generic_constrained(L, N, cfg, base)
    return OptimizationResult(
        value=float(value),
        argmax=pk,
        constraint_value=float(expectation(spec.C, pk)),
        converged=converged,
        iterations=iterations,
        method="hybrid",
    )


# ---------------------------------------------------------------------------
# case classification, alpha0, identity residual
# ---------------------------------------------------------------------------


def classify_case(L: HermitianOperator, spec: ConstraintSpec, cfg: OptimizerConfig) -> CaseLabel:
    """Locate the unconstrained optima of L and L - C relative to the cut.

    The optimum of L must not sit strictly on the <= side (that is the
    standing sign convention; callers should swap the sides if it does).
    An optimum within the BOUNDARY_TOL band of halfspace_membership makes
    the label DEGENERATE. A constraint on another space is refused before
    any solve.
    """
    if spec.C.dims != L.dims:
        raise DimensionMismatch("constraint operator lives on a different space")
    opt_l = sup_product_unconstrained(L, cfg)
    side_l = halfspace_membership(opt_l.argmax, spec)
    if side_l is HalfSpaceSide.LEQ:
        c_at_l = expectation(spec.C, opt_l.argmax)
        raise AssumptionViolated(
            f"optimum of the test operator has constraint value {c_at_l!r} < c; "
            "relabel the half-spaces"
        )
    side_d = halfspace_membership(sup_product_unconstrained(L - spec.C, cfg).argmax, spec)
    if HalfSpaceSide.BOUNDARY in (side_l, side_d):
        return CaseLabel.DEGENERATE
    return CaseLabel.CASE_I if side_d is HalfSpaceSide.GEQ else CaseLabel.CASE_II


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
    res = sup_product_constrained(rotated_test(spec, L, lam), spec, HalfSpaceSide.LEQ, cfg)
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
    means that optimum lay more than the cut's _cut_slack past c, on the
    >= side. The warning fires when a "seesaw" optimum lies below the
    BOUNDARY_TOL band of halfspace_membership.
    """
    if not -math.inf < alpha < 1.0:
        raise ValueError("alpha must be finite and < 1")
    pc_res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
    scale, _, nbar = normalised_rotation(spec, L, alpha)
    # nbar is a positive multiple of the rotated operator: same argmax
    res = sup_product_constrained(nbar, spec, HalfSpaceSide.LEQ, cfg)
    for name, r in (("test", pc_res), ("rotated test", res)):
        if r.method == "seesaw" and halfspace_membership(r.argmax, spec) is HalfSpaceSide.LEQ:
            warnings.warn(
                f"optimum of the {name} operator crosses to the <= side; "
                "the affine identity is not guaranteed",
                RuntimeWarning,
                stacklevel=2,
            )
    affine = alpha * spec.c + (1.0 - alpha) * pc_res.value
    return abs(scale * res.value - affine)
