"""Dense complex linear algebra for small bipartite Hilbert spaces.

Everything here is desk scale: dense row-major complex matrices with a
total dimension cap of 64. Hermiticity and normalization are validated
once at construction and trusted afterwards, so the hot loops (see-saw
updates, noise scans) stay cheap; an operator stores the exactly Hermitian
part (M + M^dagger)/2 of the matrix it has validated, so sums, differences
and real multiples of accepted operators are accepted too, and the trace of
that part, so Tr(X) is a stored float. ``expectation`` takes density
matrices (anything with an ``.op``) on its first test and reads one with
a single ``np.vdot``, exact for the stored Hermitian part. All objects are
immutable values. Eigensystems here come from LAPACK through
``numpy.linalg.eigh``; the see-saw in ``optimize`` calls it batched over
restarts for parties of dimension 3 and more, and solves qubit parties in
closed form. The constants block below is the package's tolerance table:
every rounding decision of ``uew`` has one name and one reason there, and
the other modules import the names they read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

MAX_TOTAL_DIM = 64

# Tolerance table. Each name is one decision; equal values that decide
# different things keep separate names.
# -- validation of kets, operators and states
NORM_TOL = 1e-12         # a ket's norm may differ from 1 by this much
HERM_TOL = 1e-12         # entrywise operator equality (allclose); Hermiticity at construction, times max(1, largest entry)
PHASE_TOL = 1e-12        # an amplitude of this modulus or less cannot fix the global phase
INPUT_TOL = 1e-10        # density matrices and decoded operators carry rounding from construction or decimal text
TIE_TOL = 1e-12          # values this close count as tied
# -- witnesses and scans
DETECTION_TOL = 1e-10    # a witness fires only when its value lies below -DETECTION_TOL
BOUNDARY_TOL = 1e-9      # a state this close to Tr(rho C) = c is on the boundary; optimizers use optimize._cut_slack instead
SCAN_RESOLUTION = 1e-3   # the coarsest threshold_scan resolution, and its default
# -- optimizers
SEESAW_TOL = 1e-11       # a see-saw row retires once a sweep gains less than this
COMPASS_STOP = 1e-13     # a compass search stops once its step in radians falls below this
ALPHA0_FEAS_TOL = 1e-8   # a rotated bound this far below its supremum still counts as valid
ALPHA0_WIDTH = 1e-6      # compute_alpha0 stops once its bracket is this narrow in alpha


class DimensionMismatch(ValueError):
    """Operands act on incompatible Hilbert spaces."""


def is_integer(x) -> bool:
    """True for a Python or numpy integer; false for bool, which Python counts as one, and for floats."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _canonicalize_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first non-tiny amplitude is real >= 0."""
    z = next(z for z in vec if abs(z) > PHASE_TOL)  # Ket passes unit vectors: one is >= 1/sqrt(n)
    return vec * (z.conjugate() / abs(z))


def _lex_key(vec: np.ndarray) -> tuple:
    return tuple(t for z in vec for t in (z.real, z.imag))


class Ket:
    """Normalized pure-state vector with a canonical global phase."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("ket must be a non-empty 1-d vector")
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"ket norm {norm!r} is not 1 within {NORM_TOL}")
        vec = _canonicalize_phase(vec)
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    def __setattr__(self, name, value):
        raise AttributeError("Ket is immutable")

    @classmethod
    def unit(cls, amplitudes) -> "Ket":
        """Build a Ket from any non-zero finite vector by normalizing it."""
        vec = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(vec)
        if not 0 < norm < np.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm!r}")
        return cls(vec / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Ket":
        if not (is_integer(dim) and is_integer(index) and 0 <= index < dim):
            raise ValueError(f"basis index {index!r} must be an integer in [0, dim) for dim {dim!r}")
        vec = np.zeros(dim, dtype=complex)
        vec[index] = 1.0
        return cls(vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self, dims=None) -> "HermitianOperator":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return HermitianOperator(mat, dims=dims)

    def __repr__(self) -> str:
        return f"Ket({np.array2string(self.amplitudes, precision=6)})"


class HermitianOperator:
    """Hermitian matrix with party-dimension metadata.

    ``dims`` is the tuple of local dimensions: ``(dA, dB)`` for a bipartite
    operator, ``(d,)`` for a single-party one. The product of ``dims`` must
    equal the matrix dimension. Finiteness and Hermiticity are checked
    entrywise at construction, the latter within HERM_TOL times the largest
    entry modulus (or 1, if that is smaller), and then trusted. The stored
    matrix is the exactly Hermitian part (M + M^dagger)/2, bit for bit M
    when M is exactly Hermitian, so arithmetic on accepted operators stays
    accepted; a matrix whose stored part would overflow to inf is refused
    as non-finite. Its trace is stored with it when it is validated, so
    ``trace()`` reads a float and computes nothing.
    """

    __slots__ = ("mat", "dims", "_trace")

    def __init__(self, mat, dims=None) -> None:
        m = np.array(mat, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator must be a square matrix")
        n = m.shape[0]
        if n > MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {n} exceeds cap {MAX_TOTAL_DIM}")
        non_finite = "matrix must be finite and Hermitian; it has a non-finite entry"
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or nan, refused below
            top = np.abs(m).max()  # NaN or inf when any entry is
            if not math.isfinite(top):
                raise ValueError(non_finite)
            # relative to the largest entry: the rounding asymmetry of a computed
            # operator such as U M U^dagger grows with its norm
            if not np.abs(m - m.conj().T).max() <= HERM_TOL * max(1.0, top):
                raise ValueError(f"matrix is not Hermitian within {HERM_TOL} times max(1, largest |entry|)")
            m = (m + m.conj().T) / 2  # overflows where an entry passes half the largest double
        if not np.isfinite(m).all():
            raise ValueError(non_finite + " in (M + M^dagger)/2")
        if dims is None:
            dims = (n,)
        dims = tuple(dims)
        if len(dims) not in (1, 2) or not all(is_integer(d) and d > 0 for d in dims):
            raise ValueError("dims must be one or two positive integers")
        dims = tuple(int(d) for d in dims)
        if int(np.prod(dims)) != n:
            raise DimensionMismatch(f"dims {dims} do not factor dimension {n}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_trace", float(m.trace().real))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @classmethod
    def identity(cls, dims) -> "HermitianOperator":
        dims = (dims,) if is_integer(dims) else tuple(dims)
        return cls(np.eye(int(np.prod(dims))), dims=dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_space(other)
        return HermitianOperator(self.mat + other.mat, dims=self.dims)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_space(other)
        return HermitianOperator(self.mat - other.mat, dims=self.dims)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.mat * float(scalar), dims=self.dims)

    __rmul__ = __mul__

    def _check_same_space(self, other: "HermitianOperator") -> None:
        if self.dims != other.dims:
            raise DimensionMismatch(f"dims {self.dims} vs {other.dims}")

    def allclose(self, other: "HermitianOperator", tol: float = HERM_TOL) -> bool:
        return self.dims == other.dims and bool(
            np.max(np.abs(self.mat - other.mat)) <= tol
        )

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.mat)))

    def trace(self) -> float:
        return self._trace

    def __repr__(self) -> str:
        return f"HermitianOperator(dims={self.dims}, dim={self.dim})"


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its normalized eigenvector."""

    value: float
    vector: Ket


def tensor_product(a, b):
    """Kronecker product of two kets or two operators.

    The result carries ``dims = (dim(a), dim(b))``; mixing a ket with an
    operator is rejected.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket((a.amplitudes[:, None] * b.amplitudes).ravel())  # np.kron's bytes, without its overhead
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.mat, b.mat), dims=(a.dim, b.dim))
    raise TypeError("tensor_product needs two kets or two operators")


def _state_matrix_or_ket(state):
    # Accepts anything with .op (DensityMatrix), HermitianOperator (density),
    # anything with .a/.b kets (ProductKet) or Ket. Returns (matrix, vector,
    # dims), one of matrix and vector None; a bare Ket has no dims. Density
    # matrices, which noise scans pass, are decided by the first test. A
    # product ket's vector is np.kron's, byte for byte.
    state = getattr(state, "op", state)
    if isinstance(state, HermitianOperator):
        return state.mat, None, state.dims
    if hasattr(state, "a") and hasattr(state, "b"):
        return None, (state.a.amplitudes[:, None] * state.b.amplitudes).ravel(), (state.a.dim, state.b.dim)
    if isinstance(state, Ket):
        return None, state.amplitudes, None
    raise TypeError(f"unsupported state object {type(state).__name__}")


def expectation(M: HermitianOperator, state) -> float:
    """Tr(M rho) or <psi|M|psi>, returned as a real number.

    A bipartite state must carry the operator's party dims when the
    operator is bipartite too; a bare Ket and single-party dims are checked
    on the total dimension only. The operator is exactly Hermitian, so the
    imaginary part is rounding (growing with ||M||): the real part is returned.
    A density matrix rho is read with one vdot, sum conj(rho_ij) M_ij,
    which is Tr(M rho) exactly because rho stores its exactly Hermitian
    part (conj(rho_ij) = rho_ji); only the summation order, and so the
    last bits, differ from sum M_ij rho_ji.
    """
    mat, vec, dims = _state_matrix_or_ket(state)
    if dims is not None and len(dims) == 2 == len(M.dims) and dims != M.dims:
        raise DimensionMismatch(f"state dims {dims} vs operator dims {M.dims}")
    if vec is not None:
        if vec.size != M.dim:
            raise DimensionMismatch(f"state dim {vec.size} vs operator dim {M.dim}")
        val = np.vdot(vec, M.mat @ vec)
    else:
        if mat.shape[0] != M.dim:
            raise DimensionMismatch(
                f"state dim {mat.shape[0]} vs operator dim {M.dim}"
            )
        val = np.vdot(mat, M.mat)
    return float(val.real)


def conditional_operator(M: HermitianOperator, k: Ket, party: str) -> HermitianOperator:
    """Contract one party of a bipartite operator with a fixed ket.

    For ``party='A'`` returns the operator R on party B satisfying
    <b|R|b> = <k,b|M|k,b> for every |b>; for ``party='B'`` the roles swap.
    """
    if len(M.dims) != 2:
        raise DimensionMismatch("conditional_operator needs a bipartite operator")
    dA, dB = M.dims
    four = M.mat.reshape(dA, dB, dA, dB)
    v = k.amplitudes
    if party == "A":
        if k.dim != dA:
            raise DimensionMismatch(f"ket dim {k.dim} vs party A dim {dA}")
        red = np.einsum("i,ikjl,j->kl", v.conj(), four, v)
    elif party == "B":
        if k.dim != dB:
            raise DimensionMismatch(f"ket dim {k.dim} vs party B dim {dB}")
        red = np.einsum("k,ikjl,l->ij", v.conj(), four, v)
    else:
        raise ValueError("party must be 'A' or 'B'")
    return HermitianOperator(red)  # which stores the exactly Hermitian part


def eig_hermitian(M: HermitianOperator):
    """All eigenvalues (ascending) and column eigenvectors of a Hermitian operator.

    LAPACK's Hermitian solver (``numpy.linalg.eigh``) does every dimension.
    """
    return np.linalg.eigh(M.mat)


def max_eigenpair(M: HermitianOperator) -> EigenPair:
    """Largest eigenvalue and eigenvector.

    The eigensystem comes from ``numpy.linalg.eigh`` (see ``eig_hermitian``).
    A degenerate top eigenvalue (within TIE_TOL) is broken deterministically
    in favour of the candidate whose canonicalized amplitudes are
    lexicographically largest, which picks the lowest-index basis vector
    for diagonal ties.
    """
    vals, vecs = eig_hermitian(M)
    top = vals[-1]
    cand = [Ket.unit(vecs[:, i]) for i in range(len(vals)) if vals[i] >= top - TIE_TOL]
    best = max(cand, key=lambda k: _lex_key(k.amplitudes))
    return EigenPair(value=float(top), vector=best)
