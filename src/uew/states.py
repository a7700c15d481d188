"""Product states, density matrices and the worked two-qubit instance.

Includes the noisy-state family rho_p = (p/d) I + (1-p) |phi><phi| and a
partial-transpose test used as an internal entanglement oracle for 2x2 and
2x3 fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    HermitianOperator,
    INPUT_TOL,
    Ket,
    PHASE_TOL,
    eig_hermitian,
    tensor_product,
)


@dataclass(frozen=True)
class ProductKet:
    """Pair of normalized single-party kets |a> and |b>."""

    a: Ket
    b: Ket

    @property
    def dims(self) -> tuple:
        return (self.a.dim, self.b.dim)

    def ket(self) -> Ket:
        return tensor_product(self.a, self.b)

    def projector(self) -> HermitianOperator:
        return self.ket().projector(dims=self.dims)


class DensityMatrix:
    """Unit-trace positive semidefinite Hermitian operator."""

    __slots__ = ("op",)

    def __init__(self, op: HermitianOperator) -> None:
        tr = op.trace()
        if abs(tr - 1.0) > INPUT_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {INPUT_TOL}")
        vals, _ = eig_hermitian(op)
        if vals[0] < -INPUT_TOL:
            raise ValueError(f"smallest eigenvalue {vals[0]!r} below -{INPUT_TOL}")
        object.__setattr__(self, "op", op)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def from_ket(cls, ket: Ket, dims=None) -> "DensityMatrix":
        return cls(ket.projector(dims=dims))

    @classmethod
    def from_product(cls, pk: ProductKet) -> "DensityMatrix":
        return cls(pk.projector())

    @classmethod
    def maximally_mixed(cls, dims) -> "DensityMatrix":
        ident = HermitianOperator.identity(dims)
        return cls(ident * (1.0 / ident.dim))

    @property
    def dims(self) -> tuple:
        return self.op.dims

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.op.dims})"


@dataclass(frozen=True)
class Example31Config:
    """Parameters of the worked two-qubit instance.

    ``amp_alpha`` and ``amp_beta`` are state amplitudes (the remaining one,
    delta, is fixed by normalization); ``x`` scales the POVM elements and
    ``c`` is the constraint value. The witness rotation parameter alpha is
    unrelated to ``amp_alpha``.
    """

    amp_alpha: float = 0.7
    amp_beta: float = 0.5
    x: float = 2.0 / 3.0
    c: float = 0.01

    def __post_init__(self):
        rem = 1.0 - self.amp_alpha**2 - 2.0 * self.amp_beta**2
        if rem < 0:
            raise ValueError("amp_alpha^2 + 2 amp_beta^2 exceeds 1; delta imaginary")
        if not 0.0 < self.x < 1.0:
            raise ValueError("x must lie in (0, 1)")

    @property
    def delta(self) -> float:
        return float(np.sqrt(1.0 - self.amp_alpha**2 - 2.0 * self.amp_beta**2))


def build_phi(cfg: Example31Config) -> Ket:
    """Two-qubit ket (amp_alpha, amp_beta, amp_beta, delta) in the product basis."""
    return Ket([cfg.amp_alpha, cfg.amp_beta, cfg.amp_beta, cfg.delta])


def build_povm(x: float):
    """POVM-style qubit elements P1 = x|1><1|, P2 = |xi+><xi+|, P3 = |xi-><xi-|.

    Here |xi+-> = |1>/sqrt(2) +- sqrt((1-x)/2)|0>, kept unnormalized exactly
    as defined; they do not sum to the identity and are not meant to.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    xi_p = ket1 / np.sqrt(2.0) + np.sqrt((1.0 - x) / 2.0) * ket0
    xi_m = ket1 / np.sqrt(2.0) - np.sqrt((1.0 - x) / 2.0) * ket0
    p1 = HermitianOperator(x * np.outer(ket1, ket1.conj()))
    p2 = HermitianOperator(np.outer(xi_p, xi_p.conj()))
    p3 = HermitianOperator(np.outer(xi_m, xi_m.conj()))
    return p1, p2, p3


def build_example31(cfg: Example31Config):
    """Constraint operator C = P1 x P1, test operator L = P2 x P2, and |phi>."""
    p1, p2, _ = build_povm(cfg.x)
    C = tensor_product(p1, p1)
    L = tensor_product(p2, p2)
    return C, L, build_phi(cfg)


@dataclass(frozen=True)
class NoisyStateFamily:
    """White-noise mixtures (p/d) I + (1-p) pure for p in [0, 1]."""

    pure: DensityMatrix

    def member(self, p: float) -> DensityMatrix:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        d = self.pure.op.dim
        mixed = (p / d) * np.eye(d) + (1.0 - p) * self.pure.op.mat
        return DensityMatrix(HermitianOperator(mixed, dims=self.pure.dims))


def noisy_member(family: NoisyStateFamily, p: float) -> DensityMatrix:
    return family.member(p)


def _rng_of(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_product_ket(dims, rng_seed) -> ProductKet:
    """Rotation-invariant random product ket, deterministic per seed.

    Components are complex standard normal vectors, normalized and phase
    canonicalized.
    """
    rng = _rng_of(rng_seed)
    kets = []
    for d in dims:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        kets.append(Ket.unit(v))
    return ProductKet(a=kets[0], b=kets[1])


def random_product_batch(dims, n: int, rng_seed):
    """Vectorized batch of n random product kets.

    Returns two arrays of shape (n, dA) and (n, dB) with unit rows and
    canonical phases. Meant for bulk expectation sampling.
    """
    rng = _rng_of(rng_seed)
    out = []
    for d in dims:
        m = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        m /= np.linalg.norm(m, axis=1)[:, None]
        # canonical phase per row: rotate by the first non-tiny amplitude
        idx = (np.abs(m) > PHASE_TOL).argmax(axis=1)
        lead = m[np.arange(n), idx]
        m *= (lead.conj() / np.abs(lead))[:, None]
        out.append(m)
    return tuple(out)


def product_expectations(M: HermitianOperator, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<a_i, b_i| M |a_i, b_i> for every row pair of two ket batches."""
    if len(M.dims) != 2:
        raise DimensionMismatch("bipartite operator required")
    dA, dB = M.dims
    n = A.shape[0]
    prod = np.einsum("ni,nk->nik", A, B).reshape(n, dA * dB)
    return np.einsum("ni,ni->n", prod.conj() @ M.mat, prod).real


def partial_transpose(op: HermitianOperator, party: str = "B") -> HermitianOperator:
    """Transpose one party of a bipartite operator."""
    if len(op.dims) != 2:
        raise DimensionMismatch("partial transpose needs a bipartite operator")
    dA, dB = op.dims
    four = op.mat.reshape(dA, dB, dA, dB)
    # row index is (i,k), column (j,l); transposing a party swaps its two slots
    if party == "A":
        out = four.transpose(2, 1, 0, 3)
    elif party == "B":
        out = four.transpose(0, 3, 2, 1)
    else:
        raise ValueError("party must be 'A' or 'B'")
    return HermitianOperator(out.reshape(dA * dB, dA * dB), dims=op.dims)


def min_eig_partial_transpose(rho: DensityMatrix) -> float:
    """Smallest eigenvalue after partial transpose.

    Negative means entangled; for 2x2 and 2x3 systems a non-negative value
    certifies separability, which makes this a ground-truth oracle for the
    detection tests at those dimensions.
    """
    vals, _ = eig_hermitian(partial_transpose(rho.op, "B"))
    return float(vals[0])
