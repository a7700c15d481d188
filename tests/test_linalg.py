import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from uew import (
    DensityMatrix,
    DimensionMismatch,
    HermitianOperator,
    Ket,
    ProductKet,
    conditional_operator,
    eig_hermitian,
    expectation,
    max_eigenpair,
    tensor_product,
)
from uew.fileio import load_operator, save_operator
from uew.linalg import _state_matrix_or_ket
from uew.states import build_povm


def rand_herm(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianOperator((g + g.conj().T) / 2, dims=(2, n // 2) if n % 2 == 0 and n > 2 else (n,))


class TestKet:
    def test_norm_validated(self):
        with pytest.raises(ValueError):
            Ket([1.0, 1.0])
        # a NaN norm fails the tolerance check too
        with pytest.raises(ValueError):
            Ket([np.nan, 0.0])
        with pytest.raises(ValueError):
            Ket([np.inf, 0.0])
        for bad in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                Ket.unit(bad)

    @pytest.mark.parametrize("index", [-1, 2, 1.0, True])
    def test_basis_index_out_of_range_or_not_integer(self, index):
        # numpy would read -1 as the last index and refuse 1.0 with IndexError
        with pytest.raises(ValueError, match="basis index"):
            Ket.basis(2, index)

    def test_unit_normalizes(self):
        k = Ket.unit([3.0, 4.0])
        assert np.allclose(k.amplitudes, [0.6, 0.8])

    def test_canonical_phase(self):
        k = Ket.unit(np.exp(1j * 0.7) * np.array([0.6, 0.8j]))
        assert k.amplitudes[0].imag == pytest.approx(0.0, abs=1e-15)
        assert k.amplitudes[0].real > 0
        # relative phase survives
        assert k.amplitudes[1] == pytest.approx(0.8j, abs=1e-12)

    def test_canonical_phase_skips_tiny_leading(self):
        k = Ket.unit([0.0, 1j])
        assert k.amplitudes[1] == pytest.approx(1.0)

    def test_immutable(self):
        k = Ket([1.0, 0.0])
        with pytest.raises(AttributeError):
            k.amplitudes = np.array([0, 1])
        with pytest.raises(ValueError):
            k.amplitudes[0] = 5


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator([[0, 1], [0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, where):
        m = np.eye(2, dtype=complex)
        i, j = where
        m[i, j] = bad
        m[j, i] = np.conj(bad)
        with pytest.raises(ValueError):
            HermitianOperator(m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entries_raise_without_warning(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = m[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and Hermitian"):
                HermitianOperator(m)

    @pytest.mark.parametrize(
        "m", [np.diag([1e308, 1.0]), np.diag([1.0, -1e308]), np.array([[1.0, 1e308j], [-1e308j, 1.0]])]
    )
    def test_overflowing_hermitian_part_raises_without_warning(self, m):
        # (M + M^dagger)/2 overflows where an entry passes half the largest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and Hermitian"):
                HermitianOperator(m)

    def test_largest_storable_entries_keep_their_bytes(self):
        for m in (np.diag([8e307, 1.0]), np.array([[1.0, 8e307j], [np.conj(8e307j), -8e307]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h = HermitianOperator(m)
            assert h.mat.tobytes() == m.astype(complex).tobytes()
            assert h.trace() == float(np.trace(m).real)

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.eye(4), dims=(2, 3))

    @pytest.mark.parametrize("dims", [(2.5, 2), (True, 4), (2.0, 2)])
    def test_rejects_non_integer_dims(self, dims):
        # int() would truncate 2.5 to 2 and read True as 1, both factoring 4
        with pytest.raises(ValueError, match="positive integers"):
            HermitianOperator(np.eye(4), dims=dims)

    def test_identity_of_a_numpy_integer(self):
        assert HermitianOperator.identity(np.int64(4)).dims == (4,)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.eye(81), dims=(9, 9))

    def test_arithmetic_keeps_dims(self):
        a = HermitianOperator(np.eye(4), dims=(2, 2))
        b = 2.0 * a - a
        assert b.dims == (2, 2)
        assert b.allclose(a)

    def test_stores_exactly_hermitian_part(self):
        # each operand is within HERM_TOL of Hermitian, their difference twice
        # as far; the stored Hermitian parts make the difference exact
        h = rand_herm(np.random.default_rng(3), 4).mat
        E = np.zeros((4, 4), dtype=complex)
        E[0, 1] = 0.8e-12
        diff = HermitianOperator(h + E, dims=(2, 2)) - HermitianOperator(0.5 * h - E, dims=(2, 2))
        assert np.array_equal(diff.mat, diff.mat.conj().T)  # exact, as -0.0 == 0.0
        assert diff.allclose(HermitianOperator(0.5 * h, dims=(2, 2)))

    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
    def test_accepts_large_rotated_operators(self, scale):
        # q M q^dagger is Hermitian only to rounding that grows with the norm
        # of M; an absolute band of 1e-12 rejected every draw from 1e4 on
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            HermitianOperator(q @ (scale * (g + g.conj().T) / 2) @ q.conj().T, dims=(2, 2))

    def test_relative_band_still_rejects_non_hermitian(self):
        m = 1e5 * np.eye(2, dtype=complex)
        m[0, 1] = 1e-6  # 1e-11 of the largest entry, above the band
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(m)

    def test_exactly_hermitian_input_kept_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 6):
            m = rand_herm(rng, n).mat.copy()
            assert HermitianOperator(m).mat.tobytes() == m.tobytes()


    def test_trace_is_stored_bit_for_bit(self, tmp_path):
        # trace() reads the float stored at validation; it must be the trace
        # of the stored Hermitian part, computed as it was on every call
        rng = np.random.default_rng(11)
        ops = []
        for n in (2, 3, 4, 6, 9):
            g = 1e3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            skew = np.zeros((n, n), dtype=complex)
            skew[0, -1] = 3e-10  # within the band: the stored part is not the input
            ops.append(HermitianOperator(g + g.conj().T + skew))
        a, b = rand_herm(rng, 4), rand_herm(rng, 4)
        ops += [a + b, a - b, 0.1 * a, a * -3.7, HermitianOperator.identity((2, 3)),
                HermitianOperator.identity(5) * (1.0 / 5.0), Ket.unit(rng.normal(size=4)).projector(dims=(2, 2)),
                tensor_product(rand_herm(rng, 2), rand_herm(rng, 3)), conditional_operator(a, Ket.basis(2, 1), "A")]
        for k, op in enumerate(ops[:4]):
            path = tmp_path / f"op{k}.json"
            save_operator(op, path)
            ops.append(load_operator(path))
        for op in ops:
            want = float(op.mat.trace().real)
            assert type(op.trace()) is float
            assert op.trace().hex() == want.hex()

    def test_stored_trace_is_read_only(self):
        op = HermitianOperator(np.diag([0.25, 0.75]))
        with pytest.raises(AttributeError):
            op._trace = 2.0
        with pytest.raises(AttributeError):
            op.trace = lambda: 2.0
        assert op.trace() == 1.0


class TestTensorProduct:
    def test_identity(self):
        i2 = HermitianOperator.identity((2,))
        out = tensor_product(i2, i2)
        assert out.dims == (2, 2)
        assert np.allclose(out.mat, np.eye(4))

    def test_basis_kets(self):
        one = Ket.basis(2, 1)
        out = tensor_product(one, one)
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    def test_povm_rank_one(self):
        p1, _, _ = build_povm(2.0 / 3.0)
        out = tensor_product(p1, p1)
        expected = np.zeros((4, 4))
        expected[3, 3] = 4.0 / 9.0
        assert np.allclose(out.mat, expected)

    def test_rejects_mixed_kinds(self):
        with pytest.raises(TypeError):
            tensor_product(Ket([1, 0]), HermitianOperator.identity((2,)))

    def test_associativity_and_dims(self):
        rng = np.random.default_rng(5)
        ops = [rand_herm(rng, 4) for _ in range(3)]
        left = tensor_product(tensor_product(ops[0], ops[1]), ops[2])
        right = tensor_product(ops[0], tensor_product(ops[1], ops[2]))
        assert np.allclose(left.mat, right.mat, atol=1e-12)
        assert left.dims == (16, 4) and right.dims == (4, 16)
        assert left.dim == right.dim == 64

    def test_product_kets_equal_kron_bytes(self):
        # the product vector of a ket pair is built as (a[:, None] * b).ravel();
        # it must be np.kron's, byte for byte, also at zero and -0.0 parts
        rng = np.random.default_rng(26)
        specials = np.array([0.0, -0.0])
        for dA, dB in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for _ in range(2000):
                a, b = (rng.normal(size=(2, d)) for d in (dA, dB))
                for x in (a, b):
                    hit = rng.random(x.shape) < 0.3
                    x[hit] = rng.choice(specials, size=hit.sum())
                a, b = a[0] + 1j * a[1], b[0] + 1j * b[1]
                pair = SimpleNamespace(a=SimpleNamespace(amplitudes=a, dim=dA), b=SimpleNamespace(amplitudes=b, dim=dB))
                assert _state_matrix_or_ket(pair)[1].tobytes() == np.kron(a, b).tobytes()
                if np.any(a) and np.any(b):
                    ka, kb = Ket.unit(a), Ket.unit(b)
                    got = tensor_product(ka, kb).amplitudes
                    assert got.tobytes() == Ket(np.kron(ka.amplitudes, kb.amplitudes)).amplitudes.tobytes()


class TestExpectation:
    def test_trace_normalization(self, example):
        i4 = HermitianOperator.identity((2, 2))
        assert expectation(i4, example["rho0"]) == pytest.approx(1.0, abs=1e-12)

    def test_constraint_on_pure_state(self, example):
        # (4/9)|11><11| against the worked pure state: (4/9) * 0.01
        assert expectation(example["C"], example["rho0"]) == pytest.approx(1.0 / 225.0, abs=1e-14)

    def test_orthogonality(self):
        proj = Ket.basis(4, 3).projector(dims=(2, 2))
        zero = tensor_product(Ket.basis(2, 0), Ket.basis(2, 0))
        assert expectation(proj, zero) == pytest.approx(0.0, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rand_herm(rng, 4)
            n = rand_herm(rng, 4)
            k = Ket.unit(rng.normal(size=4) + 1j * rng.normal(size=4))
            a, b = rng.normal(size=2)
            lhs = expectation(a * m + b * n, k)
            rhs = a * expectation(m, k) + b * expectation(n, k)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(HermitianOperator.identity((2, 2)), Ket([1, 0]))

    def test_real_part_of_large_operators(self):
        # the imaginary part of a Hermitian expectation is rounding that grows
        # with the operator's norm; at norm ~1e7 it is no reason to fail
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            M = HermitianOperator(1e7 * (g + g.conj().T) / 2)
            k = Ket.unit(rng.normal(size=3) + 1j * rng.normal(size=3))
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = DensityMatrix(HermitianOperator(x @ x.conj().T / np.trace(x @ x.conj().T).real))
            cases = [(k, np.vdot(k.amplitudes, M.mat @ k.amplitudes)), (rho, np.trace(M.mat @ rho.op.mat))]
            for state, exact in cases:
                val = expectation(M, state)
                assert type(val) is float
                assert val == pytest.approx(exact.real, rel=1e-12, abs=1e-6)

    def test_density_matrix_within_rounding_of_the_trace(self):
        # a density matrix is read with one vdot: within dim^2 eps |M|_F |rho|_F
        # of Tr(M rho) summed as M_ij rho_ji, and for a pure state of the ket's
        # <phi|M|phi>; rho and its operator are read the same way, bit for bit
        eps = np.finfo(float).eps
        rng = np.random.default_rng(27)
        for i in range(300):
            dims = [(2, 2), (2, 3), (3, 3)][i % 3]
            n = dims[0] * dims[1]
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            M = HermitianOperator(10.0 ** rng.uniform(-6.0, 6.0) * (g + g.conj().T) / 2, dims=dims)
            phi = Ket.unit(rng.normal(size=n) + 1j * rng.normal(size=n))
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            mixed = DensityMatrix(HermitianOperator(x @ x.conj().T / np.trace(x @ x.conj().T).real, dims=dims))
            pure = DensityMatrix.from_ket(phi, dims=dims)
            for rho in (pure, mixed):
                val = expectation(M, rho)
                bound = n * n * eps * np.linalg.norm(M.mat) * np.linalg.norm(rho.op.mat)
                assert abs(val - float(np.einsum("ij,ji->", M.mat, rho.op.mat).real)) <= bound
                assert val == expectation(M, rho.op)
                if rho is pure:
                    assert abs(val - expectation(M, phi)) <= bound

    def test_party_dims_mismatch(self):
        # a (3, 2) state against a (2, 3) operator has the right total
        # dimension but another factorisation, so no bound applies to it
        op = HermitianOperator(np.diag([0.2, 0, 0, 0, 0, 1.0]), dims=(2, 3))
        for state in (
            DensityMatrix.maximally_mixed((3, 2)),
            ProductKet(a=Ket.basis(3, 2), b=Ket.basis(2, 1)),
        ):
            with pytest.raises(DimensionMismatch, match=r"state dims \(3, 2\) vs operator dims \(2, 3\)"):
                expectation(op, state)
        # a bare ket and single-party dims are checked on the total dimension only
        assert expectation(op, Ket.basis(6, 5)) == 1.0
        assert expectation(op, HermitianOperator.identity(6) * (1.0 / 6.0)) == pytest.approx(0.2)
        assert expectation(op, ProductKet(a=Ket.basis(2, 1), b=Ket.basis(3, 2))) == 1.0


    def test_duck_typed_states(self):
        # anything with .op is unwrapped first, whatever it holds; anything
        # with .a and .b is a product ket
        class Holder:
            def __init__(self, op):
                self.op = op

        class Pair:
            def __init__(self, a, b):
                self.a, self.b = a, b

        rng = np.random.default_rng(2)
        M = rand_herm(rng, 6)
        rho = DensityMatrix(HermitianOperator(np.diag([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]), dims=(2, 3)))
        pk = ProductKet(a=Ket.unit(rng.normal(size=2)), b=Ket.unit(rng.normal(size=3)))
        assert expectation(M, Holder(rho.op)) == expectation(M, rho) == expectation(M, rho.op)
        assert expectation(M, Holder(pk)) == expectation(M, Pair(pk.a, pk.b)) == expectation(M, pk)
        assert expectation(M, Holder(pk.ket())) == expectation(M, pk.ket())
        with pytest.raises(DimensionMismatch):
            expectation(M, Holder(DensityMatrix.maximally_mixed((3, 2)).op))
        with pytest.raises(TypeError, match="unsupported state object ndarray"):
            expectation(M, Holder(rho.op.mat))
        with pytest.raises(TypeError, match="unsupported state object list"):
            expectation(M, [0.5, 0.5])


class TestConditionalOperator:
    def test_identity_contracts_to_identity(self):
        i4 = HermitianOperator.identity((2, 2))
        out = conditional_operator(i4, Ket.unit([0.3, 0.6 + 0.4j]), "A")
        assert np.allclose(out.mat, np.eye(2), atol=1e-12)

    def test_product_operator_factorizes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            gx = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gy = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            X = HermitianOperator((gx + gx.conj().T) / 2)
            Y = HermitianOperator((gy + gy.conj().T) / 2)
            a = Ket.unit(rng.normal(size=2) + 1j * rng.normal(size=2))
            out = conditional_operator(tensor_product(X, Y), a, "A")
            assert np.allclose(out.mat, expectation(X, a) * Y.mat, atol=1e-12)

    def test_worked_example_contraction(self, example):
        # contracting party A with |1> leaves |<xi+|1>|^2 P2 = P2/2
        _, p2, _ = build_povm(2.0 / 3.0)
        out = conditional_operator(example["L"], Ket.basis(2, 1), "A")
        assert np.allclose(out.mat, 0.5 * p2.mat, atol=1e-13)

    def test_output_hermitian(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = rand_herm(rng, 4)
            a = Ket.unit(rng.normal(size=2) + 1j * rng.normal(size=2))
            out = conditional_operator(m, a, "B")
            assert np.max(np.abs(out.mat - out.mat.conj().T)) <= 1e-12

    def test_defines_product_expectation(self):
        rng = np.random.default_rng(9)
        m = rand_herm(rng, 4)
        a = Ket.unit(rng.normal(size=2) + 1j * rng.normal(size=2))
        b = Ket.unit(rng.normal(size=2) + 1j * rng.normal(size=2))
        red = conditional_operator(m, a, "A")
        full = expectation(m, tensor_product(a, b).projector(dims=(2, 2)))
        assert expectation(red, b) == pytest.approx(full, abs=1e-12)

    def test_dimension_mismatch(self):
        m = HermitianOperator(np.eye(6), dims=(2, 3))
        with pytest.raises(DimensionMismatch):
            conditional_operator(m, Ket([1, 0, 0]), "A")

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_stores_the_hermitian_part_of_the_contraction(self, dims):
        # the operator itself stores (red + red^H)/2 of the raw contraction
        rng = np.random.default_rng(sum(dims))
        dA, dB = dims
        n = dA * dB
        for _ in range(10):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = HermitianOperator((g + g.conj().T) / 2, dims=dims)
            four = m.mat.reshape(dA, dB, dA, dB)
            for party, d, cond in (("A", dA, "i,ikjl,j->kl"), ("B", dB, "k,ikjl,l->ij")):
                k = Ket.unit(rng.normal(size=d) + 1j * rng.normal(size=d))
                red = np.einsum(cond, k.amplitudes.conj(), four, k.amplitudes)
                out = conditional_operator(m, k, party)
                assert out.mat.tobytes() == ((red + red.conj().T) / 2).tobytes()


class TestMaxEigenpair:
    def test_diagonal(self):
        pair = max_eigenpair(HermitianOperator(np.diag([0.0, 1.0])))
        assert pair.value == pytest.approx(1.0)
        assert np.allclose(pair.vector.amplitudes, [0, 1])

    def test_degenerate_identity_picks_lowest_index(self):
        for d in (2, 3, 4):
            pair = max_eigenpair(HermitianOperator.identity((d,)))
            assert pair.value == pytest.approx(1.0)
            assert np.allclose(pair.vector.amplitudes, np.eye(d)[0])

    def test_povm_element(self):
        _, p2, _ = build_povm(2.0 / 3.0)
        pair = max_eigenpair(p2)
        assert pair.value == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert np.allclose(pair.vector.amplitudes, [0.5, np.sqrt(3) / 2], atol=1e-12)

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            m = rand_herm(rng, n)
            pair = max_eigenpair(m)
            resid = m.mat @ pair.vector.amplitudes - pair.value * pair.vector.amplitudes
            assert np.linalg.norm(resid) <= 1e-9

    def test_dominates_random_kets(self):
        rng = np.random.default_rng(12)
        m = rand_herm(rng, 4)
        pair = max_eigenpair(m)
        vecs = rng.normal(size=(1000, 4)) + 1j * rng.normal(size=(1000, 4))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        vals = np.einsum("ni,ij,nj->n", vecs.conj(), m.mat, vecs).real
        assert pair.value >= vals.max() - 1e-10

    def test_matches_reference_solver(self):
        # numpy's eigvalsh (no eigenvectors) cross-checks the values that
        # eig_hermitian returns with its eigenvectors
        rng = np.random.default_rng(13)
        for n in (2, 3, 4, 6, 8):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = HermitianOperator((g + g.conj().T) / 2)
            vals, vecs = eig_hermitian(m)
            ref = np.linalg.eigvalsh(m.mat)
            assert np.allclose(vals, ref, atol=1e-10)
            # eigenvectors diagonalize
            recon = vecs.conj().T @ m.mat @ vecs
            assert np.max(np.abs(recon - np.diag(vals))) <= 1e-9
