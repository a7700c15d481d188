import numpy as np
import pytest

from uew import (
    DensityMatrix,
    Example31Config,
    HermitianOperator,
    Ket,
    NoisyStateFamily,
    build_phi,
    build_povm,
    eig_hermitian,
    min_eig_partial_transpose,
    noisy_member,
    partial_transpose,
    random_product_batch,
    random_product_ket,
)


class TestDensityMatrix:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(HermitianOperator.identity((2, 2)))

    def test_rejects_negative(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            DensityMatrix(HermitianOperator(mat, dims=(2, 2)))

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed((2, 2))
        assert np.allclose(rho.op.mat, np.eye(4) / 4)


class TestBuildPhi:
    def test_printed_parameters(self):
        cfg = Example31Config()
        assert cfg.delta == pytest.approx(0.1, abs=1e-15)
        phi = build_phi(cfg)
        assert np.allclose(phi.amplitudes, [0.7, 0.5, 0.5, 0.1], atol=1e-15)

    def test_product_limit(self):
        phi = build_phi(Example31Config(amp_alpha=1.0, amp_beta=0.0))
        assert np.allclose(phi.amplitudes, [1, 0, 0, 0])

    def test_normalized(self):
        phi = build_phi(Example31Config(amp_alpha=0.6, amp_beta=0.5))
        assert np.linalg.norm(phi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_imaginary_delta(self):
        with pytest.raises(ValueError):
            Example31Config(amp_alpha=0.9, amp_beta=0.5)

    def test_schmidt_rank_two(self):
        phi = build_phi(Example31Config())
        amp = phi.amplitudes.reshape(2, 2)
        sv = np.linalg.svd(amp, compute_uv=False)
        assert (sv > 1e-12).sum() == 2


class TestBuildPovm:
    def test_scaled_projector(self):
        p1, _, _ = build_povm(2.0 / 3.0)
        assert np.allclose(p1.mat, np.diag([0.0, 2.0 / 3.0]))

    def test_trace_of_second_element(self):
        _, p2, _ = build_povm(2.0 / 3.0)
        assert p2.trace() == pytest.approx(2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0 / 3.0, 0.9])
    def test_cross_terms_cancel(self, x):
        _, p2, p3 = build_povm(x)
        expected = np.diag([1.0 - x, 1.0])
        assert np.allclose((p2 + p3).mat, expected, atol=1e-14)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_x_out_of_range(self, x):
        with pytest.raises(ValueError):
            build_povm(x)


class TestBuildExample31:
    def test_constraint_operator(self, example):
        expected = np.zeros((4, 4))
        expected[3, 3] = 4.0 / 9.0
        assert np.allclose(example["C"].mat, expected, atol=1e-14)
        assert example["C"].dims == (2, 2)

    def test_trace_multiplicativity(self, example):
        assert example["L"].trace() == pytest.approx(4.0 / 9.0, abs=1e-14)

    def test_operators_differ(self, example):
        assert not example["C"].allclose(example["L"], tol=1e-6)


class TestNoisyFamily:
    def test_pure_noise_endpoint(self, example):
        rho = noisy_member(example["family"], 1.0)
        assert np.allclose(rho.op.mat, np.eye(4) / 4, atol=1e-14)

    def test_pure_state_endpoint(self, example):
        rho = noisy_member(example["family"], 0.0)
        assert np.allclose(rho.op.mat, example["rho0"].op.mat)

    def test_half_mixture_spectrum(self, example):
        rho = noisy_member(example["family"], 0.5)
        vals, _ = eig_hermitian(rho.op)
        assert np.allclose(vals, [0.125, 0.125, 0.125, 0.625], atol=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_out_of_range(self, example, p):
        with pytest.raises(ValueError):
            noisy_member(example["family"], p)

    def test_trace_and_positivity_on_grid(self, example):
        for p in np.linspace(0.0, 1.0, 11):
            rho = noisy_member(example["family"], p)  # constructor re-validates
            assert rho.op.trace() == pytest.approx(1.0, abs=1e-12)

    def test_member_matches_operator_arithmetic(self, example):
        # one validated construction gives the same bits as building the
        # mixture from validated identity and scaled operators
        bell = Ket(np.eye(3).ravel() / np.sqrt(3.0))
        families = [example["family"], NoisyStateFamily(pure=DensityMatrix.from_ket(bell, dims=(3, 3)))]
        for family in families:
            pure = family.pure
            for p in (0.0, 1e-3, 5.0 / 96.0, 0.5, 1.0):
                ident = HermitianOperator.identity(pure.dims)
                ref = (p / pure.op.dim) * ident + (1.0 - p) * pure.op
                got = family.member(p).op
                assert got.mat.tobytes() == ref.mat.tobytes() and got.dims == ref.dims

    def test_entangled_below_detection_caps(self, example):
        # ground truth via partial transpose: everything the witnesses can
        # possibly flag in this family must really be entangled
        for p in np.linspace(0.0, 0.052, 14):
            assert min_eig_partial_transpose(noisy_member(example["family"], p)) < -1e-6


class TestRandomProduct:
    def test_deterministic_per_seed(self):
        pk1 = random_product_ket((2, 2), 42)
        pk2 = random_product_ket((2, 2), 42)
        assert np.array_equal(pk1.a.amplitudes, pk2.a.amplitudes)
        assert np.array_equal(pk1.b.amplitudes, pk2.b.amplitudes)

    def test_components_normalized(self):
        pk = random_product_ket((3, 2), 5)
        assert np.linalg.norm(pk.a.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(pk.b.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_mean_overlap_with_basis_projector(self):
        proj = Ket.basis(4, 3).projector(dims=(2, 2))
        A, B = random_product_batch((2, 2), 100_000, 99)
        vals = (np.abs(A[:, 1]) ** 2) * (np.abs(B[:, 1]) ** 2)
        # product of two independent uniform overlaps, mean 1/2 each
        assert vals.mean() == pytest.approx(0.25, abs=5e-3)
        prod = np.einsum("ni,nk->nik", A[:5], B[:5]).reshape(5, 4)
        direct = np.einsum("ni,ij,nj->n", prod.conj(), proj.mat, prod).real
        assert np.allclose(direct, vals[:5], atol=1e-12)

    def test_batch_rows_canonical(self):
        A, _ = random_product_batch((2, 2), 100, 1)
        lead = A[np.arange(100), (np.abs(A) > 1e-12).argmax(axis=1)]
        assert np.max(np.abs(lead.imag)) <= 1e-12


class TestPartialTranspose:
    def test_bell_state_negativity(self):
        bell = Ket.unit([1, 0, 0, 1])
        rho = DensityMatrix.from_ket(bell, dims=(2, 2))
        assert min_eig_partial_transpose(rho) == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_stays_positive(self):
        pk = random_product_ket((2, 2), 17)
        rho = DensityMatrix.from_product(pk)
        assert min_eig_partial_transpose(rho) >= -1e-12

    def test_involution(self, example):
        once = partial_transpose(example["L"], "B")
        twice = partial_transpose(once, "B")
        assert twice.allclose(example["L"])

    def test_2x3_support(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = HermitianOperator((g + g.conj().T) / 2, dims=(2, 3))
        out = partial_transpose(m, "A")
        assert out.dims == (2, 3)
        # spot check one block: PT on A swaps the off-diagonal blocks
        assert np.allclose(out.mat[:3, 3:], m.mat[3:, :3].reshape(3, 3), atol=1e-12)
