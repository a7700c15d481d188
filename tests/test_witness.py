import numpy as np
import pytest

from conftest import C_AT_PHI, GS_EXACT, L_AT_PHI, PC_EXACT, SIDE_CAP
from uew import (
    ConstraintSpec,
    DensityMatrix,
    DimensionMismatch,
    HalfSpaceSide,
    HermitianOperator,
    Ket,
    UewPair,
    VerdictLabel,
    Witness,
    build_few,
    build_minus_inf,
    build_v_alpha,
    combine_alpha,
    detect,
    expectation,
    halfspace_membership,
    noisy_member,
    random_product_batch,
    sup_product_unconstrained,
    tensor_product,
)
from uew.cli import _build_pair
from uew.states import product_expectations
from uew.witness import normalised_rotation


def _xi_hat():
    return Ket.unit([np.sqrt(1.0 / 6.0), np.sqrt(0.5)])


class TestConstraintSpec:
    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_value(self, example, c):
        with pytest.raises(ValueError, match="finite"):
            ConstraintSpec(example["C"], c)


class TestCombineAlpha:
    def test_alpha_zero_returns_test_operator(self, example):
        out = combine_alpha(example["spec"], example["L"], 0.0)
        assert out.allclose(example["L"])

    def test_convexity_fixed_point(self, example):
        spec = ConstraintSpec(C=example["L"], c=0.0)
        out = combine_alpha(spec, example["L"], 0.5)
        assert out.allclose(example["L"])

    def test_minus_one_arithmetic(self, example):
        out = combine_alpha(example["spec"], example["L"], -1.0)
        expected = 2.0 * example["L"] - example["C"]
        assert np.allclose(out.mat, expected.mat, atol=1e-14)

    def test_rejects_alpha_ge_one(self, example):
        with pytest.raises(ValueError):
            combine_alpha(example["spec"], example["L"], 1.0)

    def test_rejects_dim_mismatch(self, example):
        small = ConstraintSpec(C=HermitianOperator.identity((2,)), c=0.0)
        with pytest.raises(DimensionMismatch):
            combine_alpha(small, example["L"], -1.0)

    @pytest.mark.parametrize("alpha", [float("-inf"), float("nan")])
    def test_rejects_non_finite_alpha(self, example, alpha):
        with pytest.raises(ValueError, match="finite"):
            combine_alpha(example["spec"], example["L"], alpha)


class TestNormalisedRotation:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, -5.0, 0.75])
    def test_scaled_test_is_rotated_operator(self, example, alpha):
        scale, lam, test = normalised_rotation(example["spec"], example["L"], alpha)
        assert scale == 1.0 - alpha
        assert lam == pytest.approx(alpha / (1.0 - alpha), abs=1e-15)
        assert (scale * test).allclose(combine_alpha(example["spec"], example["L"], alpha))

    def test_none_counts_as_zero(self, example):
        scale, lam, test = normalised_rotation(example["spec"], example["L"], None)
        assert (scale, lam) == (1.0, 0.0)
        assert np.array_equal(test.mat, example["L"].mat)

    def test_minus_inf_is_limit_test(self, example):
        scale, lam, test = normalised_rotation(example["spec"], example["L"], float("-inf"))
        assert (scale, lam) == (1.0, -1.0)
        assert np.array_equal(test.mat, (example["L"] - example["C"]).mat)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, float("inf"), float("nan")])
    def test_rejects_alpha_ge_one(self, example, alpha):
        with pytest.raises(ValueError):
            normalised_rotation(example["spec"], example["L"], alpha)


class TestBuildPairSoundness:
    @pytest.mark.parametrize("alpha", [None, 0.0, -1.0, -5.0, float("-inf")])
    def test_spares_argmax_of_own_test_on_swapped_instance(self, swapped, cfg_small, alpha):
        # the product state maximising the pair's (shared, positively scaled)
        # test operator must not be called entangled; with alpha = -inf the bound p_c - c of the
        # affine limit witness used to sit 0.038 below its supremum here
        pair = _build_pair(swapped["L"], swapped["spec"], alpha, cfg_small)
        opt = sup_product_unconstrained(pair.w_c.test, cfg_small)
        rho = DensityMatrix.from_product(opt.argmax)
        verdict = detect(rho, pair)
        assert verdict.label is VerdictLabel.NOT_DETECTED, verdict


class TestBuildFew:
    def test_basis_projector(self):
        proj = Ket.basis(4, 3).projector(dims=(2, 2))
        w = build_few(proj, 1.0)
        assert np.allclose(w.as_operator().mat, np.eye(4) - proj.mat)

    def test_worked_example_bound(self, example):
        w = build_few(example["L"], GS_EXACT)
        assert np.allclose(w.as_operator().mat, GS_EXACT * np.eye(4) - example["L"].mat)

    def test_zero_at_optimal_product_state(self, example):
        w = build_few(example["L"], GS_EXACT)
        opt = tensor_product(_xi_hat(), _xi_hat()).projector(dims=(2, 2))
        assert w.value(opt) == pytest.approx(0.0, abs=1e-12)


class TestBuildVAlpha:
    def test_alpha_zero_reduction(self, example):
        aw = build_v_alpha(example["spec"], example["L"], PC_EXACT, 0.0)
        plain = Witness(bound=PC_EXACT, test=example["L"])
        assert np.allclose(aw.witness.as_operator().mat, plain.as_operator().mat, atol=1e-12)

    def test_affine_bound(self, example):
        aw = build_v_alpha(example["spec"], example["L"], PC_EXACT, -1.0)
        assert aw.witness.bound == pytest.approx(-0.01 + 2.0 * PC_EXACT, abs=1e-14)

    def test_operator_form(self, example):
        aw = build_v_alpha(example["spec"], example["L"], PC_EXACT, -3.0)
        expected = -3.0 * example["C"] + 4.0 * example["L"]
        assert np.allclose(aw.witness.test.mat, expected.mat, atol=1e-13)

    def test_rejects_alpha_ge_one(self, example):
        with pytest.raises(ValueError):
            build_v_alpha(example["spec"], example["L"], PC_EXACT, 1.5)

    def test_fires_on_pure_state(self, example):
        # the rotated witness at alpha=-1 strictly beats its bound on the
        # noiseless state: value = -(c - <C>) + 2(p_c - <L>) < 0
        aw = build_v_alpha(example["spec"], example["L"], PC_EXACT, -1.0)
        expected = -(0.01 - C_AT_PHI) + 2.0 * (PC_EXACT - L_AT_PHI)
        assert aw.witness.value(example["rho0"]) == pytest.approx(expected, abs=1e-12)
        assert aw.witness.fires(example["rho0"])


class TestBuildMinusInf:
    def test_degenerate_constraint_reduces(self, example):
        zero = ConstraintSpec(C=0.0 * example["C"], c=0.0)
        w = build_minus_inf(zero, example["L"], PC_EXACT)
        plain = Witness(bound=PC_EXACT, test=example["L"])
        assert np.allclose(w.as_operator().mat, plain.as_operator().mat, atol=1e-14)

    def test_limit_of_rotated_family(self, example):
        # (1/-alpha) V_alpha approaches the limit witness entrywise
        alpha = -1e6
        aw = build_v_alpha(example["spec"], example["L"], PC_EXACT, alpha)
        w_inf = build_minus_inf(example["spec"], example["L"], PC_EXACT)
        diff = (1.0 / -alpha) * aw.witness.as_operator() - w_inf.as_operator()
        assert diff.max_abs_entry() <= 1e-5

    def test_bound_is_shifted(self, example):
        w = build_minus_inf(example["spec"], example["L"], PC_EXACT)
        assert w.bound == pytest.approx(PC_EXACT - 0.01, abs=1e-15)
        assert np.allclose(w.test.mat, (example["L"] - example["C"]).mat)


class TestHalfspaceMembership:
    def test_pure_state_on_leq_side(self, example):
        assert halfspace_membership(example["rho0"], example["spec"]) is HalfSpaceSide.LEQ

    def test_boundary_state(self, example):
        rho = noisy_member(example["family"], SIDE_CAP)  # <C> = c exactly here
        assert halfspace_membership(rho, example["spec"]) is HalfSpaceSide.BOUNDARY

    def test_maximally_mixed_on_geq_side(self, example):
        rho = DensityMatrix.maximally_mixed((2, 2))
        assert expectation(example["C"], rho) == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert halfspace_membership(rho, example["spec"]) is HalfSpaceSide.GEQ


def _example_pair(example):
    w_c = build_v_alpha(example["spec"], example["L"], PC_EXACT, 0.0).witness
    w_ct = Witness(bound=GS_EXACT, test=example["L"])
    return UewPair(w_c=w_c, w_ctilde=w_ct, constraint=example["spec"])


class TestDetect:
    def test_maximally_mixed_not_detected(self, example):
        verdict = detect(DensityMatrix.maximally_mixed((2, 2)), _example_pair(example))
        assert verdict.label is VerdictLabel.NOT_DETECTED

    def test_rotated_pair_fires_in_low_noise(self, example):
        aw = build_v_alpha(example["spec"], example["L"], PC_EXACT, -10.0)
        pair = UewPair(aw.witness, Witness(GS_EXACT * 11 + 10 * 0.25, aw.witness.test), example["spec"])
        verdict = detect(noisy_member(example["family"], 0.005), pair)
        assert verdict.entangled
        assert verdict.side_used is HalfSpaceSide.LEQ

    def test_boundary_tries_both(self, example):
        rho = noisy_member(example["family"], SIDE_CAP)
        pair = _example_pair(example)
        verdict = detect(rho, pair)
        assert verdict.side_used is HalfSpaceSide.BOUNDARY
        # w_c fires at the boundary of this family even though w_ctilde never does
        assert verdict.entangled
        assert verdict.witness_value == pytest.approx(pair.w_c.value(rho), abs=1e-12)

    def test_scaling_invariance(self, example):
        pair = _example_pair(example)
        scaled = UewPair(
            w_c=Witness(bound=7.5 * pair.w_c.bound, test=7.5 * pair.w_c.test),
            w_ctilde=Witness(bound=7.5 * pair.w_ctilde.bound, test=7.5 * pair.w_ctilde.test),
            constraint=example["spec"],
        )
        for p in (0.0, 0.03, 0.2, 1.0):
            rho = noisy_member(example["family"], p)
            assert detect(rho, pair).label is detect(rho, scaled).label


class TestNesting:
    def test_more_negative_alpha_fires_whenever_less_negative_does(self, example):
        # random mixed states pushed onto the <= side by mixing with |00><00|
        rng = np.random.default_rng(21)
        n = 10_000
        g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        rhos = g @ g.conj().transpose(0, 2, 1)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None].real
        anchor = np.zeros((4, 4), dtype=complex)
        anchor[0, 0] = 1.0
        cvals = np.einsum("nij,ji->n", rhos, example["C"].mat).real
        target = rng.uniform(0.0, example["spec"].c, size=n)
        lam = np.minimum(1.0, target / np.maximum(cvals, 1e-300))[:, None, None]
        rhos = lam * rhos + (1.0 - lam) * anchor
        alphas = [0.0, -1.0, -10.0, -100.0]
        witnesses = [build_v_alpha(example["spec"], example["L"], PC_EXACT, a).witness for a in alphas]
        vals = [
            w.bound - np.einsum("nij,ji->n", rhos, w.test.mat).real for w in witnesses
        ]
        for hi, lo in zip(vals, vals[1:]):  # alpha decreasing left to right
            firing = hi < 0
            assert np.all(lo[firing] <= hi[firing] + 1e-10)


class TestValidity:
    def test_rotated_witnesses_nonnegative_on_feasible_products(self, example, pc_result):
        A, B = random_product_batch((2, 2), 200_000, 31)
        cons = product_expectations(example["C"], A, B)
        keep = cons <= example["spec"].c
        A, B = A[keep][:10_000], B[keep][:10_000]
        assert len(A) == 10_000
        for alpha in (0.0, -1.0, -10.0):
            w = build_v_alpha(example["spec"], example["L"], pc_result.value, alpha).witness
            vals = w.bound - product_expectations(w.test, A, B)
            assert vals.min() >= -1e-6
