import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import C_AT_PHI, GS_EXACT, L_AT_PHI, PC_EXACT, SIDE_CAP
from uew import (
    ConstraintSpec,
    DensityMatrix,
    DimensionMismatch,
    Example31Config,
    HalfSpaceSide,
    HermitianOperator,
    Ket,
    MINUS_INF,
    OptimizerConfig,
    Witness,
    alpha_sweep,
    build_example31,
    build_minus_inf,
    build_v_alpha,
    combine_alpha,
    expectation,
    halfspace_membership,
    noisy_member,
    plane_samples,
    sup_product_constrained,
    sup_product_unconstrained,
    tensor_product,
    threshold_scan,
)
from uew.states import NoisyStateFamily
from uew.witness import BOUNDARY_TOL, DETECTION_TOL

L_AT_MIXED = 1.0 / 9.0
C_AT_MIXED = 1.0 / 9.0


def affine_root(bound, w_c_coeff, w_l_coeff):
    """Noise level where bound = w_c_coeff*<C>_p + w_l_coeff*<L>_p."""
    v0 = bound - w_c_coeff * C_AT_PHI - w_l_coeff * L_AT_PHI
    slope = -w_c_coeff * (C_AT_MIXED - C_AT_PHI) - w_l_coeff * (L_AT_MIXED - L_AT_PHI)
    return -v0 / slope


class TestThresholdScan:
    def test_rejects_coarse_resolution(self, example, pc_result):
        w = build_v_alpha(example["spec"], example["L"], pc_result.value, 0.0).witness
        for bad in (1e-2, -1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                threshold_scan(example["family"], w, example["spec"], HalfSpaceSide.LEQ, resolution=bad)

    def test_builds_no_member(self, example, pc_result, monkeypatch):
        calls = []
        member = NoisyStateFamily.member

        def counting(self, p):
            calls.append(p)
            return member(self, p)

        monkeypatch.setattr(NoisyStateFamily, "member", counting)
        w = build_v_alpha(example["spec"], example["L"], pc_result.value, -1.0).witness
        for side in HalfSpaceSide:
            calls.clear()
            threshold_scan(example["family"], w, example["spec"], side)
            assert calls == []  # p = 0 is the family's pure state, p = 1 is read as Tr(X)/d

    def test_sweep_builds_no_density_matrix(self, example, cfg_small, monkeypatch):
        built = []
        init = DensityMatrix.__init__

        def counting(self, op):
            built.append(op)
            init(self, op)

        monkeypatch.setattr(DensityMatrix, "__init__", counting)
        rows = alpha_sweep(example["L"], example["spec"], [0.0, -1.0, -10.0, -100.0, MINUS_INF],
                           example["family"], cfg_small)
        assert [r.threshold_p is not None for r in rows] == [True] * 5
        assert built == []

    def test_dims_mismatch_raises(self, example, pc_result):
        family = NoisyStateFamily(pure=DensityMatrix.from_ket(Ket.basis(9, 0), dims=(3, 3)))
        w = build_v_alpha(example["spec"], example["L"], pc_result.value, -1.0).witness
        for side in HalfSpaceSide:
            with pytest.raises(DimensionMismatch):
                threshold_scan(family, w, example["spec"], side)

    def test_never_firing_witness_returns_none(self, example):
        w = Witness(bound=GS_EXACT, test=example["L"])  # valid everywhere
        out = threshold_scan(example["family"], w, example["spec"], HalfSpaceSide.LEQ)
        assert out is None

    def test_side_cap_for_plain_constrained_witness(self, example, pc_result):
        # the witness fires on every state of the <= region, so the reported
        # threshold is where the family crosses onto the other side
        w = build_v_alpha(example["spec"], example["L"], pc_result.value, 0.0).witness
        out = threshold_scan(example["family"], w, example["spec"], HalfSpaceSide.LEQ)
        assert out == pytest.approx(SIDE_CAP, abs=1e-4)

    def test_interior_root_matches_affine_formula(self, example):
        # bound tuned so the witness stops firing before the side boundary
        target = 0.03
        bound = L_AT_PHI + target * (L_AT_MIXED - L_AT_PHI)
        w = Witness(bound=bound, test=example["L"])
        out = threshold_scan(example["family"], w, example["spec"], HalfSpaceSide.LEQ)
        assert out == pytest.approx(target, abs=1e-4)

    def test_full_interval(self, example):
        # a witness firing on the whole family, scanned on its own side
        w = Witness(bound=-1.0, test=example["L"])
        spec = ConstraintSpec(C=example["C"], c=10.0)  # everything on the <= side
        out = threshold_scan(example["family"], w, spec, HalfSpaceSide.LEQ)
        assert out == 1.0


def _reference(family, witness, spec, side, p):
    """Per-member detection of the noise level p, and its distance to a tolerance edge.

    Where that distance is at rounding level, the per-member predicate can
    flip between neighbouring p and decides nothing.
    """
    rho = family.member(p)
    member = halfspace_membership(rho, spec)
    detected = (member is side or member is HalfSpaceSide.BOUNDARY) and witness.fires(rho)
    g = expectation(spec.C, rho) - spec.c
    margin = min(abs(witness.value(rho) + DETECTION_TOL), abs(abs(g) - BOUNDARY_TOL))
    return detected, margin


def _hermitian(dims):
    dim = dims[0] * dims[1]
    parts = arrays(np.float64, (2, dim, dim), elements=st.floats(-1.0, 1.0))
    return parts.map(lambda g: HermitianOperator((g[0] + 1j * g[1] + g[0].T - 1j * g[1].T) / 2, dims))


@st.composite
def scan_instances(draw):
    """A random white-noise family, witness, constraint and side.

    The bound and c are drawn as margins by which the noiseless state
    clears the witness and the side condition; a zero margin clears the
    side condition (boundary band) but not the strict witness condition.
    """
    dims = draw(st.sampled_from([(2, 2), (2, 3)]))
    amps = draw(arrays(np.float64, (2, dims[0] * dims[1]), elements=st.floats(-1.0, 1.0)))
    ket = amps[0] + 1j * amps[1]
    if np.linalg.norm(ket) < 1e-3:
        ket[0] = 1.0
    pure = DensityMatrix.from_ket(Ket.unit(ket), dims=dims)
    test, C = draw(_hermitian(dims)), draw(_hermitian(dims))
    side = draw(st.sampled_from([HalfSpaceSide.LEQ, HalfSpaceSide.GEQ]))
    sign = 1.0 if side is HalfSpaceSide.LEQ else -1.0
    fire_margin = draw(st.floats(0.01, 1.0) | st.floats(-0.25, 0.0))
    witness = Witness(bound=expectation(test, pure) - fire_margin, test=test)
    spec = ConstraintSpec(C=C, c=expectation(C, pure) + sign * draw(st.floats(-0.25, 1.0)))
    return NoisyStateFamily(pure=pure), witness, spec, side


class TestThresholdClosedForm:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scan_instances())
    def test_matches_per_member_predicate(self, inst):
        family, witness, spec, side = inst
        edge = threshold_scan(family, witness, spec, side)
        assert (edge is None) == (not _reference(family, witness, spec, side, 0.0)[0])
        if edge is None:
            return
        assert 0.0 <= edge <= 1.0
        near = edge + np.array([-1e-4, -1e-6, -1e-8, 1e-8, 1e-6, 1e-4])
        for p in np.concatenate([np.linspace(0.0, 1.0, 101), near[(near >= 0) & (near <= 1)]]):
            detected, margin = _reference(family, witness, spec, side, p)
            if margin < 1e-12:
                continue
            if p < edge - 1e-9:
                assert detected, (p, edge)
            elif p > edge + 1e-9:
                assert not detected, (p, edge)


def _scan_via_member(family, witness, spec, side):
    """threshold_scan's edge with the p = 1 end evaluated on family.member(1.0)."""
    ends = [family.pure, family.member(1.0)]
    lines = [tuple(witness.value(rho) + DETECTION_TOL for rho in ends)]
    cons = [expectation(spec.C, rho) for rho in ends]
    if side is not HalfSpaceSide.GEQ:
        lines.append(tuple(v - (spec.c + BOUNDARY_TOL) for v in cons))
    if side is not HalfSpaceSide.LEQ:
        lines.append(tuple((spec.c - BOUNDARY_TOL) - v for v in cons))
    if not lines[0][0] < 0.0 or any(at0 > 0.0 for at0, _ in lines):
        return None
    edge = 1.0
    for at0, at1 in lines:
        if at1 > at0:
            edge = min(edge, abs(at0) / (at1 - at0))
    return edge


def _local_phases(rng, dims):
    phases = [np.exp(2j * np.pi * rng.random(d)) for d in dims]
    return np.diag(np.kron(phases[0], phases[1]))


def _dress(U, op):
    return HermitianOperator(U @ op.mat @ U.conj().T, dims=op.dims)


def _scan_cases(seed):
    """(label, family, witness, spec) for one seed: the worked instance's
    rotated witnesses and the finest witnesses of the maximally entangled
    2x2 and 3x3 families, under seeded local phases, and the finest witness
    of a random 2x2, 2x3 and 3x3 pure state, with and without a constraint."""
    rng = np.random.default_rng([seed, 4])
    ex = Example31Config()
    C, L, phi = build_example31(ex)
    U = _local_phases(rng, (2, 2))
    spec = ConstraintSpec(C=_dress(U, C), c=ex.c)
    L = _dress(U, L)
    family = NoisyStateFamily(pure=DensityMatrix.from_ket(Ket(U @ phi.amplitudes), dims=(2, 2)))
    cases = []
    for a in [0.0, -1.0, -10.0, -100.0, MINUS_INF]:
        w = build_minus_inf(spec, L, PC_EXACT) if a == MINUS_INF else build_v_alpha(spec, L, PC_EXACT, a).witness
        cases.append((f"worked alpha={a}", family, w, spec))
    kets = []
    for d in (2, 3):
        vec = np.zeros(d * d, dtype=complex)
        vec[[k * d + k for k in range(d)]] = 1 / math.sqrt(d)
        kets.append(((d, d), Ket(_local_phases(rng, (d, d)) @ vec)))
    for dims in [(2, 2), (2, 3), (3, 3)]:
        n = dims[0] * dims[1]
        kets.append((dims, Ket.unit(rng.normal(size=n) + 1j * rng.normal(size=n))))
    for dims, ket in kets:
        family = NoisyStateFamily(pure=DensityMatrix.from_ket(ket, dims=dims))
        # the finest witness: the product supremum of |psi><psi| is its
        # largest squared Schmidt coefficient
        top = np.linalg.svd(ket.amplitudes.reshape(dims), compute_uv=False)[0] ** 2
        w = Witness(bound=float(top), test=ket.projector(dims=dims))
        cases.append((f"{dims} trivial", family, w, ConstraintSpec(C=HermitianOperator.identity(dims), c=1.0)))
        n = ket.dim
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        C = HermitianOperator((g + g.conj().T) / 2, dims=dims)
        at_pure = expectation(C, family.pure)
        for shift in (0.25, 0.0, -0.25):
            cases.append((f"{dims} c shift {shift}", family, w, ConstraintSpec(C=C, c=at_pure + shift)))
    return cases


class TestClosedFormMixedEnd:
    @pytest.mark.parametrize("side", list(HalfSpaceSide))
    def test_matches_member_evaluation(self, side):
        edges = 0
        for seed in range(5):
            for label, family, w, spec in _scan_cases(seed):
                got = threshold_scan(family, w, spec, side)
                want = _scan_via_member(family, w, spec, side)
                assert (got is None) == (want is None), (seed, label)
                if got is not None:
                    edges += got < 1.0
                    assert abs(got - want) <= 4.5e-16, (seed, label, got, want)
        assert edges >= 20  # interior edges, where the p = 1 end decides the value


def _dispatch_expectation(M, state):
    """expectation dispatched by hand: .op unwrapped, then .a/.b, Ket and
    HermitianOperator tried in turn; a density matrix is read with one
    np.vdot, as linalg.expectation reads it, and a ket as <v|M v>."""
    if hasattr(state, "op"):
        state = state.op
    if hasattr(state, "a") and hasattr(state, "b"):
        vec = np.kron(state.a.amplitudes, state.b.amplitudes)
    elif isinstance(state, Ket):
        vec = state.amplitudes
    else:
        assert isinstance(state, HermitianOperator)
        return float(np.vdot(state.mat, M.mat).real)
    return float(np.vdot(vec, M.mat @ vec).real)


def _recomputed_scan(family, witness, spec, side):
    """threshold_scan with both traces recomputed from the matrices: the
    implementation before the traces were stored, kept as the bit-for-bit
    reference."""
    pure, d = family.pure, family.pure.op.dim
    mixed_value = witness.bound - float(witness.test.mat.trace().real) / d
    lines = [(witness.bound - _dispatch_expectation(witness.test, pure) + DETECTION_TOL,
              mixed_value + DETECTION_TOL)]
    cons = [_dispatch_expectation(spec.C, pure), float(spec.C.mat.trace().real) / d]
    if side is not HalfSpaceSide.GEQ:
        lines.append(tuple(v - (spec.c + BOUNDARY_TOL) for v in cons))
    if side is not HalfSpaceSide.LEQ:
        lines.append(tuple((spec.c - BOUNDARY_TOL) - v for v in cons))
    if not lines[0][0] < 0.0 or any(at0 > 0.0 for at0, _ in lines):
        return None
    edge = 1.0
    for at0, at1 in lines:
        if at1 > at0:
            edge = min(edge, abs(at0) / (at1 - at0))
    return edge


def _bits(edge):
    return None if edge is None else float(edge).hex()


class TestThresholdBitForBit:
    @pytest.mark.parametrize("side", list(HalfSpaceSide))
    def test_scan_cases(self, side):
        found = 0
        for seed in range(5):
            for label, family, w, spec in _scan_cases(seed):
                got = threshold_scan(family, w, spec, side)
                assert _bits(got) == _bits(_recomputed_scan(family, w, spec, side)), (seed, label)
                found += got is not None
        assert found >= 20

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scan_instances())
    def test_random_instances(self, inst):
        family, witness, spec, _ = inst
        for side in HalfSpaceSide:
            got = threshold_scan(family, witness, spec, side)
            assert _bits(got) == _bits(_recomputed_scan(family, witness, spec, side)), side


class TestAlphaSweep:
    def test_rows_and_bounds(self, example, cfg):
        alphas = [0.0, -1.0, -10.0, -100.0, MINUS_INF]
        rows = alpha_sweep(example["L"], example["spec"], alphas, example["family"], cfg)
        assert [r.alpha for r in rows] == alphas
        for row, alpha in zip(rows[:-1], alphas):
            assert row.bound == pytest.approx(alpha * 0.01 + (1 - alpha) * PC_EXACT, abs=1e-9)
        assert rows[-1].bound == pytest.approx(PC_EXACT - 0.01, abs=1e-9)

    def test_thresholds_monotone_as_alpha_decreases(self, example, cfg):
        alphas = [0.0, -1.0, -10.0, -100.0, MINUS_INF]
        rows = alpha_sweep(example["L"], example["spec"], alphas, example["family"], cfg)
        thresholds = [r.threshold_p for r in rows]
        assert all(t is not None for t in thresholds)
        for earlier, later in zip(thresholds, thresholds[1:]):
            assert later >= earlier - 1e-9

    def test_single_alpha_matches_direct_scan(self, example, cfg, pc_result):
        rows = alpha_sweep(example["L"], example["spec"], [0.0], example["family"], cfg)
        w = build_v_alpha(example["spec"], example["L"], pc_result.value, 0.0).witness
        direct = threshold_scan(example["family"], w, example["spec"], HalfSpaceSide.LEQ)
        assert rows[0].threshold_p == pytest.approx(direct, abs=1e-12)
        assert rows[0].detected_at_zero

    def test_minus_inf_row_uses_limit_witness(self, example, cfg, pc_result):
        rows = alpha_sweep(example["L"], example["spec"], [MINUS_INF], example["family"], cfg)
        w = build_minus_inf(example["spec"], example["L"], pc_result.value)
        assert rows[0].bound == pytest.approx(w.bound, abs=1e-9)

    def test_minus_inf_row_holds_in_case_ii(self, example, swapped, cfg_small):
        # on the role-swapped (case II) instance the optimum of L - C lies on
        # the <= side, above the affine p_c - c; the row's witness must not
        # fire on that product state
        L, spec = swapped["L"], swapped["spec"]
        rows = alpha_sweep(L, spec, [MINUS_INF], example["family"], cfg_small)
        opt = sup_product_unconstrained(L - spec.C, cfg_small).argmax
        assert halfspace_membership(opt, spec) is HalfSpaceSide.LEQ
        assert not Witness(rows[0].bound, L - spec.C).fires(opt)

    @pytest.mark.parametrize("alpha", [-1.0, -5.0])
    def test_rotated_rows_hold_in_case_ii(self, example, swapped, alpha):
        # below alpha0 on the role-swapped instance the affine bound
        # alpha*c + (1-alpha)*p_c fired on the <= side argmax of the rotated
        # test, with witness values -0.0084 (alpha = -1) and -0.143 (alpha = -5)
        L, spec = swapped["L"], swapped["spec"]
        cfg = OptimizerConfig(seed=0, restarts=24)
        (row,) = alpha_sweep(L, spec, [alpha], example["family"], cfg)
        test = combine_alpha(spec, L, alpha)
        opt = sup_product_constrained(test, spec, HalfSpaceSide.LEQ, cfg).argmax
        assert not Witness(row.bound, test).fires(opt)

    def test_rejects_alpha_ge_one(self, example, cfg):
        with pytest.raises(ValueError):
            alpha_sweep(example["L"], example["spec"], [2.0], example["family"], cfg)


class TestRotationDetectsMore:
    """The paper's headline claim on two variants of Example 3.1.

    The plain ultrafine witness (alpha = 0) detects no member of the noisy
    family, while the rotated witnesses detect an interval of noise levels
    that widens as alpha falls. Same rows as
    ``uew scan --example31 --x X --cvalue C --alphas 0,-1,-10,-100,-inf --seed 11``.
    """

    ALPHAS = [0.0, -1.0, -10.0, -100.0, MINUS_INF]

    @pytest.mark.parametrize(
        "x, c, expected",
        [
            (1 / 2, 1 / 100, [None, None, 0.0065893158, 0.0088596204, 0.0091311452]),
            (4 / 5, 1 / 50, [None, 0.0157735872, 0.0430391039, 0.0461820266, 0.0465366347]),
        ],
    )
    def test_thresholds(self, x, c, expected):
        ex = Example31Config(x=x, c=c)
        C, L, phi = build_example31(ex)
        family = NoisyStateFamily(pure=DensityMatrix.from_ket(phi, dims=(2, 2)))
        rows = alpha_sweep(L, ConstraintSpec(C=C, c=c), self.ALPHAS, family, OptimizerConfig(seed=11))
        got = [r.threshold_p for r in rows]
        assert got[0] is None and not rows[0].detected_at_zero
        detected = [t for t in got if t is not None]
        assert detected == sorted(detected)
        assert [t is None for t in got] == [t is None for t in expected]
        for t, want in zip(got, expected):
            if want is not None:
                assert t == pytest.approx(want, abs=1e-6)


class TestPlaneSamples:
    def test_maximally_mixed_point(self, example):
        rho = DensityMatrix.maximally_mixed((2, 2))
        out = plane_samples([("mixed", rho)], example["spec"], example["L"])
        assert out[0].label == "mixed"
        assert out[0].x == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert out[0].y == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_boundary_state_x_equals_c(self, example):
        rho = noisy_member(example["family"], SIDE_CAP)
        out = plane_samples([("edge", rho)], example["spec"], example["L"])
        assert out[0].x == pytest.approx(example["spec"].c, abs=1e-12)

    def test_optimal_product_point(self, example):
        xi_hat = Ket.unit([np.sqrt(1.0 / 6.0), np.sqrt(0.5)])
        rho = DensityMatrix.from_ket(tensor_product(xi_hat, xi_hat), dims=(2, 2))
        out = plane_samples([("opt", rho)], example["spec"], example["L"])
        assert out[0].x == pytest.approx(0.25, abs=1e-12)
        assert out[0].y == pytest.approx(GS_EXACT, abs=1e-12)

    def test_dimension_mismatch(self, example):
        rho = DensityMatrix.maximally_mixed((2, 3))
        with pytest.raises(DimensionMismatch):
            plane_samples([("bad", rho)], example["spec"], example["L"])


class TestAffineConsistency:
    def test_scan_agrees_with_analytic_root(self, example, cfg, pc_result):
        # alpha = -1: value(p) = -(c - <C>_p) + 2 (p_c - <L>_p); its root lies
        # past the side cap, so the scan must stop at the cap instead
        root = affine_root(-0.01 + 2 * pc_result.value, -1.0, 2.0)
        assert root > SIDE_CAP
        rows = alpha_sweep(example["L"], example["spec"], [-1.0], example["family"], cfg)
        assert rows[0].threshold_p == pytest.approx(SIDE_CAP, abs=1e-4)
