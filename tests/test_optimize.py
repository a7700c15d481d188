import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import uew.optimize

from conftest import GS_EXACT, PC_EXACT
from uew import (
    AssumptionViolated,
    CaseLabel,
    ConstraintSpec,
    EmptyFeasibleSet,
    HalfSpaceSide,
    HermitianOperator,
    Ket,
    OptimizerConfig,
    classify_case,
    compute_alpha0,
    expectation,
    grid_oracle_sup,
    rotated_bound_residual,
    sup_product_constrained,
    sup_product_unconstrained,
)
from uew.optimize import (
    _alpha_feasible,
    _pair_grid_max,
    _qubit_grid,
    _random_unit,
    _seesaw_batch,
)


def rand_herm(rng, dims):
    n = dims[0] * dims[1]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianOperator((g + g.conj().T) / 2, dims=dims)


def rand_herm_22(rng):
    return rand_herm(rng, (2, 2))


@st.composite
def qubit_instances(draw):
    """Random two-qubit L and C, c between C's extreme diagonal entries, and a side.

    The diagonal entries are the constraint values of product basis kets,
    which sit on every polar/azimuth grid, so both sides are feasible there.
    """
    parts = arrays(np.float64, (2, 2, 4, 4), elements=st.floats(-1.0, 1.0))
    g = draw(parts)
    L, C = (
        HermitianOperator((x[0] + 1j * x[1] + x[0].T - 1j * x[1].T) / 2, dims=(2, 2))
        for x in g
    )
    d = np.diag(C.mat).real
    c = float(d.min() + draw(st.floats(0.05, 0.95)) * (d.max() - d.min()))
    return L, ConstraintSpec(C=C, c=c), draw(st.sampled_from([1, -1]))


def reference_seesaw(M4, a, b, tol, max_iter):
    """One restart of the see-saw, one eigensolve per half step."""

    def top(m):
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        return vals[-1], vecs[:, -1]

    val = -np.inf
    for it in range(1, max_iter + 1):
        _, b = top(np.einsum("i,ikjl,j->kl", a.conj(), M4, a))
        new, a = top(np.einsum("k,ikjl,l->ij", b.conj(), M4, b))
        if new - val < tol:
            return new, a, b, it, True
        val = new
    return val, a, b, max_iter, False


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"grid_theta": 1},
            {"grid_phi": 1},
            {"seesaw_tol": 0.0},
            {"feas_tol": -1e-9},
            {"seesaw_max_iter": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestSeesawUnconstrained:
    def test_identity(self, cfg):
        res = sup_product_unconstrained(HermitianOperator.identity((2, 2)), cfg)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.converged

    def test_diagonal_attains_vertex(self, cfg):
        op = HermitianOperator(np.diag([0.2, 0.7, 0.7, 0.3]), dims=(2, 2))
        res = sup_product_unconstrained(op, cfg)
        assert res.value == pytest.approx(0.7, abs=1e-11)

    def test_worked_example(self, example, cfg):
        res = sup_product_unconstrained(example["L"], cfg)
        assert abs(res.value - GS_EXACT) <= 1e-9
        xi_hat = Ket.unit([np.sqrt(1.0 / 6.0), np.sqrt(0.5)])
        assert abs(res.argmax.a.overlap(xi_hat)) == pytest.approx(1.0, abs=1e-6)
        assert abs(res.argmax.b.overlap(xi_hat)) == pytest.approx(1.0, abs=1e-6)

    def test_argmax_attains_value(self, cfg):
        rng = np.random.default_rng(0)
        for _ in range(5):
            op = rand_herm_22(rng)
            res = sup_product_unconstrained(op, cfg)
            attained = expectation(op, res.argmax)
            assert attained == pytest.approx(res.value, abs=1e-8)

    def test_monotone_iterations(self):
        rng = np.random.default_rng(14)
        op = rand_herm_22(rng)
        M4 = op.mat.reshape(2, 2, 2, 2)
        a0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        a0 /= np.linalg.norm(a0)
        b0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        b0 /= np.linalg.norm(b0)
        vals = [
            _seesaw_batch(M4, [(a0, b0)], 0.0, k)[0][0] for k in range(1, 10)
        ]
        assert all(v2 >= v1 - 1e-13 for v1, v2 in zip(vals, vals[1:]))

    def test_deterministic(self, example):
        cfg = OptimizerConfig(seed=123)
        r1 = sup_product_unconstrained(example["L"], cfg)
        r2 = sup_product_unconstrained(example["L"], cfg)
        assert r1.value == r2.value
        assert np.array_equal(r1.argmax.a.amplitudes, r2.argmax.a.amplitudes)
        assert np.array_equal(r1.argmax.b.amplitudes, r2.argmax.b.amplitudes)

    def test_generic_dims(self, cfg_small):
        diag = np.array([0.1, 0.9, 0.4, 0.3, 0.2, 0.6])
        op = HermitianOperator(np.diag(diag), dims=(2, 3))
        res = sup_product_unconstrained(op, cfg_small)
        assert res.value == pytest.approx(0.9, abs=1e-10)


class TestSeesawBatch:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_per_restart_loop(self, dims):
        rng = np.random.default_rng(sum(dims))
        for _ in range(3):
            M4 = rand_herm(rng, dims).mat.reshape(dims + dims)
            starts = [(_random_unit(rng, dims[0]), _random_unit(rng, dims[1])) for _ in range(12)]
            vals, _, _, _, conv = _seesaw_batch(M4, starts, 1e-11, 500)
            for r, (a, b) in enumerate(starts):
                ref = reference_seesaw(M4, a, b, 1e-11, 500)
                assert abs(vals[r] - ref[0]) <= 1e-12
                assert conv[r] == ref[4]

    def test_retired_rows_keep_their_state(self):
        # a row capped at fewer iterations than it needs stops where the
        # per-restart loop stops, whatever the other rows do
        rng = np.random.default_rng(21)
        M4 = rand_herm(rng, (3, 3)).mat.reshape(3, 3, 3, 3)
        starts = [(_random_unit(rng, 3), _random_unit(rng, 3)) for _ in range(6)]
        vals, _, _, its, conv = _seesaw_batch(M4, starts, 0.0, 7)
        assert np.all(its == 7) and not conv.any()
        for r, (a, b) in enumerate(starts):
            assert abs(vals[r] - reference_seesaw(M4, a, b, 0.0, 7)[0]) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_reduction_and_reruns(self, dims):
        rng = np.random.default_rng(3 * sum(dims))
        op = rand_herm(rng, dims)
        cfg = OptimizerConfig(seed=9, restarts=16)
        starts = []
        for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
            g = np.random.default_rng(ss)
            starts.append((_random_unit(g, dims[0]), _random_unit(g, dims[1])))
        M4 = op.mat.reshape(dims + dims)
        best = max(reference_seesaw(M4, a, b, cfg.seesaw_tol, cfg.seesaw_max_iter)[0] for a, b in starts)
        r1 = sup_product_unconstrained(op, cfg)
        r2 = sup_product_unconstrained(op, cfg)
        assert abs(r1.value - best) <= 1e-12
        assert r1.value == r2.value and r1.iterations == r2.iterations
        assert np.array_equal(r1.argmax.a.amplitudes, r2.argmax.a.amplitudes)
        assert np.array_equal(r1.argmax.b.amplitudes, r2.argmax.b.amplitudes)


def _coarse_grid():
    # the party-A grid of the 2x2 solve at the default grid_theta/grid_phi
    return _qubit_grid(45, 90, phi_endpoint=False)


def _assert_reaches_pair_grid(L, spec, sense, cfg, kets=None):
    """The 2x2 solve is at least the exhaustive pair-grid max over kets x kets
    (the coarse grid by default), attained and feasible."""
    kets = _coarse_grid()[0] if kets is None else kets
    grid_val, _ = _pair_grid_max(L, spec, sense, kets, kets, chunk=1024)
    assert grid_val > -np.inf
    side = HalfSpaceSide.LEQ if sense == 1 else HalfSpaceSide.GEQ
    res = sup_product_constrained(L, spec, side, cfg)
    if res.method == "hybrid":
        v_tol, c_tol = 1e-12, 1e-12
    else:
        # the short-circuit returns the unconstrained see-saw, which stops once
        # a sweep gains less than seesaw_tol, and accepts it within feas_tol
        v_tol, c_tol = 1e-9, cfg.feas_tol
    assert res.value >= grid_val - v_tol
    assert abs(expectation(L, res.argmax) - res.value) <= 1e-12
    assert sense * (expectation(spec.C, res.argmax) - spec.c) <= c_tol
    assert res.converged
    return res


def _zi():
    return HermitianOperator(np.kron(np.diag([1.0, -1.0]), np.eye(2)), dims=(2, 2))


class TestPrunedPairGrid:
    """The instances that once exercised the pruned pair-grid seed; on each,
    the 2x2 solve must reach the full coarse pair grid."""

    def test_grid_matches_bloch_vectors(self):
        kets, bloch = _coarse_grid()
        assert kets.shape == (4050, 2)
        n = np.stack(
            [
                2 * (kets[:, 0].conj() * kets[:, 1]).real,
                2 * (kets[:, 0].conj() * kets[:, 1]).imag,
                np.abs(kets[:, 0]) ** 2 - np.abs(kets[:, 1]) ** 2,
            ],
            axis=-1,
        )
        assert np.allclose(bloch[:, 0], 1.0) and np.allclose(bloch[:, 1:], n, atol=1e-14)

    @pytest.mark.parametrize("sense", [1, -1])
    def test_worked_and_swapped_instances(self, example, swapped, sense, cfg):
        _assert_reaches_pair_grid(example["L"], example["spec"], sense, cfg)
        _assert_reaches_pair_grid(swapped["L"], swapped["spec"], sense, cfg)

    @pytest.mark.parametrize("sense", [1, -1])
    def test_random_instances(self, sense, cfg):
        rng = np.random.default_rng(40 + sense)
        for _ in range(20):
            L, C = rand_herm_22(rng), rand_herm_22(rng)
            d = np.diag(C.mat).real
            c = float(rng.uniform(d.min(), d.max()))
            _assert_reaches_pair_grid(L, ConstraintSpec(C=C, c=c), sense, cfg)

    @pytest.mark.parametrize("sense", [1, -1])
    def test_constraint_without_party_b_gradient(self, sense, cfg):
        rng = np.random.default_rng(61)
        spec = ConstraintSpec(C=_zi(), c=0.3)
        _assert_reaches_pair_grid(rand_herm_22(rng), spec, sense, cfg)

    def test_boundary_tangent_cut(self, cfg):
        zz = HermitianOperator(np.diag([1.0, -1.0, -1.0, 1.0]), dims=(2, 2))
        res = _assert_reaches_pair_grid(zz, ConstraintSpec(C=_zi(), c=-1.0), 1, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_objective_nearly_parallel_to_constraint(self, eps, cfg):
        # party B's objective Z + eps X is nearly parallel to the constraint
        # gradient Z; the feasible equator point phi = 0 is on the grid
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        L = HermitianOperator(np.kron(np.eye(2), z + eps * x), dims=(2, 2))
        spec = ConstraintSpec(C=HermitianOperator(np.kron(np.eye(2), z), dims=(2, 2)), c=0.0)
        res = _assert_reaches_pair_grid(L, spec, 1, cfg)
        assert res.value >= eps - 1e-12

    def test_identity(self, cfg):
        ident = HermitianOperator.identity((2, 2))
        res = _assert_reaches_pair_grid(ident, ConstraintSpec(C=_zi(), c=1.0), 1, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-12)


class TestQubitPairConstrained:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(qubit_instances())
    def test_property_against_pair_grid(self, inst):
        # the 21 x 40 pair grid evaluates both parties on angles, with no
        # closed form, so it is an independent lower bound
        L, spec, sense = inst
        cfg = OptimizerConfig(seed=2, restarts=16)
        _assert_reaches_pair_grid(L, spec, sense, cfg, _qubit_grid(21, 40)[0])

    def test_ridge_in_one_orientation(self, cfg):
        # with party A outer, f rises along a curved ridge where party B's cut
        # shrinks to a point, and a compass search crawls; with party B outer
        # the optimum is a grid point of the res-181 oracle
        L = np.zeros((4, 4))
        L[1, 2] = L[2, 1] = 0.04
        C = np.zeros((4, 4))
        C[0, 1] = C[1, 0] = 0.2
        C[1, 2] = C[2, 1] = 0.5
        L, C = HermitianOperator(L, dims=(2, 2)), HermitianOperator(C, dims=(2, 2))
        spec = ConstraintSpec(C=C, c=0.0)
        res = _assert_reaches_pair_grid(L, spec, 1, cfg)
        assert res.value >= grid_oracle_sup(L, spec, HalfSpaceSide.LEQ, resolution=181) - 1e-12

    def test_reaches_oracle_where_the_pair_grid_seed_undershot(self):
        # k = 31 of default_rng(5), GEQ: the pair-grid seed pipeline stopped
        # at 1.374871; the res-361 grid oracle reaches 1.383355
        rng = np.random.default_rng(5)
        for _ in range(32):
            L, C = rand_herm_22(rng), rand_herm_22(rng)
        cfg = OptimizerConfig(seed=3, restarts=24)
        c = expectation(C, sup_product_unconstrained(L, cfg).argmax) + 0.5
        res = sup_product_constrained(L, ConstraintSpec(C=C, c=c), HalfSpaceSide.GEQ, cfg)
        assert res.value >= 1.383355
        assert abs(expectation(L, res.argmax) - res.value) <= 1e-12
        assert expectation(C, res.argmax) >= c - 1e-12


class TestGridOracle:
    def test_identity_any_resolution(self):
        for res in (61, 181):
            assert grid_oracle_sup(HermitianOperator.identity((2, 2)), resolution=res) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_value(self, example):
        val = grid_oracle_sup(example["L"], resolution=721)
        assert val == pytest.approx(GS_EXACT, abs=1e-3)

    def test_monotone_under_nested_refinement(self, example):
        vals = [grid_oracle_sup(example["L"], resolution=r) for r in (91, 181, 361)]
        assert vals[0] <= vals[1] + 1e-15 <= vals[2] + 2e-15

    def test_constrained_example(self, example, cfg):
        val = grid_oracle_sup(example["L"], example["spec"], HalfSpaceSide.LEQ, resolution=721)
        assert val == pytest.approx(PC_EXACT, abs=1e-4)
        assert val <= PC_EXACT + 1e-12

    def test_agreement_with_seesaw(self, cfg):
        rng = np.random.default_rng(77)
        for _ in range(6):
            op = rand_herm_22(rng)
            ss = sup_product_unconstrained(op, cfg).value
            orc = grid_oracle_sup(op, resolution=361)
            assert abs(ss - orc) <= 2e-3
            assert ss >= orc - 1e-6

    def test_dimension_cap(self):
        op = HermitianOperator.identity((4, 4))
        with pytest.raises(ValueError):
            grid_oracle_sup(op)

    def test_generic_dims_path(self):
        diag = np.array([0.1, 0.9, 0.4, 0.3, 0.2, 0.6])
        op = HermitianOperator(np.diag(diag), dims=(2, 3))
        # basis kets sit on the hyperspherical grid, so the max is exact
        assert grid_oracle_sup(op, resolution=7) == pytest.approx(0.9, abs=1e-12)

    def test_infeasible_raises(self, example):
        spec = ConstraintSpec(C=example["C"], c=-0.5)
        with pytest.raises(EmptyFeasibleSet):
            grid_oracle_sup(example["L"], spec, HalfSpaceSide.LEQ, resolution=121)


class TestConstrained:
    def test_interior_optimum_geq(self, example, cfg):
        res = sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.GEQ, cfg)
        assert res.value == pytest.approx(GS_EXACT, abs=1e-9)
        assert res.method == "seesaw"
        assert res.constraint_value == pytest.approx(0.25, abs=1e-8)

    def test_boundary_active_leq(self, example, pc_result):
        assert abs(pc_result.value - PC_EXACT) <= 1e-9
        assert pc_result.method == "hybrid"
        assert abs(pc_result.constraint_value - example["spec"].c) <= 1e-6
        attained = expectation(example["L"], pc_result.argmax)
        assert attained == pytest.approx(pc_result.value, abs=1e-8)

    def test_against_independent_oracles(self, example, pc_result):
        # dense grid oracle from below, 1d boundary reduction at the top
        grid_val = grid_oracle_sup(example["L"], example["spec"], HalfSpaceSide.LEQ, resolution=721)
        assert pc_result.value >= grid_val - 1e-6
        assert abs(pc_result.value - grid_val) <= 1e-4

        def q(s):
            return (np.sqrt((1.0 - s) / 6.0) + np.sqrt(s / 2.0)) ** 2

        sprod = 9.0 * example["spec"].c / 4.0
        ts = np.linspace(sprod, 1.0, 200_001)
        one_d = float((q(ts) * q(sprod / ts)).max())
        assert pc_result.value == pytest.approx(one_d, abs=1e-8)

    def test_self_constraint(self, example, cfg_small):
        spec = ConstraintSpec(C=example["L"], c=0.3)
        res = sup_product_constrained(example["L"], spec, HalfSpaceSide.LEQ, cfg_small)
        assert res.value == pytest.approx(0.3, abs=1e-9)

    def test_empty_feasible_set(self, example, cfg_small):
        spec = ConstraintSpec(C=example["C"], c=-0.5)
        with pytest.raises(EmptyFeasibleSet):
            sup_product_constrained(example["L"], spec, HalfSpaceSide.LEQ, cfg_small)

    def test_constrained_below_unconstrained(self, example, cfg, pc_result):
        gs = sup_product_unconstrained(example["L"], cfg).value
        p_ct = sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.GEQ, cfg).value
        assert pc_result.value <= gs + 1e-10
        assert p_ct <= gs + 1e-10
        assert max(pc_result.value, p_ct) == pytest.approx(gs, abs=1e-8)

    def test_deterministic(self, example):
        cfg = OptimizerConfig(seed=5, restarts=16)
        r1 = sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.LEQ, cfg)
        r2 = sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.LEQ, cfg)
        assert r1.value == r2.value
        assert np.array_equal(r1.argmax.a.amplitudes, r2.argmax.a.amplitudes)

    def test_bad_side_rejected(self, example, cfg_small):
        with pytest.raises(ValueError):
            sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.BOUNDARY, cfg_small)

    def test_generic_dims_diagonal_instance(self, cfg_small):
        # on 2x3, diag operators make the problem bilinear in probabilities:
        # max 0.2 p0 q0 + p1 q2 s.t. p1 q2 <= 1/4 has value 0.2(1-1/2)^2 + 1/4
        L = HermitianOperator(np.diag([0.2, 0, 0, 0, 0, 1.0]), dims=(2, 3))
        C = HermitianOperator(np.diag([0, 0, 0, 0, 0, 1.0]), dims=(2, 3))
        spec = ConstraintSpec(C=C, c=0.25)
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg_small)
        assert res.value == pytest.approx(0.3, abs=1e-6)
        assert res.constraint_value <= 0.25 + 1e-9

    def test_generic_dims_against_grid_oracle(self, cfg_small):
        rng = np.random.default_rng(55)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        L = HermitianOperator((g + g.conj().T) / 2, dims=(2, 3))
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        C = HermitianOperator((g + g.conj().T) / 2, dims=(2, 3))
        c = 0.5 * (np.diag(C.mat).real.min() + np.diag(C.mat).real.max())
        spec = ConstraintSpec(C=C, c=float(c))
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg_small)
        orc = grid_oracle_sup(L, spec, HalfSpaceSide.LEQ, resolution=11)
        # the oracle value is attained by feasible grid products, so it can
        # only undershoot; the optimizer must dominate it
        assert res.value >= orc - 1e-9
        # coarse hyperspherical grid error, proportional to the operator scale
        assert res.value - orc <= 0.05 * np.max(np.abs(L.mat))


class TestClassify:
    def test_vacuous_constraint(self, example, cfg_small):
        spec = ConstraintSpec(C=0.0 * example["C"], c=-1.0)
        assert classify_case(example["L"], spec, cfg_small) is CaseLabel.CASE_I

    def test_worked_example(self, example, cfg_small):
        assert classify_case(example["L"], example["spec"], cfg_small) is CaseLabel.CASE_I

    def test_role_swapped_instance(self, swapped, cfg_small):
        assert classify_case(swapped["L"], swapped["spec"], cfg_small) is CaseLabel.CASE_II

    def test_assumption_violated(self, example, cfg_small):
        spec = ConstraintSpec(C=example["C"], c=0.5)  # optimum sits at <C> = 1/4 < c
        with pytest.raises(AssumptionViolated):
            classify_case(example["L"], spec, cfg_small)

    def test_deterministic_label_for_degenerate_difference(self, example, cfg_small):
        spec = ConstraintSpec(C=example["L"], c=0.3)
        l1 = classify_case(example["L"], spec, cfg_small)
        l2 = classify_case(example["L"], spec, cfg_small)
        assert l1 is l2


@pytest.fixture(scope="module")
def swapped_bisection(swapped, cfg_small):
    """p_c of the swapped instance and a plain bisection on the same predicate over [-1e6, 0]."""
    L, spec = swapped["L"], swapped["spec"]
    p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg_small).value
    lo, hi = -1e6, 0.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if _alpha_feasible(L, spec, cfg_small, p_c, mid):
            hi = mid
        else:
            lo = mid
    return p_c, hi


class TestAlpha0:
    def test_case_i_has_no_finite_alpha0(self, example, cfg_small, pc_result):
        out = compute_alpha0(example["L"], example["spec"], cfg_small, p_c=pc_result.value)
        assert out is None

    def test_case_ii_bisection_with_certificate(self, swapped, cfg_small):
        spec = swapped["spec"]
        p_c = sup_product_constrained(swapped["L"], spec, HalfSpaceSide.LEQ, cfg_small).value
        a0 = compute_alpha0(swapped["L"], spec, cfg_small, p_c=p_c)
        assert a0 is not None
        assert -1.0 < a0 < 0.0
        assert _alpha_feasible(swapped["L"], spec, cfg_small, p_c, a0 + 1e-3)
        assert not _alpha_feasible(swapped["L"], spec, cfg_small, p_c, a0 - 1e-3)

    def test_case_ii_against_dense_scan(self, swapped, cfg_small):
        # independent location of the flip: walk alpha with the grid oracle.
        # The violation margin grows quadratically away from the flip, so a
        # grid accuracy of ~3e-8 resolves the location to a few 1e-3.
        spec = swapped["spec"]
        p_c = sup_product_constrained(swapped["L"], spec, HalfSpaceSide.LEQ, cfg_small).value
        a0 = compute_alpha0(swapped["L"], spec, cfg_small, p_c=p_c)
        step = 2.5e-3
        margins = {}
        for k in range(-6, 5):
            al = a0 + k * step
            lam = al / (1.0 - al)
            nbar = lam * spec.C + swapped["L"]
            sup = grid_oracle_sup(nbar, spec, HalfSpaceSide.LEQ, resolution=451)
            margins[k] = sup - (lam * spec.c + p_c)
        # grid undershoots the true supremum, so compare against its own
        # plateau level right of the flip rather than zero
        plateau = margins[4]
        assert all(margins[k] - plateau > 2e-7 for k in (-6, -5, -4))
        assert all(abs(margins[k] - plateau) < 1e-7 for k in (1, 2, 3))

    def test_inconsistent_inputs_raise(self, swapped, cfg_small):
        with pytest.raises(ValueError):
            compute_alpha0(swapped["L"], swapped["spec"], cfg_small, p_c=0.0)

    @pytest.mark.parametrize("bracket_min", [-np.inf, np.nan, 0.0, 1.0])
    def test_rejects_bad_bracket_min(self, swapped, cfg_small, bracket_min):
        with pytest.raises(ValueError, match="bracket_min"):
            compute_alpha0(swapped["L"], swapped["spec"], cfg_small, bracket_min=bracket_min, p_c=0.1)

    def test_tangent_search_few_probes_and_matches_bisection(
        self, swapped, cfg_small, swapped_bisection, monkeypatch
    ):
        p_c, reference = swapped_bisection
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return sup_product_constrained(*args, **kwargs)

        monkeypatch.setattr(uew.optimize, "sup_product_constrained", counting)
        a0 = compute_alpha0(swapped["L"], swapped["spec"], cfg_small, p_c=p_c)
        assert len(calls) <= 16
        assert abs(a0 - reference) <= 1e-6

    def test_without_tangent_steps_falls_back_to_bisection(
        self, swapped, cfg_small, swapped_bisection, monkeypatch
    ):
        p_c, reference = swapped_bisection
        probe = uew.optimize._alpha0_probe
        monkeypatch.setattr(
            uew.optimize, "_alpha0_probe", lambda *args: (probe(*args)[0], None)
        )
        assert compute_alpha0(swapped["L"], swapped["spec"], cfg_small, p_c=p_c) == reference


class TestRotatedBoundResidual:
    @pytest.mark.parametrize("alpha", [-0.5, -1.0, -5.0, -10.0])
    def test_worked_example(self, example, cfg_small, alpha):
        assert rotated_bound_residual(example["L"], example["spec"], alpha, cfg_small) <= 1e-6

    def test_alpha_zero_trivial(self, example, cfg_small):
        assert rotated_bound_residual(example["L"], example["spec"], 0.0, cfg_small) <= 1e-12

    def test_rejects_minus_inf(self, example, cfg_small):
        with pytest.raises(ValueError, match="finite"):
            rotated_bound_residual(example["L"], example["spec"], float("-inf"), cfg_small)

    def test_warns_when_hypothesis_fails(self, swapped, cfg_small):
        # below alpha0 the rotated optimum migrates to the <= side
        with pytest.warns(RuntimeWarning):
            rotated_bound_residual(swapped["L"], swapped["spec"], -5.0, cfg_small)
