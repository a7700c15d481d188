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
from uew.linalg import _lex_key
from uew.witness import BOUNDARY_TOL
from uew.optimize import (
    _PAIR_GRID,
    _PAULI,
    _SEESAW_MAX_ITER,
    SEESAW_TOL,
    _alpha_feasible,
    _best_restart,
    _canonical_rows,
    _cap_argmax,
    _cap_max_values,
    _pair_grid_max,
    _party_ket_grid,
    _pauli_tensor_coeffs,
    _qubit_angles,
    _qubit_bloch,
    _qubit_kets,
    _random_unit,
    _restart_starts,
    _seesaw_batch,
    _unconstrained_solve,
)


def rand_herm(rng, dims):
    n = dims[0] * dims[1]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianOperator((g + g.conj().T) / 2, dims=dims)


def rand_herm_22(rng):
    return rand_herm(rng, (2, 2))


def recipe_instance(s, seed, delta, k, side):
    """Solve k of the d >= 3 recipe R(s, seed, delta).

    L then C are drawn from default_rng(s) as in rand_herm, on dims (2, 3)
    for even k and (3, 3) for odd k; c sits delta past <C> at the
    unconstrained argmax of L, so the constraint is active on that side.
    Returns (L, spec, cfg) with cfg = OptimizerConfig(seed=seed).
    """
    rng = np.random.default_rng(s)
    for j in range(k + 1):
        dims = (2, 3) if j % 2 == 0 else (3, 3)
        L, C = rand_herm(rng, dims), rand_herm(rng, dims)
    cfg = OptimizerConfig(seed=seed)
    sense = 1 if side is HalfSpaceSide.LEQ else -1
    c = expectation(C, sup_product_unconstrained(L, cfg).argmax) - sense * delta
    return L, ConstraintSpec(C=C, c=c), cfg


def _diagonal_cut(draw, C):
    """A constraint value between C's extreme diagonal entries.

    The diagonal entries are the constraint values of product basis kets,
    which sit on every polar/azimuth and hyperspherical grid, so both sides
    are feasible there.
    """
    d = np.diag(C.mat).real
    return float(d.min() + draw(st.floats(0.05, 0.95)) * (d.max() - d.min()))


@st.composite
def qubit_instances(draw):
    """Random two-qubit L and C, c between C's extreme diagonal entries, and a side."""
    parts = arrays(np.float64, (2, 2, 4, 4), elements=st.floats(-1.0, 1.0))
    g = draw(parts)
    L, C = (
        HermitianOperator((x[0] + 1j * x[1] + x[0].T - 1j * x[1].T) / 2, dims=(2, 2))
        for x in g
    )
    return L, ConstraintSpec(C=C, c=_diagonal_cut(draw, C)), draw(st.sampled_from([1, -1]))


@st.composite
def gaussian_instances(draw, dims):
    """rand_herm L and C on dims from a drawn seed, c between C's extreme diagonal entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L, C = rand_herm(rng, dims), rand_herm(rng, dims)
    return L, ConstraintSpec(C=C, c=_diagonal_cut(draw, C))


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


def stack_starts(starts):
    """(R, dA) and (R, dB) arrays of a list of R start pairs (a, b)."""
    return np.array([a for a, _ in starts]), np.array([b for _, b in starts])


def spawn_loop_starts(seed, restarts, dims):
    """The see-saw starts drawn restart by restart from SeedSequence(seed)."""
    starts = []
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        g = np.random.default_rng(ss)
        starts.append((_random_unit(g, dims[0]), _random_unit(g, dims[1])))
    return starts


def reference_best_restart(vals, A, B):
    """The sequential reduction with lazily built Ket.unit tuple keys."""

    def pk_key(a, b):
        return _lex_key(np.concatenate([Ket.unit(a).amplitudes, Ket.unit(b).amplitudes]))

    best, best_key = 0, None
    for r in range(1, len(vals)):
        if vals[r] > vals[best] + 1e-12:
            best, best_key = r, None
        elif abs(vals[r] - vals[best]) <= 1e-12:
            if best_key is None:
                best_key = pk_key(A[best], B[best])
            key = pk_key(A[r], B[r])
            if key < best_key:
                best, best_key = r, key
    return best


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
        # restarts is range-checked; the removed search settings are now
        # unknown keywords
        error = ValueError if "restarts" in kwargs else TypeError
        with pytest.raises(error):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": None}, {"seed": 1.5}, {"seed": -1}, {"seed": "0"}, {"restarts": 2.5}, {"restarts": None}],
    )
    def test_rejects_bad_seeds(self, kwargs):
        # a seed of None would draw OS entropy: equal configs, other results
        with pytest.raises(ValueError, match="must be a"):
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

    def test_monotone_iterations(self, monkeypatch):
        rng = np.random.default_rng(14)
        op = rand_herm_22(rng)
        M4 = op.mat.reshape(2, 2, 2, 2)
        a0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        a0 /= np.linalg.norm(a0)
        monkeypatch.setattr(uew.optimize, "SEESAW_TOL", 0.0)
        vals = []
        for k in range(1, 10):
            monkeypatch.setattr(uew.optimize, "_SEESAW_MAX_ITER", k)
            vals.append(_seesaw_batch(M4, a0[None])[0][0])
        assert all(v2 >= v1 - 1e-13 for v1, v2 in zip(vals, vals[1:]))

    def test_deterministic(self, example):
        cfg = OptimizerConfig(seed=123)
        r1 = sup_product_unconstrained(example["L"], cfg)
        _unconstrained_solve.cache_clear()  # rerun the see-saw, not the memo
        r2 = sup_product_unconstrained(example["L"], cfg)
        assert r2 is not r1
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
            vals, _, _, _, conv = _seesaw_batch(M4, stack_starts(starts)[0])
            for r, (a, b) in enumerate(starts):
                ref = reference_seesaw(M4, a, b, 1e-11, 500)
                assert abs(vals[r] - ref[0]) <= 1e-12
                assert conv[r] == ref[4]

    def test_retired_rows_keep_their_state(self, monkeypatch):
        # a row capped at fewer iterations than it needs stops where the
        # per-restart loop stops, whatever the other rows do
        rng = np.random.default_rng(21)
        M4 = rand_herm(rng, (3, 3)).mat.reshape(3, 3, 3, 3)
        starts = [(_random_unit(rng, 3), _random_unit(rng, 3)) for _ in range(6)]
        monkeypatch.setattr(uew.optimize, "SEESAW_TOL", 0.0)
        monkeypatch.setattr(uew.optimize, "_SEESAW_MAX_ITER", 7)
        vals, _, _, its, conv = _seesaw_batch(M4, stack_starts(starts)[0])
        assert np.all(its == 7) and not conv.any()
        for r, (a, b) in enumerate(starts):
            assert abs(vals[r] - reference_seesaw(M4, a, b, 0.0, 7)[0]) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_reduction_and_reruns(self, dims):
        rng = np.random.default_rng(3 * sum(dims))
        op = rand_herm(rng, dims)
        cfg = OptimizerConfig(seed=9, restarts=16)
        starts = spawn_loop_starts(cfg.seed, cfg.restarts, dims)
        M4 = op.mat.reshape(dims + dims)
        best = max(reference_seesaw(M4, a, b, SEESAW_TOL, _SEESAW_MAX_ITER)[0] for a, b in starts)
        r1 = sup_product_unconstrained(op, cfg)
        _unconstrained_solve.cache_clear()  # rerun from the shared starts, not the memo
        r2 = sup_product_unconstrained(op, cfg)
        assert r2 is not r1
        assert abs(r1.value - best) <= 1e-12
        assert r1.value == r2.value and r1.iterations == r2.iterations
        assert np.array_equal(r1.argmax.a.amplitudes, r2.argmax.a.amplitudes)
        assert np.array_equal(r1.argmax.b.amplitudes, r2.argmax.b.amplitudes)


class TestRestartStarts:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_equal_to_spawn_loop(self, dims):
        A = _restart_starts(9, 16, dims[0])
        ref_a, _ = stack_starts(spawn_loop_starts(9, 16, dims))
        assert A.tobytes() == ref_a.tobytes()

    def test_read_only_and_unchanged_by_a_solve(self, example):
        A = _restart_starts(4, 8, 2)
        before = A.tobytes()
        assert not A.flags.writeable
        sup_product_unconstrained(example["L"], OptimizerConfig(seed=4, restarts=8))
        assert _restart_starts(4, 8, 2) is A
        assert A.tobytes() == before

    def test_alpha0_draws_once(self, swapped, cfg_small, monkeypatch):
        spawned = []

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        _restart_starts.cache_clear()
        _unconstrained_solve.cache_clear()
        assert compute_alpha0(swapped["L"], swapped["spec"], cfg_small) is not None
        assert spawned == [cfg_small.restarts]


class TestUnconstrainedMemo:
    def test_alpha0_solves_each_operator_once(self, swapped, cfg_small, monkeypatch):
        # classify_case solves L and L - C; the p_c solve's stage 1 repeats
        # the first, and the first alpha0 probe, -1.0 * C + L, the second
        seen, batches = [], []

        def recording(L, cfg):
            seen.append((L.mat.tobytes(), L.dims))
            return sup_product_unconstrained(L, cfg)

        def counting(*args):
            batches.append(None)
            return _seesaw_batch(*args)

        monkeypatch.setattr(uew.optimize, "sup_product_unconstrained", recording)
        monkeypatch.setattr(uew.optimize, "_seesaw_batch", counting)
        _unconstrained_solve.cache_clear()
        L, spec = swapped["L"], swapped["spec"]
        classify_case(L, spec, cfg_small)
        p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg_small).value
        compute_alpha0(L, spec, cfg_small, p_c=p_c)
        assert len(seen) == 8
        assert len(batches) == len(set(seen)) == 6


class TestTieBreak:
    @staticmethod
    def assert_matches_reference(op, cfg):
        dA, dB = op.dims
        vals, A, B, its, _ = _seesaw_batch(
            op.mat.reshape(dA, dB, dA, dB), _restart_starts(cfg.seed, cfg.restarts, dA)
        )
        best = reference_best_restart(vals, A, B)
        assert _best_restart(vals, A, B) == best
        res = sup_product_unconstrained(op, cfg)
        assert res.argmax.a.amplitudes.tobytes() == Ket.unit(A[best]).amplitudes.tobytes()
        assert res.argmax.b.amplitudes.tobytes() == Ket.unit(B[best]).amplitudes.tobytes()
        assert res.value == vals[best] and res.iterations == its[best]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_degenerate_operators(self, swapped, seed):
        ops = [
            HermitianOperator.identity((2, 2)),
            _zi(),
            HermitianOperator(np.diag([1.0, 1.0, 0.0, 0.0]), dims=(2, 2)),
            swapped["L"],
        ]
        for op in ops:
            self.assert_matches_reference(op, OptimizerConfig(seed=seed))

    @pytest.mark.parametrize("lam", [-0.5, -0.27, 0.0])
    def test_alpha0_probes(self, swapped, lam):
        # the probes lam*C + L of compute_alpha0, whose restarts tie within 1e-12
        nbar = lam * swapped["spec"].C + swapped["L"]
        self.assert_matches_reference(nbar, OptimizerConfig(seed=7))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 3)]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 20),
        st.sampled_from([8, 24]),
    )
    def test_random_operators(self, dims, op_seed, cfg_seed, restarts):
        op = rand_herm(np.random.default_rng(op_seed), dims)
        self.assert_matches_reference(op, OptimizerConfig(seed=cfg_seed, restarts=restarts))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_canonical_rows_equal_ket_unit(self, d):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(2000, d)) + 1j * rng.normal(size=(2000, d))
        X[::5] /= np.linalg.norm(X[::5], axis=1)[:, None]
        X[::7, 0] = 0.0
        X[::11, 0] = 5e-13  # below PHASE_TOL: the phase comes from the next amplitude
        X[::13, 0] = -2.0
        X[1::13, 0] = 1j * 1e-12
        ref = np.array([Ket.unit(x).amplitudes for x in X])
        assert _canonical_rows(X).tobytes() == ref.tobytes()


def _parent_cap_values(w0, v, g0, u, c, sense):
    """The value formula as it stood inside the value-and-maximiser kernel."""
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
        vperp = np.linalg.norm(v - along[:, None] * us, axis=1)
        val = np.where(free, w0 + nv, w0 + along * t + vperp * rise)
    return np.where(empty, -np.inf, val)


class TestCapValues:
    @pytest.mark.parametrize("sense", [1, -1])
    def test_value_kernel_matches_on_edge_rows(self, sense):
        rng = np.random.default_rng(12)
        c = 0.25
        u_unit = np.array([0.6, 0.0, 0.8])
        rows = [
            # (v, g0, u): |u| < 1e-14 with threshold >= -1e-12, then < -1e-12
            (rng.normal(size=3), c + sense * 5e-13, 1e-15 * u_unit),
            (rng.normal(size=3), c, np.zeros(3)),
            (rng.normal(size=3), c + sense * 2e-12, 1e-15 * u_unit),
            # cuts 1e-15 past, just short of and exactly at the tangent plane
            (rng.normal(size=3), c + sense * (0.5 + 1e-15), 0.5 * u_unit),
            (rng.normal(size=3), c + sense * (0.5 + 0.5e-15), 0.5 * u_unit),
            (rng.normal(size=3), c + sense * (0.5 + 2e-15), 0.5 * u_unit),
            (rng.normal(size=3), c + sense * 0.5, 0.5 * u_unit),
            # v parallel and antiparallel to u, and v = 0
            (2.0 * u_unit, c + sense * 0.1, 0.5 * u_unit),
            (-3.0 * u_unit, c - sense * 0.1, 0.5 * u_unit),
            (np.zeros(3), c + sense * 0.1, 0.5 * u_unit),
            (np.zeros(3), c, np.zeros(3)),
        ]
        rows += [(rng.normal(size=3), c + rng.normal(), rng.normal(size=3)) for _ in range(50)]
        v, g0, u = (np.array(x) for x in zip(*rows))
        w0 = rng.normal(size=len(rows))
        got = _cap_max_values(w0, v, g0, u, c, sense)
        assert got.tobytes() == _parent_cap_values(w0, v, g0, u, c, sense).tobytes()
        assert np.isneginf(got).sum() >= 2
        # the argmax kernel's kets lie in the cap and attain its value; empty caps are nan
        kets = _cap_argmax(w0, v, g0, u, c, sense)
        empty = np.isneginf(got)
        assert np.array_equal(np.isnan(kets).all(axis=1), empty) and not np.isnan(kets[~empty]).any()
        n = np.einsum("ri,kij,rj->rk", kets.conj(), np.array(_PAULI[1:]), kets).real
        attained = w0 + np.einsum("ij,ij->i", v, n)
        assert np.max(np.abs(attained - got)[~empty]) <= 1e-12
        assert np.all(sense * (g0 + np.einsum("ij,ij->i", u, n) - c)[~empty] <= 1e-12)


def _parent_pauli_coeffs(M):
    """Pauli coefficients entry by entry, each kron rebuilt on the spot."""
    T = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            T[i, j] = float(np.trace(M.mat @ np.kron(_PAULI[i], _PAULI[j])).real) / 4.0
    return T


def test_pauli_coeffs_match_per_entry_kron():
    rng = np.random.default_rng(5)
    for _ in range(500):
        M = rand_herm_22(rng)
        assert _pauli_tensor_coeffs(M).tobytes() == _parent_pauli_coeffs(M).tobytes()


def _qubit_grid(n_theta, n_phi, phi_endpoint=True):
    """Kets and Bloch 4-vectors on the solver's polar/azimuth grid."""
    angles = _qubit_angles(n_theta, n_phi, phi_endpoint)
    return _qubit_kets(*angles), _qubit_bloch(*angles)


@pytest.mark.parametrize("resolution", [2, 3, 5, 11, 21, 181])
def test_party_ket_grid_of_a_qubit_is_the_polar_grid(resolution):
    kets = _party_ket_grid(2, resolution)
    assert kets.tobytes() == _qubit_grid(resolution, 2 * resolution - 1)[0].tobytes()


def _coarse_grid():
    # the outer-party grid of the 2x2 solve
    return _qubit_grid(*_PAIR_GRID, phi_endpoint=False)


def _assert_reaches_pair_grid(L, spec, sense, cfg, kets=None):
    """The 2x2 solve is at least the exhaustive pair-grid max over kets x kets
    (the coarse grid by default), attained and feasible."""
    kets = _coarse_grid()[0] if kets is None else kets
    grid_val = _pair_grid_max(L, spec, sense, kets, kets)
    assert grid_val > -np.inf
    side = HalfSpaceSide.LEQ if sense == 1 else HalfSpaceSide.GEQ
    res = sup_product_constrained(L, spec, side, cfg)
    if res.method == "hybrid":
        v_tol, c_tol = 1e-12, 1e-12
    else:
        # the short-circuit returns the unconstrained see-saw, which stops once
        # a sweep gains less than SEESAW_TOL, and accepts it within the
        # boundary band
        v_tol, c_tol = 1e-9, BOUNDARY_TOL
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
        with pytest.raises(EmptyFeasibleSet, match="qubit-pair grid"):
            sup_product_constrained(example["L"], spec, HalfSpaceSide.LEQ, cfg_small)
        # beyond qubit pairs it is the random sample that holds no feasible point
        L = rand_herm(np.random.default_rng(0), (2, 3))
        spec = ConstraintSpec(C=HermitianOperator.identity((2, 3)), c=0.5)
        with pytest.raises(EmptyFeasibleSet, match="random product sample"):
            sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg_small)

    def test_constrained_below_unconstrained(self, example, cfg, pc_result):
        gs = sup_product_unconstrained(example["L"], cfg).value
        p_ct = sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.GEQ, cfg).value
        assert pc_result.value <= gs + 1e-10
        assert p_ct <= gs + 1e-10
        assert max(pc_result.value, p_ct) == pytest.approx(gs, abs=1e-8)

    def test_deterministic(self, example):
        cfg = OptimizerConfig(seed=5, restarts=16)
        r1 = sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.LEQ, cfg)
        _unconstrained_solve.cache_clear()  # rerun stage 1 too
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

    def test_generic_argmax_feasible_and_attained(self):
        # R(55, 1, 0.5), k = 8: an argmax within BOUNDARY_TOL but 1.0e-9 past
        # the cut fails here
        L, spec, cfg = recipe_instance(55, 1, 0.5, 8, HalfSpaceSide.LEQ)
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
        assert res.method == "hybrid"
        assert expectation(spec.C, res.argmax) - spec.c <= 1e-12
        assert abs(expectation(L, res.argmax) - res.value) <= 1e-12

    @pytest.mark.parametrize(
        "s, seed, delta, k, side, floor",
        [
            # boundary optimum 3.38055044122
            (55, 1, 0.5, 4, HalfSpaceSide.LEQ, 3.3805504409),
            # optimum 3.10729815; a local branch sits at 2.8385755118
            (91, 0, 0.8, 13, HalfSpaceSide.GEQ, 3.10),
            # 3.88262439 reached; a point at 3.8774521 falls short of it
            (91, 0, 0.8, 11, HalfSpaceSide.LEQ, 3.8826243),
            # 1.34651413 reached; a root-find re-solved from the best sample
            # point lands on a local branch at 0.4290605
            (55, 1, 0.5, 10, HalfSpaceSide.LEQ, 1.3465141),
        ],
    )
    def test_generic_reaches_the_optimum(self, s, seed, delta, k, side, floor):
        L, spec, cfg = recipe_instance(s, seed, delta, k, side)
        res = sup_product_constrained(L, spec, side, cfg)
        assert res.value >= floor
        assert res.converged

    def test_generic_dominates_grid_oracle_on_recipe(self):
        # R(55, 1, 0.5), k = 10 (2x3): the res-11 oracle reaches 1.1433637,
        # far above the local branch at 0.4290605
        L, spec, cfg = recipe_instance(55, 1, 0.5, 10, HalfSpaceSide.LEQ)
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
        assert res.value >= grid_oracle_sup(L, spec, HalfSpaceSide.LEQ, resolution=11) - 1e-9

    def test_generic_draws_only_the_sample(self, monkeypatch):
        # the root-find continues from its bracket ends, so a repeat solve
        # (restart starts cached) builds one generator: the sample's
        L, spec, cfg = recipe_instance(55, 1, 0.5, 4, HalfSpaceSide.LEQ)
        sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
        built = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
        assert res.method == "hybrid"
        assert len(built) == 1

    def test_generic_dims_diagonal_instance_exact(self, cfg_small):
        # the instance of test_generic_dims_diagonal_instance, value 0.3
        L = HermitianOperator(np.diag([0.2, 0, 0, 0, 0, 1.0]), dims=(2, 3))
        C = HermitianOperator(np.diag([0, 0, 0, 0, 0, 1.0]), dims=(2, 3))
        spec = ConstraintSpec(C=C, c=0.25)
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg_small)
        assert res.value == pytest.approx(0.3, abs=1e-12)
        assert expectation(C, res.argmax) <= 0.25
        assert expectation(L, res.argmax) == pytest.approx(res.value, abs=1e-12)

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(gaussian_instances((2, 3)))
    def test_generic_property_against_pair_grid(self, inst):
        # the side is the one that cuts off the unconstrained argmax, so the
        # constrained see-saw runs
        L, spec = inst
        cfg = OptimizerConfig(seed=2, restarts=16)
        at_opt = expectation(spec.C, sup_product_unconstrained(L, cfg).argmax)
        sense = 1 if at_opt > spec.c else -1
        side = HalfSpaceSide.LEQ if sense == 1 else HalfSpaceSide.GEQ
        grid_val = _pair_grid_max(L, spec, sense, _party_ket_grid(2, 5), _party_ket_grid(3, 5))
        res = sup_product_constrained(L, spec, side, cfg)
        assert res.method == "hybrid"
        assert res.value >= grid_val - 1e-9
        assert abs(expectation(L, res.argmax) - res.value) <= 1e-12
        assert sense * (expectation(spec.C, res.argmax) - spec.c) <= 1e-12


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

    def test_degenerate_when_the_optimum_sits_on_the_cut(self, example, cfg_small):
        # c at the constraint value of L's own product optimum (1/4 up to rounding)
        opt = sup_product_unconstrained(example["L"], cfg_small)
        spec = ConstraintSpec(C=example["C"], c=expectation(example["C"], opt.argmax))
        assert classify_case(example["L"], spec, cfg_small) is CaseLabel.DEGENERATE

    def test_deterministic_label_for_degenerate_difference(self, example, cfg_small):
        spec = ConstraintSpec(C=example["L"], c=0.3)
        l1 = classify_case(example["L"], spec, cfg_small)
        l2 = classify_case(example["L"], spec, cfg_small)
        assert l1 is l2


@pytest.fixture
def constrained_calls(monkeypatch):
    """Operators of the sup_product_constrained calls made inside uew.optimize."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return sup_product_constrained(*args, **kwargs)

    monkeypatch.setattr(uew.optimize, "sup_product_constrained", counting)
    return calls


def case_ii_instances(n):
    """The first n case-ii two-qubit instances of the default_rng(12) recipe.

    L then C are drawn as in rand_herm; a pair is kept when <C> at the
    unconstrained argmax of L - C lies more than 0.1 below <C> at that of
    L, with c at the midpoint. Yields (L, spec, cfg) with
    cfg = OptimizerConfig(seed=5, restarts=24).
    """
    rng = np.random.default_rng(12)
    cfg = OptimizerConfig(seed=5, restarts=24)
    while n:
        L, C = rand_herm_22(rng), rand_herm_22(rng)
        c_l, c_d = (expectation(C, sup_product_unconstrained(op, cfg).argmax) for op in (L, L - C))
        if not c_d < c_l - 0.1:
            continue
        spec = ConstraintSpec(C=C, c=0.5 * (c_l + c_d))
        if classify_case(L, spec, cfg) is CaseLabel.CASE_II:
            n -= 1
            yield L, spec, cfg


def case_i_with_finite_alpha0():
    """The last of 36 two-qubit pairs of the default_rng(2024) recipe.

    L then C are drawn as in rand_herm; c sits 0.3 below <C> at the
    unconstrained argmax of L. classify_case calls it case I, yet L - C
    exceeds p_c - c on the <= side, so alpha0 is finite. Returns
    (L, spec, cfg) with cfg = OptimizerConfig(seed=1, restarts=24).
    """
    rng = np.random.default_rng(2024)
    for _ in range(36):
        L, C = rand_herm_22(rng), rand_herm_22(rng)
    cfg = OptimizerConfig(seed=1, restarts=24)
    c = expectation(C, sup_product_unconstrained(L, cfg).argmax) - 0.3
    return L, ConstraintSpec(C=C, c=c), cfg


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
        # the search covers the whole family, lam in [-1, 0]: no bracket to set
        with pytest.raises(TypeError, match="bracket_min"):
            compute_alpha0(swapped["L"], swapped["spec"], cfg_small, bracket_min=bracket_min, p_c=0.1)

    def test_tangent_search_few_probes_and_matches_bisection(
        self, swapped, cfg_small, swapped_bisection, constrained_calls
    ):
        p_c, reference = swapped_bisection
        a0 = compute_alpha0(swapped["L"], swapped["spec"], cfg_small, p_c=p_c)
        assert len(constrained_calls) <= 16
        assert abs(a0 - reference) <= 1e-6

    @staticmethod
    def certified_alpha0(L, spec, cfg, calls):
        """compute_alpha0 with p_c given; returns its probe count after
        checking that a0 is valid and a0 - 1e-6 is not."""
        p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg).value
        a0 = compute_alpha0(L, spec, cfg, p_c=p_c)
        probes = len(calls)
        assert _alpha_feasible(L, spec, cfg, p_c, a0)
        assert not _alpha_feasible(L, spec, cfg, p_c, a0 - 1e-6)
        return probes

    @pytest.mark.parametrize("seed0", [False, True], ids=["cfg_small", "seed0"])
    def test_aimed_steps_take_few_probes(self, swapped, cfg_small, seed0, constrained_calls):
        # the tangent alone halves the distance to the flip: 15 probes here
        cfg = OptimizerConfig(seed=0) if seed0 else cfg_small
        assert self.certified_alpha0(swapped["L"], swapped["spec"], cfg, constrained_calls) <= 6

    def test_aimed_steps_on_random_case_ii_instances(self, constrained_calls):
        # the tangent alone takes 98 probes on these six
        probes = 0
        for L, spec, cfg in case_ii_instances(6):
            constrained_calls.clear()
            probes += self.certified_alpha0(L, spec, cfg, constrained_calls)
        assert probes <= 60

    @staticmethod
    def without_tangent_steps(monkeypatch):
        probe = uew.optimize._alpha0_probe
        monkeypatch.setattr(
            uew.optimize, "_alpha0_probe", lambda *args: (probe(*args)[0], None)
        )
        return probe

    def test_without_tangent_steps_falls_back_to_bisection(
        self, swapped, cfg_small, swapped_bisection, monkeypatch
    ):
        L, spec = swapped["L"], swapped["spec"]
        p_c, _ = swapped_bisection
        probe = self.without_tangent_steps(monkeypatch)
        # plain bisection in lam on [-1, 0] down to a width of 1e-6 in alpha,
        # alpha(hi) - alpha(lo) = (hi - lo) / ((1 + lo) (1 + hi))
        lo, hi = -1.0, 0.0
        while hi - lo > 1e-6 * (1.0 + lo) * (1.0 + hi):
            mid = 0.5 * (lo + hi)
            if probe(L, spec, cfg_small, p_c, mid)[0]:
                hi = mid
            else:
                lo = mid
        assert compute_alpha0(L, spec, cfg_small, p_c=p_c) == hi / (1.0 + hi)

    def test_without_tangent_steps_few_probes(
        self, swapped, cfg_small, swapped_bisection, constrained_calls, monkeypatch
    ):
        # bisection in alpha on [-1e6, 0] took 42 probes
        p_c, _ = swapped_bisection
        self.without_tangent_steps(monkeypatch)
        compute_alpha0(swapped["L"], swapped["spec"], cfg_small, p_c=p_c)
        assert len(constrained_calls) <= 24

    @pytest.mark.parametrize(
        "lam_flip",
        [-0.3 / 1.3, -1e3 / (1.0 + 1e3), -5e5 / (1.0 + 5e5), -1e7 / (1.0 + 1e7), -1.0],
        ids=["alpha-0.3", "alpha-1e3", "alpha-5e5", "alpha-1e7", "lam-1"],
    )
    def test_monotone_predicate_ends_next_to_its_flip(self, swapped, cfg_small, lam_flip, monkeypatch):
        probes = []

        def predicate(L, spec, cfg, p_c, lam):
            probes.append(lam)
            return lam >= lam_flip, None

        monkeypatch.setattr(uew.optimize, "_alpha0_probe", predicate)
        a0 = compute_alpha0(swapped["L"], swapped["spec"], cfg_small, p_c=0.0)
        assert len(probes) <= 60
        if lam_flip == -1.0:
            assert a0 is None
            return
        hi = min(lam for lam in probes if lam >= lam_flip)
        lo = max(lam for lam in probes if lam < lam_flip)
        alpha_lo = lo / (1.0 + lo) if lo > -1.0 else -np.inf
        assert a0 == hi / (1.0 + hi)
        assert a0 - alpha_lo <= 1e-6 or np.nextafter(lo, 0.0) == hi

    def test_tangent_into_a_narrow_bracket_skips_the_aim(self, swapped, cfg_small, monkeypatch):
        # the tangent from lam = -1 certifies lam < -5e-7 invalid, which leaves
        # [-5e-7, 0] narrower than the width: no aimed probe, only the valid end
        probes = []

        def predicate(L, spec, cfg, p_c, lam):
            probes.append(lam)
            return (True, None) if lam >= -5e-7 else (False, (-5e-7, -4e-7))

        monkeypatch.setattr(uew.optimize, "_alpha0_probe", predicate)
        assert compute_alpha0(swapped["L"], swapped["spec"], cfg_small, p_c=0.0) == 0.0
        assert probes == [-1.0, 0.0]

    @pytest.mark.parametrize("instance", ["worked", "rng2024"])
    def test_none_exactly_when_the_limit_witness_is_valid(self, example, cfg_small, instance):
        if instance == "worked":
            L, spec, cfg = example["L"], example["spec"], cfg_small
        else:
            L, spec, cfg = case_i_with_finite_alpha0()
        p_c = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg).value
        a0 = compute_alpha0(L, spec, cfg, p_c=p_c)
        assert (a0 is None) == _alpha_feasible(L, spec, cfg, p_c, -np.inf)
        if instance == "worked":
            assert a0 is None
        else:
            assert classify_case(L, spec, cfg) is CaseLabel.CASE_I
            assert a0 == pytest.approx(-2.0036471, abs=1e-6)


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
