import warnings
from types import SimpleNamespace

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
    DimensionMismatch,
    EmptyFeasibleSet,
    HalfSpaceSide,
    HermitianOperator,
    Ket,
    OptimizerConfig,
    ProductKet,
    classify_case,
    compute_alpha0,
    expectation,
    grid_oracle_sup,
    rotated_bound_residual,
    sup_product_constrained,
    sup_product_unconstrained,
)
from uew.linalg import COMPASS_STOP, _lex_key
from uew.witness import BOUNDARY_TOL, rotated_test
from uew.optimize import (
    _COMPASS_MAX_STEPS,
    _PAIR_BLOCH,
    _PAIR_GRID,
    _PAULI,
    _SEESAW_MAX_ITER,
    SEESAW_TOL,
    _alpha_feasible,
    _best_restart,
    _canonical_rows,
    _cap_argmax,
    _cap_max_values,
    _coeff_columns,
    _condition,
    _conditioning,
    _cut_operator,
    _cut_slack,
    _dual_refine,
    _hermitian_top,
    _inner_caps,
    _norm3,
    _oracle_22,
    _orientations,
    _pair_grid_max,
    _party_ket_grid,
    _pauli_tensor_coeffs,
    _qubit_angles,
    _qubit_bloch,
    _qubit_kets,
    _qubit_pair_constrained,
    _restart_starts,
    _seesaw_batch,
    _top4,
    _unconstrained_solve,
)


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    """A unit ket of d complex normals: the reference that
    uew.optimize._restart_starts reproduces row by row."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


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
        [
            {"seed": None}, {"seed": 1.5}, {"seed": -1}, {"seed": "0"}, {"seed": True},
            {"restarts": 2.5}, {"restarts": None}, {"restarts": True},
        ],
    )
    def test_rejects_bad_seeds(self, kwargs):
        # a seed of None would draw OS entropy: equal configs, other results;
        # a bool is an Integral but no count
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


def qubit_stack(seed, scale=1.0):
    """A seeded (64, 2, 2) stack of Gaussian Hermitian rows times scale,
    with the edge rows of the closed-form eigenpair in front: b = 0 with
    a > d and with a < d, a = d with b != 0, three scalar matrices and a
    row that is not Hermitian (read as its Hermitian part). Three unscaled
    rows whose entries span 1e-300 to 1e150 follow."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
    H = (g + g.conj().transpose(0, 2, 1)) / 2
    H[:7] = [
        [[2.0, 0.0], [0.0, -1.0]],
        [[-1.0, 0.0], [0.0, 2.0]],
        [[0.5, 1.0 - 2.0j], [1.0 + 2.0j, 0.5]],
        [[3.0, 0.0], [0.0, 3.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[-1e-3, 0.0], [0.0, -1e-3]],
        [[1.0, 2.0 + 1.0j], [3.0, -1.0]],
    ]
    mixed = [
        [[1e150, 1e-150j], [-1e-150j, -1e150]],
        [[1e-150, 1e150], [1e150, 1e-150]],
        [[1.0, 1e-300], [1e-300, 1.0]],
    ]
    return np.concatenate([H * scale, mixed])


class TestQubitEigenpair:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scale", [1e-150, 1e-75, 1.0, 1e75, 1e150])
    def test_closed_form_matches_eigh(self, seed, scale):
        H = qubit_stack(seed, scale)
        lam, v = _hermitian_top(H)
        Hs = (H + H.conj().transpose(0, 2, 1)) / 2
        ref = np.linalg.eigh(Hs)[0][:, -1]
        eps = np.finfo(float).eps
        # a few ulps of the largest entry: eigh alone is off by up to ~5
        assert np.all(np.abs(lam - ref) <= 8 * eps * np.abs(H).max(axis=(1, 2)))
        res = np.linalg.norm(np.einsum("rij,rj->ri", Hs, v) - lam[:, None] * v, axis=1)
        assert np.all(res <= 1e-14 * np.linalg.norm(Hs, axis=(1, 2)))
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 4 * eps)

    def test_edge_rows_take_the_exact_vectors(self):
        lam, v = _hermitian_top(qubit_stack(0)[:5])
        assert lam.tolist() == [2.0, 2.0, 0.5 + np.sqrt(5.0), 3.0, 0.0]
        # diagonal rows and scalar matrices give basis kets exactly
        assert v[[0, 3, 4]].tolist() == [[1, 0]] * 3
        assert v[1].tolist() == [0, 1]
        assert np.allclose(v[2], np.array([np.sqrt(5.0), 1.0 + 2.0j]) / np.sqrt(10.0), rtol=0, atol=4e-16)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matmul_conditioning_equals_einsum(self, dims):
        rng = np.random.default_rng(10 * dims[0] + dims[1])
        dA, dB = dims
        M4, N4 = (rand_herm(rng, dims).mat.reshape(dims + dims) for _ in range(2))
        XA, XB = _conditioning(M4, N4)
        a = np.array([_random_unit(rng, dA) for _ in range(20)])
        b = np.array([_random_unit(rng, dB) for _ in range(20)])
        on_a, on_b = _condition(a, XA, dB), _condition(b, XB, dA)
        assert on_a.shape == (20, 2, dB, dB) and on_b.shape == (20, 2, dA, dA)
        for k, T in enumerate((M4, N4)):
            tol = 1e-15 * np.linalg.norm(T)
            assert np.abs(on_a[:, k] - np.einsum("ri,ikjl,rj->rkl", a.conj(), T, a)).max() <= tol
            assert np.abs(on_b[:, k] - np.einsum("rk,ikjl,rl->rij", b.conj(), T, b)).max() <= tol

    def test_qubit_halves_call_no_eigensolver(self, monkeypatch):
        sizes = []
        real_eigh = np.linalg.eigh

        def counted(m, *args, **kwargs):
            sizes.append(np.shape(m)[-1])
            return real_eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        _unconstrained_solve.cache_clear()
        rng = np.random.default_rng(23)
        cfg = OptimizerConfig(seed=5, restarts=16)
        sup_product_unconstrained(rand_herm(rng, (2, 2)), cfg)
        assert sizes == []
        # a qubit and a qutrit: only the qutrit half steps solve a 3x3 stack
        sup_product_unconstrained(rand_herm(rng, (2, 3)), cfg)
        assert sizes and set(sizes) == {3}


def ket_seesaw_22(M4, A0):
    """The 2x2 see-saw on kets: each half step conditions M4 with one matmul
    (_condition) and takes the closed-form top eigenpair (_hermitian_top).
    Returns per-row (values, A, B, iterations, converged)."""
    XA, XB = _conditioning(M4)
    A = np.array(A0, dtype=complex)
    R = len(A)
    B = np.empty((R, 2), dtype=complex)
    vals = np.full(R, -np.inf)
    its = np.full(R, _SEESAW_MAX_ITER)
    conv = np.zeros(R, dtype=bool)
    live = np.arange(R)
    for it in range(1, _SEESAW_MAX_ITER + 1):
        _, b = _hermitian_top(_condition(A[live], XA, 2)[:, 0])
        new, a = _hermitian_top(_condition(b, XB, 2)[:, 0])
        done = new - vals[live] < SEESAW_TOL
        A[live], B[live], vals[live] = a, b, new
        its[live[done]] = it
        conv[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break
    return vals, A, B, its, conv


def v0_operator():
    """2|1><1| (x) Z: from party A at |0>, party B sees v = 0, and the next
    half step depends on the ket B takes there."""
    return HermitianOperator(np.kron(np.diag([0.0, 2.0]), np.diag([1.0, -1.0])), dims=(2, 2))


class TestBlochSeesaw:
    @staticmethod
    def assert_rows_match(op, got, ref, rows):
        vals, A, B, its, conv = got
        ref_vals, ref_A, ref_B, ref_its, ref_conv = ref
        assert np.all(np.abs(vals[rows] - ref_vals[rows]) <= 4 * np.finfo(float).eps * np.linalg.norm(op.mat))
        assert its[rows].tolist() == ref_its[rows].tolist() and conv[rows].tolist() == ref_conv[rows].tolist()
        for X, ref_X in ((A, ref_A), (B, ref_B)):
            assert np.all(np.abs(np.einsum("ri,ri->r", X[rows].conj(), ref_X[rows])) >= 1 - 1e-14)

    def assert_matches_kets(self, op, A0):
        M4 = op.mat.reshape(2, 2, 2, 2)
        self.assert_rows_match(op, _seesaw_batch(M4, A0), ket_seesaw_22(M4, A0), slice(None))

    def test_random_operators(self):
        # the solves of the default config: the winning restart, its value,
        # sweeps, flag and argmax. Rows are not compared one by one: where a
        # conditioned form is nearly scalar, a sweep amplifies the rounding
        # of its start, and a row whose last gain lies within rounding of
        # SEESAW_TOL may retire a sweep apart
        rng = np.random.default_rng(26)
        starts = _restart_starts(0, 64, 2)
        for _ in range(200):
            op = rand_herm_22(rng)
            M4 = op.mat.reshape(2, 2, 2, 2)
            got, ref = _seesaw_batch(M4, starts), ket_seesaw_22(M4, starts)
            best = _best_restart(*got[:3])
            assert best == _best_restart(*ref[:3])
            self.assert_rows_match(op, got, ref, [best])

    def test_degenerate_operators(self, swapped):
        ops = [
            HermitianOperator.identity((2, 2)),
            _zi(),
            HermitianOperator(np.diag([1.0, 1.0, 0.0, 0.0]), dims=(2, 2)),
            swapped["L"],
            v0_operator(),
        ]
        basis = np.eye(2, dtype=complex)
        for op in ops:
            for A0 in (basis, _restart_starts(0, 64, 2), _restart_starts(7, 64, 2)):
                self.assert_matches_kets(op, A0)

    @pytest.mark.parametrize("scale", [1e155, 1e-160])
    def test_extreme_scales(self, example, scale):
        # |v|^2 overflows near 1e155 and underflows near 1e-160. Values and
        # argmaxes are compared row by row, sweep counts are not: at 1e155
        # every gain dwarfs SEESAW_TOL and rows retire on rounding
        rng = np.random.default_rng(155)
        starts = _restart_starts(0, 64, 2)
        for op in (example["L"], rand_herm_22(rng), rand_herm_22(rng)):
            M = (scale * op).mat
            vals, A, B, _, _ = _seesaw_batch(M.reshape(2, 2, 2, 2), starts)
            tol = 4 * np.finfo(float).eps * scale * np.linalg.norm(op.mat)
            assert np.all(np.abs(vals - ket_seesaw_22(M.reshape(2, 2, 2, 2), starts)[0]) <= tol)
            kets = (A[:, :, None] * B[:, None, :]).reshape(-1, 4)
            assert np.all(np.abs(np.einsum("ri,ij,rj->r", kets.conj(), M, kets).real - vals) <= tol)
        res = sup_product_unconstrained(scale * example["L"], OptimizerConfig(seed=0))
        assert abs(res.value / scale - GS_EXACT) <= 1e-12

    def test_zero_v_takes_the_first_basis_ket(self):
        # the identity conditions to a scalar on both parties, |0><0| (x) I on party B
        starts = _restart_starts(3, 64, 2)
        _, A, B, _, _ = _seesaw_batch(HermitianOperator.identity((2, 2)).mat.reshape(2, 2, 2, 2), starts)
        assert A.tolist() == B.tolist() == [[1, 0]] * 64
        _, _, B, _, _ = _seesaw_batch(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex).reshape(2, 2, 2, 2), starts)
        assert B.tolist() == [[1, 0]] * 64
        # B at (1, 0) makes party A see 2|1><1|, which converges at once; with
        # a zero Bloch vector for B party A would see 0 and need a sweep more
        vals, A, B, its, _ = _seesaw_batch(v0_operator().mat.reshape(2, 2, 2, 2), np.array([[1.0, 0.0j]]))
        assert vals.tolist() == [2.0] and its.tolist() == [2]
        assert A.tolist() == [[0, 1]] and B.tolist() == [[1, 0]]


class TestGridStarts:
    @staticmethod
    def cases():
        rng = np.random.default_rng(45)
        ties = rng.normal(size=4050)
        ties[[5, 17]], ties[99], ties[[3, 50, 4000]] = 10.0, 9.0, 8.0  # three rows tie at the 4th value
        many = rng.integers(0, 5, size=4050).astype(float)  # hundreds tie at the top
        walls = rng.normal(size=4050)
        walls[rng.random(4050) < 0.5] = -np.inf
        few = np.full(4050, -np.inf)
        few[[7, 3000]] = (1.0, 2.0)  # fewer than 4 finite rows
        zeros = np.zeros(4050)
        zeros[::3] = -0.0
        nan = np.full(4050, np.nan)
        nan[[40, 41, 900]] = (-np.inf, 0.5, 0.5)
        yield from (ties, many, walls, few, np.full(4050, -np.inf), zeros, nan)
        for _ in range(200):
            x = np.round(rng.normal(size=4050), 1)
            x[rng.random(4050) < rng.random()] = -np.inf
            yield x

    def test_top4_equals_the_stable_argsort(self):
        for x in self.cases():
            assert _top4(x).tolist() == np.argsort(-x, kind="stable")[:4].tolist()

    @staticmethod
    def grid_caps(S, band):
        """The qubit-pair grid's cap values on one orientation: row for row the
        one-band formula, with _top4 the stable argsort's first four."""
        full = _inner_caps(S, _PAIR_BLOCH, band)
        ref = _one_band_cap_values(*_coeff_columns(_PAIR_BLOCH @ S), 0.0, 1, band)
        assert full.tobytes() == ref.tobytes()
        assert _top4(full).tolist() == np.argsort(-full, kind="stable")[:4].tolist()
        return full

    def test_grid_top4_on_random_cuts(self):
        # the top four hold free rows (w0 + |v|) and circle rows alike
        rng = np.random.default_rng(77)
        kinds = set()
        for k in range(60):
            L, C = rand_herm_22(rng), rand_herm_22(rng)
            d = np.diag(C.mat).real
            side = (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ)[k % 2]
            N = _cut_operator(ConstraintSpec(C=C, c=float(rng.uniform(d.min(), d.max()))), side)
            for S in _orientations(L, N):
                full = self.grid_caps(S, _cut_slack(N.mat))
                w0, v, _, _ = _coeff_columns(_PAIR_BLOCH @ S)
                top = _top4(full)
                kinds.update((full[top] == w0[top] + _norm3(v[top])).tolist())
        assert kinds == {False, True}

    @staticmethod
    def parallel_S(c):
        """S with w0 = n_y, v = u = (0, 0, 1) and g0 = c - n_x at outer Bloch
        vector n: a row is free where n_x >= 1 + c, empty where n_x < c - 1."""
        S = np.zeros((4, 8))
        S[2, 0] = S[0, 3] = S[0, 7] = 1.0
        S[0, 4], S[1, 4] = c, -1.0
        return S

    def test_grid_top4_with_few_or_no_free_rows(self):
        # thresholds midway between the largest distinct n_x leave 1, 2, ...
        # rows free; c = 0.5 leaves none, and c = 3 empties every cap
        levels = np.unique(_PAIR_BLOCH[:, 1])[::-1][:6]
        free_counts = []
        for thr in (levels[:-1] + levels[1:]) / 2:
            self.grid_caps(self.parallel_S(thr - 1.0), 0.0)
            free_counts.append(np.count_nonzero(_PAIR_BLOCH[:, 1] >= thr))
        assert min(free_counts) < 4 <= max(free_counts)
        assert np.isfinite(self.grid_caps(self.parallel_S(0.5), 0.0)).any()
        assert np.isneginf(self.grid_caps(self.parallel_S(3.0), 0.0)).all()

    def test_oracle_prune_is_the_full_kernel_max(self):
        # the oracle is the full kernel's max over both orientations, bit for
        # bit, also after it divides L and N by powers of two
        rng = np.random.default_rng(90)
        U = _qubit_bloch(*_qubit_angles(61, 121))
        for k in range(30):
            L, C = rand_herm_22(rng), rand_herm_22(rng)
            d = np.diag(C.mat).real
            side = (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ)[k % 2]
            N = _cut_operator(ConstraintSpec(C=C, c=float(rng.uniform(d.min(), d.max()))), side)
            full = max(float(_inner_caps(S, U, _cut_slack(N.mat)).max()) for S in _orientations(L, N))
            assert _oracle_22(L, N, 61).hex() == full.hex()

    def test_grid_top4_with_ties_at_the_fourth_value(self):
        # diagonal operators have Pauli coefficients in I and Z only, so every
        # grid row's value is exactly that of its polar angle: 90 rows tie
        rng = np.random.default_rng(8)
        ties = 0
        for _ in range(10):
            L, C = (HermitianOperator(np.diag(rng.normal(size=4)), dims=(2, 2)) for _ in range(2))
            d = np.diag(C.mat).real
            for side in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
                N = _cut_operator(ConstraintSpec(C=C, c=float(rng.uniform(d.min(), d.max()))), side)
                for S in _orientations(L, N):
                    full = self.grid_caps(S, _cut_slack(N.mat))
                    ties += np.count_nonzero(full == full[_top4(full)[3]]) > 1
        assert ties > 0

    def test_grid_top4_with_rows_free_and_empty_by_rounding(self):
        # v = -k u: u.v/|v| can round below -|u|, and a threshold t at that
        # quotient makes v/|v| free and the cap empty, with band 0; the polar
        # rows, n = (1, +-0, +-0, 1), all take S's first row
        rng = np.random.default_rng(3)
        while True:
            u = rng.normal(size=(1, 3))
            v = -rng.uniform(0.5, 2.0) * u
            t = float(np.einsum("ij,ij->i", u, v)[0] / _norm3(v)[0])
            if t < -_norm3(u)[0]:
                break
        for _ in range(10):
            S = np.zeros((4, 8))
            S[0], S[1:3] = np.concatenate([[10.0], v[0], [-t], u[0]]), rng.normal(size=(2, 8))
            assert np.isneginf(self.grid_caps(S, 0.0)[:90]).all()


START_SEEDS = [*range(200), 2**32 - 1, 2**32 + 1, 2**64 + 1, 2**128 + 5, 2**200 + 7]


class TestRestartStarts:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_equal_to_spawn_loop(self, dims):
        # seeds of one to seven uint32 words: past four, the seed's later
        # words move where the spawn key's hash constants start
        for seed in START_SEEDS:
            for restarts in (1, 24, 64):
                ref_a, _ = stack_starts(spawn_loop_starts(seed, restarts, dims))
                assert _restart_starts(seed, restarts, dims[0]).tobytes() == ref_a.tobytes(), (seed, restarts)

    def test_read_only_and_unchanged_by_a_solve(self, example):
        A = _restart_starts(4, 8, 2)
        before = A.tobytes()
        assert not A.flags.writeable
        sup_product_unconstrained(example["L"], OptimizerConfig(seed=4, restarts=8))
        assert _restart_starts(4, 8, 2) is A
        assert A.tobytes() == before

    def test_alpha0_draws_once(self, swapped, cfg_small):
        _restart_starts.cache_clear()
        _unconstrained_solve.cache_clear()
        assert compute_alpha0(swapped["L"], swapped["spec"], cfg_small) is not None
        assert _restart_starts.cache_info().misses == 1


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


def _one_band_cap_values(w0, v, g0, u, c, sense, band):
    """The value formula of the value-and-maximiser kernel, on the side
    sense * (g0 + u.n - c) <= 0, with the one band of the cut."""
    nv = np.linalg.norm(v, axis=1)
    us = sense * u
    t = sense * (c - g0)
    nu = np.linalg.norm(us, axis=1)
    uv = np.einsum("ij,ij->i", us, v)
    free = uv / np.maximum(nv, 1e-300) <= t + band
    empty = t < -nu - band
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nu2 = np.maximum(nu, 1e-300)
        ratio = np.clip(t / nu2, -1.0, 1.0)
        rise = np.sqrt(np.maximum(1.0 - ratio**2, 0.0))
        along = uv / nu2**2
        vperp = np.linalg.norm(v - along[:, None] * us, axis=1)
        val = np.where(free, w0 + nv, w0 + along * np.maximum(t, -nu2) + vperp * rise)
    return np.where(empty, -np.inf, val)


def _one_band_inner_caps(L, N, n, flip, band):
    """_one_band_cap_values on the inner party's cap at outer Bloch 4-vectors
    n, from separate products with the Pauli coefficients of L and N (or
    their transposes where flip, party B outer)."""
    TL, TN = _pauli_tensor_coeffs(L), _pauli_tensor_coeffs(N)
    w = np.where(flip[:, None], n @ TL.T, n @ TL)
    g = np.where(flip[:, None], n @ TN.T, n @ TN)
    return _one_band_cap_values(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], 0.0, 1, band)


def one_stencil_qubit_pair(L, N, path=None):
    """The qubit-pair solve with one 3x3 stencil per compass round.

    Every round evaluates all 8 rows at their current step; a live row moves
    to its stencil's first maximum when that improves on it and otherwise
    halves its step. The cap values come from _one_band_inner_caps. Returns
    (value, argmax, rounds). A list path gets one (live, x, h, up) per
    round, copied before the round's moves.
    """
    tn, pn = _PAIR_GRID
    band = _cut_slack(N.mat)
    grid = _qubit_bloch(*_qubit_angles(tn, pn, phi_endpoint=False))
    vals = _one_band_inner_caps(L, N, np.vstack([grid, grid]), np.repeat([False, True], len(grid)), band)
    ks = np.concatenate([np.argsort(-half, kind="stable")[:4] for half in np.split(vals, 2)])
    flip = np.repeat([False, True], 4)
    fx = vals[ks + len(grid) * flip]
    step = np.array([np.pi / (tn - 1), 2 * np.pi / pn])
    stencil = step * np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    x = step * np.stack(divmod(ks, pn), axis=1)
    h = np.ones(len(ks))
    rows = np.arange(len(ks))
    rounds = 0
    for _ in range(_COMPASS_MAX_STEPS):
        live = h * step.max() >= COMPASS_STOP
        if not live.any():
            break
        rounds += 1
        cand = x[:, None] + h[:, None, None] * stencil
        nc = _qubit_bloch(cand[..., 0].ravel(), cand[..., 1].ravel())
        fv = _one_band_inner_caps(L, N, nc, np.repeat(flip, len(stencil)), band).reshape(len(ks), -1)
        j = fv.argmax(axis=1)
        up = live & (fv[rows, j] > fx)
        if path is not None:
            path.append((live, x.copy(), h.copy(), up))
        x[up], fx[up] = cand[rows, j][up], fv[rows, j][up]
        h[live & ~up] *= 0.5
    s = int(np.argmax(fx))
    kets, n = _qubit_kets(x[s, :1], x[s, 1:]), _qubit_bloch(x[s, :1], x[s, 1:])
    TL, TN = _pauli_tensor_coeffs(L), _pauli_tensor_coeffs(N)
    w, g = (n @ T.T if flip[s] else n @ T for T in (TL, TN))
    outer = Ket.unit(kets[0])
    inner = Ket.unit(_cap_argmax(w[:, 0], w[:, 1:], g[:, 0], g[:, 1:], band)[0])
    pk = ProductKet(a=inner, b=outer) if flip[s] else ProductKet(a=outer, b=inner)
    return expectation(L, pk), pk, rounds


def compass_states(path, levels):
    """The distinct (orientation, theta, phi, h) at which a compass evaluating
    `levels` step halvings per round starts a round, from a one_stencil_qubit_pair path.

    A row starts a round at its first step, after a move, and after `levels`
    halvings since its last start; rows 0-3 have party A outer.
    """
    states = set()
    for r in range(8):
        since = None
        for live, x, h, up in path:
            if not live[r]:
                break
            if since is None or since == levels:
                states.add((r >= 4, *x[r].tolist(), float(h[r])))
                since = 0
            since = None if up[r] else since + 1
    return states


def _assert_same_solve(got, ref):
    """A (value, argmax, ..., iterations) solve equals a one_stencil_qubit_pair one bit for bit."""
    assert got[0] == ref[0]
    assert got[1].a.amplitudes.tobytes() == ref[1].a.amplitudes.tobytes()
    assert got[1].b.amplitudes.tobytes() == ref[1].b.amplitudes.tobytes()
    assert got[-1] == ref[-1]


class TestCapValues:
    @pytest.mark.parametrize("grid", ["pair", "oracle-181"])
    def test_blocked_kernel_matches_row_for_row(self, grid):
        # the blocked kernel on one orientation's stacked coefficients gives
        # the one-band values of separate products row for row, also for a
        # few rows alone and for rows on both sides of block boundaries
        rng = np.random.default_rng(31)
        n = _PAIR_BLOCH if grid == "pair" else _qubit_bloch(*_qubit_angles(181, 361))
        for side, q in ((HalfSpaceSide.LEQ, 0.1), (HalfSpaceSide.GEQ, 0.9)):
            # c near the end of C's diagonal that the side keeps: empty, free and cut caps
            L, C = rand_herm_22(rng), rand_herm_22(rng)
            d = np.diag(C.mat).real
            N = _cut_operator(ConstraintSpec(C=C, c=float(d.min() + q * (d.max() - d.min()))), side)
            TL = _pauli_tensor_coeffs(L)
            band = _cut_slack(N.mat)
            refs = []
            for S, flip in zip(_orientations(L, N), (False, True)):
                ref = _one_band_inner_caps(L, N, n, np.full(len(n), flip), band)
                assert _inner_caps(S, n, band).tobytes() == ref.tobytes()
                for lo in (0, 1020, 2044, len(n) - 3):
                    assert _inner_caps(S, n[lo : lo + 7], band).tobytes() == ref[lo : lo + 7].tobytes()
                w = n @ (TL.T if flip else TL)
                free = ref == w[:, 0] + np.linalg.norm(w[:, 1:], axis=1)
                assert np.isneginf(ref).any() and free.any() and np.isfinite(ref[~free]).any()
                refs.append(ref)
            if grid != "pair":
                assert _oracle_22(L, N, 181) == max(ref.max() for ref in refs)

    @pytest.mark.parametrize("sense", [1, -1])
    def test_value_kernel_matches_on_edge_rows(self, sense):
        rng = np.random.default_rng(12)
        c = 0.25
        u_unit = np.array([0.6, 0.0, 0.8])
        rows = [
            # (v, g0, u): |u| = 1e-15 with the threshold 5e-13 past the cut, a
            # cap that misses the sphere by more than 1e-15 and so is empty;
            # then u = 0 on the cut (free), and |u| = 1e-15, 2e-12 past (empty)
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
        # the kernels take the cut at 0: g0 + u.n <= 0
        got = _cap_max_values(w0, v, sense * (g0 - c), sense * u, 1e-15)
        assert got.tobytes() == _one_band_cap_values(w0, v, g0, u, c, sense, 1e-15).tobytes()
        assert np.isneginf(got[[0, 2]]).all() and np.isfinite(got[1])
        # the argmax kernel's kets lie in the cap and attain its value; empty caps are nan
        kets = _cap_argmax(w0, v, sense * (g0 - c), sense * u, 1e-15)
        empty = np.isneginf(got)
        assert np.array_equal(np.isnan(kets).all(axis=1), empty) and not np.isnan(kets[~empty]).any()
        n = np.einsum("ri,kij,rj->rk", kets.conj(), np.array(_PAULI[1:]), kets).real
        attained = w0 + np.einsum("ij,ij->i", v, n)
        assert np.max(np.abs(attained - got)[~empty]) <= 1e-12
        assert np.all(sense * (g0 + np.einsum("ij,ij->i", u, n) - c)[~empty] <= 1e-12)

    def test_cut_past_the_tangent_plane_of_a_short_normal(self):
        # |u| = 1e-20 against a band of 1e-16, the threshold 0.7e-20 past the
        # sphere: the cap is the one point -u/|u|, worth 0.4, where the
        # unclipped threshold once gave 4000.28
        args = (np.zeros(1), np.array([[-0.4, 0.9, 0.0]]), np.array([1e-16 + 0.7e-20]),
                np.array([[1e-20, 0.0, 0.0]]), 1e-16)
        assert abs(_cap_max_values(*args)[0] - 0.4) <= 1e-15
        kets = _cap_argmax(*args)
        n = np.einsum("ri,kij,rj->rk", kets.conj(), np.array(_PAULI[1:]), kets).real
        assert np.abs(n - [[-1.0, 0.0, 0.0]]).max() <= 1e-15

    def test_short_normals_attain_their_value(self):
        # cut normals |u| from 1e-4 to 1e2 bands, thresholds within |u| + band
        # of the centre: every value is at most the free w0 + |v|, and it is
        # what _cap_argmax's point attains
        eps = np.finfo(float).eps
        rng = np.random.default_rng(57)
        past = 0
        for _ in range(20):
            rows, band = 500, 10.0 ** rng.uniform(-17.0, -9.0)
            w0 = rng.normal(size=rows)
            v = rng.normal(size=(rows, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
            nu = band * 10.0 ** rng.uniform(-4.0, 2.0, size=rows)
            u = rng.normal(size=(rows, 3))
            u *= (nu / np.linalg.norm(u, axis=1))[:, None]
            t = (nu + band) * rng.uniform(-1.0, 1.0, size=rows)
            got = _cap_max_values(w0, v, -t, u, band)
            kets = _cap_argmax(w0, v, -t, u, band)
            n = np.einsum("ri,kij,rj->rk", kets.conj(), np.array(_PAULI[1:]), kets).real
            nv = np.linalg.norm(v, axis=1)
            scale = np.abs(w0) + nv
            assert np.all(got <= w0 + nv + 4 * eps * scale)
            assert np.all(np.abs(got - (w0 + np.einsum("ij,ij->i", v, n))) <= 16 * eps * scale)
            past += np.count_nonzero((t < -nu) & (got < w0 + nv))
        assert past >= 100


def _parent_pauli_coeffs(M):
    """Pauli coefficients entry by entry, each kron rebuilt on the spot."""
    T = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            T[i, j] = float(np.trace(M.mat @ np.kron(_PAULI[i], _PAULI[j])).real) / 4.0
    return T


def signed_zero_herm_22(rng):
    """A Hermitian 4x4 matrix of parts drawn from +-0, +-1, 0.5 and -2, each
    zero part on and below the diagonal signed at random."""
    parts = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
    x, y = rng.choice(parts, (2, 4, 4))
    lower_x, lower_y = x.T.copy(), -y.T
    for part in (lower_x, lower_y):
        zero = part == 0
        part[zero] = rng.choice([0.0, -0.0], zero.sum())
    upper = np.triu(np.ones((4, 4), dtype=bool), 1)
    m = np.empty((4, 4), dtype=complex)
    m.real, m.imag = np.where(upper, x, lower_x), np.where(upper, y, lower_y)
    m.imag[np.diag_indices(4)] = rng.choice([0.0, -0.0], 4)
    return m


def test_pauli_coeffs_match_per_entry_kron():
    # random, signed-zero, diagonal, +-Pauli-pair and scaled operators, as
    # HermitianOperator and as the (2, 2, 2, 2) matrix the see-saw passes
    rng = np.random.default_rng(5)
    ops = [rand_herm_22(rng) for _ in range(500)]
    for _ in range(500):
        m = signed_zero_herm_22(rng)
        ops += [SimpleNamespace(mat=m), HermitianOperator(m, dims=(2, 2))]
        diag = np.diag(rng.choice([0.0, -0.0, 1.0, -1.0, 3.0], 4)) * 10.0 ** rng.uniform(-6.0, 6.0)
        ops.append(HermitianOperator(diag, dims=(2, 2)))
        ops.append(10.0 ** rng.uniform(-6.0, 6.0) * rand_herm_22(rng))
    for sign in (1.0, -1.0, -3.5):
        ops += [HermitianOperator(sign * np.kron(p, q), dims=(2, 2)) for p in _PAULI for q in _PAULI]
    for M in ops:
        want = _parent_pauli_coeffs(M).tobytes()
        assert _pauli_tensor_coeffs(M).tobytes() == want
        assert _pauli_tensor_coeffs(M.mat.reshape(2, 2, 2, 2)).tobytes() == want


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
    side = HalfSpaceSide.LEQ if sense == 1 else HalfSpaceSide.GEQ
    grid_val = _pair_grid_max(L, _cut_operator(spec, side), kets, kets)
    assert grid_val > -np.inf
    res = sup_product_constrained(L, spec, side, cfg)
    if res.method == "hybrid":
        v_tol, c_tol = 1e-12, 1e-12
    else:
        # the short-circuit returns the unconstrained see-saw, which stops once
        # a sweep gains less than SEESAW_TOL, and accepts it within the cut's
        # slack, far inside the boundary band
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


def _scaled_worked(example, s):
    """The worked instance with L, C and c all scaled by s."""
    return s * example["L"], ConstraintSpec(C=s * example["C"], c=s * example["spec"].c)


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

    @pytest.mark.parametrize("dims, resolution", [((2, 2), 181), ((2, 3), 7)])
    def test_unconstrained_is_the_zero_cut(self, dims, resolution):
        # C = I, c = 1 makes N = s(I - I) = 0 exactly on either side, and the
        # unconstrained scan is that zero cut, bit for bit
        L = rand_herm(np.random.default_rng(23), dims)
        free = grid_oracle_sup(L, resolution=resolution)
        spec = ConstraintSpec(C=HermitianOperator.identity(dims), c=1.0)
        for side in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
            assert grid_oracle_sup(L, spec, side, resolution=resolution) == free

    def test_constrained_value_scales_with_the_operators(self, example):
        # L, C and c scaled by s scale the value by s: no cap of the scaled
        # instance is read as uncut (an absolute 1e-15 cap band gave 0.2145 s
        # against 0.1878 s at s = 1e-13)
        plain = grid_oracle_sup(example["L"], example["spec"], HalfSpaceSide.LEQ, resolution=181)
        for s in (1e-13, 1e-12, 1e-10, 1e6):
            L, spec = _scaled_worked(example, s)
            scaled = grid_oracle_sup(L, spec, HalfSpaceSide.LEQ, resolution=181)
            assert abs(scaled / s - plain) <= 1e-9

    def test_rejects_bad_arguments(self, example):
        L, spec = example["L"], example["spec"]
        with pytest.raises(DimensionMismatch, match="bipartite"):
            grid_oracle_sup(HermitianOperator.identity(4))
        other = ConstraintSpec(C=HermitianOperator.identity((2, 3)), c=0.5)
        with pytest.raises(DimensionMismatch, match="different space"):
            grid_oracle_sup(L, other, HalfSpaceSide.LEQ)
        for side in (None, HalfSpaceSide.BOUNDARY):
            with pytest.raises(ValueError, match="leq or geq"):
                grid_oracle_sup(L, spec, side)
        with pytest.raises(ValueError, match="at least 2"):
            grid_oracle_sup(L, resolution=1)

    @pytest.mark.parametrize("resolution", [10.0, True])
    def test_rejects_non_integer_resolution(self, example, resolution):
        # numpy's linspace would raise TypeError on 10.0
        with pytest.raises(ValueError, match="an integer"):
            grid_oracle_sup(example["L"], resolution=resolution)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_qubit_pair_resolution_cap(self, example, monkeypatch, constrained):
        # 2896 * 5791 grid rows fit under the cap, 2897 * 5793 do not; the
        # refusal comes before any grid is built
        monkeypatch.setattr(uew.optimize, "_qubit_angles", lambda *a: pytest.fail("grid built"))
        args = (example["spec"], HalfSpaceSide.LEQ) if constrained else ()
        with pytest.raises(ValueError, match="too fine"):
            grid_oracle_sup(example["L"], *args, resolution=2897)


def _mirrored(spec):
    """The same cut with the sides exchanged: GEQ of the mirror is LEQ of spec."""
    return ConstraintSpec(C=-1.0 * spec.C, c=-spec.c)


class TestSideSymmetry:
    """LEQ on (C, c) and GEQ on (-C, -c) are one side with one cut operator
    N = s(C - cI), bit for bit, so they give the same bytes."""

    @staticmethod
    def _assert_same(L, spec, cfg, method):
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
        mir = sup_product_constrained(L, _mirrored(spec), HalfSpaceSide.GEQ, cfg)
        assert res.method == mir.method == method
        assert res.value == mir.value
        assert res.argmax.a.amplitudes.tobytes() == mir.argmax.a.amplitudes.tobytes()
        assert res.argmax.b.amplitudes.tobytes() == mir.argmax.b.amplitudes.tobytes()

    def test_qubit_pair_hybrid(self, example, cfg):
        self._assert_same(example["L"], example["spec"], cfg, "hybrid")

    def test_generic_hybrid(self):
        L, spec, cfg = recipe_instance(55, 1, 0.5, 0, HalfSpaceSide.LEQ)
        assert L.dims == (2, 3)
        self._assert_same(L, spec, cfg, "hybrid")

    def test_short_circuit(self, example, cfg):
        # LEQ of the mirror is GEQ of the worked cut, where the optimum lies
        self._assert_same(example["L"], _mirrored(example["spec"]), cfg, "seesaw")

    @pytest.mark.parametrize("dims, resolution", [((2, 2), 181), ((2, 3), 9)])
    def test_grid_oracle(self, dims, resolution):
        rng = np.random.default_rng(17)
        L, C = rand_herm(rng, dims), rand_herm(rng, dims)
        spec = ConstraintSpec(C=C, c=float(np.diag(C.mat).real.mean()))
        for side in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
            other = HalfSpaceSide.GEQ if side is HalfSpaceSide.LEQ else HalfSpaceSide.LEQ
            val = grid_oracle_sup(L, spec, side, resolution=resolution)
            assert val == grid_oracle_sup(L, _mirrored(spec), other, resolution=resolution)


class TestCutSlack:
    # every optimizer test of a product point against the cut N reads
    # _cut_slack(N), which scales with N; an absolute band does not

    def test_constrained_value_scales_with_the_operators(self, example, cfg):
        # an absolute 1e-9 short-circuit band returned g_s at s = 1e-10 and
        # 1e-13, from an argmax 0.24 s past the cut
        for s in (1e-13, 1e-10, 1e6):
            L, spec = _scaled_worked(example, s)
            res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
            assert res.method == "hybrid"
            assert abs(res.value / s - PC_EXACT) <= 1e-9
            N = _cut_operator(spec, HalfSpaceSide.LEQ)
            assert expectation(spec.C, res.argmax) - spec.c <= _cut_slack(N.mat)

    def test_qubit_pair_solve_and_oracle_at_powers_of_two(self):
        # L times 2^a and the cut times 2^b keep the solve's argmax bytes and
        # steps and scale its value and the oracle's by 2^a exactly; the
        # band's and the cap kernel's squares overflowed at 2^600 and
        # underflowed at 2^-600
        rng = np.random.default_rng(600)
        for k in range(6):
            L, C = rand_herm_22(rng), rand_herm_22(rng)
            d = np.diag(C.mat).real
            spec = ConstraintSpec(C=C, c=float(rng.uniform(d.min(), d.max())))
            side = (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ)[k % 2]
            N = _cut_operator(spec, side)
            ref = _qubit_pair_constrained(L, N)
            oracle = grid_oracle_sup(L, spec, side, resolution=61)
            for a, b in ((600, -600), (-600, 600), (600, 600), (-600, -600)):
                La, spec_b = 2.0**a * L, ConstraintSpec(C=2.0**b * C, c=2.0**b * spec.c)
                N_b = _cut_operator(spec_b, side)
                assert _cut_slack(N_b.mat) == 2.0**b * _cut_slack(N.mat)
                got = _qubit_pair_constrained(La, N_b)
                assert got[0] == 2.0**a * ref[0]
                assert got[1].a.amplitudes.tobytes() == ref[1].a.amplitudes.tobytes()
                assert got[1].b.amplitudes.tobytes() == ref[1].b.amplitudes.tobytes()
                assert got[2:] == ref[2:]
                assert grid_oracle_sup(La, spec_b, side, resolution=61) == 2.0**a * oracle

    @pytest.mark.parametrize("s", [1e155, 1e-160, 1e-200])
    def test_worked_instance_at_extreme_scales(self, example, cfg, s):
        # at 1e155 the band was inf and the short-circuit returned g_s; at
        # 1e-160 and 1e-200 the cap kernel's squares underflowed, giving p_c
        # values of 0.1971 and 0.0502 and oracle values of 0.1900 and 0.0995
        L, spec = _scaled_worked(example, s)
        for side, exact in ((HalfSpaceSide.LEQ, PC_EXACT), (HalfSpaceSide.GEQ, GS_EXACT)):
            res = sup_product_constrained(L, spec, side, cfg)
            assert res.method == ("hybrid" if side is HalfSpaceSide.LEQ else "seesaw")
            assert abs(res.value / s - exact) <= 1e-12
            plain = grid_oracle_sup(example["L"], example["spec"], side, resolution=61)
            assert abs(grid_oracle_sup(L, spec, side, resolution=61) / s - plain) <= 1e-12

    def test_an_argmax_inside_the_state_band_is_past_the_cut(self, example, cfg):
        # c 5e-10 inside the side that excludes the g_s argmax: within the
        # BOUNDARY_TOL band of halfspace_membership, but past the cut
        for L, C in ((example["L"], example["C"]), (example["C"], example["L"])):
            gs = sup_product_unconstrained(L, cfg)
            at_gs = expectation(C, gs.argmax)
            for side, c in ((HalfSpaceSide.LEQ, at_gs - 5e-10), (HalfSpaceSide.GEQ, at_gs + 5e-10)):
                spec = ConstraintSpec(C=C, c=c)
                res = sup_product_constrained(L, spec, side, cfg)
                N = _cut_operator(spec, side)
                assert res.method == "hybrid"
                assert expectation(N, res.argmax) <= _cut_slack(N.mat)
                assert res.value <= gs.value


def _stepwise_cut(spec, side):
    """The cut N = s(C - cI) built one validated operator at a time."""
    sense = 1.0 if side is HalfSpaceSide.LEQ else -1.0
    return sense * (spec.C - spec.c * HermitianOperator.identity(spec.C.dims))


def test_cut_operator_is_the_stepwise_build(example, swapped):
    # one validation of s(C - cI) gives the bytes of the four-step build,
    # signs of zero included, at any scale and either sign of c
    rng = np.random.default_rng(59)
    specs = [example["spec"], swapped["spec"]]
    for i in range(300):
        s = 10.0 ** rng.uniform(-6.0, 6.0)
        specs.append(ConstraintSpec(C=s * rand_herm(rng, [(2, 2), (2, 3), (3, 3)][i % 3]), c=s * float(rng.normal())))
    for c in (0.0, -0.0, -1.5):
        specs += [ConstraintSpec(C=HermitianOperator.identity((2, 3)), c=c),
                  ConstraintSpec(C=HermitianOperator(np.diag([1.0, -2.0, 0.0, 3.0]), dims=(2, 2)), c=c)]
    for spec in specs:
        for side in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
            got, want = _cut_operator(spec, side), _stepwise_cut(spec, side)
            assert got.dims == want.dims and got.mat.tobytes() == want.mat.tobytes()
            assert got.trace().hex() == want.trace().hex()


def test_rotated_test_is_the_stepwise_build(example, swapped):
    # one validation of lam*C + L gives the bytes and trace of the two-step
    # build, signs of zero included, at any scale and lam
    rng = np.random.default_rng(61)
    pairs = [(example["spec"], example["L"]), (swapped["spec"], swapped["L"])]
    for i in range(300):
        dims = [(2, 2), (2, 3), (3, 3)][i % 3]
        C, L = (10.0 ** rng.uniform(-6.0, 6.0) * rand_herm(rng, dims) for _ in range(2))
        pairs.append((ConstraintSpec(C=C, c=0.0), L))
    diag = HermitianOperator(np.diag([1.0, -2.0, 0.0, 3.0]), dims=(2, 2))
    pairs += [(ConstraintSpec(C=diag, c=0.0), HermitianOperator.identity((2, 2))),
              (ConstraintSpec(C=HermitianOperator.identity((2, 2)), c=0.0), diag)]
    for spec, L in pairs:
        for lam in (0.0, -0.0, -1.0, float(rng.uniform(-1.0, 0.0)), -1e-300, -1e290):
            got, want = rotated_test(spec, L, lam), lam * spec.C + L
            assert got.dims == want.dims and got.mat.tobytes() == want.mat.tobytes()
            assert got.trace().hex() == want.trace().hex()
    # where lam*C overflows its stored part, both builds refuse it
    huge = ConstraintSpec(C=HermitianOperator(np.diag([1e300, 1.0, 0.0, 0.0]), dims=(2, 2)), c=0.0)
    for build in (lambda: 1e8 * huge.C + example["L"], lambda: rotated_test(huge, example["L"], 1e8)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and Hermitian"):
                build()
    foreign = ConstraintSpec(C=HermitianOperator.identity((2, 3)), c=0.0)
    with pytest.raises(DimensionMismatch) as want:
        -1.0 * foreign.C + example["L"]
    with pytest.raises(DimensionMismatch, match=str(want.value).replace("(", r"\(").replace(")", r"\)")):
        rotated_test(foreign, example["L"], -1.0)


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

    def test_qubit_pair_matches_the_one_stencil_compass(self, example, cfg):
        # a round evaluates several halvings at once and replays them row by
        # row, so value, argmax and stencil steps are those of one stencil per round
        ref = one_stencil_qubit_pair(example["L"], _cut_operator(example["spec"], HalfSpaceSide.LEQ))
        res = sup_product_constrained(example["L"], example["spec"], HalfSpaceSide.LEQ, cfg)
        assert res.method == "hybrid"
        _assert_same_solve((res.value, res.argmax, res.iterations), ref)
        assert res.iterations == 53

    def test_qubit_pair_matches_the_one_stencil_compass_on_random_solves(self):
        rng = np.random.default_rng(2026)
        rounds = []
        for _ in range(100):
            L, C = rand_herm_22(rng), rand_herm_22(rng)
            d = np.diag(C.mat).real
            spec = ConstraintSpec(C=C, c=float(rng.uniform(d.min(), d.max())))
            for side in (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ):
                N = _cut_operator(spec, side)
                ref = one_stencil_qubit_pair(L, N)
                _assert_same_solve(_qubit_pair_constrained(L, N), ref)
                rounds.append(ref[-1])
        # k = 38, LEQ, runs into the step cap
        assert rounds[76] == max(rounds) == _COMPASS_MAX_STEPS

    def test_qubit_pair_evaluates_each_compass_state_once(self, example, monkeypatch):
        # a state's candidates are a function of (orientation, theta, phi, h),
        # so each state visited reaches the kernel once per solve, and replaying
        # its levels keeps value, argmax and steps at any level count
        rng = np.random.default_rng(83)
        cuts = [(example["L"], _cut_operator(example["spec"], HalfSpaceSide.LEQ))]
        for k in range(20):
            L, C = rand_herm_22(rng), rand_herm_22(rng)
            d = np.diag(C.mat).real
            spec = ConstraintSpec(C=C, c=float(rng.uniform(d.min(), d.max())))
            cuts.append((L, _cut_operator(spec, (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ)[k % 2])))
        calls = []
        kernel = uew.optimize._cap_max_values

        def spy(*args):
            calls.append(args[0])
            return kernel(*args)

        # _inner_caps binds the kernel as its default argument
        monkeypatch.setattr(uew.optimize._inner_caps, "__defaults__", (spy,))
        monkeypatch.setattr(uew.optimize, "_cap_max_values", spy)
        for L, N in cuts:
            path = []
            ref = one_stencil_qubit_pair(L, N, path)
            for levels in (1, 2, 5, 8):
                monkeypatch.setattr(uew.optimize, "_COMPASS_LEVELS", levels)
                calls.clear()
                _assert_same_solve(_qubit_pair_constrained(L, N), ref)
                # the grid is one kernel call per orientation, on every grid row
                assert [len(P) for P in calls[:2]] == [len(_PAIR_BLOCH)] * 2
                # every state a row visits needs its kernel rows at least once
                rows = sum(len(P) for P in calls[2:])
                assert rows == 8 * levels * len(compass_states(path, levels))

    def test_generic_iterations_count_the_winning_rows_sweeps(self, monkeypatch):
        # every sweep calls _cut_top twice on the rows still live, so the
        # per-row sweep counts reproduce the size of every call; the result
        # reports the winning row's count
        L, spec, cfg = recipe_instance(55, 1, 0.5, 4, HalfSpaceSide.LEQ)
        sizes, runs = [], []
        real_top, real_seesaw = uew.optimize._cut_top, uew.optimize._constrained_seesaw
        monkeypatch.setattr(
            uew.optimize, "_cut_top", lambda M, N, band: sizes.append(len(M)) or real_top(M, N, band)
        )
        monkeypatch.setattr(
            uew.optimize, "_constrained_seesaw", lambda *a: runs.append(real_seesaw(*a)) or runs[-1]
        )
        res = sup_product_constrained(L, spec, HalfSpaceSide.LEQ, cfg)
        (vals, _, _, its), = runs
        assert res.method == "hybrid"
        assert sizes == [int((its >= j).sum()) for j in range(1, its.max() + 1) for _ in range(2)]
        assert res.iterations == its[np.argmax(vals)]
        # the winning row retires before the last one does
        assert res.iterations < its.max()

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

    def test_dual_refine_bridges_onto_the_cut(self, cfg_small, monkeypatch):
        # the root-find alone on the diagonal instance: its bridge lands on
        # the cut at the optimum 0.3, and the bridge's bisection stops where
        # the doubles do, within 54 halvings of two _slerp calls each
        L = HermitianOperator(np.diag([0.2, 0, 0, 0, 0, 1.0]), dims=(2, 3))
        C = HermitianOperator(np.diag([0, 0, 0, 0, 0, 1.0]), dims=(2, 3))
        N = _cut_operator(ConstraintSpec(C=C, c=0.25), HalfSpaceSide.LEQ)
        base = sup_product_unconstrained(L, cfg_small)
        calls = []
        real = uew.optimize._slerp

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(uew.optimize, "_slerp", counting)
        a, b = _dual_refine(L, N, base)
        prod = np.kron(a, b)
        assert abs(np.vdot(prod, L.mat @ prod).real - 0.3) <= 1e-12
        assert -1e-12 <= np.vdot(prod, N.mat @ prod).real <= 0
        assert len(calls) <= 2 * 54

    def test_rejects_single_party_and_foreign_constraint(self, example, cfg_small):
        with pytest.raises(DimensionMismatch, match="bipartite"):
            sup_product_unconstrained(HermitianOperator.identity(4), cfg_small)
        other = ConstraintSpec(C=HermitianOperator.identity((2, 3)), c=0.5)
        with pytest.raises(DimensionMismatch, match="different space"):
            sup_product_constrained(example["L"], other, HalfSpaceSide.LEQ, cfg_small)

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
        grid_val = _pair_grid_max(L, _cut_operator(spec, side), _party_ket_grid(2, 5), _party_ket_grid(3, 5))
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

    def test_constraint_on_another_space_is_refused_before_any_solve(self, example, cfg_small, monkeypatch):
        calls = []
        real = uew.optimize._seesaw_batch
        monkeypatch.setattr(uew.optimize, "_seesaw_batch", lambda *a: calls.append(1) or real(*a))
        _unconstrained_solve.cache_clear()  # a memoised g_s(L) would hide the solve
        spec = ConstraintSpec(C=HermitianOperator.identity((2, 3)), c=0.5)
        with pytest.raises(DimensionMismatch, match="different space"):
            classify_case(example["L"], spec, cfg_small)
        assert calls == []

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
