"""The benchmark workloads: inputs from a seed, ops, and per-op checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns. Ops call the package through its module
attributes (``cli.main``, ``analysis.threshold_scan``) so that the
tracer's wrappers see them. Checks run after the timed region and use the
references in ``reference.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from uew import analysis, cli, fileio, states, witness
from uew.linalg import HermitianOperator, Ket

import reference as ref

LEQ = witness.HalfSpaceSide.LEQ
ALPHA0_TOL = 1e-6
SCAN_RESOLUTION = 1e-3
WORKED_P_C = 169.0 / 900.0  # exact p_c (LEQ) of the worked instance, x=2/3, c=1/100
SWAPPED_CVALUE = 0.2
# Phase draws per seed. The work of an op moves with the draw (one 2x2 scan
# took 0.31 s under one draw and 0.46 s under another), so every pass runs
# each draw once and a run's figures average over them.
ALPHA0_DRAWS = 2
SCAN_DRAWS = 8
ALPHAS = (0.0, -1.0, -10.0, -100.0, float("-inf"))


@dataclass
class Check:
    ok: bool
    note: str = ""


@dataclass
class Workload:
    name: str
    pool: list
    run_item: object            # callable(item, op_index) -> output
    check_item: object          # callable(item, output) -> Check

    def run(self, i: int):
        return self.run_item(self.pool[i % len(self.pool)], i)

    def check(self, i: int, output) -> Check:
        return self.check_item(self.pool[i % len(self.pool)], output)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def local_phases(rng: np.random.Generator, dims) -> np.ndarray:
    """Diagonal U_A (x) U_B with seeded phases.

    A local unitary maps product states to product states, so every
    supremum and threshold of an instance is unchanged while its bytes, and
    the optimizer's path, are not. Phases keep every entry's modulus, so
    the Jacobi eigensolver does the same rotations: a general local unitary
    changes its cost, and with it the work per op, by 2-3x between seeds.
    """
    phases = [np.exp(2j * np.pi * rng.random(d)) for d in dims]
    return np.diag(np.kron(phases[0], phases[1]))


def dress(U: np.ndarray, op: HermitianOperator) -> HermitianOperator:
    return HermitianOperator(U @ op.mat @ U.conj().T, dims=op.dims)


# ---------------------------------------------------------------------------
# alpha0: the CLI on the role-swapped worked instance
# ---------------------------------------------------------------------------


@dataclass
class Alpha0Files:
    test: Path
    constraint: Path
    test_mat: np.ndarray
    constraint_mat: np.ndarray
    seed: int

    @functools.cached_property
    def reference(self) -> float | None:
        return ref.qubit_alpha0(self.test_mat, self.constraint_mat, SWAPPED_CVALUE)


_ALPHA0_LINE = re.compile(r"^alpha0: (\S+)$", re.M)


def alpha0_op(files: Alpha0Files, i: int):
    argv = ["alpha0", "--test", str(files.test), "--constraint", str(files.constraint),
            "--cvalue", str(SWAPPED_CVALUE), "--seed", str(files.seed * 1000 + i % 1000)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_alpha0(files: Alpha0Files, out) -> Check:
    code, text = out
    if code != 0:
        return Check(False, note=f"exit code {code}")
    if "case: case-ii" not in text:
        return Check(False, note="case line is not case-ii")
    m = _ALPHA0_LINE.search(text)
    if m is None or files.reference is None:
        return Check(False, note=f"alpha0 line {m and m.group(1)!r}, reference {files.reference!r}")
    got = float(m.group(1))
    if not abs(got - files.reference) <= ALPHA0_TOL:
        return Check(False, note=f"alpha0 {got!r} vs reference {files.reference!r}")
    return Check(True)


def alpha0_files(seed: int, draw: int, workdir: Path) -> Alpha0Files:
    rng = np.random.default_rng([seed, 3, draw])
    U = local_phases(rng, (2, 2))
    C, L, _ = states.build_example31(states.Example31Config())
    test, constraint = dress(U, C), dress(U, L)  # roles swapped
    files = Alpha0Files(workdir / f"test-{draw}.json", workdir / f"constraint-{draw}.json",
                        test.mat, constraint.mat, seed)
    fileio.save_operator(test, files.test)
    fileio.save_operator(constraint, files.constraint)
    return files


def alpha0(seed: int, workdir: Path) -> Workload:
    pool = [alpha0_files(seed, k, workdir) for k in range(ALPHA0_DRAWS)]
    return Workload("alpha0", pool, alpha0_op, check_alpha0)


# ---------------------------------------------------------------------------
# noise-scan: threshold_scan over a pool of (family, witness) pairs
# ---------------------------------------------------------------------------


@dataclass
class ScanItem:
    label: str
    family: states.NoisyStateFamily
    witness: witness.Witness
    spec: witness.ConstraintSpec
    phi: np.ndarray
    exact: float | None = None


def scan_items(seed: int, draw: int = 0) -> list:
    """Rotated witnesses of the worked instance and finest witnesses of the
    maximally entangled 2x2 and 3x3 families, all under seeded local phases."""
    rng = np.random.default_rng([seed, 4, draw])
    ex = states.Example31Config()
    C, L, phi = states.build_example31(ex)
    U = local_phases(rng, (2, 2))
    C, L, phi = dress(U, C), dress(U, L), Ket(U @ phi.amplitudes)
    spec = witness.ConstraintSpec(C=C, c=ex.c)
    p_c = WORKED_P_C  # local phases keep it; a solve here would put the optimizer in set-up
    family = states.NoisyStateFamily(pure=states.DensityMatrix.from_ket(phi, dims=(2, 2)))
    items = []
    for a in ALPHAS:
        w = (witness.build_minus_inf(spec, L, p_c) if a == -math.inf
             else witness.build_v_alpha(spec, L, p_c, a).witness)
        items.append(ScanItem(f"worked alpha={a}", family, w, spec, phi.amplitudes))
    for d in (2, 3):
        vec = np.zeros(d * d, dtype=complex)
        vec[[k * d + k for k in range(d)]] = 1 / math.sqrt(d)
        ket = Ket(local_phases(rng, (d, d)) @ vec)
        trivial = witness.ConstraintSpec(C=HermitianOperator.identity((d, d)), c=1.0)
        fam = states.NoisyStateFamily(pure=states.DensityMatrix.from_ket(ket, dims=(d, d)))
        w = witness.build_few(ket.projector(dims=(d, d)), 1.0 / d)
        # <phi|L|phi> = 1 - (1 - 1/d^2) p crosses g_s = 1/d at p = d/(d+1)
        items.append(ScanItem(f"max-entangled {d}x{d}", fam, w, trivial, ket.amplitudes,
                              exact=d / (d + 1)))
    return items


def scan_op(item: ScanItem, _i):
    return analysis.threshold_scan(item.family, item.witness, item.spec, LEQ, SCAN_RESOLUTION)


def check_scan(item: ScanItem, thr) -> Check:
    want = ref.scan_threshold(item.witness.bound, item.witness.test.mat, item.spec.C.mat,
                              item.spec.c, item.phi)
    notes = []
    if (thr is None) != (want is None) or (
        thr is not None and not abs(thr - want) <= SCAN_RESOLUTION
    ):
        notes.append(f"threshold {thr!r} vs closed form {want!r}")
    if item.exact is not None and (thr is None or not abs(thr - item.exact) <= SCAN_RESOLUTION):
        notes.append(f"threshold {thr!r} vs exact {item.exact!r}")
    return Check(not notes, note=f"{item.label}: " + "; ".join(notes) if notes else "")


def study_op(items, i):
    """One noise study: the threshold of every witness of one phase draw."""
    return [scan_op(item, i) for item in items]


def check_study(items, thresholds) -> Check:
    checks = [check_scan(item, thr) for item, thr in zip(items, thresholds)]
    return Check(all(c.ok for c in checks), note="; ".join(c.note for c in checks if c.note))


def noise_scan(seed: int, workdir: Path) -> Workload:
    """One op scans all seven witnesses of a phase draw, about 0.5 s.

    A single scan takes 20-200 ms. On a shared machine whose speed swings
    by 1.5x for seconds at a time, the median of such short ops jumps
    between the fast and the slow speed from run to run; an op that spans
    all seven scans averages over the swings.
    """
    pool = [tuple(scan_items(seed, k)) for k in range(SCAN_DRAWS)]
    return Workload("noise-scan", pool, study_op, check_study)


# ---------------------------------------------------------------------------

BUILDERS = {
    "alpha0": alpha0,
    "noise-scan": noise_scan,
}
