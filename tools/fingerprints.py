#!/usr/bin/env python3
"""SHA-256 fingerprints of the optimizers' results, one line per family.

    python3 tools/fingerprints.py

Run it from the repository root of two trees, for example a commit and its
parent, and compare the lines: an equal hash means bit-identical results
for the whole family. The package is imported from ``src/``, the
instance builders (``rand_herm``, ``rand_herm_22``, ``recipe_instance``)
from ``tests/test_optimize.py`` and the scan instances (``_scan_cases``)
from ``tests/test_analysis.py``. BLAS runs on one thread.

Each solve contributes its value (hex), the bytes of both argmax kets, its
iteration count and ``converged`` flag, and its ``method`` where the result
carries one. Families:

  qubit-pair             612 _qubit_pair_constrained solves: 200
                         default_rng(2026) draws of L, C and c (c uniform
                         between C's extreme diagonal entries) on both
                         sides; 104 default_rng(1) draws with L, C and c
                         scaled by 10^U(-6, 6) on both sides; the worked
                         and role-swapped instances on both sides
  qubit-pair-scaled      the qubit-pair solves with L times 2**600 and C
                         and c times 2**-600, each value divided by 2**600:
                         equal to the qubit-pair line when the solve is
                         exact under power-of-two scalings
  recipe                 96 sup_product_constrained solves: R(55,1,0.5),
                         R(77,3,0.25), R(91,0,0.8), k = 0..15, both sides
  oracle                 132 grid_oracle_sup values: 11 random operators
                         each on 2x2 at resolution 181 and 61, 2x3 at 7
                         and 3x3 at 5; unconstrained, leq and geq
  unconstrained-2x2      200 sup_product_unconstrained solves on 2x2
  unconstrained-2x3-3x3  200 each on 2x3 and 3x3
  scan                   125 _scan_cases instances, seeds 0..4: <T> and <C>
                         of the pure state (T the witness test) and the
                         threshold_scan edge on all three sides, as hex
  starts                 1224 _restart_starts draws, the bytes of each: seeds
                         0..199, 2**32 - 1, 2**32 + 1, 2**64 + 1 and
                         2**128 + 5, restarts 1, 24 and 64, dA 2 and 3
  cli                    14 CLI runs, stdout and stderr without the
                         wall_time_s line: gs of L and C, pc leq/geq on the
                         worked and role-swapped instances, alpha0 on both,
                         detect with no alpha, -1 and -inf, the README scan
                         block, and scan of x = 2/3 and x = 1/2
  alpha0                 42 compute_alpha0 values at the default config, as
                         hex ("None" when every member is valid, the
                         exception's name when one is raised): the worked
                         and role-swapped instances and 40 default_rng(32)
                         draws of L, C and c (as in qubit-pair)
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("UEW_SEED", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from test_analysis import _scan_cases  # noqa: E402
from test_optimize import rand_herm, rand_herm_22, recipe_instance  # noqa: E402
from uew import cli, expectation, fileio, optimize, threshold_scan  # noqa: E402
from uew.optimize import (  # noqa: E402
    OptimizerConfig,
    compute_alpha0,
    grid_oracle_sup,
    sup_product_constrained,
    sup_product_unconstrained,
)
from uew.states import DensityMatrix, Example31Config, build_example31  # noqa: E402
from uew.witness import ConstraintSpec, HalfSpaceSide  # noqa: E402

SIDES = (HalfSpaceSide.LEQ, HalfSpaceSide.GEQ)


def solve_record(value, pk, iterations, converged, method=None) -> bytes:
    return b"|".join([
        float(value).hex().encode(),
        pk.a.amplitudes.tobytes(),
        pk.b.amplitudes.tobytes(),
        str(int(iterations)).encode(),
        str(bool(converged)).encode(),
        str(method).encode(),
    ])


def result_record(res) -> bytes:
    return solve_record(res.value, res.argmax, res.iterations, res.converged, res.method)


def diagonal_spec(rng, C, scale=1.0):
    """C and a c drawn uniformly between C's extreme diagonal entries, both times scale."""
    d = np.diag(C.mat).real
    return ConstraintSpec(C=scale * C, c=scale * float(rng.uniform(d.min(), d.max())))


def worked_instances():
    C, L, _ = build_example31(Example31Config())
    return [(L, ConstraintSpec(C=C, c=0.01)), (C, ConstraintSpec(C=L, c=0.2))]


def qubit_pair(l_scale=1.0, c_scale=1.0):
    """The qubit-pair solves with L times l_scale and C and c times c_scale,
    each value divided by l_scale."""
    instances = []
    rng = np.random.default_rng(2026)
    for _ in range(200):
        L, C = rand_herm_22(rng), rand_herm_22(rng)
        instances.append((L, diagonal_spec(rng, C)))
    rng = np.random.default_rng(1)
    for _ in range(104):
        L, C = rand_herm_22(rng), rand_herm_22(rng)
        s = 10.0 ** rng.uniform(-6.0, 6.0)
        instances.append((s * L, diagonal_spec(rng, C, s)))
    instances += worked_instances()
    for L, spec in instances:
        L, spec = l_scale * L, ConstraintSpec(C=c_scale * spec.C, c=c_scale * spec.c)
        for side in SIDES:
            value, pk, converged, steps = optimize._qubit_pair_constrained(L, optimize._cut_operator(spec, side))
            yield solve_record(value / l_scale, pk, steps, converged)


def recipe():
    for s, seed, delta in ((55, 1, 0.5), (77, 3, 0.25), (91, 0, 0.8)):
        for k in range(16):
            for side in SIDES:
                L, spec, cfg = recipe_instance(s, seed, delta, k, side)
                yield result_record(sup_product_constrained(L, spec, side, cfg))


def oracle():
    rng = np.random.default_rng(3)
    for dims, resolutions in (((2, 2), (181, 61)), ((2, 3), (7,)), ((3, 3), (5,))):
        for _ in range(11):
            L, C = rand_herm(rng, dims), rand_herm(rng, dims)
            spec = diagonal_spec(rng, C)
            for res in resolutions:
                for spec_side in ((None, None), (spec, SIDES[0]), (spec, SIDES[1])):
                    yield float(grid_oracle_sup(L, *spec_side, resolution=res)).hex().encode()


def unconstrained(dims_list):
    for dims in dims_list:
        rng = np.random.default_rng(10 * dims[0] + dims[1])
        for i in range(200):
            yield result_record(sup_product_unconstrained(rand_herm(rng, dims), OptimizerConfig(seed=i % 8)))


def scan():
    for seed in range(5):
        for label, family, w, spec in _scan_cases(seed):
            values = [expectation(w.test, family.pure), expectation(spec.C, family.pure)]
            values += [threshold_scan(family, w, spec, side) for side in HalfSpaceSide]
            yield b"|".join([label.encode(), *(b"None" if v is None else v.hex().encode() for v in values)])


def starts():
    for seed in [*range(200), 2**32 - 1, 2**32 + 1, 2**64 + 1, 2**128 + 5]:
        for restarts in (1, 24, 64):
            for dA in (2, 3):
                yield optimize._restart_starts(seed, restarts, dA).tobytes()


def alpha0():
    instances = worked_instances()
    rng = np.random.default_rng(32)
    for _ in range(40):
        L, C = rand_herm_22(rng), rand_herm_22(rng)
        instances.append((L, diagonal_spec(rng, C)))
    for L, spec in instances:
        try:
            value = compute_alpha0(L, spec, OptimizerConfig())
        except (ValueError, RuntimeError) as exc:  # EmptyFeasibleSet, AssumptionViolated, an inconsistent p_c
            yield type(exc).__name__.encode()
        else:
            yield b"None" if value is None else float(value).hex().encode()


def cli_runs():
    C, L, phi = build_example31(Example31Config())
    runs = [
        ["gs", "--test", "L.json"],
        ["gs", "--test", "C.json"],
        *(["pc", "--test", "L.json", "--constraint", "C.json", "--cvalue", "1/100", "--side", s]
          for s in ("leq", "geq")),
        *(["pc", "--test", "C.json", "--constraint", "L.json", "--cvalue", "0.2", "--side", s]
          for s in ("leq", "geq")),
        ["alpha0", "--test", "L.json", "--constraint", "C.json", "--cvalue", "1/100"],
        ["alpha0", "--test", "C.json", "--constraint", "L.json", "--cvalue", "0.2"],
        *(["detect", "--state", "rho0.json", "--test", "L.json", "--constraint", "C.json",
           "--cvalue", "0.01", *alpha] for alpha in ([], ["--alpha", "-1"], ["--alpha", "-inf"])),
        ["scan", "--example31", "--x", "4/5", "--cvalue", "1/50", "--alphas", "0,-1,-10,-100,-inf", "--seed", "11"],
        ["scan", "--example31", "--x", "2/3", "--cvalue", "1/100", "--alphas", "0,-1,-10,-100,-inf", "--seed", "7"],
        ["scan", "--example31", "--x", "1/2", "--cvalue", "1/100", "--alphas", "0,-1,-10,-100,-inf", "--seed", "11"],
    ]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the command: line echoes the relative file names only
        try:
            fileio.save_operator(L, "L.json")
            fileio.save_operator(C, "C.json")
            fileio.save_density(DensityMatrix.from_ket(phi, dims=(2, 2)), "rho0.json")
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                text = "".join(
                    line for line in (out.getvalue() + err.getvalue()).splitlines(keepends=True)
                    if not line.startswith("wall_time_s:")
                )
                yield f"{code}\n{text}".encode()
        finally:
            os.chdir(here)


FAMILIES = {
    "qubit-pair": qubit_pair,
    "qubit-pair-scaled": lambda: qubit_pair(2.0**600, 2.0**-600),
    "recipe": recipe,
    "oracle": oracle,
    "unconstrained-2x2": lambda: unconstrained([(2, 2)]),
    "unconstrained-2x3-3x3": lambda: unconstrained([(2, 3), (3, 3)]),
    "scan": scan,
    "starts": starts,
    "cli": cli_runs,
    "alpha0": alpha0,
}


def main() -> int:
    for name, family in FAMILIES.items():
        total, count = hashlib.sha256(), 0
        for record in family():
            total.update(hashlib.sha256(record).digest())
            count += 1
        print(f"{name} {count} {total.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
