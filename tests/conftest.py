import os
from pathlib import Path

import numpy as np
import pytest

import uew
from uew import (
    ConstraintSpec,
    DensityMatrix,
    Example31Config,
    HalfSpaceSide,
    NoisyStateFamily,
    OptimizerConfig,
    build_example31,
    sup_product_constrained,
)

# The CLI tests run `python -m uew` in subprocesses; they import the same
# package as this process, also where only pytest's pythonpath finds it.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(uew.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")) if p
)

# Exact reference numbers for the worked two-qubit instance (x = 2/3, c = 1/100),
# all verified by two independent numeric routes (dense angle grid + the
# one-dimensional boundary reduction).
GS_EXACT = 4.0 / 9.0
PC_EXACT = 169.0 / 900.0
L_AT_PHI = 1.0 / 9.0 + np.sqrt(3.0) / 18.0       # test expectation on the pure state
C_AT_PHI = 1.0 / 225.0                            # constraint expectation on the pure state
SIDE_CAP = 5.0 / 96.0                             # noise level where <C> crosses c


@pytest.fixture(scope="session")
def cfg():
    return OptimizerConfig(seed=7)


@pytest.fixture(scope="session")
def cfg_small():
    return OptimizerConfig(seed=7, restarts=24)


@pytest.fixture(scope="session")
def example():
    ex = Example31Config()
    C, L, phi = build_example31(ex)
    spec = ConstraintSpec(C=C, c=ex.c)
    rho0 = DensityMatrix.from_ket(phi, dims=(2, 2))
    family = NoisyStateFamily(pure=rho0)
    return {"cfg31": ex, "C": C, "L": L, "phi": phi, "spec": spec, "rho0": rho0, "family": family}


@pytest.fixture(scope="session")
def pc_result(example, cfg):
    return sup_product_constrained(
        example["L"], example["spec"], HalfSpaceSide.LEQ, cfg
    )


@pytest.fixture(scope="session")
def swapped(example):
    # constraint and test operators exchanged, c moved to 0.2; this instance
    # has the optimum of (test - constraint) strictly on the <= side
    return {"C": example["L"], "L": example["C"], "spec": ConstraintSpec(C=example["L"], c=0.2)}
