"""JSON serialization of operators and density matrices.

Matrices are stored row-major as [re, im] pairs in shortest round-trip
decimals, which read back as the same IEEE doubles.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .linalg import INPUT_TOL, HermitianOperator
from .states import DensityMatrix


def operator_to_dict(op: HermitianOperator, kind: str | None = None) -> dict:
    dims = list(op.dims) if len(op.dims) == 2 else [op.dims[0], 1]
    doc = {
        "dims": dims,
        "matrix": [
            [[z.real, z.imag] for z in row] for row in op.mat.tolist()
        ],
    }
    if kind is not None:
        doc["kind"] = kind
    return doc


def operator_from_dict(doc: dict) -> HermitianOperator:
    try:
        dims = tuple(int(d) for d in doc["dims"])
        rows = doc["matrix"]
        mat = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows],
            dtype=complex,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator matrix must be square")
    top = np.abs(mat).max()  # NaN or inf when any entry is
    if not math.isfinite(top):
        raise ValueError("operator matrix must be finite and Hermitian; it has a non-finite entry")
    # relative to the largest entry, as in HermitianOperator: the decimals of
    # a large computed operator carry rounding that grows with its norm
    if not np.abs(mat - mat.conj().T).max() <= INPUT_TOL * max(1.0, top):
        raise ValueError(f"operator matrix is not Hermitian within {INPUT_TOL} times max(1, largest |entry|)")
    mat = (mat + mat.conj().T) / 2
    if len(dims) == 2 and dims[1] == 1:
        dims = (dims[0],)
    return HermitianOperator(mat, dims=dims)


def save_operator(op: HermitianOperator, path, kind: str | None = None) -> None:
    Path(path).write_text(json.dumps(operator_to_dict(op, kind)) + "\n")


def load_operator(path) -> HermitianOperator:
    return operator_from_dict(json.loads(Path(path).read_text()))


def save_density(rho: DensityMatrix, path) -> None:
    save_operator(rho.op, path, kind="density")


def load_density(path) -> DensityMatrix:
    return DensityMatrix(load_operator(path))
