"""JSON serialization of operators and density matrices.

Matrices are stored row-major as [re, im] pairs in shortest round-trip
decimals, which read back as the same IEEE doubles.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .linalg import INPUT_TOL, HermitianOperator, is_integer
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


def _real_pair(cell) -> bool:
    return isinstance(cell, (list, tuple)) and len(cell) == 2 and all(
        isinstance(x, numbers.Real) and not isinstance(x, bool) for x in cell
    )


def operator_from_dict(doc: dict) -> HermitianOperator:
    """The operator of a document; dims must be integers and every cell one [re, im] pair of reals."""
    try:
        dims, rows = doc["dims"], doc["matrix"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc
    if not (isinstance(dims, (list, tuple)) and all(is_integer(d) for d in dims)):
        raise ValueError(f"malformed operator document: dims {dims!r} must be a list of integers")
    if not (
        isinstance(rows, (list, tuple))
        and all(isinstance(row, (list, tuple)) and all(_real_pair(c) for c in row) for row in rows)
    ):
        raise ValueError("malformed operator document: every matrix cell must be one [re, im] pair of real numbers")
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (ValueError, OverflowError) as exc:  # rows of unequal length; an integer past the float range
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
