import ast
import dataclasses
import inspect
from pathlib import Path

import uew


def test_public_names_and_config_fields():
    # the package's public names: a simplification may move code behind
    # them but must not drop one
    from uew import (  # noqa: F401
        MINUS_INF,
        AlphaWitness,
        AssumptionViolated,
        CaseLabel,
        ConstraintSpec,
        DensityMatrix,
        DimensionMismatch,
        EigenPair,
        EmptyFeasibleSet,
        Example31Config,
        HalfSpaceSide,
        HermitianOperator,
        Ket,
        NoisyStateFamily,
        OptimizationResult,
        OptimizerConfig,
        PlaneSample,
        ProductKet,
        SweepRow,
        UewPair,
        Verdict,
        VerdictLabel,
        Witness,
        __version__,
        alpha_sweep,
        build_example31,
        build_few,
        build_minus_inf,
        build_phi,
        build_povm,
        build_v_alpha,
        classify_case,
        combine_alpha,
        compute_alpha0,
        conditional_operator,
        detect,
        eig_hermitian,
        expectation,
        grid_oracle_sup,
        halfspace_membership,
        max_eigenpair,
        min_eig_partial_transpose,
        noisy_member,
        partial_transpose,
        plane_samples,
        random_product_batch,
        random_product_ket,
        rotated_bound_residual,
        sup_product_constrained,
        sup_product_unconstrained,
        tensor_product,
        threshold_scan,
    )

    assert isinstance(__version__, str)
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["restarts", "seed"]
    assert list(inspect.signature(compute_alpha0).parameters) == ["L", "spec", "cfg", "p_c"]
    assert inspect.signature(compute_alpha0).parameters["p_c"].default is None


def _is_tolerance(node):
    return isinstance(node, ast.Constant) and type(node.value) is float and (
        0 < abs(node.value) <= 1e-3 or abs(node.value) >= 1e6
    )


def test_tolerances_live_in_the_linalg_table():
    # every rounding band of the package is a named, commented entry of the
    # table at the top of linalg.py; a float constant that small or that
    # large anywhere else is an unnamed band
    bare, reasonless = [], []
    for path in sorted(Path(uew.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        table = set()
        if path.name == "linalg.py":
            for stmt in tree.body:
                if isinstance(stmt, ast.Assign) and any(_is_tolerance(n) for n in ast.walk(stmt.value)):
                    table.update(id(n) for n in ast.walk(stmt.value))
                    if "#" not in source.splitlines()[stmt.lineno - 1]:
                        reasonless.append(stmt.targets[0].id)
        bare += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if _is_tolerance(node) and id(node) not in table
        ]
    assert bare == []
    assert reasonless == []


def test_every_table_tolerance_is_read():
    # a guard deleted from the package takes its band out of the table too:
    # every name the table assigns is loaded somewhere in uew
    root = Path(uew.__file__).parent
    table = [
        stmt.targets[0].id
        for stmt in ast.parse((root / "linalg.py").read_text()).body
        if isinstance(stmt, ast.Assign) and any(_is_tolerance(n) for n in ast.walk(stmt.value))
    ]
    read = {
        node.id
        for path in root.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert len(table) > 10
    assert [name for name in table if name not in read] == []


def test_every_import_is_read():
    # a mechanism deleted from a module takes its imports along: every name
    # a module imports is loaded in it (__init__ re-exports, __future__ sets
    # compiler flags)
    unread = []
    for path in sorted(Path(uew.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unread == []


def test_every_private_function_is_read():
    # a helper whose last caller is deleted goes too: every module-level
    # private function of uew is loaded somewhere in uew. _alpha_feasible is
    # kept as the alpha-validity predicate that the acceptance tests call
    root = Path(uew.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))]
    defined = [
        stmt.name
        for tree in trees
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") and not stmt.name.startswith("__")
    ]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert [name for name in defined if name not in read] == ["_alpha_feasible"]


def test_only_the_state_side_imports_the_boundary_band():
    # BOUNDARY_TOL is the band of a state against Tr(rho C) = c; the
    # optimizers test product points against the cut's own slack
    importers = sorted(
        path.name
        for path in Path(uew.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and any(alias.name == "BOUNDARY_TOL" for alias in node.names)
    )
    assert importers == ["analysis.py", "witness.py"]
