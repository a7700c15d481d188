import dataclasses
import inspect


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
