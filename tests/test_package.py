"""The package's public surface: the names ``from pregols import *`` gives."""

import inspect

import pregols

PUBLIC_NAMES = {
    "brute_force_refit",
    "CellResult",
    "cochran_check",
    "CochranDesign",
    "CochranGaps",
    "COVARIATE_MODELS",
    "CovariateConfig",
    "DEFAULT_GRIDS",
    "DesignPartition",
    "ESTIMATOR_IDS",
    "expected_bias",
    "ExperimentAbortedError",
    "ExperimentConfig",
    "ExperimentReport",
    "EXPERIMENTS",
    "fit_full",
    "fit_partial",
    "fit_partial_variant",
    "full_operator",
    "FullFit",
    "GaussMarkovTruth",
    "gen_ate_dataset",
    "gen_ate_design",
    "gen_covariates",
    "get_default_tolerance",
    "gram_downdate",
    "image_gap",
    "InvalidInputError",
    "loo_fit",
    "loo_record",
    "loo_residual_partial",
    "LooRecord",
    "nullspace_component",
    "numeric_rank",
    "orthonormal_rows",
    "ovb_decompose",
    "OvbDecomposition",
    "partial_operator",
    "PARTIAL_VARIANTS",
    "PartialFit",
    "PartialLooSolver",
    "pinv",
    "predict",
    "PregolsError",
    "RankAssumptionError",
    "RankTolerance",
    "read_matrix_csv",
    "residual_operator",
    "ResidualOperator",
    "run_experiment",
    "Seed",
    "set_default_tolerance",
    "sigma2",
    "splitmix64",
    "standard_normal",
    "Svd",
    "VarianceReport",
    "w_operator",
    "wc_normalizers",
    "wc_operator",
    "write_matrix_csv",
    "write_report",
}


def test_public_names_are_pinned():
    assert len(pregols.__all__) == len(set(pregols.__all__)) == 62
    assert set(pregols.__all__) == PUBLIC_NAMES
    for name in pregols.__all__:
        assert getattr(pregols, name) is not None, name


def _takes_a_design(fn) -> bool:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return False
    return any(
        "DesignPartition" in str(p.annotation) or "CochranDesign" in str(p.annotation)
        for p in params
    )


def test_no_operation_on_a_validated_design_takes_a_tolerance():
    # a design is validated under one tolerance and keeps it as .tol; an
    # operation with a tol of its own could decide rank under another cutoff.
    # These three accept a DesignPartition through an unannotated parameter.
    takers = {
        name: getattr(pregols, name) for name in ("full_operator", "sigma2", "expected_bias")
    }
    takers.update(
        (name, obj) for name in pregols.__all__
        if callable(obj := getattr(pregols, name)) and _takes_a_design(obj)
    )
    for cls in (pregols.DesignPartition, pregols.CochranDesign):
        assert "tol" in inspect.signature(cls).parameters
        takers.update(
            (f"{cls.__name__}.{name}", obj) for name, obj in vars(cls).items()
            if callable(obj) and not name.startswith("_")
        )
    assert {"fit_partial", "PartialLooSolver", "cochran_check", "brute_force_refit",
            "image_gap", "ovb_decompose",
            "DesignPartition.tau_map", "DesignPartition.full_gram_inverse"} <= set(takers)
    assert [n for n, fn in takers.items() if "tol" in inspect.signature(fn).parameters] == []
    # the generators and the two operations on a plain array decide rank
    # under the context default, which a partition built on a draw resolves again
    for fn in (pregols.gen_covariates, pregols.gen_ate_design, pregols.gen_ate_dataset,
               pregols.fit_full, pregols.gram_downdate):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
