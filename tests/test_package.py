"""The package's public surface: the names ``from pregols import *`` gives."""

import ast
import inspect
import pathlib
import tempfile

import numpy as np
import pytest

import pregols
import pregols.cli
from pregols import (
    CellResult,
    CochranDesign,
    CovariateConfig,
    DesignPartition,
    ExperimentConfig,
    ExperimentReport,
    GaussMarkovTruth,
    InvalidInputError,
    RankTolerance,
    Seed,
    Svd,
)

# Each public name and the clause of the package-surface rule that keeps it:
# the CLI ("cli") or the simulation harness ("harness") binds it, it computes
# a quantity the paper defines ("paper": a fit, a LOO form, a Cochran
# identity, an estimator or its bias), it is a type a public call takes or
# returns ("record"), or it is an error the package raises ("error").
PUBLIC_NAMES = {
    "brute_force_refit": "cli",
    "CochranDesign": "cli",
    "DesignPartition": "cli",
    "ESTIMATOR_IDS": "cli",
    "ExperimentConfig": "cli",
    "EXPERIMENTS": "cli",
    "fit_partial_variant": "cli",
    "GaussMarkovTruth": "cli",
    "PARTIAL_VARIANTS": "cli",
    "PartialLooSolver": "cli",
    "RankTolerance": "cli",
    "read_matrix_csv": "cli",
    "run_experiment": "cli",
    "sigma2": "cli",
    "write_report": "cli",
    "COVARIATE_MODELS": "harness",
    "CovariateConfig": "harness",
    "DEFAULT_GRIDS": "harness",
    "gen_ate_design": "harness",
    "gen_covariates": "harness",
    # bound only by the import that perfbench's span table patches: once that
    # import goes, this entry fails and pinv leaves the surface
    "pinv": "harness",
    "residual_operator": "harness",
    "Seed": "harness",
    "standard_normal": "harness",
    "Svd": "harness",
    "write_matrix_csv": "harness",
    "cochran_check": "paper",
    "expected_bias": "paper",
    "fit_full": "paper",
    "fit_partial": "paper",
    "full_operator": "paper",
    "gram_downdate": "paper",
    "image_gap": "paper",
    "loo_fit": "paper",
    "loo_residual_partial": "paper",
    "ovb_decompose": "paper",
    "partial_operator": "paper",
    "w_operator": "paper",
    "wc_operator": "paper",
    # the simulations' generative models, the loosest reading of "paper": the
    # harness reaches the first two only through Seed and gen_covariates, and
    # only tests and demos call the third
    "splitmix64": "paper",
    "orthonormal_rows": "paper",
    "gen_ate_dataset": "paper",
    "CellResult": "record",
    "CochranGaps": "record",
    "ExperimentReport": "record",
    "FullFit": "record",
    "OvbDecomposition": "record",
    "PartialFit": "record",
    "ResidualOperator": "record",
    "VarianceReport": "record",
    "ExperimentAbortedError": "error",
    "InvalidInputError": "error",
    "PregolsError": "error",
    "RankAssumptionError": "error",
}


def test_public_names_are_pinned():
    assert len(pregols.__all__) == len(set(pregols.__all__)) == 54
    assert set(pregols.__all__) == set(PUBLIC_NAMES)
    for name in pregols.__all__:
        assert getattr(pregols, name) is not None, name


def test_each_public_name_keeps_its_place_by_one_clause():
    callers = {"cli": vars(pregols.cli), "harness": vars(pregols.simharness)}
    for name, clause in PUBLIC_NAMES.items():
        obj = getattr(pregols, name)
        if clause in callers:
            assert callers[clause].get(name) is obj, (name, clause)
        elif clause == "record":
            assert isinstance(obj, type) and not issubclass(obj, Exception), name
        elif clause == "error":
            assert isinstance(obj, type) and issubclass(obj, pregols.PregolsError), name
        else:
            assert clause == "paper" and callable(obj), (name, clause)


def _annotations(fn) -> list[str]:
    """The parameter annotations of ``fn``, none for a class without a signature."""
    try:
        return [str(p.annotation) for p in inspect.signature(fn).parameters.values()]
    except (TypeError, ValueError):
        return []


def _takes_a_design(fn) -> bool:
    return any("DesignPartition" in a or "CochranDesign" in a for a in _annotations(fn))


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
    # the two generators decide the draw's rank under the tolerance they are
    # given, which the simulation harness also validates its partition under;
    # the dataset generator and the two operations on a plain array decide
    # rank under RankTolerance() and take none
    for fn in (pregols.gen_covariates, pregols.gen_ate_design):
        assert "tol" in inspect.signature(fn).parameters, fn.__name__
    for fn in (pregols.gen_ate_dataset, pregols.fit_full, pregols.gram_downdate):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__


# Every public callable that takes an integer, a real number, a name, a flag
# or a draw's shape from its caller, as ``(label, kind, good, call)``:
# ``call(v, rng)`` passes ``v`` where ``good`` would be valid.  The records
# the package builds itself (fits, reports, cells) and lookups on them are
# not boundaries.
_D = DesignPartition(np.random.default_rng(0).standard_normal((6, 9)), np.ones((6, 1)))
_Y = np.arange(6.0)
_SPIKED = CovariateConfig("spiked")
_TRUTH = GaussMarkovTruth(np.ones(10), 1.0)
_REPORT = ExperimentReport(ExperimentConfig("sim3", grid=[1.0], trials=1, draws_per_trial=1),
                           (CellResult(1.0, "full", 0.0, 0.0, 1, 1, 0),))


def _write_report(include_w):
    with tempfile.TemporaryDirectory() as out:
        return pregols.write_report(_REPORT, out, include_w=include_w)


_SCALAR_ARGUMENTS = [
    ("Seed", "int", 1, lambda v, rng: Seed(v)),
    ("Seed.stream_seed", "int", 1, lambda v, rng: Seed(1).stream_seed(v)),
    ("Seed.rng", "int", 1, lambda v, rng: Seed(1).rng(v)),
    ("splitmix64", "int", 1, lambda v, rng: pregols.splitmix64(v)),
    ("orthonormal_rows n", "int", 3, lambda v, rng: pregols.orthonormal_rows(v, 5, rng)),
    ("orthonormal_rows q", "int", 5, lambda v, rng: pregols.orthonormal_rows(3, v, rng)),
    ("standard_normal size", "size", (2, 3), lambda v, rng: pregols.standard_normal(rng, v)),
    ("CovariateConfig model", "name", "spiked", lambda v, rng: CovariateConfig(v)),
    ("CovariateConfig sigma_x", "real", 1.0,
     lambda v, rng: CovariateConfig("spiked", sigma_x=v)),
    ("CovariateConfig k_spikes", "int", 5,
     lambda v, rng: CovariateConfig("spiked", k_spikes=v)),
    ("CovariateConfig lambda_range", "real", 20.0,
     lambda v, rng: CovariateConfig("spiked", lambda_range=(10.0, v))),
    ("CovariateConfig lambda_geo", "real", 1.0,
     lambda v, rng: CovariateConfig("geometric", lambda_geo=v)),
    ("CovariateConfig rho", "real", 0.5, lambda v, rng: CovariateConfig("geometric", rho=v)),
    ("gen_covariates n", "int", 3, lambda v, rng: pregols.gen_covariates(_SPIKED, v, 9, rng)),
    ("gen_covariates q", "int", 9, lambda v, rng: pregols.gen_covariates(_SPIKED, 3, v, rng)),
    ("gen_ate_design n", "int", 4, lambda v, rng: pregols.gen_ate_design(v, 9, rng)),
    ("gen_ate_design q", "int", 9, lambda v, rng: pregols.gen_ate_design(4, v, rng)),
    ("gen_ate_dataset n", "int", 4, lambda v, rng: pregols.gen_ate_dataset(v, 9, 1.0, rng)),
    ("gen_ate_dataset q", "int", 9, lambda v, rng: pregols.gen_ate_dataset(4, v, 1.0, rng)),
    ("gen_ate_dataset tau", "real", 1.0,
     lambda v, rng: pregols.gen_ate_dataset(4, 9, v, rng)),
    ("fit_partial_variant", "name", "direct",
     lambda v, rng: pregols.fit_partial_variant(_D, _Y, v)),
    ("RankTolerance", "real or None", 0.5, lambda v, rng: RankTolerance(v)),
    ("loo_fit", "int", 0, lambda v, rng: pregols.loo_fit(_D, _Y, v)),
    ("loo_residual_partial", "int", 0,
     lambda v, rng: pregols.loo_residual_partial(_D, _Y, v)),
    ("brute_force_refit", "int", 0, lambda v, rng: pregols.brute_force_refit(_D, _Y, v)),
    ("gram_downdate", "int", 0, lambda v, rng: pregols.gram_downdate(_D.w, v)),
    ("ExperimentConfig experiment", "name", "sim3", lambda v, rng: ExperimentConfig(v)),
    ("ExperimentConfig model", "name", "spiked",
     lambda v, rng: ExperimentConfig("sim3", model=v)),
    ("ExperimentConfig grid", "real", 1.0, lambda v, rng: ExperimentConfig("sim3", grid=[v])),
    ("ExperimentConfig trials", "int", 2, lambda v, rng: ExperimentConfig("sim3", trials=v)),
    ("ExperimentConfig draws_per_trial", "int", 2,
     lambda v, rng: ExperimentConfig("sim3", draws_per_trial=v)),
    ("ExperimentConfig estimators", "name", "full",
     lambda v, rng: ExperimentConfig("sim3", estimators=[v])),
    ("ExperimentConfig seed", "int", 0, lambda v, rng: ExperimentConfig("sim3", seed=v)),
    ("ExperimentConfig rank_tol", "cutoff", 1e-3,
     lambda v, rng: ExperimentConfig("sim3", rank_tol=v)),
    ("ExperimentConfig.default experiment", "name", "sim3",
     lambda v, rng: ExperimentConfig.default(v)),
    ("ExperimentConfig.default model", "name", "spiked",
     lambda v, rng: ExperimentConfig.default("sim3", model=v)),
    ("ExperimentConfig.default seed", "int", 0,
     lambda v, rng: ExperimentConfig.default("sim3", seed=v)),
    ("ExperimentConfig.default paper_scale", "flag", False,
     lambda v, rng: ExperimentConfig.default("sim3", paper_scale=v)),
    ("write_report include_w", "flag", np.True_, lambda v, rng: _write_report(v)),
    ("GaussMarkovTruth", "real", 1.0, lambda v, rng: GaussMarkovTruth(np.ones(10), v)),
    ("residual_operator", "name", "full", lambda v, rng: pregols.residual_operator(v, _D)),
    ("sigma2", "name", "full", lambda v, rng: pregols.sigma2(v, _D, _Y)),
    ("expected_bias", "name", "full", lambda v, rng: pregols.expected_bias(v, _D, _TRUTH)),
]
# and a list holding the good value, which is not that value; 10**400 is a
# real number no float holds, and a cutoff lies strictly inside (0, 1)
_WRONG = {
    "int": (True, 2.5, "3", None),
    "real": (True, "1.0", None, 10**400),
    "real or None": (True, "1.0", 10**400),
    "cutoff": (True, "1e-3", 0, 1.5, 10**400),
    "name": (True, "bogus", 2.5, None),
    "flag": (1, 0, "no", None),
    "size": (True, 2.5, "3", -1, (2, -1), (2, "3"), (True,)),
}


@pytest.mark.parametrize(
    "kind, good, call",
    [row[1:] for row in _SCALAR_ARGUMENTS],
    ids=[row[0] for row in _SCALAR_ARGUMENTS],
)
def test_scalar_arguments_are_refused_with_a_named_error(kind, good, call):
    # a bool is neither an integer nor a real number; a generator refuses
    # before it reads its stream
    call(good, Seed(1).rng(0))
    unread = Seed(1).rng(0).bit_generator.state
    for v in (*_WRONG[kind], [good]):
        rng = Seed(1).rng(0)
        with pytest.raises(InvalidInputError):
            call(v, rng)
        assert rng.bit_generator.state == unread, v


@pytest.mark.parametrize("value", [True, "1e-3", 0, 1.5])
def test_a_bad_rank_tol_is_refused_by_name(value):
    with pytest.raises(InvalidInputError, match="^invalid rank_tol: "):
        ExperimentConfig("sim3", rank_tol=value)


def test_the_scalar_table_covers_every_public_callable():
    # each public callable or method with a parameter annotated int, float,
    # str or bool is in the table, or is a record the package fills in itself
    records = {"CochranGaps", "OvbDecomposition", "FullFit", "PartialFit",
               "CellResult", "VarianceReport", "ResidualOperator", "RankTolerance.cutoff",
               "ExperimentReport.cell"}
    found = set()
    for name in pregols.__all__:
        obj = getattr(pregols, name)
        members = [(f"{name}.{key}", getattr(obj, key)) for key in vars(obj)
                   if not key.startswith("_")] if inspect.isclass(obj) else []
        found.update(label for label, fn in [(name, obj), *members]
                     if callable(fn) and any(t in a for a in _annotations(fn)
                                             for t in ("int", "float", "str", "bool")))
    assert found - records == {row[0].split(" ")[0] for row in _SCALAR_ARGUMENTS}


def test_only_linalg_decides_what_a_scalar_is():
    # the scalar input policy lives beside as_matrix: no other module imports
    # numbers or writes an "unknown ...; choose from ..." message of its own
    for path in sorted(pathlib.Path(pregols.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        source = path.read_text(encoding="utf-8")
        modules = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module)
        assert "numbers" not in modules, path.name
        assert "choose from" not in source, path.name


def test_only_linalg_makes_an_array_read_only():
    # the read-only rule is linalg._readonly, a view: no other module sets
    # an array's flags or keeps a copying helper of its own
    for path in sorted(pathlib.Path(pregols.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        source = path.read_text(encoding="utf-8")
        assert "setflags" not in source and "writeable" not in source, path.name
        defined = {node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)}
        assert "_readonly" not in defined, path.name
    assert "_w" not in DesignPartition.__slots__


def test_what_the_package_keeps_cannot_be_written():
    # every factor of a kept SVD, computed, given or drawn, the arrays a
    # partition reads, a draw's row sums and a truth's coefficients
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 7))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    svds = [Svd(a), Svd.from_factors(a, u, s)]
    svds += [pregols.gen_covariates(CovariateConfig(model), 4, 7, Seed(1).rng(0))
             for model in pregols.COVARIATE_MODELS]
    d = DesignPartition(svds[2], np.ones((4, 1)))
    kept = [getattr(f, key) for f in svds for key in ("u", "s", "vt", "a")]
    kept += [f.ones for f in svds[2:]]
    kept += [d.w, d.t, d.ell, d.split_factor(), GaussMarkovTruth(np.ones(8), 1.0).beta]
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 99.0


def test_a_callers_array_is_never_frozen_and_a_record_copies_it():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 7))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    Svd(a).vt, Svd.from_factors(a, u, s).vt
    assert a.flags.writeable and u.flags.writeable and s.flags.writeable
    w, y = rng.standard_normal((8, 13)), rng.standard_normal(8)
    t = np.column_stack([np.tile([0.0, 1.0], 4), np.ones(8)])
    z, omitted, beta = w[:, :10].copy(), w[:, 10:].copy(), np.full(15, 0.5)
    d, c, truth = DesignPartition(w, t), CochranDesign(z, omitted, t), GaussMarkovTruth(beta, 1.0)

    def results():
        fit = pregols.fit_partial(d, y)
        return (fit.lambda_hat.tolist(), fit.tau_hat.tolist(), pregols.cochran_check(c, y),
                pregols.ovb_decompose(c, y).bias, truth.mean_response(d).tolist(),
                pregols.sigma2("wc", d, y, truth), d.w.tolist(), c.u.tolist())

    before = results()
    for arr in (w, t, z, omitted, beta):
        arr[...] = 7.0
    assert results() == before
