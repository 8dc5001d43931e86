import numpy as np
import pytest

from pregols import (
    CovariateConfig,
    DesignPartition,
    InvalidInputError,
    RankTolerance,
    Seed,
    Svd,
    gen_covariates,
    pinv,
    read_matrix_csv,
    write_matrix_csv,
)

from oracles import elimination_rank, nullspace_component, projector


def penrose_gaps(m, mp):
    p1 = np.max(np.abs(m @ mp @ m - m))
    p2 = np.max(np.abs(mp @ m @ mp - mp))
    p3 = np.max(np.abs((m @ mp) - (m @ mp).T))
    p4 = np.max(np.abs((mp @ m) - (mp @ m).T))
    return max(p1, p2, p3, p4)


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_diagonal_with_zero():
    assert np.allclose(pinv(np.diag([3.0, 0.0])), np.diag([1 / 3, 0.0]), atol=1e-14)


def test_pinv_random_penrose():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5))
    smax = np.linalg.svd(m, compute_uv=False)[0]
    assert penrose_gaps(m, pinv(m)) <= 1e-10 * max(1.0, smax)


@pytest.mark.parametrize("shape", [(4, 4), (7, 3), (3, 7), (20, 50), (50, 50)])
def test_pinv_penrose_across_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(10):
        m = rng.standard_normal(shape)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert penrose_gaps(m, pinv(m)) <= 1e-10 * max(1.0, smax)


def test_pinv_of_pinv_recovers():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 4))
    assert np.max(np.abs(pinv(pinv(m)) - m)) <= 1e-10


def test_pinv_commutes_with_transpose():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 8))
    assert np.max(np.abs(pinv(m.T) - pinv(m).T)) <= 1e-10


def test_pinv_scalar_multiple():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 6))
    assert np.max(np.abs(pinv(2.5 * m) - pinv(m) / 2.5)) <= 1e-10


def test_pinv_gram_expressions():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 9))
    via_cols = pinv(m.T @ m) @ m.T
    via_rows = m.T @ pinv(m @ m.T)
    assert np.max(np.abs(via_cols - pinv(m))) <= 1e-8
    assert np.max(np.abs(via_rows - pinv(m))) <= 1e-8


def test_pinv_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        pinv([[1.0, np.nan], [0.0, 1.0]])


def test_projector_ones_column():
    n = 6
    p = projector(Svd(np.ones((n, 1))))
    assert np.allclose(p, np.full((n, n), 1.0 / n), atol=1e-12)


def test_projector_identity():
    assert np.allclose(projector(Svd(np.eye(4))), np.eye(4), atol=1e-12)


def test_projector_properties():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 2))
    p = projector(Svd(m))
    assert np.max(np.abs(p @ p - p)) <= 1e-10
    assert np.max(np.abs(p - p.T)) <= 1e-10
    assert np.max(np.abs(p @ m - m)) <= 1e-10


def test_gram_inverse_identity():
    assert np.allclose(Svd(np.eye(5)).gram_inverse(), np.eye(5), atol=1e-12)


def test_gram_inverse_orthonormal_rows():
    # rows of a scaled DFT-like construction: orthonormal by design
    m = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert np.allclose(Svd(m).gram_inverse(), np.eye(2), atol=1e-12)


def test_gram_inverse_matches_lu_inverse():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((4, 7))
    direct = np.linalg.solve(w @ w.T, np.eye(4))  # LU-based oracle
    assert np.max(np.abs(Svd(w).gram_inverse() - direct)) <= 1e-8


def test_gram_inverse_symmetric_positive_diagonal():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 11))
    g = Svd(w).gram_inverse()
    assert np.max(np.abs(g - g.T)) <= 1e-10
    assert np.all(np.diag(g) > 0)


def test_svd_rank_zero_matrix():
    assert Svd(np.zeros((3, 3))).rank() == 0


def test_svd_rank_identity():
    assert Svd(np.eye(4)).rank() == 4


def test_svd_rank_duplicated_row_matches_elimination():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 5))
    m[2] = m[0]
    assert Svd(m).rank() == 2
    assert elimination_rank(m) == 2


def test_svd_rank_matches_elimination_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rows, cols, r = 6, 8, int(rng.integers(1, 6))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        assert Svd(m).rank() == elimination_rank(m) == r


def test_rank_tolerance_must_be_positive():
    with pytest.raises(InvalidInputError):
        RankTolerance(relative_cutoff=0.0)
    with pytest.raises(InvalidInputError):
        RankTolerance(relative_cutoff=-1e-8)
    # a cutoff of 1 or more gives every matrix rank 0
    for rel in (float("inf"), 1.0, 2.0, float("nan")):
        with pytest.raises(InvalidInputError, match="0 < cutoff < 1"):
            RankTolerance(relative_cutoff=rel)
    for rel in ("0.1", 0.1 + 0j, True, [0.1]):
        with pytest.raises(InvalidInputError, match="must be a real number"):
            RankTolerance(relative_cutoff=rel)
    assert RankTolerance(np.float64(1e-3)).cutoff((2, 3), 2.0) == 2e-3


def test_rank_tolerance_controls_rank():
    m = np.diag([1.0, 1e-6])
    assert Svd(m).rank() == 2
    assert Svd(m).rank(RankTolerance(relative_cutoff=1e-3)) == 1


def test_a_tolerance_that_is_not_a_rank_tolerance_is_refused():
    # a bare cutoff is not a tolerance: it is refused by every rank decision,
    # a design's and a generator's too, not read as a relative cutoff
    m = np.diag([1.0, 1e-6])
    calls = [lambda tol: pinv(m, tol), lambda tol: Svd(m).rank(tol),
             lambda tol: DesignPartition(np.eye(2, 3), np.ones((2, 1)), tol=tol),
             lambda tol: gen_covariates(CovariateConfig("spiked"), 2, 3, Seed(1).rng(0), tol)]
    for call in calls:
        for tol in (1e-3, "1e-3", True):
            with pytest.raises(InvalidInputError, match="^tol must be a RankTolerance or None"):
                call(tol)


def test_nullspace_component_annihilated():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 9))
    v = rng.standard_normal(9)
    z = nullspace_component(a, v)
    assert np.max(np.abs(a @ z)) <= 1e-10


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert np.array_equal(read_matrix_csv(path), m)


def test_matrix_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_matrix_csv(tmp_path / "absent.csv")


def test_matrix_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    for content in (b"1.0,2.0\nthree,4.0\n", b"1.0,2.0\n\xff\xfe,4.0\n"):
        path.write_bytes(content)
        with pytest.raises(InvalidInputError):
            read_matrix_csv(path)


def test_matrix_csv_refuses_empty_and_non_finite_files(tmp_path):
    # the empty check comes first; the finite check is as_matrix's, named by the path
    path = tmp_path / "m.csv"
    for content, problem in (("# only a comment\n", "is empty"),
                             ("1.0,nan\n2.0,3.0\n", "contains non-finite entries"),
                             ("1.0,2.0\n-inf,3.0\n", "contains non-finite entries")):
        path.write_text(content, encoding="utf-8")
        with pytest.raises(InvalidInputError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"matrix CSV {path} {problem}"


def test_from_factors_builds_vt_on_first_read():
    # vt is S^-1 U^T a, bit for bit, built once and kept; the rank, the
    # inverse Gram and the kept factors read u and s alone and never build it
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    s = np.array([5.0, 4.0, 3.0, 2.0, 1.5, 1.0])
    a = (u * s) @ np.linalg.qr(rng.standard_normal((9, 6)))[0].T
    f = Svd.from_factors(a, u, s)
    f.rank(), f.gram_inverse(), projector(f)
    assert f._vt is None
    assert np.array_equal(f.vt, (u.T @ a) / s[:, None])
    assert f.vt is f.vt


def test_from_factors_builds_a_on_first_read():
    # a matrix given as (shape, build) is built once, when a (or vt) is
    # first read; the rank, the inverse Gram and the kept factors never build it
    rng = np.random.default_rng(12)
    u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    s = np.array([5.0, 4.0, 3.0, 2.0, 1.5, 1.0])
    a = (u * s) @ np.linalg.qr(rng.standard_normal((9, 6)))[0].T
    calls = []
    f = Svd.from_factors(((6, 9), lambda: calls.append(1) or a), u, s)
    f.rank(), f.gram_inverse(), f.kept(), projector(f)
    assert calls == [] and f.shape == (6, 9)
    assert np.array_equal(f.vt, (u.T @ a) / s[:, None])
    # built once, kept as a read-only view of what the builder returned
    assert f.a is f.a and calls == [1]
    assert np.shares_memory(f.a, a) and not f.a.flags.writeable


def test_householder_helper_without_dormqr_matches_lapack(monkeypatch):
    # the lookup finds no symbol and returns None; numpy's explicit Q then
    # gives the same signed Q^T x, and Q^T, as the reflectors, to 10 q eps ||x||
    from pregols import linalg

    if linalg._dormqr() is None:
        pytest.skip("numpy's LAPACK exports no dormqr")
    rng = np.random.default_rng(13)
    cases = [(rng.standard_normal((q, n)), rng.standard_normal((q, k)))
             for q, n, k in [(99, 99, 6), (98, 80, 1), (99, 20, 99), (7, 7, 3), (10, 3, 20)]]
    fast = [(linalg._householder_qt(g)(x), linalg._householder_qt(g)()) for g, x in cases]
    with monkeypatch.context() as m:
        m.setattr(linalg, "_numpy_function", lambda name: None)
        assert linalg._dormqr.__wrapped__() is None
    monkeypatch.setattr(linalg, "_dormqr", lambda: None)
    for (g, x), (got, got_rows) in zip(cases, fast):
        want, want_rows = linalg._householder_qt(g)(x), linalg._householder_qt(g)()
        q, n = g.shape
        assert got.shape == want.shape == (n, x.shape[1])
        assert got_rows.shape == want_rows.shape == (n, q)
        bound = 10 * q * np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= bound * np.abs(x).sum(axis=0).max()
        assert np.max(np.abs(got_rows - want_rows)) <= bound


def test_householder_helper_signs_r_nonnegative():
    # Q^T g is the R factor, upper triangular with a nonnegative diagonal;
    # the explicit Q^T has orthonormal rows and gives the same product
    from pregols import linalg

    rng = np.random.default_rng(14)
    for q, n in [(99, 99), (98, 80), (40, 7)]:
        g = rng.standard_normal((q, n))
        qt = linalg._householder_qt(g)
        r, rows = qt(g), qt()
        bound = 10 * q * np.finfo(float).eps
        assert np.all(np.diag(r) > 0)
        assert np.max(np.abs(np.tril(r, -1))) <= bound * np.linalg.norm(g, 2)
        assert np.max(np.abs(rows @ rows.T - np.eye(n))) <= bound
        assert np.max(np.abs(rows @ g - r)) <= bound * np.linalg.norm(g, 2)
