import os
import subprocess
import sys

import numpy as np
import pytest

import pregols
from pregols import (
    InvalidInputError,
    RankTolerance,
    complement_projector,
    gram_inverse,
    numeric_rank,
    nullspace_component,
    pinv,
    projector,
    read_matrix_csv,
    write_matrix_csv,
)

from oracles import elimination_rank


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
    p = projector(np.ones((n, 1)))
    assert np.allclose(p, np.full((n, n), 1.0 / n), atol=1e-12)


def test_projector_identity():
    assert np.allclose(projector(np.eye(4)), np.eye(4), atol=1e-12)


def test_projector_properties():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 2))
    p = projector(m)
    assert np.max(np.abs(p @ p - p)) <= 1e-10
    assert np.max(np.abs(p - p.T)) <= 1e-10
    assert np.max(np.abs(p @ m - m)) <= 1e-10
    assert np.max(np.abs(complement_projector(m) - (np.eye(5) - p))) <= 1e-14


def test_gram_inverse_identity():
    assert np.allclose(gram_inverse(np.eye(5)), np.eye(5), atol=1e-12)


def test_gram_inverse_orthonormal_rows():
    # rows of a scaled DFT-like construction: orthonormal by design
    m = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert np.allclose(gram_inverse(m), np.eye(2), atol=1e-12)


def test_gram_inverse_matches_lu_inverse():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((4, 7))
    direct = np.linalg.solve(w @ w.T, np.eye(4))  # LU-based oracle
    assert np.max(np.abs(gram_inverse(w) - direct)) <= 1e-8


def test_gram_inverse_symmetric_positive_diagonal():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 11))
    g = gram_inverse(w)
    assert np.max(np.abs(g - g.T)) <= 1e-10
    assert np.all(np.diag(g) > 0)


def test_numeric_rank_zero_matrix():
    assert numeric_rank(np.zeros((3, 3))) == 0


def test_numeric_rank_identity():
    assert numeric_rank(np.eye(4)) == 4


def test_numeric_rank_duplicated_row_matches_elimination():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 5))
    m[2] = m[0]
    assert numeric_rank(m) == 2
    assert elimination_rank(m) == 2


def test_numeric_rank_matches_elimination_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rows, cols, r = 6, 8, int(rng.integers(1, 6))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        assert numeric_rank(m) == elimination_rank(m) == r


def test_rank_tolerance_must_be_positive():
    with pytest.raises(InvalidInputError):
        RankTolerance(relative_cutoff=0.0)
    with pytest.raises(InvalidInputError):
        RankTolerance(relative_cutoff=-1e-8)
    # a cutoff of 1 or more gives every matrix rank 0
    for rel in (float("inf"), 1.0, 2.0, float("nan")):
        with pytest.raises(InvalidInputError, match="0 < cutoff < 1"):
            RankTolerance(relative_cutoff=rel)


def test_rank_tolerance_controls_rank():
    m = np.diag([1.0, 1e-6])
    assert numeric_rank(m) == 2
    assert numeric_rank(m, RankTolerance(relative_cutoff=1e-3)) == 1


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


def test_import_does_not_load_scipy_linalg():
    # importing scipy.linalg adds about 6 MB to the resident set of every
    # process that imports pregols; numpy's LAPACK bindings suffice
    src = os.path.dirname(os.path.dirname(os.path.abspath(pregols.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, pregols; print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
