"""Dense real-matrix primitives with one shared rank tolerance.

Everything downstream (interpolators, leave-one-out closed forms, variance
estimators, the simulation harness) funnels its rank decisions through the
thin SVD held by :class:`Svd`, governed by a single :class:`RankTolerance`.
Keeping one cutoff makes rank decisions reproducible across operations
instead of depending on per-call epsilons.

Matrices are plain two-dimensional float64 ``numpy`` arrays.  File exchange
uses headerless CSV, one row per line, dimensions inferred from the file.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError

__all__ = [
    "RankTolerance",
    "get_default_tolerance",
    "set_default_tolerance",
    "pinv",
    "projector",
    "complement_projector",
    "gram_inverse",
    "numeric_rank",
    "nullspace_component",
    "read_matrix_csv",
    "write_matrix_csv",
]


@dataclass(frozen=True)
class RankTolerance:
    """Relative singular-value cutoff for rank decisions.

    A singular value ``s`` counts as nonzero when ``s > relative_cutoff * smax``
    where ``smax`` is the largest singular value.  ``relative_cutoff=None``
    selects the default ``max(rows, cols) * machine_epsilon``.
    """

    relative_cutoff: float | None = None

    def __post_init__(self) -> None:
        # a cutoff of 1 or more (or inf) would give every matrix rank 0
        if self.relative_cutoff is not None and not (0.0 < self.relative_cutoff < 1.0):
            raise InvalidInputError(
                f"relative_cutoff must be finite with 0 < cutoff < 1, got {self.relative_cutoff!r}"
            )

    def cutoff(self, shape: tuple[int, int], smax: float) -> float:
        """Absolute cutoff for a matrix of the given shape and largest singular value."""
        rel = self.relative_cutoff
        if rel is None:
            rel = max(shape) * np.finfo(np.float64).eps
        return rel * smax


_default_tolerance: ContextVar[RankTolerance] = ContextVar(
    "pregols_default_tolerance", default=RankTolerance()
)


def get_default_tolerance() -> RankTolerance:
    """Tolerance used whenever an operation receives ``tol=None``."""
    return _default_tolerance.get()


def set_default_tolerance(tol: RankTolerance) -> None:
    """Replace the default tolerance in the current context (e.g. from the CLI ``--rank-tol``).

    The default is a :class:`~contextvars.ContextVar`: a change made in one
    thread, or inside :meth:`contextvars.Context.run`, is not seen by
    another thread or outside that context.
    """
    if not isinstance(tol, RankTolerance):
        raise InvalidInputError("tol must be a RankTolerance")
    _default_tolerance.set(tol)


def _resolve(tol: RankTolerance | None) -> RankTolerance:
    return _default_tolerance.get() if tol is None else tol


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising :class:`InvalidInputError` otherwise."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    a = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _rank(s: np.ndarray, shape: tuple[int, int], tol: RankTolerance | None) -> int:
    """Number of the descending singular values ``s`` above the cutoff."""
    cut = _resolve(tol).cutoff(shape, float(s[0]) if s.size else 0.0)
    return int(np.sum(s > cut))


class Svd:
    """Thin SVD ``a = u diag(s) vt`` of one matrix, kept so it is factored once.

    Every quantity derived from it applies a :class:`RankTolerance` to the
    same singular values, so the pseudoinverse, the numeric rank, the inverse
    Gram matrix and the column-space projector of one matrix always agree on
    its rank.  The factored matrix is kept as ``a``, so a rank check can hand
    the whole factorization on (a :class:`~pregols.interpolators.DesignPartition`
    accepts an ``Svd`` of ``W`` or ``T``).  An empty matrix has empty factors.
    """

    __slots__ = ("a", "shape", "u", "s", "vt")

    def __init__(self, a: np.ndarray):
        self.a = a
        self.shape = a.shape
        if a.size == 0:
            self.u, self.s = np.zeros((a.shape[0], 0)), np.zeros(0)
            self.vt = np.zeros((0, a.shape[1]))
        else:
            self.u, self.s, self.vt = np.linalg.svd(a, full_matrices=False)

    @classmethod
    def from_factors(cls, a: np.ndarray, u: np.ndarray, s: np.ndarray,
                     vt: np.ndarray) -> "Svd":
        """An ``Svd`` of ``a`` from factors known by construction, with ``s`` descending.

        Nothing is factored or checked: the caller guarantees
        ``a = u diag(s) vt`` with orthonormal columns in ``u``, orthonormal
        rows in ``vt`` and ``s`` in descending order, as :meth:`rank` reads
        ``s[0]`` as the largest singular value.
        """
        self = object.__new__(cls)
        self.a, self.shape = a, a.shape
        self.u, self.s, self.vt = u, s, vt
        return self

    def kept(self, tol: RankTolerance | None = None):
        """The singular triplets above the cutoff, ``(u_r, s_r, vt_r)``."""
        r = self.rank(tol)
        return self.u[:, :r], self.s[:r], self.vt[:r]

    def rank(self, tol: RankTolerance | None = None) -> int:
        return _rank(self.s, self.shape, tol)

    def pinv(self, tol: RankTolerance | None = None) -> np.ndarray:
        u, s, vt = self.kept(tol)
        return (vt.T / s) @ u.T

    def gram_inverse(self, tol: RankTolerance | None = None) -> np.ndarray:
        u, s, _ = self.kept(tol)
        return (u / s**2) @ u.T

    def projector(self, tol: RankTolerance | None = None) -> np.ndarray:
        u = self.kept(tol)[0]
        return u @ u.T


def full_row_rank_svd(a: np.ndarray, tol: RankTolerance | None = None,
                      name: str = "design") -> Svd:
    """The thin SVD of ``a``, raising :class:`RankAssumptionError` unless it has full row rank."""
    f = Svd(a)
    r = f.rank(tol)
    if r != a.shape[0]:
        raise RankAssumptionError(
            f"rank assumption violated: {name} must have full row rank "
            f"{a.shape[0]}, numeric rank is {r}"
        )
    return f


def pinv(m, tol: RankTolerance | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via thin SVD with a relative cutoff.

    Singular values at or below ``tol.cutoff(shape, smax)`` are treated as
    zero.  The result satisfies the four Penrose criteria to high accuracy
    (see the test suite, which checks them at 1e-10 relative).

    Parameters
    ----------
    m : array_like
        Matrix to invert, any shape.
    tol : RankTolerance, optional
        Cutoff policy; defaults to the shared package tolerance.

    Returns
    -------
    np.ndarray
        The pseudoinverse, with shape transposed relative to ``m``.
    """
    return Svd(as_matrix(m)).pinv(tol)


def projector(m, tol: RankTolerance | None = None) -> np.ndarray:
    """Orthogonal projection onto the column space of ``m`` (symmetric, idempotent)."""
    return Svd(as_matrix(m)).projector(tol)


def complement_projector(m, tol: RankTolerance | None = None) -> np.ndarray:
    """Projection onto the orthogonal complement of the column space of ``m``."""
    a = as_matrix(m)
    return np.eye(a.shape[0]) - projector(a, tol)


def gram_inverse(m, tol: RankTolerance | None = None) -> np.ndarray:
    """Pseudoinverse of the row Gram matrix, ``(M M^T)^+ = U diag(s^-2) U^T``.

    Built from the SVD of ``M`` itself under the same cutoff as
    :func:`numeric_rank` and :func:`pinv`, so it keeps every direction that
    ``numeric_rank(M)`` counts.  Forming ``M M^T`` first would square the
    condition number and drop directions of ``M`` that the cutoff accepts.
    For a full-row-rank ``M`` this is the true inverse of ``M M^T`` and is
    symmetric positive definite.
    """
    return Svd(as_matrix(m)).gram_inverse(tol)


def numeric_rank(m, tol: RankTolerance | None = None) -> int:
    """Number of singular values above the cutoff.

    Computes the singular values alone, which costs about a third of the
    thin SVD that :class:`Svd` keeps.
    """
    a = as_matrix(m)
    if a.size == 0:
        return 0
    return _rank(np.linalg.svd(a, compute_uv=False), a.shape, tol)


def nullspace_component(m, v, tol: RankTolerance | None = None) -> np.ndarray:
    """Project ``v`` (vector or matrix of columns) onto the null space of ``m``.

    Used to sample non-canonical members of a least-squares solution set:
    adding any null-space vector to a solution keeps it a solution.
    """
    a = as_matrix(m)
    w = np.asarray(v, dtype=np.float64)
    return w - pinv(a, tol) @ (a @ w)


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV of decimal floats, one matrix row per line.

    A file with no data line is rejected before ``np.loadtxt`` sees it, as
    ``loadtxt`` would warn about it on stderr.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            has_data = any(line.split("#", 1)[0].strip() for line in fh)
            fh.seek(0)
            a = np.loadtxt(fh, delimiter=",", ndmin=2) if has_data else np.zeros((0, 0))
        except ValueError as exc:  # malformed numbers or text that is not UTF-8
            raise InvalidInputError(f"could not parse matrix CSV {path}: {exc}") from exc
    if a.size == 0:
        raise InvalidInputError(f"matrix CSV {path} is empty")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"matrix CSV {path} contains non-finite entries")
    return a


def write_matrix_csv(path, m) -> None:
    """Write a matrix as headerless CSV with full float64 round-trip precision."""
    a = as_matrix(m)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
