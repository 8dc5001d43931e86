"""Dense real-matrix primitives with one shared rank tolerance.

Everything downstream (interpolators, leave-one-out closed forms, variance
estimators, the simulation harness) funnels its rank decisions through the
thin SVD held by :class:`Svd`, governed by a single :class:`RankTolerance`.
Keeping one cutoff makes rank decisions reproducible across operations
instead of depending on per-call epsilons.  ``tol=None`` always means
``RankTolerance()``: a caller that wants another cutoff passes it.

Matrices are plain two-dimensional float64 ``numpy`` arrays.  File exchange
uses headerless CSV, one row per line, dimensions inferred from the file.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError

__all__ = [
    "RankTolerance",
    "Svd",
    "pinv",
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
        rel = self.relative_cutoff
        if rel is None:
            return
        # a cutoff of 1 or more (or inf) would give every matrix rank 0
        if not 0.0 < as_real(rel, "relative_cutoff") < 1.0:
            raise InvalidInputError(
                f"relative_cutoff must be finite with 0 < cutoff < 1, got {rel!r}"
            )

    def cutoff(self, shape: tuple[int, int], smax: float) -> float:
        """Absolute cutoff for a matrix of the given shape and largest singular value."""
        rel = self.relative_cutoff
        if rel is None:
            rel = max(shape) * np.finfo(np.float64).eps
        return rel * smax


_DEFAULT_TOL = RankTolerance()  # what ``tol=None`` means, built once


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


def as_vector(v, name: str = "vector", length: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, of ``length`` entries when it is given."""
    a = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if length is not None and a.size != length:
        raise InvalidInputError(f"{name} has length {a.size}, expected {length}")
    return a


def is_int(v) -> bool:
    """Whether ``v`` is an integer: a :class:`numbers.Integral` other than a ``bool``."""
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether ``v`` is a real number: a :class:`numbers.Real` other than a ``bool``."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def as_int(v, name: str) -> int:
    """``int(v)``, or :class:`InvalidInputError` naming ``name`` unless :func:`is_int`."""
    if not is_int(v):
        raise InvalidInputError(f"{name} must be an integer, got {v!r}")
    return int(v)


def as_real(v, name: str) -> float:
    """``float(v)``, or :class:`InvalidInputError` naming ``name`` unless it is a real in range."""
    if is_real(v):
        try:
            return float(v)
        except OverflowError:  # an int or Fraction beyond 1.8e308
            pass
    raise InvalidInputError(f"{name} must be a real number, got {v!r}")


def as_flag(v, name: str) -> bool:
    """``bool(v)``, or :class:`InvalidInputError` naming ``name`` unless a bool or numpy bool."""
    if not isinstance(v, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a boolean, got {v!r}")
    return bool(v)


def as_choice(v, choices: tuple[str, ...] | list[str], what: str) -> str:
    """``v``, or :class:`InvalidInputError` unless it is a string among ``choices``."""
    if not isinstance(v, str) or v not in choices:
        raise InvalidInputError(f"unknown {what} {v!r}; choose from {choices}")
    return v


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``: nothing is copied, and ``a``'s own flags are left as they are."""
    view = a.view()
    view.setflags(write=False)
    return view


class Svd:
    """Thin SVD ``a = u diag(s) vt`` of one matrix, kept so it is factored once.

    Every quantity derived from it applies a :class:`RankTolerance` to the
    same singular values, so the pseudoinverse, the numeric rank, the inverse
    Gram matrix and the kept factors of one matrix always agree on its rank.
    The factored matrix is kept as ``a``, so a rank check can hand the whole
    factorization on (a :class:`~pregols.interpolators.DesignPartition`
    accepts an ``Svd`` of ``W`` or ``T``; ``W`` lives there only as
    ``w_svd.a``).  An empty matrix has empty factors.  ``a``, ``u``, ``s`` and
    ``vt`` are read-only views, so a kept factorization cannot be written.
    """

    __slots__ = ("_a", "shape", "u", "s", "_vt")

    def __init__(self, a: np.ndarray):
        self._a = _readonly(a)
        self.shape = a.shape
        if a.size == 0:
            u, s, vt = np.zeros((a.shape[0], 0)), np.zeros(0), np.zeros((0, a.shape[1]))
        else:
            u, s, vt = np.linalg.svd(a, full_matrices=False)
        self.u, self.s, self._vt = _readonly(u), _readonly(s), _readonly(vt)

    @classmethod
    def from_factors(cls, a, u: np.ndarray, s: np.ndarray) -> "Svd":
        """An ``Svd`` of ``a`` from its left factor and singular values, known by construction.

        Nothing is factored or checked: the caller guarantees
        ``a = u diag(s) vt`` for some ``vt`` with orthonormal rows, with
        orthonormal columns in ``u`` and ``s`` positive and descending, as
        :meth:`rank` reads ``s[0]`` as the largest singular value.  ``vt``
        is then ``S^{-1} U^T a``, built on first read (:attr:`vt`).  ``a``
        may be ``(shape, build)`` instead, built by ``build()`` on first
        read: a spiked or geometric draw keeps its Haar-like factor in
        Householder form and forms no ``W`` unless it is read (:mod:`~pregols.dgp`).
        """
        self = object.__new__(cls)
        self.shape, self._a = (a.shape, _readonly(a)) if isinstance(a, np.ndarray) else a
        self.u, self.s, self._vt = _readonly(u), _readonly(s), None
        return self

    @property
    def a(self) -> np.ndarray:
        """The factored matrix, built once if it was given as a builder."""
        if callable(self._a):
            self._a = _readonly(self._a())
        return self._a

    @property
    def vt(self) -> np.ndarray:
        """The right factor ``V^T``, kept once built.  :meth:`rank`,
        :meth:`kept` and :meth:`gram_inverse` never read it."""
        if self._vt is None:
            self._vt = _readonly((self.u.T @ self.a) / self.s[:, None])
        return self._vt

    def kept(self, tol: RankTolerance | None = None):
        """The left factor and singular values above the cutoff, ``(u_r, s_r)``."""
        r = self.rank(tol)
        return self.u[:, :r], self.s[:r]

    def rank(self, tol: RankTolerance | None = None) -> int:
        """Number of singular values above the cutoff."""
        tol = _DEFAULT_TOL if tol is None else tol
        if not isinstance(tol, RankTolerance):  # every rank decision comes through here
            raise InvalidInputError(f"tol must be a RankTolerance or None, got {tol!r}")
        cut = tol.cutoff(self.shape, float(self.s[0]) if self.s.size else 0.0)
        return int(np.sum(self.s > cut))

    def pinv(self, tol: RankTolerance | None = None) -> np.ndarray:
        u, s = self.kept(tol)
        return (self.vt[:s.size].T / s) @ u.T

    def gram_inverse(self, tol: RankTolerance | None = None) -> np.ndarray:
        """``(A A^T)^+ = U diag(s^-2) U^T`` from the factors of ``A``, keeping every
        direction :meth:`rank` counts; forming ``A A^T`` would square cond(A)."""
        u, s = self.kept(tol)
        return (u / s**2) @ u.T


@functools.cache
def _numpy_function(name: str):
    """The C function ``name`` of the BLAS/LAPACK numpy links, not of another copy, or ``None``."""
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        return getattr(ctypes.CDLL(_umath_linalg.__file__), name)
    except (OSError, AttributeError):
        return None


@functools.cache
def _dormqr():
    """``apply(h, tau, c, trans)``, ``H^T c`` (``b"T"``) or ``H c`` (``b"N"``) by numpy's ``dormqr``.

    ``(h, tau) = np.linalg.qr(g, mode="raw")`` of a q x n ``g`` keeps the
    reflectors of ``H = H_1 ... H_n``, whose first n columns are the thin
    ``Q``; ``c`` is q x k.  ``None`` without the symbol: ILP64 names are
    tried first, then the plain one with C ints.  The conversions cost more
    than the product at n = 20, so the addresses come from
    ``ctypes.c_char.from_buffer``, a third of the time of ``.ctypes.data``:
    8.4 us a call for k = 6, 4 us of it in LAPACK, where reading
    ``.ctypes.data`` took 11 us.  Below 16 columns the least workspace picks
    the unblocked code, in half the time of the blocked for 6 columns at
    n = 99.
    """
    import ctypes

    for name, int_t in (("scipy_dormqr_64_", np.int64), ("dormqr_64_", np.int64),
                        ("dormqr_", np.intc)):
        if (fn := _numpy_function(name)) is not None:
            break
    else:
        return None
    # SIDE, TRANS, M, N, K, A, LDA, TAU, C, LDC, WORK, LWORK, INFO, then the
    # hidden lengths of the two strings
    fn.argtypes = (ctypes.c_char_p,) * 2 + (ctypes.c_void_p,) * 11 + (ctypes.c_size_t,) * 2
    fn.restype, step = None, np.dtype(int_t).itemsize

    def at(a):  # refuses an array that is not C-contiguous and writable
        return ctypes.addressof(ctypes.c_char.from_buffer(a))

    def apply(h, tau, c, trans):
        (n, q), k = h.shape, c.shape[1]
        lwork = k if k < 16 else 32 * k + 4160
        a = np.array(h, order="C")  # LAPACK's column-major A is h^T
        out = np.array(c.T, dtype=np.float64, order="C")  # c column-major, then H^T c
        work, ints = np.empty(lwork), np.array([q, k, n, q, q, lwork, 0], dtype=int_t)
        i = at(ints)
        fn(b"L", trans, i, i + step, i + 2 * step, at(a), i + 3 * step, at(tau), at(out),
           i + 4 * step, at(work), i + 5 * step, i + 6 * step, 1, 1)
        if ints[6]:
            raise ValueError(f"dormqr rejected argument {-ints[6]}")
        return out.T

    return apply


def _householder_qt(g: np.ndarray):
    """``qt(x) = Q^T x``, and ``qt() = Q^T``, for the thin ``Q`` of a tall ``g = Q R``, ``R_jj >= 0``.

    ``Q`` stays n Householder reflectors (Golub & Van Loan 5.2), applied to
    k columns in O(q n k) by :func:`_dormqr`; ``Q^T`` itself is ``H`` applied
    to the first n columns of ``I_q``.  Without ``dormqr`` numpy forms ``Q``.
    """
    (q, n), apply = g.shape, _dormqr()
    if apply is None:
        qm, r = np.linalg.qr(g)
        signs = np.copysign(1.0, r.diagonal())[:, None]
        return lambda x=None: (qm * signs.T).T if x is None else (qm.T @ x) * signs
    h, tau = np.linalg.qr(g, mode="raw")  # h is n x q, with R[j, j] = h[j, j]
    signs = np.copysign(1.0, h.diagonal())[:, None]
    return lambda x=None: ((apply(h, tau, np.eye(q, n), b"N") * signs.T).T if x is None
                           else apply(h, tau, x, b"T")[:n] * signs)


def require_rank(f: Svd, rank: int, tol: RankTolerance | None, what: str) -> Svd:
    """``f``, or :class:`RankAssumptionError` naming ``what`` when its rank is not ``rank``."""
    r = f.rank(tol)
    if r != rank:
        raise RankAssumptionError(
            f"rank assumption violated: {what} {rank}, numeric rank is {r}"
        )
    return f


def full_row_rank_svd(a: np.ndarray, tol: RankTolerance | None = None) -> Svd:
    """The thin SVD of ``a``, raising :class:`RankAssumptionError` unless it has full row rank."""
    return require_rank(Svd(a), a.shape[0], tol, "design must have full row rank")


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
        Cutoff policy; ``None`` means ``RankTolerance()``.

    Returns
    -------
    np.ndarray
        The pseudoinverse, with shape transposed relative to ``m``.
    """
    return Svd(as_matrix(m)).pinv(tol)


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
    return as_matrix(a, f"matrix CSV {path}")


def write_matrix_csv(path, m) -> None:
    """Write a matrix as headerless CSV with full float64 round-trip precision."""
    a = as_matrix(m)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
