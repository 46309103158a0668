"""Dense and sparse symmetric positive definite linear algebra.

Dense factorizations serve the per-element Gram/Schur work; the sparse
path solves the assembled normal-equation system.  A failed Cholesky on
a Gram matrix signals a formulation bug (those matrices are SPD in
exact arithmetic), so non-SPD input raises instead of falling through.

The sparse solve reports through the `bilap_dpg.linsolve` logger: a
warning when the eps-shift refactorization fires or the polish stops
short of its tolerance, and one debug record per solve with its sizes.
The library installs no handler.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

log = logging.getLogger(__name__)


class LinearSolveError(Exception):
    """Factorization or iteration failure."""


class NotPositiveDefiniteError(LinearSolveError):
    """Matrix failed a positive-definiteness test.

    `pivot` is the 0-based index of the first offending pivot when known.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


def _symmetry_defect(a):
    scale = np.abs(a).max()
    if scale == 0:
        return 0.0
    return float(np.abs(a - a.T).max() / scale)


def _find_bad_pivot(a):
    # failure path only: locate the first non-SPD leading minor
    for k in range(1, len(a) + 1):
        try:
            np.linalg.cholesky(a[:k, :k])
        except np.linalg.LinAlgError:
            return k - 1
    return None


def cholesky_spd(a, label="matrix"):
    """Lower Cholesky factor of a dense symmetric matrix.

    Raises NotPositiveDefiniteError naming the first bad pivot.
    """
    a = np.asarray(a, dtype=float)
    if _symmetry_defect(a) > 1e-13 * max(1.0, len(a)):
        raise LinearSolveError(f"{label} is not symmetric")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pivot = _find_bad_pivot(a)
        raise NotPositiveDefiniteError(
            f"{label} is not positive definite (pivot {pivot})", pivot=pivot
        ) from None


def dense_spd_solve(a, rhs):
    """Solve a dense SPD system for one or several right-hand sides."""
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    chol = cholesky_spd(a)
    x = scipy.linalg.cho_solve((chol, True), rhs)
    residual = np.linalg.norm(a @ x - rhs)
    tol = 1e-11 * max(np.linalg.norm(rhs), np.abs(a).max() * np.linalg.norm(x), 1e-300)
    if residual > tol:
        raise LinearSolveError(f"dense solve residual {residual:.3e} above tolerance")
    return x


def sparse_spd_solve(a, b):
    """Solve a sparse SPD system by symmetric-mode LU.

    The factorization is ordered by minimum degree on A + A^T and
    polished by LU-preconditioned conjugate gradients.

    Parameters
    ----------
    a : scipy.sparse matrix (symmetric positive definite)
    b : (n,) right-hand side

    Raises
    ------
    NotPositiveDefiniteError
        On a nonpositive pivot or an exactly singular factor that
        survives the eps-shift retry.
    LinearSolveError
        On asymmetry, factorization failure or a residual above
        tolerance.
    """
    a = a.tocsc()
    b = np.asarray(b, dtype=float)
    defect = abs(a - a.T).max() if a.nnz else 0.0
    scale = abs(a).max() if a.nnz else 1.0
    if defect > 1e-12 * max(scale, 1e-300):
        raise LinearSolveError("matrix is not symmetric")
    return _sparse_direct(a, b)


def _sparse_direct(a, b):
    # symmetric Jacobi equilibration first: column scalings of the
    # underlying least-squares problem vary over many orders of
    # magnitude on strongly graded meshes, and the scaled solve is the
    # same problem in rescaled unknowns
    n = a.shape[0]
    diag = a.diagonal()
    bad = np.nonzero(diag <= 0)[0]
    if bad.size:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {bad[0]})", pivot=int(bad[0])
        )
    s = 1.0 / np.sqrt(diag)
    # scaling the stored entries, unlike a sparse product, keeps entries
    # that are zero by cancellation, so the ordering and the fill follow
    # the assembled pattern and not the rounding of its values
    a_scaled = a.copy()
    a_scaled.data = s[a.indices] * a.data * np.repeat(s, np.diff(a.indptr))
    # diagonal pivoting in symmetric mode makes LU act as LDL^T, so the
    # U diagonal carries the inertia and certifies positive definiteness;
    # the pattern is symmetric, so the fill-reducing ordering is minimum
    # degree on A + A^T rather than COLAMD's ordering of A^T A.
    # A nonpositive pivot at roundoff scale or an exactly singular factor
    # (near-null directions, e.g. gauge remnants on graded meshes) is
    # retried once with an eps-level shift of the unit-diagonal scaled
    # matrix; genuine indefiniteness or singularity survives it and raises.
    lu, eps_shift = None, 1e-12
    for shift in (0.0, eps_shift):
        shifted = a_scaled
        if shift:
            shifted = a_scaled.copy()
            shifted.setdiag(a_scaled.diagonal() + shift)
        try:
            lu = scipy.sparse.linalg.splu(
                shifted,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise LinearSolveError(f"sparse factorization failed: {exc}") from None
            failure, pivot = f"exactly singular factor ({exc})", None
        else:
            pivots = lu.U.diagonal()
            bad = np.nonzero(pivots <= 0)[0]
            if bad.size == 0:
                break
            pivot = int(bad[0])
            failure = f"nonpositive pivot {pivot} ({pivots[pivot]:.3e})"
            lu = None
        if shift == 0.0:
            log.warning(
                "%s factoring n=%d; refactoring with diagonal shift %g",
                failure, n, eps_shift,
            )
    if lu is None:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: {failure} factoring n={n} "
            f"even with diagonal shift {eps_shift:g}", pivot=pivot,
        )
    def precond(r):
        return s * lu.solve(s * r)

    # LU-preconditioned conjugate gradients: with an exact factorization
    # this converges immediately, and with the shifted factorization it
    # polishes the solution without amplifying near-null directions
    x, iterations = _pcg(a, b, precond, rtol=1e-13, maxiter=60)
    residual = np.linalg.norm(a @ x - b)
    log.debug(
        "sparse SPD solve: n=%d nnz(A)=%d nnz(L+U)=%d shift=%g "
        "polish_iterations=%d relative_residual=%.3e",
        n, a.nnz, lu.nnz, shift, iterations,
        residual / max(np.linalg.norm(b), 1e-300),
    )
    tol = 1e-10 * max(
        np.linalg.norm(b), abs(a).max() * np.linalg.norm(x), 1e-300
    )
    if residual > tol:
        raise LinearSolveError(f"direct solve residual {residual:.3e} above tolerance")
    return x


def _pcg(a, b, precond, rtol, maxiter):
    """Preconditioned CG from zero; returns (x, iterations).

    Stops at relative residual `rtol`; otherwise returns the iterate of
    smallest residual and warns.
    """
    norm_b = np.linalg.norm(b)
    x = np.zeros(len(b))
    if norm_b == 0:
        return x, 0
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = r @ z
    best_x, best_res = x.copy(), norm_b
    for it in range(1, maxiter + 1):
        ap = a @ p
        pap = p @ ap
        if pap <= 0:
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        res = np.linalg.norm(r)
        if res < best_res:
            best_res, best_x = res, x.copy()
        if res <= rtol * norm_b:
            return x, it
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    log.warning(
        "PCG polish stopped after %d iterations at relative residual %.3e "
        "(target %.0e); returning the best iterate", it, best_res / norm_b, rtol,
    )
    return best_x, it
