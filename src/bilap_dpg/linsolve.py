"""Sparse least-squares solve of the assembled DPG system.

The solution minimizes the whitened residual |load - W x|.  Its
normal-equation matrix A = W^T W is SPD in exact arithmetic, so
asymmetric or indefinite input raises.  A + SHIFT diag(A) is factored
once, and the factor preconditions conjugate gradients on W (CGLS).
Forced diagonal pivots never compare magnitudes, so factoring the
Jacobi-scaled D^-1/2 A D^-1/2 + SHIFT I would only change rounding.
The `bilap_dpg.linsolve` logger gets a warning when CGLS stops at its
iteration cap and one debug record per solve; no handler is installed.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse.linalg

log = logging.getLogger(__name__)

# relative to A's diagonal: on strongly graded meshes A has near-null
# directions below roundoff, where the unshifted factor meets nonpositive
# pivots; CGLS takes the shift back out of the answer
SHIFT = 1e-15
# CGLS stops at g^T M^-1 g <= RTOL^2 of its start, g = W^T r (1e-10
# leaves normal-equation residuals above 1e-12 on graded meshes)
RTOL = 1e-12
# a bound, not a target: the sector study to 20,000 dofs takes at most
# 36 steps a level, and CGLS run far past convergence drifts
MAXITER = 200


class LinearSolveError(Exception):
    """Factorization or iteration failure."""


class NotPositiveDefiniteError(LinearSolveError):
    """Matrix failed a positive-definiteness test."""


def sparse_spd_solve(a, b, w, load):
    """Minimize |load - W x|, given A = W^T W and b = W^T load.

    A + SHIFT diag(A) is factored once by symmetric-mode LU, ordered
    by minimum degree on A + A^T, and preconditions CGLS on W.

    Parameters
    ----------
    a : scipy.sparse matrix (symmetric positive definite)
    b : (n,) right-hand side W^T load, which CGLS starts from
    w : scipy.sparse.linalg.LinearOperator, (m, n)
    load : (m,) vector

    Raises
    ------
    NotPositiveDefiniteError
        On a nonpositive diagonal entry or pivot, or an exactly
        singular factor.
    LinearSolveError
        On asymmetry, factorization failure or a residual above
        tolerance.
    """
    n = a.shape[0]
    scale = abs(a).max() if a.nnz else 1.0
    defect = abs(a - a.T).max() if a.nnz else 0.0
    if defect > 1e-12 * max(scale, 1e-300):
        raise LinearSolveError("matrix is not symmetric")
    # a zero diagonal entry would make SuperLU pivot off the diagonal
    shifted = scipy.sparse.csc_matrix(a, dtype=float, copy=True)
    diag = shifted.diagonal()
    bad = np.nonzero(diag <= 0)[0]
    if bad.size:
        raise NotPositiveDefiniteError(f"matrix is not positive definite (pivot {bad[0]})")
    # every diagonal entry is stored, so only values change: the ordering
    # and the fill follow the assembled pattern, explicit zeros included
    shifted.setdiag(diag * (1 + SHIFT))
    # diagonal pivoting in symmetric mode makes LU act as LDL^T, so the
    # U diagonal carries the inertia and certifies positive definiteness;
    # the pattern is symmetric, so the fill-reducing ordering is minimum
    # degree on A + A^T rather than COLAMD's ordering of A^T A
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
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: exactly singular factor ({exc}) factoring n={n}"
        ) from None
    del shifted  # SuperLU holds its own copy; the pivot read comes next
    pivots = lu.U.diagonal()
    bad = np.nonzero(pivots <= 0)[0]
    if bad.size:
        pivot = int(bad[0])
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: nonpositive pivot {pivot} "
            f"({pivots[pivot]:.3e}) factoring n={n}"
        )

    x, iterations = _cgls(w, load, b, lu.solve)
    residual = np.linalg.norm(a @ x - b)
    # the shift's margin: A's column j is eliminated at step perm_c[j]
    log.debug(
        "sparse SPD solve: n=%d nnz(A)=%d nnz(L+U)=%d shift=%g min_pivot_ratio=%.3e "
        "cgls_iterations=%d relative_residual=%.3e", n, a.nnz, lu.nnz, SHIFT,
        np.min(pivots[lu.perm_c] / diag, initial=np.inf), iterations,
        residual / max(np.linalg.norm(b), 1e-300),
    )
    tol = 1e-10 * max(np.linalg.norm(b), scale * np.linalg.norm(x), 1e-300)
    if not residual <= tol:  # a NaN residual fails too
        raise LinearSolveError(f"normal-equation residual {residual:.3e} above tolerance")
    return x


def _cgls(w, load, b, precond):
    """Preconditioned CGLS on min |load - W x| from zero: CG on the
    normal equations that updates r = load - W x and forms g = W^T r
    from it at every step (Bjorck 1996); `precond` applies M^-1 to g.
    b must be W^T load, the first g.  Returns (x, iterations).  A NaN
    g^T M^-1 g ends it at that step; past MAXITER steps it warns and
    returns the last iterate, whose energy-norm error is the smallest.
    """
    r = np.array(load, dtype=float)
    x = np.zeros(w.shape[1])
    g = b
    z = precond(g)
    gamma = gamma_0 = g @ z
    if gamma == 0:
        return x, 0
    p = z
    del g, z
    # the vectors are updated in place, and each step's q, g and z are
    # dropped before the next W product, whose temporaries set the peak
    for it in range(1, MAXITER + 1):
        q = w.matvec(p)
        alpha = gamma / (q @ q)
        x += alpha * p
        q *= alpha
        r -= q
        del q
        g = w.rmatvec(r)
        z = precond(g)
        gamma, gamma_old = g @ z, gamma
        del g
        if not gamma > RTOL**2 * gamma_0:  # NaN stops too
            return x, it
        p *= gamma / gamma_old
        p += z
        del z
    log.warning(
        "CGLS stopped at its cap of %d iterations at relative preconditioned "
        "normal residual %.3e (target %.0e)",
        MAXITER, np.sqrt(gamma / gamma_0), RTOL,
    )
    return x, MAXITER
