"""Sparse least-squares solve of the assembled DPG system.

The solution minimizes the whitened residual |load - W x|.  A must be
its Gram matrix W^T W, which one seeded random product checks.
A^T with each diagonal entry SHIFT_ULPS units in the last place (ulps)
larger is factored once, from A's own CSR arrays read as CSC ones with
the shift written onto A's diagonal and taken off again, and the factor
preconditions conjugate gradients on W (CGLS), which raises if it finds
it indefinite.  A equals A^T only to rounding: the COO -> CSR
conversion sums duplicate triplets in no fixed order (7.3e-12 absolute
at most on the benchmark's final levels).  The probe certifies
A itself and CGLS works on W, so that rounding moves the preconditioner,
not the answer.
Forced diagonal pivots never compare magnitudes, so factoring the
shifted matrix scaled by its own diagonal to a unit one (Jacobi) would
only change rounding.
The `bilap_dpg.linsolve` logger gets a warning when CGLS stops at its
iteration cap and one debug record per solve; no handler is installed.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse.linalg

log = logging.getLogger(__name__)

# ulps added to each of A's diagonal entries: on strongly graded meshes
# A has near-null directions below roundoff, where the unshifted factor
# meets nonpositive pivots; CGLS takes the shift back out of the answer.
# One ulp still meets them on the sector at 25,576 and 47,144 free
# unknowns, and each ulp past two costs CGLS steps: two, three, four and
# six ulps take 25, 28, 32 and 37 steps on the final sector-s2-adaptive
# level
SHIFT_ULPS = 2
# CGLS stops at g^T M^-1 g <= RTOL^2 of its start, g = W^T r (1e-10
# leaves normal-equation residuals above 1e-12 on graded meshes)
RTOL = 1e-12
# a bound, not a target: the sector study to 20,000 dofs takes at most
# 25 steps a level, and CGLS run far past convergence drifts
MAXITER = 200
# splu's arguments.  Diagonal pivoting in symmetric mode makes LU act as
# LDL^T; the pattern is symmetric, so the fill-reducing ordering is
# minimum degree on A + A^T rather than COLAMD's ordering of A^T A.
# Panels of four columns leave the fill as it is and take 13 MB of
# workspace off the final square-s2-uniform factorization, which sets
# that study's peak memory; relax stays at SuperLU's default (relax=64
# with 16-column panels raised that factorization's fill 2.6 times)
SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    panel_size=4,
    options=dict(SymmetricMode=True),
)


def shifted_diagonal(diagonal):
    """A's diagonal as it is factored: each entry SHIFT_ULPS ulps larger."""
    return diagonal + SHIFT_ULPS * np.spacing(diagonal)


class LinearSolveError(Exception):
    """Factorization or iteration failure."""


class NotPositiveDefiniteError(LinearSolveError):
    """Matrix is not W^T W, or its factor is not positive definite."""


def sparse_spd_solve(a, b, w, load):
    """Minimize |load - W x|, given A = W^T W and b = W^T load.

    A^T with its diagonal shifted by `shifted_diagonal` is factored
    once by symmetric-mode LU with SPLU_OPTIONS, ordered by minimum
    degree on A + A^T, and preconditions CGLS on W.

    Parameters
    ----------
    a : scipy.sparse CSR matrix, W^T W, with every diagonal entry
        stored; its diagonal holds the shift while SuperLU factors it
        and is put back bit for bit, on return and on raise
    b : (n,) right-hand side W^T load, which CGLS starts from
    w : scipy.sparse.linalg.LinearOperator, (m, n)
    load : (m,) vector

    Raises
    ------
    NotPositiveDefiniteError
        When A z and W^T W z differ by over 1e-12 relative for a seeded
        z, on an unstored diagonal entry, on an exactly singular factor,
        or on an indefinite one.
    LinearSolveError
        On factorization failure or a residual above tolerance.
    """
    n = a.shape[0]
    scale = np.abs(a.data).max() if a.nnz else 1.0  # |A| whole would copy A
    # a random z sees any A - W^T W with high probability (Freivalds
    # 1977); the fixed seed keeps reruns bit-identical
    z = np.random.default_rng(0).standard_normal(n)
    az = a @ z
    probe_gap = np.linalg.norm(az - w.rmatvec(w.matvec(z))) / max(np.linalg.norm(az), 1e-300)
    if not probe_gap <= 1e-12:  # a NaN gap fails too
        raise NotPositiveDefiniteError(f"matrix is not W^T W: probe gap {probe_gap:.3e}, n={n}")
    # the shift goes onto A's stored diagonal in place, so only values
    # change: the ordering and the fill follow the assembled pattern,
    # explicit zeros included.  splu sums duplicates of its input in
    # place, so A does that first, before the diagonal's offsets are taken
    a.sum_duplicates()
    diag_at = np.flatnonzero(
        a.indices == np.repeat(np.arange(n, dtype=a.indices.dtype), np.diff(a.indptr))
    )
    if diag_at.size < n:  # a zero column of W
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: {n - diag_at.size} diagonal entries unstored, n={n}"
        )
    diagonal = a.data[diag_at]
    a.data[diag_at] = shifted_diagonal(diagonal)
    try:
        lu = scipy.sparse.linalg.splu(
            scipy.sparse.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape),
            **SPLU_OPTIONS,
        )
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise LinearSolveError(f"sparse factorization failed: {exc}") from None
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: exactly singular factor ({exc}) factoring n={n}"
        ) from None
    finally:
        a.data[diag_at] = diagonal  # SuperLU keeps no reference to its input

    x, iterations = _cgls(w, load, b, lu.solve)
    residual = np.linalg.norm(a @ x - b)
    log.debug(
        "sparse SPD solve: n=%d nnz(A)=%d nnz(L+U)=%d shift_ulps=%d probe_gap=%.3e "
        "cgls_iterations=%d relative_residual=%.3e", n, a.nnz, lu.nnz, SHIFT_ULPS,
        probe_gap, iterations, residual / max(np.linalg.norm(b), 1e-300),
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
    g^T M^-1 g <= 0 at the start (b != 0), or below -RTOL^2 of it later
    (not rounding at convergence), raises NotPositiveDefiniteError.
    """
    r = np.array(load, dtype=float)
    x = np.zeros(w.shape[1])
    if not b.any():
        return x, 0
    g = b
    z = precond(g)
    gamma = gamma_0 = g @ z
    if gamma_0 <= 0:
        raise NotPositiveDefiniteError(
            f"indefinite preconditioner: g^T M^-1 g = {gamma_0:.3e} at CGLS step 0, n={x.size}"
        )
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
        if gamma < -RTOL**2 * gamma_0:
            raise NotPositiveDefiniteError(
                f"indefinite preconditioner: g^T M^-1 g = {gamma:.3e} at CGLS step {it}, n={x.size}"
            )
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
