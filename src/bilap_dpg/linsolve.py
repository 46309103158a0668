"""Sparse least-squares solve of the assembled DPG system.

The solution minimizes the whitened residual |load - W x|.  A must be
its Gram matrix W^T W, which one seeded random product checks.  A is
only read: each test block's principal submatrix of it is copied, each
diagonal entry SHIFT_ULPS units in the last place (ulps) larger, and
factored read as its transpose, one block at a time.  One symmetric
sweep over the factors (multiplicative subspace correction, Xu 1992)
preconditions conjugate gradients on W (CGLS), which raises if it finds
the sweep indefinite.  A equals A^T only to rounding: the COO -> CSR
conversion sums duplicate triplets in no fixed order (7.3e-12 absolute
at most on the benchmark's final levels).  The probe certifies A itself
and CGLS works on W, so that rounding moves the preconditioner, not the
answer.  Forced diagonal pivots never compare magnitudes, so scaling a
block to a unit diagonal (Jacobi) would only change rounding.
The `bilap_dpg.linsolve` logger gets a warning when CGLS stops at its
iteration cap and one debug record per solve; no handler is installed.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse.linalg

log = logging.getLogger(__name__)

# ulps added to each diagonal entry of a block: on strongly graded
# meshes A has near-null directions below roundoff, where unshifted
# factors meet nonpositive pivots; CGLS takes the shift back out.  The
# sector study to 20,000 dofs takes 131, 132, 136, 140 and 146 steps (18,
# 18, 20, 21 and 23 on its last level) at one to four ulps and 1 + 1e-15
# times, and by the RTOL test alone 141, 137, 145, 151 and 161 (28, 23,
# 29, 32, 37); one ulp met nonpositive pivots when A was factored whole
SHIFT_ULPS = 2
# CGLS stops at g^T M^-1 g <= RTOL^2 of its start, g = W^T r (1e-10
# leaves normal-equation residuals above 1e-12 on graded meshes), or once
# the last ENERGY_DELAY decreases of |r|^2 sum to at most ENERGY_TOL^2
# |r|^2: they bound the energy error |W(x - x*)|^2 = |r|^2 - eta*^2 of the
# iterate that many steps back from below (Strakos & Tichy 2002)
RTOL = 1e-12
ENERGY_TOL = 1e-3
ENERGY_DELAY = 10  # 5 returned an error above ENERGY_TOL eta on a graded sector
# a bound, not a target: the sector study to 20,000 dofs takes at most
# 18 steps a level, and CGLS run far past convergence drifts
MAXITER = 200
# splu's arguments.  Diagonal pivoting in symmetric mode makes LU act as
# LDL^T; the pattern is symmetric, so the fill-reducing ordering is
# minimum degree on A + A^T rather than COLAMD's ordering of A^T A.
# Panels of four columns kept the fill and took 13 MB of workspace off
# the square's factorization of A whole; relax stays at SuperLU's default
# (relax=64 with 16-column panels raised that fill 2.6 times)
SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    panel_size=4,
    options=dict(SymmetricMode=True),
)


def shifted_diagonal(diagonal):
    """A block's diagonal as it is factored: each entry SHIFT_ULPS ulps larger."""
    return diagonal + SHIFT_ULPS * np.spacing(diagonal)


class LinearSolveError(Exception):
    """Factorization or iteration failure."""


class NotPositiveDefiniteError(LinearSolveError):
    """Matrix is not W^T W, or its factor is not positive definite."""


def sparse_spd_solve(a, b, w, load, blocks):
    """Minimize |load - W x|, given A = W^T W and b = W^T load.

    Each block's principal submatrix of A, shifted by `shifted_diagonal`,
    is copied and factored; the smaller factor, the larger and the
    smaller again, each stage after the first on its block's rows of
    g - A z, precondition CGLS on W.

    Parameters
    ----------
    a : scipy.sparse CSR matrix, W^T W, with every diagonal entry
        stored; it is only read
    b : (n,) right-hand side W^T load, which CGLS starts from
    w : scipy.sparse.linalg.LinearOperator, (m, n)
    load : (m,) vector
    blocks : integer arrays, each sorted, unique and in 0..n-1, that
        together cover every unknown

    Raises
    ------
    NotPositiveDefiniteError
        When A z and W^T W z differ by over 1e-12 relative for a seeded
        z, on an unstored diagonal entry, on an exactly singular factor,
        or on an indefinite sweep.
    LinearSolveError
        On malformed blocks or an unknown in none (before factoring),
        on factorization failure or a residual above tolerance.
    """
    n = a.shape[0]
    covered = np.zeros(n, dtype=bool)
    for ids in blocks:
        if not (ids.size and ids[0] >= 0 and ids[-1] < n and np.all(ids[1:] > ids[:-1])):
            raise LinearSolveError(f"block of {ids.size} ids not sorted, unique and in 0..{n - 1}")
        covered[ids] = True
    if not covered.all():  # CGLS would stall on it
        raise LinearSolveError(f"unknown {np.argmin(covered)} is in no block, n={n}")
    scale = np.abs(a.data).max() if a.nnz else 1.0  # |A| whole would copy A
    # a random z sees any A - W^T W with high probability (Freivalds
    # 1977); the fixed seed keeps reruns bit-identical
    z = np.random.default_rng(0).standard_normal(n)
    az = a @ z
    probe_gap = np.linalg.norm(az - w.rmatvec(w.matvec(z))) / max(np.linalg.norm(az), 1e-300)
    if not probe_gap <= 1e-12:  # a NaN gap fails too
        raise NotPositiveDefiniteError(f"matrix is not W^T W: probe gap {probe_gap:.3e}, n={n}")
    rows = np.repeat(np.arange(n, dtype=a.indices.dtype), np.diff(a.indptr))
    unstored = n - np.unique(rows[a.indices == rows]).size
    del rows
    if unstored:  # a zero column of W
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: {unstored} diagonal entries unstored, n={n}"
        )
    factors = []
    for ids in blocks:
        # every stored entry is copied, explicit zeros included, so the
        # ordering and the fill follow the assembled pattern
        block = a[ids][:, ids]
        block.setdiag(shifted_diagonal(block.diagonal()))
        try:
            factors.append((ids, scipy.sparse.linalg.splu(block.T, **SPLU_OPTIONS)))
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise LinearSolveError(f"sparse factorization failed: {exc}") from None
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: exactly singular factor ({exc}) factoring "
                f"a block of n={ids.size}"
            ) from None
        del block  # SuperLU keeps no reference to its input
    order = sorted(range(len(factors)), key=lambda k: factors[k][1].nnz)
    sweep = order + order[-2::-1]  # smallest factor to largest and back

    def precond(g):
        z = np.zeros(n)
        for stage, (ids, lu) in enumerate(factors[k] for k in sweep):
            z[ids] += lu.solve((g if stage == 0 else g - a @ z)[ids])
        return z

    x, iterations, stop, energy = _cgls(w, load, b, precond)
    residual = np.linalg.norm(a @ x - b)
    fills = [lu.nnz for _, lu in factors]
    log.debug(
        "sparse SPD solve: n=%d nnz(A)=%d nnz(L+U)=%d block_n=%s block_nnz(L+U)=%s sweep=%s "
        "shift_ulps=%d probe_gap=%.3e cgls_iterations=%d stop=%s energy_estimate=%.3e "
        "relative_residual=%.3e", n, a.nnz, sum(fills), ",".join(str(i.size) for i in blocks),
        ",".join(map(str, fills)), ",".join(map(str, sweep)), SHIFT_ULPS, probe_gap, iterations,
        stop, energy, residual / max(np.linalg.norm(b), 1e-300),
    )
    tol = 1e-10 * max(np.linalg.norm(b), scale * np.linalg.norm(x), 1e-300)
    if not residual <= tol:  # a NaN residual fails too
        raise LinearSolveError(f"normal-equation residual {residual:.3e} above tolerance")
    return x


def _cgls(w, load, b, precond):
    """Preconditioned CGLS on min |load - W x| from zero: CG on the
    normal equations that updates r = load - W x and forms g = W^T r
    from it at every step (Bjorck 1996); `precond` applies M^-1 to g.
    b must be W^T load, the first g.  Returns (x, iterations, the stop:
    "energy", "rtol" or "cap", and the root of the last ENERGY_DELAY
    decreases of |r|^2 over |r|).  A NaN g^T M^-1 g ends it at that step;
    past MAXITER steps it warns and returns the last iterate, whose
    energy-norm error is the smallest.  g^T M^-1 g <= 0 at the start
    (b != 0), or below -RTOL^2 of it later (not rounding at
    convergence), raises NotPositiveDefiniteError.
    """
    r = np.array(load, dtype=float)
    x = np.zeros(w.shape[1])
    if not b.any():
        return x, 0, "rtol", 0.0
    g = b
    z = precond(g)
    gamma = gamma_0 = g @ z
    if gamma_0 <= 0:
        raise NotPositiveDefiniteError(
            f"indefinite preconditioner: g^T M^-1 g = {gamma_0:.3e} at CGLS step 0, n={x.size}"
        )
    p = z
    del g, z
    decreases = []  # alpha gamma = |r|^2 before a step less after it
    # the vectors are updated in place, and each step's q, g and z are
    # dropped before the next W product, whose temporaries set the peak
    for it in range(1, MAXITER + 1):
        q = w.matvec(p)
        alpha = gamma / (q @ q)
        decreases.append(alpha * gamma)
        x += alpha * p
        q *= alpha
        r -= q
        del q
        tail = sum(decreases[-ENERGY_DELAY:])
        if it >= ENERGY_DELAY and tail <= ENERGY_TOL**2 * (r @ r):
            return x, it, "energy", np.sqrt(tail) / max(np.linalg.norm(r), 1e-300)
        g = w.rmatvec(r)
        z = precond(g)
        gamma, gamma_old = g @ z, gamma
        del g
        if gamma < -RTOL**2 * gamma_0:
            raise NotPositiveDefiniteError(
                f"indefinite preconditioner: g^T M^-1 g = {gamma:.3e} at CGLS step {it}, n={x.size}"
            )
        if not gamma > RTOL**2 * gamma_0:  # NaN stops too
            return x, it, "rtol", np.sqrt(tail) / max(np.linalg.norm(r), 1e-300)
        p *= gamma / gamma_old
        p += z
        del z
    log.warning(
        "CGLS stopped at its cap of %d iterations at relative preconditioned "
        "normal residual %.3e (target %.0e)",
        MAXITER, np.sqrt(gamma / gamma_0), RTOL,
    )
    return x, MAXITER, "cap", np.sqrt(tail) / max(np.linalg.norm(r), 1e-300)
