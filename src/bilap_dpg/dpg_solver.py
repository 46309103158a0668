"""Global DPG assembly, solve, residual estimation, adaptive loop.

Every element contributes its Schur complement B^T G^-1 B (realized
through whitened local systems) to a sparse symmetric positive
definite matrix over [sigma fields | free trace dofs].  W = chol(G)^-1 B
is kept as its two test blocks, once per class of elements
(`forms.LocalSystems`): each block adds W^T W over its own columns,
sigma being the one unknown in both, and the estimator sums the two
blocks' residuals.  Every per-element product with a class kernel is
`forms.products`, which owns the class format, so no per-element copy
of W is ever made.  The field u meets the
tau block alone, which has no load, so it is condensed out element by
element before assembly: the tau block is stored projected off the u
columns, which adds no entry outside the pattern that sigma and uhat
already have, and after the solve each element recovers u = -G x_tau
(static condensation in the sense of Carstensen, Demkowicz and
Gopalakrishnan).  The dof counts still include u.  Constrained trace
dofs enter by elimination, never by penalty, so the minimum-residual
structure is preserved exactly.  Element processing is batched in a
fixed order, which makes repeated runs bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from bilap_dpg import forms, problems, shape
from bilap_dpg.linsolve import sparse_spd_solve
from bilap_dpg.mesh import doerfler_mark, refine_nvb
from bilap_dpg.trace_space import (
    DOFS_PER_VERTEX,
    apply_clamped_bc,
    build_trace_space,
    interpolate_boundary_data,
)


class SolverError(Exception):
    """Assembly or solve failure, with context."""


@dataclass
class BrokenField:
    """Element-wise polynomial field in the per-element trial basis."""

    mesh: object
    degree: int
    coeffs: np.ndarray  # (nt, dim_p)
    centroid: np.ndarray
    h: np.ndarray
    trial_chol: np.ndarray  # (nt, dim_p, dim_p), basis = monomials L^-T

    def eval(self, tris, points):
        """Field values on elements `tris` (m,) at physical points (m, nq, 2).

        Returns shape (m, nq).
        """
        tris = np.asarray(tris)
        scale = self.h[tris, None, None]
        u = (np.asarray(points, dtype=float) - self.centroid[tris, None, :]) / scale
        mono = shape.monomials(self.degree, u)
        # the field is mono L^-T c, so its monomial coefficients are L^-T c
        mono_coeffs = np.linalg.solve(
            np.swapaxes(self.trial_chol[tris], 1, 2), self.coeffs[tris, :, None]
        )
        return (mono @ mono_coeffs)[..., 0]


@dataclass
class Solution:
    """Discrete solution of one DPG solve plus cached local systems.

    `x_local` holds every element's trial coefficients, trace and
    corner unknowns included, in the column layout of `local`.
    """

    mesh: object
    formulation: forms.Formulation
    u: BrokenField
    sigma: BrokenField
    local: forms.LocalSystems = field(repr=False)
    x_local: np.ndarray = field(repr=False)  # (nt, ncol) local trial vectors
    ndof_total: int = 0
    ndof_field: int = 0


@dataclass(frozen=True)
class Indicators:
    """Per-element residual contributions eta(T) and the total eta."""

    per_element: np.ndarray
    total: float


@dataclass
class StudyRecord:
    """One refinement level of a convergence study."""

    level: int
    ndof_total: int
    ndof_field: int
    h_max: float
    eta: float
    err_u: float
    err_sigma: float
    solve_seconds: float


def _trace_spaces(mesh, problem):
    uhat_space = build_trace_space(mesh)
    if problem.boundary_mode == "homogeneous":
        uhat_space = apply_clamped_bc(uhat_space)
    elif problem.boundary_mode == "interpolated":
        uhat_space = interpolate_boundary_data(
            uhat_space, problem.u_exact, problem.grad_u_exact
        )
    else:
        raise SolverError(f"unknown boundary mode {problem.boundary_mode!r}")
    return uhat_space


def _corner_gauge_dofs(mesh):
    """One corner coefficient per vertex is a pure gauge; pick the
    lowest-numbered incident edge-endpoint dof of each vertex."""
    gauge = np.full(mesh.num_vertices, np.iinfo(np.int64).max, dtype=np.int64)
    endpoint_dofs = 2 * np.arange(mesh.num_edges)
    np.minimum.at(gauge, mesh.edges[:, 0], endpoint_dofs)
    np.minimum.at(gauge, mesh.edges[:, 1], endpoint_dofs + 1)
    return gauge


def _constraints(mesh, formulation, uhat_space, with_corners):
    """Fixed-dof mask and eliminated values over all dofs, in the
    ordering of `_global_columns`."""
    n_field = 2 * mesh.num_triangles * formulation.field_dim
    n_trace = DOFS_PER_VERTEX * mesh.num_vertices
    n_all = n_field + 2 * n_trace
    if with_corners:
        n_all += 2 * mesh.num_edges
    fixed = np.zeros(n_all, dtype=bool)
    fixed_values = np.zeros(n_all)
    fixed[n_field : n_field + n_trace] = uhat_space.constrained
    fixed_values[n_field : n_field + n_trace] = uhat_space.values
    if with_corners:
        fixed[n_field + 2 * n_trace + _corner_gauge_dofs(mesh)] = True
    return fixed, fixed_values


def _global_columns(mesh, formulation, uhat_space, corner_cols=None):
    """Global dof layout per element column, plus the constraint data.

    Unknown ordering: [u fields | sigma fields | free uhat | sigma_hat
    | corner coefficients (scheme 2)].  Returns (full_cols,
    fixed_values, free_map, n_free) where `full_cols` maps element
    columns to an enumeration of all dofs, `fixed_values` carries the
    eliminated values, and `free_map` sends every dof to its free index
    or -1.
    """
    nt, nv = mesh.num_triangles, mesh.num_vertices
    dim_p = formulation.field_dim
    n_field = 2 * nt * dim_p
    n_trace = DOFS_PER_VERTEX * nv

    tri_ids = np.arange(nt)[:, None]
    u_cols = tri_ids * dim_p + np.arange(dim_p)[None, :]
    s_cols = nt * dim_p + u_cols
    vert_dofs = (
        DOFS_PER_VERTEX * mesh.triangles[:, :, None]
        + np.arange(DOFS_PER_VERTEX)[None, None, :]
    ).reshape(nt, 9)
    uhat_cols = n_field + vert_dofs
    shat_cols = n_field + n_trace + vert_dofs
    blocks = [u_cols, s_cols, uhat_cols, shat_cols]
    if corner_cols is not None:
        blocks.append(n_field + 2 * n_trace + corner_cols)
    full_cols = np.concatenate(blocks, axis=1)

    fixed, fixed_values = _constraints(
        mesh, formulation, uhat_space, corner_cols is not None
    )
    free_map = np.full(len(fixed), -1, dtype=np.int64)
    free_ids = np.nonzero(~fixed)[0]
    free_map[free_ids] = np.arange(len(free_ids))
    return full_cols, fixed_values, free_map, len(free_ids)


def assemble_and_solve(mesh, formulation, problem):
    """Assemble the DPG normal equations and solve them.

    Parameters
    ----------
    mesh : Mesh
    formulation : forms.Formulation
    problem : problems.Problem

    Returns
    -------
    Solution
    """
    uhat_space = _trace_spaces(mesh, problem)
    local = forms.build_local_systems(mesh, formulation, problem.f)
    full_cols, fixed_values, free_map, n_free = _global_columns(
        mesh, formulation, uhat_space, local.corner_cols
    )

    dim_p = formulation.field_dim
    n_field = mesh.num_triangles * dim_p
    # u is condensed out element by element (`forms.LocalSystems`); its
    # dofs lead the ordering and are never fixed, so the others are
    # numbered from n_field on, with n_rest on fixed columns and on u's
    n_rest = n_free - n_field
    cols = free_map[full_cols] - n_field
    cols[cols < 0] = n_rest
    # the fixed dofs move to the right: wl - W x_fixed, per test block
    blocks = [(w, cols[:, ids]) for w, _, ids in local.blocks()]
    load = np.concatenate([
        (wl - forms.products(w, local.cls, fixed_values[full_cols[:, ids]])).ravel()
        for w, wl, ids in local.blocks()
    ])
    a = scipy.sparse.csr_matrix(_triplets(blocks, local.cls, n_rest), shape=(n_rest, n_rest))
    # the column map does not stay alive through the factorization, and
    # the conversion leaves the summed entries at the front of
    # triplet-sized buffers: the solver gets exactly nnz(A)
    del cols
    a.data, a.indices = a.data.copy(), a.indices.copy()
    w_free = _free_operator(blocks, local.cls, n_rest)

    try:
        x_free = sparse_spd_solve(a, w_free.rmatvec(load), w_free, load)
    except Exception as exc:
        raise SolverError(
            f"global solve failed on mesh with {mesh.num_triangles} triangles: {exc}"
        ) from exc

    x_all = fixed_values.copy()
    x_all[free_map >= n_field] = x_free
    x_local = x_all[full_cols]
    # the tau block has no load, so the condensed u is -G x_tau
    x_local[:, :dim_p] = -forms.products(local.u_recovery, local.cls, x_local[:, local.tau_cols])

    def make_field(coeffs):
        return BrokenField(
            mesh,
            formulation.field_degree,
            coeffs,
            local.centroid,
            local.h,
            local.trial_chol,
        )

    return Solution(
        mesh=mesh,
        formulation=formulation,
        u=make_field(x_local[:, :dim_p]),
        sigma=make_field(x_local[:, dim_p : 2 * dim_p]),
        local=local,
        x_local=x_local,
        ndof_total=n_free,
        ndof_field=2 * n_field,
    )


def _triplets(blocks, cls, n):
    """COO entries (vals, (row, col)) of A = W^T W over the n free
    unknowns, from (class kernels w, c) per test block, c being the free
    id of each element column or n if fixed.

    Each test block couples exactly its own columns: storing all their
    free x free couplings, also where an entry cancels to zero, keeps
    the sparsity and the factor's fill independent of rounding.  sigma
    meets both blocks, and the COO -> CSR conversion sums the two.
    w^T w is formed once per class and gathered into the entries.
    """
    n_entries = sum(int(((c < n).sum(axis=1) ** 2).sum()) for _, c in blocks)
    # ids in the int32 that scipy stores them in need no converted copy
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    vals = np.empty(n_entries)
    row = np.empty(n_entries, dtype=index)
    col = np.empty(n_entries, dtype=index)
    start = 0
    for w, c in blocks:
        free = c < n
        for elements, gram in forms.class_chunks(np.swapaxes(w, 1, 2) @ w, cls):
            keep = free[elements, :, None] & free[elements, None, :]
            stop = start + np.count_nonzero(keep)
            vals[start:stop] = gram[keep]
            row[start:stop] = np.broadcast_to(c[elements, :, None], keep.shape)[keep]
            col[start:stop] = np.broadcast_to(c[elements, None, :], keep.shape)[keep]
            start = stop
    return vals, (row, col)


def _free_operator(blocks, cls, n):
    """W over the n free unknowns as a LinearOperator, from (class
    kernels w, c) per test block, c being the free id of each element
    column or n if fixed.

    W x stacks each block's rows element by element, as `load` does.
    """
    sizes = np.cumsum([0] + [len(cls) * w.shape[1] for w, _ in blocks])

    def matvec(x):
        x = np.append(x, 0.0)  # the value of every fixed column
        return np.concatenate([forms.products(w, cls, x[c]).ravel() for w, c in blocks])

    def rmatvec(r):
        out = np.zeros(n + 1)  # the last entry sums the fixed columns
        for (w, c), lo, hi in zip(blocks, sizes, sizes[1:]):
            g = forms.products(w, cls, r[lo:hi].reshape(len(cls), -1), transpose=True)
            out += np.bincount(c.ravel(), g.ravel(), minlength=n + 1)
        return out[:n]

    return scipy.sparse.linalg.LinearOperator(
        (sizes[-1], n), matvec=matvec, rmatvec=rmatvec, dtype=float
    )


def error_indicators(solution):
    """Residual error indicators eta(T)^2 = r_T^T G_T^-1 r_T.

    The residual is evaluated against the full enriched test space from
    the cached (whitened) local systems: it is the sum of the whitened
    residuals |load - w x| of the two test blocks.  The tau block has u
    condensed out, and at the recovered u its residual is the full one.
    """
    x = solution.x_local
    eta_sq = 0.0
    for w, load, c in solution.local.blocks():
        r = load - forms.products(w, solution.local.cls, x[:, c])
        eta_sq = eta_sq + np.einsum("er,er->e", r, r)
    return Indicators(np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum())))


def solve_and_record(mesh, formulation, problem, level):
    """Solve one level and produce its study record."""
    t0 = time.perf_counter()
    solution = assemble_and_solve(mesh, formulation, problem)
    indicators = error_indicators(solution)
    elapsed = time.perf_counter() - t0
    err_u, err_sigma = problems.l2_errors(solution, problem)
    record = StudyRecord(
        level=level,
        ndof_total=solution.ndof_total,
        ndof_field=solution.ndof_field,
        h_max=mesh.h_max,
        eta=indicators.total,
        err_u=err_u,
        err_sigma=err_sigma,
        solve_seconds=elapsed,
    )
    return record, solution, indicators


def adaptive_loop(mesh, formulation, problem, theta, max_dofs):
    """Solve -> estimate -> Doerfler mark -> refine until max_dofs.

    Every level is solved from scratch: no field and no element kernel
    is carried from one level to the next.  Returns one StudyRecord per
    level; the loop stops after the first level whose free dof count
    exceeds `max_dofs`.  A `max_dofs` that level 0 already reaches
    raises SolverError.
    """
    if not 0.0 < theta <= 1.0:
        raise SolverError(f"theta must be in (0, 1], got {theta}")
    records = []
    level = 0
    while True:
        try:
            record, solution, indicators = solve_and_record(mesh, formulation, problem, level)
        except SolverError as exc:
            raise SolverError(f"level {level}: {exc}") from exc
        # its W blocks must not live through the next level's local
        # systems and solve, which set the peak memory
        del solution
        if level == 0 and max_dofs <= record.ndof_total:
            raise SolverError(
                f"max_dofs={max_dofs} does not exceed the initial dof count {record.ndof_total}"
            )
        records.append(record)
        if record.ndof_total > max_dofs:
            return records
        marked = doerfler_mark(indicators.per_element, theta)
        if marked.size == 0:  # residual is exactly zero; nothing to refine
            return records
        mesh = refine_nvb(mesh, marked)
        level += 1
