"""Global DPG assembly, solve, residual estimation, adaptive loop.

Every element contributes its Schur complement B^T G^-1 B (realized
through whitened local systems) to a sparse symmetric positive
definite matrix over [field dofs | free trace dofs].  Constrained trace
dofs enter by elimination, never by penalty, so the minimum-residual
structure is preserved exactly.  Element processing is batched in a
fixed order, which makes repeated runs bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

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

    `sigma_hat_corner` carries the corner-functional coefficients of
    the second trace unknown (scheme 2 only; two per edge, one per
    vertex gauge-fixed to zero).
    """

    mesh: object
    formulation: forms.Formulation
    u: BrokenField
    sigma: BrokenField
    uhat: np.ndarray
    sigma_hat: np.ndarray
    uhat_space: object
    local: forms.LocalSystems = field(repr=False)
    x_local: np.ndarray = field(repr=False)  # (nt, ncol) local trial vectors
    free_cols: np.ndarray = field(repr=False)  # (nt, ncol) global ids, -1 fixed
    ndof_total: int = 0
    ndof_field: int = 0
    rhs_inf: float = 0.0
    sigma_hat_corner: np.ndarray | None = None


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

    w, wl = local.w, local.wl
    x_fixed = fixed_values[full_cols]
    cols = free_map[full_cols]  # (nt, ncol), -1 where fixed
    free = cols >= 0
    # two columns couple where they meet a common test block (v or tau);
    # storing exactly that pattern, also where an entry cancels to zero,
    # keeps the sparsity and the factor's fill independent of rounding
    k = w.shape[1] // 2
    tested = np.stack([np.any(w[:, :k], axis=(0, 1)), np.any(w[:, k:], axis=(0, 1))])
    couples = (tested.T.astype(np.int64) @ tested.astype(np.int64)) > 0
    w_t = np.swapaxes(w, 1, 2)
    schur = w_t @ w
    keep = free[:, :, None] & free[:, None, :] & couples
    row = np.broadcast_to(cols[:, :, None], keep.shape)[keep]
    col = np.broadcast_to(cols[:, None, :], keep.shape)[keep]
    a = scipy.sparse.csr_matrix((schur[keep], (row, col)), shape=(n_free, n_free))
    # nothing of size nt * ncol^2 stays alive through the factorization
    del schur, keep, row, col
    # the fixed dofs move to the right: W^T (wl - W x_fixed)
    g_vec = (w_t @ (wl[:, :, None] - w @ x_fixed[:, :, None]))[..., 0]
    rhs = np.bincount(cols[free], g_vec[free], minlength=n_free)

    try:
        x_free = sparse_spd_solve(a, rhs)
    except Exception as exc:
        raise SolverError(
            f"global solve failed on mesh with {mesh.num_triangles} triangles: {exc}"
        ) from exc

    x_all = fixed_values.copy()
    x_all[free_map >= 0] = x_free
    x_local = x_all[full_cols]

    nt, dim_p = mesh.num_triangles, formulation.field_dim
    n_field = nt * dim_p

    def make_field(offset):
        return BrokenField(
            mesh,
            formulation.field_degree,
            x_all[offset : offset + n_field].reshape(nt, dim_p),
            local.centroid,
            local.h,
            local.trial_chol,
        )

    n_trace = DOFS_PER_VERTEX * mesh.num_vertices
    corner = None
    if local.corner_cols is not None:
        corner = x_all[2 * n_field + 2 * n_trace :]
    return Solution(
        mesh=mesh,
        formulation=formulation,
        u=make_field(0),
        sigma=make_field(n_field),
        uhat=x_all[2 * n_field : 2 * n_field + n_trace],
        sigma_hat=x_all[2 * n_field + n_trace : 2 * n_field + 2 * n_trace],
        uhat_space=uhat_space,
        local=local,
        x_local=x_local,
        free_cols=cols,
        ndof_total=n_free,
        ndof_field=2 * n_field,
        rhs_inf=float(np.abs(rhs).max(initial=0.0)),
        sigma_hat_corner=corner,
    )


def _residuals(solution):
    """Whitened local residuals wl - w x, shape (nt, 2k)."""
    return solution.local.wl - np.einsum(
        "eri,ei->er", solution.local.w, solution.x_local
    )


def error_indicators(solution):
    """Residual error indicators eta(T)^2 = r_T^T G_T^-1 r_T.

    The residual is evaluated against the full enriched test space from
    the cached (whitened) local systems.
    """
    r = _residuals(solution)
    eta_sq = np.einsum("er,er->e", r, r)
    eta_sq = np.maximum(eta_sq, 0.0)
    return Indicators(np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum())))


def residual_orthogonality(solution):
    """Max-norm of B^T G^-1 (l - B x) over free dofs, relative to the rhs.

    This is exactly the normal-equation residual |rhs - A x| since the
    local trial vectors include the eliminated boundary values.
    """
    proj = np.einsum("eri,er->ei", solution.local.w, _residuals(solution))
    keep = solution.free_cols >= 0
    out = np.bincount(
        solution.free_cols[keep], proj[keep], minlength=solution.ndof_total
    )
    return float(np.abs(out).max() / max(solution.rhs_inf, 1e-300))


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

    Every level is solved from scratch (no field transfer).  Returns
    one StudyRecord per level; the loop stops after the first level
    whose free dof count exceeds `max_dofs`.
    """
    if not 0.0 < theta <= 1.0:
        raise SolverError(f"theta must be in (0, 1], got {theta}")
    records = []
    level = 0
    fixed, _ = _constraints(
        mesh, formulation, _trace_spaces(mesh, problem), formulation.scheme == 2
    )
    initial_dofs = int(np.count_nonzero(~fixed))
    if max_dofs <= initial_dofs:
        raise SolverError(
            f"max_dofs={max_dofs} does not exceed the initial dof count {initial_dofs}"
        )
    while True:
        try:
            record, _, indicators = solve_and_record(mesh, formulation, problem, level)
        except SolverError as exc:
            raise SolverError(f"level {level}: {exc}") from exc
        records.append(record)
        if record.ndof_total > max_dofs:
            return records
        marked = doerfler_mark(indicators.per_element, theta)
        if marked.size == 0:  # residual is exactly zero; nothing to refine
            return records
        mesh = refine_nvb(mesh, marked)
        level += 1
