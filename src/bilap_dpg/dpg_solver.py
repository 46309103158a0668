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
Gopalakrishnan).  This module alone numbers the global unknowns
(`_global_columns`): the assembled ones, [sigma | uhat | sigma_hat |
scheme 2's corner coefficients (`_corner_ids`)], get free ids and u
none; the dof counts add u's nt dim_p to them.  Constrained trace dofs
and each vertex's gauge corner enter by elimination, never by penalty,
so the minimum-residual structure is preserved exactly.  Element
processing is batched in a fixed order, which makes repeated runs
bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from bilap_dpg import forms, problems, shape
from bilap_dpg.linsolve import LinearSolveError, sparse_spd_solve
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
    """Element-wise polynomial field in the per-element trial basis,
    the leading dim_p members of the element's orthonormal test basis."""

    degree: int
    coeffs: np.ndarray  # (nt, dim_p)
    centroid: np.ndarray
    h: np.ndarray
    trial_chol: np.ndarray  # (nt, dim_p, dim_p) L = (test_l, mono_j)^T: basis = mono L^-T

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
    """The uhat space: every boundary vertex clamped to the problem's data."""
    return interpolate_boundary_data(
        apply_clamped_bc(build_trace_space(mesh)), problem.u_exact, problem.grad_u_exact
    )


def _corner_ids(mesh):
    """Corner-coefficient ids of every element (nt, 6), in the column
    order of `forms._corner_b`, and the gauge id of every vertex (nv,).

    Each edge endpoint carries one jump coefficient: edge e stores its
    lo endpoint's at 2e and its hi endpoint's at 2e + 1.  Element corner
    c names two of them: the endpoint at vertex c of edge slot c (which
    starts there) and of slot c - 1 (which ends there).  One coefficient
    per vertex is a pure gauge, the lowest id at the vertex.
    """
    e = mesh.tri_edges
    lo_first = (mesh.triangles == mesh.edges[e, 0]).astype(np.int64)
    prev = [2, 0, 1]
    ids = np.stack([2 * e + 1 - lo_first, 2 * e[:, prev] + lo_first[:, prev]], axis=2)
    gauge = np.full(mesh.num_vertices, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(gauge, np.repeat(mesh.triangles.ravel(), 2), ids.ravel())
    return ids.reshape(-1, forms.CORNER_COLS), gauge


def _global_columns(mesh, formulation, uhat_space):
    """Free id and fixed value of every column of the element layout
    [u | sigma | uhat | sigma_hat | corners (scheme 2)].

    The assembled unknowns are [sigma | uhat | sigma_hat | corner
    coefficients], numbered in that order with the fixed ones left out:
    the constrained uhat dofs and each vertex's gauge corner.  u is
    condensed out element by element and has no id.  Returns (cols,
    values, n): `cols` (nt, ncol) holds each column's free id, or n on
    u and fixed columns, and `values` (nt, ncol) the fixed columns'
    values, zero elsewhere.
    """
    nt, dim_p = mesh.num_triangles, formulation.field_dim
    n_trace = DOFS_PER_VERTEX * mesh.num_vertices
    vertex_dofs = (
        DOFS_PER_VERTEX * mesh.triangles[:, :, None] + np.arange(DOFS_PER_VERTEX)
    ).reshape(nt, forms.TRACE_COLS)
    # every assembled unknown, the fixed ones included, then the free ids
    dofs = [
        np.arange(nt * dim_p).reshape(nt, dim_p),
        nt * dim_p + vertex_dofs,
        nt * dim_p + n_trace + vertex_dofs,
    ]
    fixed = [
        np.zeros(nt * dim_p, dtype=bool), uhat_space.constrained, np.zeros(n_trace, dtype=bool)
    ]
    if formulation.scheme == 2:
        corners, gauge = _corner_ids(mesh)
        dofs.append(nt * dim_p + 2 * n_trace + corners)
        fixed.append(np.isin(np.arange(2 * mesh.num_edges), gauge))
    fixed = np.concatenate(fixed)
    n = int(np.count_nonzero(~fixed))
    free = np.where(fixed, n, np.cumsum(~fixed) - 1)
    cols = np.concatenate([np.full((nt, dim_p), n)] + [free[d] for d in dofs], axis=1)
    values = np.zeros(cols.shape)
    values[:, 2 * dim_p : 2 * dim_p + forms.TRACE_COLS] = uhat_space.values[vertex_dofs]
    return cols, values, n


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
    # x_local holds the fixed values until the solve gives the free ones
    cols, x_local, n = _global_columns(mesh, formulation, uhat_space)

    # the fixed columns move to the right: wl - W x_fixed, per test block
    blocks = [(w, cols[:, ids]) for w, _, ids in local.blocks()]
    # each block keeps the ids of its own columns: the whole map does not
    # stay alive through the factorization
    del cols
    load = np.concatenate([
        (wl - forms.products(w, local.cls, x_local[:, ids])).ravel()
        for w, wl, ids in local.blocks()
    ])
    a = scipy.sparse.csr_matrix(_triplets(blocks, local.cls, n), shape=(n, n))
    # the conversion leaves the summed entries at the front of
    # triplet-sized buffers: the solver gets exactly nnz(A)
    a.data, a.indices = a.data.copy(), a.indices.copy()
    w_free = _free_operator(blocks, local.cls, n)

    x_free = sparse_spd_solve(a, w_free.rmatvec(load), w_free, load)

    x_free = np.append(x_free, 0.0)  # at id n, which the fixed columns read and drop
    for (_, c), (_, _, ids) in zip(blocks, local.blocks()):
        x_local[:, ids] = np.where(c < n, x_free[c], x_local[:, ids])
    dim_p = formulation.field_dim
    # the tau block has no load, so the condensed u is -G x_tau
    x_local[:, :dim_p] = -forms.products(local.u_recovery, local.cls, x_local[:, local.tau_cols])

    def make_field(coeffs):
        return BrokenField(
            formulation.field_degree, coeffs, local.centroid, local.h, local.trial_chol
        )

    return Solution(
        mesh=mesh,
        formulation=formulation,
        u=make_field(x_local[:, :dim_p]),
        sigma=make_field(x_local[:, dim_p : 2 * dim_p]),
        local=local,
        x_local=x_local,
        ndof_total=n + mesh.num_triangles * dim_p,
        ndof_field=2 * mesh.num_triangles * dim_p,
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
    """Solve one level and produce its study record.

    A failure of the level's local systems, boundary data, solve or
    errors raises SolverError naming the level and the mesh size.
    """
    t0 = time.perf_counter()
    try:
        solution = assemble_and_solve(mesh, formulation, problem)
        indicators = error_indicators(solution)
        elapsed = time.perf_counter() - t0
        err_u, err_sigma = problems.l2_errors(solution, problem)
    except (forms.FormsError, LinearSolveError, SolverError, ValueError) as exc:
        raise SolverError(f"level {level} ({mesh.num_triangles} triangles): {exc}") from exc
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
        record, solution, indicators = solve_and_record(mesh, formulation, problem, level)
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
