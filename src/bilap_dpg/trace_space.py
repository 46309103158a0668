"""Reduced Hsieh-Clough-Tocher skeleton traces and boundary conditions.

Each mesh vertex carries three degrees of freedom: a function value and
the two gradient components.  Along an edge, the trace value is the
cubic Hermite interpolant of the endpoint values and tangential
derivatives; the normal derivative is the linear interpolant of the
endpoint gradients dotted with a unit normal of the edge.  The vertex
dofs are Cartesian, so an edge's trace pair reads the same from either
end and against either normal up to the normal's sign.  There are no
edge-interior dofs (reduced HCT), so the skeleton data is single-valued
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from bilap_dpg.mesh import Mesh

DOFS_PER_VERTEX = 3  # value, d/dx, d/dy


@dataclass(frozen=True)
class TraceSpace:
    """Skeleton trace space with an optional boundary constraint map.

    `constrained` flags dofs fixed by boundary conditions; `values`
    holds the prescribed value for each constrained dof (zero at free
    dofs).  The `values` vector therefore doubles as the constrained
    part of a trace coefficient vector.
    """

    mesh: Mesh
    constrained: np.ndarray
    values: np.ndarray


def build_trace_space(mesh):
    """Unconstrained trace space: 3 dofs per vertex, none fixed."""
    n = DOFS_PER_VERTEX * mesh.num_vertices
    return TraceSpace(mesh, np.zeros(n, dtype=bool), np.zeros(n))


def apply_clamped_bc(space):
    """Fix all three dofs of every boundary vertex, to zero until
    `interpolate_boundary_data` fills in the problem's data.

    This is the one place that decides which dofs are fixed.  With
    zero data it forces the cubic edge trace and the linear normal
    derivative to vanish identically on boundary edges.
    """
    constrained = space.constrained | np.repeat(space.mesh.is_boundary_vertex, DOFS_PER_VERTEX)
    values = np.where(constrained, 0.0, space.values)
    return replace(space, constrained=constrained, values=values)


def interpolate_boundary_data(space, u_exact, grad_u_exact):
    """Set the values of the fixed dofs to the vertex data of u_exact.

    Parameters
    ----------
    space : TraceSpace
    u_exact : callable (x, y) -> value
    grad_u_exact : callable (x, y) -> (du/dx, du/dy)

    Returns
    -------
    TraceSpace whose `values` hold (u, du/dx, du/dy) at every fixed dof;
    `constrained` is kept as it is, so free dofs stay free.  Both
    callables get every vertex with a fixed dof in one call.
    Non-finite data there raises, naming the first such vertex.
    """
    fixed = space.constrained.reshape(-1, DOFS_PER_VERTEX)
    verts = np.nonzero(fixed.any(axis=1))[0]
    x, y = space.mesh.vertices[verts].T
    data = np.empty((len(verts), DOFS_PER_VERTEX))
    data[:, 0] = u_exact(x, y)
    data[:, 1], data[:, 2] = grad_u_exact(x, y)
    bad = ~np.isfinite(data).all(axis=1)
    if np.any(bad):
        i = np.argmax(bad)
        raise ValueError(f"boundary data evaluation failed at vertex {verts[i]} ({x[i]}, {y[i]})")
    values = space.values.reshape(-1, DOFS_PER_VERTEX).copy()
    values[fixed] = data[fixed[verts]]
    return replace(space, values=values.ravel())


def edge_dof_tables(along, across, t):
    """Edge-trace shape functions (val, nder), each (n, n_t, 6), of the
    six endpoint dofs ``(w_0, gx_0, gy_0, w_1, gx_1, gy_1)`` of edges
    with edge vectors `along` (n, 2), at parameters `t` running from
    each edge's first endpoint to its second: the trace value (cubic
    Hermite in the values and the tangential derivatives along . g) and
    the linear interpolant of the gradient component across . g for
    directions `across` (n, 2), the normal derivative for a unit normal.
    """
    t = np.asarray(t, dtype=float)[:, None]
    t2, t3 = t * t, t * t * t
    along, across = along[:, None], across[:, None]
    val = np.zeros((len(along), len(t), 6))
    val[..., :1], val[..., 3:4] = 1.0 - 3.0 * t2 + 2.0 * t3, 3.0 * t2 - 2.0 * t3
    val[..., 1:3], val[..., 4:6] = (t - 2.0 * t2 + t3) * along, (t3 - t2) * along
    nder = np.zeros_like(val)
    nder[..., 1:3], nder[..., 4:6] = (1.0 - t) * across, t * across
    return val, nder
