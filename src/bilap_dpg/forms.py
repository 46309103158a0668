"""Element-local assembly for the two ultraweak formulations.

Scheme 1 measures both test components in the broken
graph norm  ||v||^2 + ||Delta v||^2;  scheme 2 measures the first test
component in the full second-order norm  ||v||^2 + ||Hess v||^2
(Frobenius inner product of Hessians) instead.  Both schemes share one
trial-to-test matrix: the stored skeleton dofs are chosen so that the
edge integrand is
    int_dT ( dn(w) t - w dn(t) ) ds
for both trace unknowns in both schemes, which removes a family of
sign errors (the two formulations then differ only in their Gram
matrices).

The test basis of an element is the L2-orthonormal reference basis of
`shape.reference_tables` mapped affinely and scaled by |det J|^(-1/2),
so it is L2-orthonormal on the element: every Gram block is the
identity plus a second-order term that depends on J alone.  The trial
basis is the centred, diameter-scaled monomials of the field degree
times L^-T, L the Cholesky factor of their moment matrix.

`build_local_systems` is the module's one entry point; a single
element's system is that of a one-element `Mesh`.  It runs the dense
kernels once per translation class of elements: elements with
bit-equal relative vertex coordinates (v1 - v0, v2 - v0), the same
orientation of each edge's global lo/hi endpoints relative to the
element's slots and the same edge owner signs have equal local systems
up to rounding.  There is no scale key:
mass terms scale with h^2 and Hessian terms with h^-2, so the Gram
blocks of similar elements are not multiples of each other.  Nested
newest-vertex bisection yields finitely many shapes, so uniform and
graded meshes reuse most kernels; a mesh without repeated shapes has
one class per element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bilap_dpg import shape
from bilap_dpg import trace_space as ts
from bilap_dpg.linsolve import NotPositiveDefiniteError

TRACE_COLS = 9  # 3 vertices x (value, d/dx, d/dy) per trace unknown
CORNER_COLS = 6  # 3 corners x (outgoing, incoming) jump coefficients
MIN_ELEMENT_AREA = 1e-14
CHUNK = 1024  # classes per batch of dense kernels, elements per batch of copies


class FormsError(Exception):
    """Invalid element or inconsistent space layout."""


@dataclass(frozen=True)
class Formulation:
    """Discretization choice: scheme tag plus polynomial degrees.

    `scheme` is 1 or 2; `field_degree` is the broken polynomial degree
    of the two field variables; `test_degree` the enriched test degree
    (at least field_degree + 2).
    """

    scheme: int = 2
    field_degree: int = 0
    test_degree: int = 4

    def __post_init__(self):
        if self.scheme not in (1, 2):
            raise FormsError(f"scheme must be 1 or 2, got {self.scheme}")
        if self.field_degree < 0:
            raise FormsError("field_degree must be nonnegative")
        if self.test_degree < self.field_degree + 2:
            raise FormsError(
                f"test_degree {self.test_degree} must be at least "
                f"field_degree + 2 = {self.field_degree + 2}"
            )

    @property
    def field_dim(self):
        return shape.basis_dimension(self.field_degree)

    @property
    def test_dim(self):
        return shape.basis_dimension(self.test_degree)


def _barycentric(rule):
    """Barycentric coordinates of a reference triangle rule, (nq, 3)."""
    return np.column_stack([1 - rule.points[:, 0] - rule.points[:, 1], rule.points])


def _maps(coords, labels):
    """`shape.affine_maps` of a batch with |det J|; raises FormsError
    naming the first element whose |det J| is below 2 MIN_ELEMENT_AREA."""
    with np.errstate(divide="ignore", invalid="ignore"):
        jac, det, jinv = shape.affine_maps(coords)
    det = np.abs(det)
    small = ~(det >= 2 * MIN_ELEMENT_AREA)
    if np.any(small):
        raise FormsError(f"degenerate element {labels[np.argmax(small)]}")
    return jac, det, jinv


def _diagonal_signs(r, labels, what):
    """Signs of the diagonals of a batch of R factors; a zero or
    non-finite diagonal entry raises NotPositiveDefiniteError."""
    diag = np.einsum("eii->ei", r)
    bad = (diag == 0) | ~np.isfinite(diag)
    if np.any(bad):
        element = labels[np.nonzero(bad.any(axis=1))[0][0]]
        raise NotPositiveDefiniteError(f"{what} is singular (element {element})")
    return np.sign(diag)


def _hessians(tab, jinv):
    """Mapped Hessian components (n, 3, m, k) of the test basis.

    Component c of member i is sum_m H[c, m, i] test_m: the reference
    coefficients `tab.hess_coeffs` mapped by `shape.hessian_map`, one
    GEMM of the (3, m k) table against the stacked 3x3 maps.  The
    |det J|^(-1/2) scalings of both sides cancel.
    """
    n = len(jinv)
    _, m, k = tab.hess_coeffs.shape
    maps = shape.hessian_map(jinv).reshape(3 * n, 3)
    return (maps @ tab.hess_coeffs.reshape(3, m * k)).reshape(n, 3, m, k)


def _gram_stacks(hess, scheme):
    """Stacks S_v, S_tau with G = S^T S for the two test Gram blocks.

    In the element's orthonormal test basis the mass term is the
    identity and each second-order term is the Gram matrix of the
    Hessian coefficients, so S is the identity over those coefficients.
    Scheme 1 measures both blocks in the graph norm and returns the
    same stack twice.
    """
    n, _, _, k = hess.shape
    eye = np.broadcast_to(np.eye(k), (n, k, k))
    s_tau = np.concatenate([eye, hess[:, 0] + hess[:, 2]], axis=1)
    if scheme == 1:
        return s_tau, s_tau
    s_v = np.concatenate([eye, hess[:, 0], np.sqrt(2.0) * hess[:, 1], hess[:, 2]], axis=1)
    return s_v, s_tau


def _inverse_factor(s, labels):
    """L^-1 for the lower Cholesky factor L of each G = S^T S.

    L = R^T for the R factor of QR(S): factoring the stacked tables
    works at the square root of G's condition number (which grows like
    h^-4 on graded meshes) and never forms G.  The one batched inverse
    whitens both B and the load.
    """
    r = np.linalg.qr(s, mode="r")
    r *= _diagonal_signs(r, labels, "test Gram block")[:, :, None]
    return np.swapaxes(np.linalg.inv(r), 1, 2)


def _trial_basis(tab, jac, det, h, degree, labels):
    """Trial basis of degree p: centred, h-scaled monomials times L^-T.

    L is the lower Cholesky factor of the monomials' element moment
    matrix.  The leading dim_p test members are an orthonormal basis of
    P_p, so the monomials' coefficients in them, M = (test_l, mono_j),
    factor as M = Q L^T with Q = (test_l, trial_j).  Returns (L, T),
    T (n, k, dim_p) holding (test_i, trial_j), which vanishes below row
    dim_p.
    """
    dim_p = shape.basis_dimension(degree)
    # u = J (x_ref - 1/3) / h written out, which is several times
    # faster than the einsum and rounds the same
    rel = tab.quad.points - 1.0 / 3.0
    u = rel[:, 0, None] * jac[:, None, :, 0] + rel[:, 1, None] * jac[:, None, :, 1]
    u /= h[:, None, None]
    mono = shape.monomials(degree, u)
    weighted = tab.quad.weights[:, None] * tab.tri.val[:, :dim_p]
    moments = np.sqrt(det)[:, None, None] * np.einsum("ql,eqj->elj", weighted, mono)
    q, r = np.linalg.qr(moments)
    sign = _diagonal_signs(r, labels, "trial moment matrix")
    t = np.zeros((len(det), tab.dim, dim_p))
    t[:, :dim_p] = q * sign[:, None, :]
    return np.swapaxes(r * sign[:, :, None], 1, 2), t


def _b_blocks(mesh, tris, tab, det, jinv, lap, trial, with_corners):
    """The two nonzero blocks (b_v, b_tau) of the trial-to-test matrix
    in the element's orthonormal test basis, each (n, k, columns).

    The v block's columns are [sigma | sigma_hat], followed by the six
    corner columns of scheme 2 when `with_corners`; the tau block's are
    [u | sigma | uhat].  `lap` (n, m, k) expands the test Laplacians in
    the first m test members and `trial` holds (test_i, trial_j).
    """
    m = lap.shape[1]
    du = np.einsum("emi,emj->eij", lap, trial[:, :m])  # (u, Delta tau) = (sigma, Delta v)
    scale = det**-0.5
    trace = _skeleton_b(mesh, tris, tab, scale, jinv)  # uhat meets tau, sigma_hat meets v
    v_parts = [du, trace]
    if with_corners:
        v_parts.append(_corner_b(mesh, tris, scale[:, None, None] * tab.vertex.val))
    return np.concatenate(v_parts, axis=2), np.concatenate([du, -trial, trace], axis=2)


def _skeleton_b(mesh, tris, tab, scale, jinv):
    """The trace columns (n, k, 9) of B, shared by both trace unknowns.

    For each element edge the contribution to a test function t is
        -s int_e ( w dn_e(t) - w_n t ) ds
    where (w, w_n) is the reduced-HCT edge trace pair in the edge's
    global orientation and s the element-side orientation factor;
    `_b_blocks` pairs the columns of the first trace unknown with the
    tau block and those of the second with the v block.  The edge
    tables are read in the direction of the edge's global lo -> hi
    parameter; dn(t) = (J^-1 n) . grad_ref.  Per slot, the weighted
    dof tables meet the mapped test values in two batched matmuls, and
    the lo/hi halves are swapped where the slot runs hi -> lo.
    """
    k = tab.dim
    rule = tab.edge_rule
    weights = rule.weights[:, None]
    signs = mesh.edge_signs()[tris]
    tri_vertices = mesh.triangles[tris]
    out = np.zeros((len(tris), k, TRACE_COLS))

    for slot in range(3):
        e = mesh.tri_edges[tris, slot]
        lo_first = tri_vertices[:, slot] == mesh.edges[e, 0]
        direction = np.where(lo_first, 0, 1)
        val_t = tab.edge.val[slot, direction]
        kn = np.einsum("eab,eb->ea", jinv, mesh.edge_normal[e])
        dn_t = (tab.edge.grad[slot, direction] @ kn[:, None, :, None])[..., 0]
        val6, nd6 = ts.edge_dof_tables(mesh, e, rule.points)
        contrib = np.swapaxes(dn_t, 1, 2) @ (weights * val6)
        contrib -= np.swapaxes(val_t, 1, 2) @ (weights * nd6)
        contrib *= (-scale * signs[:, slot] * mesh.edge_length[e])[:, None, None]

        # dofs 0-2 belong to the lo endpoint, 3-5 to the hi one: order
        # them as the slot's first then second local vertex
        contrib = np.where(lo_first[:, None, None], contrib, np.roll(contrib, 3, axis=2))
        first, second = 3 * slot, 3 * ((slot + 1) % 3)
        out[:, :, first : first + 3] += contrib[:, :, :3]
        out[:, :, second : second + 3] += contrib[:, :, 3:]
    return out


def _corner_b(mesh, tris, corner_vals):
    """Corner-functional columns (n, k, 6) of the second trace unknown
    (scheme 2), ordered as the ids of `_corner_cols`.

    The scheme-2 trace space contains point functionals at mesh
    vertices (the tensor-trace pairing carries corner jump terms), so
    each edge endpoint gets one jump coefficient; an element pairs the
    telescoped difference of its two coefficients at each corner with
    the test value there (`corner_vals`, (n, 3, k)).  The telescoping
    makes the data of any globally smooth tensor sum to zero around
    interior vertices, which keeps the enrichment conforming; one
    coefficient per vertex is a pure gauge and is fixed to zero by the
    solver."""
    # per slot: +1 if it runs from its edge's global lo vertex, times
    # the owner sign; corner c starts slot c and ends slot c - 1
    lo_first = mesh.triangles[tris] == mesh.edges[mesh.tri_edges[tris], 0]
    sign = np.where(lo_first, 1.0, -1.0) * mesh.edge_signs()[tris]
    out = np.empty((len(tris), corner_vals.shape[2], CORNER_COLS))
    for c in range(3):
        out[:, :, 2 * c] = sign[:, c, None] * corner_vals[:, c]
        out[:, :, 2 * c + 1] = -sign[:, c - 1, None] * corner_vals[:, c]
    return out


def _corner_cols(mesh):
    """Global corner-coefficient ids of every element, shape (nt, 6).

    Corner c owns two ids: the endpoint at vertex c of edge slot c
    (which starts there) and of slot c - 1 (which ends there).  Edge e
    stores its lo-endpoint coefficient at 2e and its hi one at 2e + 1.
    """
    e = mesh.tri_edges
    lo_first = (mesh.triangles == mesh.edges[e, 0]).astype(np.int64)
    prev = [2, 0, 1]
    ids = np.stack([2 * e + 1 - lo_first, 2 * e[:, prev] + lo_first[:, prev]], axis=2)
    return ids.reshape(-1, CORNER_COLS)


def _load(tab, coords, det, f):
    """Loads (f, test_i) of a batch of elements, (n, k): the reference
    operator |det J|^(1/2) (w_ref V_ref)^T applied to f at the mapped
    quadrature points."""
    pts = _barycentric(tab.quad) @ coords
    fv = np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2])
    return np.sqrt(det)[:, None] * (fv @ (tab.quad.weights[:, None] * tab.tri.val))


@dataclass
class LocalSystems:
    """Whitened per-element systems, stored as their two test blocks,
    with u condensed out.

    Each trial unknown is tested by one test component only: u and uhat
    meet tau, sigma_hat and the corner functionals meet v, and sigma
    meets both.  So W = chol(G)^-1 B is zero outside two blocks, and
    only those are stored.  The ids index the element layout
    [u | sigma | uhat | sigma_hat | corners].  `w_v` (nt, k, n_v) is
    the v block over `v_cols` [sigma | sigma_hat | corners], with its
    load `wl_v` = chol(G_v)^-1 l.  The load does not meet tau, so u is
    eliminated element by element (static condensation): with the QR
    W_u = Q R of the tau block's u columns and W_r its [sigma | uhat]
    columns, `w_tau` (nt, k, n_tau) holds (I - Q Q^T) W_r over
    `tau_cols` [sigma | uhat], and `u_recovery` (nt, dim_p, n_tau)
    holds G = R^-1 Q^T W_r, the map u = -G x_tau to the u that
    minimizes the tau residual.  The local normal-equation blocks are
    the sums of w^T w and w^T load over the two blocks, and the squared
    residual indicator is the sum of |load - w x| over them (`blocks`);
    at u = -G x_tau the condensed tau residual is the full one.
    Trial-basis data (centroid, scale, Cholesky of the field moment
    matrix) supports evaluating the broken field variables.  For scheme
    2, `corner_cols` maps the six corner-functional columns of each
    element to global edge-endpoint coefficient ids (2 per edge).
    """

    formulation: Formulation
    w_v: np.ndarray
    wl_v: np.ndarray
    w_tau: np.ndarray
    u_recovery: np.ndarray
    v_cols: np.ndarray
    tau_cols: np.ndarray
    centroid: np.ndarray
    h: np.ndarray
    trial_chol: np.ndarray
    corner_cols: np.ndarray | None = None

    def blocks(self):
        """(w, load, local column ids) of the v and the tau block."""
        return (self.w_v, self.wl_v, self.v_cols), (self.w_tau, 0.0, self.tau_cols)


def _block_cols(dim_p, with_corners):
    """Local column ids of the v and the condensed tau block."""
    sigma_hat = 2 * dim_p + TRACE_COLS
    end = sigma_hat + TRACE_COLS + (CORNER_COLS if with_corners else 0)
    return np.r_[dim_p : 2 * dim_p, sigma_hat:end], np.arange(dim_p, sigma_hat)


def _condense_u(w, dim_p):
    """Eliminate u from a batch of whitened tau blocks [u | sigma | uhat].

    u meets tau alone and tau has no load, so for any values x_r of the
    other columns W_r the u minimizing |W_u u + W_r x_r| is -G x_r with
    G = R^-1 Q^T W_r, W_u = Q R, and the minimum is |(I - Q Q^T) W_r x_r|.
    The QR avoids the normal equations W_u^T W_u, which would square the
    cancellation that the field columns already suffer.  Returns
    ((I - Q Q^T) W_r, G).
    """
    q, r = np.linalg.qr(w[:, :, :dim_p])
    rest = w[:, :, dim_p:]
    qt_rest = np.swapaxes(q, 1, 2) @ rest
    return rest - q @ qt_rest, np.linalg.solve(r, qt_rest)


def translation_classes(mesh):
    """Group the elements into classes whose local systems coincide.

    The key of an element is the exact bytes of its relative vertex
    coordinates (v1 - v0, v2 - v0) plus two bits per local edge:
    whether the edge's global lo vertex is the slot's first vertex (it
    fixes the edge parameter, the tangent and where the lo/hi dofs go)
    and the owner sign of `Mesh.edge_signs` (it fixes the normal and
    the corner-column signs).  Returns (first, cls, counts): the first
    element of each class, the class of each element and the class
    sizes.
    """
    coords = mesh.triangle_coords()
    lo_first = mesh.triangles == mesh.edges[mesh.tri_edges, 0]
    keys = np.column_stack(
        [(coords[:, 1:] - coords[:, :1]).reshape(-1, 4), lo_first, mesh.edge_signs()]
    )
    keys = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, cls, counts = np.unique(
        keys[:, 0], return_index=True, return_inverse=True, return_counts=True
    )
    return first, cls, counts


def build_local_systems(mesh, formulation, f):
    """Factor and whiten the local systems of every element.

    Scheme 2 appends the corner-functional columns of the second trace
    unknown after the standard [u | sigma | uhat | sigma_hat] layout.
    B and W are built as their two test blocks only, with u condensed
    out of the tau block (`LocalSystems`).

    The dense kernels (the mapped reference tables, B, the QR whitening
    and its inverse factors, the condensation of u) run once per class of
    `translation_classes`, on its first element, and are copied to the
    other members; only the load f(x_q) and its whitening, the centroid
    and the corner ids are computed per element.  The key is
    translation-only on purpose: mass terms scale with h^2 and Hessian
    terms with h^-2, so the Gram blocks follow no common scaling law
    and a similarity key would need one.  A mesh without repeated
    shapes has one class per element and takes the same path.
    """
    nt = mesh.num_triangles
    k = formulation.test_dim
    dim_p = formulation.field_dim
    with_corners = formulation.scheme == 2
    v_cols, tau_cols = _block_cols(dim_p, with_corners)
    w_v = np.empty((nt, k, len(v_cols)))
    w_tau = np.empty((nt, k, len(tau_cols)))
    u_recovery = np.empty((nt, dim_p, len(tau_cols)))
    wl_v = np.empty((nt, k))
    trial_chol = np.empty((nt, dim_p, dim_p))

    tab = shape.reference_tables(formulation.test_degree)
    coords = mesh.triangle_coords()
    first, cls, counts = translation_classes(mesh)
    by_class = np.argsort(cls, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])
    for c0 in range(0, len(first), CHUNK):
        c1 = min(c0 + CHUNK, len(first))
        reps = first[c0:c1]
        jac, det, jinv = _maps(coords[reps], reps)
        hess = _hessians(tab, jinv)
        s_v, s_tau = _gram_stacks(hess, formulation.scheme)
        linv_v = _inverse_factor(s_v, reps)
        linv_tau = linv_v if s_tau is s_v else _inverse_factor(s_tau, reps)
        chol, trial = _trial_basis(
            tab, jac, det, mesh.diameters[reps], formulation.field_degree, reps
        )
        b_v, b_tau = _b_blocks(
            mesh, reps, tab, det, jinv, hess[:, 0] + hess[:, 2], trial, with_corners
        )
        b_v = linv_v @ b_v
        b_tau, recovery = _condense_u(linv_tau @ b_tau, dim_p)

        # members in slices of CHUNK, so no per-element copy of a class
        # table is ever larger than one slice
        for s in range(starts[c0], starts[c1], CHUNK):
            tris = by_class[s : min(s + CHUNK, starts[c1])]
            loc = cls[tris] - c0
            w_v[tris] = b_v[loc]
            w_tau[tris] = b_tau[loc]
            u_recovery[tris] = recovery[loc]
            trial_chol[tris] = chol[loc]
            load = _load(tab, coords[tris], det[loc], f)
            wl_v[tris] = np.einsum("eij,ej->ei", linv_v[loc], load)

    return LocalSystems(
        formulation,
        w_v,
        wl_v,
        w_tau,
        u_recovery,
        v_cols,
        tau_cols,
        coords.mean(axis=1),
        mesh.diameters,
        trial_chol,
        _corner_cols(mesh) if with_corners else None,
    )
