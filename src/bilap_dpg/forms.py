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

Every kernel is written in the element's own frame: each edge slot
runs from the slot's first vertex to its second, along the element's
counterclockwise traversal, with the element's outward normal, and the
vertex dofs are Cartesian.  Nothing in a kernel depends on how the mesh
numbers its vertices or orders its elements.

`build_local_systems` is the module's one entry point; a single
element's system is that of a one-element `Mesh`.  It runs the dense
kernels once per translation class of elements and stores them once
per class: elements whose relative vertex coordinates (v1 - v0,
v2 - v0) agree after rounding to 2^-40 of their binade 2^floor(log2 h),
in the same binade, share one kernel, computed from those rounded
coordinates alone.  There is no scale key: mass terms scale with h^2
and Hessian terms with h^-2, so the Gram blocks of similar elements are
not multiples of each other.
Nested newest-vertex bisection yields finitely many shapes, so uniform
and graded meshes reuse most kernels; a mesh without repeated shapes
has one class per element.  Each call computes its classes afresh:
nothing is carried from one mesh to the next.

`products` is the one per-element product of class kernels: the load
whitening here and every product with W in `dpg_solver` use it or its
slices, `class_chunks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bilap_dpg import shape
from bilap_dpg import trace_space as ts
from bilap_dpg.linsolve import NotPositiveDefiniteError
from bilap_dpg.mesh import triangle_diameters

TRACE_COLS = 9  # 3 vertices x (value, d/dx, d/dy) per trace unknown
CORNER_COLS = 6  # 3 corners x (outgoing, incoming) jump coefficients
CORNER_SIGNS = np.tile([1.0, -1.0], 3)  # outgoing +, incoming -
MIN_ELEMENT_AREA = 1e-14
CHUNK = 1024  # classes per batch of dense kernels
KEY_BITS = 40  # class keys round relative coordinates to 2^-KEY_BITS of the binade of h
GATHER = 256  # elements per slice of gathered class kernels (`class_chunks`)


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


def _b_blocks(coords, tab, det, jinv, lap, trial, with_corners):
    """The two nonzero blocks (b_v, b_tau) of the trial-to-test matrix
    in the element's orthonormal test basis, each (n, k, columns), for
    elements with vertex coordinates `coords` (n, 3, 2).

    The v block's columns are [sigma | sigma_hat], followed by the six
    corner columns of scheme 2 when `with_corners`; the tau block's are
    [u | sigma | uhat].  `lap` (n, m, k) expands the test Laplacians in
    the first m test members and `trial` holds (test_i, trial_j).
    """
    m = lap.shape[1]
    du = np.einsum("emi,emj->eij", lap, trial[:, :m])  # (u, Delta tau) = (sigma, Delta v)
    scale = det**-0.5
    trace = _skeleton_b(coords, tab, scale, jinv)  # uhat meets tau, sigma_hat meets v
    v_parts = [du, trace]
    if with_corners:
        v_parts.append(_corner_b(scale[:, None, None] * tab.vertex.val))
    return np.concatenate(v_parts, axis=2), np.concatenate([du, -trial, trace], axis=2)


def _skeleton_b(coords, tab, scale, jinv):
    """The trace columns (n, k, 9) of B, shared by both trace unknowns.

    Edge slot s runs from vertex s to vertex s + 1 of the element, with
    the element's outward normal n.  Its contribution to a test
    function t is
        -int_e ( w dn(t) - w_n t ) ds
    where (w, w_n) is the reduced-HCT trace pair of the slot's endpoint
    dofs, the first endpoint's three followed by the second's;
    `_b_blocks` pairs the columns of the first trace unknown with the
    tau block and those of the second with the v block.
    dn(t) = (J^-1 n) . grad_ref.  Per slot, the weighted dof tables
    meet the mapped test values in two batched matmuls.
    """
    weights = tab.edge_rule.weights[:, None]
    out = np.zeros((len(coords), tab.dim, TRACE_COLS))
    for slot in range(3):
        d = coords[:, (slot + 1) % 3] - coords[:, slot]
        length = np.hypot(d[:, 0], d[:, 1])
        tangent = d / length[:, None]
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])  # outward: CCW elements
        kn = np.einsum("eab,eb->ea", jinv, normal)
        dn_t = (tab.edge.grad[slot] @ kn[:, None, :, None])[..., 0]
        val6, nd6 = ts.edge_dof_tables(length, tangent, normal, tab.edge_rule.points)
        contrib = np.swapaxes(dn_t, 1, 2) @ (weights * val6)
        contrib -= tab.edge.val[slot].T @ (weights * nd6)
        contrib *= (-scale * length)[:, None, None]
        first, second = 3 * slot, 3 * ((slot + 1) % 3)
        out[:, :, first : first + 3] += contrib[:, :, :3]
        out[:, :, second : second + 3] += contrib[:, :, 3:]
    return out


def _corner_b(corner_vals):
    """Corner-functional columns (n, k, 6) of the second trace unknown
    (scheme 2), ordered as the ids of `_corner_cols`.

    The scheme-2 trace space contains point functionals at mesh
    vertices (the tensor-trace pairing carries corner jump terms), so
    each edge endpoint gets one jump coefficient.  Along the element's
    counterclockwise traversal, corner c is where slot c leaves and slot
    c - 1 arrives: the element pairs the outgoing coefficient minus the
    incoming one with the test value there (`corner_vals`, (n, 3, k)).
    The two elements at an edge traverse it in opposite directions, so
    each coefficient enters one of them with + and the other with -: the
    data of any globally smooth tensor sums to zero around interior
    vertices, which keeps the enrichment conforming.  One coefficient
    per vertex is a pure gauge and is fixed to zero by the solver."""
    return np.repeat(np.swapaxes(corner_vals, 1, 2), 2, axis=2) * CORNER_SIGNS


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
    """Whitened element systems, stored as their two test blocks, with
    u condensed out, once per class of `translation_classes`.

    Each trial unknown is tested by one test component only: u and uhat
    meet tau, sigma_hat and the corner functionals meet v, and sigma
    meets both.  So W = chol(G)^-1 B is zero outside two blocks, and
    only those are stored.  The ids index the element layout
    [u | sigma | uhat | sigma_hat | corners].  The kernels `w_v`,
    `w_tau` and `u_recovery` are per class, and `cls` (nt,) is the class
    of each element (`products` applies them); `wl_v`, `trial_chol`,
    `centroid`, `h` and `corner_cols` are per element.  `w_v`
    (n_classes, k, n_v) is the v block over `v_cols` [sigma | sigma_hat
    | corners], and `wl_v` (nt, k) = chol(G_v)^-1 l its load.  The load
    does not meet tau, so u is eliminated element by element (static
    condensation): with the QR W_u = Q R of the tau block's u columns
    and W_r its [sigma | uhat] columns, `w_tau` (n_classes, k, n_tau)
    holds (I - Q Q^T) W_r over `tau_cols` [sigma | uhat], and
    `u_recovery` (n_classes, dim_p, n_tau) holds G = R^-1 Q^T W_r, the
    map u = -G x_tau to the u that minimizes the tau residual.  The local normal-equation blocks are
    the sums of w^T w and w^T load over the two blocks, and the squared
    residual indicator is the sum of |load - w x| over them (`blocks`);
    at u = -G x_tau the condensed tau residual is the full one.
    Per-element trial-basis data (centroid, scale, Cholesky of the
    field moment matrix) supports evaluating the broken field variables.
    For scheme 2, `corner_cols` maps the six corner-functional columns
    of each element to global edge-endpoint coefficient ids (2 per
    edge).
    """

    formulation: Formulation
    w_v: np.ndarray
    wl_v: np.ndarray
    w_tau: np.ndarray
    u_recovery: np.ndarray
    cls: np.ndarray
    v_cols: np.ndarray
    tau_cols: np.ndarray
    centroid: np.ndarray
    h: np.ndarray
    trial_chol: np.ndarray
    corner_cols: np.ndarray | None = None

    def blocks(self):
        """(class kernels, per-element load, local column ids) of the v
        and the tau block."""
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
    """Group the elements into classes that share one local system.

    The key of an element is the binade exponent e = floor(log2 h) of
    its diameter h and its relative vertex coordinates (v1 - v0,
    v2 - v0) rounded to the quantum 2^(e - KEY_BITS).  The quantum is
    tied to the element's own size, so translates whose coordinates
    differ in the last bits (the midpoints of irrational vertices)
    share a class, while an element and its exactly similar copy of
    another size do not.  Returns (first, cls, keys): the first element
    of each class, the class of each element and the class keys, in the
    order of the classes.
    """
    coords = mesh.triangle_coords()
    _, exponent = np.frexp(mesh.diameters)  # h in [2^(exponent - 1), 2^exponent)
    rel = (coords[:, 1:] - coords[:, :1]).reshape(-1, 4)
    keys = np.column_stack(
        [exponent, np.rint(np.ldexp(rel, (KEY_BITS + 1 - exponent)[:, None]))]
    ).astype(np.int64)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    keys, first, cls = np.unique(keys, return_index=True, return_inverse=True)
    return first, cls, keys


def _key_coords(keys):
    """The vertex coordinates (n, 3, 2) that class keys stand for: v0 at
    the origin, v1 and v2 at the rounded relative coordinates."""
    ints = keys.view(np.int64).reshape(len(keys), -1)
    rel = np.ldexp(ints[:, 1:].astype(float), ints[:, :1] - KEY_BITS - 1)
    return np.concatenate([np.zeros((len(keys), 1, 2)), rel.reshape(-1, 2, 2)], axis=1)


def build_local_systems(mesh, formulation, f):
    """Factor and whiten the local systems of every element.

    Scheme 2 appends the corner-functional columns of the second trace
    unknown after the standard [u | sigma | uhat | sigma_hat] layout.
    B and W are built as their two test blocks only, with u condensed
    out of the tau block (`LocalSystems`).

    The dense kernels (the mapped reference tables, B, the QR whitening
    and its inverse factors, the condensation of u) run once per class of
    `translation_classes`, on the element its key stands for (v0 at the
    origin, the rounded relative coordinates), and are stored once per
    class: no element gets a copy of W.  The one class loop also keeps
    each class's inverse v-block Gram factor and trial factor; then
    `products` whitens every element's load f(x_q) with the former, and
    each element takes its class's trial factor.  A kernel is a function
    of its key alone, so it differs from one built on an element's exact
    coordinates by the key's rounding, about 1e-12 h, and is the same
    bits wherever and in whatever company it is computed.  The key is
    translation-only on purpose: mass terms scale with h^2 and Hessian
    terms with h^-2, so the Gram blocks follow no common scaling law and
    a similarity key would need one.  A mesh without repeated shapes has
    one class per element and takes the same path.
    """
    k = formulation.test_dim
    dim_p = formulation.field_dim
    with_corners = formulation.scheme == 2
    v_cols, tau_cols = _block_cols(dim_p, with_corners)
    tab = shape.reference_tables(formulation.test_degree)
    coords = mesh.triangle_coords()
    first, cls, keys = translation_classes(mesh)
    key_coords = _key_coords(keys)
    jac, det, jinv = _maps(key_coords, first)

    n_classes = len(first)
    w_v = np.empty((n_classes, k, len(v_cols)))
    w_tau = np.empty((n_classes, k, len(tau_cols)))
    u_recovery = np.empty((n_classes, dim_p, len(tau_cols)))
    linv_v = np.empty((n_classes, k, k))
    chol = np.empty((n_classes, dim_p, dim_p))
    for c0 in range(0, n_classes, CHUNK):
        c = slice(c0, c0 + CHUNK)
        reps = first[c]
        hess = _hessians(tab, jinv[c])
        s_v, s_tau = _gram_stacks(hess, formulation.scheme)
        linv_v[c] = _inverse_factor(s_v, reps)
        linv_tau = linv_v[c] if s_tau is s_v else _inverse_factor(s_tau, reps)
        chol[c], trial = _trial_basis(
            tab, jac[c], det[c], triangle_diameters(key_coords[c]), formulation.field_degree, reps
        )
        b_v, b_tau = _b_blocks(
            key_coords[c], tab, det[c], jinv[c], hess[:, 0] + hess[:, 2], trial, with_corners
        )
        w_v[c] = linv_v[c] @ b_v
        w_tau[c], u_recovery[c] = _condense_u(linv_tau @ b_tau, dim_p)

    return LocalSystems(
        formulation,
        w_v,
        products(linv_v, cls, _load(tab, coords, det[cls], f)),
        w_tau,
        u_recovery,
        cls,
        v_cols,
        tau_cols,
        coords.mean(axis=1),
        mesh.diameters,
        chol[cls],
        _corner_cols(mesh) if with_corners else None,
    )


def class_chunks(kernels, cls):
    """(elements, their kernels) of class kernels (n_classes, ...) in
    slices of GATHER elements, so that no per-element copy of a class
    table outgrows one slice."""
    for start in range(0, len(cls), GATHER):
        elements = slice(start, start + GATHER)
        yield elements, kernels[cls[elements]]


def products(kernels, cls, x, transpose=False):
    """Per-element products kernels[cls[e]] @ x[e] of class kernels
    (n_classes, rows, columns) with vectors x (nt, columns), or with the
    kernels transposed; returns (nt, rows).  Each slice of
    `class_chunks` is one batched matmul, whose bits do not depend on
    where the slices fall."""
    out = np.empty((len(cls), kernels.shape[2 if transpose else 1]))
    for elements, w in class_chunks(kernels, cls):
        if transpose:
            w = np.swapaxes(w, 1, 2)
        out[elements] = (w @ x[elements, :, None])[..., 0]
        del w  # else it lives on while the next slice is gathered
    return out
