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

Element test/trial bases are seeded by centered, diameter-scaled
monomials; the solver orthonormalizes them against the element L2
inner product to keep Gram matrices well conditioned at enrichment
degrees 4-6, while the plain monomial basis remains available (and is
the default of the single-element entry points below).

`build_local_systems` runs the dense kernels once per translation
class of elements: elements with bit-equal relative vertex coordinates
(v1 - v0, v2 - v0), the same orientation of each edge's global lo/hi
endpoints relative to the element's slots and the same edge owner
signs have equal local systems up to rounding.  There is no scale key:
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
    def tag(self):
        return f"VF{self.scheme}"

    @property
    def field_dim(self):
        return shape.basis_dimension(self.field_degree)

    @property
    def test_dim(self):
        return shape.basis_dimension(self.test_degree)

    @property
    def num_local_cols(self):
        return 2 * self.field_dim + 2 * TRACE_COLS


def monomial_exponents(degree):
    """Graded monomial exponents (i, j) for x^i y^j, total degree <= degree."""
    out = [(q - j, j) for q in range(degree + 1) for j in range(q + 1)]
    return np.array(out, dtype=np.int64)


def _barycentric(rule):
    """Barycentric coordinates of a reference triangle rule, (nq, 3)."""
    return np.column_stack([1 - rule.points[:, 0] - rule.points[:, 1], rule.points])


class ElementBases:
    """Monomial-seeded polynomial bases on a batch of triangles.

    Monomials are centered at the element centroid and scaled by the
    element diameter.  With ``orthonormal=True`` the basis is
    Gram-Schmidt orthonormalized against the element L2 inner product
    (realized as a Cholesky factorization of the monomial moment
    matrix, which preserves the degree grading).
    """

    def __init__(self, coords, degree, orthonormal=False, quad_exactness=None,
                 labels=None):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 2:
            coords = coords[None]
        self.coords = coords
        self.degree = int(degree)
        self.orthonormal = bool(orthonormal)
        self.labels = np.arange(len(coords)) if labels is None else np.asarray(labels)
        self.exponents = monomial_exponents(self.degree)

        d1 = coords[:, 1] - coords[:, 0]
        d2 = coords[:, 2] - coords[:, 0]
        self.double_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(np.abs(self.double_area) < 2 * MIN_ELEMENT_AREA):
            bad = int(np.argmin(np.abs(self.double_area)))
            raise FormsError(f"degenerate element {self.labels[bad]}")
        self.centroid = coords.mean(axis=1)
        sides = np.stack(
            [
                np.hypot(*(coords[:, 1] - coords[:, 0]).T),
                np.hypot(*(coords[:, 2] - coords[:, 1]).T),
                np.hypot(*(coords[:, 0] - coords[:, 2]).T),
            ],
            axis=1,
        )
        self.h = sides.max(axis=1)

        if quad_exactness is None:
            quad_exactness = 2 * self.degree + 2
        rule = shape.triangle_quadrature(quad_exactness)
        self.points = np.einsum("qr,trd->tqd", _barycentric(rule), coords)
        self.weights = np.outer(self.double_area, rule.weights)

        self.chol = None
        if self.orthonormal:
            # the Cholesky factor of the monomial moment matrix, computed
            # as the R factor of the weighted Vandermonde's QR: R^T R =
            # V^T W V, at the square root of the moment matrix's
            # condition number (degree-4 monomial moments reach 1e9+)
            val = self._monomials(self.points)[0]
            vw = val * np.sqrt(self.weights)[:, :, None]
            r = np.linalg.qr(vw, mode="r")
            diag = np.einsum("tii->ti", r)
            if np.any(diag == 0):
                bad = int(np.nonzero((diag == 0).any(axis=1))[0][0])
                raise NotPositiveDefiniteError(
                    f"element moment matrix is singular (element {self.labels[bad]})"
                )
            r = r * np.sign(diag)[:, :, None]
            self.chol = r.transpose(0, 2, 1)
        self.val, self.grad, self.hess = self.eval(self.points)

    def _monomials(self, pts):
        """Raw monomial tables at physical points, shape (nt, nq, dim, ...)."""
        u = (pts - self.centroid[:, None, :]) / self.h[:, None, None]
        ex, ey = self.exponents[:, 0], self.exponents[:, 1]
        deg = self.degree
        powx = np.stack([u[..., 0] ** k for k in range(deg + 1)], axis=-1)
        powy = np.stack([u[..., 1] ** k for k in range(deg + 1)], axis=-1)
        h = self.h[:, None, None]

        val = powx[..., ex] * powy[..., ey]
        grad = np.zeros(val.shape + (2,))
        hess = np.zeros(val.shape + (3,))  # xx, xy, yy
        px1 = np.where(ex > 0, powx[..., np.maximum(ex - 1, 0)], 0.0)
        py1 = np.where(ey > 0, powy[..., np.maximum(ey - 1, 0)], 0.0)
        px2 = np.where(ex > 1, powx[..., np.maximum(ex - 2, 0)], 0.0)
        py2 = np.where(ey > 1, powy[..., np.maximum(ey - 2, 0)], 0.0)
        grad[..., 0] = ex * px1 * powy[..., ey] / h
        grad[..., 1] = ey * powx[..., ex] * py1 / h
        hess[..., 0] = ex * (ex - 1) * px2 * powy[..., ey] / h**2
        hess[..., 1] = ex * ey * px1 * py1 / h**2
        hess[..., 2] = ey * (ey - 1) * powx[..., ex] * py2 / h**2
        return val, grad, hess

    def eval(self, pts):
        """Basis values/gradients/Hessian components at physical points.

        Returns (val (t, q, n), grad (t, q, n, 2), hess (t, q, n, 3))
        with Hessian components ordered (xx, xy, yy).
        """
        val, grad, hess = self._monomials(pts)
        if self.chol is None:
            return val, grad, hess
        nt, nq, dim = val.shape
        stacked = np.concatenate(
            [
                val,
                grad[..., 0],
                grad[..., 1],
                hess[..., 0],
                hess[..., 1],
                hess[..., 2],
            ],
            axis=1,
        )  # (t, 6*nq, dim)
        sol = np.linalg.solve(self.chol, stacked.transpose(0, 2, 1)).transpose(0, 2, 1)
        val = sol[:, :nq]
        grad = np.stack([sol[:, nq : 2 * nq], sol[:, 2 * nq : 3 * nq]], axis=-1)
        hess = np.stack(
            [sol[:, 3 * nq : 4 * nq], sol[:, 4 * nq : 5 * nq], sol[:, 5 * nq :]],
            axis=-1,
        )
        return val, grad, hess


def _gram(bases, scheme):
    w = bases.weights
    val, hess = bases.val, bases.hess
    lap = hess[..., 0] + hess[..., 2]
    mass = np.einsum("tq,tqi,tqj->tij", w, val, val)
    a_lap = np.einsum("tq,tqi,tqj->tij", w, lap, lap)
    if scheme == 1:
        g_v = mass + a_lap
    else:
        g_v = (
            mass
            + np.einsum("tq,tqi,tqj->tij", w, hess[..., 0], hess[..., 0])
            + 2 * np.einsum("tq,tqi,tqj->tij", w, hess[..., 1], hess[..., 1])
            + np.einsum("tq,tqi,tqj->tij", w, hess[..., 2], hess[..., 2])
        )
    g_tau = mass + a_lap
    nt, k = w.shape[0], val.shape[2]
    g = np.zeros((nt, 2 * k, 2 * k))
    g[:, :k, :k] = g_v
    g[:, k:, k:] = g_tau
    return g


def _volume_b(bases, field_dim):
    w = bases.weights
    k, dim_p = bases.val.shape[2], field_dim
    trial = bases.val[..., :dim_p]  # graded basis: leading block spans P_p
    lap = bases.hess[..., 0] + bases.hess[..., 2]
    nt = w.shape[0]
    b = np.zeros((nt, 2 * k, 2 * dim_p + 2 * TRACE_COLS))
    du = np.einsum("tq,tqi,tqj->tij", w, lap, trial)
    b[:, k:, :dim_p] = du  # (u, Delta tau)
    b[:, :k, dim_p : 2 * dim_p] = du  # (sigma, Delta v)
    b[:, k:, dim_p : 2 * dim_p] = -np.einsum(
        "tq,tqi,tqj->tij", w, bases.val, trial
    )  # -(sigma, tau)
    return b


def _skeleton_b(mesh, tris, bases, field_dim, b):
    """Accumulate the trace columns of B in place.

    For each element edge the contribution to a test function t is
        -s int_e ( w dn_e(t) - w_n t ) ds
    where (w, w_n) is the reduced-HCT edge trace pair in the edge's
    global orientation and s the element-side orientation factor; trace
    columns of the first unknown pair with the tau block, those of the
    second with the v block.
    """
    k, dim_p = bases.val.shape[2], field_dim
    rule = shape.edge_quadrature(2 * bases.degree + 4)
    t_pts, t_wts = rule.points, rule.weights
    signs = mesh.edge_signs()[tris]
    tri_vertices = mesh.triangles[tris]
    base_uhat = 2 * dim_p
    base_shat = 2 * dim_p + TRACE_COLS

    for slot in range(3):
        e = mesh.tri_edges[tris, slot]
        lo, hi = mesh.edges[e, 0], mesh.edges[e, 1]
        plo, phi = mesh.vertices[lo], mesh.vertices[hi]
        x = plo[:, None, :] + t_pts[None, :, None] * (phi - plo)[:, None, :]
        val_t, grad_t, _ = bases.eval(x)
        n = mesh.edge_normal[e]
        dn_t = np.einsum("tqid,td->tqi", grad_t, n)
        val6, nd6 = ts.edge_dof_tables(mesh, e, t_pts)
        contrib = np.einsum("q,tqd,tqi->tid", t_wts, val6, dn_t) - np.einsum(
            "q,tqd,tqi->tid", t_wts, nd6, val_t
        )
        contrib *= (-signs[:, slot] * mesh.edge_length[e])[:, None, None]

        loc_lo = np.argmax(tri_vertices == lo[:, None], axis=1)
        loc_hi = np.argmax(tri_vertices == hi[:, None], axis=1)
        rows = np.arange(len(tris))[:, None]
        for d in range(6):
            loc = loc_lo if d < 3 else loc_hi
            comp = d % 3
            col_u = base_uhat + 3 * loc + comp
            col_s = base_shat + 3 * loc + comp
            b[rows, k + np.arange(k)[None, :], col_u[:, None]] += contrib[:, :, d]
            b[rows, np.arange(k)[None, :], col_s[:, None]] += contrib[:, :, d]


def _corner_b(mesh, tris, bases, b, base_cols):
    """Corner-functional columns of the second trace unknown (scheme 2).

    The scheme-2 trace space contains point functionals at mesh
    vertices (the tensor-trace pairing carries corner jump terms), so
    each edge endpoint gets one jump coefficient; an element pairs the
    telescoped difference of its two coefficients at each corner with
    the test value there.  The telescoping makes the data of any
    globally smooth tensor sum to zero around interior vertices, which
    keeps the enrichment conforming; one coefficient per vertex is a
    pure gauge and is fixed to zero by the solver.

    Fills six columns of `b` starting at `base_cols` (tested by the v
    block), ordered as the ids of `_corner_cols`.
    """
    k = b.shape[1] // 2
    tri_vertices = mesh.triangles[tris]
    corner_vals = bases.eval(bases.coords)[0]  # (nt, 3, k)
    esigns = mesh.edge_signs()[tris]
    for c in range(3):
        for which, slot in ((0, c), (1, (c + 2) % 3)):
            e = mesh.tri_edges[tris, slot]
            direction = np.where(tri_vertices[:, slot] == mesh.edges[e, 0], 1.0, -1.0)
            sign = direction * esigns[:, slot]
            if which == 1:
                sign = -sign
            b[:, :k, base_cols + 2 * c + which] = sign[:, None] * corner_vals[:, c, :]


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


def _load(bases, f):
    k = bases.val.shape[2]
    fv = np.asarray(
        f(bases.points[..., 0], bases.points[..., 1]), dtype=float
    )
    fv = np.broadcast_to(fv, bases.weights.shape)
    out = np.zeros((bases.weights.shape[0], 2 * k))
    out[:, :k] = np.einsum("tq,tq,tqi->ti", bases.weights, fv, bases.val)
    return out


def _bases_for(mesh, tris, test_degree, orthonormal):
    coords = mesh.triangle_coords()[tris]
    return ElementBases(
        coords,
        test_degree,
        orthonormal=orthonormal,
        quad_exactness=2 * test_degree + 2,
        labels=tris,
    )


def local_gram(vertices, formulation, orthonormal=False, test_degree=None):
    """Test-space Gram matrix of one element, shape (2k, 2k).

    Block diagonal over the two test components; see the module
    docstring for the scheme-dependent inner products.  `test_degree`
    overrides the formulation's degree (diagnostics with low-degree
    test blocks need degrees the Formulation invariant would reject).
    """
    degree = formulation.test_degree if test_degree is None else test_degree
    bases = ElementBases(
        np.asarray(vertices, dtype=float),
        degree,
        orthonormal=orthonormal,
        quad_exactness=2 * degree + 2,
    )
    return _gram(bases, formulation.scheme)[0]


def local_b(mesh, tri, formulation, orthonormal=False, test_degree=None):
    """Trial-to-test matrix of one element.

    Rows are the 2k test functions (v block then tau block); columns
    are ordered [u | sigma | uhat (9) | sigma_hat (9)].
    """
    degree = formulation.test_degree if test_degree is None else test_degree
    tris = np.array([tri], dtype=np.int64)
    bases = _bases_for(mesh, tris, degree, orthonormal)
    b = _volume_b(bases, formulation.field_dim)
    _skeleton_b(mesh, tris, bases, formulation.field_dim, b)
    return b[0]


def local_load(vertices, f, formulation, orthonormal=False, test_degree=None):
    """Load vector (f, v_i) of one element; tau-block entries are zero."""
    degree = formulation.test_degree if test_degree is None else test_degree
    bases = ElementBases(
        np.asarray(vertices, dtype=float),
        degree,
        orthonormal=orthonormal,
        quad_exactness=2 * degree + 2,
    )
    return _load(bases, f)[0]


@dataclass
class LocalSystems:
    """Whitened per-element systems.

    `w` holds chol(G)^-1 B and `wl` holds chol(G)^-1 l, so the local
    normal-equation blocks are w^T w and w^T wl, and the squared
    residual indicator is |wl - w x|^2.  Trial-basis data (centroid,
    scale, Cholesky of the field moment matrix) supports evaluating
    the broken field variables.  For scheme 2, `corner_cols` maps the
    six appended corner-functional columns of each element to global
    edge-endpoint coefficient ids (2 per edge).
    """

    formulation: Formulation
    w: np.ndarray
    wl: np.ndarray
    centroid: np.ndarray
    h: np.ndarray
    trial_chol: np.ndarray
    corner_cols: np.ndarray | None = None


def _block_whitener(bases, scheme):
    """Cholesky factors of the two test Gram blocks via factored QR.

    The graph-norm Grams have condition numbers up to h^-4 times a
    Markov factor, and their low-lying eigenspaces (harmonic
    polynomials for the Laplacian graph norm) are destroyed when the
    Gram is formed explicitly in floating point.  Writing each block as
    G = S^T S with S the stacked weighted test tables and taking the R
    factor of QR(S) (so G = R^T R) computes the same factor at the
    square root of the condition number and never forms G.

    Returns (L_v, L_tau), lower-triangular with G_block = L L^T.
    """
    sw = np.sqrt(bases.weights)[:, :, None]
    val = bases.val * sw
    hess = bases.hess
    lap = (hess[..., 0] + hess[..., 2]) * sw[..., 0][:, :, None]
    if scheme == 1:
        s_v = np.concatenate([val, lap], axis=1)
    else:
        s_v = np.concatenate(
            [
                val,
                hess[..., 0] * sw[..., 0][:, :, None],
                np.sqrt(2.0) * hess[..., 1] * sw[..., 0][:, :, None],
                hess[..., 2] * sw[..., 0][:, :, None],
            ],
            axis=1,
        )
    s_tau = np.concatenate([val, lap], axis=1)
    factors = []
    for s in (s_v, s_tau):
        r = np.linalg.qr(s, mode="r")
        diag = np.einsum("tii->ti", r)
        if np.any(diag == 0):
            bad = int(np.nonzero((diag == 0).any(axis=1))[0][0])
            raise NotPositiveDefiniteError(
                f"test Gram block is singular (element {bases.labels[bad]})"
            )
        r = r * np.sign(diag)[:, :, None]
        factors.append(r.transpose(0, 2, 1))
    return factors


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

    The dense kernels (bases, B, the QR whitening and the whitened load
    operator) run once per class of `translation_classes`, on its first
    element, and are copied to the other members; only the load values
    f(x_q), the centroid and the corner ids are computed per element.
    The key is translation-only on purpose: mass terms scale with h^2
    and Hessian terms with h^-2, so the Gram blocks follow no common
    scaling law and a similarity key would need one.  A mesh without
    repeated shapes has one class per element and takes the same path.
    """
    nt = mesh.num_triangles
    k = formulation.test_dim
    dim_p = formulation.field_dim
    with_corners = formulation.scheme == 2
    base_cols = formulation.num_local_cols
    ncol = base_cols + (CORNER_COLS if with_corners else 0)
    w_all = np.empty((nt, 2 * k, ncol))
    wl_all = np.zeros((nt, 2 * k))  # the tau-block load is identically zero
    trial_chol = np.empty((nt, dim_p, dim_p))

    coords = mesh.triangle_coords()
    bary = _barycentric(shape.triangle_quadrature(2 * formulation.test_degree + 2))
    first, cls, counts = translation_classes(mesh)
    by_class = np.argsort(cls, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])
    for c0 in range(0, len(first), CHUNK):
        c1 = min(c0 + CHUNK, len(first))
        reps = first[c0:c1]
        bases = _bases_for(mesh, reps, formulation.test_degree, True)
        b = np.zeros((len(reps), 2 * k, ncol))
        b[:, :, :base_cols] = _volume_b(bases, dim_p)
        _skeleton_b(mesh, reps, bases, dim_p, b)
        if with_corners:
            _corner_b(mesh, reps, bases, b, base_cols)
        l_v, l_tau = _block_whitener(bases, formulation.scheme)
        b[:, :k] = np.linalg.solve(l_v, b[:, :k])
        b[:, k:] = np.linalg.solve(l_tau, b[:, k:])
        # whitened load operator: wl_v = L_v^-1 (W val)^T f(x_q)
        load = np.linalg.solve(l_v, (bases.weights[:, :, None] * bases.val).transpose(0, 2, 1))
        # R of a leading column block = leading block of R, so this is
        # the trial-basis transform
        chol = bases.chol[:, :dim_p, :dim_p]

        # members in slices of CHUNK, so no per-element copy of a class
        # table is ever larger than one slice
        for s in range(starts[c0], starts[c1], CHUNK):
            tris = by_class[s : min(s + CHUNK, starts[c1])]
            loc = cls[tris] - c0
            w_all[tris] = b[loc]
            trial_chol[tris] = chol[loc]
            pts = np.einsum("qr,trd->tqd", bary, coords[tris])
            fv = np.broadcast_to(
                np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2]
            )
            wl_all[tris, :k] = np.einsum("tiq,tq->ti", load[loc], fv)

    return LocalSystems(
        formulation,
        w_all,
        wl_all,
        coords.mean(axis=1),
        mesh.diameters,
        trial_chol,
        _corner_cols(mesh) if with_corners else None,
    )
