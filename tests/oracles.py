"""Independent test oracles shared across test modules."""

from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class Poly2d:
    """Bivariate polynomial c[i, j] x^i y^j with analytic derivatives."""

    def __init__(self, coeffs):
        self.c = np.atleast_2d(np.asarray(coeffs, dtype=float))

    @classmethod
    def random(cls, rng, degree, scale=1.0):
        n = degree + 1
        mask = np.add.outer(np.arange(n), np.arange(n)) <= degree
        return cls(rng.uniform(-scale, scale, size=(n, n)) * mask)

    def __call__(self, x, y):
        return np.polynomial.polynomial.polyval2d(x, y, self.c)

    def dx(self):
        return Poly2d(np.polynomial.polynomial.polyder(self.c, axis=0))

    def dy(self):
        return Poly2d(np.polynomial.polynomial.polyder(self.c, axis=1))

    def grad(self, x, y):
        return self.dx()(x, y), self.dy()(x, y)

    def laplacian(self):
        cxx = np.polynomial.polynomial.polyder(self.c, m=2, axis=0)
        cyy = np.polynomial.polynomial.polyder(self.c, m=2, axis=1)
        n0 = max(cxx.shape[0], cyy.shape[0])
        n1 = max(cxx.shape[1], cyy.shape[1])
        out = np.zeros((n0, n1))
        out[: cxx.shape[0], : cxx.shape[1]] += cxx
        out[: cyy.shape[0], : cyy.shape[1]] += cyy
        return Poly2d(out)


def dirac_eps_list():
    """The eps list of `bilap-dpg tracelab --mode dirac` at its defaults."""
    from bilap_dpg.cli import TracelabConfig

    config = TracelabConfig(mode="dirac")
    return [2.0**-k for k in range(config.eps_min_pow, config.eps_max_pow + 1)]


def shifted_pivots(a, blocks):
    """U's diagonal in the factor of each block's principal submatrix
    of A, transposed and its diagonal shifted by the solver's
    `shifted_diagonal`, made with the solver's `splu` options: what the
    solver factors, one array after the other.  Forced diagonal pivots
    in symmetric mode make LU act as LDL^T, so every pivot is positive
    if and only if every shifted block is positive definite."""
    from bilap_dpg.linsolve import SPLU_OPTIONS, shifted_diagonal

    pivots = []
    for ids in blocks:
        shifted = scipy.sparse.csc_matrix(a[ids][:, ids].T, dtype=float, copy=True)
        shifted.setdiag(shifted_diagonal(shifted.diagonal()))
        pivots.append(scipy.sparse.linalg.splu(shifted, **SPLU_OPTIONS).U.diagonal())
    return np.concatenate(pivots)


def zero_problem():
    """f = 0 with zero clamped data; the exact solution is 0."""
    from bilap_dpg.mesh import make_unit_square
    from bilap_dpg.problems import Problem

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Problem(
        u_exact=zero,
        grad_u_exact=lambda x, y: (zero(x, y), zero(x, y)),
        sigma_exact=zero,
        f=zero,
        make_domain=lambda: make_unit_square(2),
    )


def interpolate_function(mesh, u, grad_u):
    """Vertex-Hermite dofs (u, du/dx, du/dy) of a smooth function at
    every vertex, as one (3 nv,) vector."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    gx, gy = grad_u(x, y)
    return np.column_stack(np.broadcast_arrays(u(x, y), gx, gy)).ravel().astype(float)


def fix_trace(monkeypatch, which, value, grad):
    """Fix one trace unknown at every vertex to the vertex-Hermite dofs
    (value, grad) of a smooth function, by patching
    `dpg_solver._global_columns`: `which` is 0 for uhat and 1 for
    sigma_hat.  The other columns stay as the solver makes them, and
    the free unknowns left keep their order."""
    from bilap_dpg import dpg_solver
    from bilap_dpg.trace_space import DOFS_PER_VERTEX

    global_columns = dpg_solver._global_columns

    def fixed_trace(mesh, formulation, uhat_space):
        cols, values, n = global_columns(mesh, formulation, uhat_space)
        dofs = DOFS_PER_VERTEX * mesh.triangles[:, :, None] + np.arange(DOFS_PER_VERTEX)
        dofs = dofs.reshape(len(cols), -1)
        start = 2 * formulation.field_dim + which * dofs.shape[1]
        trace = slice(start, start + dofs.shape[1])
        cols[:, trace] = n
        values[:, trace] = interpolate_function(mesh, value, grad)[dofs]
        kept, cols = np.unique(cols, return_inverse=True)  # n stays the largest
        return cols.reshape(values.shape), values, len(kept) - 1

    monkeypatch.setattr(dpg_solver, "_global_columns", fixed_trace)


def uncondensed_ids(cols, n, dim_p):
    """The id of each element column in the system with u not condensed
    out, from the solver's column map (`dpg_solver._global_columns`:
    free ids, n on u and fixed columns): u numbered in front, element by
    element, then the solver's free unknowns in its order; -1 where
    fixed."""
    n_u = len(cols) * dim_p
    ids = np.where(cols < n, cols + n_u, -1)
    ids[:, :dim_p] = np.arange(n_u).reshape(-1, dim_p)
    return ids


def mesh_topology(vertices, triangles):
    """Edge topology of a triangulation by a plain scan.

    Each triangle's edges are collected in a dict keyed by the sorted
    vertex pair, in triangle order.  Returns edges (lexicographic),
    tri_edges, edge_tris (lower triangle first, -1 where there is no
    second one) and the unit normals taken from the lower triangle's
    traversal direction d as (d_y, -d_x), which is outward on the
    boundary for counterclockwise triangles.
    """
    tris = np.asarray(triangles).tolist()
    incident = {}
    for t, tri in enumerate(tris):
        for p, q in zip(tri, tri[1:] + tri[:1]):
            incident.setdefault((min(p, q), max(p, q)), []).append((t, p, q))
    edges = sorted(incident)
    index = {e: i for i, e in enumerate(edges)}
    tri_edges = [
        [index[min(p, q), max(p, q)] for p, q in zip(tri, tri[1:] + tri[:1])] for tri in tris
    ]
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    normal = np.empty((len(edges), 2))
    for i, e in enumerate(edges):
        for slot, (t, _, _) in enumerate(incident[e]):
            edge_tris[i, slot] = t
        _, p, q = incident[e][0]
        d = vertices[q] - vertices[p]
        normal[i] = np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])
    return np.array(edges, dtype=np.int64), np.array(tri_edges, dtype=np.int64), edge_tris, normal


def unit_square_triangles(n):
    """Triangles of `make_unit_square(n)` by a loop over the squares,
    row by row: each square gives (ur, ll, lr) and then (ll, ur, ul)."""

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            ll, lr = vid(i, j), vid(i + 1, j)
            ur, ul = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((ur, ll, lr))
            tris.append((ll, ur, ul))
    return np.array(tris, dtype=np.int64)


def refine_nvb_by_loop(mesh, marked):
    """(vertices, triangles) of `refine_nvb(mesh, marked)` by a loop
    over the triangles.

    The closure marks the refinement edge of every triangle with a
    marked edge until nothing changes.  The midpoints of the marked
    edges are appended in ascending edge id.  A triangle (a, b, c) whose
    refinement edge e0 is marked is replaced by its halves (c, a, m0)
    and (b, c, m0), and a half whose outer edge (e2 = (c, a) for the
    first, e1 = (b, c) for the second) is marked is bisected once more
    in the same way.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    ref_edge = mesh.tri_edges[:, 0]
    edge_marked = np.zeros(mesh.num_edges, dtype=bool)
    edge_marked[ref_edge[marked]] = True
    while True:
        need = edge_marked[mesh.tri_edges].any(axis=1) & ~edge_marked[ref_edge]
        if not need.any():
            break
        edge_marked[ref_edge[need]] = True

    vertices = list(map(tuple, mesh.vertices))
    midpoint = {}
    for e in np.nonzero(edge_marked)[0]:
        lo, hi = mesh.edges[e]
        midpoint[e] = len(vertices)
        vertices.append(tuple(0.5 * (mesh.vertices[lo] + mesh.vertices[hi])))

    tris = []
    for i, (a, b, c) in enumerate(mesh.triangles):
        e0, e1, e2 = mesh.tri_edges[i]
        if not edge_marked[e0]:
            tris.append((a, b, c))
            continue
        m0 = midpoint[e0]
        for child, e_child in (((c, a, m0), e2), ((b, c, m0), e1)):
            if edge_marked[e_child]:
                ca, cb, cc = child
                mc = midpoint[e_child]
                tris.append((cc, ca, mc))
                tris.append((cb, cc, mc))
            else:
                tris.append(child)
    return np.array(vertices, dtype=float), np.array(tris, dtype=np.int64)


def random_triangle(rng, min_double_area=0.2):
    while True:
        v = rng.uniform(-1, 1, size=(3, 2))
        d1, d2 = v[1] - v[0], v[2] - v[0]
        if d1[0] * d2[1] - d1[1] * d2[0] > min_double_area:
            return v


def _monomial_jet(points, centre, h, degree):
    """Centred, h-scaled monomials (total degree <= degree) at physical
    points (n, 2): values (n, d), gradients (n, d, 2) and Hessian
    components (n, d, 3) ordered (xx, xy, yy)."""
    u = (points - centre) / h
    x, y = u[:, 0, None], u[:, 1, None]
    i = np.array([q - j for q in range(degree + 1) for j in range(q + 1)])
    j = np.array([j for q in range(degree + 1) for j in range(q + 1)])

    def pw(base, n):  # base**n, zero where n < 0
        return np.where(n >= 0, base ** np.maximum(n, 0), 0.0)

    val = pw(x, i) * pw(y, j)
    grad = np.stack([i * pw(x, i - 1) * pw(y, j), j * pw(x, i) * pw(y, j - 1)], axis=-1)
    hess = np.stack(
        [
            i * (i - 1) * pw(x, i - 2) * pw(y, j),
            i * j * pw(x, i - 1) * pw(y, j - 1),
            j * (j - 1) * pw(x, i) * pw(y, j - 2),
        ],
        axis=-1,
    )
    return val, grad / h, hess / h**2


def _whitener(stack):
    """L^-1 for G = S^T S = L L^T, from the R factor of QR(S)."""
    r = np.linalg.qr(stack, mode="r")
    return np.linalg.inv(r.T)


def monomial_local_systems(mesh, scheme, field_degree, test_degree, f, trial_chol=None):
    """Per-element whitened DPG local systems W (nt, 2k, ncol) and wl (nt, 2k).

    An element-by-element oracle seeded by monomials at each element's
    own quadrature points: the test basis is the centred,
    diameter-scaled monomials of degree `test_degree`; the Gram blocks
    (scheme 1: mass + Laplacian for both; scheme 2: mass + Frobenius
    Hessian for the v block) are whitened through the QR of the stacked
    weighted tables.  The trial basis is the monomials of degree
    `field_degree` times L^-T, L = `trial_chol[tri]` when given (any
    factor of their moment matrix, L L^T = Gram), else its Cholesky
    factor.  The skeleton columns pair the cubic Hermite trace values
    and linear normal derivatives along each edge (global lo -> hi
    parameter, global normal) as -s int_e (w dn(t) - w_n t) ds, s = +1
    on the edge's owner (lower-index element), with the normals and
    owners of `mesh_topology`; scheme 2 adds the six corner columns (the
    element's outgoing minus incoming endpoint coefficient at each
    corner against the test value there).  W and wl depend on the test
    basis, but W^T W, W^T wl, |wl|^2 and the residual |wl - W x| of any
    trial vector x do not, so those match any correct implementation.
    """
    from bilap_dpg.shape import edge_quadrature, map_to_triangle, triangle_quadrature

    dim_p = (field_degree + 1) * (field_degree + 2) // 2
    k = (test_degree + 1) * (test_degree + 2) // 2
    ncol = 2 * dim_p + 18 + (6 if scheme == 2 else 0)
    vol_rule = triangle_quadrature(2 * test_degree + 2)
    edge_rule = edge_quadrature(2 * test_degree + 4)
    t, tw = edge_rule.points, edge_rule.weights
    _, _, edge_tris, normal = mesh_topology(mesh.vertices, mesh.triangles)
    out_w, out_wl = [], []
    for tri, verts in enumerate(mesh.triangle_coords()):
        centre = verts.mean(axis=0)
        h = max(np.hypot(*(verts[(i + 1) % 3] - verts[i])) for i in range(3))
        pts, w = map_to_triangle(vol_rule, verts)
        val, _, hess = _monomial_jet(pts, centre, h, test_degree)
        lap = hess[..., 0] + hess[..., 2]
        sw = np.sqrt(w)[:, None]
        s_tau = np.vstack([sw * val, sw * lap])
        if scheme == 1:
            s_v = s_tau
        else:
            s_v = np.vstack([sw * val, sw * hess[..., 0], np.sqrt(2) * sw * hess[..., 1],
                             sw * hess[..., 2]])

        mono = _monomial_jet(pts, centre, h, field_degree)[0]
        if trial_chol is None:
            chol = np.linalg.cholesky(mono.T @ (w[:, None] * mono))
        else:
            chol = trial_chol[tri]
        trial = np.linalg.solve(chol, mono.T).T

        b = np.zeros((2 * k, ncol))
        du = lap.T @ (w[:, None] * trial)
        b[k:, :dim_p] = du
        b[:k, dim_p : 2 * dim_p] = du
        b[k:, dim_p : 2 * dim_p] = -val.T @ (w[:, None] * trial)

        local = list(mesh.triangles[tri])
        for slot in range(3):
            e = mesh.tri_edges[tri, slot]
            lo, hi = mesh.edges[e]
            plo, phi = mesh.vertices[lo], mesh.vertices[hi]
            length = np.hypot(*(phi - plo))
            tau = (phi - plo) / length
            nrm = normal[e]
            side = 1.0 if edge_tris[e, 0] == tri else -1.0
            x = plo + t[:, None] * (phi - plo)
            v_t, g_t, _ = _monomial_jet(x, centre, h, test_degree)
            dn_t = g_t @ nrm
            h00 = 1 - 3 * t**2 + 2 * t**3
            h10 = t - 2 * t**2 + t**3
            h01 = 3 * t**2 - 2 * t**3
            h11 = t**3 - t**2
            val6 = np.column_stack([h00, h10 * length * tau[0], h10 * length * tau[1],
                                    h01, h11 * length * tau[0], h11 * length * tau[1]])
            nd6 = np.column_stack([0 * t, (1 - t) * nrm[0], (1 - t) * nrm[1],
                                   0 * t, t * nrm[0], t * nrm[1]])
            contrib = -side * length * (
                (tw[:, None] * dn_t).T @ val6 - (tw[:, None] * v_t).T @ nd6
            )
            for d in range(6):
                loc = local.index(lo if d < 3 else hi)
                b[k:, 2 * dim_p + 3 * loc + d % 3] += contrib[:, d]
                b[:k, 2 * dim_p + 9 + 3 * loc + d % 3] += contrib[:, d]

        if scheme == 2:
            corner_val = _monomial_jet(verts, centre, h, test_degree)[0]
            for c in range(3):
                for which in (0, 1):
                    sign = -1.0 if which else 1.0
                    b[:k, 2 * dim_p + 18 + 2 * c + which] = sign * corner_val[c]

        load = val.T @ (w * f(pts[:, 0], pts[:, 1]))
        linv_v, linv_tau = _whitener(s_v), _whitener(s_tau)
        out_w.append(np.vstack([linv_v @ b[:k], linv_tau @ b[k:]]))
        out_wl.append(np.concatenate([linv_v @ load, np.zeros(k)]))
    return np.array(out_w), np.array(out_wl)


def dense_normal_equations(w, wl, ids, values):
    """Dense DPG normal equations over the free dofs.

    Sums P_T^T (W_T^T W_T) P_T and P_T^T W_T^T wl_T element by element
    into dense arrays over the free dofs (`ids[T]` holds the free id of
    each of element T's columns, or -1 where fixed), eliminating each
    element's fixed columns at their `values[T]`: A = K_ff and rhs =
    F_f - K_fc x_c, summed over the elements.
    """
    n = int(ids.max()) + 1
    k, f = np.zeros((n, n)), np.zeros(n)
    for w_t, wl_t, c, x in zip(w, wl, ids, values):
        free = c >= 0
        k_t = w_t.T @ w_t
        k[np.ix_(c[free], c[free])] += k_t[np.ix_(free, free)]
        f[c[free]] += (w_t.T @ wl_t)[free] - k_t[np.ix_(free, ~free)] @ x[~free]
    return k, f


_RECORD_X = {"h": "h_max", "ndof": "ndof_total"}
_RECORD_Y = {"eta": "eta", "err_u": "err_u", "err_sigma": "err_sigma"}


def estimate_rate(records, key, x="h", window=4):
    """Least-squares convergence rate from the last few study records.

    Fits log(value) against log(x) over the last `min(window, n)`
    records.  The sign convention makes a positive rate mean decay:
    value ~ h^rate for x = "h", value ~ ndof^(-rate) for x = "ndof".
    """
    if key not in _RECORD_Y or x not in _RECORD_X:
        raise ValueError(f"unknown key {key!r} or axis {x!r}")
    if len(records) < 3:
        raise ValueError("need at least 3 records to estimate a rate")
    tail = list(records)[-min(window, len(records)) :]

    def get(rec, name):
        return rec[name] if isinstance(rec, dict) else getattr(rec, name)

    ys = np.array([get(r, _RECORD_Y[key]) for r in tail], dtype=float)
    xs = np.array([get(r, _RECORD_X[x]) for r in tail], dtype=float)
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise ValueError("rate estimation requires positive values")
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return float(slope) if x == "h" else float(-slope)


def map_jet(jet, jinv, det):
    """A reference jet (values (..., k), gradients (..., k, 2), Hessian
    components (..., k, 3) ordered (xx, xy, yy)) mapped to one element
    (jinv (2, 2), det): values scale by |det J|^(-1/2), which keeps an
    orthonormal basis orthonormal, gradients map by J^-T and Hessians by
    J^-T H J^-1, here as 2x2 matrix products."""
    scale = abs(det) ** -0.5
    xx, xy, yy = np.moveaxis(jet.hess, -1, 0)
    hess = np.stack([np.stack([xx, xy], axis=-1), np.stack([xy, yy], axis=-1)], axis=-1)
    hess = jinv.T @ hess @ jinv
    return type(jet)(
        scale * jet.val,
        scale * jet.grad @ jinv,
        scale * np.stack([hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]], axis=-1),
    )


def skeleton_b_by_edges(coords, tab, scale, jinv):
    """The trace columns (n, k, 9) of B built edge by edge in each
    element's own frame, at mapped edge points with per-element edge
    lengths, unit tangents and outward normals.

    Edge slot s runs from vertex s to vertex s + 1 of the element, with
    the element's outward normal n.  Its contribution to a test
    function t is
        -int_e ( w dn(t) - w_n t ) ds
    where (w, w_n) is the reduced-HCT trace pair of the slot's endpoint
    dofs, the first endpoint's three followed by the second's.
    dn(t) = (J^-1 n) . grad_ref.  Per slot, the weighted dof tables
    meet the mapped test values in two batched matmuls.
    """
    from bilap_dpg import trace_space as ts

    weights = tab.edge_rule.weights[:, None]
    out = np.zeros((len(coords), tab.dim, 9))
    for slot in range(3):
        d = coords[:, (slot + 1) % 3] - coords[:, slot]
        length = np.hypot(d[:, 0], d[:, 1])
        tangent = d / length[:, None]
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])  # outward: CCW elements
        kn = np.einsum("eab,eb->ea", jinv, normal)
        dn_t = (tab.edge.grad[slot] @ kn[:, None, :, None])[..., 0]
        val6, nd6 = ts.edge_dof_tables(length[:, None] * tangent, normal, tab.edge_rule.points)
        contrib = np.swapaxes(dn_t, 1, 2) @ (weights * val6)
        contrib -= tab.edge.val[slot].T @ (weights * nd6)
        contrib *= (-scale * length)[:, None, None]
        first, second = 3 * slot, 3 * ((slot + 1) % 3)
        out[:, :, first : first + 3] += contrib[:, :, :3]
        out[:, :, second : second + 3] += contrib[:, :, 3:]
    return out


def random_ccw_elements(rng, n, h_range=(1e-4, 10.0), min_aspect=1e-3):
    """n random counterclockwise triangles (n, 3, 2): the edge from v0 to
    v1 has log-uniform length h in `h_range` and a random direction, and
    v2 lies left of it at log-uniform height between min_aspect h and h,
    over a uniform point of the edge; v0 is uniform in [-1, 1]^2."""
    h = np.exp(rng.uniform(*np.log(h_range), n))
    aspect = np.exp(rng.uniform(np.log(min_aspect), 0.0, n))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    tangent = np.column_stack([np.cos(angle), np.sin(angle)])
    left = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    v0 = rng.uniform(-1.0, 1.0, (n, 2))
    v1 = v0 + h[:, None] * tangent
    v2 = v0 + h[:, None] * (rng.uniform(0.0, 1.0, n)[:, None] * tangent + aspect[:, None] * left)
    return np.stack([v0, v1, v2], axis=1)


def edge_trace_moments(vertices, degree):
    """Legendre moments of the trace pair (value, outward normal
    derivative) on the three edges of an element, (rows, dim P_degree),
    of each member of its orthonormal P_degree basis.

    Moments up to degree `degree` of the value and `degree` - 1 of the
    normal derivative determine both traces of a polynomial of that
    degree, so the null space of the rows is the polynomials whose
    trace pair vanishes.
    """
    from bilap_dpg import shape

    vertices = np.asarray(vertices, dtype=float)
    _, det, jinv = (x[0] for x in shape.affine_maps(vertices[None]))
    tab = shape.reference_tables(degree)
    t, weights = tab.edge_rule.points, tab.edge_rule.weights
    legendre = np.polynomial.legendre.legvander(2.0 * t - 1.0, degree)
    rows = []
    for k in range(3):
        d_vec = vertices[(k + 1) % 3] - vertices[k]
        length = np.hypot(*d_vec)
        normal = np.array([d_vec[1], -d_vec[0]]) / length
        # edge slot k runs from vertex k to vertex k + 1
        edge = map_jet(shape.Jet(*(x[k] for x in tab.edge)), jinv, det)
        moments = (legendre * (weights * length)[:, None]).T
        rows += [moments @ edge.val, moments[:degree] @ (edge.grad @ normal)]
    return np.vstack(rows)


def _poly_mul(p, q):
    """Product of two polynomials held as {(i, j): coefficient of x^i y^j}."""
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            out[a + d, b + e] = out.get((a + d, b + e), 0) + c * f
    return out


def exact_trace_norms(vertices, exponents, degree, dps=60):
    """(duality, extension) of `trace_lab.norm_identity_check` for the
    monomial z = x^i y^j, `exponents` = (i, j), on the element
    `vertices`, in P_degree, without the package's basis or quadrature.

    Everything is written in the reference coordinates s of x = v0 + J s,
    where the physical Laplacian is sum_kl C_kl d_k d_l with
    C = J^-1 J^-T and int_T s^a t^b = |det J| a! b! / (a + b + 2)!.  The
    graph inner product <p, q> = (p, q) + (Lap p, Lap q) of polynomials
    is exact in rationals (from the binary values of the vertices), and
    the two Gram systems are solved by Cholesky in mpmath at `dps`
    digits:
        duality^2   = p^T G^-1 p, with G the Gram matrix of the monomials
                      of P_degree and p_m = (Lap m, z) - (m, Lap z);
        extension^2 = <z, z> - r^T H^-1 r, the minimum of <y, y> over
                      y = z + b^2 q, q in P_(degree-6), with H the Gram
                      matrix of the b^2 m, r_m = <b^2 m, z> and b the
                      cubic bubble s t (1 - s - t).
    """
    (x0, y0), (x1, y1), (x2, y2) = [[Fraction(float(c)) for c in v] for v in vertices]
    jac = [[x1 - x0, x2 - x0], [y1 - y0, y2 - y0]]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    inv = [[jac[1][1] / det, -jac[0][1] / det], [-jac[1][0] / det, jac[0][0] / det]]
    c = [[sum(inv[r][m] * inv[s][m] for m in range(2)) for s in range(2)] for r in range(2)]
    n = 2 * degree + 1
    moment = {
        (a, b): abs(det) * Fraction(factorial(a) * factorial(b), factorial(a + b + 2))
        for a in range(n)
        for b in range(n - a)
    }

    def laplacian(p):
        out = {}
        for (a, b), v in p.items():
            for (da, db), k in (((2, 0), c[0][0] * a * (a - 1)), ((1, 1), 2 * c[0][1] * a * b),
                                ((0, 2), c[1][1] * b * (b - 1))):
                if k:
                    out[a - da, b - db] = out.get((a - da, b - db), 0) + k * v
        return out

    def integral(p, q):  # int_T p q
        return sum(v * w * moment[a + d, b + e]
                   for (a, b), v in p.items() for (d, e), w in q.items())

    z = {(0, 0): Fraction(1)}
    for factor, power in zip(({(0, 0): x0, (1, 0): jac[0][0], (0, 1): jac[0][1]},
                              {(0, 0): y0, (1, 0): jac[1][0], (0, 1): jac[1][1]}), exponents):
        for _ in range(power):
            z = _poly_mul(z, factor)
    # each function as (p, Lap p)
    z = (z, laplacian(z))
    mono = [{(q - b, b): Fraction(1)} for q in range(degree + 1) for b in range(q + 1)]
    bubble = {(1, 1): Fraction(1), (2, 1): Fraction(-1), (1, 2): Fraction(-1)}
    bubble2 = _poly_mul(bubble, bubble)
    ext = [_poly_mul(bubble2, m) for m in mono[: (degree - 5) * (degree - 4) // 2]]
    mono, ext = ([(p, laplacian(p)) for p in ps] for ps in (mono, ext))

    def inner(u, v):
        return integral(u[0], v[0]) + integral(u[1], v[1])

    with mpmath.workdps(dps):
        def mpf(v):
            return mpmath.mpf(v.numerator) / v.denominator

        def quad_form(vectors, rhs):
            # rhs^T G^-1 rhs for the Gram matrix G of `vectors`
            if not vectors:
                return mpmath.mpf(0)
            g = mpmath.matrix(len(vectors))
            for i, u in enumerate(vectors):
                for j, v in enumerate(vectors[: i + 1]):
                    g[i, j] = g[j, i] = mpf(inner(u, v))
            r = mpmath.matrix([mpf(v) for v in rhs])
            return (r.T * mpmath.cholesky_solve(g, r))[0]

        pairing = [integral(m[1], z[0]) - integral(m[0], z[1]) for m in mono]
        duality = mpmath.sqrt(quad_form(mono, pairing))
        extension = mpmath.sqrt(mpf(inner(z, z))
                                - quad_form(ext, [inner(e, z) for e in ext]))
        return float(duality), float(extension)
