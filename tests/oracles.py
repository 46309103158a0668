"""Independent test oracles shared across test modules."""

import numpy as np
import scipy.sparse


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


def zero_problem():
    """f = 0 with homogeneous clamped data; the exact solution is 0."""
    from bilap_dpg.mesh import make_unit_square
    from bilap_dpg.problems import Problem

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Problem(
        name="zero",
        u_exact=zero,
        grad_u_exact=lambda x, y: (zero(x, y), zero(x, y)),
        sigma_exact=zero,
        f=zero,
        boundary_mode="homogeneous",
        make_domain=make_unit_square,
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
    `dpg_solver._constraints`: `which` is 0 for uhat and 1 for
    sigma_hat.  The other constraints stay as the solver makes them."""
    from bilap_dpg import dpg_solver
    from bilap_dpg.trace_space import DOFS_PER_VERTEX

    constraints = dpg_solver._constraints

    def fixed_trace(mesh, formulation, uhat_space, with_corners):
        fixed, fixed_values = constraints(mesh, formulation, uhat_space, with_corners)
        n_trace = DOFS_PER_VERTEX * mesh.num_vertices
        start = 2 * mesh.num_triangles * formulation.field_dim + which * n_trace
        fixed[start : start + n_trace] = True
        fixed_values[start : start + n_trace] = interpolate_function(mesh, value, grad)
        return fixed, fixed_values

    monkeypatch.setattr(dpg_solver, "_constraints", fixed_trace)


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


def monomial_local_systems(mesh, scheme, field_degree, test_degree, f):
    """Per-element whitened DPG local systems W (nt, 2k, ncol) and wl (nt, 2k).

    An element-by-element oracle seeded by monomials at each element's
    own quadrature points: the test basis is the centred,
    diameter-scaled monomials of degree `test_degree`; the Gram blocks
    (scheme 1: mass + Laplacian for both; scheme 2: mass + Frobenius
    Hessian for the v block) are whitened through the QR of the stacked
    weighted tables.  The trial basis is the monomials of degree
    `field_degree` times L^-T, L the Cholesky factor of their moment
    matrix.  The skeleton columns pair the cubic Hermite trace values
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
        chol = np.linalg.cholesky(mono.T @ (w[:, None] * mono))
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


def sparse_normal_matrix(w, cols, free_map, block_cols):
    """Sparse DPG matrix over the free dofs that stores every free x free
    coupling of each test block, zeros included, and the sparse W over
    the free dofs that it is W^T W of.

    `w` (nt, 2k, ncol) holds the v block's rows first, and `block_cols`
    the local columns of the v and of the tau block; `cols[T]` holds the
    global ids of element T's columns and `free_map` the free index of
    each global id, or -1.  Shared dofs sum their element parts and
    entries that cancel stay stored, so the pattern is that of the
    element couplings, not of rounding.  Returns (A, W).
    """
    k = w.shape[1] // 2
    rows, columns, values = [], [], []
    w_rows, w_columns, w_values = [], [], []
    for w_t, c in zip(w, cols):
        for block, local in zip((w_t[:k], w_t[k:]), block_cols):
            ids = free_map[c[local]]
            keep = ids >= 0
            a = block[:, local].T @ block[:, local]
            rows.append(np.repeat(ids[keep], keep.sum()))
            columns.append(np.tile(ids[keep], keep.sum()))
            values.append(a[np.ix_(keep, keep)].ravel())
            w_rows.append(np.repeat(k * len(w_rows) + np.arange(k), keep.sum()))
            w_columns.append(np.tile(ids[keep], k))
            w_values.append(block[:, local][:, keep].ravel())
    n = int(free_map.max()) + 1
    a = scipy.sparse.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(columns))),
        shape=(n, n),
    )
    w_free = scipy.sparse.csr_matrix(
        (np.concatenate(w_values), (np.concatenate(w_rows), np.concatenate(w_columns))),
        shape=(k * len(w_rows), n),
    )
    return a, w_free


def dense_normal_equations(w, wl, cols, fixed_values, fixed):
    """Dense DPG normal equations over the free dofs.

    Sums P_T^T (W_T^T W_T) P_T and P_T^T W_T^T wl_T element by element
    into dense arrays over all dofs (`cols[T]` holds the global ids of
    element T's columns), then eliminates the `fixed` dofs at their
    values: A = K_ff and rhs = F_f - K_fc x_c, free dofs ascending.
    """
    n = len(fixed)
    k, f = np.zeros((n, n)), np.zeros(n)
    for w_t, wl_t, c in zip(w, wl, cols):
        k[np.ix_(c, c)] += w_t.T @ w_t
        f[c] += w_t.T @ wl_t
    free = ~fixed
    rhs = f[free] - k[np.ix_(free, fixed)] @ fixed_values[fixed]
    return k[np.ix_(free, free)], rhs


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
