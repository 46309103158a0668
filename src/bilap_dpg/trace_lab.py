"""Numerical studies of the skeleton trace spaces.

Three experiments accompany the solver:

* a mollifier family whose traces converge to the Dirac distribution at
  a corner of the reference triangle, with the convergence rate of the
  duality error measured against second-order test functions;
* a sequence of shifted logarithmic potentials whose point values at a
  boundary point diverge while their L2 norms stay bounded;
* a two-sided (duality from below, extension from above) approximation
  of the trace norm of a smooth function on a single element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from bilap_dpg import shape
from bilap_dpg.linsolve import dense_spd_solve

REFERENCE_TRIANGLE = shape.REFERENCE_VERTICES


class Poly2:
    """Small bivariate polynomial helper: c[i, j] x^i y^j."""

    def __init__(self, coeffs):
        self.c = np.atleast_2d(np.asarray(coeffs, dtype=float))

    @classmethod
    def monomial(cls, i, j):
        c = np.zeros((i + 1, j + 1))
        c[i, j] = 1.0
        return cls(c)

    @property
    def degree(self):
        nz = np.nonzero(self.c)
        if len(nz[0]) == 0:
            return 0
        return int(max(i + j for i, j in zip(*nz)))

    def __call__(self, x, y):
        return np.polynomial.polynomial.polyval2d(x, y, self.c)

    def dx(self):
        return Poly2(np.polynomial.polynomial.polyder(self.c, axis=0))

    def dy(self):
        return Poly2(np.polynomial.polynomial.polyder(self.c, axis=1))

    def norm_h2(self, rule_exactness=None):
        """Full second-order norm on the reference triangle.

        ||z||^2 = ||z||^2 + ||Hess z||^2 (Frobenius), by quadrature.
        """
        deg = self.degree
        rule = shape.triangle_quadrature(rule_exactness or max(2 * deg, 2))
        x, y = rule.points[:, 0], rule.points[:, 1]
        w = rule.weights
        zxx = self.dx().dx()(x, y)
        zxy = self.dx().dy()(x, y)
        zyy = self.dy().dy()(x, y)
        val = self(x, y)
        return float(
            np.sqrt(w @ (val**2 + zxx**2 + 2 * zxy**2 + zyy**2))
        )


@lru_cache(maxsize=1)
def mollifier_constant():
    """Normalization making every mollifier integrate to one half.

    C = 1 / (2 int_0^1 exp(-1/(1-s^2)) ds), by adaptive quadrature.
    """
    integral, err = quad(
        lambda s: np.exp(-1.0 / (1.0 - s * s)) if s < 1.0 else 0.0,
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    if err > 1e-10:
        raise RuntimeError(f"normalization quadrature error {err:.2e} too large")
    return 1.0 / (2.0 * integral)


@dataclass(frozen=True)
class MollifierFamily:
    """Bump profile phi_eps and the corner function v_eps built from it.

    phi_eps(t) = (C/eps) exp(-eps^2 / (eps^2 - t^2)) on [0, eps), else 0,
    normalized so that its integral over (0, 1) is 1/2 for every eps;
    v_eps(x, y) = -(x + y) phi_eps(|(x, y)|).
    """

    constant: float

    @classmethod
    def create(cls):
        return cls(mollifier_constant())

    def phi(self, t, eps):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < eps
        tt = np.where(inside, t, 0.0)
        with np.errstate(over="ignore"):
            val = (self.constant / eps) * np.exp(
                -(eps**2) / np.where(inside, eps**2 - tt * tt, 1.0)
            )
        return np.where(inside, val, 0.0)

    def phi_prime(self, t, eps):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < eps
        tt = np.where(inside, t, 0.0)
        denom = np.where(inside, (eps**2 - tt * tt) ** 2, 1.0)
        return np.where(inside, -2.0 * tt * eps**2 / denom * self.phi(tt, eps), 0.0)

    def v(self, x, y, eps):
        r = np.hypot(x, y)
        return -(x + y) * self.phi(r, eps)

    def grad_v(self, x, y, eps):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        safe = np.where(r > 0, r, 1.0)
        p = self.phi(r, eps)
        dp = self.phi_prime(r, eps)
        gx = -p - (x + y) * dp * x / safe
        gy = -p - (x + y) * dp * y / safe
        return gx, gy


def _panel_gauss(eps, panels=96, points_per_panel=8):
    """Composite Gauss nodes/weights on [0, eps]."""
    t, w = np.polynomial.legendre.leggauss(points_per_panel)
    edges = np.linspace(0.0, eps, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def pair_trace_veps(z, eps, panels=96):
    """Duality of the mollifier corner function with a test polynomial.

    Evaluates   <dn(v_eps), z>_dT - <v_eps, dn(z)>_dT   on the reference
    triangle; the sign convention makes the eps -> 0 limit equal
    +z(0, 0).  Both edge integrals reduce to [0, eps] because v_eps is
    supported in the corner ball of radius eps; they are computed with
    composite Gauss panels.

    Parameters
    ----------
    z : Poly2 or coefficient matrix, degree <= 6
    eps : float in (0, 1/2)
    """
    if not isinstance(z, Poly2):
        z = Poly2(z)
    if z.degree > 6:
        raise ValueError(f"test polynomial degree {z.degree} exceeds 6")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    fam = MollifierFamily.create()
    t, w = _panel_gauss(eps, panels=max(64, panels))
    phi = fam.phi(t, eps)
    zero = np.zeros_like(t)
    # bottom edge y = 0 (outward normal (0,-1)) and left edge x = 0
    # (outward normal (-1,0)); the hypotenuse does not meet the support
    dn_term = w @ (phi * z(t, zero)) + w @ (phi * z(zero, t))
    v_term = w @ (t * phi * z.dy()(t, zero)) + w @ (t * phi * z.dx()(zero, t))
    return float(dn_term - v_term)


@dataclass(frozen=True)
class DiracStudy:
    eps: np.ndarray
    error: np.ndarray
    slope: float


def default_z_list(max_degree=4):
    return [
        Poly2.monomial(i, j)
        for q in range(max_degree + 1)
        for i, j in ((q - jj, jj) for jj in range(q + 1))
    ]


def dirac_convergence_study(eps_list=None, z_list=None):
    """Worst-case duality error against the Dirac limit, with its rate.

    e(eps) = max over the test list of
    |pair_trace_veps(z, eps) - z(0,0)| / ||z||_{2,T}; the returned slope
    is the log-log fit of e against eps.
    """
    if eps_list is None:
        eps_list = [2.0**-k for k in range(2, 11)]
    if z_list is None:
        z_list = default_z_list(4)
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    norms = [z.norm_h2() for z in z_list]
    errors = np.empty_like(eps_arr)
    for i, eps in enumerate(eps_arr):
        errors[i] = max(
            abs(pair_trace_veps(z, eps) - z(0.0, 0.0)) / nz
            for z, nz in zip(z_list, norms)
        )
    if len(eps_arr) >= 2 and np.all(errors > 0):
        slope = float(np.polyfit(np.log(eps_arr), np.log(errors), 1)[0])
    else:
        slope = float("nan")
    return DiracStudy(eps_arr, errors, slope)


def _half_disk_quadrature(n_angular=24, levels=26, exactness=8):
    """Graded quadrature on the upper unit half disk (polygonal fan).

    The fan is centered at the origin (the point the potentials
    concentrate near) with geometric radial grading.
    """
    rule = shape.triangle_quadrature(exactness)
    angles = np.linspace(0.0, np.pi, n_angular + 1)
    pts_all, w_all = [], []
    origin = np.zeros(2)
    for a0, a1 in zip(angles[:-1], angles[1:]):
        p0 = np.array([np.cos(a0), np.sin(a0)])
        p1 = np.array([np.cos(a1), np.sin(a1)])
        from bilap_dpg.problems import _graded_subtriangles

        for tri in _graded_subtriangles(
            np.vstack([origin, p0, p1]), origin, levels
        ):
            p, w = shape.map_to_triangle(rule, np.asarray(tri))
            pts_all.append(p)
            w_all.append(w)
    return np.vstack(pts_all), np.concatenate(w_all)


def unboundedness_demo(n_list, quadrature=None):
    """Point values vs L2 norms of the shifted log potentials.

    v_n = log|x_n - .| with x_n = (0, -1/n) just below the half disk;
    v_n(0, 0) = -log n diverges while ||v_n|| stays bounded (and each
    v_n is harmonic inside the domain).

    Returns a list of (n, corner_value, l2_norm) tuples.
    """
    if quadrature is None:
        quadrature = _half_disk_quadrature()
    pts, w = quadrature
    rows = []
    for n in n_list:
        if n <= 0:
            raise ValueError("n must be a positive integer")
        xs = np.array([0.0, -1.0 / n])
        vals = np.log(np.hypot(pts[:, 0] - xs[0], pts[:, 1] - xs[1]))
        norm = float(np.sqrt(w @ vals**2))
        rows.append((int(n), float(-np.log(n)), norm))
    return rows


def _edge_constraint_rows(vertices, tab, jinv, det, z, n_moments_val, n_moments_nder):
    """Trace-matching moments on the three element edges.

    Returns (C, d): C maps coefficients in the element's orthonormal
    basis (`tab` mapped by `jinv`, `det`) to edge moments of the trace
    pair, d holds the same moments of z.  Legendre moments up to the
    given orders force exact polynomial equality edgewise.
    """
    t = tab.edge_rule.points
    weights = tab.edge_rule.weights
    legendre = np.polynomial.legendre.legvander(2.0 * t - 1.0, max(n_moments_val, n_moments_nder))
    rows_c, rows_d = [], []
    for k in range(3):
        a, b = vertices[k], vertices[(k + 1) % 3]
        d_vec = b - a
        length = np.hypot(*d_vec)
        nrm = np.array([d_vec[1], -d_vec[0]]) / length
        pts = a[None, :] + t[:, None] * d_vec[None, :]
        # edge slot k in its own direction: vertex k to vertex k + 1
        edge = shape.map_jet(shape.Jet(*(x[k, 0] for x in tab.edge)), jinv, det)
        val, dn = edge.val, edge.grad @ nrm
        z_val = z(pts[:, 0], pts[:, 1])
        z_dn = z.dx()(pts[:, 0], pts[:, 1]) * nrm[0] + z.dy()(pts[:, 0], pts[:, 1]) * nrm[1]
        for m in range(n_moments_val + 1):
            q = legendre[:, m] * weights * length
            rows_c.append(q @ val)
            rows_d.append(q @ z_val)
        for m in range(n_moments_nder + 1):
            q = legendre[:, m] * weights * length
            rows_c.append(q @ dn)
            rows_d.append(q @ z_dn)
    return np.array(rows_c), np.array(rows_d)


def norm_identity_check(vertices, z, dual_degree, extension_degree):
    """Two-sided approximation of the broken-graph trace norm of z.

    duality_norm maximizes <tr(z), w>_dT / ||w||_{Delta,T} over
    polynomials w of degree `dual_degree`, where the pairing is the
    volume form (Delta w, z)_T - (w, Delta z)_T.  extension_norm
    minimizes ||y||_{Delta,T} over polynomials y of degree
    `extension_degree` whose trace pair matches tr(z) exactly (imposed
    through edgewise moments).  The sandwich
    duality_norm <= trace norm <= extension_norm holds by construction
    and the gap closes as the degrees grow.

    Parameters
    ----------
    vertices : (3, 2) element
    z : Poly2 or coefficient matrix, degree <= 4
    dual_degree, extension_degree : int >= 4
    """
    if not isinstance(z, Poly2):
        z = Poly2(z)
    if z.degree > 4:
        raise ValueError("z must have degree <= 4")
    if dual_degree < 4 or extension_degree < 4:
        raise ValueError("degrees must be at least 4")
    vertices = np.asarray(vertices, dtype=float)

    cxx = np.polynomial.polynomial.polyder(z.c, m=2, axis=0)
    cyy = np.polynomial.polynomial.polyder(z.c, m=2, axis=1)
    lap_c = np.zeros((max(cxx.shape[0], cyy.shape[0], 1), max(cxx.shape[1], cyy.shape[1], 1)))
    lap_c[: cxx.shape[0], : cxx.shape[1]] += cxx
    lap_c[: cyy.shape[0], : cyy.shape[1]] += cyy
    z_lap = Poly2(lap_c)

    jac, det, jinv = (x[0] for x in shape.affine_maps(vertices[None]))

    def graph_gram_and_pairing(degree):
        # the element's orthonormal P_degree basis from the reference
        # tables the element kernels use
        tab = shape.reference_tables(degree)
        basis = shape.map_jet(tab.tri, jinv, det)
        w = abs(det) * tab.quad.weights
        pts = vertices[0] + tab.quad.points @ jac.T
        val = basis.val
        lap = basis.hess[..., 0] + basis.hess[..., 2]
        gram = np.einsum("q,qi,qj->ij", w, val, val) + np.einsum(
            "q,qi,qj->ij", w, lap, lap
        )
        z_w = w * z(pts[:, 0], pts[:, 1])
        pairing = lap.T @ z_w - val.T @ (w * z_lap(pts[:, 0], pts[:, 1]))
        return gram, pairing, val.T @ z_w

    # duality side: sup <tr z, w> / ||w||_Delta = |b|_{G^-1}
    gram_d, b, _ = graph_gram_and_pairing(dual_degree)
    duality = float(np.sqrt(max(b @ dense_spd_solve(gram_d, b), 0.0)))

    # extension side: min ||y||_Delta with tr(y) = tr(z) matched exactly
    gram_e, _, y0 = graph_gram_and_pairing(extension_degree)
    n_mom = max(extension_degree, z.degree)
    c_mat, d_vec = _edge_constraint_rows(
        vertices, shape.reference_tables(extension_degree), jinv, det, z, n_mom, n_mom - 1
    )

    # feasible point: z in the element basis (z has degree <= 4 <=
    # extension_degree, so its L2 coefficients y0 represent it exactly)
    feas = np.linalg.norm(c_mat @ y0 - d_vec)
    if feas > 1e-8 * max(1.0, np.linalg.norm(d_vec)):
        raise RuntimeError(f"constraint system inconsistent (defect {feas:.2e})")

    u_svd, s_svd, vt = np.linalg.svd(c_mat, full_matrices=True)
    rank = int(np.sum(s_svd > 1e-11 * s_svd[0]))
    null = vt[rank:].T  # (dim, n_null)
    if null.shape[1]:
        red = null.T @ gram_e @ null
        rhs = -(null.T @ (gram_e @ y0))
        coef = dense_spd_solve(red, rhs)
        y = y0 + null @ coef
    else:
        y = y0
    extension = float(np.sqrt(max(y @ gram_e @ y, 0.0)))
    return duality, extension
