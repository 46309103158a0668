"""Numerical studies of the skeleton trace spaces.

Three experiments accompany the solver:

* a mollifier family whose traces converge to the Dirac distribution at
  a corner of the reference triangle, with the convergence rate of the
  duality error measured against second-order test functions;
* a sequence of shifted logarithmic potentials whose point values at a
  boundary point diverge while their L2 norms stay bounded;
* a two-sided (duality from below, extension from above) approximation
  of the trace norm of a smooth function on a single element, both
  sides over the polynomials of one degree d.  The extensions of the
  trace pair (value, normal derivative) of z among them are z + b^2 q,
  q of degree d - 6, with b = l0 l1 l2 the cubic bubble: each edge line
  divides a polynomial with vanishing trace pair twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bilap_dpg import forms, shape
from bilap_dpg.problems import _graded_subtriangles

REFERENCE_TRIANGLE = shape.REFERENCE_VERTICES

#: composite Gauss rule of the Dirac pairings on [0, eps]
PANELS = 96
POINTS_PER_PANEL = 8

#: graded fan of the unboundedness demo: sectors of the half disk,
#: dyadic annuli per sector, and the exactness of the rule on each piece
HALF_DISK_SECTORS = 24
HALF_DISK_LEVELS = 26
HALF_DISK_EXACTNESS = 8


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

    def norm_h2(self):
        """Full second-order norm on the reference triangle.

        ||z||^2 = ||z||^2 + ||Hess z||^2 (Frobenius), by quadrature.
        """
        rule = shape.triangle_quadrature(max(2 * self.degree, 2))
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

    C = 1 / (2 int_0^1 exp(-1/(1-s^2)) ds), by the composite Gauss rule
    of the Dirac pairings (`_panel_gauss`), whose nodes lie inside (0, 1).
    """
    s, w = _panel_gauss(1.0)
    return 1.0 / (2.0 * (w @ np.exp(-1.0 / (1.0 - s * s))))


def mollifier(t, eps):
    """Bump profile phi_eps(t) = (C/eps) exp(-eps^2 / (eps^2 - t^2)) on
    [0, eps), else 0, with C = `mollifier_constant()`, so that its
    integral over (0, 1) is 1/2 for every eps.

    The corner function built from it is v_eps(x, y) = -(x + y)
    phi_eps(|(x, y)|).
    """
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < eps
    tt = np.where(inside, t, 0.0)
    with np.errstate(over="ignore"):
        val = (mollifier_constant() / eps) * np.exp(
            -(eps**2) / np.where(inside, eps**2 - tt * tt, 1.0)
        )
    return np.where(inside, val, 0.0)


def _panel_gauss(eps):
    """Composite Gauss nodes/weights on [0, eps]."""
    t, w = np.polynomial.legendre.leggauss(POINTS_PER_PANEL)
    edges = np.linspace(0.0, eps, PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def pair_trace_veps(z, eps):
    """Duality of the mollifier corner function with a test polynomial.

    Evaluates   <dn(v_eps), z>_dT - <v_eps, dn(z)>_dT   on the reference
    triangle; the sign convention makes the eps -> 0 limit equal
    +z(0, 0).  Both edge integrals reduce to [0, eps] because v_eps is
    supported in the corner ball of radius eps; they are computed with
    composite Gauss panels.

    Parameters
    ----------
    z : Poly2, degree <= 6
    eps : float in (0, 1/2)
    """
    if z.degree > 6:
        raise ValueError(f"test polynomial degree {z.degree} exceeds 6")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    t, w = _panel_gauss(eps)
    phi = mollifier(t, eps)
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


def default_z_list(max_degree):
    return [Poly2.monomial(i, j) for i, j in shape.monomial_exponents(max_degree)]


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


def _half_disk_quadrature():
    """Graded quadrature on the upper unit half disk (polygonal fan).

    The fan is centered at the origin (the point the potentials
    concentrate near) with geometric radial grading.
    """
    angles = np.linspace(0.0, np.pi, HALF_DISK_SECTORS + 1)
    origin = np.zeros(2)
    tris = np.concatenate([
        _graded_subtriangles(
            np.array([origin, [np.cos(a0), np.sin(a0)], [np.cos(a1), np.sin(a1)]]),
            origin,
            HALF_DISK_LEVELS,
        )
        for a0, a1 in zip(angles[:-1], angles[1:])
    ])
    pts, w = shape.map_to_triangle(shape.triangle_quadrature(HALF_DISK_EXACTNESS), tris)
    return pts.reshape(-1, 2), w.ravel()


def unboundedness_demo(n_list):
    """Point values vs L2 norms of the shifted log potentials.

    v_n = log|x_n - .| with x_n = (0, -1/n) just below the half disk;
    v_n(0, 0) = -log n diverges while ||v_n|| stays bounded (and each
    v_n is harmonic inside the domain).

    Returns a list of (n, corner_value, l2_norm) tuples.
    """
    pts, w = _half_disk_quadrature()
    rows = []
    for n in n_list:
        if n <= 0:
            raise ValueError("n must be a positive integer")
        xs = np.array([0.0, -1.0 / n])
        vals = np.log(np.hypot(pts[:, 0] - xs[0], pts[:, 1] - xs[1]))
        norm = float(np.sqrt(w @ vals**2))
        rows.append((int(n), float(-np.log(n)), norm))
    return rows


def _zero_trace_columns(tab, val, w):
    """The polynomials of degree d = `tab.degree` whose trace pair
    (value, normal derivative) vanishes on the element's boundary.

    Each edge line divides such a polynomial twice, so they are b^2 q
    for q in P_(d-6), with b = l0 l1 l2 the cubic bubble; for d < 6 there
    are none.  Returns their coefficients (dim, dim P_(d-6)) in the
    element's orthonormal basis `val` at the points of `tab.quad`
    (weights `w`), whose quadrature projects them exactly.
    """
    m = shape.basis_dimension(tab.degree - 6) if tab.degree >= 6 else 0
    # barycentric coordinates are invariant under the affine map, so b
    # and the q (the first dim P_(d-6) reference members) are read on
    # the reference points
    x, y = tab.quad.points.T
    bubble = (1.0 - x - y) * x * y
    return val.T @ ((w * bubble**2)[:, None] * tab.tri.val[:, :m])


def norm_identity_check(vertices, z, degree):
    """Two-sided approximation of the broken-graph trace norm of z.

    Both sides work in the polynomials of one `degree` on the element.
    duality_norm maximizes <tr(z), w>_dT / ||w||_{Delta,T} over them,
    where the pairing is the volume form (Delta w, z)_T - (w, Delta z)_T.
    extension_norm minimizes ||y||_{Delta,T} over those whose trace pair
    matches tr(z): y = z + b^2 q with b the cubic bubble and q of degree
    `degree` - 6 (`_zero_trace_columns`).  The sandwich
    duality_norm <= trace norm <= extension_norm holds by construction
    and the gap closes as the degree grows.

    Parameters
    ----------
    vertices : (3, 2) element
    z : Poly2, degree <= 4
    degree : int >= 4
    """
    if z.degree > 4:
        raise ValueError("z must have degree <= 4")
    if degree < 4:
        raise ValueError("degree must be at least 4")
    vertices = np.asarray(vertices, dtype=float)

    # the element's orthonormal P_degree basis from the reference tables
    # the element kernels use; the graph-norm Gram matrix is S^T S for
    # the stacked table S = [sqrt(w) val; sqrt(w) lap]
    _, det, jinv = (x[0] for x in shape.affine_maps(vertices[None]))
    tab = shape.reference_tables(degree)
    basis = shape.map_jet(tab.tri, jinv, det)
    pts, w = shape.map_to_triangle(tab.quad, vertices)
    val = basis.val
    lap = basis.hess[..., 0] + basis.hess[..., 2]
    root_w = np.sqrt(w)[:, None]
    table = np.vstack([root_w * val, root_w * lap])
    z_w = w * z(*pts.T)

    def inverse_factor(table):
        # L^-1 for G = S^T S = L L^T, by the QR the element kernels use
        return forms._inverse_factor(table[None], [0])[0]

    # duality side: sup <tr z, w> / ||w||_Delta = |p|_{G^-1} = |L^-1 p|
    # for the pairing vector p
    lap_z = z.dx().dx()(*pts.T) + z.dy().dy()(*pts.T)
    pairing = lap.T @ z_w - val.T @ (w * lap_z)
    duality = float(np.linalg.norm(inverse_factor(table) @ pairing))

    # extension side: z has degree <= 4 <= degree, so its L2
    # coefficients y0 represent it exactly and match its trace pair
    y0 = val.T @ z_w
    null = _zero_trace_columns(tab, val, w)
    y = y0
    if null.shape[1]:
        # min |S (y0 + N c)| over c: with (S N)^T (S N) = L L^T, the
        # normal equations give c = -L^-T L^-1 (S N)^T S y0
        table_n = table @ null
        linv = inverse_factor(table_n)
        y = y0 - null @ (linv.T @ (linv @ (table_n.T @ (table @ y0))))
    extension = float(np.linalg.norm(table @ y))
    return duality, extension
