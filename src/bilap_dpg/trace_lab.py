"""Numerical studies of the skeleton trace spaces.

Three experiments accompany the solver:

* a mollifier family whose traces converge to the Dirac distribution at
  a corner of the reference triangle, with the convergence rate of the
  duality error measured against second-order test functions;
* a sequence of shifted logarithmic potentials whose point values at a
  boundary point diverge while their L2 norms stay bounded;
* a two-sided (duality from below, extension from above) approximation
  of the trace norm of a smooth function on a single element, both
  sides over the polynomials of one degree d.

Every test function is a monomial x^i y^j, passed as its exponent pair
(i, j).  Every norm of a polynomial is a test norm of `forms`, taken
with its element kernels in the coefficients of the element's
orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bilap_dpg import forms, shape

#: composite Gauss rule of the Dirac pairings on [0, eps]
PANELS = 96
POINTS_PER_PANEL = 8

#: graded fan of the unboundedness demo: sectors of the half disk,
#: dyadic annuli per sector, and the exactness of the rule on each piece
HALF_DISK_SECTORS = 24
HALF_DISK_LEVELS = 26
HALF_DISK_EXACTNESS = 8


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
    """Composite Gauss nodes/weights on [0, eps]: `shape.edge_quadrature`'s
    POINTS_PER_PANEL-point rule on each of PANELS equal panels."""
    rule = shape.edge_quadrature(2 * POINTS_PER_PANEL - 1)
    edges = np.linspace(0.0, eps, PANELS + 1)
    width = np.diff(edges)[:, None]
    return (edges[:-1, None] + width * rule.points).ravel(), (width * rule.weights).ravel()


def pair_trace_veps(z, eps):
    """Duality of the mollifier corner function with a test monomial.

    Evaluates   <dn(v_eps), z>_dT - <v_eps, dn(z)>_dT   on the reference
    triangle; the sign convention makes the eps -> 0 limit equal
    +z(0, 0).  Both edge integrals reduce to [0, eps] on the two legs
    through the corner, because v_eps is supported in the corner ball
    of radius eps; they are computed with composite Gauss panels.  On
    the leg y = 0, z = t^i if j = 0 and dy z = t^i if j = 1; on x = 0,
    z = t^j if i = 0 and dx z = t^j if i = 1; else they vanish there.

    Parameters
    ----------
    z : exponent pair (i, j) of z = x^i y^j, i + j <= 6
    eps : float in (0, 1/2)
    """
    i, j = z
    if min(i, j) < 0 or i + j > 6:
        raise ValueError(f"x^{i} y^{j} is not a monomial of degree <= 6")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    t, w = _panel_gauss(eps)
    wphi = w * mollifier(t, eps)
    # bottom leg y = 0 (outward normal (0,-1)) and left leg x = 0
    # (outward normal (-1,0)); the hypotenuse does not meet the support
    dn_term = (j == 0) * (wphi @ t**i) + (i == 0) * (wphi @ t**j)
    v_term = (j == 1) * (wphi @ t ** (i + 1)) + (i == 1) * (wphi @ t ** (j + 1))
    return float(dn_term - v_term)


@dataclass(frozen=True)
class DiracStudy:
    eps: np.ndarray
    error: np.ndarray
    slope: float


def dirac_convergence_study(eps_list):
    """Worst-case duality error against the Dirac limit, with its rate.

    e(eps) = max over the monomials z of degree <= 4 of
    |pair_trace_veps(z, eps) - z(0,0)| / ||z||_{2,T}, with ||z||_{2,T}
    from scheme 2's test-norm stack (`_norm_stack`); the returned slope
    is the log-log fit of e against eps.
    """
    z_list = [(i, j) for i, j in shape.monomial_exponents(4).tolist()]
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    norms = []
    for z in z_list:
        stack, y = _norm_stack(shape.REFERENCE_VERTICES, z, sum(z), scheme=2)
        norms.append(float(np.linalg.norm(stack @ y)))
    errors = np.empty_like(eps_arr)
    for k, eps in enumerate(eps_arr):
        # z(0, 0) is 1 for the constant and 0 for every other monomial
        errors[k] = max(
            abs(pair_trace_veps(z, eps) - float(z == (0, 0))) / nz
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
    concentrate near), and `shape.graded_rule` grades each sector
    towards it.
    """
    angles = np.linspace(0.0, np.pi, HALF_DISK_SECTORS + 1)
    rim = np.column_stack([np.cos(angles), np.sin(angles)])
    fan = np.stack([np.zeros_like(rim[1:]), rim[:-1], rim[1:]], axis=1)
    rule = shape.graded_rule(HALF_DISK_EXACTNESS, HALF_DISK_LEVELS)
    pts, w = shape.map_to_triangle(rule, fan)
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


def _norm_stack(vertices, z, degree, scheme):
    """The stack S of `scheme`'s first test norm on the element
    `vertices` in P_degree (`forms._gram_stacks`) and the coefficients y
    of z = x^i y^j, given as (i, j), in the element's orthonormal
    basis, so that |S y| is z's graph norm (scheme 1) or full
    second-order norm (scheme 2).

    The basis is degree-graded, so the coefficients past dim P_(i + j)
    are exact zeros, not quadrature rounding that the second-order rows
    (growing like degree^4) would amplify.
    """
    tab = shape.reference_tables(degree)
    _, det, jinv = forms._maps([vertices], [0])
    stack = forms._gram_stacks(forms._hessians(tab, jinv), scheme)[0][0]
    pts, _ = shape.map_to_triangle(tab.quad, vertices)
    i, j = z
    n = shape.basis_dimension(i + j)
    y = np.zeros(tab.dim)
    z_at = pts[:, 0] ** i * pts[:, 1] ** j
    y[:n] = np.sqrt(det[0]) * (tab.quad.weights * z_at) @ tab.tri.val[:, :n]
    return stack, y


def _zero_trace_columns(tab):
    """The polynomials of degree d = `tab.degree` whose trace pair
    (value, normal derivative) vanishes on the element's boundary.

    Each edge line divides such a polynomial twice, so they are b^2 q
    for q in P_(d-6), with b = l0 l1 l2 the cubic bubble; for d < 6 there
    are none.  b and q are read on the reference triangle: barycentric
    coordinates are affine invariants, so their coefficients (dim,
    dim P_(d-6)) in the orthonormal basis are those of any element up to
    the factor |det J|^(1/2), which leaves their span alone.
    """
    m = shape.basis_dimension(tab.degree - 6) if tab.degree >= 6 else 0
    x, y = tab.quad.points.T
    bubble = (1.0 - x - y) * x * y
    return tab.tri.val.T @ ((tab.quad.weights * bubble**2)[:, None] * tab.tri.val[:, :m])


def norm_identity_check(vertices, z, degree):
    """Two-sided approximation of the broken-graph trace norm of z.

    Both sides work in the polynomials of one `degree` on the element,
    in scheme 1's test norm (`_norm_stack`).  duality_norm maximizes
    <tr(z), w>_dT / ||w||_{Delta,T} over them, where the pairing is the
    volume form (Delta w, z)_T - (w, Delta z)_T.
    extension_norm minimizes ||y||_{Delta,T} over those whose trace pair
    matches tr(z): y = z + b^2 q with b the cubic bubble and q of degree
    `degree` - 6 (`_zero_trace_columns`).  The sandwich
    duality_norm <= trace norm <= extension_norm holds by construction
    and the gap closes as the degree grows.

    Parameters
    ----------
    vertices : (3, 2) element
    z : exponent pair (i, j) of z = x^i y^j, i + j <= 4
    degree : int >= 4
    """
    if min(z) < 0 or sum(z) > 4:
        raise ValueError("z must be a monomial of degree <= 4")
    if degree < 4:
        raise ValueError("degree must be at least 4")
    stack, y = _norm_stack(vertices, z, degree, scheme=1)

    # duality side: sup <tr z, w> / ||w||_Delta = |L^-1 p| with L L^T =
    # S^T S and p_i = (Delta w_i, z) - (w_i, Delta z), where the rows of S
    # below the identity expand each Laplacian in the first m members
    lap = stack[len(y):]
    m = len(lap)
    pairing = lap.T @ y[:m]
    pairing[:m] -= lap @ y
    duality = float(np.linalg.norm(forms._inverse_factor(stack[None], [0])[0] @ pairing))

    # extension side: min |S (y + N c)| over c is |(I - Q Q^T) S y| for
    # S N = Q R, as the element kernels condense u
    table_n = stack @ _zero_trace_columns(shape.reference_tables(degree))
    residual, _ = forms._condense_u(np.column_stack([table_n, stack @ y])[None], table_n.shape[1])
    return duality, float(np.linalg.norm(residual))
