"""Manufactured problems, L2 error evaluation, and rate estimation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bilap_dpg import shape
from bilap_dpg.mesh import make_sector_domain, make_unit_square

#: reentrant-corner exponent and matching constant of the sector solution
SINGULAR_ALPHA = 0.673583432147380
SINGULAR_C = 1.234587795273723


@dataclass(frozen=True)
class Problem:
    """Model data: exact solution (when known), right-hand side, domain.

    All callables are vectorized over numpy arrays.  `sigma_exact` is
    the Laplacian of `u_exact`.  `boundary_mode` selects how Dirichlet
    data enters the discrete system: "homogeneous" clamps the trace
    unknown to zero, "interpolated" sets boundary-vertex dofs from
    (u_exact, grad_u_exact).  `singular_corner` marks a point where
    sigma is unbounded so that error quadrature is graded towards it.
    """

    name: str
    u_exact: Callable
    grad_u_exact: Callable
    sigma_exact: Callable
    f: Callable
    boundary_mode: str
    make_domain: Callable
    singular_corner: tuple | None = None


def _g(t):
    return t * t * (1.0 - t) ** 2


def _g2(t):
    return 2.0 - 12.0 * t + 12.0 * t * t


def smooth_problem():
    """Tensor-product polynomial solution on the unit square.

    u(x, y) = x^2 (1-x)^2 y^2 (1-y)^2 satisfies the clamped conditions
    exactly, so the boundary data is homogeneous.
    """

    def u(x, y):
        return _g(x) * _g(y)

    def grad_u(x, y):
        gp = lambda t: 2.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
        return gp(x) * _g(y), _g(x) * gp(y)

    def sigma(x, y):
        return _g2(x) * _g(y) + _g(x) * _g2(y)

    def f(x, y):
        return 24.0 * _g(y) + 2.0 * _g2(x) * _g2(y) + 24.0 * _g(x)

    return Problem(
        name="smooth",
        u_exact=u,
        grad_u_exact=grad_u,
        sigma_exact=sigma,
        f=f,
        boundary_mode="homogeneous",
        make_domain=make_unit_square,
    )


def singular_problem():
    """Biharmonic corner solution on the 5*pi/4 sector.

    u(r, phi) = r^(1+alpha) (cos((alpha+1) phi) + C cos((alpha-1) phi))
    in polar coordinates centered at the reentrant corner, with phi
    measured symmetrically about the positive x-axis.  u and du/dn
    vanish on the two straight edges phi = +-5*pi/8; the remaining
    boundary data is prescribed by interpolation.  f = 0, and
    sigma = Delta u ~ r^(alpha-1) is unbounded at the origin.
    """
    a, c = SINGULAR_ALPHA, SINGULAR_C

    def u(x, y):
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        return r ** (1 + a) * (np.cos((a + 1) * phi) + c * np.cos((a - 1) * phi))

    def grad_u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        safe = np.where(r > 0, r, 1.0)
        phi = np.arctan2(y, x)
        ur = (1 + a) * safe**a * (
            np.cos((a + 1) * phi) + c * np.cos((a - 1) * phi)
        )
        ut_over_r = safe**a * (
            -(a + 1) * np.sin((a + 1) * phi) - c * (a - 1) * np.sin((a - 1) * phi)
        )
        gx = ur * np.cos(phi) - ut_over_r * np.sin(phi)
        gy = ur * np.sin(phi) + ut_over_r * np.cos(phi)
        # gradient is O(r^alpha), so its limit at the corner is zero
        gx = np.where(r > 0, gx, 0.0)
        gy = np.where(r > 0, gy, 0.0)
        if gx.ndim == 0:
            return float(gx), float(gy)
        return gx, gy

    def sigma(x, y):
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        return 4.0 * a * c * r ** (a - 1) * np.cos((a - 1) * phi)

    def f(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Problem(
        name="singular",
        u_exact=u,
        grad_u_exact=grad_u,
        sigma_exact=sigma,
        f=f,
        boundary_mode="interpolated",
        make_domain=make_sector_domain,
        singular_corner=(0.0, 0.0),
    )


def zero_problem(make_domain=make_unit_square):
    """f = 0 with homogeneous clamped data; the exact solution is 0."""
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return Problem(
        name="zero",
        u_exact=zero,
        grad_u_exact=lambda x, y: (
            np.zeros_like(np.asarray(x, dtype=float)),
            np.zeros_like(np.asarray(x, dtype=float)),
        ),
        sigma_exact=zero,
        f=zero,
        boundary_mode="homogeneous",
        make_domain=make_domain,
    )


def _graded_subtriangles(pts, corner, levels):
    """Split a triangle with one vertex at `corner` geometrically.

    Returns a list of vertex triples: `levels` dyadic annuli (two
    triangles each) plus the innermost corner triangle.
    """
    k = int(np.argmin(np.hypot(*(pts - corner).T)))
    o = pts[k]
    a, b = pts[(k + 1) % 3], pts[(k + 2) % 3]
    tris = []
    for lev in range(levels):
        s_out, s_in = 0.5**lev, 0.5 ** (lev + 1)
        ao, bo = o + s_out * (a - o), o + s_out * (b - o)
        ai, bi = o + s_in * (a - o), o + s_in * (b - o)
        tris.append((ao, bo, ai))
        tris.append((bo, bi, ai))
    s = 0.5**levels
    tris.append((o, o + s * (a - o), o + s * (b - o)))
    return tris


def element_quadrature(mesh, exactness, singular_corner=None, levels=4):
    """Physical quadrature points/weights per element.

    Elements touching `singular_corner` get `levels` rounds of geometric
    sub-triangulation towards the corner so that mildly singular
    integrands are resolved.

    Returns (points, weights, graded): the plain rule on every element,
    shapes (nt, nq, 2) and (nt, nq), and a dict mapping each element
    touching the corner to its graded (points, weights), which replace
    its plain row.
    """
    rule = shape.triangle_quadrature(exactness)
    coords = mesh.triangle_coords()
    bary = np.column_stack(
        [1 - rule.points[:, 0] - rule.points[:, 1], rule.points[:, 0], rule.points[:, 1]]
    )
    base_pts = bary @ coords
    base_w = np.outer(2.0 * mesh.areas, rule.weights)
    graded = {}
    if singular_corner is None:
        return base_pts, base_w, graded

    corner = np.asarray(singular_corner, dtype=float)
    touching = np.nonzero(
        (np.hypot(*(coords - corner).transpose(2, 0, 1)) < 1e-12).any(axis=1)
    )[0]
    for t in touching:
        sub_p, sub_w = [], []
        for tri in _graded_subtriangles(coords[t], corner, levels):
            p, w = shape.map_to_triangle(rule, np.asarray(tri))
            sub_p.append(p)
            sub_w.append(w)
        graded[int(t)] = (np.vstack(sub_p), np.concatenate(sub_w))
    return base_pts, base_w, graded


def l2_errors(solution, problem):
    """Element-wise L2 errors of the two field variables.

    All elements are evaluated in one batch with the plain rule of
    exactness 2 * test_degree + 2; the few elements touching the
    singular corner are then integrated again with their graded rules,
    which replace their plain contribution.

    Parameters
    ----------
    solution : object with `mesh`, `u`, `sigma` broken fields
    problem : Problem

    Returns
    -------
    (err_u, err_sigma)
    """
    mesh = solution.mesh
    pts, wts, graded = element_quadrature(
        mesh,
        2 * solution.formulation.test_degree + 2,
        singular_corner=problem.singular_corner,
    )

    def squared(tris, p, w):
        x, y = p[..., 0], p[..., 1]
        du = problem.u_exact(x, y) - solution.u.eval(tris, p)
        ds = problem.sigma_exact(x, y) - solution.sigma.eval(tris, p)
        return np.array([np.sum(w * du * du), np.sum(w * ds * ds)])

    wts[list(graded)] = 0.0
    total = squared(np.arange(mesh.num_triangles), pts, wts)
    for t, (p, w) in graded.items():
        total += squared([t], p[None], w[None])
    return float(np.sqrt(total[0])), float(np.sqrt(total[1]))


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
